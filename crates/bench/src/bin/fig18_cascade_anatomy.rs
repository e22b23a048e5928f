//! Fig. 18 (extension): cascade anatomy — PFC pause propagation under
//! incast.
//!
//! ```bash
//! cargo run --release -p dsh-bench --bin fig18_cascade_anatomy \
//!     [--full] [--smoke] [--seed N] [--threads N] [--record out.json]
//! ```
//!
//! Sweeps incast degree × {SIH, DSH} on a two-tier fabric with
//! an oversubscribed receiver and prints, per cell, the cascade forest's
//! anatomy: cascade count, max depth/fan-out, p50/p99 edge duration,
//! host-NIC reach, and the victim-vs-self pause attribution. `--smoke`
//! runs the 8-to-1 DSH cell and hard-asserts the acceptance contract: at
//! least one cascade of depth ≥ 2 whose victim-flow attribution is
//! nonzero, clean audits, zero drops, no cycle findings. The record's
//! metrics come from the smoke cell (or, in a sweep, one extra run of the
//! degree-8 DSH cell), sampled on the network's one 10 µs tick. With
//! `--record` the binary re-parses the record it wrote and asserts that
//! it holds at least one PFC pause span and a non-empty metrics series,
//! so one command checks the record pipeline end to end.

use dsh_bench::fig18::{self, Fig18Experiment, Fig18Point, Fig18Result};
use dsh_bench::{Flag, Sections};
use dsh_core::Scheme;
use dsh_simcore::Json;

fn main() {
    let args =
        dsh_bench::Args::parse(env!("CARGO_BIN_NAME"), &[Flag::Full, Flag::Smoke, Flag::Seed]);
    dsh_bench::record(&args, || run(&args));
    if let Some(path) = args.record.as_deref() {
        check_record(path);
    }
}

/// Re-parses the record just written: it must hold at least one PFC
/// pause span, which the incast cannot run without, and a version-2
/// metrics export with a non-empty per-switch series and samples.
fn check_record(path: &str) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("run record {path} unreadable: {e}"));
    let doc =
        Json::parse(&text).unwrap_or_else(|e| panic!("run record {path} is not valid JSON: {e}"));
    let events = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array");
    // pid 1 is the PFC wire track: one B span per applied pause.
    let pause_spans = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(Json::as_str) == Some("B")
                && e.get("pid").and_then(Json::as_u64) == Some(1)
        })
        .count();
    assert!(pause_spans >= 1, "run record {path} holds no PFC pause span");
    let metrics = doc.get("metrics").expect("run record has a metrics section");
    assert_eq!(metrics.get("version").and_then(Json::as_u64), Some(2), "metrics not version 2");
    let switches = metrics.get("switches").and_then(Json::as_arr);
    assert!(switches.is_some_and(|s| !s.is_empty()), "metrics hold no per-switch series");
    let samples = metrics.get("samples").and_then(Json::as_u64).unwrap_or(0);
    assert!(samples > 0, "metrics recorded no samples");
    println!("[record] OK: {pause_spans} PFC pause spans, {samples} metrics samples");
}

fn header() {
    println!(
        "{:>6} {:>7} {:>8} {:>5} {:>6} {:>9} {:>9} {:>8} {:>10} {:>10}",
        "degree",
        "scheme",
        "cascades",
        "depth",
        "fanout",
        "p50_us",
        "p99_us",
        "nic_edges",
        "victim_us",
        "self_us"
    );
}

fn print_row(degree: usize, scheme: Scheme, r: &Fig18Result) {
    let c = &r.cascades;
    println!(
        "{:>6} {:>7} {:>8} {:>5} {:>6} {:>9.1} {:>9.1} {:>8} {:>10} {:>10}",
        degree,
        format!("{scheme:?}"),
        c.count,
        c.max_depth,
        c.max_fanout,
        c.p50_duration.as_ns() as f64 / 1e3,
        c.p99_duration.as_ns() as f64 / 1e3,
        c.host_nic_edges,
        r.victim_ns.div_euclid(1000),
        r.self_ns.div_euclid(1000),
    );
}

fn json_row(degree: usize, scheme: Scheme, r: &Fig18Result) -> Json {
    Json::object()
        .with("degree", degree as u64)
        .with("scheme", format!("{scheme:?}"))
        .with("pause_cascades", r.cascades.to_json())
        .with("victim_ns", r.victim_ns)
        .with("self_congested_ns", r.self_ns)
        .with("pause_wall_ns", r.pause_wall_ns)
        .with("completed", r.completed as u64)
        .with("events", r.events)
}

fn run(args: &dsh_bench::Args) -> Sections {
    let ex = args.executor();

    if args.smoke {
        let mut base = fig18::smoke_base(Scheme::Dsh);
        base.seed = args.seed;
        let (r, net) = fig18::run_cell_net(&base);
        header();
        print_row(base.degree, base.scheme, &r);
        let c = &r.cascades;
        assert!(c.count >= 1, "smoke incast produced no cascade");
        assert!(c.max_depth >= 2, "smoke cascade never propagated past the root");
        assert!(c.host_nic_edges >= 1, "smoke cascade never reached a sender NIC");
        assert!(r.victim_ns > 0, "smoke run attributed no victim pause time");
        assert!(c.cycles.is_empty(), "cycle finding on an acyclic topology: {:?}", c.cycles);
        assert_eq!(r.completed, r.registered, "smoke incast flows wedged");
        println!("smoke OK");
        return Sections {
            figure: Some(
                Json::object().with("points", vec![json_row(base.degree, base.scheme, &r)]),
            ),
            metrics: net.metrics_json(),
        };
    }

    let mut base = Fig18Experiment::small(Scheme::Dsh);
    base.seed = args.seed;
    let degrees: &[usize] = if args.full { &[4, 8, 16, 32] } else { &[4, 8, 16] };

    println!("Fig. 18 — cascade anatomy: pause propagation under N-to-1 incast");
    header();
    let points: Vec<Fig18Point> = fig18::sweep(degrees, &base, &ex);
    let mut docs: Vec<Json> = Vec::new();
    for p in &points {
        for (scheme, r) in p.per_scheme() {
            print_row(p.degree, scheme, r);
            docs.push(json_row(p.degree, scheme, r));
        }
    }
    println!();
    println!("depth = deepest who-paused-whom chain (1 = pause stayed at the root switch);");
    println!("victim_us = flow pause exposure from depth>=2 edges (congestion cascaded back");
    println!("to an innocent NIC); self_us = exposure where the flow's own root congested.");
    // The metrics sample the representative (degree-8) cell of the base
    // scheme rather than the whole sweep: one network, one time series.
    let metrics = args.record.is_some().then(|| fig18::run_cell_net(&base).1.metrics_json());
    Sections { figure: Some(Json::object().with("points", docs)), metrics: metrics.flatten() }
}
