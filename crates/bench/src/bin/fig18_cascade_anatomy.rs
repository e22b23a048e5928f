//! Fig. 18 (extension): cascade anatomy — PFC pause propagation under
//! incast.
//!
//! ```bash
//! cargo run --release -p dsh-bench --bin fig18_cascade_anatomy \
//!     [--full] [--smoke] [--json] [--seed N] [--threads N] \
//!     [--metrics out.json]
//! ```
//!
//! Sweeps incast degree × {SIH, DSH} on a two-tier fabric with
//! an oversubscribed receiver and prints, per cell, the cascade forest's
//! anatomy: cascade count, max depth/fan-out, p50/p99 edge duration,
//! host-NIC reach, and the victim-vs-self pause attribution. `--smoke`
//! runs the 8-to-1 DSH cell and hard-asserts the acceptance contract: at
//! least one cascade of depth ≥ 2 whose victim-flow attribution is
//! nonzero, clean audits, zero drops, no cycle findings. With
//! `--metrics` the smoke cell (or, in a sweep, one extra run of the
//! degree-8 cell) writes its `metrics.json`, sampled on the network's one
//! 10 µs tick, and re-parses it before declaring success.

use dsh_bench::fig18::{self, Fig18Experiment, Fig18Point, Fig18Result};
use dsh_core::Scheme;
use dsh_simcore::Json;

fn main() {
    let args = dsh_bench::Args::parse();
    dsh_bench::with_trace(&args, || run(&args));
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

/// Re-parses a freshly written `--metrics` export and sanity-checks the
/// document shape, so a malformed export fails the run instead of
/// shipping to a dashboard.
fn reparse_metrics(args: &dsh_bench::Args) {
    let Some(path) = args.metrics.as_deref() else { return };
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("metrics export {path} unreadable: {e}"));
    let doc = Json::parse(&text)
        .unwrap_or_else(|e| panic!("metrics export {path} is not valid JSON: {e}"));
    let version = doc.get("version").and_then(Json::as_u64);
    assert_eq!(version, Some(2), "metrics export {path} missing version 2");
    let switches = doc.get("switches").and_then(Json::as_arr);
    assert!(
        switches.is_some_and(|s| !s.is_empty()),
        "metrics export {path} has no per-switch series"
    );
    let samples = doc.get("samples").and_then(Json::as_u64).unwrap_or(0);
    assert!(samples > 0, "metrics export {path} recorded no samples");
    eprintln!("[dsh] metrics export re-parsed OK: {path}");
}

fn run(args: &dsh_bench::Args) {
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
        dsh_bench::write_metrics(args, &net);
        reparse_metrics(args);
        println!("smoke OK");
        return;
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
            if args.json {
                docs.push(json_row(p.degree, scheme, r));
            }
        }
    }
    println!();
    println!("depth = deepest who-paused-whom chain (1 = pause stayed at the root switch);");
    println!("victim_us = flow pause exposure from depth>=2 edges (congestion cascaded back");
    println!("to an innocent NIC); self_us = exposure where the flow's own root congested.");
    if args.json {
        let doc = Json::object()
            .with("provenance", dsh_bench::provenance(args))
            .with("points", Json::Arr(docs));
        println!("{doc}");
    }
    // The export samples the representative (degree-8) cell of the base
    // scheme rather than the whole sweep: one network, one time series.
    if args.metrics.is_some() {
        let (_r, net) = fig18::run_cell_net(&base);
        dsh_bench::write_metrics(args, &net);
        reparse_metrics(args);
    }
}
