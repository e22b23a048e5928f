//! Fig. 17 (extension): the lossless-vs-lossy trade-off.
//!
//! ```bash
//! cargo run --release -p dsh-bench --bin fig17_lossless_vs_lossy \
//!     [--full] [--smoke] [--seed N] [--threads N] \
//!     [--regime gbn|sr] [--no-recovery] [--record out.json]
//! ```
//!
//! Sweeps load over the four-cell regime matrix {PFC+SIH, PFC+DSH,
//! lossy+GBN, lossy+SR} and prints, per cell: FCT percentiles, PFC pause
//! wall-clock, buffer statically reserved as headroom, drop-tail drops,
//! and bytes retransmitted. `--regime` picks the recovery regime for the
//! *lossless* cells (the lossy cells are their regime); `--no-recovery`
//! runs the lossless cells bare. `--smoke` runs one load across all four
//! cells and hard-asserts the regime contracts: lossless cells drop
//! nothing, lossy cells report exactly zero pause wall-clock and zero
//! headroom bytes, and selective repeat retransmits less than go-back-N.
//! The record's metrics come from one observe-armed run of the PFC+SIH
//! base cell at the base load.

use dsh_bench::fig17::{self, Cell, Fig17Experiment, Fig17Point, Fig17Result};
use dsh_bench::{Flag, Sections};
use dsh_net::ObserveConfig;
use dsh_simcore::Json;

fn main() {
    let reads = &[Flag::Full, Flag::Smoke, Flag::Seed, Flag::Regime, Flag::NoRecovery];
    let args = dsh_bench::Args::parse(env!("CARGO_BIN_NAME"), reads);
    dsh_bench::record(&args, || run(&args));
}

/// One table row for a cell's result.
fn print_row(load: f64, cell: Cell, r: &Fig17Result) {
    let (p50, p99) = r.fct.map_or((f64::NAN, f64::NAN), |s| (s.p50_secs, s.p99_secs));
    println!(
        "{:>5.2} {:>10} {:>9.1} {:>9.1} {:>9} {:>10} {:>7} {:>10} {:>8}",
        load,
        cell.label(),
        p50 * 1e6,
        p99 * 1e6,
        r.pause_wall_ns.div_euclid(1000),
        r.headroom_reserved,
        r.data_drops,
        r.retransmitted_bytes,
        format!("{}/{}", r.completed, r.registered),
    );
}

/// The cross-cell invariants every point must satisfy (the per-cell zero
/// assertions already ran inside [`fig17::run_cell`]).
fn check_point(p: &Fig17Point) {
    for (cell, r) in p.per_cell() {
        assert_eq!(r.wedged, 0, "{}: a flow wedged at load {}", cell.label(), p.load);
    }
}

fn json_row(load: f64, cell: Cell, r: &Fig17Result) -> Json {
    let (p50, p99) = r.fct.map_or((f64::NAN, f64::NAN), |s| (s.p50_secs, s.p99_secs));
    Json::object()
        .with("cell", cell.label())
        .with("load", load)
        .with("fct_p50_secs", p50)
        .with("fct_p99_secs", p99)
        .with("pause_wall_ns", r.pause_wall_ns)
        .with("headroom_reserved_bytes", r.headroom_reserved)
        .with("headroom_peak_bytes", r.headroom_peak)
        .with("data_drops", r.data_drops)
        .with("retransmitted_bytes", r.retransmitted_bytes)
        .with("sr_retransmitted_bytes", r.sr_retransmitted_bytes)
        .with("nacks_sent", r.nacks_sent)
        .with("completed", r.completed as u64)
        .with("failed", r.failed)
        .with("events", r.events)
}

fn header() {
    println!(
        "{:>5} {:>10} {:>9} {:>9} {:>9} {:>10} {:>7} {:>10} {:>8}",
        "load", "cell", "p50_us", "p99_us", "pause_us", "hdrm_B", "drops", "retx_B", "c/r"
    );
}

/// The record's metrics: one observe-armed run of `base`.
fn metrics(args: &dsh_bench::Args, base: Fig17Experiment) -> Option<Json> {
    args.record.is_some().then(|| {
        let exp = Fig17Experiment { observe: Some(ObserveConfig), ..base };
        dsh_bench::metrics_run(fig17::loaded(&exp).0, exp.run_until)
    })
}

fn run(args: &dsh_bench::Args) -> Sections {
    let ex = args.executor();

    if args.smoke {
        let mut base = fig17::smoke_base(Cell::Sih);
        base.seed = args.seed;
        base.override_regime = args.regime;
        base.no_recovery = args.no_recovery;
        let points = fig17::sweep(&[base.load], &base, &ex);
        let p = &points[0];
        header();
        let mut docs: Vec<Json> = Vec::new();
        for (cell, r) in p.per_cell() {
            print_row(p.load, cell, r);
            docs.push(json_row(p.load, cell, r));
        }
        check_point(p);
        let by = |c: Cell| p.per_cell().into_iter().find(|(k, _)| *k == c).expect("all cells").1;
        let (gbn, sr) = (by(Cell::LossyGbn), by(Cell::LossySr));
        assert!(gbn.data_drops > 0, "lossy+gbn smoke never overflowed — no trade-off exercised");
        assert!(sr.data_drops > 0, "lossy+sr smoke never overflowed — no trade-off exercised");
        assert!(
            sr.retransmitted_bytes < gbn.retransmitted_bytes,
            "selective repeat retransmitted {} bytes vs go-back-N {} — SR should repair less",
            sr.retransmitted_bytes,
            gbn.retransmitted_bytes
        );
        println!("smoke OK");
        return Sections {
            figure: Some(Json::object().with("points", docs)),
            metrics: metrics(args, base),
        };
    }

    let mut base = Fig17Experiment::small(Cell::Sih);
    base.seed = args.seed;
    base.override_regime = args.regime;
    base.no_recovery = args.no_recovery;
    if args.full {
        base.hosts_per_leaf = 8;
        base.horizon = dsh_simcore::Delta::from_ms(2);
        base.run_until = dsh_simcore::Delta::from_ms(25);
    }
    let loads: &[f64] = if args.full { &[0.3, 0.5, 0.7, 0.8, 0.9] } else { &[0.3, 0.5, 0.7, 0.9] };

    println!("Fig. 17 — lossless (PFC) vs lossy (drop + recover) under load");
    header();
    let points = fig17::sweep(loads, &base, &ex);
    let mut docs: Vec<Json> = Vec::new();
    for p in &points {
        check_point(p);
        for (cell, r) in p.per_cell() {
            print_row(p.load, cell, r);
            docs.push(json_row(p.load, cell, r));
        }
    }
    println!();
    println!("pause_us = PFC pause wall-clock summed over ports (0 by construction when lossy);");
    println!("hdrm_B = buffer statically reserved as headroom; retx_B includes GBN rewinds.");
    Sections { figure: Some(Json::object().with("points", docs)), metrics: metrics(args, base) }
}
