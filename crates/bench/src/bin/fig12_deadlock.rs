//! Fig. 12: deadlock onset-time CDF with cyclic buffer dependencies.
//!
//! ```bash
//! cargo run --release -p dsh-bench --bin fig12_deadlock [--full] [--smoke] [--threads N]
//! ```
//!
//! `--smoke` is the quick look: the laptop-scale scenario under DCQCN for
//! SIH and DSH, seeds 1–4, printing each seed's deadlock onset. It asserts
//! that SIH deadlocks in more of those seeds than DSH and skips the
//! watchdog extension.

use dsh_bench::fig12::{self, Fig12Config};
use dsh_core::Scheme;
use dsh_simcore::Executor;
use dsh_transport::CcKind;

/// Seeds per scheme of the `--smoke` run.
const SMOKE_SEEDS: u64 = 4;

fn main() {
    let args = dsh_bench::Args::parse();
    dsh_bench::with_trace(&args, || if args.smoke { smoke(&args.executor()) } else { run(&args) });
}

fn smoke(ex: &Executor) {
    let cfg = Fig12Config::small();
    println!(
        "Fig. 12 smoke — fan-in {}, load {}, DCQCN, seeds 1-{SMOKE_SEEDS}",
        cfg.fan_in, cfg.load
    );
    // Prints each seed's onset and returns how many seeds deadlocked.
    let deadlocked = |scheme: Scheme| {
        let runs = fig12::run_many(scheme, CcKind::Dcqcn, &cfg, SMOKE_SEEDS, ex);
        for r in &runs {
            println!(
                "{scheme}/dcqcn seed {}: onset {:?} ms",
                r.seed,
                r.onset.map(|t| t.as_ms_f64())
            );
        }
        runs.iter().filter(|r| r.onset.is_some()).count()
    };
    let (sih, dsh) = (deadlocked(Scheme::Sih), deadlocked(Scheme::Dsh));
    assert!(
        sih > dsh,
        "SIH must deadlock in more smoke seeds than DSH: SIH {sih}/{SMOKE_SEEDS}, \
         DSH {dsh}/{SMOKE_SEEDS}"
    );
    println!("[smoke] OK: SIH deadlocked {sih}/{SMOKE_SEEDS}, DSH {dsh}/{SMOKE_SEEDS}");
}

fn run(args: &dsh_bench::Args) {
    let full = args.full;
    let ex = args.executor();
    let cfg = if full { Fig12Config::full() } else { Fig12Config::small() };
    let runs = if full { 100 } else { 10 };
    println!("Fig. 12 — deadlock avoidance (2 spines x 4 leaves, failures S0-L3 & S1-L0)");
    println!("{runs} runs per cell, fan-in {}, load {}", cfg.fan_in, cfg.load);
    for cc in [CcKind::Dcqcn, CcKind::PowerTcp] {
        for scheme in [Scheme::Sih, Scheme::Dsh] {
            let outcomes = fig12::run_many(scheme, cc, &cfg, runs, &ex);
            let frac = fig12::deadlock_fraction(&outcomes);
            let mut onsets: Vec<f64> =
                outcomes.iter().filter_map(|r| r.onset.map(|t| t.as_ms_f64())).collect();
            onsets.sort_by(|a, b| a.partial_cmp(b).unwrap());
            print!("{scheme}/{cc}: deadlocked {:>5.1}% ", frac * 100.0);
            if onsets.is_empty() {
                println!("(no deadlocks)");
            } else {
                println!("onset ms: {onsets:.1?}");
            }
        }
    }
    // Extension: the industry PFC-watchdog mitigation on the SIH fabric.
    let wd_cfg = fig12::Fig12Config { watchdog: Some(cfg.detect_threshold), ..cfg };
    let wd = fig12::run_many(Scheme::Sih, CcKind::Dcqcn, &wd_cfg, runs, &ex);
    let drops: u64 = wd.iter().map(|r| r.watchdog_drops).sum();
    println!(
        "SIH/DCQCN + watchdog (extension): deadlocked {:>5.1}%, frames dropped {drops}",
        fig12::deadlock_fraction(&wd) * 100.0
    );
    println!();
    println!("paper: SIH deadlocks in 100% of runs; DSH avoids 96% (DCQCN) / 100% (PowerTCP)");
    println!("extension: the watchdog breaks SIH's deadlocks only by dropping frames");
}
