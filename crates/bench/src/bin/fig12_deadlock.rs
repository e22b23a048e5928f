//! Fig. 12: deadlock onset-time CDF with cyclic buffer dependencies.
//!
//! ```bash
//! cargo run --release -p dsh-bench --bin fig12_deadlock \
//!     [--full] [--smoke] [--threads N] [--record out.json]
//! ```
//!
//! A run is deadlocked when a who-paused-whom cycle is still open at its
//! end; every deadlocked run prints its cycle. `--smoke` is the quick
//! look: the laptop-scale scenario for SIH and DSH under DCQCN and under
//! PowerTCP, seeds 1–4, printing each seed's deadlock onset. It asserts
//! that SIH deadlocks in more of those seeds than DSH under each transport
//! and skips the watchdog extension.

use dsh_bench::fig12::{self, DeadlockRun, Fig12Config};
use dsh_bench::{Flag, Sections};
use dsh_core::Scheme;
use dsh_simcore::Executor;
use dsh_transport::CcKind;

/// Seeds per scheme of the `--smoke` run.
const SMOKE_SEEDS: u64 = 4;

fn main() {
    let args = dsh_bench::Args::parse(env!("CARGO_BIN_NAME"), &[Flag::Full, Flag::Smoke]);
    dsh_bench::record(&args, || {
        if args.smoke {
            smoke(&args.executor());
        } else {
            run(&args);
        }
        Sections::default()
    });
}

/// Prints the cycles of a deadlocked run, one line each.
fn print_cycles(r: &DeadlockRun) {
    for c in &r.cycles {
        println!("    seed {}: {c}", r.seed);
    }
}

fn smoke(ex: &Executor) {
    let cfg = Fig12Config::small();
    println!("Fig. 12 smoke — fan-in {}, load {}, seeds 1-{SMOKE_SEEDS}", cfg.fan_in, cfg.load);
    let mut tally = Vec::new();
    for cc in [CcKind::Dcqcn, CcKind::PowerTcp] {
        // Prints each seed's onset and returns how many seeds deadlocked.
        let deadlocked = |scheme: Scheme| {
            let runs = fig12::run_many(scheme, cc, &cfg, SMOKE_SEEDS, ex);
            for r in &runs {
                println!(
                    "{scheme}/{cc} seed {}: onset {:?} ms",
                    r.seed,
                    r.onset.map(|t| t.as_ms_f64())
                );
                print_cycles(r);
            }
            runs.iter().filter(|r| r.onset.is_some()).count()
        };
        let (sih, dsh) = (deadlocked(Scheme::Sih), deadlocked(Scheme::Dsh));
        assert!(
            sih > dsh,
            "SIH must deadlock in more smoke seeds than DSH under {cc}: SIH {sih}/{SMOKE_SEEDS}, \
             DSH {dsh}/{SMOKE_SEEDS}"
        );
        tally.push(format!("{cc} SIH {sih}/{SMOKE_SEEDS}, DSH {dsh}/{SMOKE_SEEDS}"));
    }
    println!("[smoke] OK: deadlocked {}", tally.join("; "));
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
            outcomes.iter().for_each(print_cycles);
        }
    }
    // Extension: the industry PFC-watchdog mitigation on the SIH fabric.
    let timeout = if full { fig12::WATCHDOG_TIMEOUT_FULL } else { fig12::WATCHDOG_TIMEOUT };
    let wd_cfg = Fig12Config { watchdog: Some(timeout), ..cfg };
    let wd = fig12::run_many(Scheme::Sih, CcKind::Dcqcn, &wd_cfg, runs, &ex);
    let drops: u64 = wd.iter().map(|r| r.watchdog_drops).sum();
    println!(
        "SIH/DCQCN + watchdog (extension): deadlocked {:>5.1}%, frames dropped {drops}",
        fig12::deadlock_fraction(&wd) * 100.0
    );
    wd.iter().for_each(print_cycles);
    println!();
    println!("paper: SIH deadlocks in 100% of runs; DSH avoids 96% (DCQCN) / 100% (PowerTCP)");
    println!("extension: the watchdog breaks SIH's deadlocks only by dropping frames");
}
