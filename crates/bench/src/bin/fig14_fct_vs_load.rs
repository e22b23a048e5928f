//! Fig. 14: normalized average FCT vs background load (DCQCN & PowerTCP).
//!
//! ```bash
//! cargo run --release -p dsh-bench --bin fig14_fct_vs_load [--full] [--seed N] [--threads N] [--workers N]
//! ```

use dsh_bench::fabric::{FctExperiment, Topo};
use dsh_bench::fig14;
use dsh_core::Scheme;
use dsh_simcore::Delta;
use dsh_transport::CcKind;

fn main() {
    let args = dsh_bench::Args::parse();
    dsh_bench::with_trace(&args, || run(&args));
}

fn run(args: &dsh_bench::Args) {
    let (full, seed) = (args.full, args.seed);
    let ex = args.executor();
    let mut base = FctExperiment::small(Scheme::Sih, CcKind::Dcqcn);
    base.seed = seed;
    base.workers = args.sim_workers();
    if full {
        base.topo = Topo::PAPER_LEAF_SPINE;
        base.horizon = Delta::from_ms(10);
        base.run_until = Delta::from_ms(30);
    }
    let loads = if full { vec![0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8] } else { vec![0.3, 0.5, 0.7] };
    println!("Fig. 14 — avg FCT normalized to SIH (total load 0.9, 16:1 64KB fan-in)");
    for cc in [CcKind::Dcqcn, CcKind::PowerTcp] {
        println!("\n[{cc}]");
        println!(
            "{:>8} {:>12} {:>12} {:>10} {:>10}",
            "bg load", "fan DSH/SIH", "bg DSH/SIH", "SIH done", "DSH done"
        );
        for p in fig14::sweep(cc, &loads, &base, &ex) {
            println!(
                "{:>8.1} {:>12.3} {:>12.3} {:>10} {:>10}",
                p.bg_load,
                p.norm_fan().unwrap_or(f64::NAN),
                p.norm_bg().unwrap_or(f64::NAN),
                p.sih.completed,
                p.dsh.completed
            );
        }
    }
    println!();
    println!("paper: DSH cuts fan-in FCT up to 43.3% (DCQCN) / 57.7% (PowerTCP),");
    println!("       background FCT up to 10.1% (DCQCN) / 31.1% (PowerTCP)");
    // Representative observe-armed run for the --metrics export (no-op
    // without --metrics / DSH_METRICS).
    dsh_bench::fabric::export_fct_metrics(args, &base);
}
