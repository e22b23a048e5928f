//! Fig. 14: normalized average FCT vs background load (DCQCN & PowerTCP).
//!
//! ```bash
//! cargo run --release -p dsh-bench --bin fig14_fct_vs_load \
//!     [--full] [--seed N] [--threads N] [--record out.json]
//! ```

use dsh_bench::fabric::{self, FctExperiment, Topo};
use dsh_bench::{fig14, Flag, Sections};
use dsh_core::Scheme;
use dsh_net::ObserveConfig;
use dsh_simcore::Delta;
use dsh_transport::CcKind;

fn main() {
    let args = dsh_bench::Args::parse(env!("CARGO_BIN_NAME"), &[Flag::Full, Flag::Seed]);
    dsh_bench::record(&args, || run(&args));
}

fn run(args: &dsh_bench::Args) -> Sections {
    let (full, seed) = (args.full, args.seed);
    let ex = args.executor();
    let mut base = FctExperiment::small(Scheme::Sih, CcKind::Dcqcn);
    base.seed = seed;
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
    let metrics = args.record.is_some().then(|| {
        let exp = FctExperiment { observe: Some(ObserveConfig), ..base };
        dsh_bench::metrics_run(fabric::loaded(&exp).0, exp.run_until)
    });
    Sections { figure: None, metrics }
}
