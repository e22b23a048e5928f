//! Fig. 15: normalized background FCT across workloads and topologies
//! (DCQCN).
//!
//! ```bash
//! cargo run --release -p dsh-bench --bin fig15_workloads_topologies \
//!     [--full] [--seed N] [--threads N] [--record out.json]
//! ```

use dsh_bench::fabric::{self, FctExperiment, Topo};
use dsh_bench::{fig15, Flag, Sections};
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
    let mut base = FctExperiment::small(Scheme::Sih, CcKind::Dcqcn);
    base.seed = seed;
    let k = if full { 16 } else { 4 };
    if full {
        base.topo = Topo::PAPER_LEAF_SPINE;
        base.horizon = Delta::from_ms(10);
        base.run_until = Delta::from_ms(30);
    }
    let loads = if full { vec![0.2, 0.4, 0.6, 0.8] } else { vec![0.4, 0.6] };
    println!("Fig. 15 — avg background FCT normalized to SIH, DCQCN");
    let cells = fig15::sweep(&loads, &base, k, &args.executor());
    for panel in cells.chunks(loads.len()) {
        let (k_label, w) = (k, panel[0].workload);
        let label = if panel[0].fat_tree {
            format!("Fat-Tree(k={k_label}) + {w}")
        } else {
            format!("Leaf-Spine + {w}")
        };
        println!("\n[{label}]");
        println!("{:>8} {:>12} {:>10} {:>10}", "bg load", "bg DSH/SIH", "SIH done", "DSH done");
        for cell in panel {
            println!(
                "{:>8.1} {:>12.3} {:>10} {:>10}",
                cell.bg_load,
                cell.norm_bg().unwrap_or(f64::NAN),
                cell.sih.completed,
                cell.dsh.completed
            );
        }
    }
    println!();
    println!("paper: DSH improves FCT across all four workload/topology panels");
    let metrics = args.record.is_some().then(|| {
        let exp = FctExperiment { observe: Some(ObserveConfig), ..base };
        dsh_bench::metrics_run(fabric::loaded(&exp).0, exp.run_until)
    });
    Sections { figure: None, metrics }
}
