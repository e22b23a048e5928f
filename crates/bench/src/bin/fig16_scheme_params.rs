//! Fig. 16 (extension): BShare delay-target × DT α sensitivity grid
//! under the Fig. 14 traffic mix (DCQCN, web search, 0.9 total load).
//!
//! ```bash
//! cargo run --release -p dsh-bench --bin fig16_scheme_params \
//!     [--full] [--json] [--smoke] [--seed N] [--threads N]
//! ```

use dsh_bench::fabric::{FctExperiment, Topo};
use dsh_bench::fig16;
use dsh_core::Scheme;
use dsh_simcore::{Delta, Json};
use dsh_transport::CcKind;

fn main() {
    let args = dsh_bench::Args::parse();
    dsh_bench::with_trace(&args, || run(&args));
}

fn run(args: &dsh_bench::Args) {
    let mut base = FctExperiment::small(Scheme::BShare, CcKind::Dcqcn);
    base.seed = args.seed;
    if args.full {
        base.topo = Topo::PAPER_LEAF_SPINE;
        base.horizon = Delta::from_ms(10);
        base.run_until = Delta::from_ms(30);
    }
    if args.smoke {
        base.horizon = Delta::from_us(400);
        base.run_until = Delta::from_ms(2);
    }
    let (targets, alphas): (Vec<u64>, Vec<f64>) = if args.smoke {
        (vec![20], vec![1.0 / 16.0])
    } else if args.full {
        ((5..=40).step_by(5).collect(), vec![1.0 / 32.0, 1.0 / 16.0, 1.0 / 8.0, 0.5, 1.0, 2.0])
    } else {
        (vec![5, 10, 20, 40], vec![1.0 / 32.0, 1.0 / 16.0, 0.5, 2.0])
    };

    println!("Fig. 16 — BShare delay target × DT α (DCQCN, web search @0.9)");
    let points = fig16::sweep(&targets, &alphas, &base, &args.executor());
    println!(
        "{:>12} {:>10} {:>14} {:>14} {:>8}",
        "target(us)", "alpha", "avg FCT(ms)", "p99 FCT(ms)", "flows"
    );
    let mut docs: Vec<Json> = Vec::new();
    for p in &points {
        println!(
            "{:>12} {:>10.4} {:>14.3} {:>14.3} {:>8}",
            p.delay_target_us, p.alpha, p.avg_fct_ms, p.p99_fct_ms, p.completed
        );
        if args.json {
            docs.push(
                Json::object()
                    .with("delay_target_us", p.delay_target_us)
                    .with("alpha", p.alpha)
                    .with("avg_fct_ms", p.avg_fct_ms)
                    .with("p99_fct_ms", p.p99_fct_ms)
                    .with("completed", p.completed as u64),
            );
        }
    }
    if args.smoke {
        let p = points.first().expect("smoke grid has one cell");
        assert!(p.completed > 0, "smoke cell completed no flows");
        assert!(p.avg_fct_ms.is_finite(), "smoke cell produced no FCT summary");
        println!("smoke OK: {} flows, avg {:.3} ms", p.completed, p.avg_fct_ms);
    }
    if args.json {
        let doc = Json::object()
            .with("provenance", dsh_bench::provenance(args))
            .with("scheme", Scheme::BShare.to_string())
            .with("points", Json::Arr(docs));
        println!("{doc}");
    }
    // Representative observe-armed run for the --metrics export (no-op
    // without --metrics / DSH_METRICS).
    dsh_bench::fabric::export_fct_metrics(args, &base);
}
