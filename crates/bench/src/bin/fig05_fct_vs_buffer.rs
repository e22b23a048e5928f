//! Fig. 5: average FCT vs switch buffer size (PowerTCP, web search, 0.9),
//! swept for every scheme (SIH/DSH/BShare).
//!
//! ```bash
//! cargo run --release -p dsh-bench --bin fig05_fct_vs_buffer \
//!     [--full] [--json] [--seed N] [--threads N] [--workers N]
//! ```

use dsh_bench::fabric::{FctExperiment, Topo};
use dsh_bench::fig05;
use dsh_core::Scheme;
use dsh_simcore::{Delta, Json};
use dsh_transport::CcKind;

fn main() {
    let args = dsh_bench::Args::parse();
    dsh_bench::with_trace(&args, || run(&args));
}

fn run(args: &dsh_bench::Args) {
    let (full, seed) = (args.full, args.seed);
    let mut base = FctExperiment::small(Scheme::Sih, CcKind::PowerTcp);
    base.seed = seed;
    base.workers = args.sim_workers();
    if full {
        base.topo = Topo::PAPER_LEAF_SPINE;
        base.horizon = Delta::from_ms(10);
        base.run_until = Delta::from_ms(30);
    }
    let buffers: Vec<u64> =
        if full { (14..=30).step_by(2).collect() } else { vec![14, 18, 22, 26, 30] };
    println!("Fig. 5 — average FCT vs buffer size (PowerTCP, web search @0.9)");
    let curves = fig05::sweep_schemes(&buffers, &base, &args.executor());
    let mut docs: Vec<Json> = Vec::new();
    for (scheme, points) in &curves {
        println!("[{scheme}]");
        println!("{:>12} {:>14} {:>10}", "buffer(MiB)", "avg FCT(ms)", "flows");
        for p in points {
            println!("{:>12} {:>14.3} {:>10}", p.buffer_mib, p.avg_fct_ms, p.completed);
            if args.json {
                docs.push(
                    Json::object()
                        .with("scheme", scheme.to_string())
                        .with("buffer_mib", p.buffer_mib)
                        .with("avg_fct_ms", p.avg_fct_ms)
                        .with("completed", p.completed as u64),
                );
            }
        }
    }
    println!();
    println!("paper: FCT with 14MB is 78.1% worse than with 30MB (SIH)");
    if args.json {
        let doc = Json::object()
            .with("provenance", dsh_bench::provenance(args))
            .with("points", Json::Arr(docs));
        println!("{doc}");
    }
    // Representative observe-armed run for the --metrics export (no-op
    // without --metrics / DSH_METRICS).
    dsh_bench::fabric::export_fct_metrics(args, &base);
}
