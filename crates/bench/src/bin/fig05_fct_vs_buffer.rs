//! Fig. 5: average FCT vs switch buffer size (PowerTCP, web search, 0.9),
//! swept for both schemes (SIH and DSH).
//!
//! ```bash
//! cargo run --release -p dsh-bench --bin fig05_fct_vs_buffer \
//!     [--full] [--smoke] [--seed N] [--threads N] [--record out.json]
//! ```
//!
//! `--smoke` runs the sweep's two end buffers (14 and 30 MiB) with flows
//! starting in the first 400 µs, and asserts that every cell completes
//! flows and reports a finite average FCT. The record's metrics come from
//! one observe-armed run of the SIH base cell.

use dsh_bench::fabric::{self, FctExperiment, Topo};
use dsh_bench::{fig05, Flag, Sections};
use dsh_core::Scheme;
use dsh_net::ObserveConfig;
use dsh_simcore::{Delta, Json};
use dsh_transport::CcKind;

fn main() {
    let args =
        dsh_bench::Args::parse(env!("CARGO_BIN_NAME"), &[Flag::Full, Flag::Smoke, Flag::Seed]);
    dsh_bench::record(&args, || run(&args));
}

fn run(args: &dsh_bench::Args) -> Sections {
    let (full, seed) = (args.full, args.seed);
    let mut base = FctExperiment::small(Scheme::Sih, CcKind::PowerTcp);
    base.seed = seed;
    if full {
        base.topo = Topo::PAPER_LEAF_SPINE;
        base.horizon = Delta::from_ms(10);
        base.run_until = Delta::from_ms(30);
    }
    if args.smoke {
        base.horizon = Delta::from_us(400);
        base.run_until = Delta::from_ms(2);
    }
    let buffers: Vec<u64> = if args.smoke {
        vec![14, 30]
    } else if full {
        (14..=30).step_by(2).collect()
    } else {
        vec![14, 18, 22, 26, 30]
    };
    println!("Fig. 5 — average FCT vs buffer size (PowerTCP, web search @0.9)");
    let curves = fig05::sweep_schemes(&buffers, &base, &args.executor());
    let mut docs: Vec<Json> = Vec::new();
    for (scheme, points) in &curves {
        println!("[{scheme}]");
        println!("{:>12} {:>14} {:>10}", "buffer(MiB)", "avg FCT(ms)", "flows");
        for p in points {
            println!("{:>12} {:>14.3} {:>10}", p.buffer_mib, p.avg_fct_ms, p.completed);
            docs.push(
                Json::object()
                    .with("scheme", scheme.to_string())
                    .with("buffer_mib", p.buffer_mib)
                    .with("avg_fct_ms", p.avg_fct_ms)
                    .with("completed", p.completed as u64),
            );
        }
    }
    println!();
    println!("paper: FCT with 14MB is 78.1% worse than with 30MB (SIH)");
    if args.smoke {
        for (scheme, points) in &curves {
            for p in points {
                assert!(p.completed > 0, "{scheme} at {} MiB completed no flows", p.buffer_mib);
                assert!(p.avg_fct_ms.is_finite(), "{scheme} at {} MiB has no FCT", p.buffer_mib);
            }
        }
        println!("smoke OK");
    }
    let metrics = args.record.is_some().then(|| {
        let exp = FctExperiment { observe: Some(ObserveConfig), ..base };
        dsh_bench::metrics_run(fabric::loaded(&exp).0, exp.run_until)
    });
    Sections { figure: Some(Json::object().with("points", docs)), metrics }
}
