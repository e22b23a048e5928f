//! Fig. 11: total PFC pause duration of fan-in flows vs burst size.
//!
//! ```bash
//! cargo run --release -p dsh-bench --bin fig11_pfc_avoidance \
//!     [--full] [--smoke] [--threads N] [--record out.json]
//! ```
//!
//! `--smoke` runs two burst sizes, 5 % and 30 % of the buffer, and asserts
//! the figure's claim at the larger one: DSH absorbs it without a pause
//! where SIH pauses.
//!
//! The record's figure section holds, per measured point and scheme, the
//! run's network telemetry.

use dsh_bench::{fig11, Flag, Sections};
use dsh_core::Scheme;
use dsh_simcore::Json;

/// The burst size, as a fraction of the buffer, at which `--smoke` checks
/// the figure's claim.
const SMOKE_BURST: f64 = 0.30;

fn main() {
    let args = dsh_bench::Args::parse(env!("CARGO_BIN_NAME"), &[Flag::Full, Flag::Smoke]);
    dsh_bench::record(&args, || run(&args));
}

fn run(args: &dsh_bench::Args) -> Sections {
    let points: Vec<f64> = if args.smoke {
        vec![0.05, SMOKE_BURST]
    } else if args.full {
        (1..=12).map(|i| i as f64 * 0.05).collect()
    } else {
        vec![0.05, 0.10, 0.20, 0.30, 0.40, 0.50]
    };
    println!("Fig. 11 — PFC avoidance (pause duration vs burst size, 32-port Tomahawk)");
    print!("{:>10}", "burst(%B)");
    for scheme in Scheme::ALL {
        print!(" {:>17}", format!("{scheme} pause(ms)"));
    }
    println!();
    let mut docs: Vec<Json> = Vec::new();
    let mut smoke_pauses = Vec::new();
    for runs in fig11::sweep_schemes_with_telemetry(&points, &args.executor()) {
        print!("{:>9.0}%", runs[0].1.burst_pct * 100.0);
        for (_, point, _) in &runs {
            print!(" {:>17.3}", point.pause_ms);
        }
        println!();
        if runs[0].1.burst_pct == SMOKE_BURST {
            smoke_pauses =
                runs.iter().map(|(scheme, point, _)| (*scheme, point.pause_ms)).collect();
        }
        for (scheme, point, tel) in runs {
            docs.push(
                Json::object()
                    .with("scheme", scheme.to_string().to_ascii_lowercase())
                    .with("burst_pct", point.burst_pct)
                    .with("pause_ms", point.pause_ms)
                    .with("telemetry", tel),
            );
        }
    }
    println!();
    println!("paper: DSH absorbs bursts up to ~40% of buffer pause-free, >4x SIH");
    if args.smoke {
        let pause = |s: Scheme| smoke_pauses.iter().find(|(x, _)| *x == s).map(|(_, ms)| *ms);
        let (sih, dsh) = (pause(Scheme::Sih), pause(Scheme::Dsh));
        assert_eq!(dsh, Some(0.0), "DSH must absorb the smoke burst pause-free");
        assert!(sih.is_some_and(|ms| ms > 0.0), "SIH must pause on the smoke burst: {sih:?}");
        println!("smoke OK");
    }
    Sections { figure: Some(Json::object().with("points", docs)), metrics: None }
}
