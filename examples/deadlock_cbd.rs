//! Reproduce the paper's Fig. 12 deadlock scenario end to end: a
//! leaf–spine fabric with two failed links, bounce-path routing, and
//! rack-to-rack fan-in traffic form a cyclic buffer dependency. SIH
//! wedges; DSH (usually) does not; the PFC watchdog (extension) breaks
//! the wedge by dropping. The scenario, the deadlock definition (a
//! who-paused-whom cycle still open at the end) and the watchdog rule are
//! those of the Fig. 12 experiment (`dsh_bench::fig12`).
//!
//! ```bash
//! cargo run --release --example deadlock_cbd
//! ```

use dsh_bench::fig12::{self, Fig12Config};
use dsh_core::Scheme;
use dsh_simcore::Delta;
use dsh_transport::CcKind;

fn main() {
    println!("Fig. 12 walkthrough — cyclic buffer dependency after two link failures\n");
    let cfg = Fig12Config {
        horizon: Delta::from_ms(8),
        duration: Delta::from_ms(10),
        ..Fig12Config::small()
    };
    let wd = Fig12Config { watchdog: Some(fig12::WATCHDOG_TIMEOUT), ..cfg };
    for seed in 1..=2 {
        for (label, scheme, cfg) in [
            ("SIH            ", Scheme::Sih, &cfg),
            ("SIH + watchdog ", Scheme::Sih, &wd),
            ("DSH            ", Scheme::Dsh, &cfg),
        ] {
            let r = fig12::run_once(scheme, CcKind::Dcqcn, cfg, seed);
            match r.onset {
                Some(t) => println!(
                    "seed {seed} {label}: DEADLOCK at {:>7.2} ms (watchdog drops {})",
                    t.as_ms_f64(),
                    r.watchdog_drops
                ),
                None => println!(
                    "seed {seed} {label}: no deadlock        (watchdog drops {})",
                    r.watchdog_drops
                ),
            }
            for c in &r.cycles {
                println!("    {c}");
            }
        }
        println!();
    }
}
