//! Fig. 13: throughput of the innocent flow F0 under a 24:1 fan-in burst.
//!
//! ```bash
//! cargo run --release -p dsh-bench --bin fig13_collateral_damage [--threads N] [--record out.json]
//! ```

use dsh_bench::{fig13, Sections};
use dsh_transport::CcKind;

fn main() {
    let args = dsh_bench::Args::parse(env!("CARGO_BIN_NAME"), &[]);
    dsh_bench::record(&args, || run(&args));
}

fn run(args: &dsh_bench::Args) -> Sections {
    println!("Fig. 13 — collateral damage mitigation (victim flow F0 goodput)");
    let triples =
        fig13::sweep(&[CcKind::Uncontrolled, CcKind::Dcqcn, CcKind::PowerTcp], &args.executor());
    for (cc, sih, dsh) in triples {
        println!("\n[{cc}]");
        println!("{:>10} {:>12} {:>12}", "t(us)", "SIH(Gb/s)", "DSH(Gb/s)");
        for (a, b) in sih.iter().zip(&dsh).step_by(4) {
            println!("{:>10.0} {:>12.1} {:>12.1}", a.time.as_us_f64(), a.gbps, b.gbps);
        }
        println!(
            "post-burst min: SIH {:>6.1} Gb/s | DSH {:>6.1} Gb/s",
            fig13::post_burst_min(&sih),
            fig13::post_burst_min(&dsh)
        );
    }
    println!(
        "\npaper: SIH drags F0 to ~0; DSH keeps it near 50 Gb/s; CC alone cannot help within 1 RTT"
    );
    Sections::default()
}
