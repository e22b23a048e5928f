//! Theorems 1 & 2: closed-form burst-absorption bounds vs the fluid model.
//!
//! ```bash
//! cargo run --release -p dsh-bench --bin theory_validation [--smoke] [--record out.json]
//! ```
//!
//! `--smoke` checks one load at the smallest and largest queue counts and
//! asserts the remark the table shows: the fluid model meets both closed
//! forms, DSH's bound does not depend on `N_q`, and SIH's shrinks with it.

use dsh_bench::{theory, Flag, Sections};
use dsh_core::headroom::{eta, sonic_headroom};
use dsh_simcore::{Bandwidth, Delta};

fn main() {
    let args = dsh_bench::Args::parse(env!("CARGO_BIN_NAME"), &[Flag::Smoke]);
    // The fluid model runs outside the event engine, so the record's
    // trace is empty.
    dsh_bench::record(&args, || run(args.smoke));
}

fn run(smoke: bool) -> Sections {
    println!("Theorems 1-2 — burst absorption bounds (normalized time units)");
    println!(
        "{:>6} {:>4} {:>14} {:>14} {:>14} {:>14} {:>10}",
        "R", "Nq", "DSH closed", "DSH fluid", "SIH closed", "SIH fluid", "DSH/SIH"
    );
    let rows = if smoke {
        theory::validate(&[2.0], &[2, 7])
    } else {
        theory::validate(&[1.5, 2.0, 4.0, 8.0], &[2, 4, 7])
    };
    for row in &rows {
        println!(
            "{:>6.1} {:>4} {:>14.1} {:>14.1} {:>14.1} {:>14.1} {:>10.2}",
            row.r,
            row.nq,
            row.dsh_closed,
            row.dsh_fluid,
            row.sih_closed,
            row.sih_fluid,
            row.dsh_closed / row.sih_closed
        );
    }
    println!();
    println!("remark check: DSH columns are constant in Nq; SIH shrinks as Nq grows");
    if smoke {
        let near = |fluid: f64, closed: f64| (fluid - closed).abs() <= 0.01 * closed;
        for row in &rows {
            assert!(near(row.dsh_fluid, row.dsh_closed), "DSH fluid misses Theorem 1: {row:?}");
            assert!(near(row.sih_fluid, row.sih_closed), "SIH fluid misses Theorem 2: {row:?}");
        }
        let (few, many) = (&rows[0], &rows[1]);
        assert_eq!(few.dsh_closed, many.dsh_closed, "DSH bound must not depend on Nq");
        assert!(many.sih_closed < few.sih_closed, "SIH bound must shrink as Nq grows");
    }

    // Headroom-source cross-check: SONiC's per-port formula
    // 2·C·D_cable + 2·MTU + C·t_peer equals the paper's Eq. 1 exactly when
    // the peer-response allowance C·t_peer matches Eq. 1's fixed
    // 3840-byte PFC processing term (307.2 ns at 100 Gb/s).
    println!();
    println!("headroom-source check: SONiC formula vs Eq. 1 (100G, 2us cable, 1500B MTU)");
    let (cap, cable, mtu) = (Bandwidth::from_gbps(100), Delta::from_us(2), 1500);
    let paper = eta(cap, cable, mtu);
    let sonic = sonic_headroom(cap, cable, mtu, Delta::from_ps(307_200));
    println!("  Eq. 1: {paper}   SONiC(t_peer=307.2ns): {sonic}");
    assert_eq!(paper, sonic, "SONiC headroom must reduce to Eq. 1 at t_peer = 3840B/C");
    if smoke {
        println!("smoke OK");
    }
    Sections::default()
}
