//! Fig. 4: trends of buffer in Broadcom's switching chips.
//!
//! ```bash
//! cargo run --release -p dsh-bench --bin fig04_headroom_trend [--smoke] [--record out.json]
//! ```
//!
//! `--smoke` prints the trend's two endpoint chips and asserts the
//! figure's claim between them: buffer per unit of capacity fell while
//! the headroom share of the buffer rose.

use dsh_bench::{Flag, Sections};

fn main() {
    let args = dsh_bench::Args::parse(env!("CARGO_BIN_NAME"), &[Flag::Smoke]);
    // No simulation runs here (the figure is a table of chip specs), so
    // the record's trace is empty.
    dsh_bench::record(&args, || run(args.smoke));
}

fn run(smoke: bool) -> Sections {
    println!("Fig. 4 — Trends of buffer in Broadcom switching chips");
    println!(
        "{:<12} {:>6} {:>10} {:>12} {:>12} {:>14} {:>10}",
        "chip", "year", "capacity", "buffer(MiB)", "hdrm(MiB)", "buf/cap(us)", "hdrm frac"
    );
    let mut rows = dsh_bench::fig04::rows();
    if smoke {
        let last = rows.len() - 1;
        rows = vec![rows[0], rows[last]];
    }
    for r in &rows {
        println!(
            "{:<12} {:>6} {:>7}G {:>12.1} {:>12.2} {:>14.1} {:>9.1}%",
            r.chip.name,
            r.chip.year,
            r.chip.capacity_gbps,
            r.buffer_mib,
            r.headroom_mib,
            r.us_per_capacity,
            r.headroom_fraction * 100.0
        );
    }
    println!();
    println!("paper: buffer/capacity fell 157us -> 37us (4x); headroom fraction rose 43% -> 67%");
    if smoke {
        let (old, new) = (&rows[0], &rows[1]);
        assert!(new.us_per_capacity < old.us_per_capacity, "buffer per capacity must fall");
        assert!(new.headroom_fraction > old.headroom_fraction, "headroom share must rise");
        println!("smoke OK");
    }
    Sections::default()
}
