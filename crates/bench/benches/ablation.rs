//! Ablation benches for the design choices DESIGN.md calls out:
//! * the DT parameter α's effect on burst absorption (Theorem 1's α),
//! * queue-count scalability (DSH independent of N_q, SIH not),
//! * the insurance headroom's role in losslessness.

use criterion::{criterion_group, criterion_main, Criterion};
use dsh_analysis::theory::{dsh_burst_tolerance, sih_burst_tolerance, BurstScenario};
use dsh_core::{Mmu, MmuConfig, Scheme};

fn base() -> BurstScenario {
    BurstScenario {
        total_buffer: 16.0 * 1024.0 * 1024.0,
        eta: 56_840.0,
        alpha: 1.0 / 16.0,
        num_ports: 32,
        queues_per_port: 7,
        congested: 2,
        bursting: 16,
        offered_load: 2.0,
    }
}

fn alpha_sweep(c: &mut Criterion) {
    c.bench_function("ablation_alpha_sweep", |b| {
        b.iter(|| {
            // Burst tolerance across alpha: rises then falls (too-large
            // alpha lets single queues starve the pool).
            let mut out = Vec::new();
            for k in 1..=8u32 {
                let alpha = 1.0 / f64::from(1 << k);
                let sc = BurstScenario { alpha, ..base() };
                out.push((alpha, dsh_burst_tolerance(&sc), sih_burst_tolerance(&sc)));
            }
            out
        });
    });
}

fn queue_count_sweep(c: &mut Criterion) {
    c.bench_function("ablation_queue_count_sweep", |b| {
        b.iter(|| {
            let mut ratios = Vec::new();
            for nq in [1usize, 2, 4, 7, 8] {
                let sc = BurstScenario { queues_per_port: nq, ..base() };
                ratios.push(dsh_burst_tolerance(&sc) / sih_burst_tolerance(&sc));
            }
            // The DSH advantage grows with the queue count.
            assert!(ratios.windows(2).all(|w| w[1] >= w[0]));
            ratios
        });
    });
}

fn insurance_necessity(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_insurance");
    g.sample_size(10);
    g.bench_function("burst_all_queues_full_dsh", |b| {
        b.iter(|| {
            let mut mmu = Mmu::new(MmuConfig::tomahawk(Scheme::Dsh));
            let mut drops = 0u64;
            'outer: for _ in 0..10_000 {
                for p in 0..32 {
                    let out = mmu.on_arrival(p, 0, 1500);
                    if !out.is_admitted() {
                        drops += 1;
                        break 'outer;
                    }
                }
            }
            drops
        });
    });
    g.finish();
}

criterion_group!(benches, alpha_sweep, queue_count_sweep, insurance_necessity);
criterion_main!(benches);
