//! Microbenchmark: MMU admission/release throughput for SIH and DSH —
//! the per-packet fast path a switching chip would implement.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dsh_core::{Mmu, MmuConfig, Scheme};

fn mmu_roundtrip(c: &mut Criterion) {
    let mut g = c.benchmark_group("mmu_arrival_departure");
    for scheme in [Scheme::Sih, Scheme::Dsh] {
        g.bench_function(format!("{scheme}"), |b| {
            b.iter_batched_ref(
                || Mmu::new(MmuConfig::tomahawk(scheme)),
                |mmu| {
                    // 16 ports cycling arrivals then departures.
                    for round in 0..64u64 {
                        let port = (round % 16) as usize;
                        let o = mmu.on_arrival(port, 0, 1500);
                        if let Some(region) = o.region {
                            let _ = mmu.on_departure(port, 0, 1500, region);
                        }
                    }
                },
                BatchSize::SmallInput,
            );
        });
    }
    g.finish();
}

fn mmu_burst_to_pause(c: &mut Criterion) {
    let mut g = c.benchmark_group("mmu_burst_until_pause");
    for scheme in [Scheme::Sih, Scheme::Dsh] {
        g.bench_function(format!("{scheme}"), |b| {
            b.iter_batched_ref(
                || Mmu::new(MmuConfig::tomahawk(scheme)),
                |mmu| {
                    'outer: for _ in 0..100_000 {
                        for port in 0..16 {
                            let o = mmu.on_arrival(port, 0, 1500);
                            if !o.actions.is_empty() {
                                break 'outer;
                            }
                        }
                    }
                },
                BatchSize::SmallInput,
            );
        });
    }
    g.finish();
}

criterion_group!(benches, mmu_roundtrip, mmu_burst_to_pause);
criterion_main!(benches);
