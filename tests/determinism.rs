//! Determinism regression for the parallel experiment executor.
//!
//! The executor's contract (DESIGN.md, "Parallel execution & determinism
//! contract") is that a sweep's output is a pure function of its
//! experiment configs: the thread count may only change wall-clock time,
//! never a single byte of the results. These tests pin that down by
//! running the same scaled-down sweeps at 1 and 4 threads and comparing
//! serialized output byte for byte.

use dsh_bench::fabric::{self, FctExperiment, Topo};
use dsh_bench::fig14;
use dsh_core::Scheme;
use dsh_net::{FlowSpec, NetEvent, NetParams, NetworkBuilder};
use dsh_simcore::{Bandwidth, Delta, EngineProfile, Executor, Time};
use dsh_transport::CcKind;

/// FNV-1a over the rendered output, so a golden is one `u64` literal.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Micro leaf–spine base so the whole grid stays test-sized.
fn micro_base() -> FctExperiment {
    let mut base = FctExperiment::small(Scheme::Sih, CcKind::Dcqcn);
    base.topo = Topo::LeafSpine { leaves: 2, spines: 2, hosts_per_leaf: 4 };
    base.horizon = Delta::from_us(300);
    base.run_until = Delta::from_ms(4);
    base
}

#[test]
fn fig14_sweep_is_byte_identical_at_1_and_4_threads() {
    let loads = [0.3, 0.5, 0.7];
    let base = micro_base();
    let serial = fig14::sweep(CcKind::Dcqcn, &loads, &base, &Executor::new(1));
    let four = fig14::sweep(CcKind::Dcqcn, &loads, &base, &Executor::new(4));
    // FCT summaries are f64-valued; Debug prints the shortest
    // round-trippable form, so equal strings mean bit-equal results.
    let rendered = format!("{serial:#?}");
    assert_eq!(rendered, format!("{four:#?}"));
    // And the run must actually have measured something.
    assert!(serial.iter().all(|p| p.norm_fan().is_some() && p.norm_bg().is_some()));
    // Golden digest: pins the sweep's full output byte-for-byte across
    // refactors. Frame pooling, the inline hop list, and buffer reuse must
    // not move a single event, so this hash is the "before/after pooling"
    // equivalence proof. It may only change with a deliberate
    // behavior-changing fix (last rebaselined when redundant NIC pacing
    // wake-ups were elided while the uplink serializer is busy, which
    // re-orders same-instant calendar ties).
    assert_eq!(fnv1a(&rendered), 10_839_357_829_881_153_996, "fig14 micro sweep output drifted");
}

#[test]
fn micro_cell_dispatch_counts_are_pinned() {
    // The micro leaf-spine cell under DCQCN, dispatched event by event.
    // Only wake-ups that do work reach the calendar: a `TxDone` is pushed
    // only while a frame waits behind the one on the wire (or a host flow
    // is active), and each flow keeps one live CC timer. The `arrive`
    // count is the frame count, unchanged since every `TxDone` and every
    // stale CC timer was dispatched; a dead wake-up that comes back raises
    // `tx_done` or `cc_timer` and fails here. The cell arms no flow
    // monitor, watchdog or observatory, so no `Sample` tick is scheduled:
    // the 400 it once dispatched fed only the retired deadlock scan.
    let exp = micro_base();
    let (net, _fan, _registered) = fabric::loaded(&exp);
    let mut sim = net.into_sim();
    let mut profile = EngineProfile::new::<NetEvent>();
    sim.run_until_profiled(Time::ZERO + exp.run_until, &mut profile);
    let counts: Vec<(&str, u64)> = profile.rows().map(|(name, count, _)| (name, count)).collect();
    // Dispatching every wake-up, the same run counted 68,802 `tx_done`
    // and 8,880 `cc_timer` events. Every `TxDone` is dispatched on its
    // own: the 6,372 that an `Arrive` once handled inline (the next event
    // at the same instant on the same node) now count in their own row.
    assert_eq!(
        counts,
        [
            ("arrive", 80_588),
            ("tx_done", 43_237),
            ("flow_start", 133),
            ("host_wake", 322),
            ("cc_timer", 99),
        ],
        "per-class dispatch counts drifted"
    );
}

/// One micro 7:1 incast, returning the run's full telemetry JSON.
fn incast_telemetry(scheme: Scheme) -> String {
    let mut b = NetworkBuilder::new(NetParams::tomahawk(scheme).without_ecn());
    let hosts: Vec<_> = (0..8).map(|_| b.host()).collect();
    let sw = b.switch();
    for &h in &hosts {
        b.link(h, sw, Bandwidth::from_gbps(100), Delta::from_us(2));
    }
    let mut net = b.build();
    for &src in &hosts[..7] {
        net.add_flow(FlowSpec {
            src,
            dst: hosts[7],
            size: 96 * 1024,
            class: 0,
            start: Time::ZERO,
            cc: CcKind::Uncontrolled,
        });
    }
    let mut sim = net.into_sim();
    let end = Time::from_us(500);
    sim.run_until(end);
    sim.into_model().telemetry_report(end).to_json().to_string()
}

#[test]
fn telemetry_json_is_byte_identical_at_1_and_4_threads() {
    let schemes = vec![Scheme::Sih, Scheme::Dsh, Scheme::Sih, Scheme::Dsh];
    let run = |threads: usize| Executor::new(threads).par_map(schemes.clone(), incast_telemetry);
    let serial = run(1);
    let four = run(4);
    assert_eq!(serial, four);
    assert!(serial[0].contains("\"switches\"") || !serial[0].is_empty());
    // Golden digests (SIH, DSH): same contract as the fig14 golden —
    // the pooled hot path must reproduce the pre-pooling telemetry JSON
    // byte for byte, and any refactor of the scheme policies must leave
    // them unchanged. (Last rebaselined when runtime fault injection
    // left the simulator: each new JSON equals the old one with its
    // always-zero fault-drop counter field removed, byte for byte —
    // serialization-only; the event stream is untouched. Provenance
    // deliberately excludes the thread count so reports stay identical at
    // any executor width.)
    let digests: Vec<u64> = serial.iter().map(|s| fnv1a(s)).collect();
    assert_eq!(
        digests,
        vec![
            9_473_473_404_024_005_178,
            2_450_159_678_512_166_949,
            9_473_473_404_024_005_178,
            2_450_159_678_512_166_949,
        ],
        "telemetry JSON drifted"
    );
}

#[test]
fn derived_seeds_match_across_pool_widths() {
    let points: Vec<u32> = (0..16).collect();
    let at = |threads: usize| {
        Executor::new(threads).par_map_seeded(42, points.clone(), |p, seed| (p, seed))
    };
    assert_eq!(at(1), at(4));
    assert_eq!(at(1), at(16));
}

/// A 4-switch chain with two hosts per switch, ECN off, staggered
/// uncontrolled senders crossing every inter-switch link. Returns the
/// full telemetry JSON of a 1 ms run.
fn chain_telemetry(scheme: Scheme) -> String {
    let mut b = NetworkBuilder::new(NetParams::tomahawk(scheme).without_ecn());
    let switches: Vec<_> = (0..4).map(|_| b.switch()).collect();
    let hosts: Vec<_> = (0..8).map(|_| b.host()).collect();
    let bw = Bandwidth::from_gbps(100);
    for (i, &h) in hosts.iter().enumerate() {
        b.link(h, switches[i / 2], bw, Delta::from_us(1));
    }
    for w in switches.windows(2) {
        b.link(w[0], w[1], bw, Delta::from_us(2));
    }
    let mut net = b.build();
    for i in 0..4 {
        // Forward and reverse flows between opposite ends of the chain.
        for (j, (src, dst)) in
            [(hosts[i], hosts[7 - i]), (hosts[7 - i], hosts[i])].into_iter().enumerate()
        {
            net.add_flow(FlowSpec {
                src,
                dst,
                size: 150_000 + 30_000 * i as u64,
                class: 0,
                start: Time::from_us((2 * i + j) as u64 * 3),
                cc: CcKind::Uncontrolled,
            });
        }
    }
    let mut sim = net.into_sim();
    let end = Time::from_ms(1);
    sim.run_until(end);
    sim.into_model().telemetry_report(end).to_json().to_string()
}

#[test]
fn chain_telemetry_matches_pinned_digests() {
    let digests: Vec<u64> =
        Scheme::ALL.into_iter().map(|scheme| fnv1a(&chain_telemetry(scheme))).collect();
    // Golden digests (SIH, DSH): pin the chain's full telemetry
    // across refactors. (Last rebaselined when runtime fault injection
    // left the simulator: each new JSON equals the old one with its
    // always-zero fault-drop counter field removed, byte for byte —
    // serialization-only; the event stream is untouched.)
    assert_eq!(
        digests,
        vec![7_360_921_980_116_013_217, 3_844_678_069_628_642_250],
        "chain telemetry drifted"
    );
}
