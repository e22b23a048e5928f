//! Pause-causality observatory: metrics-export determinism and the
//! victim-attribution acceptance scenario (DESIGN.md §16).
//!
//! The sampler's contract mirrors the telemetry contract next door in
//! `determinism.rs`: `metrics.json` is a pure function of the experiment
//! config.  The executor thread count may never move a byte, and on
//! scenarios inside the engines' documented equivalence class (ECN off,
//! distinct calendar instants, no same-instant cross-partition arrival
//! pairs at one node) the link-partitioned engine at any worker count
//! must reproduce the serial calendar's export byte for byte.  Samples
//! are *instant-closed* (captured at the first event strictly after the
//! sample instant), which is what makes the latter possible at all: the
//! event set at instants `<= t` is engine-invariant even though the
//! intra-instant order is not.

use dsh_core::Scheme;
use dsh_net::{FlowSpec, NetParams, NetworkBuilder, ObserveConfig, ParallelSim};
use dsh_simcore::{Bandwidth, ByteSize, Delta, Executor, Json, Time};
use dsh_transport::CcKind;
use proptest::prelude::*;

/// FNV-1a over the rendered output, so a golden is one `u64` literal.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The 4-switch chain of `determinism.rs`, with the observatory armed:
/// two hosts per switch, ECN off, staggered uncontrolled senders crossing
/// every inter-switch link — the documented requirements for
/// serial/partitioned bit-identity.
fn chain_net(scheme: Scheme) -> dsh_net::Network {
    let params =
        NetParams::tomahawk(scheme).without_ecn().with_observability(ObserveConfig::default());
    let mut b = NetworkBuilder::new(params);
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
    net
}

/// Serial-calendar metrics export for the chain scenario.
fn chain_serial_metrics(scheme: Scheme) -> String {
    let mut sim = chain_net(scheme).into_sim();
    sim.run_until(Time::from_ms(1));
    sim.into_model().metrics_json().expect("observatory armed").to_string()
}

/// Link-partitioned metrics export for the same scenario.
fn chain_partitioned_metrics(scheme: Scheme, workers: usize) -> String {
    let mut par = ParallelSim::new(chain_net(scheme), workers).expect("chain must partition");
    par.run_until(Time::from_ms(1));
    par.into_network().metrics_json().expect("observatory armed").to_string()
}

/// Golden digests (SIH, DSH, BShare) of the chain scenario's
/// `metrics.json` (schema version 2).  Shared by the thread- and
/// worker-sweep tests below: one number covers every engine and every
/// parallelism degree.
const CHAIN_METRICS_GOLDENS: [u64; 3] =
    [5_771_651_002_691_532_224, 4_685_503_019_571_799_165, 17_613_441_913_672_845_992];

#[test]
fn metrics_json_is_byte_identical_at_1_and_4_threads() {
    let schemes = vec![Scheme::Sih, Scheme::Dsh, Scheme::BShare];
    let run =
        |threads: usize| Executor::new(threads).par_map(schemes.clone(), chain_serial_metrics);
    let serial = run(1);
    let four = run(4);
    assert_eq!(serial, four);
    let digests: Vec<u64> = serial.iter().map(|s| fnv1a(s)).collect();
    assert_eq!(digests, CHAIN_METRICS_GOLDENS, "metrics JSON drifted across thread counts");
}

#[test]
fn metrics_json_is_byte_identical_at_1_2_4_workers_and_serial() {
    for (scheme, golden) in
        [Scheme::Sih, Scheme::Dsh, Scheme::BShare].into_iter().zip(CHAIN_METRICS_GOLDENS)
    {
        let serial = chain_serial_metrics(scheme);
        for workers in [1, 2, 4] {
            assert_eq!(
                serial,
                chain_partitioned_metrics(scheme, workers),
                "{scheme:?} metrics drifted at {workers} workers"
            );
        }
        assert_eq!(fnv1a(&serial), golden, "{scheme:?} metrics JSON drifted");
    }
}

/// The fig. 18 acceptance scenario: a seeded 8-to-1 two-switch incast
/// must record a cascade of depth >= 2 (the root switch's pause reaches
/// the sender NICs) with nonzero victim-flow pause attribution.
#[test]
fn incast_cascade_attributes_victim_pause_time() {
    let r = dsh_bench::fig18::run_cell(&dsh_bench::fig18::smoke_base(Scheme::Dsh));
    assert!(r.cascades.count >= 1, "no cascade recorded");
    assert!(r.cascades.max_depth >= 2, "cascade never left the root switch");
    assert!(r.cascades.host_nic_edges >= 1, "cascade never reached a sender NIC");
    assert!(r.victim_ns > 0, "no victim pause time attributed");
    assert!(r.cascades.cycles.is_empty(), "cycle finding on an acyclic topology");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random single-switch incasts with the observatory armed.  The
    /// export must re-parse, sample instants must advance strictly
    /// monotonically at the configured interval, and no switch sample may
    /// ever report more occupancy than the switch owns.  Debug builds
    /// additionally cross-check every capture against `Mmu::audit()`
    /// inside the sampler itself (a `debug_assert`, live in this test
    /// profile), so each case also proves sampler/audit agreement at
    /// every sample instant.
    #[test]
    fn sampler_agrees_with_audit_on_random_incasts(
        scheme_pick in 0u8..3,
        degree in 2usize..7,
        size in 20_000u64..200_000,
        stagger_ns in 1u64..900,
        seed in 0u64..1000,
        interval_us in 2u64..40,
    ) {
        let scheme = match scheme_pick {
            0 => Scheme::Sih,
            1 => Scheme::Dsh,
            _ => Scheme::BShare,
        };
        let buffer = ByteSize::mib(2);
        let cfg = ObserveConfig::default().with_interval(Delta::from_us(interval_us));
        let params = NetParams::tomahawk(scheme)
            .with_buffer(buffer)
            .with_seed(seed)
            .without_ecn()
            .with_observability(cfg);
        let mut b = NetworkBuilder::new(params);
        let hosts: Vec<_> = (0..=degree).map(|_| b.host()).collect();
        let sw = b.switch();
        for &h in &hosts {
            b.link(h, sw, Bandwidth::from_gbps(100), Delta::from_us(1));
        }
        let mut net = b.build();
        for (i, &src) in hosts[..degree].iter().enumerate() {
            net.add_flow(FlowSpec {
                src,
                dst: hosts[degree],
                size,
                class: 0,
                start: Time::from_ns(i as u64 * stagger_ns),
                cc: CcKind::Uncontrolled,
            });
        }
        let mut sim = net.into_sim();
        sim.run_until(Time::from_us(400));
        let net = sim.into_model();

        let doc = net.metrics_json().expect("observatory armed");
        let round = Json::parse(&doc.to_string()).expect("export must re-parse");
        prop_assert_eq!(round.get("version").and_then(Json::as_u64), Some(2));
        prop_assert_eq!(
            round.get("interval_ns").and_then(Json::as_u64),
            Some(interval_us * 1_000)
        );
        let samples = round.get("samples").and_then(Json::as_u64).unwrap_or(0);
        prop_assert!(samples > 0, "400us horizon at {interval_us}us recorded nothing");
        let switches = round.get("switches").and_then(Json::as_arr).expect("switch series");
        prop_assert_eq!(switches.len(), 1);
        for sw in switches {
            let col = |k: &str| -> Vec<u64> {
                sw.get(k)
                    .and_then(Json::as_arr)
                    .expect("column")
                    .iter()
                    .map(|v| v.as_u64().expect("u64 column"))
                    .collect()
            };
            let t = col("t_ns");
            prop_assert!(t.windows(2).all(|w| w[1] == w[0] + interval_us * 1_000));
            let shared = col("shared_bytes");
            let headroom = col("headroom_bytes");
            prop_assert_eq!(t.len(), shared.len());
            for (s, h) in shared.iter().zip(&headroom) {
                prop_assert!(
                    s + h <= buffer.as_u64(),
                    "sampled occupancy {} + {} exceeds the {}-byte buffer",
                    s, h, buffer.as_u64()
                );
            }
        }
    }
}
