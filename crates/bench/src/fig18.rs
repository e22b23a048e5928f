//! Fig. 18 (extension, not in the paper): cascade anatomy — the
//! structure of PFC pause propagation under incast.
//!
//! The paper's case for DSH is causal: static per-port headroom is
//! wasteful *because* pause cascades are rare, shallow, and short. This
//! figure measures that structure directly. A two-tier incast (N senders
//! behind switch A, an oversubscribed receiver behind switch B) drives a
//! textbook cascade — the receiver's slow downlink backs traffic up into
//! B, B pauses A (depth 1), A fills and pauses the sender NICs
//! (depth 2) — and the pause-causality tracker ([`dsh_net::observe`])
//! records every who-paused-whom edge. Sweeping incast degree ×
//! {SIH, DSH, BShare} yields the cascade depth/duration distributions
//! and the victim-flow attribution that explain *why* less headroom is
//! safe.

use crate::fabric::run_net;
use dsh_core::Scheme;
use dsh_net::ObserveConfig;
use dsh_net::{CascadeReport, FidelityMode, FlowSpec, NetParams, Network, NetworkBuilder};
use dsh_simcore::{Bandwidth, ByteSize, Delta, Executor, Time};
use dsh_transport::CcKind;

/// One cascade-anatomy experiment: an N-to-1 incast across two switches
/// with an oversubscribed receiver downlink.
#[derive(Clone, Copy, Debug)]
pub struct Fig18Experiment {
    /// Headroom scheme.
    pub scheme: Scheme,
    /// Incast degree: senders behind switch A all targeting the one
    /// receiver behind switch B.
    pub degree: usize,
    /// Bytes each sender ships (uncontrolled, ECN off — congestion
    /// control must not soften the cascade under measurement).
    pub flow_bytes: u64,
    /// Hard stop for the simulation.
    pub run_until: Delta,
    /// Lossless-pool buffer per switch (small enough that the incast
    /// crosses PFC thresholds at every degree).
    pub buffer: ByteSize,
    /// Seed.
    pub seed: u64,
    /// Intra-run partition workers (1 = serial calendar). Each engine is
    /// individually deterministic (and the partitioned engine is
    /// byte-identical at any worker count ≥ 2), but a synchronized incast
    /// inherently piles same-instant frame ties onto the shared
    /// bottleneck, which is outside the serial/partitioned equivalence
    /// class documented in DESIGN.md — so serial and partitioned runs of
    /// *this* figure may differ in tie order (see
    /// `tests/observability.rs` for the tie-free byte-identity proof).
    pub workers: usize,
    /// Always [`FidelityMode::Packet`]: read by nothing here. Exists only
    /// so the frozen `simbench` benchmark, which passes it to
    /// [`NetParams::with_fidelity`], compiles; drop the three together.
    pub fidelity: FidelityMode,
    /// Observability configuration. Always armed here — the cascade
    /// tracker *is* the measurement; [`crate::observe_config`] merely
    /// overrides the sampling interval when `--metrics` asks for one.
    pub observe: ObserveConfig,
}

impl Fig18Experiment {
    /// Laptop-scale default: 8-to-1 incast, 128 KiB per sender, 2 MiB
    /// switch buffer, 3 ms horizon (the 25 Gb/s downlink drains the
    /// whole incast well within it).
    #[must_use]
    pub fn small(scheme: Scheme) -> Self {
        Fig18Experiment {
            scheme,
            degree: 8,
            flow_bytes: 128 * 1024,
            run_until: Delta::from_ms(3),
            buffer: ByteSize::mib(2),
            seed: 1,
            workers: 1,
            fidelity: FidelityMode::Packet,
            observe: ObserveConfig::default(),
        }
    }
}

/// Outcome of one degree × scheme cell.
#[derive(Clone, Debug)]
pub struct Fig18Result {
    /// The analysed cascade forest (summary statistics, cycle findings,
    /// per-flow attribution).
    pub cascades: CascadeReport,
    /// Summed victim-of-cascade pause exposure over all flows (depth ≥ 2
    /// edges overlapping a flow's lifetime at its NIC).
    pub victim_ns: u64,
    /// Summed self-congested pause exposure (depth-1 edges — the flow's
    /// own first-hop switch was the root).
    pub self_ns: u64,
    /// Summed queue- plus port-level PFC pause wall-clock over all
    /// egress ports.
    pub pause_wall_ns: u64,
    /// Flows that delivered every byte.
    pub completed: usize,
    /// Registered flows.
    pub registered: usize,
    /// Calendar events processed.
    pub events: u64,
    /// Host wall time of the simulation run.
    pub wall: std::time::Duration,
}

/// Builds the loaded two-tier incast fabric; returns `(network,
/// registered flows)`.
#[must_use]
pub fn loaded(exp: &Fig18Experiment) -> (Network, usize) {
    let params = NetParams::tomahawk(exp.scheme)
        .with_buffer(exp.buffer)
        .with_seed(exp.seed)
        .with_observability(exp.observe)
        .without_ecn();
    let mut b = NetworkBuilder::new(params);
    let (sw_a, sw_b) = (b.switch(), b.switch());
    let senders: Vec<_> = (0..exp.degree).map(|_| b.host()).collect();
    let receiver = b.host();
    let fast = Bandwidth::from_gbps(100);
    for &h in &senders {
        b.link(h, sw_a, fast, Delta::from_us(1));
    }
    b.link(sw_a, sw_b, fast, Delta::from_us(2));
    // The oversubscribed downlink is the cascade root: traffic backs up
    // into B, B pauses A, A fills and pauses the sender NICs.
    b.link(sw_b, receiver, Bandwidth::from_gbps(25), Delta::from_us(1));

    let mut net = b.build();
    for (i, &src) in senders.iter().enumerate() {
        // Staggered starts keep every calendar instant distinct, the
        // documented requirement for serial/partitioned bit-identity.
        net.add_flow(FlowSpec {
            src,
            dst: receiver,
            size: exp.flow_bytes,
            class: 0,
            start: Time::from_ns(i as u64 * 200),
            cc: CcKind::Uncontrolled,
        });
    }
    let registered = net.flow_count();
    (net, registered)
}

/// Runs one cell and keeps the measured network (for `--metrics`
/// exports); [`run_cell`] discards it.
///
/// # Panics
///
/// Panics on a dirty MMU audit, any drop (all three cells are
/// lossless), or a cycle finding — this radial topology has no buffer
/// dependency loop, so a reported cycle is a tracker bug.
#[must_use]
pub fn run_cell_net(exp: &Fig18Experiment) -> (Fig18Result, Network) {
    let (net, registered) = loaded(exp);
    let deadline = Time::ZERO + exp.run_until;
    let wall = std::time::Instant::now();
    let (net, events) = run_net(net, deadline, exp.workers);
    let wall = wall.elapsed();

    for (id, audit) in net.audit_all() {
        assert!(
            audit.is_clean(),
            "dirty MMU audit at {id} in {:?} degree {}: {:?}",
            exp.scheme,
            exp.degree,
            audit.violations
        );
    }
    assert_eq!(net.data_drops(), 0, "lossless incast dropped packets: {exp:?}");

    let cascades = net.cascade_report(deadline).expect("fig18 always arms the cascade tracker");
    assert!(
        cascades.cycles.is_empty(),
        "cycle finding on an acyclic radial topology: {:?}",
        cascades.cycles
    );
    let victim_ns: u64 = cascades.flows.iter().map(|f| f.victim.as_ns()).sum();
    let self_ns: u64 = cascades.flows.iter().map(|f| f.self_congested.as_ns()).sum();
    let pause_wall_ns: u64 =
        net.pause_ledgers(deadline).map(|l| l.queue_level.as_ns() + l.port_level.as_ns()).sum();
    let completed = net.fct_records().len();
    let result = Fig18Result {
        cascades,
        victim_ns,
        self_ns,
        pause_wall_ns,
        completed,
        registered,
        events,
        wall,
    };
    (result, net)
}

/// Runs one cell.
///
/// # Panics
///
/// See [`run_cell_net`].
#[must_use]
pub fn run_cell(exp: &Fig18Experiment) -> Fig18Result {
    run_cell_net(exp).0
}

/// The schemes the figure compares, in display order.
pub const SCHEMES: [Scheme; 3] = [Scheme::Sih, Scheme::Dsh, Scheme::BShare];

/// Per-switch buffer for an incast of `degree`, used by [`sweep`]: SIH
/// statically reserves headroom plus private space per (port, class) —
/// about 257 KiB per port here — so at 2 MiB a 9-port switch already
/// over-reserves the pool and `MmuConfig` rightly refuses to build.
/// `max(2, degree/2)` MiB keeps SIH feasible with a real shared pool
/// left over at every sweep degree. All three schemes at a given degree
/// share the returned size, so the per-degree rows stay an equal-buffer
/// comparison — and the growing floor *is* the figure's point: the
/// buffer a lossless fabric must ship scales with SIH's reservation,
/// not with what DSH actually uses.
#[must_use]
pub fn buffer_for(degree: usize) -> ByteSize {
    ByteSize::mib((degree as u64 / 2).max(2))
}

/// One sweep row: an incast degree with one outcome per scheme, in
/// [`SCHEMES`] order.
#[derive(Clone, Debug)]
pub struct Fig18Point {
    /// Incast degree.
    pub degree: usize,
    /// Outcomes keyed by [`SCHEMES`].
    pub cells: Vec<Fig18Result>,
}

impl Fig18Point {
    /// The point's outcomes keyed by scheme.
    #[must_use]
    pub fn per_scheme(&self) -> Vec<(Scheme, &Fig18Result)> {
        SCHEMES.iter().copied().zip(self.cells.iter()).collect()
    }
}

/// Sweeps incast degrees × [`SCHEMES`] on the pool.
#[must_use]
pub fn sweep(degrees: &[usize], base: &Fig18Experiment, ex: &Executor) -> Vec<Fig18Point> {
    let grid: Vec<Fig18Experiment> = degrees
        .iter()
        .flat_map(|&degree| {
            let buffer = base.buffer.max(buffer_for(degree));
            SCHEMES.map(|scheme| Fig18Experiment { scheme, degree, buffer, ..*base })
        })
        .collect();
    let mut results = ex.par_map(grid, |exp| run_cell(&exp)).into_iter();
    degrees
        .iter()
        .map(|&degree| {
            let mut next = || results.next().expect("one result per scheme per degree");
            Fig18Point { degree, cells: vec![next(), next(), next()] }
        })
        .collect()
}

/// Cuts the scale down for smoke/bench runs (CI wall-clock): the 8-to-1
/// DSH cell of the acceptance contract.
#[must_use]
pub fn smoke_base(scheme: Scheme) -> Fig18Experiment {
    let mut base = Fig18Experiment::small(scheme);
    base.flow_bytes = 96 * 1024;
    base.run_until = Delta::from_ms(2);
    base
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incast_cascade_reaches_the_sender_nics() {
        let r = run_cell(&smoke_base(Scheme::Dsh));
        assert!(r.cascades.count >= 1, "no cascade recorded under an 8-to-1 incast");
        assert!(
            r.cascades.max_depth >= 2,
            "incast cascade never propagated past the root (depth {})",
            r.cascades.max_depth
        );
        assert!(r.cascades.host_nic_edges >= 1, "cascade never reached a sender NIC");
        assert!(r.victim_ns > 0, "no flow attributed as a cascade victim");
        assert_eq!(r.completed, r.registered, "incast flows wedged");
    }

    #[test]
    fn sih_and_dsh_see_the_same_cascade_shape_at_low_degree() {
        // Both lossless schemes must record *some* cascade at degree 4;
        // the figure's point is the duration distribution, not presence.
        for scheme in [Scheme::Sih, Scheme::BShare] {
            let mut base = smoke_base(scheme);
            base.degree = 4;
            let r = run_cell(&base);
            assert!(r.cascades.count >= 1, "{scheme:?}: no cascade at degree 4");
            assert_eq!(r.completed, r.registered, "{scheme:?}: flows wedged");
        }
    }
}
