//! Fig. 11: PFC avoidance — total pause duration of the fan-in flows as
//! a function of burst size (% of buffer), SIH vs DSH.
//!
//! Scenario (Fig. 11a): a 32-port Tomahawk; two long-lived background
//! flows from ports 0 and 1 to port 31; at `t₁` sixteen fan-in flows from
//! ports 2–17 burst toward port 30.

use crate::par_grid;
use dsh_core::Scheme;
use dsh_net::{FlowSpec, NetParams, NetworkBuilder, NodeId};
use dsh_simcore::{Bandwidth, Delta, Executor, Time};
use dsh_transport::CcKind;

/// One measured point of Fig. 11b.
#[derive(Clone, Copy, Debug)]
pub struct Fig11Point {
    /// Burst size as a fraction of the 16 MB buffer.
    pub burst_pct: f64,
    /// Total pause duration across all fan-in senders (ms).
    pub pause_ms: f64,
}

/// Runs the Fig. 11 scenario for one burst size.
#[must_use]
pub fn pause_duration(scheme: Scheme, burst_pct: f64) -> Fig11Point {
    pause_duration_with_telemetry(scheme, burst_pct).0
}

/// Like [`pause_duration`], but also returns the run's JSON-serialized
/// network telemetry ([`dsh_net::Network::telemetry_report`]).
#[must_use]
pub fn pause_duration_with_telemetry(
    scheme: Scheme,
    burst_pct: f64,
) -> (Fig11Point, dsh_simcore::Json) {
    let params = NetParams::tomahawk(scheme).without_ecn();
    let mut b = NetworkBuilder::new(params);
    let hosts: Vec<NodeId> = (0..32).map(|_| b.host()).collect();
    let sw = b.switch();
    for &h in &hosts {
        b.link(h, sw, Bandwidth::from_gbps(100), Delta::from_us(2));
    }
    let mut net = b.build();

    // Background flows: ports 0 and 1 -> port 31 (long-lived, keep the
    // shared pool partially used, exactly the theory's N = 2).
    for &src in &hosts[..2] {
        net.add_flow(FlowSpec {
            src,
            dst: hosts[31],
            size: 200_000_000,
            class: 0,
            start: Time::ZERO,
            cc: CcKind::Uncontrolled,
        });
    }
    // Fan-in burst: ports 2..17 -> port 30.
    let buffer = 16.0 * 1024.0 * 1024.0;
    let per_sender = (burst_pct * buffer / 16.0) as u64;
    let burst_start = Time::from_ms(1);
    for &src in &hosts[2..18] {
        net.add_flow(FlowSpec {
            src,
            dst: hosts[30],
            size: per_sender.max(1),
            class: 0,
            start: burst_start,
            cc: CcKind::Uncontrolled,
        });
    }

    let mut sim = net.into_sim();
    let end = Time::from_ms(30);
    sim.run_until(end);
    let net = sim.into_model();
    let report = net.telemetry_report(end);
    let violations = report.lossless_violations();
    assert!(violations.is_empty(), "Fig. 11 run violated losslessness:\n{}", violations.join("\n"));

    // Total pause time of the fan-in flows = pause asserted at their
    // hosts' uplinks (queue-level + port-level).
    let fan_hosts: Vec<NodeId> = hosts[2..18].to_vec();
    let total: Delta =
        net.pause_ledgers(end).filter(|l| fan_hosts.contains(&l.node)).map(|l| l.total()).sum();
    (Fig11Point { burst_pct, pause_ms: total.as_ms_f64() }, report.to_json())
}

/// Sweeps burst sizes (fractions of the buffer) for one scheme on the
/// pool.
#[must_use]
pub fn sweep(scheme: Scheme, points: &[f64], ex: &Executor) -> Vec<Fig11Point> {
    ex.par_map(points.to_vec(), |p| pause_duration(scheme, p))
}

/// Runs every scheme for every burst size on the pool, with each run's
/// telemetry; result is one `Vec` per point with [`Scheme::ALL`]-order
/// entries, in input point order.
#[must_use]
pub fn sweep_schemes_with_telemetry(
    points: &[f64],
    ex: &Executor,
) -> Vec<Vec<(Scheme, Fig11Point, dsh_simcore::Json)>> {
    par_grid(ex, points, &Scheme::ALL, |p, scheme| {
        let (point, tel) = pause_duration_with_telemetry(scheme, p);
        (scheme, point, tel)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dsh_is_pause_free_where_sih_pauses() {
        // 20% of buffer: beyond SIH's footroom, comfortably within DSH's.
        let sih = pause_duration(Scheme::Sih, 0.20);
        let dsh = pause_duration(Scheme::Dsh, 0.20);
        assert!(sih.pause_ms > 0.0, "SIH must pause at 20% ({})", sih.pause_ms);
        assert_eq!(dsh.pause_ms, 0.0, "DSH must absorb 20% pause-free");
    }
}
