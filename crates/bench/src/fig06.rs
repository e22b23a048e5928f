//! Fig. 6: CDF of headroom utilization at local-maximum points, under
//! DCQCN at high load (motivation §III-B: "75% of headroom keeps unused
//! 99% of the time"). The paper measures SIH's static headroom; the same
//! pipeline also measures DSH's insurance-headroom utilization, so the
//! two schemes' reserved-but-idle fractions are directly comparable.

use crate::fabric::FAN_IN_CLASS;
use dsh_analysis::stats::Cdf;
use dsh_core::Scheme;
use dsh_net::topology::{leaf_spine, LeafSpineShape};
use dsh_net::{FlowSpec, NetParams};
use dsh_simcore::{Bandwidth, Delta, SimRng, Time};
use dsh_transport::CcKind;
use dsh_workloads::{background_flows, fan_in_bursts, FlowSizeDist, PatternConfig, Workload};

/// Result of the Fig. 6 measurement.
#[derive(Clone, Debug)]
pub struct Fig6Result {
    /// Per-port headroom utilization (0..1) at each local maximum.
    pub utilization: Cdf,
    /// Structured network telemetry of the run
    /// ([`dsh_net::Network::telemetry_report`]), JSON-serialized.
    pub telemetry: dsh_simcore::Json,
}

/// Runs the headroom-utilization experiment on a leaf–spine under DCQCN;
/// `hosts_per_leaf`/`leaves` and `horizon` control scale. Utilization is
/// measured against the scheme's own reservation: `N_q·η` per port for
/// SIH, the insurance `η` per port for DSH.
#[must_use]
pub fn run(
    scheme: Scheme,
    leaves: usize,
    hosts_per_leaf: usize,
    horizon: Delta,
    seed: u64,
) -> Fig6Result {
    let params = NetParams::tomahawk(scheme).with_seed(seed);
    let ls = leaf_spine(
        params,
        LeafSpineShape {
            leaves,
            spines: leaves,
            hosts_per_leaf,
            downlink: Bandwidth::from_gbps(100),
            uplink: Bandwidth::from_gbps(100),
            link_delay: Delta::from_us(2),
        },
    );
    let hosts = ls.all_hosts();
    let mut net = ls.builder.build();

    let mut rng = SimRng::new(seed);
    let dist = FlowSizeDist::from_workload(Workload::WebSearch);
    let pc = PatternConfig {
        hosts: hosts.len(),
        host_bytes_per_sec: 12.5e9,
        load: 0.6,
        horizon: Time::ZERO + horizon,
    };
    for f in background_flows(&pc, &dist, &[0, 1, 2, 3, 4, 5], &mut rng) {
        net.add_flow(FlowSpec {
            src: hosts[f.src],
            dst: hosts[f.dst],
            size: f.size,
            class: f.class,
            start: f.start,
            cc: CcKind::Dcqcn,
        });
    }
    let burst = PatternConfig { load: 0.3, ..pc };
    let fan_in = 16.min(hosts.len().saturating_sub(1)).max(2);
    for f in fan_in_bursts(&burst, fan_in, 64 * 1024, FAN_IN_CLASS, &mut rng) {
        net.add_flow(FlowSpec {
            src: hosts[f.src],
            dst: hosts[f.dst],
            size: f.size,
            class: f.class,
            start: f.start,
            cc: CcKind::Dcqcn,
        });
    }

    // The report is taken at the end of the run, not at the last event.
    let end = Time::ZERO + horizon + Delta::from_ms(2);
    let mut sim = net.into_sim();
    sim.run_until(end);
    let mut net = sim.into_model();
    let telemetry = net.telemetry_report(end).to_json();

    // Utilization of a port's headroom at each local maximum: occupancy
    // divided by the port's reservation — N_q · η for SIH's static
    // headroom, η for DSH's per-port insurance.
    let alloc = match scheme {
        // All ports here are 100G/2us: eta = 56840, 7 lossless queues.
        Scheme::Sih => 7.0 * 56_840.0,
        Scheme::Dsh => 56_840.0,
        // Lossy mode reserves no headroom at all, so a headroom
        // utilization figure is meaningless for it.
        Scheme::Lossy => panic!("fig06 measures headroom utilization; the lossy scheme has none"),
    };
    let mut samples = Vec::new();
    for (node, per_port) in net.take_headroom_peaks() {
        let _ = node;
        for (port, peaks) in per_port.into_iter().enumerate() {
            let _ = port;
            for peak in peaks {
                samples.push((peak as f64 / alloc).min(1.0));
            }
        }
    }
    Fig6Result { utilization: Cdf::new(samples), telemetry }
}
