//! The measurement accessors: the network's counters, the FCT log, the
//! pause ledgers, MMU audits and statistics, the structured telemetry
//! report, and the observatory's cascade report, pause cycles and
//! metrics export.

use crate::ids::{FlowId, NodeId, NUM_CLASSES, NUM_DATA_CLASSES};
use crate::monitor::{
    ClassPauseTelemetry, FctRecord, PauseLedger, PortPauseTelemetry, SwitchTelemetry,
    TelemetryReport, ThroughputSample, PORT_SCOPE,
};
use crate::network::{Network, Node};
use crate::observe::{CascadeReport, PauseCycle};
use crate::port::EgressPort;
use dsh_core::{AuditReport, MmuStats};
use dsh_simcore::{Delta, Json, Time};

impl Network {
    /// Completed-flow records.
    #[must_use]
    pub fn fct_records(&self) -> &[FctRecord] {
        &self.fct
    }

    /// Data packets dropped by MMU admission (0 in a correct lossless
    /// configuration).
    #[must_use]
    pub fn data_drops(&self) -> u64 {
        self.data_drops
    }

    /// Data packets delivered to their destination hosts so far.
    #[must_use]
    pub fn packets_delivered(&self) -> u64 {
        self.packets_delivered
    }

    /// Frames currently held in the frame arena: queued at a port or in
    /// flight on a link. Every consumed, dropped or flushed frame is freed,
    /// so a network with no frame left to deliver holds none.
    #[must_use]
    pub fn live_frames(&self) -> usize {
        self.frames.live()
    }

    /// Frames dropped by the PFC watchdog (0 unless
    /// [`NetParams::pfc_watchdog`](crate::NetParams::pfc_watchdog) is armed).
    #[must_use]
    pub fn watchdog_drops(&self) -> u64 {
        self.watchdog_drops
    }

    /// Bytes re-sent below a flow's high-water mark (retransmitted bytes
    /// count toward wire occupancy but never toward FCT completion, which
    /// ends at the last *new* in-order byte).
    #[must_use]
    pub fn retransmitted_bytes(&self) -> u64 {
        self.retransmitted_bytes
    }

    /// Selective-repeat NACK frames sent by receivers.
    #[must_use]
    pub fn nacks_sent(&self) -> u64 {
        self.nacks_sent
    }

    /// Bytes re-sent by selective-repeat gap repairs (a subset of
    /// [`Network::retransmitted_bytes`]).
    #[must_use]
    pub fn sr_retransmitted_bytes(&self) -> u64 {
        self.sr_retransmitted_bytes
    }

    /// Recovery episodes attributed to an RTO expiry: RTO firings that
    /// resent data, under either regime.
    #[must_use]
    pub fn recovery_timeouts(&self) -> u64 {
        self.recovery_timeouts
    }

    /// Loss episodes attributed to a NACK (selective repeat only).
    #[must_use]
    pub fn recovery_nacks(&self) -> u64 {
        self.recovery_nacks
    }

    /// Flows whose loss recovery hit the retry cap and gave up.
    #[must_use]
    pub fn failed_flow_count(&self) -> u64 {
        self.failed_flows
    }

    /// Goodput time series recorded for `flow` (see
    /// [`Network::monitor_flow`]).
    #[must_use]
    pub fn flow_throughput(&self, flow: FlowId) -> &[ThroughputSample] {
        self.monitors.iter().find(|m| m.flow == flow).map(|m| m.samples.as_slice()).unwrap_or(&[])
    }

    /// Payload bytes received so far for `flow`.
    #[must_use]
    pub fn flow_rx_bytes(&self, flow: FlowId) -> u64 {
        self.flow_rx[flow.0]
    }

    /// Pause ledgers for every egress port in the network at `now`,
    /// lazily (nothing is materialized; collect if you need a `Vec`).
    pub fn pause_ledgers(&self, now: Time) -> impl Iterator<Item = PauseLedger> + '_ {
        self.all_ports().map(move |(node, p, port)| pause_ledger(node, p, port, now))
    }

    /// Total buffer statically reserved as headroom across every switch
    /// (SIH: `Σ N_q·η`; DSH: insurance `Σ η`; Lossy: exactly 0 —
    /// fig17's "buffer held hostage" axis).
    #[must_use]
    pub fn reserved_headroom_bytes(&self) -> u64 {
        self.switches().map(|(_, s)| s.mmu.config().reserved_headroom().as_u64()).sum()
    }

    /// Drains per-port headroom-occupancy local maxima from every switch
    /// MMU (Fig. 6's measurement): `(switch, per-port peak lists)`.
    pub fn take_headroom_peaks(&mut self) -> Vec<(NodeId, Vec<Vec<u64>>)> {
        let mut out = Vec::new();
        for (i, n) in self.nodes.iter_mut().enumerate() {
            if let Node::Switch(s) = n {
                out.push((NodeId(i), s.mmu.take_headroom_peaks()));
            }
        }
        out
    }

    /// Runs [`dsh_core::Mmu::audit`] on every switch; a non-clean report
    /// names the violated invariant and the port/queue it failed on.
    #[must_use]
    pub fn audit_all(&self) -> Vec<(NodeId, AuditReport)> {
        self.switches().map(|(node, s)| (node, s.mmu.audit())).collect()
    }

    /// A structured telemetry snapshot at `now`: per-switch MMU audits
    /// and drop attribution, and per-port PFC pause durations with
    /// pause→resume latency histograms. Serialize with
    /// [`TelemetryReport::to_json`].
    #[must_use]
    pub fn telemetry_report(&self, now: Time) -> TelemetryReport {
        let switches = self
            .switches()
            .map(|(node, s)| SwitchTelemetry {
                node,
                audit: s.mmu.audit(),
                stats: s.mmu.stats(),
                attribution: s.mmu.drop_attribution(),
                port_drops: s.mmu.port_drops().to_vec(),
            })
            .collect();
        let closed = |port: &EgressPort, scope: usize| {
            self.pauses.get(port.index(), scope).cloned().unwrap_or_default()
        };
        let ports = self
            .all_ports()
            .map(|(node, p, port)| PortPauseTelemetry {
                ledger: pause_ledger(node, p, port, now),
                pause_latency: self.pauses.merged(port.index()),
                classes: (0..NUM_CLASSES as u8)
                    .filter_map(|c| {
                        let pause = port.class_pause_total(c, now);
                        let latency = closed(port, c as usize);
                        (pause > Delta::ZERO || latency.count() > 0)
                            .then_some(ClassPauseTelemetry { class: c, pause, latency })
                    })
                    .collect(),
                port_latency: closed(port, PORT_SCOPE),
            })
            .collect();
        TelemetryReport {
            generated_at: now,
            data_drops: self.data_drops,
            watchdog_drops: self.watchdog_drops,
            nacks_sent: self.nacks_sent,
            sr_retransmitted_bytes: self.sr_retransmitted_bytes,
            recovery_timeouts: self.recovery_timeouts,
            recovery_nacks: self.recovery_nacks,
            switches,
            ports,
            pause_cascades: self.cascade_report(now),
        }
    }

    /// The analysed pause-cascade forest (summary statistics plus
    /// victim-flow attribution) at `now`; `None` unless the
    /// pause-causality observatory is enabled via `NetParams::observe`.
    /// Open pause edges are treated as ending at `now`.
    #[must_use]
    pub fn cascade_report(&self, now: Time) -> Option<CascadeReport> {
        self.observe.as_deref().map(|obs| {
            // Flow lifetimes for the victim join: completed flows end at
            // their recorded finish, in-flight flows run to `now`.
            let mut finish = vec![now; self.flows.len()];
            for r in &self.fct {
                finish[r.flow.0] = r.finish;
            }
            let flows = self
                .flows
                .iter()
                .enumerate()
                .map(|(i, f)| (FlowId(i), f.spec.src, f.spec.start, finish[i]));
            crate::observe::analyze(obs.cascade.edges(), now, flows)
        })
    }

    /// The pause cycles still open — the cyclic buffer dependencies that
    /// wedge the fabric, each with the instant it closed (see
    /// [`crate::observe::find_cycles`]); `None` unless the observatory is
    /// enabled via `NetParams::observe`.
    #[must_use]
    pub fn open_pause_cycles(&self) -> Option<Vec<PauseCycle>> {
        self.observe.as_deref().map(|obs| crate::observe::find_cycles(obs.cascade.edges()))
    }

    /// The observatory's versioned metrics export (`metrics.json`);
    /// `None` unless `NetParams::observe` is set.
    #[must_use]
    pub fn metrics_json(&self) -> Option<Json> {
        self.observe.as_deref().map(|obs| {
            let doc = obs.metrics.to_json();
            match &self.params.recovery {
                Some(rc) => doc.with("recovery_regime", rc.regime.as_str()),
                None => doc,
            }
        })
    }

    /// Sum of MMU pause/drop counters over all switches.
    #[must_use]
    pub fn mmu_stats(&self) -> MmuStats {
        let mut agg = MmuStats::default();
        for (_, s) in self.switches() {
            let st = s.mmu.stats();
            agg.admitted_packets += st.admitted_packets;
            agg.dropped_packets += st.dropped_packets;
            agg.dropped_bytes += st.dropped_bytes;
            agg.queue_pauses += st.queue_pauses;
            agg.queue_resumes += st.queue_resumes;
            agg.port_pauses += st.port_pauses;
            agg.port_resumes += st.port_resumes;
        }
        agg
    }
}

/// The pause ledger of `port`, port `p` of `node`, at `now`: its
/// queue-level pause time summed over the data classes, and its
/// port-level pause time.
fn pause_ledger(node: NodeId, p: usize, port: &EgressPort, now: Time) -> PauseLedger {
    let queue_level = (0..NUM_DATA_CLASSES as u8).map(|c| port.class_pause_total(c, now)).sum();
    PauseLedger { node, port: p, queue_level, port_level: port.port_pause_total(now) }
}
