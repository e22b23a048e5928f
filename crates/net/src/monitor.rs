//! Measurement plumbing: FCT records, throughput samples, pause ledgers
//! and the structured telemetry export.
//!
//! [`TelemetryReport`] is the network's one-stop observability snapshot:
//! per-switch MMU audits, drop attribution, per-port PFC pause durations
//! with pause→resume latency histograms — all serializable to JSON via
//! [`TelemetryReport::to_json`] so figure binaries and integration tests
//! consume the same data. Switch occupancy over time is the metrics
//! sampler's record ([`crate::observe`]), not this report's.

use crate::ids::{FlowId, NodeId, NUM_CLASSES};
use dsh_core::{AuditReport, DropAttribution, MmuStats, PortDrops};
use dsh_simcore::{Delta, Json, Time};

/// Completion record of one flow (taken when the receiver gets the last
/// payload byte).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FctRecord {
    /// The flow.
    pub flow: FlowId,
    /// Flow size in bytes.
    pub size: u64,
    /// Start time (sender's first transmission opportunity).
    pub start: Time,
    /// Completion time.
    pub finish: Time,
}

impl FctRecord {
    /// Flow completion time.
    #[must_use]
    pub fn fct(&self) -> Delta {
        self.finish - self.start
    }
}

/// One point of a flow-throughput time series (Fig. 13).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ThroughputSample {
    /// Sample instant.
    pub time: Time,
    /// Goodput since the previous sample, in Gb/s.
    pub gbps: f64,
}

/// Summary of PFC pause time observed at one egress port (Fig. 11).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PauseLedger {
    /// Node owning the egress port.
    pub node: NodeId,
    /// Port index.
    pub port: usize,
    /// Sum of per-class queue-level pause time.
    pub queue_level: Delta,
    /// Port-level pause time.
    pub port_level: Delta,
}

impl PauseLedger {
    /// Total pause time (queue-level + port-level).
    #[must_use]
    pub fn total(&self) -> Delta {
        self.queue_level + self.port_level
    }
}

/// Number of log₂-spaced buckets in a [`DurationHistogram`] (covers the
/// full `u64` nanosecond range).
const HIST_BUCKETS: usize = 64;

/// A log₂-bucketed histogram of durations (nanosecond resolution).
///
/// Bucket `k` counts durations in `[2^k, 2^(k+1))` ns; bucket 0 also
/// absorbs sub-nanosecond durations. Used for PFC pause→resume latency
/// distributions, where the interesting signal spans ~100 ns (one PFC
/// processing delay) to milliseconds (a wedged port).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DurationHistogram {
    counts: [u64; HIST_BUCKETS],
    count: u64,
    total: Delta,
    max: Delta,
}

impl Default for DurationHistogram {
    fn default() -> Self {
        DurationHistogram {
            counts: [0; HIST_BUCKETS],
            count: 0,
            total: Delta::ZERO,
            max: Delta::ZERO,
        }
    }
}

impl DurationHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        DurationHistogram::default()
    }

    /// Records one duration.
    pub fn record(&mut self, d: Delta) {
        let ns = d.as_ns();
        let bucket = if ns == 0 { 0 } else { 63 - ns.leading_zeros() as usize };
        self.counts[bucket] += 1;
        self.count += 1;
        self.total += d;
        if d > self.max {
            self.max = d;
        }
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &DurationHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.total += other.total;
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// Number of recorded durations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded durations.
    #[must_use]
    pub fn total(&self) -> Delta {
        self.total
    }

    /// Largest recorded duration.
    #[must_use]
    pub fn max(&self) -> Delta {
        self.max
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Non-empty buckets as `(lower_bound, count)`, in ascending order.
    pub fn buckets(&self) -> impl Iterator<Item = (Delta, u64)> + '_ {
        self.counts.iter().enumerate().filter(|&(_, &c)| c > 0).map(|(k, &c)| {
            let lower = if k == 0 { 0 } else { 1u64 << k };
            (Delta::from_ns(lower), c)
        })
    }

    /// JSON form: counters plus the non-empty buckets
    /// (`{"ge_ns": 2^k, "count": c}`).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::object()
            .with("count", self.count)
            .with("total_ns", self.total.as_ns())
            .with("max_ns", self.max.as_ns())
            .with(
                "buckets",
                Json::Arr(
                    self.buckets()
                        .map(|(lo, c)| Json::object().with("ge_ns", lo.as_ns()).with("count", c))
                        .collect(),
                ),
            )
    }
}

/// Pause scopes of one egress port: one per traffic class, then the
/// port-level (POFF) scope at [`PORT_SCOPE`].
pub(crate) const PAUSE_SCOPES: usize = NUM_CLASSES + 1;

/// Scope index of the port-level pause.
pub(crate) const PORT_SCOPE: usize = NUM_CLASSES;

/// Slot-table marker of a port-class that has not closed a pause yet.
const NO_SLOT: u32 = u32::MAX;

/// Closed pause→resume intervals of every egress port in a network: one
/// [`DurationHistogram`] per port-class (port, scope) that has closed one.
///
/// Most port-classes never pause, so the 536-byte histograms live here
/// rather than in the ports. A slot table maps each port-class to its
/// histogram, and the histogram is materialized when the port-class's
/// first interval closes. The histograms' vector reserves one slot per
/// port-class when the network is built, so materializing one mid-run
/// never allocates; slots a run never fills cost address space, not
/// memory.
#[derive(Clone, Debug)]
pub(crate) struct PauseHistograms {
    /// `slot[port * PAUSE_SCOPES + scope]` indexes `hists`, or `NO_SLOT`.
    slot: Vec<u32>,
    hists: Vec<DurationHistogram>,
}

impl PauseHistograms {
    /// An empty store for `ports` egress ports (indices `0..ports`).
    #[must_use]
    pub(crate) fn new(ports: usize) -> Self {
        let scopes = ports * PAUSE_SCOPES;
        assert!(scopes < NO_SLOT as usize, "too many egress ports for the pause histograms");
        PauseHistograms { slot: vec![NO_SLOT; scopes], hists: Vec::with_capacity(scopes) }
    }

    /// Records one closed pause interval of `scope` at port `port`.
    pub(crate) fn record(&mut self, port: u32, scope: usize, d: Delta) {
        let key = port as usize * PAUSE_SCOPES + scope;
        if self.slot[key] == NO_SLOT {
            debug_assert!(self.hists.len() < self.hists.capacity(), "reserved at build");
            self.slot[key] = self.hists.len() as u32;
            self.hists.push(DurationHistogram::new());
        }
        self.hists[self.slot[key] as usize].record(d);
    }

    /// The closed intervals of `scope` at port `port`; `None` until the
    /// first one closes.
    #[must_use]
    pub(crate) fn get(&self, port: u32, scope: usize) -> Option<&DurationHistogram> {
        match self.slot[port as usize * PAUSE_SCOPES + scope] {
            NO_SLOT => None,
            i => Some(&self.hists[i as usize]),
        }
    }

    /// Every closed interval at port `port`, queue-level (all classes)
    /// and port-level merged.
    #[must_use]
    pub(crate) fn merged(&self, port: u32) -> DurationHistogram {
        let mut h = DurationHistogram::new();
        for scope in 0..PAUSE_SCOPES {
            if let Some(s) = self.get(port, scope) {
                h.merge(s);
            }
        }
        h
    }
}

/// Pause telemetry for one traffic class of one egress port.
#[derive(Clone, Debug)]
pub struct ClassPauseTelemetry {
    /// Traffic class.
    pub class: u8,
    /// Total QOFF pause time for this class, including any open interval.
    pub pause: Delta,
    /// Pause→resume latency of this class's *closed* pause intervals.
    pub latency: DurationHistogram,
}

impl ClassPauseTelemetry {
    /// JSON form.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::object()
            .with("class", u64::from(self.class))
            .with("pause_ns", self.pause.as_ns())
            .with("latency", self.latency.to_json())
    }
}

/// PFC pause telemetry for one egress port: QOFF/POFF wall-clock totals
/// and the distribution of closed pause→resume intervals.
#[derive(Clone, Debug)]
pub struct PortPauseTelemetry {
    /// The port and its QOFF/POFF pause wall-clock, open intervals
    /// included.
    pub ledger: PauseLedger,
    /// Pause→resume latency of every *closed* pause interval (queue- and
    /// port-level merged) — the historical aggregate view.
    pub pause_latency: DurationHistogram,
    /// Per-class breakdown, keyed by (port, class); only classes with
    /// pause activity appear, so single-class runs stay compact.
    pub classes: Vec<ClassPauseTelemetry>,
    /// Pause→resume latency of *port-level* (POFF) intervals only, no
    /// longer conflated with the per-class histograms above.
    pub port_latency: DurationHistogram,
}

impl PortPauseTelemetry {
    /// JSON form.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::object()
            .with("node", self.ledger.node.0)
            .with("port", self.ledger.port)
            .with("queue_pause_ns", self.ledger.queue_level.as_ns())
            .with("port_pause_ns", self.ledger.port_level.as_ns())
            .with("pause_latency", self.pause_latency.to_json())
            .with(
                "classes",
                Json::Arr(self.classes.iter().map(ClassPauseTelemetry::to_json).collect()),
            )
            .with("port_latency", self.port_latency.to_json())
    }
}

/// One switch's slice of a [`TelemetryReport`].
#[derive(Clone, Debug)]
pub struct SwitchTelemetry {
    /// The switch.
    pub node: NodeId,
    /// Invariant audit at report time ([`dsh_core::Mmu::audit`]).
    pub audit: AuditReport,
    /// Aggregate MMU counters.
    pub stats: MmuStats,
    /// Which admission rules rejected the dropped packets.
    pub attribution: DropAttribution,
    /// Drops by ingress port (index = port).
    pub port_drops: Vec<PortDrops>,
}

impl SwitchTelemetry {
    /// JSON form. `port_drops` lists only ports that actually dropped.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let drops: Vec<Json> = self
            .port_drops
            .iter()
            .enumerate()
            .filter(|(_, d)| d.packets > 0)
            .map(|(p, d)| {
                Json::object().with("port", p).with("packets", d.packets).with("bytes", d.bytes)
            })
            .collect();
        Json::object()
            .with("node", self.node.0)
            .with("audit", self.audit.to_json())
            .with(
                "stats",
                Json::object()
                    .with("admitted_packets", self.stats.admitted_packets)
                    .with("dropped_packets", self.stats.dropped_packets)
                    .with("dropped_bytes", self.stats.dropped_bytes)
                    .with("queue_pauses", self.stats.queue_pauses)
                    .with("queue_resumes", self.stats.queue_resumes)
                    .with("port_pauses", self.stats.port_pauses)
                    .with("port_resumes", self.stats.port_resumes),
            )
            .with(
                "drop_attribution",
                Json::object()
                    .with("private_full", self.attribution.private_full)
                    .with("dt_threshold", self.attribution.dt_threshold)
                    .with("shared_cap", self.attribution.shared_cap)
                    .with("port_paused", self.attribution.port_paused)
                    .with("headroom_full", self.attribution.headroom_full)
                    .with("insurance_full", self.attribution.insurance_full)
                    .with("insurance_disabled", self.attribution.insurance_disabled)
                    .with("drop_tail", self.attribution.drop_tail),
            )
            .with("port_drops", Json::Arr(drops))
    }
}

/// A structured snapshot of everything the network can observe about PFC
/// and buffer behaviour; see [`crate::Network::telemetry_report`].
#[derive(Clone, Debug)]
pub struct TelemetryReport {
    /// Snapshot instant.
    pub generated_at: Time,
    /// Data packets dropped by MMU admission across the network.
    pub data_drops: u64,
    /// Frames dropped by the PFC watchdog.
    pub watchdog_drops: u64,
    /// Selective-repeat NACK frames sent by receivers.
    pub nacks_sent: u64,
    /// Bytes retransmitted by selective-repeat gap repairs (disjoint from
    /// go-back-N rewind bytes; both count into `retransmitted_bytes`).
    pub sr_retransmitted_bytes: u64,
    /// Recovery episodes attributed to an RTO expiry: timeout
    /// retransmissions across all flows (both regimes).
    pub recovery_timeouts: u64,
    /// Recovery episodes attributed to a NACK (selective repeat only).
    pub recovery_nacks: u64,
    /// Per-switch MMU telemetry.
    pub switches: Vec<SwitchTelemetry>,
    /// Per-egress-port pause telemetry (every node, hosts included).
    pub ports: Vec<PortPauseTelemetry>,
    /// Pause-cascade summary and victim-flow attribution; present only
    /// when the pause-causality observatory is enabled
    /// (`NetParams::observe`), so ordinary reports are unchanged.
    pub pause_cascades: Option<crate::observe::CascadeReport>,
}

impl TelemetryReport {
    /// Human-readable descriptions of every losslessness violation:
    /// ingress drops named by `(switch, port)` and audit violations named
    /// by `(switch, invariant, port, queue)`. Empty ⇔ the run was clean.
    #[must_use]
    pub fn lossless_violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        for sw in &self.switches {
            for (port, d) in sw.port_drops.iter().enumerate() {
                if d.packets > 0 {
                    out.push(format!(
                        "switch {} port {port}: dropped {} packets ({} B) at ingress",
                        sw.node, d.packets, d.bytes
                    ));
                }
            }
            for v in &sw.audit.violations {
                out.push(format!("switch {}: invariant {v}", sw.node));
            }
        }
        out
    }

    /// JSON form of the whole report.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let doc = Json::object()
            .with("generated_at_ns", self.generated_at.as_ns())
            .with("data_drops", self.data_drops)
            .with("watchdog_drops", self.watchdog_drops)
            .with("nacks_sent", self.nacks_sent)
            .with("sr_retransmitted_bytes", self.sr_retransmitted_bytes)
            .with("recovery_timeouts", self.recovery_timeouts)
            .with("recovery_nacks", self.recovery_nacks)
            .with(
                "switches",
                Json::Arr(self.switches.iter().map(SwitchTelemetry::to_json).collect()),
            )
            .with("ports", Json::Arr(self.ports.iter().map(PortPauseTelemetry::to_json).collect()));
        match &self.pause_cascades {
            Some(c) => doc.with("pause_cascades", c.to_json()),
            None => doc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fct_arithmetic() {
        let r = FctRecord {
            flow: FlowId(0),
            size: 64_000,
            start: Time::from_us(10),
            finish: Time::from_us(110),
        };
        assert_eq!(r.fct(), Delta::from_us(100));
    }

    #[test]
    fn histogram_buckets_by_log2_ns() {
        let mut h = DurationHistogram::new();
        h.record(Delta::from_ns(1)); // bucket 0
        h.record(Delta::from_ns(3)); // bucket 1: [2, 4)
        h.record(Delta::from_us(1)); // bucket 9: [512, 1024)
        assert_eq!(h.count(), 3);
        assert_eq!(h.total(), Delta::from_ns(1004));
        assert_eq!(h.max(), Delta::from_us(1));
        let buckets: Vec<(u64, u64)> = h.buckets().map(|(lo, c)| (lo.as_ns(), c)).collect();
        assert_eq!(buckets, vec![(0, 1), (2, 1), (512, 1)]);

        let mut other = DurationHistogram::new();
        other.record(Delta::from_ms(2));
        h.merge(&other);
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), Delta::from_ms(2));

        let j = h.to_json();
        assert_eq!(j.get("count").unwrap().as_u64(), Some(4));
        assert_eq!(j.get("buckets").unwrap().as_arr().unwrap().len(), 4);
    }

    #[test]
    fn pause_histograms_materialize_on_first_close_within_the_reserve() {
        let mut h = PauseHistograms::new(3);
        let reserved = h.hists.capacity();
        assert!(h.get(2, PORT_SCOPE).is_none());
        // Every port-class of every port closes an interval, latest first.
        for port in (0..3).rev() {
            for scope in 0..PAUSE_SCOPES {
                h.record(port, scope, Delta::from_ns(100 * (scope as u64 + 1)));
            }
        }
        h.record(0, 2, Delta::from_us(1));
        assert_eq!(h.hists.len(), 3 * PAUSE_SCOPES);
        assert_eq!(h.hists.capacity(), reserved, "materializing must not grow the store");
        assert_eq!(h.get(0, 2).map(DurationHistogram::count), Some(2));
        assert_eq!(h.get(2, PORT_SCOPE).map(DurationHistogram::max), Some(Delta::from_ns(900)));
        let merged = h.merged(0);
        assert_eq!(merged.count(), PAUSE_SCOPES as u64 + 1);
        assert_eq!(merged.max(), Delta::from_us(1));
    }

    #[test]
    fn lossless_violations_name_switch_and_port() {
        use dsh_core::{AuditViolation, PortDrops};
        let report = TelemetryReport {
            generated_at: Time::ZERO,
            data_drops: 2,
            watchdog_drops: 0,
            nacks_sent: 0,
            sr_retransmitted_bytes: 0,
            recovery_timeouts: 0,
            recovery_nacks: 0,
            switches: vec![SwitchTelemetry {
                node: NodeId(4),
                audit: AuditReport {
                    scheme: dsh_core::Scheme::Dsh,
                    snapshot: Default::default(),
                    violations: vec![AuditViolation {
                        invariant: "total-shared-consistent",
                        port: None,
                        queue: None,
                        expected: 0,
                        actual: 500,
                    }],
                },
                stats: Default::default(),
                attribution: Default::default(),
                port_drops: vec![PortDrops::default(), PortDrops { packets: 2, bytes: 3000 }],
            }],
            ports: vec![],
            pause_cascades: None,
        };
        let v = report.lossless_violations();
        assert_eq!(v.len(), 2);
        assert!(v[0].contains("port 1") && v[0].contains("2 packets"), "{}", v[0]);
        assert!(v[1].contains("total-shared-consistent"), "{}", v[1]);
        // The JSON export round-trips through text.
        let j = report.to_json();
        assert_eq!(Json::parse(&j.to_string()).unwrap(), j);
    }

    #[test]
    fn pause_ledger_total() {
        let l = PauseLedger {
            node: NodeId(0),
            port: 1,
            queue_level: Delta::from_us(30),
            port_level: Delta::from_us(12),
        };
        assert_eq!(l.total(), Delta::from_us(42));
    }
}
