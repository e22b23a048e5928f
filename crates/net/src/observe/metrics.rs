//! Ring-buffered time-series metrics sampler (DESIGN.md §16).
//!
//! A calendar event (`NetEvent::MetricsTick`) fires at a configurable
//! interval and snapshots per-switch MMU occupancy plus a handful of
//! partition-global gauges into pre-allocated rings.  Every partition
//! ticks at the same instants, so at the merge barrier per-switch series
//! concatenate (each switch is owned by exactly one partition) and the
//! global series sums pointwise — the exported `metrics.json` is
//! byte-identical at any worker count.

use crate::ids::NodeId;
use dsh_simcore::{Delta, Json, Time};

/// Default ring capacity per series (samples retained before the oldest
/// are overwritten).
pub const DEFAULT_SERIES_CAPACITY: usize = 8192;

/// One per-switch occupancy sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SwitchSample {
    /// Sample instant.
    pub t: Time,
    /// Shared-pool bytes in use (`Σ w_ij`).
    pub shared: u64,
    /// Headroom bytes in use, including DSH insurance spill.
    pub headroom: u64,
    /// Queues currently held in XOFF.
    pub paused_queues: u32,
    /// Ports currently held in port-level XOFF (DSH POFF).
    pub paused_ports: u32,
}

/// One partition-global sample.  Counter fields are cumulative at the
/// sample instant; pointwise sums across partitions yield fabric totals.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GlobalSample {
    /// Sample instant.
    pub t: Time,
    /// Egress ports with any pause (class or port scope) in effect.
    pub paused_ports: u64,
    /// Cumulative NACK frames sent by receivers.
    pub nacks_sent: u64,
    /// Cumulative retransmitted payload bytes.
    pub retransmitted_bytes: u64,
    /// Cumulative selective-repeat repair bytes.
    pub sr_retransmitted_bytes: u64,
    /// Cumulative recovery timer (RTO) fires.
    pub recovery_timeouts: u64,
}

/// Fixed-capacity overwrite-oldest ring.  `push` never allocates once the
/// ring is full; overwritten samples are counted in `dropped`.
#[derive(Clone, Debug)]
struct Ring<T> {
    cap: usize,
    buf: Vec<T>,
    /// Next overwrite position once the ring has wrapped.
    head: usize,
    dropped: u64,
}

impl<T: Copy> Ring<T> {
    fn new(cap: usize) -> Self {
        Ring { cap: cap.max(1), buf: Vec::with_capacity(cap.max(1)), head: 0, dropped: 0 }
    }

    fn push(&mut self, v: T) {
        if self.buf.len() < self.cap {
            self.buf.push(v);
        } else {
            self.buf[self.head] = v;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Samples in chronological order.
    fn iter(&self) -> impl Iterator<Item = &T> {
        self.buf[self.head..].iter().chain(self.buf[..self.head].iter())
    }

    fn last(&self) -> Option<&T> {
        if self.buf.is_empty() {
            None
        } else if self.head == 0 {
            self.buf.last()
        } else {
            Some(&self.buf[self.head - 1])
        }
    }
}

/// The sampler: one ring per owned switch plus one global ring.
///
/// Samples are *instant-closed*: the network captures the sample labeled
/// `t` at the first event strictly after `t` (staging it here via
/// [`Self::stage_switch`]/[`Self::stage_global`]) and commits it on the
/// next tick.  The set of events at instants `<= t` is identical in the
/// serial and link-partitioned engines even though their intra-instant
/// order is not, so committed samples are byte-identical at any worker
/// count; the lone capture still staged when the run's deadline cuts the
/// calendar off is deliberately dropped by both engines.
#[derive(Clone, Debug)]
pub struct MetricsSampler {
    interval: Delta,
    cap: usize,
    switches: Vec<(NodeId, Ring<SwitchSample>)>,
    global: Ring<GlobalSample>,
    /// Captured-but-uncommitted per-switch samples for the instant that
    /// just closed, in registration order.  Sized at registration so
    /// staging never allocates mid-run.
    staged_switches: Vec<(NodeId, SwitchSample)>,
    /// Captured-but-uncommitted global sample.
    staged_global: Option<GlobalSample>,
}

impl MetricsSampler {
    pub(crate) fn new(interval: Delta, cap: usize) -> Self {
        MetricsSampler {
            interval,
            cap,
            switches: Vec::new(),
            global: Ring::new(cap),
            staged_switches: Vec::new(),
            staged_global: None,
        }
    }

    /// Pre-registers a locally-owned switch so sampling never allocates.
    pub(crate) fn add_switch(&mut self, node: NodeId) {
        self.switches.push((node, Ring::new(self.cap)));
        if self.staged_switches.capacity() < self.switches.len() {
            let grow = self.switches.len() - self.staged_switches.capacity();
            self.staged_switches.reserve_exact(grow);
        }
    }

    pub(crate) fn interval(&self) -> Delta {
        self.interval
    }

    /// Records one switch sample.  Switches are visited in node order each
    /// tick, matching registration order, so the scan terminates early.
    pub(crate) fn record_switch(&mut self, node: NodeId, s: SwitchSample) {
        if let Some((_, ring)) = self.switches.iter_mut().find(|(n, _)| *n == node) {
            ring.push(s);
        }
    }

    pub(crate) fn record_global(&mut self, s: GlobalSample) {
        self.global.push(s);
    }

    /// Stages one switch sample for the instant that just closed.
    pub(crate) fn stage_switch(&mut self, node: NodeId, s: SwitchSample) {
        self.staged_switches.push((node, s));
    }

    /// Stages the global sample for the instant that just closed.
    pub(crate) fn stage_global(&mut self, s: GlobalSample) {
        debug_assert!(self.staged_global.is_none(), "double capture without a commit");
        self.staged_global = Some(s);
    }

    /// True once a capture is staged for the pending sample instant.
    pub(crate) fn has_staged(&self) -> bool {
        self.staged_global.is_some()
    }

    /// Commits the staged capture (if any) into the rings.  Called by the
    /// next tick, at which point every event of the staged instant has
    /// long since been processed in both engines.
    pub(crate) fn commit_staged(&mut self) {
        for i in 0..self.staged_switches.len() {
            let (node, s) = self.staged_switches[i];
            self.record_switch(node, s);
        }
        self.staged_switches.clear();
        if let Some(g) = self.staged_global.take() {
            self.record_global(g);
        }
    }

    /// Total samples evicted from full rings.
    #[must_use]
    pub fn dropped_samples(&self) -> u64 {
        self.global.dropped + self.switches.iter().map(|(_, r)| r.dropped).sum::<u64>()
    }

    /// Number of global samples currently retained.
    #[must_use]
    pub fn samples(&self) -> usize {
        self.global.buf.len()
    }

    /// Merges another partition's sampler.  Per-switch rings concatenate
    /// (disjoint ownership); the global ring sums pointwise — both
    /// partitions ticked at identical instants with identical capacity, so
    /// the rings are index-aligned even after wrapping.
    pub(crate) fn absorb(&mut self, other: MetricsSampler) {
        self.switches.extend(other.switches);
        debug_assert_eq!(self.global.buf.len(), other.global.buf.len());
        debug_assert_eq!(self.global.head, other.global.head);
        for (mine, theirs) in self.global.buf.iter_mut().zip(other.global.buf.iter()) {
            debug_assert_eq!(mine.t, theirs.t);
            mine.paused_ports += theirs.paused_ports;
            mine.nacks_sent += theirs.nacks_sent;
            mine.retransmitted_bytes += theirs.retransmitted_bytes;
            mine.sr_retransmitted_bytes += theirs.sr_retransmitted_bytes;
            mine.recovery_timeouts += theirs.recovery_timeouts;
        }
        self.global.dropped = self.global.dropped.max(other.global.dropped);
    }

    /// Restores the canonical (node-sorted) switch order after a merge.
    pub(crate) fn sort_canonical(&mut self) {
        self.switches.sort_unstable_by_key(|(n, _)| n.0);
    }

    /// Versioned JSON export: parallel arrays per series.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let switches: Vec<Json> = self
            .switches
            .iter()
            .map(|(node, ring)| {
                Json::object()
                    .with("node", node.0 as u64)
                    .with("t_ns", column(ring.iter(), |s| s.t.as_ns()))
                    .with("shared_bytes", column(ring.iter(), |s| s.shared))
                    .with("headroom_bytes", column(ring.iter(), |s| s.headroom))
                    .with("paused_queues", column(ring.iter(), |s| u64::from(s.paused_queues)))
                    .with("paused_ports", column(ring.iter(), |s| u64::from(s.paused_ports)))
            })
            .collect();
        let g = &self.global;
        Json::object()
            .with("version", 2u64)
            .with("interval_ns", self.interval.as_ns())
            .with("samples", self.samples() as u64)
            .with("dropped_samples", self.dropped_samples())
            .with("switches", Json::Arr(switches))
            .with(
                "global",
                Json::object()
                    .with("t_ns", column(g.iter(), |s| s.t.as_ns()))
                    .with("paused_ports", column(g.iter(), |s| s.paused_ports))
                    .with("nacks_sent", column(g.iter(), |s| s.nacks_sent))
                    .with("retransmitted_bytes", column(g.iter(), |s| s.retransmitted_bytes))
                    .with("sr_retransmitted_bytes", column(g.iter(), |s| s.sr_retransmitted_bytes))
                    .with("recovery_timeouts", column(g.iter(), |s| s.recovery_timeouts)),
            )
    }

    /// Prometheus text exposition: the most recent sample of every series
    /// as gauges (counters keep their cumulative value).
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(1024);
        out.push_str("# HELP dsh_switch_shared_bytes Shared-pool bytes in use.\n");
        out.push_str("# TYPE dsh_switch_shared_bytes gauge\n");
        out.push_str("# TYPE dsh_switch_headroom_bytes gauge\n");
        out.push_str("# TYPE dsh_switch_paused_queues gauge\n");
        out.push_str("# TYPE dsh_switch_paused_ports gauge\n");
        for (node, ring) in &self.switches {
            if let Some(s) = ring.last() {
                let _ = writeln!(out, "dsh_switch_shared_bytes{{node=\"{node}\"}} {}", s.shared);
                let _ =
                    writeln!(out, "dsh_switch_headroom_bytes{{node=\"{node}\"}} {}", s.headroom);
                let _ = writeln!(
                    out,
                    "dsh_switch_paused_queues{{node=\"{node}\"}} {}",
                    s.paused_queues
                );
                let _ =
                    writeln!(out, "dsh_switch_paused_ports{{node=\"{node}\"}} {}", s.paused_ports);
            }
        }
        if let Some(s) = self.global.last() {
            out.push_str("# TYPE dsh_paused_ports gauge\n");
            let _ = writeln!(out, "dsh_paused_ports {}", s.paused_ports);
            out.push_str("# TYPE dsh_nacks_sent_total counter\n");
            let _ = writeln!(out, "dsh_nacks_sent_total {}", s.nacks_sent);
            out.push_str("# TYPE dsh_retransmitted_bytes_total counter\n");
            let _ = writeln!(out, "dsh_retransmitted_bytes_total {}", s.retransmitted_bytes);
            out.push_str("# TYPE dsh_sr_retransmitted_bytes_total counter\n");
            let _ = writeln!(out, "dsh_sr_retransmitted_bytes_total {}", s.sr_retransmitted_bytes);
            out.push_str("# TYPE dsh_recovery_timeouts_total counter\n");
            let _ = writeln!(out, "dsh_recovery_timeouts_total {}", s.recovery_timeouts);
        }
        out
    }
}

fn column<'a, T: 'a>(iter: impl Iterator<Item = &'a T>, f: impl Fn(&T) -> u64) -> Json {
    Json::Arr(iter.map(|s| Json::from(f(s))).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gs(t_us: u64, paused: u64, nacks: u64) -> GlobalSample {
        GlobalSample {
            t: Time::from_us(t_us),
            paused_ports: paused,
            nacks_sent: nacks,
            retransmitted_bytes: 0,
            sr_retransmitted_bytes: 0,
            recovery_timeouts: 0,
        }
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut r = Ring::new(3);
        for i in 0..5u64 {
            r.push(i);
        }
        assert_eq!(r.dropped, 2);
        let vals: Vec<u64> = r.iter().copied().collect();
        assert_eq!(vals, vec![2, 3, 4]);
        assert_eq!(r.last(), Some(&4));
    }

    #[test]
    fn absorb_sums_global_pointwise_and_concats_switches() {
        let mut a = MetricsSampler::new(Delta::from_us(10), 8);
        let mut b = MetricsSampler::new(Delta::from_us(10), 8);
        a.add_switch(NodeId(9));
        b.add_switch(NodeId(2));
        a.record_global(gs(10, 1, 5));
        b.record_global(gs(10, 2, 7));
        a.absorb(b);
        a.sort_canonical();
        assert_eq!(a.switches[0].0, NodeId(2));
        assert_eq!(a.switches[1].0, NodeId(9));
        let g: Vec<GlobalSample> = a.global.iter().copied().collect();
        assert_eq!(g[0].paused_ports, 3);
        assert_eq!(g[0].nacks_sent, 12);
    }

    #[test]
    fn json_export_is_versioned_and_reparses() {
        let mut m = MetricsSampler::new(Delta::from_us(10), 8);
        m.add_switch(NodeId(4));
        m.record_switch(
            NodeId(4),
            SwitchSample {
                t: Time::from_us(10),
                shared: 4096,
                headroom: 512,
                paused_queues: 1,
                paused_ports: 0,
            },
        );
        m.record_global(gs(10, 1, 0));
        let doc = m.to_json();
        let round = Json::parse(&doc.to_string()).unwrap();
        assert_eq!(round.get("version").and_then(Json::as_u64), Some(2));
        assert_eq!(round.get("samples").and_then(Json::as_u64), Some(1));
        let sw = round.get("switches").and_then(Json::as_arr).unwrap();
        assert_eq!(sw.len(), 1);
        assert_eq!(sw[0].get("shared_bytes").and_then(Json::as_arr).map(<[Json]>::len), Some(1));
        let prom = m.to_prometheus();
        assert!(prom.contains("dsh_switch_shared_bytes{node=\"n4\"} 4096"));
        assert!(prom.contains("dsh_paused_ports 1"));
    }
}
