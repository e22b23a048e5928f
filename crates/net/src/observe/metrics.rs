//! Ring-buffered time-series metrics sampler (DESIGN.md §16).
//!
//! The network's one periodic tick (`NetEvent::Sample`, every
//! `NetParams::sample_interval`) arms a sample, and the first event
//! after the tick's instant snapshots per-switch MMU occupancy plus a
//! handful of fabric-global gauges into pre-allocated rings.  Runs are
//! serial and seeded, so the exported `metrics.json` is byte-identical at
//! any `--threads` count.

use crate::ids::NodeId;
use dsh_simcore::{Delta, Json, Time};

/// Ring capacity per series (samples retained before the oldest are
/// overwritten).
const DEFAULT_SERIES_CAPACITY: usize = 8192;

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

/// One fabric-global sample.  Counter fields are cumulative at the
/// sample instant.
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
}

/// The sampler: one ring per switch plus one global ring.
///
/// Samples are *instant-closed*: the network captures the sample labeled
/// `t` at the first event strictly after `t` (staging it here via
/// [`Self::stage_switch`]/[`Self::stage_global`]) and commits it on the
/// next tick, so a sample is the state after every event at `<= t`
/// whatever the order of the events inside instant `t`.  The lone
/// capture still staged when the run's deadline cuts the calendar off is
/// deliberately dropped.
#[derive(Clone, Debug)]
pub struct MetricsSampler {
    interval: Delta,
    switches: Vec<(NodeId, Ring<SwitchSample>)>,
    global: Ring<GlobalSample>,
    /// Captured-but-uncommitted per-switch samples for the instant that
    /// just closed, in registration order (so index `i` belongs to
    /// `switches[i]`).  Sized at registration so staging never allocates
    /// mid-run.
    staged_switches: Vec<SwitchSample>,
    /// Captured-but-uncommitted global sample.
    staged_global: Option<GlobalSample>,
}

impl MetricsSampler {
    pub(crate) fn new(interval: Delta) -> Self {
        MetricsSampler {
            interval,
            switches: Vec::new(),
            global: Ring::new(DEFAULT_SERIES_CAPACITY),
            staged_switches: Vec::new(),
            staged_global: None,
        }
    }

    /// Pre-registers a switch so sampling never allocates.  Captures must
    /// stage switches in this registration order.
    pub(crate) fn add_switch(&mut self, node: NodeId) {
        self.switches.push((node, Ring::new(DEFAULT_SERIES_CAPACITY)));
        if self.staged_switches.capacity() < self.switches.len() {
            let grow = self.switches.len() - self.staged_switches.capacity();
            self.staged_switches.reserve_exact(grow);
        }
    }

    /// Stages the next switch's sample (in registration order) for the
    /// instant that just closed.
    pub(crate) fn stage_switch(&mut self, s: SwitchSample) {
        debug_assert!(
            self.staged_switches.len() < self.switches.len(),
            "more switches staged than registered"
        );
        self.staged_switches.push(s);
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

    /// Commits the staged capture (if any) into the rings, the `i`-th
    /// staged switch sample into the `i`-th registered switch's ring.
    /// Called by the next tick, at which point every event of the staged
    /// instant has long since been processed.
    pub(crate) fn commit_staged(&mut self) {
        for ((_, ring), &s) in self.switches.iter_mut().zip(&self.staged_switches) {
            ring.push(s);
        }
        self.staged_switches.clear();
        if let Some(g) = self.staged_global.take() {
            self.global.push(g);
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
    }

    #[test]
    fn json_export_is_versioned_and_reparses() {
        let mut m = MetricsSampler::new(Delta::from_us(10));
        m.add_switch(NodeId(4));
        m.add_switch(NodeId(6));
        let sample = |shared| SwitchSample {
            t: Time::from_us(10),
            shared,
            headroom: 512,
            paused_queues: 1,
            paused_ports: 0,
        };
        m.stage_switch(sample(4096));
        m.stage_switch(sample(8192));
        m.stage_global(gs(10, 1, 0));
        assert!(m.has_staged());
        m.commit_staged();
        assert!(!m.has_staged());
        let doc = m.to_json();
        let round = Json::parse(&doc.to_string()).unwrap();
        assert_eq!(round.get("version").and_then(Json::as_u64), Some(2));
        assert_eq!(round.get("interval_ns").and_then(Json::as_u64), Some(10_000));
        assert_eq!(round.get("samples").and_then(Json::as_u64), Some(1));
        let sw = round.get("switches").and_then(Json::as_arr).unwrap();
        assert_eq!(sw.len(), 2);
        // Staging order is registration order: each sample lands in its
        // own switch's series.
        for (doc, (node, shared)) in sw.iter().zip([(4u64, 4096u64), (6, 8192)]) {
            assert_eq!(doc.get("node").and_then(Json::as_u64), Some(node));
            let col = doc.get("shared_bytes").and_then(Json::as_arr).unwrap();
            assert_eq!(col, &[Json::from(shared)][..]);
        }
    }
}
