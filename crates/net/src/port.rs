//! The egress side of a full-duplex port: 8 priority queues, DWRR
//! scheduling, PFC pause state, and transmission bookkeeping.

use crate::arena::FrameId;
use crate::frame::{Frame, FrameKind, PfcScope};
use crate::ids::{NodeId, CONTROL_CLASS, NUM_CLASSES, NUM_DATA_CLASSES};
use crate::monitor::{PauseHistograms, PAUSE_SCOPES, PORT_SCOPE};
use dsh_core::Region;
use dsh_simcore::{Bandwidth, Delta, Time};
use std::collections::VecDeque;

/// DWRR quantum used by the paper's evaluation (1600 B).
pub const DWRR_QUANTUM: u64 = 1600;

/// Where a queued frame was admitted on ingress — needed to release the
/// MMU accounting when it departs.
#[derive(Clone, Copy, Debug)]
pub struct IngressTag {
    /// Ingress port index the frame arrived on (the builder asserts that
    /// every switch's ports fit a `u16`).
    pub in_port: u16,
    /// MMU queue (lossless class) it was accounted under.
    pub in_queue: u8,
    /// Buffer segment it was admitted into (the per-packet pool tag a real
    /// MMU keeps; released exactly on departure).
    pub region: Region,
}

/// A frame waiting in an egress queue: its arena id plus every field the
/// egress reads, so enqueueing, DWRR, the PFC lane and the INT check never
/// look the frame up in the arena.
#[derive(Clone, Copy, Debug)]
pub struct QueuedFrame {
    /// The frame.
    pub frame: FrameId,
    /// Wire size in bytes.
    pub bytes: u32,
    /// Priority class.
    pub class: u8,
    /// A PFC frame: served from the port's PFC lane.
    pub pfc: bool,
    /// A data frame that requested INT: stamped at switch egress.
    pub int: bool,
    /// MMU accounting tag (switch ingress only; `None` on hosts).
    pub ingress: Option<IngressTag>,
}

impl QueuedFrame {
    /// The queue entry of `frame`, stored in the arena as `id`.
    ///
    /// # Panics
    ///
    /// Panics if the frame is larger than a `u32` counts.
    #[must_use]
    pub(crate) fn new(id: FrameId, frame: &Frame, ingress: Option<IngressTag>) -> QueuedFrame {
        QueuedFrame {
            frame: id,
            bytes: u32::try_from(frame.bytes).expect("frame size exceeds u32"),
            class: frame.class,
            pfc: matches!(frame.kind, FrameKind::Pfc(_)),
            int: frame.requests_int(),
            ingress,
        }
    }

    /// Wire size in bytes.
    #[must_use]
    #[inline]
    pub(crate) fn bytes(&self) -> u64 {
        u64::from(self.bytes)
    }
}

/// Pause bookkeeping of one scope (a class, or the whole port): total
/// paused wall-clock (Fig. 11's metric) and the currently open pause
/// interval. Closed intervals go to the network's [`PauseHistograms`].
#[derive(Clone, Copy, Debug, Default)]
struct PauseClock {
    paused: bool,
    since: Time,
    total: Delta,
}

impl PauseClock {
    fn paused_since(&self) -> Option<Time> {
        self.paused.then_some(self.since)
    }

    /// Asserts or lifts the pause; returns the interval a lift closes.
    fn set(&mut self, pause: bool, now: Time) -> Option<Delta> {
        if pause && !self.paused {
            self.paused = true;
            self.since = now;
        } else if !pause && self.paused {
            self.paused = false;
            let d = now - self.since;
            self.total += d;
            return Some(d);
        }
        None
    }

    fn total_at(&self, now: Time) -> Delta {
        if self.paused {
            self.total + (now - self.since)
        } else {
            self.total
        }
    }
}

/// The egress side of one port.
///
/// The serializer keeps no event on the calendar for a frame that nothing
/// waits behind. A transmission started at calendar place `(now, seq)`
/// reserves the place its end would take, `(busy_until, tx_seq)`, and the
/// port is busy for every event before that place. The `TxDone` wake-up
/// that serves the next frame is pushed into the reserved place only once
/// a wake-up is owed: when a frame waits in any lane, or, on a host,
/// while a flow is active. Paused frames count too, although a wake-up
/// with only paused frames waiting finds nothing to send: it stays so
/// that the pinned `tx_done` dispatch counts hold. A frame that ends with
/// nothing waiting simply leaves the port idle from its reserved place
/// on, as if its `TxDone` had run and found nothing to do.
#[derive(Clone, Debug)]
pub struct EgressPort {
    /// Network-wide index of this port: keys its closed pause intervals
    /// in the network's [`PauseHistograms`].
    index: u32,
    /// Peer node this port transmits toward.
    pub peer: NodeId,
    /// Port index on the peer that receives our frames.
    pub peer_port: usize,
    /// Link bandwidth (fixed at build: `ps_per_byte` is derived from it).
    bandwidth: Bandwidth,
    /// Link propagation delay.
    pub prop_delay: Delta,
    /// [`Bandwidth::exact_ps_per_byte`] of the link, 0 when there is none:
    /// [`EgressPort::tx_delay`] multiplies by it instead of dividing.
    ps_per_byte: u64,

    queues: [VecDeque<QueuedFrame>; NUM_CLASSES],
    /// Link-local PFC frames: a dedicated lane served ahead of everything,
    /// including queued control traffic. 802.1Qbb pause frames are emitted
    /// at the MAC ahead of queued frames; if they instead waited FIFO
    /// behind an ACK/CNP backlog in the control queue, the pause could
    /// exceed the one-MTU waiting delay budgeted in the headroom formula
    /// and overflow the headroom (observed as a rare `headroom-full` drop
    /// at high load before this lane existed).
    pfc: VecDeque<QueuedFrame>,
    pfc_bytes: u64,
    qbytes: [u64; NUM_CLASSES],
    deficit: [u64; NUM_CLASSES],
    /// Round-robin order of active (non-empty) data queues.
    active: VecDeque<usize>,
    in_active: [bool; NUM_CLASSES],

    /// End of the frame on the wire (or of the last one).
    busy_until: Time,
    /// Calendar place reserved at transmit start for the frame's end: the
    /// port is busy for events before `(busy_until, tx_seq)`.
    tx_seq: u64,
    /// A `TxDone` for `(busy_until, tx_seq)` is on the calendar.
    wake_pending: bool,
    /// PFC pause state per class, then the port-level (DSH) pause at
    /// [`PORT_SCOPE`] (set by frames from the peer).
    pause: [PauseClock; PAUSE_SCOPES],
    /// Cumulative bytes transmitted (INT telemetry λ source).
    tx_bytes: u64,
    /// Frames transmitted.
    tx_frames: u64,
}

impl EgressPort {
    /// Creates an idle egress port toward `peer`, the network's port
    /// number `index`.
    #[must_use]
    pub(crate) fn new(
        index: u32,
        peer: NodeId,
        peer_port: usize,
        bandwidth: Bandwidth,
        prop_delay: Delta,
    ) -> Self {
        EgressPort {
            index,
            peer,
            peer_port,
            bandwidth,
            prop_delay,
            ps_per_byte: bandwidth.exact_ps_per_byte().unwrap_or(0),
            // The per-class tables live inline (ports are built by the
            // hundred per experiment; five heap round-trips per port was
            // measurable in the end-to-end benches). The ring buffers
            // start unallocated — most class queues on most ports are
            // never touched — and grow on first use. Only the PFC lane is
            // pre-sized: the first pause of a run can land long after
            // warmup.
            queues: std::array::from_fn(|_| VecDeque::new()),
            pfc: VecDeque::with_capacity(8),
            pfc_bytes: 0,
            qbytes: [0; NUM_CLASSES],
            deficit: [0; NUM_CLASSES],
            active: VecDeque::with_capacity(NUM_CLASSES),
            in_active: [false; NUM_CLASSES],
            busy_until: Time::ZERO,
            tx_seq: 0,
            wake_pending: false,
            pause: [PauseClock::default(); PAUSE_SCOPES],
            tx_bytes: 0,
            tx_frames: 0,
        }
    }

    /// Queued bytes in one class's egress queue (ECN input).
    #[must_use]
    pub fn queue_bytes(&self, class: u8) -> u64 {
        self.qbytes[class as usize]
    }

    /// Total queued bytes across all classes (including pending PFC
    /// frames).
    #[must_use]
    pub fn total_queued_bytes(&self) -> u64 {
        self.qbytes.iter().sum::<u64>() + self.pfc_bytes
    }

    /// Network-wide index of this port (keys its pause histograms).
    #[must_use]
    pub(crate) fn index(&self) -> u32 {
        self.index
    }

    /// Cumulative transmitted bytes.
    #[must_use]
    pub fn tx_bytes(&self) -> u64 {
        self.tx_bytes
    }

    /// Cumulative transmitted frames.
    #[must_use]
    pub fn tx_frames(&self) -> u64 {
        self.tx_frames
    }

    /// Link bandwidth.
    #[must_use]
    pub fn bandwidth(&self) -> Bandwidth {
        self.bandwidth
    }

    /// Serialization time of a `bytes`-byte frame on this link: exactly
    /// [`Bandwidth::tx_delay`], without its division at the rates where one
    /// byte takes a whole number of picoseconds.
    #[must_use]
    #[inline]
    pub fn tx_delay(&self, bytes: u64) -> Delta {
        match bytes.checked_mul(self.ps_per_byte) {
            Some(ps) if self.ps_per_byte != 0 => Delta::from_ps(ps),
            _ => self.bandwidth.tx_delay(bytes),
        }
    }

    /// Whether a frame of `class` offered at calendar place `(now, seq)`
    /// would be the next one on the wire: the serializer is idle, no frame
    /// waits in any lane and the class may send. On such a
    /// port [`EgressPort::enqueue`] followed by [`EgressPort::pick`] hands
    /// the frame straight back and leaves the queues, the byte counts, the
    /// DWRR list and its deficits as they were, so the caller may transmit
    /// the frame without queueing it.
    #[must_use]
    #[inline]
    pub fn idle_for(&self, class: u8, now: Time, seq: u64) -> bool {
        !self.is_busy(now, seq) && !self.has_waiting() && self.class_sendable(class)
    }

    /// Whether the serializer is mid-frame for the event at calendar place
    /// `(now, seq)`: a booked wake-up has not fired yet, or the place is
    /// before the end of the frame on the wire.
    #[must_use]
    #[inline]
    pub fn is_busy(&self, now: Time, seq: u64) -> bool {
        self.wake_pending || (now, seq) < (self.busy_until, self.tx_seq)
    }

    /// Marks the serializer busy with a frame that ends at `until`, whose
    /// wake-up would take the reserved calendar place `seq`.
    #[inline]
    pub fn start_tx(&mut self, until: Time, seq: u64) {
        debug_assert!(!self.wake_pending, "transmission while a wake-up is pending");
        self.busy_until = until;
        self.tx_seq = seq;
    }

    /// Whether a frame waits in any lane, paused or not (a class still on
    /// the DWRR list counts: serving the port would retire it).
    #[must_use]
    #[inline]
    pub fn has_waiting(&self) -> bool {
        !self.pfc.is_empty()
            || !self.queues[CONTROL_CLASS as usize].is_empty()
            || !self.active.is_empty()
    }

    /// Books the wake-up at the end of the frame on the wire: returns its
    /// calendar place the first time, `None` once it is booked.
    #[inline]
    pub fn book_wake(&mut self) -> Option<(Time, u64)> {
        if self.wake_pending {
            return None;
        }
        self.wake_pending = true;
        Some((self.busy_until, self.tx_seq))
    }

    /// The booked wake-up fired: the serializer is idle.
    #[inline]
    pub fn on_wake(&mut self) {
        debug_assert!(self.wake_pending, "TxDone without a booked wake-up");
        self.wake_pending = false;
    }

    /// Whether `class` may transmit right now (control class is
    /// pause-exempt).
    #[must_use]
    pub fn class_sendable(&self, class: u8) -> bool {
        if class == CONTROL_CLASS {
            return true;
        }
        !self.pause[class as usize].paused && !self.pause[PORT_SCOPE].paused
    }

    /// Applies a queue- or port-level PFC pause/resume received from the
    /// peer; a resume closes its interval into `closed`.
    pub(crate) fn apply_pause(
        &mut self,
        scope: PfcScope,
        pause: bool,
        now: Time,
        closed: &mut PauseHistograms,
    ) {
        let scope = match scope {
            PfcScope::Queue(c) => usize::from(c),
            PfcScope::Port => PORT_SCOPE,
        };
        if let Some(d) = self.pause[scope].set(pause, now) {
            closed.record(self.index, scope, d);
        }
    }

    /// Whether a queue-level pause is asserted for `class`.
    #[must_use]
    pub fn class_paused(&self, class: u8) -> bool {
        self.pause[class as usize].paused
    }

    /// Whether the port-level pause is asserted.
    #[must_use]
    pub fn port_paused(&self) -> bool {
        self.pause[PORT_SCOPE].paused
    }

    /// Whether the port-level pause or any data class's pause is
    /// asserted.
    pub(crate) fn pause_asserted(&self) -> bool {
        self.port_paused() || (0..NUM_DATA_CLASSES as u8).any(|c| self.class_paused(c))
    }

    /// Total time `class` has spent paused up to `now` (includes the
    /// currently open interval). Port-level pause time is accounted
    /// separately via [`EgressPort::port_pause_total`].
    #[must_use]
    pub fn class_pause_total(&self, class: u8, now: Time) -> Delta {
        self.pause[class as usize].total_at(now)
    }

    /// Total time the port-level pause has been asserted up to `now`.
    #[must_use]
    pub fn port_pause_total(&self, now: Time) -> Delta {
        self.pause[PORT_SCOPE].total_at(now)
    }

    /// Enqueues a frame for transmission. PFC frames go to their own
    /// highest-priority lane (FIFO among themselves, so a PAUSE can never
    /// overtake its matching RESUME).
    pub fn enqueue(&mut self, qf: QueuedFrame) {
        if qf.pfc {
            self.pfc_bytes += qf.bytes();
            self.pfc.push_back(qf);
            return;
        }
        let c = qf.class as usize;
        self.qbytes[c] += qf.bytes();
        // First touch sizes the ring for a burst in one step; untouched
        // classes stay unallocated (see `EgressPort::new`), and growing
        // 0→4→8→… would memcpy the queue several times on the way up.
        if self.queues[c].capacity() == 0 {
            self.queues[c].reserve(32);
        }
        self.queues[c].push_back(qf);
        if c != CONTROL_CLASS as usize && !self.in_active[c] {
            self.in_active[c] = true;
            self.active.push_back(c);
        }
    }

    /// Picks the next frame to transmit, honouring strict priority for the
    /// control class, DWRR among data classes, and PFC pause state.
    ///
    /// Returns `None` when nothing is eligible.
    pub fn pick(&mut self) -> Option<QueuedFrame> {
        // PFC lane: ahead of everything, never paused (802.1Qbb pause
        // frames bypass even queued control traffic).
        if let Some(qf) = self.pfc.pop_front() {
            self.pfc_bytes -= qf.bytes();
            return Some(qf);
        }

        // Control queue: strict priority, never paused.
        if let Some(qf) = self.queues[CONTROL_CLASS as usize].pop_front() {
            self.qbytes[CONTROL_CLASS as usize] -= qf.bytes();
            return Some(qf);
        }

        // Single-active-class fast path: DWRR degenerates to FIFO, so pop
        // the head directly. The deficit update below is the closed form
        // of the loop's repeated quantum top-ups, leaving bit-identical
        // scheduler state for when a second class activates.
        if self.active.len() == 1 {
            let c = *self.active.front().expect("len checked");
            if self.class_sendable(c as u8) {
                if let Some(sz) = self.queues[c].front().map(QueuedFrame::bytes) {
                    if self.deficit[c] < sz {
                        let need = sz - self.deficit[c];
                        self.deficit[c] += need.div_ceil(DWRR_QUANTUM) * DWRR_QUANTUM;
                    }
                    let qf = self.queues[c].pop_front().expect("head exists");
                    self.qbytes[c] -= sz;
                    self.deficit[c] -= sz;
                    if self.queues[c].is_empty() {
                        self.active.pop_front();
                        self.in_active[c] = false;
                        self.deficit[c] = 0;
                    }
                    return Some(qf);
                }
            }
        }

        // DWRR over data classes, skipping paused queues.
        loop {
            let rounds = self.active.len();
            if rounds == 0 {
                break;
            }
            let mut any_eligible = false;
            for _ in 0..rounds {
                let Some(&c) = self.active.front() else { break };
                let sendable = self.class_sendable(c as u8);
                let head_bytes = self.queues[c].front().map(QueuedFrame::bytes);
                match head_bytes {
                    None => {
                        // Queue drained: drop from the active list.
                        self.active.pop_front();
                        self.in_active[c] = false;
                        self.deficit[c] = 0;
                    }
                    Some(sz) if sendable => {
                        any_eligible = true;
                        if self.deficit[c] >= sz {
                            let qf = self.queues[c].pop_front().expect("head exists");
                            self.qbytes[c] -= sz;
                            self.deficit[c] -= sz;
                            if self.queues[c].is_empty() {
                                self.active.pop_front();
                                self.in_active[c] = false;
                                self.deficit[c] = 0;
                            }
                            return Some(qf);
                        }
                        // Not enough deficit yet: top up and move on.
                        self.deficit[c] += DWRR_QUANTUM;
                        self.active.rotate_left(1);
                    }
                    Some(_) => {
                        // Paused: skip without granting quantum.
                        self.active.rotate_left(1);
                    }
                }
            }
            if !any_eligible {
                break;
            }
        }
        None
    }

    /// Records that a transmission completed (`bytes` hit the wire).
    pub fn note_tx(&mut self, bytes: u64) {
        self.tx_bytes += bytes;
        self.tx_frames += 1;
    }

    /// Start of the current queue-level pause for `class`, if asserted.
    #[must_use]
    pub fn class_paused_since(&self, class: u8) -> Option<Time> {
        self.pause[class as usize].paused_since()
    }

    /// Start of the current port-level pause, if asserted.
    #[must_use]
    pub fn port_paused_since(&self) -> Option<Time> {
        self.pause[PORT_SCOPE].paused_since()
    }

    /// PFC watchdog action: forcibly clears the pause state of `class`
    /// (and the port-level pause), closing their intervals into `closed`,
    /// and drains its queued frames (which the watchdog drops) into `out`,
    /// so the caller can release MMU accounting. Appends to `out` without
    /// clearing it, reusing its capacity across flushes.
    pub(crate) fn watchdog_flush_class(
        &mut self,
        class: u8,
        now: Time,
        out: &mut Vec<QueuedFrame>,
        closed: &mut PauseHistograms,
    ) {
        self.apply_pause(PfcScope::Queue(class), false, now, closed);
        self.apply_pause(PfcScope::Port, false, now, closed);
        let c = class as usize;
        self.qbytes[c] = 0;
        out.extend(self.queues[c].drain(..));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::DataFrame;
    use crate::ids::FlowId;

    /// A queue entry for `frame` (the port never looks a frame up, so
    /// one id serves every entry unless a test tells them apart).
    fn queued(frame: Frame) -> QueuedFrame {
        QueuedFrame::new(FrameId(0), &frame, None)
    }

    fn data_frame(class: u8, bytes: u64) -> QueuedFrame {
        queued(Frame::data(
            DataFrame {
                flow: FlowId(0),
                src: NodeId(0),
                dst: NodeId(1),
                seq: 0,
                payload: bytes,
                ecn: false,
                int: false,
            },
            class,
        ))
    }

    fn pfc_frame(scope: crate::frame::PfcScope, pause: bool) -> QueuedFrame {
        queued(Frame::pfc(scope, pause))
    }

    fn ack_frame() -> QueuedFrame {
        queued(Frame::ack(crate::frame::AckFrame {
            flow: FlowId(0),
            dst: NodeId(0),
            acked: 1500,
            ecn_echo: false,
        }))
    }

    fn port() -> EgressPort {
        EgressPort::new(0, NodeId(1), 0, Bandwidth::from_gbps(100), Delta::from_us(2))
    }

    /// The pause-histogram store of a one-port network.
    fn hists() -> PauseHistograms {
        PauseHistograms::new(1)
    }

    #[test]
    fn control_class_has_strict_priority() {
        let mut p = port();
        p.enqueue(data_frame(0, 1500));
        p.enqueue(pfc_frame(crate::frame::PfcScope::Port, true));
        let first = p.pick().unwrap();
        assert_eq!(first.class, CONTROL_CLASS);
        let second = p.pick().unwrap();
        assert_eq!(second.class, 0);
        assert!(p.pick().is_none());
    }

    #[test]
    fn dwrr_is_fair_between_equal_classes() {
        let mut p = port();
        for _ in 0..100 {
            p.enqueue(data_frame(0, 1500));
            p.enqueue(data_frame(1, 1500));
        }
        let mut counts = [0usize; 2];
        for _ in 0..100 {
            let qf = p.pick().unwrap();
            counts[qf.class as usize] += 1;
        }
        let diff = counts[0].abs_diff(counts[1]);
        assert!(diff <= 2, "{counts:?}");
    }

    #[test]
    fn dwrr_fairness_is_bytewise_not_packetwise() {
        // Class 0 sends 500 B frames, class 1 sends 1500 B frames; over a
        // long run both should get ~equal bytes, so class 0 sends ~3x the
        // packets.
        let mut p = port();
        for _ in 0..600 {
            p.enqueue(data_frame(0, 500));
        }
        for _ in 0..200 {
            p.enqueue(data_frame(1, 1500));
        }
        let mut bytes = [0u64; 2];
        for _ in 0..400 {
            let qf = p.pick().unwrap();
            bytes[qf.class as usize] += qf.bytes();
        }
        let ratio = bytes[0] as f64 / bytes[1] as f64;
        assert!((ratio - 1.0).abs() < 0.1, "byte split {bytes:?}");
    }

    #[test]
    fn paused_class_is_skipped_and_resumes() {
        let mut p = port();
        let mut h = hists();
        p.enqueue(data_frame(0, 1500));
        p.enqueue(data_frame(1, 1500));
        p.apply_pause(PfcScope::Queue(0), true, Time::ZERO, &mut h);
        let qf = p.pick().unwrap();
        assert_eq!(qf.class, 1);
        assert!(p.pick().is_none(), "class 0 paused");
        p.apply_pause(PfcScope::Queue(0), false, Time::from_us(5), &mut h);
        let qf = p.pick().unwrap();
        assert_eq!(qf.class, 0);
    }

    #[test]
    fn port_pause_blocks_all_data_but_not_control() {
        let mut p = port();
        let mut h = hists();
        p.enqueue(data_frame(0, 1500));
        p.enqueue(pfc_frame(crate::frame::PfcScope::Queue(0), false));
        p.apply_pause(PfcScope::Port, true, Time::ZERO, &mut h);
        let qf = p.pick().unwrap();
        assert_eq!(qf.class, CONTROL_CLASS, "control is pause-exempt");
        assert!(p.pick().is_none());
    }

    #[test]
    fn pause_duration_accounting() {
        let mut p = port();
        let mut h = hists();
        p.apply_pause(PfcScope::Queue(2), true, Time::from_us(10), &mut h);
        p.apply_pause(PfcScope::Queue(2), false, Time::from_us(35), &mut h);
        p.apply_pause(PfcScope::Queue(2), true, Time::from_us(50), &mut h);
        // Closed interval 25 us + open interval 10 us at t=60.
        assert_eq!(p.class_pause_total(2, Time::from_us(60)), Delta::from_us(35));
        // Double-pause is idempotent.
        p.apply_pause(PfcScope::Queue(2), true, Time::from_us(70), &mut h);
        assert_eq!(p.class_pause_total(2, Time::from_us(80)), Delta::from_us(55));
        // Only the closed interval is in the latency histogram.
        let closed = h.get(0, 2).expect("one interval closed");
        assert_eq!(closed.count(), 1);
        assert_eq!(closed.total(), Delta::from_us(25));
        assert!(h.get(0, 3).is_none(), "a class that never paused has no histogram");
    }

    #[test]
    fn pause_latency_histogram_merges_queue_and_port_level() {
        let mut p = port();
        let mut h = hists();
        p.apply_pause(PfcScope::Queue(0), true, Time::from_us(0), &mut h);
        p.apply_pause(PfcScope::Queue(0), false, Time::from_us(5), &mut h);
        p.apply_pause(PfcScope::Port, true, Time::from_us(10), &mut h);
        p.apply_pause(PfcScope::Port, false, Time::from_us(40), &mut h);
        let merged = h.merged(0);
        assert_eq!(merged.count(), 2);
        assert_eq!(merged.total(), Delta::from_us(35));
        assert_eq!(merged.max(), Delta::from_us(30));
        let port_level = h.get(0, PORT_SCOPE).expect("port-level interval closed");
        assert_eq!(port_level.total(), Delta::from_us(30));
    }

    #[test]
    fn queue_byte_accounting() {
        let mut p = port();
        p.enqueue(data_frame(3, 1000));
        p.enqueue(data_frame(3, 500));
        assert_eq!(p.queue_bytes(3), 1500);
        let _ = p.pick().unwrap();
        assert_eq!(p.queue_bytes(3), 500);
        assert_eq!(p.total_queued_bytes(), 500);
    }

    #[test]
    fn pfc_preempts_queued_control_backlog() {
        // Regression for the rare headroom-full drop at high load: a PFC
        // pause generated behind a backlog of ACKs must still be the next
        // frame on the wire, otherwise its waiting delay exceeds the one
        // MTU budgeted by the headroom formula.
        let mut p = port();
        for _ in 0..8 {
            p.enqueue(ack_frame());
        }
        p.enqueue(data_frame(0, 1500));
        p.enqueue(pfc_frame(crate::frame::PfcScope::Queue(0), true));
        let first = p.pick().unwrap();
        assert!(first.pfc, "PFC must bypass the ACK backlog");
    }

    #[test]
    fn pfc_lane_is_fifo_so_resume_cannot_overtake_pause() {
        let mut p = port();
        let pause = QueuedFrame { frame: FrameId(1), ..pfc_frame(PfcScope::Queue(3), true) };
        let resume = QueuedFrame { frame: FrameId(2), ..pfc_frame(PfcScope::Queue(3), false) };
        p.enqueue(pause);
        p.enqueue(resume);
        let first = p.pick().unwrap();
        let second = p.pick().unwrap();
        assert!(first.pfc && second.pfc);
        assert_eq!((first.frame, second.frame), (pause.frame, resume.frame), "pause first");
    }

    #[test]
    fn watchdog_flush_reuses_caller_buffer() {
        let mut p = port();
        let mut h = hists();
        p.enqueue(data_frame(2, 1500));
        p.enqueue(data_frame(2, 500));
        p.apply_pause(PfcScope::Queue(2), true, Time::ZERO, &mut h);
        let mut out = Vec::new();
        p.watchdog_flush_class(2, Time::from_us(5), &mut out, &mut h);
        assert_eq!(out.len(), 2);
        assert_eq!(p.queue_bytes(2), 0);
        assert!(!p.class_paused(2));
        // A second flush appends without clearing.
        p.enqueue(data_frame(2, 100));
        p.watchdog_flush_class(2, Time::from_us(6), &mut out, &mut h);
        assert_eq!(out.len(), 3);
    }

    /// Every piece of scheduler state `enqueue` and `pick` touch.
    fn scheduler_state(
        p: &EgressPort,
    ) -> (bool, [u64; NUM_CLASSES], [u64; NUM_CLASSES], usize, u64) {
        (p.has_waiting(), p.deficit, p.qbytes, p.active.len(), p.total_queued_bytes())
    }

    #[test]
    fn direct_path_is_enqueue_then_pick_on_an_idle_port() {
        let mut p = port();
        // Leave DWRR history behind: a mixed backlog served to empty.
        for c in [0, 3, 0, 5] {
            p.enqueue(data_frame(c, 700));
        }
        p.enqueue(ack_frame());
        while p.pick().is_some() {}
        let idle = scheduler_state(&p);
        assert_eq!(idle, (false, [0; NUM_CLASSES], [0; NUM_CLASSES], 0, 0));
        for (k, qf) in [data_frame(0, 1500), data_frame(3, 64), ack_frame()].into_iter().enumerate()
        {
            let qf = QueuedFrame { frame: FrameId(k as u32 + 1), ..qf };
            assert!(p.idle_for(qf.class, Time::ZERO, 1));
            p.enqueue(qf);
            let got = p.pick().expect("the offered frame");
            assert_eq!(got.frame, qf.frame, "pick returns the offered frame");
            assert_eq!(scheduler_state(&p), idle, "state as the direct path leaves it");
        }
    }

    #[test]
    fn direct_path_needs_an_idle_port() {
        let mut h = hists();
        let idle = |p: &EgressPort, class: u8| p.idle_for(class, Time::ZERO, 1);
        assert!(idle(&port(), 0) && idle(&port(), CONTROL_CLASS));

        let mut p = port();
        p.enqueue(pfc_frame(crate::frame::PfcScope::Queue(0), true));
        assert!(!idle(&p, 0) && !idle(&p, CONTROL_CLASS), "a queued PFC frame goes first");

        let mut p = port();
        p.enqueue(ack_frame());
        assert!(!idle(&p, 0) && !idle(&p, CONTROL_CLASS), "a queued control frame goes first");

        let mut p = port();
        p.apply_pause(PfcScope::Queue(2), true, Time::ZERO, &mut h);
        assert!(!idle(&p, 2), "a paused class may not send");
        assert!(idle(&p, 0) && idle(&p, CONTROL_CLASS), "other classes may");

        let mut p = port();
        p.apply_pause(PfcScope::Port, true, Time::ZERO, &mut h);
        assert!(!idle(&p, 0) && !idle(&p, 6), "a port-level pause stops every data class");
        assert!(idle(&p, CONTROL_CLASS), "control is pause-exempt");

        let mut p = port();
        p.start_tx(Time::from_ns(120), 7);
        assert!(!p.idle_for(0, Time::ZERO, 8), "the serializer is busy");
        assert!(p.idle_for(0, Time::from_ns(120), 7), "idle from the frame end's place on");
    }

    #[test]
    fn cached_tx_delay_matches_the_division() {
        for bps in
            [100_000_000_000, 25_000_000_000, 40_000_000_000, 400_000_000_000, 3, 1_000_000_007]
        {
            let bw = Bandwidth::from_bps(bps);
            let p = EgressPort::new(0, NodeId(1), 0, bw, Delta::from_us(1));
            for bytes in [0, 1, 64, 1500, 9000, 2_000_000] {
                assert_eq!(p.tx_delay(bytes), bw.tx_delay(bytes), "{bytes} B at {bps} b/s");
            }
        }
    }

    #[test]
    fn busy_until_the_reserved_place_of_the_frame_end() {
        let mut p = port();
        let end = Time::from_ns(120);
        assert!(!p.is_busy(Time::ZERO, 1));
        p.start_tx(end, 7);
        assert!(p.is_busy(Time::ZERO, 8), "a later place at an earlier instant");
        // At `busy_until` the reserved place splits the instant: events
        // queued before it still see the frame on the wire.
        assert!(p.is_busy(end, 6));
        assert!(!p.is_busy(end, 7));
        assert!(!p.is_busy(end, 8));
        assert!(!p.is_busy(end + Delta::from_ps(1), 1));
    }

    #[test]
    fn booked_wake_up_keeps_the_port_busy_until_it_fires() {
        let mut p = port();
        let mut h = hists();
        let end = Time::from_ns(120);
        p.start_tx(end, 7);
        assert!(!p.has_waiting());
        p.enqueue(ack_frame());
        assert!(p.has_waiting());
        assert_eq!(p.book_wake(), Some((end, 7)));
        assert_eq!(p.book_wake(), None, "booked once");
        assert!(p.is_busy(end, 9), "busy until the TxDone runs");
        p.on_wake();
        assert!(!p.is_busy(end, 9));
        // A class left on the DWRR list by a watchdog flush still counts.
        let _ = p.pick();
        p.enqueue(data_frame(2, 100));
        p.apply_pause(PfcScope::Queue(2), true, end, &mut h);
        let mut out = Vec::new();
        p.watchdog_flush_class(2, end, &mut out, &mut h);
        assert!(p.has_waiting());
    }
}
