//! The host NIC: per-flow (queue-pair) send state driven by a
//! congestion-control transport, receiver-side ACK/NACK/CNP generation,
//! and the NIC's event handlers — flow start, the send loop, ACK, NACK
//! and CNP receipt, data delivery, the CC and RTO timers, and loss
//! recovery (go-back-N rewind, selective-repeat repair).
//!
//! The NIC hands frames to the dataplane (`send_or_enqueue`,
//! `try_transmit`); the dataplane's host `TxDone` and the flow-control
//! layer's resume call back into `host_try_send`.

use crate::arena::FrameId;
use crate::frame::{AckFrame, DataFrame, Frame, FrameKind, NackFrame, MTU};
use crate::ids::{FlowId, NodeId};
use crate::monitor::FctRecord;
use crate::network::{FlowSpec, NetEvent, Network, Node};
use crate::port::QueuedFrame;
use dsh_simcore::trace::TraceEvent;
use dsh_simcore::{trace_event, Scheduler, Time};
use dsh_transport::{
    new_cc, AckInfo, AnyCc, Cc, CnpPolicy, GoBackN, RecoveryConfig, Regime, RtoOutcome, SackBuffer,
    SackState, TelemetryHop,
};

/// Sender-side state of one flow (an RDMA queue pair).
pub struct SenderFlow {
    /// Global flow id.
    pub id: FlowId,
    /// Destination host.
    pub dst: NodeId,
    /// Priority class (0..7).
    pub class: u8,
    /// Flow size in bytes.
    pub size: u64,
    /// Bytes handed to the wire.
    pub sent: u64,
    /// Bytes acknowledged.
    pub acked: u64,
    /// Pacing: earliest time the next segment may be sent.
    pub next_send: Time,
    /// Congestion control state machine, held inline: per-packet calls
    /// dispatch with a static `match`, and a flow costs no extra box.
    pub cc: AnyCc,
    /// Generation counter invalidating stale CC timer events.
    pub timer_gen: u32,
    /// Firing time of the live CC timer event on the calendar
    /// (`Time::MAX` when none is live).
    pub timer_at: Time,
    /// Calendar place `(time, seq)` the timer is due at: the place of the
    /// last arm's deadline, as if every arm pushed a fresh event. The live
    /// event fires at or before it and moves itself there when early.
    pub timer_due: (Time, u64),
    /// Go-back-N retransmission state (idle unless the network has
    /// recovery enabled; see `NetParams::recovery`).
    pub recovery: GoBackN,
    /// Generation counter invalidating stale RTO timer events.
    pub rto_gen: u32,
    /// Lazy RTO deadline: pushed forward on every send and every ACK with
    /// progress without touching the calendar; the armed timer event
    /// re-schedules itself here when it fires early.
    pub rto_deadline: Time,
    /// Whether an RTO timer event is outstanding on the calendar.
    pub rto_armed: bool,
    /// High-water mark of `sent` (never rewound); bytes re-sent below it
    /// are counted as retransmitted.
    pub max_sent: u64,
    /// Selective-repeat sender state (idle unless the recovery regime is
    /// [`SelectiveRepeat`](dsh_transport::Regime::SelectiveRepeat)).
    pub sack: SackState,
    /// RTT probe: `Some((target_acked, sent_at))` while one fresh segment
    /// is being timed; sampled when the cumulative ACK reaches the target,
    /// cleared on any retransmission (Karn's rule — a retransmitted
    /// segment's ACK is ambiguous).
    pub rtt_probe: Option<(u64, Time)>,
}

impl std::fmt::Debug for SenderFlow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SenderFlow")
            .field("id", &self.id)
            .field("sent", &self.sent)
            .field("acked", &self.acked)
            .field("size", &self.size)
            .finish()
    }
}

impl SenderFlow {
    /// The sender state `spec` starts with as flow `id`: nothing sent, no
    /// timer live, the send clock at the flow's start.
    #[must_use]
    pub fn new(id: FlowId, spec: &FlowSpec, cc: AnyCc, recovery: GoBackN) -> Self {
        SenderFlow {
            id,
            dst: spec.dst,
            class: spec.class,
            size: spec.size,
            sent: 0,
            acked: 0,
            next_send: spec.start,
            cc,
            timer_gen: 0,
            timer_at: Time::MAX,
            timer_due: (Time::MAX, 0),
            recovery,
            rto_gen: 0,
            rto_deadline: Time::MAX,
            rto_armed: false,
            max_sent: 0,
            sack: SackState::new(),
            rtt_probe: None,
        }
    }

    /// Bytes in flight (sent, not yet acked).
    #[must_use]
    pub fn in_flight(&self) -> u64 {
        self.sent - self.acked
    }

    /// Whether every byte has been handed to the wire.
    #[must_use]
    pub fn fully_sent(&self) -> bool {
        self.sent >= self.size
    }

    /// Invalidates the live CC timer event, if any: the next arm pushes a
    /// fresh one.
    pub fn park_cc_timer(&mut self) {
        self.timer_gen += 1;
        self.timer_at = Time::MAX;
    }

    /// Advances the cumulative ACK mark to `mark` (an ACK's, or the one a
    /// NACK carries) and feeds the newly acknowledged bytes to the CC
    /// with the echoed ECN mark and INT `hops`. With `sack_mtu` set (loss
    /// recovery on) the selective-repeat window slides along. Marks are
    /// cumulative, so duplicates and reordering collapse to no progress.
    /// Returns the bytes newly acknowledged.
    pub fn advance_cum_ack(
        &mut self,
        mark: u64,
        ecn_echo: bool,
        hops: &[TelemetryHop],
        now: Time,
        sack_mtu: Option<u64>,
    ) -> u64 {
        let new_acked = mark.min(self.size).max(self.acked);
        let delta = new_acked - self.acked;
        if delta > 0 {
            self.acked = new_acked;
            // A stale ACK can land after a timeout rewound the cursor; the
            // receiver holding these bytes proves they were sent, so pull
            // the cursor back up rather than leave `sent < acked`.
            self.sent = self.sent.max(self.acked);
            self.cc.on_ack(now, &AckInfo { acked_bytes: delta, ecn_echo, hops });
            if let Some(mtu) = sack_mtu {
                self.sack.on_cum_advance(delta, new_acked, mtu);
            }
        }
        delta
    }
}

/// Receiver-side state of one flow.
#[derive(Debug)]
pub struct ReceiverFlow {
    /// Payload bytes received so far.
    pub received: u64,
    /// DCQCN notification-point CNP policy.
    pub cnp: CnpPolicy,
    /// Completion already recorded.
    pub completed: bool,
    /// Selective-repeat out-of-order delivery window (stays empty under
    /// go-back-N, whose receiver discards everything past a gap).
    pub sack: SackBuffer,
}

impl ReceiverFlow {
    /// Fresh receiver state.
    #[must_use]
    pub fn new() -> Self {
        ReceiverFlow {
            received: 0,
            cnp: CnpPolicy::standard(),
            completed: false,
            sack: SackBuffer::new(),
        }
    }
}

impl Default for ReceiverFlow {
    fn default() -> Self {
        ReceiverFlow::new()
    }
}

/// A host: one uplink NIC port plus flow state.
#[derive(Debug)]
pub struct HostNode {
    /// This node's id.
    pub id: NodeId,
    /// Position of the single uplink (port 0) in the network's port
    /// table; `NO_PORT` for a host that was never linked.
    pub uplink: u32,
    /// Flows sourced at this host, in start order (the network's flow
    /// record holds each flow's position here).
    pub tx_flows: Vec<SenderFlow>,
    /// Flows registered with this host as their source: the first
    /// [`HostNode::add_sender`] sizes `tx_flows` to it, so a host's
    /// sender table holds its own flows and no spare slots.
    pub sourced: usize,
    /// Indices of `tx_flows` that still have data to hand to the wire
    /// (kept small so the NIC's per-packet scan is O(active), not
    /// O(all flows ever)).
    pub active: Vec<usize>,
    /// Round-robin cursor over `active`.
    pub rr_cursor: usize,
    /// Earliest already-scheduled NIC wake-up (dedup).
    pub wake_at: Time,
}

impl HostNode {
    /// Creates a host whose uplink sits at `uplink` in the port table.
    #[must_use]
    pub fn new(id: NodeId, uplink: u32) -> Self {
        HostNode {
            id,
            uplink,
            tx_flows: Vec::new(),
            sourced: 0,
            active: Vec::new(),
            rr_cursor: 0,
            wake_at: Time::MAX,
        }
    }

    /// Registers a new sender flow (marked active); returns its
    /// `tx_flows` position.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` flows are registered at one host.
    pub fn add_sender(&mut self, flow: SenderFlow) -> u32 {
        if self.tx_flows.capacity() == 0 {
            self.tx_flows.reserve_exact(self.sourced);
        }
        let idx = self.tx_flows.len();
        self.tx_flows.push(flow);
        self.active.push(idx);
        u32::try_from(idx).expect("too many flows at one host")
    }

    /// Retires `active[slot]` from the NIC's scan, keeping the round-robin
    /// cursor in range.
    pub fn retire(&mut self, slot: usize) {
        self.active.swap_remove(slot);
        if self.rr_cursor >= self.active.len() {
            self.rr_cursor = 0;
        }
    }

    /// Puts `tx_flows[flow]` back on the NIC's scan (a fully-sent flow
    /// left it) unless it is already there.
    pub fn reactivate(&mut self, flow: usize) {
        if !self.active.contains(&flow) {
            self.active.push(flow);
        }
    }
}

impl Network {
    pub(crate) fn handle_flow_start(&mut self, flow: FlowId, sched: &mut Scheduler<'_, NetEvent>) {
        let spec = self.flows[flow.0].spec;
        trace_event!(self.tracer, TraceEvent::FlowStart, {
            flow: flow.0 as u32,
            node: spec.src.0 as u32,
            class: spec.class,
            payload: spec.size,
        });
        let (bw, base_rtt) =
            (self.ports[self.first_port(spec.src)].bandwidth(), self.params.base_rtt);
        let cc = new_cc(spec.cc, bw, base_rtt);
        let rcfg = self.params.recovery.unwrap_or_else(|| RecoveryConfig::for_rtt(base_rtt));
        let sender = SenderFlow::new(flow, &spec, cc, GoBackN::new(rcfg));
        self.flows[flow.0].sender = self.host_mut(spec.src).add_sender(sender);
        self.host_try_send(spec.src, sched);
    }

    pub(crate) fn handle_host_wake(&mut self, node: NodeId, sched: &mut Scheduler<'_, NetEvent>) {
        self.host_mut(node).wake_at = Time::MAX;
        self.host_try_send(node, sched);
    }

    /// Receives a data, ACK, NACK or CNP frame at host `node`.
    pub(crate) fn host_arrive(
        &mut self,
        node: NodeId,
        id: FrameId,
        sched: &mut Scheduler<'_, NetEvent>,
    ) {
        let now = sched.now();
        let sack_mtu = self.params.recovery.is_some().then_some(MTU);
        // ACKs and NACKs may open window space; a CNP only slows the flow.
        let (flow, may_send) = match &self.frames.get(id).kind {
            FrameKind::Data(_) => return self.host_receive_data(node, id, sched),
            FrameKind::Pfc(_) => unreachable!("PFC frames are received at dispatch"),
            &FrameKind::Ack(a) => {
                debug_assert_eq!(node, self.flows[a.flow.0].spec.src, "{:?} ACK at {node}", a.flow);
                let slot = self.sender_slot(a.flow);
                // The sender's state and the ACK's echoed hops, borrowed
                // side by side.
                let Node::Host(host) = &mut self.nodes[node.0] else {
                    unreachable!("{node} is not a host")
                };
                if let Some(f) = slot.map(|i| &mut host.tx_flows[i]) {
                    let hops = self.frames.hops(id);
                    let delta = f.advance_cum_ack(a.acked, a.ecn_echo, hops, now, sack_mtu);
                    if delta > 0 && sack_mtu.is_some() {
                        // RTT probe: only fresh, never-retransmitted
                        // segments are timed (Karn's rule), and the
                        // sample feeds the adaptive RTO estimator.
                        if let Some((target, at)) = f.rtt_probe {
                            if f.acked >= target {
                                f.recovery.on_rtt_sample(now.saturating_since(at));
                                f.rtt_probe = None;
                            }
                        }
                        f.recovery.on_progress();
                        if f.acked >= f.size || f.in_flight() == 0 {
                            // Nothing outstanding: invalidate any armed
                            // timer.
                            f.rto_gen = f.rto_gen.wrapping_add(1);
                            f.rto_armed = false;
                            f.rto_deadline = Time::MAX;
                        } else {
                            // Push the lazy deadline forward; the armed
                            // event re-schedules itself.
                            f.rto_deadline = f.recovery.deadline(now);
                        }
                    }
                }
                (a.flow, true)
            }
            &FrameKind::Nack(n) => {
                let slot = self.sender_slot(n.flow);
                let host = self.host_mut(node);
                let mut episode = false;
                if let Some(i) = slot {
                    let f = &mut host.tx_flows[i];
                    // The NACK's cumulative mark doubles as an ACK: count
                    // any progress first. NACKs carry no INT telemetry, so
                    // the echo is an empty hop list — INT-driven CCs treat
                    // that as "no information" (PowerTcp::on_ack returns
                    // early), not as an uncongested path.
                    f.advance_cum_ack(n.expected, n.ecn_echo, &[], now, Some(MTU));
                    episode = f.sack.on_nack(f.acked, n.bitmap, MTU, f.max_sent);
                    if episode {
                        // One window cut per loss episode (NewReno-style),
                        // not per NACK.
                        f.cc.on_loss(now);
                    }
                    // A NACK proves the path is alive: reset the timeout
                    // ladder and push the lazy deadline out past the
                    // repair round-trip.
                    f.recovery.on_progress();
                    f.rto_deadline = f.recovery.deadline(now);
                    // The repair retransmits, so the in-flight probe
                    // segment turns ambiguous (Karn's rule).
                    f.rtt_probe = None;
                    // A fully-sent flow left the active list; pending gap
                    // repairs put it back so the NIC scan finds it.
                    if f.sack.repair_pending() || !f.fully_sent() {
                        host.reactivate(i);
                    }
                }
                if episode {
                    self.recovery_nacks += 1;
                }
                (n.flow, true)
            }
            &FrameKind::Cnp { flow, .. } => {
                if let Some(f) = self.sender_mut(node, flow) {
                    f.cc.on_cnp(now);
                }
                (flow, false)
            }
        };
        self.frames.free(id);
        self.arm_cc_timer(node, flow, sched);
        if may_send {
            self.host_try_send(node, sched);
        }
    }

    fn host_receive_data(
        &mut self,
        node: NodeId,
        id: FrameId,
        sched: &mut Scheduler<'_, NetEvent>,
    ) {
        let FrameKind::Data(d) = &self.frames.get(id).kind else {
            unreachable!("host_receive_data requires a data frame")
        };
        let (flow, src, seq, payload, ecn) = (d.flow, d.src, d.seq, d.payload, d.ecn);
        self.packets_delivered += 1;
        let now = sched.now();
        let meta_size = self.flows[flow.0].spec.size;
        let meta_start = self.flows[flow.0].spec.start;
        let sr = self.params.recovery.is_some_and(|r| r.regime == Regime::SelectiveRepeat);

        let (send_cnp, completed, cum_acked, nack, bitmap) = {
            let rx = &mut self.rx_flows[flow.0];
            // Go-back-N receiver: only the next in-order segment advances
            // the stream; duplicates (replays below the mark) and gaps
            // (segments past a loss) are discarded, and the cumulative
            // ACK below tells the sender where to resume. Segment
            // boundaries re-derive identically after a rewind, so a
            // partial overlap cannot occur.
            //
            // Selective-repeat receiver: an out-of-order segment is kept
            // in the MTU-strided SACK window instead of discarded, and
            // each such arrival triggers a NACK carrying the cumulative
            // mark plus the window bitmap.
            let mut nack = false;
            if seq == rx.received {
                rx.received += payload;
                if sr {
                    // The in-order arrival may bridge to buffered
                    // segments: slide the window (once per segment the
                    // mark advances, holes or not — the bitmap must stay
                    // aligned for the next NACK) and drain everything
                    // now contiguous. All segments except a flow's last
                    // are exactly one MTU.
                    for _ in 0..rx.sack.on_in_order_arrival() {
                        rx.received += MTU.min(meta_size - rx.received);
                    }
                }
            } else if sr && seq > rx.received {
                let gap = (seq - rx.received) / MTU;
                let _ = rx.sack.offer(gap);
                nack = true;
            }
            let send_cnp = rx.cnp.on_data(now, ecn);
            let completed = !rx.completed && rx.received >= meta_size;
            if completed {
                rx.completed = true;
            }
            (send_cnp, completed, rx.received, nack, rx.sack.bitmap())
        };

        // Goodput counts new in-order bytes only; FCT ends at the last
        // *new* byte delivered (retransmissions never extend a flow).
        self.flow_rx[flow.0] = cum_acked;
        if completed {
            self.fct.push(FctRecord { flow, size: meta_size, start: meta_start, finish: now });
            trace_event!(self.tracer, TraceEvent::FlowComplete, {
                flow: flow.0 as u32,
                node: node.0 as u32,
                payload: now.saturating_since(meta_start).as_ps(),
            });
        }

        // Reply path: ACK (or NACK on an out-of-order arrival under
        // selective repeat) + CNP (DCQCN NP policy). The data frame is
        // rewritten in place; an ACK keeps the hop slot the data filled, so
        // the telemetry echoes without a copy, and a NACK releases it.
        if nack {
            self.frames.refill(
                id,
                Frame::nack(NackFrame {
                    flow,
                    dst: src,
                    expected: cum_acked,
                    bitmap,
                    ecn_echo: ecn,
                }),
            );
            self.nacks_sent += 1;
            trace_event!(self.tracer, TraceEvent::RecoveryNack, {
                flow: flow.0 as u32,
                node: node.0 as u32,
                payload: cum_acked,
            });
        } else {
            let ack = AckFrame { flow, dst: src, acked: cum_acked, ecn_echo: ecn };
            self.frames.get_mut(id).echo_as_ack(ack);
        }
        let reply = QueuedFrame::new(id, self.frames.get(id), None);
        let up = self.first_port(node);
        if send_cnp {
            let cnp = self.alloc_queued(Frame::cnp(flow, src));
            self.ports[up].enqueue(reply);
            self.ports[up].enqueue(cnp);
            self.try_transmit(node, up, sched);
        } else {
            self.send_or_enqueue(node, up, reply, sched);
        }
    }

    /// Generates data frames from eligible flows into the NIC queue and
    /// kicks the serializer; schedules a pacing wake-up if needed.
    pub(crate) fn host_try_send(&mut self, node: NodeId, sched: &mut Scheduler<'_, NetEvent>) {
        let now = sched.now();
        let recovery_on = self.params.recovery.is_some();
        let sr = self.params.recovery.is_some_and(|r| r.regime == Regime::SelectiveRepeat);
        let up = self.first_port(node);
        loop {
            let (host, port) = self.host_with_uplink(node);
            let n = host.active.len();
            if n == 0 {
                break;
            }
            let mut chosen = None;
            let mut stale = None;
            for k in 0..n {
                let slot = (host.rr_cursor + k) % n;
                let i = host.active[slot];
                let f = &host.tx_flows[i];
                let repair = sr && f.sack.repair_pending();
                if !repair && f.fully_sent() {
                    // Fully sent with no repairs pending: a cumulative ACK
                    // can clear the repair window after a NACK reactivated
                    // the flow (selective repeat), or a stale ACK can pull
                    // a timeout-rewound cursor back past the end (either
                    // regime). Retire the stale entry and rescan.
                    stale = Some(slot);
                    break;
                }
                if f.next_send > now {
                    continue;
                }
                // IRN-style BDP flow control: fresh data may run at most
                // the receiver's out-of-order window ahead of the
                // cumulative ACK. Past it, arrivals behind a hole cannot
                // be buffered and the discarded tail would come back one
                // RTO at a time. Repairs land inside the window and pass.
                if sr
                    && !repair
                    && f.sent.saturating_sub(f.acked) >= SackBuffer::WINDOW_SEGMENTS * MTU
                {
                    continue;
                }
                let seg = if repair { MTU } else { MTU.min(f.size - f.sent) };
                if !port.class_sendable(f.class) {
                    continue;
                }
                // Keep at most ~2 MTU queued per class: the NIC pulls from
                // queue pairs on demand rather than dumping the whole flow.
                if port.queue_bytes(f.class) >= 2 * MTU {
                    continue;
                }
                // Repairs fill holes the window already covered once, so
                // they bypass the cwnd gate (the post-loss window cut
                // would otherwise deadlock a fully-sent flow).
                let cwnd = f.cc.cwnd_bytes();
                if !repair && f.in_flight() + seg > cwnd.max(seg) {
                    continue;
                }
                chosen = Some(slot);
                break;
            }
            if let Some(slot) = stale {
                host.retire(slot);
                continue;
            }
            let Some(slot) = chosen else { break };
            let i = host.active[slot];
            let f = &mut host.tx_flows[i];
            // Gap repairs take priority over fresh data: a hole at the
            // receiver stalls the cumulative mark, while fresh data only
            // extends the out-of-order tail.
            let repair_off =
                if sr && f.sack.repair_pending() { f.sack.next_repair(f.acked, MTU) } else { None };
            let (seq, seg, is_retx, is_repair) = match repair_off {
                Some(off) => (off, MTU.min(f.size - off), true, true),
                None => {
                    if f.fully_sent() {
                        // Every outstanding gap turned out to be SACKed:
                        // nothing to repair, nothing fresh — retire from
                        // the scan and let ACKs finish the flow.
                        host.retire(slot);
                        continue;
                    }
                    if sr && f.sent.saturating_sub(f.acked) >= SackBuffer::WINDOW_SEGMENTS * MTU {
                        // Selected for a repair that the scan then found
                        // fully SACKed; fresh data is still window-blocked
                        // (the scan consumed `repair_pending`, so the
                        // rescan below cannot pick this flow again).
                        continue;
                    }
                    // Anything re-sent below the high-water mark is a
                    // retransmission (a go-back-N rewind replays from
                    // `acked`).
                    (f.sent, MTU.min(f.size - f.sent), f.sent < f.max_sent, false)
                }
            };
            let df = DataFrame {
                flow: f.id,
                src: node,
                dst: f.dst,
                seq,
                payload: seg,
                ecn: false,
                int: f.cc.kind().reads_int(),
            };
            let class = f.class;
            if !is_repair {
                // Repairs re-cover old offsets; only fresh data (or a
                // GBN replay) moves the stream cursor.
                f.sent += seg;
                f.max_sent = f.max_sent.max(f.sent);
            }
            f.cc.on_sent(now, seg);
            let rate = f.cc.rate();
            f.next_send = now + rate.tx_delay(seg);
            // RTT probe for the adaptive RTO: time one fresh segment at a
            // time; any retransmission poisons an outstanding probe
            // (Karn's rule).
            if recovery_on {
                if is_retx {
                    f.rtt_probe = None;
                } else if f.rtt_probe.is_none() {
                    f.rtt_probe = Some((f.sent, now));
                }
            }
            let flow_id = f.id;
            // Every send pushes the lazy RTO deadline; only the
            // unarmed→armed transition touches the calendar.
            let mut arm = None;
            if recovery_on {
                f.rto_deadline = f.recovery.deadline(now);
                if !f.rto_armed {
                    f.rto_armed = true;
                    f.rto_gen = f.rto_gen.wrapping_add(1);
                    arm = Some((f.rto_deadline, f.rto_gen));
                }
            }
            let done_sending = f.fully_sent() && !(sr && f.sack.repair_pending());
            if done_sending {
                host.retire(slot);
            } else {
                host.rr_cursor = (slot + 1) % n;
            }
            if is_retx {
                self.retransmitted_bytes += seg;
                if is_repair {
                    self.sr_retransmitted_bytes += seg;
                    trace_event!(self.tracer, TraceEvent::RecoveryRepair, {
                        flow: flow_id.0 as u32,
                        node: node.0 as u32,
                        payload: seg,
                    });
                }
            }
            if let Some((deadline, gen)) = arm {
                sched.at(
                    deadline,
                    NetEvent::RtoTimer { host: node.0 as u32, flow: flow_id.0 as u32, gen },
                );
            }
            let qf = self.alloc_queued(Frame::data(df, class));
            self.ports[up].enqueue(qf);
            self.arm_cc_timer(node, flow_id, sched);
        }
        self.try_transmit(node, up, sched);

        // Pacing wake-up for flows waiting only on their send clock — but
        // only from an idle serializer: while the uplink is busy, the
        // active flows have booked its TxDone, which re-enters this
        // function and re-evaluates the clock, so a wake-up event here
        // would just be calendar churn.
        let (host, port) = self.host_with_uplink(node);
        if port.is_busy(now, sched.current_seq()) {
            return;
        }
        let next =
            host.active.iter().map(|&i| host.tx_flows[i].next_send).filter(|&t| t > now).min();
        if let Some(t) = next {
            if t < host.wake_at {
                host.wake_at = t;
                sched.at(t, NetEvent::HostWake { host: node.0 as u32 });
            }
        }
    }

    /// Arms the flow's CC timer at the CC's next deadline, in the calendar
    /// place a fresh push would take now, while keeping one live timer
    /// event per flow. A new event is pushed only when the deadline is
    /// earlier than the live one, or when none is live. Otherwise the live
    /// event fires early and moves itself to the due place (the lazy
    /// pattern of the RTO timer), so the timer's work runs in exactly that
    /// place.
    fn arm_cc_timer(&mut self, node: NodeId, flow: FlowId, sched: &mut Scheduler<'_, NetEvent>) {
        let now = sched.now();
        let Some(f) = self.sender_mut(node, flow) else { return };
        if f.acked >= f.size {
            // Completed flows need no more transport timers.
            f.park_cc_timer();
            return;
        }
        let Some(t) = f.cc.next_timer().map(|t| t.max(now)) else { return };
        let seq = sched.reserve_seq();
        f.timer_due = (t, seq);
        if t < f.timer_at {
            f.timer_gen += 1;
            f.timer_at = t;
            let gen = f.timer_gen;
            sched.push_reserved(
                t,
                seq,
                NetEvent::CcTimer { host: node.0 as u32, flow: flow.0 as u32, gen },
            );
        }
    }

    pub(crate) fn handle_cc_timer(
        &mut self,
        node: NodeId,
        flow: FlowId,
        gen: u32,
        sched: &mut Scheduler<'_, NetEvent>,
    ) {
        let now = sched.now();
        let place = (now, sched.current_seq());
        {
            let Some(f) = self.sender_mut(node, flow) else { return };
            if f.timer_gen != gen {
                return; // stale
            }
            if place < f.timer_due {
                // Arms since this event was pushed moved the due place
                // later: follow it.
                let (t, seq) = f.timer_due;
                f.timer_at = t;
                sched.push_reserved(
                    t,
                    seq,
                    NetEvent::CcTimer { host: node.0 as u32, flow: flow.0 as u32, gen },
                );
                return;
            }
            debug_assert_eq!(place, f.timer_due, "CC timer fired past its due place");
            f.timer_at = Time::MAX;
            f.cc.on_timer(now);
        }
        self.arm_cc_timer(node, flow, sched);
        // Rate may have increased: the pacing clock stands, but window
        // growth can unblock sending.
        self.host_try_send(node, sched);
    }

    // ---- loss recovery ----------------------------------------------------

    /// Handles an RTO event. The timer is lazy: sends and ACK progress
    /// only push `rto_deadline` forward in flow state, and the one armed
    /// calendar event re-schedules itself here when it fires before the
    /// deadline — so the steady-state packet path costs no calendar
    /// traffic for the timer at all.
    pub(crate) fn handle_rto_timer(
        &mut self,
        node: NodeId,
        flow: FlowId,
        gen: u32,
        sched: &mut Scheduler<'_, NetEvent>,
    ) {
        enum Outcome {
            Done,
            Reschedule(Time),
            Failed,
            Recover(Regime),
        }
        let now = sched.now();
        let outcome = {
            let Some(f) = self.sender_mut(node, flow) else { return };
            if f.rto_gen != gen || !f.rto_armed {
                Outcome::Done // stale generation
            } else if f.acked >= f.size || f.recovery.failed() {
                f.rto_armed = false;
                Outcome::Done
            } else if f.in_flight() == 0 {
                // Nothing outstanding: disarm; the next send re-arms.
                f.rto_armed = false;
                Outcome::Done
            } else if now < f.rto_deadline {
                Outcome::Reschedule(f.rto_deadline)
            } else {
                match f.recovery.on_timeout() {
                    RtoOutcome::Failed => {
                        f.rto_armed = false;
                        f.park_cc_timer();
                        Outcome::Failed
                    }
                    RtoOutcome::Retransmit => Outcome::Recover(f.recovery.regime()),
                }
            }
        };
        match outcome {
            Outcome::Done => {}
            Outcome::Reschedule(t) => {
                sched.at(t, NetEvent::RtoTimer { host: node.0 as u32, flow: flow.0 as u32, gen });
            }
            Outcome::Failed => self.fail_flow(node, flow),
            Outcome::Recover(regime) => self.rto_recover(node, flow, regime, sched),
        }
    }

    /// Marks a flow failed after its retry budget ran out: it is removed
    /// from the active list (never wedged, never silently dropped) and
    /// reported via [`Network::failed_flow_count`].
    fn fail_flow(&mut self, node: NodeId, flow: FlowId) {
        self.failed_flows += 1;
        trace_event!(self.tracer, TraceEvent::FlowFailed, {
            flow: flow.0 as u32,
            node: node.0 as u32,
            payload: self.flow_rx[flow.0],
        });
        let slot = self.sender_slot(flow);
        let host = self.host_mut(node);
        if let Some(pos) = slot.and_then(|slot| host.active.iter().position(|&i| i == slot)) {
            host.retire(pos);
        }
    }

    /// Recovers from an RTO expiry: backs off the transport and resends
    /// from the cumulative ACK mark. Go-back-N rewinds `sent` to the mark;
    /// frames from the old transmission still in flight arrive as
    /// duplicates and are discarded by the receiver's in-order check.
    /// Selective repeat rewinds nothing and re-arms its repair cursor at
    /// the mark instead, so only the missing segment (plus any un-SACKed
    /// holes above it) goes out again. That covers NACK loss and tail
    /// loss, where no out-of-order arrival exists to trigger a NACK.
    fn rto_recover(
        &mut self,
        node: NodeId,
        flow: FlowId,
        regime: Regime,
        sched: &mut Scheduler<'_, NetEvent>,
    ) {
        let now = sched.now();
        self.recovery_timeouts += 1;
        let (deadline, gen, rto_word) = {
            let slot = self.sender_slot(flow).expect("RTO for unregistered flow");
            let host = self.host_mut(node);
            let f = &mut host.tx_flows[slot];
            f.cc.on_loss(now);
            match regime {
                Regime::GoBackN => f.sent = f.acked,
                Regime::SelectiveRepeat => f.sack.rearm_on_timeout(f.acked, MTU),
            }
            f.next_send = now;
            f.rtt_probe = None;
            // Still armed: the same generation carries the next event,
            // scheduled at the backed-off deadline.
            f.rto_deadline = f.recovery.deadline(now);
            let armed = (f.rto_deadline, f.rto_gen, f.recovery.trace_payload());
            // A fully-sent flow left the active list; the rewind (or the
            // repair cursor) has data to send again.
            host.reactivate(slot);
            armed
        };
        trace_event!(self.tracer, TraceEvent::Retransmit, {
            flow: flow.0 as u32,
            node: node.0 as u32,
            payload: rto_word,
        });
        trace_event!(self.tracer, TraceEvent::RecoveryRto, {
            flow: flow.0 as u32,
            node: node.0 as u32,
            payload: rto_word,
        });
        sched.at(deadline, NetEvent::RtoTimer { host: node.0 as u32, flow: flow.0 as u32, gen });
        self.host_try_send(node, sched);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsh_simcore::{Bandwidth, Delta};
    use dsh_transport::{CcKind, RecoveryConfig, Uncontrolled};

    fn flow(id: usize) -> SenderFlow {
        let spec = FlowSpec {
            src: NodeId(0),
            dst: NodeId(9),
            size: 10_000,
            class: 0,
            start: Time::ZERO,
            cc: CcKind::Uncontrolled,
        };
        let cc = AnyCc::Uncontrolled(Uncontrolled::new(Bandwidth::from_gbps(100)));
        SenderFlow::new(
            FlowId(id),
            &spec,
            cc,
            GoBackN::new(RecoveryConfig::for_rtt(Delta::from_us(16))),
        )
    }

    #[test]
    fn sender_bookkeeping() {
        let mut f = flow(1);
        f.sent = 4000;
        f.acked = 1000;
        assert_eq!(f.in_flight(), 3000);
        assert!(!f.fully_sent());
        f.sent = 10_000;
        assert!(f.fully_sent());
    }

    #[test]
    fn host_flow_registry() {
        let mut h = HostNode::new(NodeId(0), 0);
        h.sourced = 3;
        assert_eq!(h.add_sender(flow(5)), 0);
        assert_eq!(h.add_sender(flow(9)), 1);
        assert_eq!(h.tx_flows[1].id, FlowId(9));
        assert_eq!(h.active, [0, 1]);
        assert_eq!(h.tx_flows.capacity(), 3, "sized to the flows it sources");
    }
}
