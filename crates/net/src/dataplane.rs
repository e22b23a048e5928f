//! The dataplane: switch arrival (route, MMU admission, ECN marking) and
//! the egress serializers every node shares — the direct-to-wire fast
//! path, transmission with INT stamping, and the `TxDone` wake-ups.
//!
//! Admission hands the MMU's pause/resume actions to the flow-control
//! layer (`drain_fc`); a departure does the same for the resumes its
//! release owes. A host's `TxDone` goes back to the NIC (`host_try_send`)
//! to refill its queue.

use crate::arena::FrameId;
use crate::frame::{Frame, FrameKind};
use crate::ids::NodeId;
use crate::network::{NetEvent, Network, Node};
use crate::port::{IngressTag, QueuedFrame};
use crate::routing::RouteTable;
use dsh_core::{FcActions, Mmu};
use dsh_simcore::Scheduler;
use dsh_transport::TelemetryHop;

/// A store-and-forward switch with ingress MMU accounting.
#[derive(Debug)]
pub struct SwitchNode {
    /// This node's id.
    pub id: NodeId,
    /// Position of port 0 in the network's port table; port *i* sits *i*
    /// places further on (the ingress side of port *i* is the link from
    /// its peer).
    pub first_port: u32,
    /// Number of ports.
    pub port_count: u32,
    /// The lossless-pool MMU (SIH or DSH).
    pub mmu: Mmu,
    /// ECMP candidates toward every destination node.
    pub routes: RouteTable,
}

impl Network {
    /// Forwards a data, ACK, NACK or CNP frame that arrived at switch
    /// `node` on `in_port`: routes it, admits data through the MMU (a
    /// rejected frame is a congestion drop), marks ECN and offers it to
    /// its egress.
    pub(crate) fn switch_arrive(
        &mut self,
        node: NodeId,
        in_port: usize,
        id: FrameId,
        sched: &mut Scheduler<'_, NetEvent>,
    ) {
        let frame = *self.frames.get(id);
        let (Some(dst), Some(flow)) = (frame.dst(), frame.flow()) else {
            unreachable!("PFC frames are received at dispatch")
        };

        let sw = self.switch_mut(node);
        let out_port = sw.first_port as usize + sw.routes.pick(dst.0, flow, sw.id);
        let mut fc = FcActions::none();
        let admitted = if frame.is_data() {
            let q = frame.class as usize;
            let outcome = sw.mmu.on_arrival(in_port, q, frame.bytes);
            fc = outcome.actions;
            outcome.region.map(|region| {
                // The builder keeps switch ports within `u16`, and classes
                // are below 8.
                Some(IngressTag { in_port: in_port as u16, in_queue: q as u8, region })
            })
        } else {
            Some(None)
        };
        let Some(tag) = admitted else {
            // Congestion loss. Lossless configurations must never reach
            // this (tests assert on the counter); the lossy scheme reaches
            // it by design once the shared pool rejects (drop-tail), and
            // loss recovery repairs the gap end to end.
            self.data_drops += 1;
            self.frames.free(id);
            self.drain_fc(node, fc, sched);
            return;
        };

        // ECN marking against the egress queue length (congestion point).
        if frame.is_data() && self.params.ecn.enabled {
            let qlen = self.ports[out_port].queue_bytes(frame.class);
            let mark = self.params.ecn.mark(qlen, &mut self.rng);
            if mark {
                if let FrameKind::Data(d) = &mut self.frames.get_mut(id).kind {
                    d.ecn = true;
                }
            }
        }

        // This arrival's own flow-control frames go first. Drained before
        // the data is offered, they find its egress as they would with the
        // data queued behind them: the PFC lane is served ahead of it.
        if !fc.is_empty() {
            self.drain_fc(node, fc, sched);
        }
        self.send_or_enqueue(node, out_port, QueuedFrame::new(id, &frame, tag), sched);
    }

    /// Starts a transmission on `node`'s egress `port` (a port-table
    /// position, as every egress port below is named) if the serializer is
    /// idle and a frame is eligible. On a busy serializer, books the
    /// wake-up at the end of the frame on the wire if one is now owed.
    pub(crate) fn try_transmit(
        &mut self,
        node: NodeId,
        port: usize,
        sched: &mut Scheduler<'_, NetEvent>,
    ) {
        let now = sched.now();
        let p = &mut self.ports[port];
        if p.is_busy(now, sched.current_seq()) {
            self.book_wake(node, port, sched);
            return;
        }
        if let Some(qf) = p.pick() {
            self.transmit(node, port, qf, sched);
        }
    }

    /// Offers `qf` to `(node, port)`: straight onto the wire when the port
    /// is [idle for it](EgressPort::idle_for), where queueing it and
    /// picking again would hand back the same frame and leave the
    /// scheduler as it was; through the queue otherwise.
    pub(crate) fn send_or_enqueue(
        &mut self,
        node: NodeId,
        port: usize,
        qf: QueuedFrame,
        sched: &mut Scheduler<'_, NetEvent>,
    ) {
        let p = &mut self.ports[port];
        if p.idle_for(qf.class, sched.now(), sched.current_seq()) {
            self.transmit(node, port, qf, sched);
        } else {
            p.enqueue(qf);
            self.try_transmit(node, port, sched);
        }
    }

    /// Puts `qf`, the frame the idle serializer of `(node, port)` serves
    /// next, on the wire: releases its MMU accounting, stamps INT if it
    /// asked for it, schedules its arrival at the peer and books the
    /// wake-up its end owes.
    fn transmit(
        &mut self,
        node: NodeId,
        port: usize,
        qf: QueuedFrame,
        sched: &mut Scheduler<'_, NetEvent>,
    ) {
        let now = sched.now();
        // One departure yields at most two flow-control actions, so they
        // ride inline in an `FcActions` — no scratch buffer needed.
        let mut fc = FcActions::none();
        let is_switch = match &mut self.nodes[node.0] {
            Node::Switch(sw) => {
                // Release MMU accounting (into the segment the packet was
                // admitted to) and collect PFC actions.
                if let Some(IngressTag { in_port, in_queue, region }) = qf.ingress {
                    let (port, queue) = (usize::from(in_port), usize::from(in_queue));
                    fc = sw.mmu.on_departure(port, queue, qf.bytes(), region);
                }
                true
            }
            Node::Host(_) => false,
        };
        let p = &mut self.ports[port];
        // Stamp INT telemetry at switch egress, into data frames whose
        // sender asked for it.
        if is_switch && qf.int {
            self.frames.push_hop(
                qf.frame,
                TelemetryHop {
                    qlen_bytes: p.queue_bytes(qf.class),
                    tx_bytes: p.tx_bytes(),
                    timestamp: now,
                    bandwidth: p.bandwidth(),
                },
            );
        }
        let bytes = qf.bytes();
        let txd = p.tx_delay(bytes);
        // The frame's end takes the calendar place a `TxDone` pushed now
        // would take, ahead of the arrival it precedes.
        p.start_tx(now + txd, sched.reserve_seq());
        p.note_tx(bytes);
        let (peer, peer_port) = (p.peer.0 as u32, p.peer_port as u32);
        sched.at(
            now + txd + p.prop_delay,
            NetEvent::Arrive { node: peer, in_port: peer_port, frame: qf.frame },
        );
        self.book_wake(node, port, sched);
        if !fc.is_empty() {
            self.drain_fc(node, fc, sched);
        }
    }

    /// Pushes the `TxDone` that ends the frame on `(node, port)`'s wire
    /// into its reserved calendar place, once a wake-up is owed and not yet
    /// booked. A wake-up is owed while a frame waits in any lane of the
    /// port or, on a host, while a flow is active: the host's `TxDone`
    /// refills the NIC queue and books the pacing wake-ups. Without one the
    /// `TxDone` would find nothing to do, so it never reaches the calendar.
    fn book_wake(&mut self, node: NodeId, port: usize, sched: &mut Scheduler<'_, NetEvent>) {
        let owed = match &self.nodes[node.0] {
            Node::Switch(_) => false,
            Node::Host(h) => !h.active.is_empty(),
        };
        let p = &mut self.ports[port];
        if !(owed || p.has_waiting()) {
            return;
        }
        if let Some((at, seq)) = p.book_wake() {
            sched.push_reserved(
                at,
                seq,
                NetEvent::TxDone { node: node.0 as u32, port: port as u32 },
            );
        }
    }

    /// Stores a frame a node originates in the arena and returns its queue
    /// entry.
    pub(crate) fn alloc_queued(&mut self, frame: Frame) -> QueuedFrame {
        QueuedFrame::new(self.frames.alloc(frame), &frame, None)
    }

    pub(crate) fn handle_tx_done(
        &mut self,
        node: NodeId,
        port: usize,
        sched: &mut Scheduler<'_, NetEvent>,
    ) {
        self.ports[port].on_wake();
        if self.is_host(node) {
            // Refill the NIC queue from flow state, then transmit.
            self.host_try_send(node, sched);
        } else {
            self.try_transmit(node, port, sched);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{NetParams, NetworkBuilder};
    use crate::ids::FlowId;
    use crate::network::FlowSpec;
    use dsh_core::Scheme;
    use dsh_simcore::{Bandwidth, Delta, Model, Time};
    use dsh_transport::CcKind;

    /// A linear chain of `depth` switches between two hosts.
    fn switch_chain(depth: usize) -> NetworkBuilder {
        let mut b = NetworkBuilder::new(NetParams::tomahawk(Scheme::Dsh).without_ecn());
        let h0 = b.host();
        let h1 = b.host();
        let switches: Vec<NodeId> = (0..depth).map(|_| b.switch()).collect();
        b.link(h0, switches[0], Bandwidth::from_gbps(100), Delta::from_us(2));
        for w in switches.windows(2) {
            b.link(w[0], w[1], Bandwidth::from_gbps(100), Delta::from_us(2));
        }
        b.link(switches[depth - 1], h1, Bandwidth::from_gbps(100), Delta::from_us(2));
        b
    }

    /// A data frame or ACK as it reached a host.
    struct Arrival {
        id: FrameId,
        flow: FlowId,
        ack: bool,
        /// The data frame's INT request (`false` for ACKs).
        int: bool,
        hops: dsh_transport::HopList,
    }

    /// A network under watch: records, before the network handles it,
    /// every data frame and ACK that reaches a host.
    struct FrameSpy {
        net: Network,
        arrivals: Vec<Arrival>,
    }

    impl FrameSpy {
        /// The INT request and hops of `flow`'s data frames, in arrival order.
        fn data_of(&self, flow: FlowId) -> Vec<(bool, dsh_transport::HopList)> {
            let data = self.arrivals.iter().filter(|a| a.flow == flow && !a.ack);
            data.map(|a| (a.int, a.hops)).collect()
        }

        /// The hops of `flow`'s ACKs, in arrival order.
        fn acks_of(&self, flow: FlowId) -> Vec<dsh_transport::HopList> {
            self.arrivals.iter().filter(|a| a.flow == flow && a.ack).map(|a| a.hops).collect()
        }

        /// How many times an arena id that carried a frame of `from` next
        /// carried one of `to`.
        fn handoffs(&self, from: FlowId, to: FlowId) -> usize {
            let mut last = std::collections::HashMap::new();
            let mut n = 0;
            for a in &self.arrivals {
                if last.insert(a.id, a.flow) == Some(from) && a.flow == to {
                    n += 1;
                }
            }
            n
        }
    }

    impl Model for FrameSpy {
        type Event = NetEvent;

        fn handle(&mut self, event: NetEvent, sched: &mut Scheduler<'_, NetEvent>) {
            if let NetEvent::Arrive { node, frame: id, .. } = event {
                if matches!(self.net.nodes[node as usize], Node::Host(_)) {
                    let hops = dsh_transport::HopList::from_slice(self.net.frames.hops(id));
                    let (flow, ack, int) = match self.net.frames.get(id).kind {
                        FrameKind::Data(d) => (d.flow, false, d.int),
                        FrameKind::Ack(a) => (a.flow, true, false),
                        _ => unreachable!("the chain runs without ECN or loss"),
                    };
                    self.arrivals.push(Arrival { id, flow, ack, int, hops });
                }
            }
            self.net.handle(event, sched);
        }
    }

    /// One flow per `(transport, bytes, start)` in `flows`, all from host
    /// 0 to host 1 across a chain of `depth` switches, watched.
    fn spy_on_chain(flows: &[(CcKind, u64, Time)], depth: usize) -> FrameSpy {
        let mut net = switch_chain(depth).build();
        for &(cc, size, start) in flows {
            net.add_flow(FlowSpec { src: NodeId(0), dst: NodeId(1), size, class: 0, start, cc });
        }
        let mut sim = net.into_sim_as(|net| FrameSpy { net, arrivals: Vec::new() });
        sim.run_until(Time::from_ms(1));
        let spy = sim.into_model();
        assert_eq!(spy.net.fct_records().len(), flows.len(), "{flows:?} complete");
        assert_eq!(spy.net.live_frames(), 0, "every frame was freed");
        for flow in 0..flows.len() {
            assert!(!spy.data_of(FlowId(flow)).is_empty());
        }
        spy
    }

    /// Asserts that every data frame of `flow` requested INT and carries
    /// one stamp per switch of a `depth`-switch path, in path order, and
    /// that the k-th ACK (one path, FIFO queues: the answer to the k-th
    /// data frame) echoes exactly its hops.
    fn assert_int_echoed(spy: &FrameSpy, flow: FlowId, depth: usize) {
        let data = spy.data_of(flow);
        for (int, hops) in &data {
            assert!(int, "PowerTCP data requests INT");
            assert_eq!(hops.len(), depth, "one stamp per switch egress");
            assert!(hops.windows(2).all(|w| w[0].timestamp < w[1].timestamp), "path order");
        }
        let data_hops: Vec<_> = data.iter().map(|(_, hops)| *hops).collect();
        assert_eq!(spy.acks_of(flow), data_hops);
    }

    /// Asserts that no data frame or ACK of `flow` carries a hop.
    fn assert_no_hops(spy: &FrameSpy, flow: FlowId) {
        assert!(spy.data_of(flow).iter().all(|(int, hops)| !int && hops.is_empty()), "data");
        assert!(spy.acks_of(flow).iter().all(|hops| hops.is_empty()), "ACKs");
    }

    #[test]
    fn frames_of_transports_that_ignore_int_carry_no_hops() {
        for cc in [CcKind::Dcqcn, CcKind::Uncontrolled] {
            assert_no_hops(&spy_on_chain(&[(cc, 30_000, Time::ZERO)], 3), FlowId(0));
        }
    }

    #[test]
    fn powertcp_acks_echo_every_hop_in_path_order() {
        // Five switches: the chain of the engine bench's PowerTCP probe.
        let spy = spy_on_chain(&[(CcKind::PowerTcp, 30_000, Time::ZERO)], 5);
        assert_int_echoed(&spy, FlowId(0), 5);
    }

    #[test]
    fn int_and_plain_frames_share_arena_ids_without_sharing_hops() {
        // Both flows on one class of one path. The second starts once the
        // first one's ACKs free arena ids (one round trip is 24 us) and
        // takes them over: from INT frames to plain ones, then the other
        // way round.
        for (int_start, plain_start) in [(0, 30), (30, 0)] {
            let flows = [
                (CcKind::PowerTcp, 300_000, Time::from_us(int_start)),
                (CcKind::Dcqcn, 300_000, Time::from_us(plain_start)),
            ];
            let spy = spy_on_chain(&flows, 5);
            assert_int_echoed(&spy, FlowId(0), 5);
            assert_no_hops(&spy, FlowId(1));
            let (first, second) =
                if int_start == 0 { (FlowId(0), FlowId(1)) } else { (FlowId(1), FlowId(0)) };
            assert!(spy.handoffs(first, second) > 0, "{flows:?}: no id changed hands");
        }
    }

    #[test]
    fn build_accepts_a_path_at_the_hop_capacity() {
        let _ = switch_chain(dsh_transport::HOP_CAPACITY).build();
    }

    #[test]
    #[should_panic(expected = "HOP_CAPACITY")]
    fn build_rejects_a_path_deeper_than_the_hop_capacity() {
        let _ = switch_chain(dsh_transport::HOP_CAPACITY + 1).build();
    }
}
