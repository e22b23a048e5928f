//! Flow control: the glue between each switch's MMU and the PFC frames
//! on the wire. The MMU decides *when* to pause and resume (`dsh-core`);
//! this layer turns its actions into PFC frames toward the upstream,
//! receives PFC frames at either kind of node, applies them after the
//! standard processing delay, and releases the MMU accounting of frames
//! the PFC watchdog flushes.
//!
//! It calls into the dataplane to send PFC frames (`try_transmit`) and
//! into the NIC to resume a host's sending (`host_try_send`).

use crate::arena::FrameId;
use crate::frame::{Frame, PfcFrame, PfcScope};
use crate::ids::NodeId;
use crate::network::{port_of, NetEvent, Network};
use crate::observe::PORT_SCOPE_CLASS;
use crate::port::{IngressTag, QueuedFrame};
use dsh_core::headroom::PFC_PROCESSING_BYTES;
use dsh_core::FcAction;
use dsh_simcore::trace::TraceEvent;
use dsh_simcore::{trace_event, Scheduler, Time};

/// Translates an MMU flow-control action into the PFC frame to send and
/// the egress port (toward the upstream device) to send it on.
fn pfc_frame(action: FcAction) -> (usize, Frame) {
    match action {
        FcAction::QueuePause { port, queue } => {
            (port, Frame::pfc(PfcScope::Queue(queue as u8), true))
        }
        FcAction::QueueResume { port, queue } => {
            (port, Frame::pfc(PfcScope::Queue(queue as u8), false))
        }
        FcAction::PortPause { port } => (port, Frame::pfc(PfcScope::Port, true)),
        FcAction::PortResume { port } => (port, Frame::pfc(PfcScope::Port, false)),
    }
}

impl Network {
    /// Materializes PFC frames for `actions`, enqueues them toward the
    /// offending upstreams, and kicks each port's serializer (a busy one
    /// books its wake-up instead).
    pub(crate) fn drain_fc(
        &mut self,
        node: NodeId,
        actions: impl IntoIterator<Item = FcAction>,
        sched: &mut Scheduler<'_, NetEvent>,
    ) {
        for a in actions {
            let (p, f) = pfc_frame(a);
            let qf = self.alloc_queued(f);
            self.port_mut(node, p).enqueue(qf);
            self.try_transmit(node, p, sched);
        }
    }

    /// Releases the MMU accounting of `frames` that a watchdog flush
    /// drained off one of `node`'s ports, frees them, then sends the PFC
    /// frames the releases owe — all collected first, then emitted in
    /// order through [`Self::drain_fc`]. `frames` comes back empty as the
    /// next flush's scratch buffer.
    pub(crate) fn release_drained(
        &mut self,
        node: NodeId,
        mut frames: Vec<QueuedFrame>,
        sched: &mut Scheduler<'_, NetEvent>,
    ) {
        let mut released = std::mem::take(&mut self.released);
        for qf in frames.drain(..) {
            if let Some(IngressTag { in_port, in_queue, region }) = qf.ingress {
                let (port, queue) = (usize::from(in_port), usize::from(in_queue));
                let mmu = &mut self.switch_mut(node).mmu;
                released.extend(mmu.on_departure(port, queue, qf.bytes(), region));
            }
            self.frames.free(qf.frame);
        }
        self.drain_fc(node, released.drain(..), sched);
        self.drained = frames;
        self.released = released;
    }

    /// Receives PFC frame `id` on `in_port` of `node`, switch or host.
    /// PFC frames are link-local: the frame is consumed here, and it
    /// pauses (or resumes) this node's egress side of `in_port` after the
    /// standard processing delay.
    pub(crate) fn receive_pfc(
        &mut self,
        node: NodeId,
        in_port: usize,
        id: FrameId,
        pfc: PfcFrame,
        sched: &mut Scheduler<'_, NetEvent>,
    ) {
        let delay = self.port_mut(node, in_port).bandwidth().tx_delay(PFC_PROCESSING_BYTES);
        sched.at(
            sched.now() + delay,
            NetEvent::ApplyPause {
                node: node.0 as u32,
                port: in_port as u32,
                scope: pfc.scope,
                pause: pfc.pause,
            },
        );
        self.frames.free(id);
    }

    pub(crate) fn handle_apply_pause(
        &mut self,
        node: NodeId,
        port: usize,
        scope: PfcScope,
        pause: bool,
        sched: &mut Scheduler<'_, NetEvent>,
    ) {
        let now = sched.now();
        let (peer, peer_port, was, is) = {
            let p = port_of(&mut self.nodes, node, port);
            let was = p.pause_asserted();
            p.apply_pause(scope, pause, now, &mut self.pauses);
            (p.peer, p.peer_port, was, p.pause_asserted())
        };
        self.count_paused_port(was, is);
        let up_is_host = self.is_host(node);
        // The cascade edge and the trace record both name a port-scope
        // pause by `PORT_SCOPE_CLASS` (`u8::MAX`).
        let class = match scope {
            PfcScope::Queue(c) => c,
            PfcScope::Port => PORT_SCOPE_CLASS,
        };
        // Pause-causality hook: links are full-duplex port pairs, so the
        // congested downstream that requested this pause is statically
        // the peer endpoint. One branch when the observatory is off.
        if let Some(obs) = self.observe.as_deref_mut() {
            if pause {
                obs.cascade.on_pause(node, port, class, peer, peer_port, up_is_host, now);
            } else {
                obs.cascade.on_resume(node, port, class, now);
            }
        }
        let kind = match (scope, pause) {
            (PfcScope::Queue(_), true) => TraceEvent::PfcPause,
            (PfcScope::Queue(_), false) => TraceEvent::PfcResume,
            (PfcScope::Port, true) => TraceEvent::PfcPortPause,
            (PfcScope::Port, false) => TraceEvent::PfcPortResume,
        };
        trace_event!(self.tracer, kind, { node: node.0 as u32, port: port as u16, class: class });
        if !pause {
            // Resumed: traffic may flow again.
            if up_is_host {
                self.host_try_send(node, sched);
            } else {
                self.try_transmit(node, port, sched);
            }
        }
    }

    /// The PFC watchdog's flush of `class` on egress `port` of switch
    /// `node`: force-clears the class pause and any port-scope pause,
    /// drops the class's queued frames (releasing their MMU accounting
    /// and forwarding any resumes that releases), ends the matching
    /// cascade edges and lets the port transmit again.
    pub(crate) fn flush_paused_class(
        &mut self,
        node: NodeId,
        port: usize,
        class: u8,
        now: Time,
        sched: &mut Scheduler<'_, NetEvent>,
    ) {
        let mut flushed = std::mem::take(&mut self.drained);
        let (was, is) = {
            let p = port_of(&mut self.nodes, node, port);
            let was = p.pause_asserted();
            p.watchdog_flush_class(class, now, &mut flushed, &mut self.pauses);
            (was, p.pause_asserted())
        };
        self.count_paused_port(was, is);
        if let Some(obs) = self.observe.as_deref_mut() {
            obs.cascade.on_resume(node, port, class, now);
            obs.cascade.on_resume(node, port, PORT_SCOPE_CLASS, now);
        }
        self.watchdog_drops += flushed.len() as u64;
        self.release_drained(node, flushed, sched);
        self.try_transmit(node, port, sched);
    }

    /// Keeps the count of egress ports with any pause asserted across one
    /// port's pause change.
    fn count_paused_port(&mut self, was: bool, is: bool) {
        self.paused_ports = self.paused_ports + u64::from(is) - u64::from(was);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameKind;
    use crate::ids::CONTROL_CLASS;

    #[test]
    fn pfc_frames_map_actions() {
        let (p, f) = pfc_frame(FcAction::QueuePause { port: 3, queue: 2 });
        assert_eq!(p, 3);
        assert_eq!(f.class, CONTROL_CLASS);
        match f.kind {
            FrameKind::Pfc(pfc) => {
                assert_eq!(pfc.scope, PfcScope::Queue(2));
                assert!(pfc.pause);
            }
            _ => panic!("not a PFC frame"),
        }

        let (p, f) = pfc_frame(FcAction::PortResume { port: 1 });
        assert_eq!(p, 1);
        match f.kind {
            FrameKind::Pfc(pfc) => {
                assert_eq!(pfc.scope, PfcScope::Port);
                assert!(!pfc.pause);
            }
            _ => panic!("not a PFC frame"),
        }
    }
}
