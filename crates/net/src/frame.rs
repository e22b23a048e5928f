//! Wire frames: data packets, ACKs, NACKs, CNPs and PFC control frames.

use crate::arena::NO_HOPS;
use crate::ids::{FlowId, NodeId, CONTROL_CLASS};

/// Wire size of an ACK/CNP/PFC control frame (minimum Ethernet frame).
pub const CONTROL_FRAME_BYTES: u64 = 64;

/// MTU: payload bytes per data frame (paper §V-A: 1500 B). Hosts cut
/// flows into segments of this size, and each port's headroom `η`
/// budgets two of them (Eq. 1).
pub(crate) const MTU: u64 = 1500;

/// A data segment of a flow.
#[derive(Clone, Copy, Debug)]
pub struct DataFrame {
    /// The flow this segment belongs to.
    pub flow: FlowId,
    /// Source host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Byte offset of this segment within the flow.
    pub seq: u64,
    /// Payload bytes carried.
    pub payload: u64,
    /// ECN Congestion Experienced mark.
    pub ecn: bool,
    /// INT request: switch egresses stamp a hop record only into frames
    /// that carry it (into the frame's slot of the arena's hop slab). The sender sets it exactly when the
    /// flow's transport reads INT (PowerTCP).
    pub int: bool,
}

/// An acknowledgment for one data segment, echoing ECN; the data frame's
/// INT hop slot rides along with the frame.
#[derive(Clone, Copy, Debug)]
pub struct AckFrame {
    /// The acknowledged flow.
    pub flow: FlowId,
    /// Destination of the ACK (the flow's source host).
    pub dst: NodeId,
    /// Payload bytes acknowledged by this ACK.
    pub acked: u64,
    /// Echo of the data packet's ECN mark.
    pub ecn_echo: bool,
}

/// A selective-repeat NACK: the receiver's cumulative in-order mark plus
/// its out-of-order delivery bitmap, sent on every out-of-order data
/// arrival when the recovery regime is
/// [`SelectiveRepeat`](dsh_transport::Regime::SelectiveRepeat).
///
/// Bit `k` of `bitmap` set ⇔ the segment starting at
/// `expected + (k+1)·mtu` is already buffered at the receiver; the
/// segment at `expected` itself is missing by definition. The sender's
/// [`SackState`](dsh_transport::SackState) consumes the bitmap verbatim.
#[derive(Clone, Copy, Debug)]
pub struct NackFrame {
    /// The flow with a sequence gap.
    pub flow: FlowId,
    /// Destination of the NACK (the flow's source host).
    pub dst: NodeId,
    /// The receiver's cumulative in-order byte mark (doubles as an ACK).
    pub expected: u64,
    /// Out-of-order delivery bitmap over MTU-strided segments.
    pub bitmap: u64,
    /// Echo of the triggering data packet's ECN mark.
    pub ecn_echo: bool,
}

/// Scope of a PFC pause/resume.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PfcScope {
    /// One priority class (standard PFC).
    Queue(u8),
    /// All classes at once (a PFC frame with every priority timer set —
    /// DSH's port-level flow control).
    Port,
}

/// A PFC PAUSE (or zero-duration RESUME) frame.
#[derive(Clone, Copy, Debug)]
pub struct PfcFrame {
    /// Which traffic the frame pauses/resumes.
    pub scope: PfcScope,
    /// `true` = PAUSE, `false` = RESUME.
    pub pause: bool,
}

/// Frame payload variants.
#[derive(Clone, Copy, Debug)]
pub enum FrameKind {
    /// Flow data.
    Data(DataFrame),
    /// Acknowledgment.
    Ack(AckFrame),
    /// Selective-repeat NACK (out-of-order arrival report), addressed to
    /// the flow's source.
    Nack(NackFrame),
    /// Congestion Notification Packet (DCQCN), addressed to the flow's
    /// source.
    Cnp {
        /// The congested flow.
        flow: FlowId,
        /// The flow's source host.
        dst: NodeId,
    },
    /// Link-local PFC control frame (never forwarded).
    Pfc(PfcFrame),
}

/// A frame on the wire: its header and payload, at most 72 bytes.
///
/// Frames live in the network's frame arena and travel as a
/// [`FrameId`](crate::FrameId) in calendar events and port queues. INT hop
/// records are not part of the frame: a frame that requested INT
/// ([`DataFrame::int`]) holds a handle to a slot of the arena's hop slab,
/// which its ACK keeps when the receiver rewrites the data frame in place.
#[derive(Clone, Copy, Debug)]
pub struct Frame {
    /// Wire size in bytes (serialization time = `bytes / C`).
    pub bytes: u64,
    /// Priority class, i.e. which egress queue carries it.
    pub class: u8,
    /// The payload.
    pub kind: FrameKind,
    /// The frame's slot in the arena's hop slab, or `NO_HOPS`; set only
    /// by the arena.
    pub(crate) hops: u32,
}

impl Frame {
    /// Builds a frame with no INT hops.
    #[must_use]
    pub const fn new(bytes: u64, class: u8, kind: FrameKind) -> Frame {
        Frame { bytes, class, kind, hops: NO_HOPS }
    }

    /// Turns a received data frame into its ACK in place: only the
    /// header is rewritten, so the hop slot the data frame filled echoes
    /// its stamps in path order without a copy.
    pub fn echo_as_ack(&mut self, a: AckFrame) {
        self.bytes = CONTROL_FRAME_BYTES;
        self.class = CONTROL_CLASS;
        self.kind = FrameKind::Ack(a);
    }

    /// Whether this is a data frame whose sender asked the switches for
    /// INT stamps.
    #[must_use]
    pub fn requests_int(&self) -> bool {
        matches!(self.kind, FrameKind::Data(DataFrame { int: true, .. }))
    }

    /// Builds a data frame in the given class.
    #[must_use]
    pub fn data(d: DataFrame, class: u8) -> Frame {
        Frame::new(d.payload, class, FrameKind::Data(d))
    }

    /// Builds an ACK control frame.
    #[must_use]
    pub fn ack(a: AckFrame) -> Frame {
        Frame::new(CONTROL_FRAME_BYTES, CONTROL_CLASS, FrameKind::Ack(a))
    }

    /// Builds a NACK control frame (rides the control class like ACKs, so
    /// it is never blocked by data-class PFC).
    #[must_use]
    pub fn nack(n: NackFrame) -> Frame {
        Frame::new(CONTROL_FRAME_BYTES, CONTROL_CLASS, FrameKind::Nack(n))
    }

    /// Builds a CNP control frame.
    #[must_use]
    pub fn cnp(flow: FlowId, dst: NodeId) -> Frame {
        Frame::new(CONTROL_FRAME_BYTES, CONTROL_CLASS, FrameKind::Cnp { flow, dst })
    }

    /// Builds a PFC control frame.
    #[must_use]
    pub fn pfc(scope: PfcScope, pause: bool) -> Frame {
        Frame::new(CONTROL_FRAME_BYTES, CONTROL_CLASS, FrameKind::Pfc(PfcFrame { scope, pause }))
    }

    /// Routing destination, if the frame is forwardable (PFC frames are
    /// link-local).
    #[must_use]
    pub fn dst(&self) -> Option<NodeId> {
        match &self.kind {
            FrameKind::Data(d) => Some(d.dst),
            FrameKind::Ack(a) => Some(a.dst),
            FrameKind::Nack(n) => Some(n.dst),
            FrameKind::Cnp { dst, .. } => Some(*dst),
            FrameKind::Pfc(_) => None,
        }
    }

    /// The flow the frame belongs to, if it is forwardable (PFC frames
    /// are link-local and belong to none).
    #[must_use]
    pub fn flow(&self) -> Option<FlowId> {
        match &self.kind {
            FrameKind::Data(d) => Some(d.flow),
            FrameKind::Ack(a) => Some(a.flow),
            FrameKind::Nack(n) => Some(n.flow),
            FrameKind::Cnp { flow, .. } => Some(*flow),
            FrameKind::Pfc(_) => None,
        }
    }

    /// Whether this is a data frame (subject to MMU admission and PFC).
    #[must_use]
    pub fn is_data(&self) -> bool {
        matches!(self.kind, FrameKind::Data(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_class_and_size() {
        let d = Frame::data(
            DataFrame {
                flow: FlowId(1),
                src: NodeId(0),
                dst: NodeId(2),
                seq: 0,
                payload: 1500,
                ecn: false,
                int: false,
            },
            3,
        );
        assert_eq!(d.bytes, 1500);
        assert_eq!(d.class, 3);
        assert!(d.is_data());
        assert_eq!(d.dst(), Some(NodeId(2)));

        let a =
            Frame::ack(AckFrame { flow: FlowId(1), dst: NodeId(0), acked: 1500, ecn_echo: true });
        assert_eq!(a.bytes, CONTROL_FRAME_BYTES);
        assert_eq!(a.class, CONTROL_CLASS);
        assert_eq!(a.dst(), Some(NodeId(0)));

        let p = Frame::pfc(PfcScope::Port, true);
        assert_eq!(p.dst(), None);
        assert!(!p.is_data());

        let n = Frame::nack(NackFrame {
            flow: FlowId(1),
            dst: NodeId(0),
            expected: 3000,
            bitmap: 0b101,
            ecn_echo: false,
        });
        assert_eq!(n.bytes, CONTROL_FRAME_BYTES);
        assert_eq!(n.class, CONTROL_CLASS);
        assert_eq!(n.dst(), Some(NodeId(0)));
        assert!(!n.is_data());
    }
}
