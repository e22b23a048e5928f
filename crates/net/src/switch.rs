//! Switch node: egress ports, shared-buffer MMU and routing table.

use crate::frame::{Frame, PfcScope};
use crate::ids::NodeId;
use crate::port::EgressPort;
use crate::routing::RouteTable;
use dsh_core::{FcAction, Mmu};

/// A store-and-forward switch with ingress MMU accounting.
#[derive(Debug)]
pub struct SwitchNode {
    /// This node's id.
    pub id: NodeId,
    /// Egress ports (index = port number; the ingress side of port *i* is
    /// the link from `ports[i].peer`).
    pub ports: Vec<EgressPort>,
    /// The lossless-pool MMU (SIH or DSH).
    pub mmu: Mmu,
    /// ECMP candidates toward every destination node.
    pub routes: RouteTable,
}

impl SwitchNode {
    /// Translates an MMU flow-control action into the PFC frame to send
    /// and the egress port (toward the upstream device) to send it on.
    #[must_use]
    pub fn fc_frame(action: FcAction) -> (usize, Frame) {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameKind;
    use crate::ids::CONTROL_CLASS;

    #[test]
    fn fc_frames_map_actions() {
        let (p, f) = SwitchNode::fc_frame(FcAction::QueuePause { port: 3, queue: 2 });
        assert_eq!(p, 3);
        assert_eq!(f.class, CONTROL_CLASS);
        match f.kind {
            FrameKind::Pfc(pfc) => {
                assert_eq!(pfc.scope, PfcScope::Queue(2));
                assert!(pfc.pause);
            }
            _ => panic!("not a PFC frame"),
        }

        let (p, f) = SwitchNode::fc_frame(FcAction::PortResume { port: 1 });
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
