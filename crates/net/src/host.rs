//! Host node: a NIC with per-flow (queue-pair) send state driven by a
//! congestion-control transport, plus receiver-side ACK/CNP generation.

use crate::ids::{FlowId, NodeId};
use crate::port::EgressPort;
use dsh_simcore::Time;
use dsh_transport::{AnyCc, CnpPolicy, GoBackN, SackBuffer, SackState};

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
    /// The single uplink (port 0).
    pub port: Option<EgressPort>,
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
    /// Creates a host with no uplink yet (the builder attaches it).
    #[must_use]
    pub fn new(id: NodeId) -> Self {
        HostNode {
            id,
            port: None,
            tx_flows: Vec::new(),
            sourced: 0,
            active: Vec::new(),
            rr_cursor: 0,
            wake_at: Time::MAX,
        }
    }

    /// The uplink port.
    ///
    /// # Panics
    ///
    /// Panics if the host was never linked into the topology.
    #[must_use]
    pub fn uplink(&self) -> &EgressPort {
        self.port
            .as_ref()
            .unwrap_or_else(|| panic!("host {} has no uplink; call NetworkBuilder::link", self.id))
    }

    /// Mutable access to the uplink port.
    ///
    /// # Panics
    ///
    /// Panics if the host was never linked into the topology.
    pub fn uplink_mut(&mut self) -> &mut EgressPort {
        self.port.as_mut().expect("host has no uplink; call NetworkBuilder::link")
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsh_simcore::{Bandwidth, Delta};
    use dsh_transport::{RecoveryConfig, Uncontrolled};

    fn flow(id: usize) -> SenderFlow {
        SenderFlow {
            id: FlowId(id),
            dst: NodeId(9),
            class: 0,
            size: 10_000,
            sent: 0,
            acked: 0,
            next_send: Time::ZERO,
            cc: AnyCc::Uncontrolled(Uncontrolled::new(Bandwidth::from_gbps(100))),
            timer_gen: 0,
            timer_at: Time::MAX,
            timer_due: (Time::MAX, 0),
            recovery: GoBackN::new(RecoveryConfig::for_rtt(Delta::from_us(16))),
            rto_gen: 0,
            rto_deadline: Time::MAX,
            rto_armed: false,
            max_sent: 0,
            sack: SackState::new(),
            rtt_probe: None,
        }
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
        let mut h = HostNode::new(NodeId(0));
        h.sourced = 3;
        assert_eq!(h.add_sender(flow(5)), 0);
        assert_eq!(h.add_sender(flow(9)), 1);
        assert_eq!(h.tx_flows[1].id, FlowId(9));
        assert_eq!(h.active, [0, 1]);
        assert_eq!(h.tx_flows.capacity(), 3, "sized to the flows it sources");
    }

    #[test]
    #[should_panic(expected = "no uplink")]
    fn unlinked_host_panics() {
        let h = HostNode::new(NodeId(0));
        let _ = h.uplink();
    }
}
