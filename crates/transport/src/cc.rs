//! The congestion-control abstraction shared by all transports.

use crate::telemetry::TelemetryHop;
use crate::{Dcqcn, PowerTcp};
use dsh_simcore::{Bandwidth, Time};
use std::fmt;

/// Which transport a flow uses.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CcKind {
    /// No end-to-end control: send at line rate (microbenchmarks, and the
    /// paper's sub-BDP fan-in bursts).
    Uncontrolled,
    /// DCQCN (SIGCOMM 2015).
    Dcqcn,
    /// PowerTCP (NSDI 2022).
    PowerTcp,
}

impl CcKind {
    /// Whether the transport reads in-band telemetry. A sender asks the
    /// switches on its path to stamp INT hops exactly when this holds, so
    /// the frames of every other transport cross the fabric unstamped.
    #[must_use]
    pub fn reads_int(self) -> bool {
        matches!(self, CcKind::PowerTcp)
    }
}

impl fmt::Display for CcKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CcKind::Uncontrolled => "w/o CC",
            CcKind::Dcqcn => "DCQCN",
            CcKind::PowerTcp => "PowerTCP",
        })
    }
}

/// Feedback delivered to the sender by one ACK.
#[derive(Clone, Debug)]
pub struct AckInfo<'a> {
    /// Newly acknowledged payload bytes.
    pub acked_bytes: u64,
    /// Whether the acked data packet carried an ECN CE mark (echoed).
    pub ecn_echo: bool,
    /// Per-hop INT telemetry collected by the data packet (PowerTCP).
    /// Empty when the feedback carried no telemetry — NACK-borne
    /// cumulative progress, for one. INT-driven transports must treat an
    /// empty list as *no path information*, never as an uncongested
    /// path: NACKs cluster in exactly the congested episodes where
    /// mistaking "no INT" for "idle fabric" would open the window.
    pub hops: &'a [TelemetryHop],
}

/// A per-flow congestion-control state machine.
///
/// The NIC calls the `on_*` notifications and polls [`Cc::rate`] /
/// [`Cc::cwnd_bytes`] before each transmission; [`Cc::next_timer`] lets the
/// NIC schedule the transport's internal timers (DCQCN's α-decay and
/// rate-increase timers) in the simulator's calendar.
pub trait Cc: fmt::Debug + Send {
    /// Called when an ACK arrives.
    fn on_ack(&mut self, now: Time, info: &AckInfo<'_>);

    /// Called when a Congestion Notification Packet arrives (DCQCN).
    fn on_cnp(&mut self, now: Time);

    /// Called when the NIC detects a loss (go-back-N RTO fired) and is
    /// about to retransmit. Transports should back off: lost frames mean
    /// either a dead link or severe congestion, and hammering the rewound
    /// window at full rate would re-lose the retransmission. Default:
    /// no-op (uncontrolled senders rely on the RTO backoff alone).
    fn on_loss(&mut self, now: Time) {
        let _ = now;
    }

    /// Called when the NIC hands `bytes` of this flow to the wire.
    fn on_sent(&mut self, now: Time, bytes: u64);

    /// Current pacing rate.
    fn rate(&self) -> Bandwidth;

    /// Current congestion window in bytes (`u64::MAX` for purely
    /// rate-based transports).
    fn cwnd_bytes(&self) -> u64;

    /// The next instant at which [`Cc::on_timer`] must run, if any.
    fn next_timer(&self) -> Option<Time>;

    /// Runs timer work due at `now`.
    fn on_timer(&mut self, now: Time);
}

/// Line-rate sender with no feedback control.
#[derive(Clone, Debug)]
pub struct Uncontrolled {
    link: Bandwidth,
}

impl Uncontrolled {
    /// Creates an uncontrolled sender for a given link speed.
    #[must_use]
    pub fn new(link: Bandwidth) -> Self {
        Uncontrolled { link }
    }
}

impl Cc for Uncontrolled {
    fn on_ack(&mut self, _now: Time, _info: &AckInfo<'_>) {}
    fn on_cnp(&mut self, _now: Time) {}
    fn on_sent(&mut self, _now: Time, _bytes: u64) {}

    fn rate(&self) -> Bandwidth {
        self.link
    }

    fn cwnd_bytes(&self) -> u64 {
        u64::MAX
    }

    fn next_timer(&self) -> Option<Time> {
        None
    }

    fn on_timer(&mut self, _now: Time) {}
}

/// One flow's transport, whichever [`CcKind`] it is.
///
/// Held inline in the NIC's per-flow state, so every per-packet call is a
/// static `match` instead of a virtual call through a per-flow box. Each
/// variant implements [`Cc`]; this enum forwards to it.
#[derive(Clone, Debug)]
pub enum AnyCc {
    /// Line-rate sender.
    Uncontrolled(Uncontrolled),
    /// DCQCN.
    Dcqcn(Dcqcn),
    /// PowerTCP.
    PowerTcp(PowerTcp),
}

impl AnyCc {
    /// The transport's kind.
    #[must_use]
    pub fn kind(&self) -> CcKind {
        match self {
            AnyCc::Uncontrolled(_) => CcKind::Uncontrolled,
            AnyCc::Dcqcn(_) => CcKind::Dcqcn,
            AnyCc::PowerTcp(_) => CcKind::PowerTcp,
        }
    }
}

/// Forwards one [`Cc`] method to the variant.
macro_rules! dispatch {
    ($self:ident, $cc:ident => $call:expr) => {
        match $self {
            AnyCc::Uncontrolled($cc) => $call,
            AnyCc::Dcqcn($cc) => $call,
            AnyCc::PowerTcp($cc) => $call,
        }
    };
}

impl Cc for AnyCc {
    #[inline]
    fn on_ack(&mut self, now: Time, info: &AckInfo<'_>) {
        dispatch!(self, cc => cc.on_ack(now, info));
    }

    #[inline]
    fn on_cnp(&mut self, now: Time) {
        dispatch!(self, cc => cc.on_cnp(now));
    }

    #[inline]
    fn on_loss(&mut self, now: Time) {
        dispatch!(self, cc => cc.on_loss(now));
    }

    #[inline]
    fn on_sent(&mut self, now: Time, bytes: u64) {
        dispatch!(self, cc => cc.on_sent(now, bytes));
    }

    #[inline]
    fn rate(&self) -> Bandwidth {
        dispatch!(self, cc => cc.rate())
    }

    #[inline]
    fn cwnd_bytes(&self) -> u64 {
        dispatch!(self, cc => cc.cwnd_bytes())
    }

    #[inline]
    fn next_timer(&self) -> Option<Time> {
        dispatch!(self, cc => cc.next_timer())
    }

    #[inline]
    fn on_timer(&mut self, now: Time) {
        dispatch!(self, cc => cc.on_timer(now));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontrolled_never_slows_down() {
        let mut cc = Uncontrolled::new(Bandwidth::from_gbps(100));
        cc.on_cnp(Time::from_us(1));
        cc.on_ack(Time::from_us(2), &AckInfo { acked_bytes: 1500, ecn_echo: true, hops: &[] });
        assert_eq!(cc.rate(), Bandwidth::from_gbps(100));
        assert_eq!(cc.cwnd_bytes(), u64::MAX);
        assert_eq!(cc.next_timer(), None);
    }

    #[test]
    fn any_cc_forwards_to_its_transport() {
        use crate::new_cc;
        use dsh_simcore::Delta;
        let link = Bandwidth::from_gbps(100);
        for kind in [CcKind::Uncontrolled, CcKind::Dcqcn, CcKind::PowerTcp] {
            let mut cc = new_cc(kind, link, Delta::from_us(8));
            assert_eq!(cc.kind(), kind);
            assert_eq!(cc.rate(), link, "{kind} starts at line rate");
            cc.on_cnp(Time::from_us(1));
            let cut = cc.rate() < link;
            assert_eq!(cut, kind == CcKind::Dcqcn, "only DCQCN reacts to a CNP");
        }
        assert!(CcKind::PowerTcp.reads_int());
        assert!(!CcKind::Dcqcn.reads_int());
        assert!(!CcKind::Uncontrolled.reads_int());
    }

    #[test]
    fn kind_display() {
        assert_eq!(CcKind::Dcqcn.to_string(), "DCQCN");
        assert_eq!(CcKind::PowerTcp.to_string(), "PowerTCP");
        assert_eq!(CcKind::Uncontrolled.to_string(), "w/o CC");
    }
}
