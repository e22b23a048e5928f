//! Deterministic runtime fault injection: link flaps and frame corruption.
//!
//! A [`FaultPlan`] is a seedable, pre-declared schedule of link failures and
//! repairs plus optional probabilistic per-link frame corruption. The plan is
//! installed on a [`Network`](crate::Network) *before* `into_sim`; every
//! entry becomes an ordinary calendar event, so fault runs stay bit-identical
//! at any thread count (the parallel executor replays the same calendar).
//!
//! Corruption draws come from per-directed-link RNG streams derived with
//! `split_seed` from the plan seed, so adding a corrupted link never perturbs
//! the draws of another link.
//!
//! Only *data* frames are ever corrupted: PFC PAUSE/RESUME frames are
//! link-local control traffic whose loss the protocol cannot recover from (a
//! lost RESUME wedges the peer forever), and real fabrics protect them with
//! the same CRC-based retransmit-free guarantees we model for loss-free
//! links. End-to-end robustness against *link death* — which does kill PFC
//! frames in flight — is what the pause-ledger force-clear on `LinkDown`
//! handles.

use crate::ids::NodeId;
use dsh_simcore::Time;

/// What one scheduled fault event does to the fabric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Both directions of the `a`–`b` link go dark: queued and in-flight
    /// frames are lost, PFC pause state on the attached ports is
    /// force-cleared, and routes are recomputed around the failure.
    LinkDown {
        /// One endpoint of the link.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// The `a`–`b` link comes back: routes are recomputed to use it again
    /// and both endpoints are kicked to resume transmission.
    LinkUp {
        /// One endpoint of the link.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
}

/// One scheduled fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Absolute simulation time at which the fault takes effect.
    pub at: Time,
    /// What happens.
    pub kind: FaultKind,
}

/// Probabilistic per-frame corruption on both directions of one link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkCorruption {
    /// One endpoint of the link.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Per-data-frame corruption probability in `[0, 1]`.
    pub probability: f64,
}

/// A deterministic, seedable schedule of runtime faults.
///
/// ```
/// use dsh_net::{FaultPlan, NodeId};
/// use dsh_simcore::Time;
///
/// let plan = FaultPlan::new(42)
///     .flap(NodeId(4), NodeId(6), Time::from_us(100), Time::from_us(300))
///     .corrupt_link(NodeId(0), NodeId(4), 1e-3);
/// assert_eq!(plan.events().len(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    events: Vec<FaultEvent>,
    corruption: Vec<LinkCorruption>,
}

impl FaultPlan {
    /// Creates an empty plan whose corruption streams derive from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, events: Vec::new(), corruption: Vec::new() }
    }

    /// Schedules both directions of the `a`–`b` link to fail at `at`.
    #[must_use]
    pub fn link_down(mut self, at: Time, a: NodeId, b: NodeId) -> Self {
        self.events.push(FaultEvent { at, kind: FaultKind::LinkDown { a, b } });
        self
    }

    /// Schedules both directions of the `a`–`b` link to recover at `at`.
    #[must_use]
    pub fn link_up(mut self, at: Time, a: NodeId, b: NodeId) -> Self {
        self.events.push(FaultEvent { at, kind: FaultKind::LinkUp { a, b } });
        self
    }

    /// Convenience: one full down-then-up flap of the `a`–`b` link.
    ///
    /// # Panics
    /// Panics if `up_at <= down_at`.
    #[must_use]
    pub fn flap(self, a: NodeId, b: NodeId, down_at: Time, up_at: Time) -> Self {
        assert!(up_at > down_at, "flap must come back up after it goes down");
        self.link_down(down_at, a, b).link_up(up_at, a, b)
    }

    /// Corrupts each data frame on either direction of `a`–`b` with the
    /// given probability, from the plan's dedicated RNG stream.
    ///
    /// # Panics
    /// Panics if `probability` is outside `[0, 1]`.
    #[must_use]
    pub fn corrupt_link(mut self, a: NodeId, b: NodeId, probability: f64) -> Self {
        assert!((0.0..=1.0).contains(&probability), "probability must be in [0, 1]");
        self.corruption.push(LinkCorruption { a, b, probability });
        self
    }

    /// The seed the corruption RNG streams derive from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled link events, in insertion order (ties on the calendar
    /// resolve in this order).
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The configured corruption entries.
    #[must_use]
    pub fn corruption(&self) -> &[LinkCorruption] {
        &self.corruption
    }

    /// True when the plan schedules nothing and corrupts nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.corruption.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_records_events_in_order() {
        let plan = FaultPlan::new(7).link_down(Time::from_us(10), NodeId(1), NodeId(2)).link_up(
            Time::from_us(20),
            NodeId(1),
            NodeId(2),
        );
        assert_eq!(plan.seed(), 7);
        assert_eq!(plan.events().len(), 2);
        assert_eq!(plan.events()[0].kind, FaultKind::LinkDown { a: NodeId(1), b: NodeId(2) });
        assert_eq!(plan.events()[1].at, Time::from_us(20));
        assert!(!plan.is_empty());
    }

    #[test]
    fn flap_expands_to_down_then_up() {
        let plan = FaultPlan::new(0).flap(NodeId(3), NodeId(4), Time::from_us(5), Time::from_us(9));
        assert_eq!(plan.events().len(), 2);
        assert!(matches!(plan.events()[0].kind, FaultKind::LinkDown { .. }));
        assert!(matches!(plan.events()[1].kind, FaultKind::LinkUp { .. }));
    }

    #[test]
    #[should_panic(expected = "back up after")]
    fn flap_rejects_inverted_interval() {
        let _ = FaultPlan::new(0).flap(NodeId(0), NodeId(1), Time::from_us(9), Time::from_us(5));
    }

    #[test]
    fn corruption_probability_is_validated() {
        let plan = FaultPlan::new(1).corrupt_link(NodeId(0), NodeId(1), 0.5);
        assert_eq!(plan.corruption().len(), 1);
        assert!(!plan.is_empty());
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn corruption_rejects_out_of_range() {
        let _ = FaultPlan::new(1).corrupt_link(NodeId(0), NodeId(1), 1.5);
    }

    #[test]
    fn empty_plan_reports_empty() {
        assert!(FaultPlan::new(9).is_empty());
    }
}
