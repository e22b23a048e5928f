//! Outcomes of MMU admission decisions: buffer-region placement and
//! flow-control actions.

use std::fmt;

/// The buffer segment a packet was accounted in (paper Fig. 2 / Fig. 7).
///
/// The region is returned by [`crate::Mmu::on_arrival`] and must be passed
/// back to [`crate::Mmu::on_departure`] so the right counter is released —
/// this mirrors the per-packet pool tag a real MMU keeps.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Region {
    /// Per-queue reserved private buffer.
    Private,
    /// The shared pool (for DSH this includes dynamically allocated
    /// headroom, which is the point of the scheme).
    Shared,
    /// SIH only: the per-queue static headroom.
    Headroom,
    /// DSH only: the per-port insurance headroom.
    Insurance,
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Region::Private => "private",
            Region::Shared => "shared",
            Region::Headroom => "headroom",
            Region::Insurance => "insurance",
        };
        f.write_str(s)
    }
}

/// The admission rule that finally rejected a dropped packet.
///
/// This is the *decisive* rule — the last-resort segment that would have
/// absorbed the packet but could not. [`crate::Mmu::drop_attribution`]
/// additionally counts every earlier rule the packet failed on the way
/// down (private, DT threshold, pool cap, port pause).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DropReason {
    /// SIH: the queue's static headroom was full (private and shared had
    /// already rejected the packet).
    HeadroomFull,
    /// DSH: the port's insurance headroom was full.
    InsuranceFull,
    /// DSH ablation (`dsh_port_fc = false`): the shared pool rejected the
    /// packet and there is no insurance headroom to fall back on.
    InsuranceDisabled,
    /// Lossy mode: the shared pool (DT threshold or pool cap) rejected the
    /// packet and a lossy switch drops instead of pausing — this is the
    /// mode working as designed, not a losslessness violation.
    DropTail,
}

impl fmt::Display for DropReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DropReason::HeadroomFull => "headroom-full",
            DropReason::InsuranceFull => "insurance-full",
            DropReason::InsuranceDisabled => "insurance-disabled",
            DropReason::DropTail => "drop-tail",
        })
    }
}

/// A flow-control command the MMU asks the switch to execute.
///
/// Queue-level actions map to standard PFC PAUSE/RESUME frames for one
/// priority; port-level actions map to a PFC frame with *all* priority
/// timers set/unset (paper §IV-B).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FcAction {
    /// Send a PAUSE for `queue` to the device upstream of `port`.
    QueuePause {
        /// Ingress port whose upstream must pause.
        port: usize,
        /// Priority queue to pause.
        queue: usize,
    },
    /// Send a RESUME (zero-duration PAUSE) for `queue` upstream of `port`.
    QueueResume {
        /// Ingress port whose upstream may resume.
        port: usize,
        /// Priority queue to resume.
        queue: usize,
    },
    /// Pause **all** traffic classes upstream of `port` (DSH port-level
    /// flow control).
    PortPause {
        /// Ingress port whose upstream must pause entirely.
        port: usize,
    },
    /// Resume all traffic classes upstream of `port`.
    PortResume {
        /// Ingress port whose upstream may resume entirely.
        port: usize,
    },
}

/// A fixed-capacity list of flow-control actions.
///
/// One MMU transition can emit at most two actions (a queue-level and a
/// port-level one), so this avoids heap allocation on the per-packet fast
/// path.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct FcActions {
    items: [Option<FcAction>; 2],
    len: usize,
}

impl FcActions {
    /// No actions.
    #[must_use]
    #[inline]
    pub fn none() -> Self {
        FcActions::default()
    }

    /// Appends an action.
    ///
    /// # Panics
    ///
    /// Panics if more than two actions are pushed (impossible for a single
    /// MMU transition; indicates a logic bug).
    #[inline]
    pub fn push(&mut self, action: FcAction) {
        assert!(self.len < 2, "an MMU transition emits at most two actions");
        self.items[self.len] = Some(action);
        self.len += 1;
    }

    /// Number of actions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no actions.
    #[must_use]
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the actions.
    pub fn iter(&self) -> impl Iterator<Item = &FcAction> {
        self.items[..self.len].iter().map(|a| a.as_ref().expect("len invariant"))
    }
}

impl IntoIterator for FcActions {
    type Item = FcAction;
    type IntoIter = std::iter::Flatten<std::array::IntoIter<Option<FcAction>, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter().flatten()
    }
}

/// Result of an admission decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// Where the packet was placed, or `None` if it was dropped.
    pub region: Option<Region>,
    /// The decisive rejection rule when the packet was dropped.
    pub drop_reason: Option<DropReason>,
    /// Flow-control actions triggered by this transition.
    pub actions: FcActions,
}

impl Outcome {
    /// An outcome with a region and no actions.
    #[must_use]
    #[inline]
    pub fn placed(region: Region) -> Self {
        Outcome { region: Some(region), drop_reason: None, actions: FcActions::none() }
    }

    /// A drop outcome attributed to `reason`.
    #[must_use]
    pub fn dropped(reason: DropReason) -> Self {
        Outcome { region: None, drop_reason: Some(reason), actions: FcActions::none() }
    }

    /// Whether the packet was admitted.
    #[must_use]
    pub fn is_admitted(&self) -> bool {
        self.region.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fc_actions_push_and_iterate() {
        let mut a = FcActions::none();
        assert!(a.is_empty());
        a.push(FcAction::QueuePause { port: 1, queue: 2 });
        a.push(FcAction::PortPause { port: 1 });
        assert_eq!(a.len(), 2);
        let v: Vec<FcAction> = a.into_iter().collect();
        assert_eq!(
            v,
            vec![FcAction::QueuePause { port: 1, queue: 2 }, FcAction::PortPause { port: 1 }]
        );
    }

    #[test]
    #[should_panic(expected = "at most two")]
    fn overflow_panics() {
        let mut a = FcActions::none();
        a.push(FcAction::PortPause { port: 0 });
        a.push(FcAction::PortPause { port: 0 });
        a.push(FcAction::PortPause { port: 0 });
    }

    #[test]
    fn outcome_constructors() {
        assert!(Outcome::placed(Region::Shared).is_admitted());
        let drop = Outcome::dropped(DropReason::InsuranceFull);
        assert!(!drop.is_admitted());
        assert_eq!(drop.drop_reason, Some(DropReason::InsuranceFull));
        assert_eq!(Region::Insurance.to_string(), "insurance");
        assert_eq!(DropReason::HeadroomFull.to_string(), "headroom-full");
    }
}
