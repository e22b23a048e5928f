//! Property tests pinning [`HopList`] to the semantics of the
//! `Vec<TelemetryHop>` it replaced inside data/ACK frames.
//!
//! The inline list is a hot-path optimization, not a behavior change: for
//! any trace of push/clear operations that stays within [`HOP_CAPACITY`]
//! (the topology-diameter contract), the list must observe exactly like
//! the Vec did — same order, same length, same slice, same iteration —
//! and a push past capacity must panic rather than silently drop
//! telemetry. [`HopList::clear`] only resets the length, so a list
//! refilled after a clear sits on top of stale stamps: no observer may
//! ever see them.

use dsh_simcore::{Bandwidth, Time};
use dsh_transport::{HopList, TelemetryHop, HOP_CAPACITY};
use proptest::prelude::*;

fn hop(tag: u64) -> TelemetryHop {
    TelemetryHop {
        qlen_bytes: tag,
        tx_bytes: tag.wrapping_mul(17),
        timestamp: Time::from_ns(tag),
        bandwidth: Bandwidth::from_gbps(100),
    }
}

/// Applies one op to both representations; `0` clears, anything else
/// pushes (skipped when the Vec model is at capacity, since that push is
/// the defined-panic case covered separately).
fn step(code: u64, list: &mut HopList, model: &mut Vec<TelemetryHop>) {
    if code == 0 {
        list.clear();
        model.clear();
    } else if model.len() < HOP_CAPACITY {
        let h = hop(code);
        list.push(h);
        model.push(h);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hoplist_traces_match_vec_semantics(
        ops in proptest::collection::vec(0u64..100, 1..64),
    ) {
        let mut list = HopList::new();
        let mut model: Vec<TelemetryHop> = Vec::new();
        for &code in &ops {
            step(code, &mut list, &mut model);
            prop_assert_eq!(list.len(), model.len());
            prop_assert_eq!(list.is_empty(), model.is_empty());
            prop_assert_eq!(list.as_slice(), model.as_slice());
            // Iteration (the PowerTCP consumer's access pattern) agrees.
            prop_assert!(list.iter().eq(model.iter()));
            // Deref lets `&list` feed `AckInfo { hops: &[TelemetryHop] }`.
            let via_deref: &[TelemetryHop] = &list;
            prop_assert_eq!(via_deref, model.as_slice());
        }
        // Round-tripping the final state through a slice is lossless.
        prop_assert_eq!(HopList::from_slice(&model), list);
    }

    #[test]
    fn stale_slots_after_clear_are_never_observed(
        ops in proptest::collection::vec((0u64..3, 1u64..1000), 1..96),
    ) {
        let mut list = HopList::new();
        let mut model: Vec<TelemetryHop> = Vec::new();
        for &(op, tag) in &ops {
            // A third of the ops clear, so most pushes land on a slot a
            // longer list stamped before the clear.
            step(if op == 0 { 0 } else { tag }, &mut list, &mut model);
            prop_assert_eq!(list.len(), model.len());
            prop_assert_eq!(list.is_empty(), model.is_empty());
            prop_assert_eq!(list.as_slice(), model.as_slice());
            prop_assert!(list.iter().eq(model.iter()));
            prop_assert!((&list).into_iter().eq(model.iter()));
            let via_deref: &[TelemetryHop] = &list;
            prop_assert_eq!(via_deref, model.as_slice());
            // Equality against a list whose unused slots are all zero.
            prop_assert_eq!(list, HopList::from_slice(&model));
            prop_assert_eq!(format!("{list:?}"), format!("{model:?}"));
            let copied = list;
            prop_assert_eq!(copied.as_slice(), model.as_slice());
        }
    }

    #[test]
    fn hoplist_overflow_panics_exactly_at_capacity(extra in 1u64..4) {
        let mut list = HopList::new();
        for n in 0..HOP_CAPACITY as u64 {
            list.push(hop(n + 1)); // Filling to capacity is fine...
        }
        prop_assert_eq!(list.len(), HOP_CAPACITY);
        let panicked = std::panic::catch_unwind(move || {
            list.push(hop(extra)); // ...one more must panic, like Vec would
                                   // never do — overflow is a topology bug.
        });
        prop_assert!(panicked.is_err(), "push past HOP_CAPACITY must panic");
    }
}
