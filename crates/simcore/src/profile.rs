//! Engine profiling: per-event-type dispatch counts and wall time.
//!
//! [`Simulation::run_until_profiled`](crate::Simulation::run_until_profiled)
//! classifies every dispatched event through the model's [`EventClass`]
//! impl and accumulates an [`EngineProfile`]. Event **counts** are always
//! collected (one array index per event); per-event **wall time** is only
//! stamped when the `profile` cargo feature is enabled, because two
//! `Instant::now` calls per event are measurable at tens of millions of
//! events per second. The run-loop used everywhere else is untouched.

use crate::json::Json;

/// Classifies a model's events into a small dense index space so the
/// profiler can use plain arrays instead of hash maps.
pub trait EventClass {
    /// One stable name per class, indexed by [`EventClass::class`].
    const NAMES: &'static [&'static str];

    /// The class index of this event; must be `< NAMES.len()`.
    fn class(&self) -> usize;
}

/// Per-event-type dispatch counts and (feature-gated) wall time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineProfile {
    names: &'static [&'static str],
    counts: Vec<u64>,
    nanos: Vec<u64>,
    /// Events a handler took from the calendar itself
    /// ([`Scheduler::take_next_if`](crate::Scheduler::take_next_if)); their
    /// time is in the row of the class that absorbed them.
    fused: u64,
}

impl EngineProfile {
    /// An empty profile for a model whose events implement [`EventClass`].
    #[must_use]
    pub fn new<E: EventClass>() -> EngineProfile {
        EngineProfile {
            names: E::NAMES,
            counts: vec![0; E::NAMES.len()],
            nanos: vec![0; E::NAMES.len()],
            fused: 0,
        }
    }

    /// Whether per-event wall time is being stamped (the `profile`
    /// feature) or only counts are collected.
    #[must_use]
    pub fn timing_enabled() -> bool {
        cfg!(feature = "profile")
    }

    /// Records one dispatched event of `class` taking `nanos` ns.
    #[inline]
    pub fn record(&mut self, class: usize, nanos: u64) {
        self.counts[class] += 1;
        self.nanos[class] += nanos;
    }

    /// Records `n` events a handler fused into its own dispatch.
    #[inline]
    pub(crate) fn record_fused(&mut self, n: u64) {
        self.fused += n;
    }

    /// Total events handled: every dispatch plus every fused event, which
    /// is what [`Simulation::events_processed`](crate::Simulation::events_processed)
    /// counts.
    #[must_use]
    pub fn total_events(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.fused
    }

    /// Total stamped wall time in nanoseconds (0 unless the `profile`
    /// feature is on).
    #[must_use]
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// `(name, count, nanos)` rows for classes that were dispatched at
    /// least once, in class order.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, u64, u64)> + '_ {
        self.names
            .iter()
            .zip(self.counts.iter().zip(self.nanos.iter()))
            .filter(|(_, (&c, _))| c > 0)
            .map(|(&name, (&c, &ns))| (name, c, ns))
    }

    /// The profile as a JSON document: total counts, the fused count, and
    /// one row per dispatched event class.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let rows: Vec<Json> = self
            .rows()
            .map(|(name, count, nanos)| {
                Json::object().with("event", name).with("count", count).with("nanos", nanos)
            })
            .collect();
        Json::object()
            .with("events", self.total_events())
            .with("fused", self.fused)
            .with("nanos", self.total_nanos())
            .with("timed", Self::timing_enabled())
            .with("per_event", rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    enum Toy {
        A,
        B,
    }

    impl EventClass for Toy {
        const NAMES: &'static [&'static str] = &["a", "b"];
        fn class(&self) -> usize {
            match self {
                Toy::A => 0,
                Toy::B => 1,
            }
        }
    }

    #[test]
    fn counts_and_rows_track_recorded_events() {
        let mut p = EngineProfile::new::<Toy>();
        p.record(Toy::A.class(), 10);
        p.record(Toy::A.class(), 5);
        p.record(Toy::B.class(), 1);
        p.record_fused(2);
        assert_eq!(p.total_events(), 5);
        assert_eq!(p.total_nanos(), 16);
        let rows: Vec<_> = p.rows().collect();
        assert_eq!(rows, vec![("a", 2, 15), ("b", 1, 1)]);
    }

    #[test]
    fn json_reports_all_dispatched_classes() {
        let mut p = EngineProfile::new::<Toy>();
        p.record(0, 0);
        p.record_fused(1);
        let doc = p.to_json();
        assert_eq!(doc.get("events").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("fused").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("per_event").and_then(Json::as_arr).map(<[Json]>::len), Some(1));
    }
}
