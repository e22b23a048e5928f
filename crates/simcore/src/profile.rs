//! Engine profiling: per-event-type dispatch counts and wall time, and the
//! calendar's walk steps.
//!
//! [`Simulation::run_until_profiled`](crate::Simulation::run_until_profiled)
//! classifies every dispatched event through the model's [`EventClass`]
//! impl and accumulates an [`EngineProfile`]. Event **counts** are always
//! collected (one array index per event); per-event **wall time** is only
//! stamped when the `profile` cargo feature is enabled, because two
//! `Instant::now` calls per event are measurable at tens of millions of
//! events per second. The run-loop used everywhere else is untouched.
//!
//! The profile also carries the calendar's **walk steps**, the nodes its
//! out-of-order pushes compared ([`EventQueue::walk_steps`]): a cost that
//! depends only on the simulation, not on the host. The calendar counts
//! them whatever the features, since its resizing reads the count.
//!
//! [`EventQueue::walk_steps`]: crate::EventQueue::walk_steps

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
    walk_steps: u64,
}

impl EngineProfile {
    /// An empty profile for a model whose events implement [`EventClass`].
    #[must_use]
    pub fn new<E: EventClass>() -> EngineProfile {
        EngineProfile {
            names: E::NAMES,
            counts: vec![0; E::NAMES.len()],
            nanos: vec![0; E::NAMES.len()],
            walk_steps: 0,
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

    /// Records `steps` calendar walk steps.
    #[inline]
    pub(crate) fn record_walk_steps(&mut self, steps: u64) {
        self.walk_steps += steps;
    }

    /// Nodes the calendar's out-of-order pushes compared during the
    /// profiled runs.
    #[must_use]
    pub fn walk_steps(&self) -> u64 {
        self.walk_steps
    }

    /// Total events dispatched, which is what
    /// [`Simulation::events_processed`](crate::Simulation::events_processed)
    /// counts.
    #[must_use]
    pub fn total_events(&self) -> u64 {
        self.counts.iter().sum()
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

    /// The profile as a JSON document: total counts, calendar walk steps
    /// and one row per dispatched event class.
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
            .with("nanos", self.total_nanos())
            .with("timed", Self::timing_enabled())
            .with("walk_steps", self.walk_steps)
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
        assert_eq!(p.total_events(), 3);
        assert_eq!(p.total_nanos(), 16);
        let rows: Vec<_> = p.rows().collect();
        assert_eq!(rows, vec![("a", 2, 15), ("b", 1, 1)]);
    }

    #[test]
    fn json_reports_all_dispatched_classes() {
        let mut p = EngineProfile::new::<Toy>();
        p.record(0, 0);
        p.record_walk_steps(3);
        let doc = p.to_json();
        assert_eq!(doc.get("events").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("walk_steps").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("per_event").and_then(Json::as_arr).map(<[Json]>::len), Some(1));
    }
}
