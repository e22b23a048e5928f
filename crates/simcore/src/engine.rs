//! The simulation run loop: a [`Model`] consumes events from the calendar
//! and schedules new ones through a [`Scheduler`].

use crate::queue::EventQueue;
use crate::time::{Delta, Time};

/// Handle a model uses to schedule future events while processing the
/// current one.
///
/// Borrowing the calendar through this handle (rather than giving the model
/// the whole [`Simulation`]) keeps the borrow checker happy while the model
/// mutates its own state.
#[derive(Debug)]
pub struct Scheduler<'a, E> {
    now: Time,
    queue: &'a mut EventQueue<E>,
    /// Events the model pulled out of the calendar itself via
    /// [`Scheduler::take_next_if`]; folded into the run loop's processed
    /// count so `events_processed` still counts every handled event.
    fused: u64,
}

impl<E> Scheduler<'_, E> {
    /// The current simulated time.
    #[must_use]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past — scheduling backwards in time is
    /// always a causality bug.
    #[inline]
    pub fn at(&mut self, at: Time, event: E) {
        assert!(at >= self.now, "cannot schedule into the past ({at:?} < {:?})", self.now);
        self.queue.push(at, event);
    }

    /// Schedules `event` to fire `after` from now.
    #[inline]
    pub fn after(&mut self, after: Delta, event: E) {
        self.queue.push(self.now + after, event);
    }

    /// Takes the calendar's next event if it fires at exactly the current
    /// instant and satisfies `pred` — the fused-dispatch primitive.
    ///
    /// The event returned is precisely the one the run loop would have
    /// popped next (full `(time, seq)` order), so handling it inline is
    /// observationally identical to returning to the loop; it merely
    /// skips one dispatch round-trip. Fused events still count toward
    /// [`Simulation::events_processed`].
    #[inline]
    pub fn take_next_if(&mut self, pred: impl FnOnce(&E) -> bool) -> Option<E> {
        let taken = self.queue.pop_current_if(self.now, pred);
        if taken.is_some() {
            self.fused += 1;
        }
        taken
    }
}

/// A simulation model: owns all component state and reacts to events.
pub trait Model {
    /// The event alphabet of the model.
    type Event;

    /// Processes one event. `sched` can be used to schedule follow-ups.
    fn handle(&mut self, event: Self::Event, sched: &mut Scheduler<'_, Self::Event>);
}

/// Drives a [`Model`] through simulated time.
///
/// # Example
///
/// ```
/// use dsh_simcore::{Delta, Model, Scheduler, Simulation, Time};
///
/// /// Counts down from n, one tick per microsecond.
/// struct Countdown { remaining: u32 }
/// impl Model for Countdown {
///     type Event = ();
///     fn handle(&mut self, _: (), sched: &mut Scheduler<'_, ()>) {
///         if self.remaining > 0 {
///             self.remaining -= 1;
///             sched.after(Delta::from_us(1), ());
///         }
///     }
/// }
///
/// let mut sim = Simulation::new(Countdown { remaining: 3 });
/// sim.schedule(Time::ZERO, ());
/// sim.run();
/// assert_eq!(sim.now(), Time::from_us(3));
/// assert_eq!(sim.model().remaining, 0);
/// ```
#[derive(Debug)]
pub struct Simulation<M: Model> {
    model: M,
    queue: EventQueue<M::Event>,
    now: Time,
    processed: u64,
}

impl<M: Model> Simulation<M> {
    /// Creates a simulation around `model` with an empty calendar, at time
    /// zero.
    pub fn new(model: M) -> Self {
        Simulation { model, queue: EventQueue::new(), now: Time::ZERO, processed: 0 }
    }

    /// Schedules an initial event (before or between runs).
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current simulation time.
    pub fn schedule(&mut self, at: Time, event: M::Event) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.queue.push(at, event);
    }

    /// Runs until the calendar is empty. Returns the number of events
    /// processed during this call.
    pub fn run(&mut self) -> u64 {
        self.run_until(Time::MAX)
    }

    /// Runs until the calendar is empty or the next event is strictly after
    /// `deadline`; the clock then rests at the last processed event (never
    /// beyond `deadline`). Returns the number of events processed during
    /// this call.
    pub fn run_until(&mut self, deadline: Time) -> u64 {
        let mut n = 0;
        while let Some((t, event)) = self.queue.pop_before(deadline) {
            debug_assert!(t >= self.now, "event calendar went backwards");
            self.now = t;
            let mut sched = Scheduler { now: t, queue: &mut self.queue, fused: 0 };
            self.model.handle(event, &mut sched);
            n += 1 + sched.fused;
        }
        self.processed += n;
        n
    }

    /// Runs until the calendar is empty or the next event is at or after
    /// `bound` (a half-open window `[now, bound)` — the conservative
    /// parallel-DES lookahead primitive). Returns the number of events
    /// processed during this call.
    pub fn run_before(&mut self, bound: Time) -> u64 {
        let mut n = 0;
        while let Some((t, event)) = self.queue.pop_strictly_before(bound) {
            debug_assert!(t >= self.now, "event calendar went backwards");
            self.now = t;
            let mut sched = Scheduler { now: t, queue: &mut self.queue, fused: 0 };
            self.model.handle(event, &mut sched);
            n += 1 + sched.fused;
        }
        self.processed += n;
        n
    }

    /// Runs `f` with the model and a scheduler positioned at `at`,
    /// advancing the clock there — the injection point for events that
    /// live outside this calendar (a parallel driver's global flow-start,
    /// fault, and sample instants).
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current simulation time.
    pub fn with_model_at<R>(
        &mut self,
        at: Time,
        f: impl FnOnce(&mut M, &mut Scheduler<'_, M::Event>) -> R,
    ) -> R {
        assert!(at >= self.now, "cannot rewind the clock ({at:?} < {:?})", self.now);
        self.now = at;
        let mut sched = Scheduler { now: at, queue: &mut self.queue, fused: 0 };
        let r = f(&mut self.model, &mut sched);
        self.processed += sched.fused;
        r
    }

    /// Like [`Simulation::run_until`], but classifies every dispatched
    /// event through [`EventClass`] and accumulates per-class counts
    /// (and, with the `profile` feature, per-class wall time) into
    /// `profile`.
    pub fn run_until_profiled(
        &mut self,
        deadline: Time,
        profile: &mut crate::profile::EngineProfile,
    ) -> u64
    where
        M::Event: crate::profile::EventClass,
    {
        use crate::profile::EventClass as _;
        let mut n = 0;
        while let Some((t, event)) = self.queue.pop_before(deadline) {
            debug_assert!(t >= self.now, "event calendar went backwards");
            self.now = t;
            let class = event.class();
            #[cfg(feature = "profile")]
            let started = std::time::Instant::now();
            let mut sched = Scheduler { now: t, queue: &mut self.queue, fused: 0 };
            self.model.handle(event, &mut sched);
            #[cfg(feature = "profile")]
            let spent = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            #[cfg(not(feature = "profile"))]
            let spent = 0;
            // A fused follow-up's time stays with the class that absorbed
            // it, where it was spent; its count goes to the profile's
            // fused total, not to a class row.
            profile.record(class, spent);
            profile.record_fused(sched.fused);
            n += 1 + sched.fused;
        }
        self.processed += n;
        n
    }

    /// The current simulated time (time of the last processed event).
    #[must_use]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total events processed since construction.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Borrows the model.
    #[must_use]
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutably borrows the model (e.g. to inject configuration between
    /// phases).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Consumes the simulation and returns the model (e.g. to extract final
    /// statistics).
    #[must_use]
    pub fn into_model(self) -> M {
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records the order and times at which labelled events fire, and chains
    /// follow-ups.
    struct Recorder {
        log: Vec<(Time, u32)>,
        chain: u32,
    }

    impl Model for Recorder {
        type Event = u32;
        fn handle(&mut self, ev: u32, sched: &mut Scheduler<'_, u32>) {
            self.log.push((sched.now(), ev));
            if ev == 0 && self.chain > 0 {
                self.chain -= 1;
                sched.after(Delta::from_ns(10), 0);
            }
        }
    }

    #[test]
    fn runs_events_in_order() {
        let mut sim = Simulation::new(Recorder { log: vec![], chain: 0 });
        sim.schedule(Time::from_ns(30), 3);
        sim.schedule(Time::from_ns(10), 1);
        sim.schedule(Time::from_ns(20), 2);
        assert_eq!(sim.run(), 3);
        assert_eq!(
            sim.model().log,
            vec![(Time::from_ns(10), 1), (Time::from_ns(20), 2), (Time::from_ns(30), 3)]
        );
    }

    #[test]
    fn chained_events_advance_clock() {
        let mut sim = Simulation::new(Recorder { log: vec![], chain: 5 });
        sim.schedule(Time::ZERO, 0);
        sim.run();
        assert_eq!(sim.now(), Time::from_ns(50));
        assert_eq!(sim.events_processed(), 6);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Simulation::new(Recorder { log: vec![], chain: 100 });
        sim.schedule(Time::ZERO, 0);
        let n = sim.run_until(Time::from_ns(35));
        assert_eq!(n, 4); // events at 0, 10, 20, 30
        assert_eq!(sim.now(), Time::from_ns(30));
        assert_eq!(sim.pending(), 1);
        // Resuming picks up where we stopped: 1 seed event + 100 chained.
        sim.run();
        assert_eq!(sim.events_processed(), 101);
    }

    #[test]
    fn run_before_is_exclusive_and_resumable() {
        let mut sim = Simulation::new(Recorder { log: vec![], chain: 100 });
        sim.schedule(Time::ZERO, 0);
        let n = sim.run_before(Time::from_ns(30));
        assert_eq!(n, 3); // events at 0, 10, 20 — 30 stays pending
        assert_eq!(sim.now(), Time::from_ns(20));
        assert_eq!(sim.pending(), 1);
        sim.run_before(Time::from_ns(31));
        assert_eq!(sim.now(), Time::from_ns(30));
    }

    /// Profiler classes of the test models' `u32` events.
    impl crate::profile::EventClass for u32 {
        const NAMES: &'static [&'static str] = &["even", "odd"];
        fn class(&self) -> usize {
            (self % 2) as usize
        }
    }

    #[test]
    fn take_next_if_fuses_only_the_adjacent_same_instant_event() {
        struct Fuser {
            log: Vec<u32>,
        }
        impl Model for Fuser {
            type Event = u32;
            fn handle(&mut self, ev: u32, sched: &mut Scheduler<'_, u32>) {
                self.log.push(ev);
                // Fuse an even follow-up at the same instant, if adjacent.
                while let Some(next) = sched.take_next_if(|&e| e % 2 == 0) {
                    self.log.push(next);
                }
            }
        }
        let seeded = || {
            let mut sim = Simulation::new(Fuser { log: vec![] });
            sim.schedule(Time::from_ns(5), 1);
            sim.schedule(Time::from_ns(5), 2);
            sim.schedule(Time::from_ns(5), 3);
            sim.schedule(Time::from_ns(5), 4);
            sim.schedule(Time::from_ns(9), 6);
            sim
        };
        let mut sim = seeded();
        sim.run();
        // 1 fuses 2, stops at odd 3; 3 fuses 4; 6 is at a later instant
        // and dispatches on its own.
        assert_eq!(sim.model().log, vec![1, 2, 3, 4, 6]);
        assert_eq!(sim.events_processed(), 5, "fused events still count");

        // The profiled loop fuses and counts the same way, and its profile
        // accounts for every processed event.
        let mut profiled = seeded();
        let mut profile = crate::profile::EngineProfile::new::<u32>();
        profiled.run_until_profiled(Time::MAX, &mut profile);
        assert_eq!(profiled.model().log, sim.model().log);
        assert_eq!(profiled.events_processed(), sim.events_processed());
        assert_eq!(profile.to_json().get("fused").and_then(crate::Json::as_u64), Some(2));
        let rows: Vec<_> = profile.rows().map(|(name, count, _)| (name, count)).collect();
        assert_eq!(rows, [("even", 1), ("odd", 2)]);
        assert_eq!(profile.total_events(), profiled.events_processed());
    }

    #[test]
    fn with_model_at_injects_at_a_future_instant() {
        let mut sim = Simulation::new(Recorder { log: vec![], chain: 0 });
        sim.schedule(Time::from_ns(10), 1);
        sim.run();
        sim.with_model_at(Time::from_ns(40), |m, sched| {
            m.log.push((sched.now(), 99));
            sched.after(Delta::from_ns(5), 7);
        });
        assert_eq!(sim.now(), Time::from_ns(40));
        sim.run();
        assert_eq!(
            sim.model().log,
            vec![(Time::from_ns(10), 1), (Time::from_ns(40), 99), (Time::from_ns(45), 7)]
        );
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut sim = Simulation::new(Recorder { log: vec![], chain: 0 });
        sim.schedule(Time::from_ns(10), 1);
        sim.run();
        sim.schedule(Time::from_ns(5), 2);
    }
}
