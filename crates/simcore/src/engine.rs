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

    /// Sequence number of the event being handled: with [`Self::now`], its
    /// place in the calendar's `(time, seq)` order.
    #[must_use]
    #[inline]
    pub fn current_seq(&self) -> u64 {
        self.queue.current_seq()
    }

    /// Reserves a calendar place for an event that may be scheduled later
    /// with [`Self::push_reserved`] (see [`EventQueue::reserve_seq`]).
    #[inline]
    pub fn reserve_seq(&mut self) -> u64 {
        self.queue.reserve_seq()
    }

    /// Schedules `event` at `at` in the place `seq` reserved earlier.
    ///
    /// # Panics
    ///
    /// Panics if `seq` was never reserved or `(at, seq)` is not after the
    /// event being handled.
    #[inline]
    pub fn push_reserved(&mut self, at: Time, seq: u64, event: E) {
        self.queue.push_reserved(at, seq, event);
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
        Self::with_capacity(model, 0)
    }

    /// [`Simulation::new`] with a calendar that holds `capacity` pending
    /// events before it reallocates: room for the initial events a caller
    /// is about to schedule.
    pub fn with_capacity(model: M, capacity: usize) -> Self {
        Simulation {
            model,
            queue: EventQueue::with_capacity(capacity),
            now: Time::ZERO,
            processed: 0,
        }
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
            let mut sched = Scheduler { now: t, queue: &mut self.queue };
            self.model.handle(event, &mut sched);
            n += 1;
        }
        self.processed += n;
        n
    }

    /// Like [`Simulation::run_until`], but classifies every dispatched
    /// event through [`EventClass`](crate::EventClass) and accumulates
    /// per-class counts (and, with the `profile` feature, per-class wall
    /// time) and the calendar's walk steps into `profile`.
    pub fn run_until_profiled(
        &mut self,
        deadline: Time,
        profile: &mut crate::profile::EngineProfile,
    ) -> u64
    where
        M::Event: crate::profile::EventClass,
    {
        use crate::profile::EventClass as _;
        let walk_steps = self.queue.walk_steps();
        let mut n = 0;
        while let Some((t, event)) = self.queue.pop_before(deadline) {
            debug_assert!(t >= self.now, "event calendar went backwards");
            self.now = t;
            let class = event.class();
            #[cfg(feature = "profile")]
            let started = std::time::Instant::now();
            let mut sched = Scheduler { now: t, queue: &mut self.queue };
            self.model.handle(event, &mut sched);
            #[cfg(feature = "profile")]
            let spent = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            #[cfg(not(feature = "profile"))]
            let spent = 0;
            profile.record(class, spent);
            n += 1;
        }
        profile.record_walk_steps(self.queue.walk_steps() - walk_steps);
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

    /// Profiler classes of the test models' `u32` events.
    impl crate::profile::EventClass for u32 {
        const NAMES: &'static [&'static str] = &["even", "odd"];
        fn class(&self) -> usize {
            (self % 2) as usize
        }
    }

    #[test]
    fn profiled_run_counts_every_dispatch_in_its_class() {
        struct Logger {
            log: Vec<u32>,
        }
        impl Model for Logger {
            type Event = u32;
            fn handle(&mut self, ev: u32, _: &mut Scheduler<'_, u32>) {
                self.log.push(ev);
            }
        }
        let seeded = || {
            let mut sim = Simulation::new(Logger { log: vec![] });
            for ev in [1, 2, 3, 4] {
                sim.schedule(Time::from_ns(5), ev);
            }
            sim.schedule(Time::from_ns(9), 6);
            sim
        };
        let mut sim = seeded();
        sim.run();
        let mut profiled = seeded();
        let mut profile = crate::profile::EngineProfile::new::<u32>();
        profiled.run_until_profiled(Time::MAX, &mut profile);
        // The same order as the plain loop, and a profile that accounts
        // for every processed event.
        assert_eq!(profiled.model().log, sim.model().log);
        assert_eq!(profiled.events_processed(), 5);
        let rows: Vec<_> = profile.rows().map(|(name, count, _)| (name, count)).collect();
        assert_eq!(rows, [("even", 3), ("odd", 2)]);
        assert_eq!(profile.total_events(), profiled.events_processed());
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
