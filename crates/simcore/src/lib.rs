//! Deterministic discrete-event simulation engine for the DSH datacenter
//! simulator.
//!
//! This crate is the bottom layer of the reproduction of *"Less is More:
//! Dynamic and Shared Headroom Allocation in PFC-Enabled Datacenter
//! Networks"* (ICDCS 2023). It plays the role ns-3's core played for the
//! paper's evaluation: simulated time, an event calendar, and a
//! deterministic random-number generator, with nothing network-specific.
//!
//! # Design
//!
//! * [`Time`] and [`Delta`] are picosecond-resolution newtypes. At 100 Gb/s
//!   one byte serializes in 80 ps, so nanoseconds would round away byte-level
//!   timing; picoseconds in a `u64` still cover ~213 days of simulated time.
//! * [`Bandwidth`] converts between bytes and wire time exactly (bits/s).
//! * [`EventQueue`] is a calendar ordered by `(time, insertion sequence)` so
//!   that simultaneous events run in FIFO order — the whole simulator is
//!   deterministic for a given seed. It is a bucketed calendar queue: a
//!   ring of 4.1 ns slots reaching 67 µs ahead, where a fabric's
//!   serialization and propagation events land, makes push and pop O(1)
//!   but for a short walk when a push lands before its slot's latest
//!   event; the rare later event waits in a heap until the ring reaches
//!   it.
//! * [`SimRng`] is a self-contained xoshiro256** generator (seeded via
//!   SplitMix64) so results do not drift across `rand` versions or
//!   platforms.
//! * [`exec`] runs independent experiment points on a scoped worker pool
//!   ([`exec::par_map`]), deriving per-point seeds with [`split_seed`] so
//!   sweeps are bit-identical at any thread count.
//!
//! # Example
//!
//! ```
//! use dsh_simcore::{Delta, EventQueue, Time};
//!
//! let mut q = EventQueue::new();
//! q.push(Time::ZERO + Delta::from_ns(5), "later");
//! q.push(Time::ZERO, "now");
//! let (t0, e0) = q.pop().unwrap();
//! assert_eq!((t0, e0), (Time::ZERO, "now"));
//! let (t1, e1) = q.pop().unwrap();
//! assert_eq!((t1, e1), (Time::from_ns(5), "later"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod exec;
pub mod json;
mod pool;
pub mod profile;
mod queue;
mod rng;
mod time;
pub mod trace;
mod units;
pub mod window;

pub use engine::{Model, Scheduler, Simulation};
pub use exec::Executor;
pub use json::Json;
pub use pool::Pool;
pub use profile::{EngineProfile, EventClass};
pub use queue::EventQueue;
pub use rng::{split_seed, SimRng};
pub use time::{Delta, Time};
pub use trace::{FlightGuard, TraceConfig, TraceKey, TraceLog, TraceMask, Tracer};
pub use units::{Bandwidth, ByteSize};
pub use window::Lockstep;
