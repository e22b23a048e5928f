//! Deterministic parallel execution of independent experiment points.
//!
//! Every paper figure is a sweep of mutually independent simulation runs,
//! so the natural speedup is embarrassingly-parallel replication across
//! runs (the same answer ns-3-style simulators reach). This module
//! provides a registry-free worker pool built on [`std::thread::scope`] —
//! the build environment has no crates.io access, so rayon is not an
//! option — with three guarantees the figure pipelines rely on:
//!
//! 1. **Order preservation**: `par_map(items, f)` returns results in input
//!    order regardless of which worker finished first.
//! 2. **Panic propagation**: a panicking closure panics the caller (after
//!    all workers are joined), exactly like the serial loop it replaces.
//! 3. **Seed independence**: [`Executor::par_map_seeded`] derives one
//!    seed per item from the [`crate::split_seed`] SplitMix64 stream,
//!    keyed on the item *index*, so results are bit-identical at any
//!    thread count.
//!
//! # Example
//!
//! ```
//! use dsh_simcore::exec::Executor;
//! let ex = Executor::new(4);
//! let squares = ex.par_map((0u64..8).collect(), |x| x * x);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use crate::rng::split_seed;
use crate::trace;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Environment variable overriding the default worker count of the
/// figure binaries and the benches (both read it through
/// [`parse_threads`]).
///
/// `0` means "auto" (available parallelism); a malformed value is a
/// usage error (exit 2).
pub const THREADS_ENV: &str = "DSH_THREADS";

/// Parses a [`THREADS_ENV`] value: an unsigned worker count, `0` meaning
/// auto.
///
/// # Errors
///
/// Returns the usage message when `value` is not an unsigned integer
/// (`abc`, `-1`, an empty string): a typo must fail, not run on every
/// core.
pub fn parse_threads(value: &str) -> Result<usize, String> {
    value.parse().map_err(|_| {
        format!("invalid value for {THREADS_ENV}: '{value}' (expected unsigned integer)")
    })
}

/// Environment variable enabling sweep progress lines: with
/// `DSH_PROGRESS=1`, `par_map` reports completed/total points and
/// elapsed wall time on stderr as a long sweep advances.
pub const PROGRESS_ENV: &str = "DSH_PROGRESS";

/// Whether `DSH_PROGRESS=1` is set (read once per process).
fn progress_enabled() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| std::env::var(PROGRESS_ENV).is_ok_and(|v| v == "1"))
}

/// The worker count used when nothing is configured: the machine's
/// available parallelism (1 if that cannot be determined).
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// A fixed-width worker pool for independent experiment points.
///
/// The pool is just a thread count: workers are scoped to each `par_map`
/// call (no idle threads between sweeps, no registry, no unsafe).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Executor {
    threads: usize,
}

impl Executor {
    /// A pool of `threads` workers (`0` means auto).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Executor { threads: if threads == 0 { default_threads() } else { threads } }
    }

    /// A single-threaded pool (`par_map` degenerates to a plain loop).
    #[must_use]
    pub fn serial() -> Self {
        Executor { threads: 1 }
    }

    /// Worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items` on the pool, returning results in input
    /// order.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic raised by `f` (after joining all
    /// workers).
    pub fn par_map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let n = items.len();
        // Items run at their place in the serial order, so trace captures
        // sort the simulations they build the same at any width.
        let fork = trace::next_position();
        let fork = fork.as_slice();
        if self.threads <= 1 || n <= 1 {
            let progress = progress_enabled() && n > 1;
            let started = std::time::Instant::now();
            return items
                .into_iter()
                .enumerate()
                .map(|(i, item)| {
                    let r = trace::in_item(fork, i, || f(item));
                    if progress {
                        eprintln!(
                            "[dsh] {}/{n} points, {:.1}s elapsed",
                            i + 1,
                            started.elapsed().as_secs_f64()
                        );
                    }
                    r
                })
                .collect();
        }
        let workers = self.threads.min(n);
        // Work queue: each worker claims the next unclaimed (index, item).
        // The lock is held only for the claim itself, never across `f`, so
        // contention is negligible next to a whole simulation run.
        let work = Mutex::new(items.into_iter().enumerate());
        let f = &f;
        // Progress is observed from a dedicated reporter thread; workers
        // only bump an atomic, so enabling it cannot perturb determinism.
        let completed = AtomicUsize::new(0);
        let finished = AtomicBool::new(false);
        std::thread::scope(|s| {
            let reporter = progress_enabled().then(|| {
                s.spawn(|| {
                    let started = std::time::Instant::now();
                    let mut last = 0;
                    loop {
                        std::thread::sleep(std::time::Duration::from_millis(100));
                        let done = completed.load(Ordering::Relaxed);
                        if done != last {
                            last = done;
                            eprintln!(
                                "[dsh] {done}/{n} points, {:.1}s elapsed",
                                started.elapsed().as_secs_f64()
                            );
                        }
                        if finished.load(Ordering::Relaxed) {
                            return;
                        }
                    }
                })
            });
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut done = Vec::new();
                        loop {
                            let claimed = work.lock().expect("work queue poisoned").next();
                            match claimed {
                                Some((i, item)) => {
                                    done.push((i, trace::in_item(fork, i, || f(item))));
                                    completed.fetch_add(1, Ordering::Relaxed);
                                }
                                None => return done,
                            }
                        }
                    })
                })
                .collect();
            let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
            let mut panic = None;
            for h in handles {
                match h.join() {
                    Ok(done) => {
                        for (i, r) in done {
                            slots[i] = Some(r);
                        }
                    }
                    Err(payload) => panic = panic.or(Some(payload)),
                }
            }
            finished.store(true, Ordering::Relaxed);
            if let Some(r) = reporter {
                let _ = r.join();
            }
            if let Some(payload) = panic {
                resume_unwind(payload);
            }
            slots.into_iter().map(|r| r.expect("worker skipped a claimed item")).collect()
        })
    }

    /// Like [`Executor::par_map`], but also hands `f` a per-item seed
    /// derived from `base_seed` and the item's index via
    /// [`crate::split_seed`] — independent streams per point, identical at
    /// any thread count.
    pub fn par_map_seeded<T, R, F>(&self, base_seed: u64, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T, u64) -> R + Sync,
    {
        let seeded: Vec<(T, u64)> = items
            .into_iter()
            .enumerate()
            .map(|(i, x)| (x, split_seed(base_seed, i as u64)))
            .collect();
        self.par_map(seeded, |(x, seed)| f(x, seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_env_values_parse_or_fail_fast() {
        assert_eq!(parse_threads("0"), Ok(0), "0 means auto");
        assert_eq!(parse_threads("3"), Ok(3));
        for bad in ["abc", "-1", "", " 2"] {
            let e = parse_threads(bad).unwrap_err();
            assert!(e.contains(&format!("invalid value for DSH_THREADS: '{bad}'")), "{e}");
        }
    }

    #[test]
    fn preserves_input_order() {
        let ex = Executor::new(8);
        // Make early items the slowest so completion order inverts input
        // order if anything relies on it.
        let out = ex.par_map((0u64..64).collect(), |i| {
            if i < 8 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i * 10
        });
        assert_eq!(out, (0u64..64).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn identical_at_any_thread_count() {
        let run = |threads| {
            Executor::new(threads).par_map_seeded(99, (0..32).collect::<Vec<u32>>(), |i, seed| {
                let mut rng = crate::SimRng::new(seed);
                (i, rng.next_u64())
            })
        };
        let serial = run(1);
        assert_eq!(serial, run(2));
        assert_eq!(serial, run(4));
        assert_eq!(serial, run(7));
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let ex = Executor::new(4);
        assert_eq!(ex.par_map(Vec::<u8>::new(), |x| x), Vec::<u8>::new());
        assert_eq!(ex.par_map(vec![5u8], |x| x + 1), vec![6]);
    }

    #[test]
    #[should_panic(expected = "point 3 exploded")]
    fn propagates_worker_panics() {
        Executor::new(4).par_map((0..16).collect::<Vec<u32>>(), |i| {
            assert!(i != 3, "point {i} exploded");
            i
        });
    }

    #[test]
    fn zero_threads_means_auto() {
        assert_eq!(Executor::new(0).threads(), default_threads());
        assert!(Executor::serial().threads() == 1);
    }
}
