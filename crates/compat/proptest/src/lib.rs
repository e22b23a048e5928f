//! A small, dependency-free stand-in for the `proptest` crate.
//!
//! This workspace builds in offline environments where crates.io is not
//! reachable, so it vendors the subset of proptest's API its tests use:
//! integer/float range strategies, tuple strategies, `prop_map`,
//! `collection::vec`, `prop_oneof!`, `prop_assert*!` and the `proptest!`
//! macro with `#![proptest_config(...)]`.
//!
//! Semantics: each property runs `Config::cases` deterministic cases
//! (seeded from the test's module path and case index). There is no
//! shrinking — a failing case panics with the usual assertion message,
//! which is enough for this workspace's fixed-seed CI.

#![forbid(unsafe_code)]

/// Test-runner configuration and deterministic RNG.
pub mod test_runner {
    /// Number of cases to run per property.
    #[derive(Clone, Copy, Debug)]
    pub struct Config {
        /// How many random cases each `#[test]` inside `proptest!` runs.
        pub cases: u32,
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 64 }
        }
    }

    impl Config {
        /// A config running `cases` cases (mirrors
        /// `ProptestConfig::with_cases`).
        #[must_use]
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    /// Deterministic SplitMix64 generator, seeded per (test, case).
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Creates the RNG for one test case.
        #[must_use]
        pub fn for_case(test_name: &str, case: u32) -> Self {
            // FNV-1a over the test name, mixed with the case index.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in test_name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng { state: h ^ (u64::from(case).wrapping_mul(0x9e37_79b9_7f4a_7c15)) }
        }

        /// Next raw 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, bound)`; `bound` must be positive.
        pub fn below(&mut self, bound: u64) -> u64 {
            assert!(bound > 0, "empty sample range");
            self.next_u64() % bound
        }

        /// Uniform float in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }
}

/// Strategies: value generators composable with `prop_map`.
pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// A generator of values of type `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Type-erases the strategy (used by `prop_oneof!`).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// A type-erased strategy.
    pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            (**self).sample(rng)
        }
    }

    /// Always yields a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// `prop_map` combinator.
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;

        fn sample(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// Uniform choice among type-erased alternatives (`prop_oneof!`).
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Builds a union over `options`.
        ///
        /// # Panics
        ///
        /// Panics if `options` is empty.
        #[must_use]
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one option");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.options.len() as u64) as usize;
            self.options[i].sample(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + rng.below(span) as $t
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize);

    impl Strategy for Range<f64> {
        type Value = f64;

        fn sample(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    macro_rules! tuple_strategy {
        ($(($($s:ident . $idx:tt),+ );)*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A.0, B.1);
        (A.0, B.1, C.2);
        (A.0, B.1, C.2, D.3);
        (A.0, B.1, C.2, D.3, E.4);
        (A.0, B.1, C.2, D.3, E.4, F.5);
    }
}

/// Collection strategies.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Strategy producing `Vec`s with lengths drawn from `len`.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// `Vec` strategy over `element` with a length in `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = Range { start: self.len.start, end: self.len.end }.sample(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// The usual glob import: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Asserts a condition inside a property (panics on failure; no
/// shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Uniform choice among strategies yielding the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

/// Declares property tests: each `fn name(pat in strategy, ...)` becomes a
/// `#[test]` running `Config::cases` deterministic cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@impl ($cfg); $($rest)*);
    };
    (@impl ($cfg:expr); $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::Config = $cfg;
            for case in 0..config.cases {
                let mut prop_rng = $crate::test_runner::TestRng::for_case(
                    concat!(module_path!(), "::", stringify!($name)),
                    case,
                );
                $(let $arg = $crate::strategy::Strategy::sample(&($strat), &mut prop_rng);)+
                $body
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@impl ($crate::test_runner::Config::default()); $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::test_runner::TestRng::for_case("t", 0);
        for _ in 0..1000 {
            let v = (10u64..20).sample(&mut rng);
            assert!((10..20).contains(&v));
            let f = (-1.0f64..1.0).sample(&mut rng);
            assert!((-1.0..1.0).contains(&f));
        }
    }

    #[test]
    fn determinism_per_case() {
        let mut a = crate::test_runner::TestRng::for_case("x", 3);
        let mut b = crate::test_runner::TestRng::for_case("x", 3);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn macro_roundtrip(xs in crate::collection::vec(0u64..100, 0..10), k in 1usize..4) {
            prop_assert!(xs.len() < 10);
            prop_assert!((1..4).contains(&k));
        }

        #[test]
        fn oneof_and_map(v in prop_oneof![
            (0u64..10).prop_map(|x| x as i64),
            (0u64..10).prop_map(|x| -(x as i64)),
        ]) {
            prop_assert!((-9..10).contains(&v));
        }
    }
}
