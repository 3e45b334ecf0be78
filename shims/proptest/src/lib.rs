//! Offline stand-in for the subset of the `proptest` API this workspace
//! uses: the `proptest!` macro with `#![proptest_config]`, range and tuple
//! strategies, `prop_map` / `prop_filter`, `prop::collection::vec`,
//! `prop::sample::select`, and the `prop_assert*` / `prop_assume!` macros.
//!
//! Semantics: each test runs `cases` random cases from a seed derived
//! deterministically from the test's module path and name, so failures
//! reproduce across runs. There is **no shrinking** — a failing case
//! panics with the generated inputs printed via `Debug`.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Debug;
use std::ops::Range;

pub mod prelude {
    pub use crate as prop;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, ProptestConfig,
        Strategy,
    };
}

/// Per-test configuration; only `cases` is honoured.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    #[must_use]
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 256 }
    }
}

/// Why a generated case did not produce a pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// The case was rejected (`prop_assume!` or a filter) — resample.
    Reject,
    /// A `prop_assert*` failed — abort the test.
    Fail(String),
}

/// The RNG handed to strategies. Deterministic per test.
pub struct TestRng {
    inner: StdRng,
}

impl TestRng {
    #[must_use]
    pub fn from_name(name: &str) -> TestRng {
        // FNV-1a over the fully qualified test name
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng {
            inner: StdRng::seed_from_u64(h),
        }
    }

    fn rng(&mut self) -> &mut StdRng {
        &mut self.inner
    }
}

/// A value generator. `generate` returns `None` when a filter rejects the
/// candidate; the runner resamples.
pub trait Strategy: Sized {
    type Value: Debug;

    fn generate(&self, rng: &mut TestRng) -> Option<Self::Value>;

    fn prop_map<F, R>(self, f: F) -> MapStrategy<Self, F>
    where
        F: Fn(Self::Value) -> R,
        R: Debug,
    {
        MapStrategy { base: self, f }
    }

    fn prop_filter<W, F>(self, _whence: W, f: F) -> FilterStrategy<Self, F>
    where
        W: Into<String>,
        F: Fn(&Self::Value) -> bool,
    {
        FilterStrategy { base: self, f }
    }
}

pub struct MapStrategy<S, F> {
    base: S,
    f: F,
}

impl<S, F, R> Strategy for MapStrategy<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> R,
    R: Debug,
{
    type Value = R;

    fn generate(&self, rng: &mut TestRng) -> Option<R> {
        self.base.generate(rng).map(&self.f)
    }
}

pub struct FilterStrategy<S, F> {
    base: S,
    f: F,
}

impl<S, F> Strategy for FilterStrategy<S, F>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool,
{
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
        self.base.generate(rng).filter(|v| (self.f)(v))
    }
}

// ----- primitive range strategies -----------------------------------------

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> Option<$t> {
                Some(rng.rng().gen_range(self.clone()))
            }
        }
    )*};
}

impl_range_strategy!(f64, usize, u32, u64, i32, i64);

// ----- tuple strategies ----------------------------------------------------

macro_rules! impl_tuple_strategy {
    ($($s:ident/$v:ident),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Option<Self::Value> {
                let ($($s,)+) = self;
                $(let $v = $s.generate(rng)?;)+
                Some(($($v,)+))
            }
        }
    };
}

impl_tuple_strategy!(A / a);
impl_tuple_strategy!(A / a, B / b);
impl_tuple_strategy!(A / a, B / b, C / c);
impl_tuple_strategy!(A / a, B / b, C / c, D / d);
impl_tuple_strategy!(A / a, B / b, C / c, D / d, E / e);
impl_tuple_strategy!(A / a, B / b, C / c, D / d, E / e, F / f);

// ----- collections ---------------------------------------------------------

pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;
    use std::fmt::Debug;
    use std::ops::Range;

    /// Length specifications accepted by [`vec()`].
    pub trait IntoLenRange {
        fn bounds(self) -> (usize, usize); // [lo, hi) half-open
    }

    impl IntoLenRange for Range<usize> {
        fn bounds(self) -> (usize, usize) {
            (self.start, self.end)
        }
    }

    impl IntoLenRange for usize {
        fn bounds(self) -> (usize, usize) {
            (self, self + 1)
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        lo: usize,
        hi: usize,
    }

    /// `prop::collection::vec(element, len_range)`.
    pub fn vec<S: Strategy>(element: S, len: impl IntoLenRange) -> VecStrategy<S> {
        let (lo, hi) = len.bounds();
        assert!(lo < hi, "empty length range");
        VecStrategy { element, lo, hi }
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: Debug,
    {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Option<Vec<S::Value>> {
            let len = if self.hi - self.lo == 1 {
                self.lo
            } else {
                rng.inner.gen_range(self.lo..self.hi)
            };
            let mut out = Vec::with_capacity(len);
            for _ in 0..len {
                out.push(self.element.generate(rng)?);
            }
            Some(out)
        }
    }
}

pub mod sample {
    use super::{Strategy, TestRng};
    use rand::Rng;
    use std::fmt::Debug;

    pub struct Select<T> {
        options: Vec<T>,
    }

    /// `prop::sample::select(options)` — uniform choice of one element.
    #[must_use]
    pub fn select<T: Clone + Debug>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select from an empty set");
        Select { options }
    }

    impl<T: Clone + Debug> Strategy for Select<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> Option<T> {
            let i = rng.inner.gen_range(0..self.options.len());
            Some(self.options[i].clone())
        }
    }
}

// ----- macros ---------------------------------------------------------------

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        let __prop_cond: bool = $cond;
        if !__prop_cond {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)*)));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                $crate::prop_assert!(
                    *l == *r,
                    "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                    stringify!($left),
                    stringify!($right),
                    l,
                    r
                );
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)*) => {
        match (&$left, &$right) {
            (l, r) => {
                $crate::prop_assert!(*l == *r, $($fmt)*);
            }
        }
    };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                $crate::prop_assert!(
                    *l != *r,
                    "assertion failed: `{} != {}`\n  both: {:?}",
                    stringify!($left),
                    stringify!($right),
                    l
                );
            }
        }
    };
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        let __prop_cond: bool = $cond;
        if !__prop_cond {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

/// The test-harness macro. Mirrors `proptest::proptest!`: an optional
/// `#![proptest_config(..)]` header followed by `#[test]` functions whose
/// arguments are drawn from strategies via `name in strategy` syntax.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr); ) => {};
    (($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::from_name(
                concat!(module_path!(), "::", stringify!($name)),
            );
            let mut accepted: u32 = 0;
            let mut rejected: u64 = 0;
            let max_rejects: u64 = 1024 + 64 * u64::from(config.cases);
            while accepted < config.cases {
                $(
                    let ::std::option::Option::Some($arg) =
                        $crate::Strategy::generate(&($strat), &mut rng)
                    else {
                        rejected += 1;
                        assert!(
                            rejected <= max_rejects,
                            "too many rejected cases in {}",
                            stringify!($name)
                        );
                        continue;
                    };
                )+
                let __case_desc = format!(
                    concat!($(stringify!($arg), " = {:?}\n"),+),
                    $(&$arg),+
                );
                let __outcome: ::std::result::Result<(), $crate::TestCaseError> =
                    (move || {
                        $body
                        #[allow(unreachable_code)]
                        ::std::result::Result::Ok(())
                    })();
                match __outcome {
                    ::std::result::Result::Ok(()) => accepted += 1,
                    ::std::result::Result::Err($crate::TestCaseError::Reject) => {
                        rejected += 1;
                        assert!(
                            rejected <= max_rejects,
                            "too many rejected cases in {}",
                            stringify!($name)
                        );
                    }
                    ::std::result::Result::Err($crate::TestCaseError::Fail(msg)) => {
                        panic!(
                            "proptest case failed: {msg}\ninputs:\n{desc}",
                            msg = msg,
                            desc = __case_desc
                        );
                    }
                }
            }
        }
        $crate::__proptest_impl! { ($cfg); $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_in_bounds(x in -5.0f64..5.0, n in 1usize..40) {
            prop_assert!((-5.0..5.0).contains(&x));
            prop_assert!((1..40).contains(&n));
        }

        #[test]
        fn tuples_and_map(v in (0.0f64..1.0, 0.0f64..1.0).prop_map(|(a, b)| a + b)) {
            prop_assert!((0.0..2.0).contains(&v));
        }

        #[test]
        fn vec_lengths(xs in prop::collection::vec(0u32..10, 3..7)) {
            prop_assert!(xs.len() >= 3 && xs.len() < 7);
            for &x in &xs {
                prop_assert!(x < 10);
            }
        }

        #[test]
        fn select_picks_member(s in prop::sample::select(vec![-1.0f64, 1.0])) {
            prop_assert!(s == -1.0 || s == 1.0);
        }

        #[test]
        fn filter_and_assume(x in (-1.0f64..1.0).prop_filter("nonzero", |v| v.abs() > 1e-3)) {
            prop_assume!(x < 0.9);
            prop_assert!(x.abs() > 1e-3);
            prop_assert_eq!(x, x);
            prop_assert_ne!(x, x + 1.0);
        }
    }

    #[test]
    fn deterministic_rng_per_name() {
        use rand::Rng;
        let mut a = crate::TestRng::from_name("some::test");
        let mut b = crate::TestRng::from_name("some::test");
        assert_eq!(a.inner.gen::<u64>(), b.inner.gen::<u64>());
    }
}
