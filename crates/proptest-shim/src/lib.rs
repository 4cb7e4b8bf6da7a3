//! A small, dependency-free stand-in for the `proptest` crate.
//!
//! The build environment has no access to a crates.io mirror, so the
//! workspace renames this crate to `proptest` via
//! `proptest = { package = "sb-proptest", path = ... }` and the test code
//! keeps its upstream-compatible spelling. Only the API surface the
//! workspace actually uses is provided:
//!
//! * the [`proptest!`] macro (with optional `#![proptest_config(..)]`),
//! * [`prop_assert!`] / [`prop_assert_eq!`],
//! * [`any`] for the primitive types and [`sample::Index`],
//! * integer `Range` strategies (`0u64..200`), tuple strategies,
//!   [`collection::vec`], and [`Strategy::prop_map`].
//!
//! Generation is deterministic: each test case derives its RNG seed from
//! the test's module path, name, and case index, so failures reproduce
//! across runs and machines. There is no shrinking — a failing case
//! panics with the generated inputs visible via `RUST_BACKTRACE`/debug
//! formatting in the assertion message.

#![forbid(unsafe_code)]

/// Deterministic 64-bit generator (SplitMix64). Good enough statistical
/// quality for fuzz-style input generation, and trivially reproducible.
#[derive(Clone, Debug)]
pub struct TestRng(u64);

impl TestRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        TestRng(seed)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform-ish value in `[0, n)`. `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }
}

/// Seeds a [`TestRng`] for one generated case of one named test.
pub fn rng_for(test_name: &str, case: u32) -> TestRng {
    // FNV-1a over the name, mixed with the case index.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    TestRng::new(h ^ ((case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)))
}

/// Per-test configuration. Only `cases` is honoured.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` generated inputs.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// A value generator. The workspace uses ranges, tuples,
/// [`collection::vec`], [`any`], and [`Strategy::prop_map`].
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// See [`Strategy::prop_map`].
#[derive(Clone, Debug)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u128) - (self.start as u128);
                let off = (rng.next_u64() as u128) % span;
                (self.start as u128 + off) as $t
            }
        }
    )*};
}
int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}
tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);

/// Types with a canonical full-domain strategy, used by [`any`].
pub trait Arbitrary: Sized {
    /// Generates one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! int_arbitrary {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// The strategy returned by [`any`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Any<T>(core::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Full-domain strategy for `T` (`any::<u64>()`, `any::<bool>()`, ...).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(core::marker::PhantomData)
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// See [`vec()`].
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        elem: S,
        len: core::ops::Range<usize>,
    }

    /// A `Vec` of `len`-range length whose elements come from `elem`.
    pub fn vec<S: Strategy>(elem: S, len: core::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = Strategy::generate(&self.len, rng);
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// Sampling helpers (`proptest::sample::Index`).
pub mod sample {
    use super::{Arbitrary, TestRng};

    /// An abstract index into a collection of not-yet-known size.
    #[derive(Clone, Copy, Debug)]
    pub struct Index(u64);

    impl Index {
        /// Resolves against a concrete collection length (must be > 0).
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on empty collection");
            (self.0 % len as u64) as usize
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut TestRng) -> Index {
            Index(rng.next_u64())
        }
    }
}

/// Everything a `use proptest::prelude::*;` caller expects.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, proptest, Arbitrary, ProptestConfig, Strategy,
    };
}

/// Asserts a condition inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert {
    ($($tok:tt)*) => { assert!($($tok)*) };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tok:tt)*) => { assert_eq!($($tok)*) };
}

/// Declares property tests. Each `fn name(arg in STRATEGY, ...) { .. }`
/// becomes a `#[test]` (the attribute is written at the call site, as in
/// upstream proptest) that loops over `cases` deterministic inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr;
     $($(#[$meta:meta])*
       fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg: $crate::ProptestConfig = $cfg;
                let __test = concat!(module_path!(), "::", stringify!($name));
                for __case in 0..__cfg.cases {
                    let mut __rng = $crate::rng_for(__test, __case);
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)+
                    $body
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn deterministic_rng() {
        let mut a = crate::rng_for("x", 3);
        let mut b = crate::rng_for("x", 3);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = crate::rng_for("x", 4);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn range_strategy_in_bounds() {
        let mut rng = crate::rng_for("range", 0);
        for _ in 0..1000 {
            let v = Strategy::generate(&(3u64..17), &mut rng);
            assert!((3..17).contains(&v));
        }
    }

    #[test]
    fn vec_strategy_len_in_bounds() {
        let mut rng = crate::rng_for("vec", 0);
        let s = crate::collection::vec(any::<u8>(), 2..9);
        for _ in 0..200 {
            let v = s.generate(&mut rng);
            assert!((2..9).contains(&v.len()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro itself: tuples, prop_map, and assertions all work.
        #[test]
        fn macro_roundtrip(
            pair in (0u16..8, 0u64..100).prop_map(|(a, b)| (a as u64, b)),
            idx in any::<crate::sample::Index>(),
            bytes in crate::collection::vec(any::<u8>(), 1..16),
        ) {
            prop_assert!(pair.0 < 8 && pair.1 < 100);
            prop_assert!(idx.index(bytes.len()) < bytes.len());
            prop_assert!((1..16).contains(&bytes.len()));
        }
    }
}
