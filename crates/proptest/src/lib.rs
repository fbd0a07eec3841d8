//! # proptest (local deterministic shim)
//!
//! A std-only, registry-free stand-in for the `proptest` crate exposing the
//! subset of its API this workspace uses: the [`proptest!`] macro,
//! [`prop_assert!`]/[`prop_assert_eq!`]/[`prop_assert_ne!`], range and tuple
//! [`Strategy`] impls, [`collection::vec`], [`Just`], [`any`], and
//! [`ProptestConfig`].
//!
//! Two deliberate differences from upstream, both in service of the
//! workspace's determinism contract (see README "Static analysis &
//! invariants"):
//!
//! 1. **Fully deterministic by default.** Upstream proptest seeds its RNG
//!    from the OS; this shim derives every test's RNG from a fixed seed and
//!    the test's name, so `cargo test` explores the *same* cases on every
//!    machine, every run. Set `PROPTEST_SEED=<u64>` to explore a different
//!    universe, and `PROPTEST_CASES=<n>` to change the per-test case count.
//! 2. **No shrinking.** On failure the shim prints the complete generated
//!    inputs (they are reproducible verbatim from the printed seed) and
//!    re-raises the panic, instead of searching for a smaller case.
//!
//! ```
//! use proptest::prelude::*;
//!
//! # fn main() {
//! proptest! {
//!     # #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]
//!     fn addition_commutes(a in 0u64..1_000, b in 0u64..1_000) {
//!         prop_assert_eq!(a + b, b + a);
//!     }
//! }
//! addition_commutes();
//! # }
//! ```

pub mod collection;
pub mod strategy;

pub use strategy::{any, Arbitrary, Just, Map, Strategy};

/// Per-test configuration accepted by `#![proptest_config(..)]`.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
    /// Base seed mixed with the test name to derive the per-test RNG.
    pub seed: u64,
}

impl ProptestConfig {
    /// Default base seed; chosen once, forever. Override with
    /// `PROPTEST_SEED`.
    pub const DEFAULT_SEED: u64 = 0xEC45_A12D ^ 0x9E37_79B9_7F4A_7C15;

    /// Configuration running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig {
            cases,
            ..Self::default()
        }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64);
        let seed = std::env::var("PROPTEST_SEED")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(Self::DEFAULT_SEED);
        ProptestConfig { cases, seed }
    }
}

/// Error type kept for API compatibility with upstream `prop_assert!`
/// signatures; the shim's assertion macros panic instead of returning it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestCaseError(pub String);

/// Result alias kept for API compatibility.
pub type TestCaseResult = Result<(), TestCaseError>;

/// The deterministic RNG driving every strategy (SplitMix64).
///
/// Not exported to simulation code — sim randomness must flow through
/// `ecnsharp_sim::Rng`; this generator only feeds test-case generation.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Derive the RNG for `test_name` from `base_seed` (FNV-1a mix, so two
    /// properties in one file never share a stream).
    pub fn for_test(test_name: &str, base_seed: u64) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng {
            state: base_seed ^ h,
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "empty sampling range");
        // Modulo bias is irrelevant for test-case generation.
        self.next_u64() % bound
    }
}

/// Run one property `cases` times. Called by the [`proptest!`] expansion;
/// not intended for direct use.
#[doc(hidden)]
pub fn run_cases(config: &ProptestConfig, name: &str, mut case: impl FnMut(u32, &mut TestRng)) {
    let mut rng = TestRng::for_test(name, config.seed);
    for idx in 0..config.cases {
        case(idx, &mut rng);
    }
}

/// Report a failing case before re-raising its panic. Called by the
/// [`proptest!`] expansion; not intended for direct use.
#[doc(hidden)]
pub fn report_failure(name: &str, config: &ProptestConfig, idx: u32, inputs: &str) {
    eprintln!(
        "[proptest shim] property `{name}` failed at case {}/{} \
         (seed {:#x}); generated inputs: {inputs}",
        idx + 1,
        config.cases,
        config.seed,
    );
}

/// Define deterministic property tests over sampled inputs.
///
/// Supports the upstream surface used in this workspace: an optional
/// leading `#![proptest_config(expr)]`, doc comments, `#[test]`, and
/// `name in strategy` parameter lists.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { cfg = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (cfg = ($cfg:expr);) => {};
    (cfg = ($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            $crate::run_cases(&__config, stringify!($name), |__idx, __rng| {
                $(let $arg = $crate::Strategy::sample(&($strat), __rng);)+
                let __inputs = format!(
                    concat!($(stringify!($arg), " = {:?}; "),+),
                    $(&$arg),+
                );
                // Upstream property bodies may `return Ok(())` early, so the
                // case closure returns a TestCaseResult with an implicit
                // trailing Ok.
                let __case = move || -> $crate::TestCaseResult {
                    $body
                    Ok(())
                };
                let __outcome = ::std::panic::catch_unwind(
                    ::std::panic::AssertUnwindSafe(__case),
                );
                match __outcome {
                    Ok(Ok(())) => {}
                    Ok(Err(e)) => {
                        $crate::report_failure(stringify!($name), &__config, __idx, &__inputs);
                        panic!("property returned failure: {:?}", e);
                    }
                    Err(payload) => {
                        $crate::report_failure(stringify!($name), &__config, __idx, &__inputs);
                        ::std::panic::resume_unwind(payload);
                    }
                }
            });
        }
        $crate::__proptest_items! { cfg = ($cfg); $($rest)* }
    };
}

/// Assert a condition inside a property (panics on failure, like
/// `assert!`, after the harness prints the generated inputs).
#[macro_export]
macro_rules! prop_assert {
    ($($arg:tt)+) => { assert!($($arg)+) };
}

/// Equality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($arg:tt)+) => { assert_eq!($($arg)+) };
}

/// Inequality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($arg:tt)+) => { assert_ne!($($arg)+) };
}

/// The glob-imported prelude, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary, Just,
        ProptestConfig, Strategy, TestCaseError, TestCaseResult,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::TestRng;

    #[test]
    fn rng_is_deterministic_per_name() {
        let mut a = TestRng::for_test("x", 1);
        let mut b = TestRng::for_test("x", 1);
        let mut c = TestRng::for_test("y", 1);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc, "different tests must get different streams");
    }

    #[test]
    fn below_respects_bound() {
        let mut r = TestRng::for_test("bound", 7);
        for _ in 0..1_000 {
            assert!(r.below(13) < 13);
        }
    }

    proptest! {
        /// The macro itself round-trips: ranges stay in bounds and vec
        /// lengths honour their size range.
        #[test]
        fn macro_generates_in_bounds(
            x in 10u64..20,
            v in collection::vec(0u32..5, 2..6),
            pair in (0usize..3, 100u64..200),
        ) {
            prop_assert!((10..20).contains(&x));
            prop_assert!((2..6).contains(&v.len()));
            prop_assert!(v.iter().all(|&e| e < 5));
            prop_assert!(pair.0 < 3);
            prop_assert!((100..200).contains(&pair.1), "pair.1 = {}", pair.1);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]
        /// `with_cases` limits the number of generated cases.
        #[test]
        fn config_is_honoured(_x in 0u8..10) {
            // Body intentionally trivial; the case budget is what matters.
        }
    }

    #[test]
    fn same_seed_same_cases() {
        fn collect() -> Vec<u64> {
            let cfg = ProptestConfig {
                cases: 16,
                seed: 42,
            };
            let mut out = vec![];
            crate::run_cases(&cfg, "capture", |_i, rng| {
                out.push(crate::Strategy::sample(&(0u64..1_000_000), rng));
            });
            out
        }
        assert_eq!(collect(), collect());
    }
}
