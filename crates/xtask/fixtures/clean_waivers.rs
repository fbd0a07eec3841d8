//! Clean fixture: every waivable rule (R7/R9/R10) present but properly
//! waived, a deny-level lint suppressed the one accepted way, plus
//! look-alike tokens that must NOT trigger (`'static` lifetimes,
//! `partial_cmp` impls, strings, comments). Every comment waiver below
//! suppresses a live finding — the selftest also strips the code and
//! asserts they all go stale.

use std::sync::atomic::AtomicU64;

/// Process-wide call counter, reviewed: order-insensitive telemetry.
// lint: allow(shared-state) order-insensitive host-side counter
static CALLS: AtomicU64 = AtomicU64::new(0);

/// Reviewed float sort: inputs are probabilities in [0,1], never NaN.
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    let _ = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    // lint: allow(float-comparator) no NaN by construction
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs
}

/// Fixture-only knob read outside `env.rs`, waived to prove R10 waives.
pub fn knob() -> Option<String> {
    // lint: allow(env-read) fixture demonstrates the waiver path
    std::env::var("ECNSHARP_FIXTURE").ok()
}

/// Comparing against an exact sentinel, reviewed: the compiler checks
/// that the expectation stays fulfilled, the lint counts it.
#[expect(
    clippy::float_cmp,
    reason = "1.5 is an exact sentinel, never computed"
)]
pub fn is_sentinel(p: f64) -> bool {
    p == 1.5
}

/// Near-misses that must stay silent: a `'static` bound is not a
/// `static` item, `"env::var"` is a string, and the comparator below is
/// a `PartialOrd` forward, not a sort.
pub fn near_misses(s: &'static str, a: &f64, b: &f64) -> Option<std::cmp::Ordering> {
    let _s = "std::env::var and static mut live in strings";
    let _ = s;
    a.partial_cmp(b)
}
