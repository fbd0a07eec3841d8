//! Seeded R11 violations: a waiver nothing checks. A comment waiver with
//! no live finding under it rots the inventory, unknown slugs are
//! rejected outright, and a deny-level lint may only be suppressed by an
//! `#[expect]` with a reason, which rustc rejects once it goes stale.

/// Nothing here is a static any more; the waiver is stale.
// lint: allow(shared-state) was needed before the counter moved
pub fn sum(xs: &[u64]) -> u64 {
    xs.iter().sum()
}

/// Typo'd slug: never valid.
// lint: allow(no-such-rule) fat-fingered slug
pub fn id(x: u64) -> u64 {
    x
}

/// An `#[allow]` would stay silent once the comparison is fixed.
#[allow(clippy::float_cmp)]
pub fn saturated(p: f64) -> bool {
    p == 1.0
}

/// An `#[expect]` without a reason leaves the inventory unexplained.
#[expect(clippy::float_cmp)]
pub fn idle(p: f64) -> bool {
    p == 0.5
}
