//! Seeded R9 violation: a panicking float comparator where `total_cmp`
//! gives a total order.

/// Panics on NaN and under-orders floats; use `f64::total_cmp`.
pub fn rank(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs
}

/// A `PartialOrd` impl mentioning `partial_cmp` must stay silent.
pub fn forward(a: &f64, b: &f64) -> Option<std::cmp::Ordering> {
    a.partial_cmp(b)
}
