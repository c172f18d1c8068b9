//! Float comparison helpers — the sanctioned way to compare floats for
//! approximate "equality" in this workspace.
//!
//! Clippy's `float_cmp` (denied workspace-wide) forbids raw `==`/`!=`
//! between floats in production code; call these instead, or say what
//! an exact compare means (`to_bits()` for identity, `total_cmp` for
//! order). The tolerance is absolute-or-relative: two values compare
//! equal when they are within `eps` of each other absolutely, or within
//! `eps` relative to the larger magnitude (so the helper works for both
//! rating-scale values around 1–5 and accumulated sums).

/// Default tolerance: loose enough to absorb accumulation order, tight
/// enough to distinguish any two distinct ratings on a half-star scale.
pub const DEFAULT_EPS: f64 = 1e-9;

/// True when `a` and `b` are equal to within `eps` (absolute or
/// relative, whichever is more permissive). NaN never compares equal.
#[must_use]
#[expect(
    clippy::float_cmp,
    reason = "exact equality is the fast path and the only test that equates same-sign infinities"
)]
pub fn approx_eq_eps(a: f64, b: f64, eps: f64) -> bool {
    // Fast path for exact equality (also covers infinities of the same
    // sign); NaN falls through and the diff comparisons reject it.
    if a == b {
        return true;
    }
    let diff = (a - b).abs();
    diff <= eps || diff <= eps * a.abs().max(b.abs())
}

/// [`approx_eq_eps`] at [`DEFAULT_EPS`].
#[must_use]
pub fn approx_eq(a: f64, b: f64) -> bool {
    approx_eq_eps(a, b, DEFAULT_EPS)
}

/// True when `x` is within [`DEFAULT_EPS`] of zero.
#[must_use]
pub fn approx_zero(x: f64) -> bool {
    x.abs() <= DEFAULT_EPS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_and_near_values_compare_equal() {
        assert!(approx_eq(1.5, 1.5));
        assert!(approx_eq(1.5, 1.5 + 1e-12));
        assert!(approx_eq(0.0, -0.0));
        assert!(approx_eq(f64::INFINITY, f64::INFINITY));
    }

    #[test]
    fn distinct_ratings_stay_distinct() {
        assert!(!approx_eq(1.5, 2.0));
        assert!(!approx_eq(4.999, 5.0));
        assert!(!approx_eq(0.0, 1e-6));
    }

    #[test]
    fn relative_tolerance_scales_with_magnitude() {
        let big = 1e12;
        assert!(approx_eq(big, big + 1e2));
        assert!(!approx_eq(big, big + 1e5));
    }

    #[test]
    fn nan_never_equal() {
        assert!(!approx_eq(f64::NAN, f64::NAN));
        assert!(!approx_eq(f64::NAN, 0.0));
    }

    #[test]
    fn approx_zero_bounds() {
        assert!(approx_zero(0.0));
        assert!(approx_zero(-1e-12));
        assert!(!approx_zero(1e-6));
    }
}
