//! Exponential time decay.

/// Exponential decay with a half-life: a rating `age` time units old
/// weighs `0.5^(age / half_life)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decay {
    half_life: f64,
}

impl Decay {
    /// Creates a decay with the given half-life (same unit as the
    /// timestamps, e.g. seconds for MovieLens). Panics if non-positive.
    pub fn with_half_life(half_life: f64) -> Self {
        assert!(
            half_life.is_finite() && half_life > 0.0,
            "half-life must be positive, got {half_life}"
        );
        Self { half_life }
    }

    /// The weight of evidence recorded at `t`, evaluated at `now`.
    /// Future timestamps (clock skew) clamp to weight 1.
    #[inline]
    pub fn weight(&self, t: i64, now: i64) -> f64 {
        let age = (now - t).max(0) as f64;
        (-std::f64::consts::LN_2 * age / self.half_life).exp()
    }

    /// The configured half-life.
    pub fn half_life(&self) -> f64 {
        self.half_life
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn weight_halves_every_half_life() {
        let d = Decay::with_half_life(100.0);
        assert!((d.weight(1000, 1000) - 1.0).abs() < 1e-12);
        assert!((d.weight(900, 1000) - 0.5).abs() < 1e-12);
        assert!((d.weight(800, 1000) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn future_timestamps_clamp_to_one() {
        let d = Decay::with_half_life(100.0);
        assert_eq!(d.weight(2000, 1000), 1.0);
    }

    #[test]
    fn weight_is_monotone_in_age() {
        let d = Decay::with_half_life(37.0);
        let mut prev = f64::INFINITY;
        for age in 0..200 {
            let w = d.weight(1000 - age, 1000);
            assert!(w <= prev && w > 0.0);
            prev = w;
        }
    }

    #[test]
    #[should_panic(expected = "half-life must be positive")]
    fn zero_half_life_panics() {
        let _ = Decay::with_half_life(0.0);
    }
}
