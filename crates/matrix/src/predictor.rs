//! The `Predictor` trait shared by CFSF and every baseline, and the
//! rating-scale helpers used to clamp predictions.

use crate::{ItemId, UserId};

/// Inclusive rating scale (MovieLens uses 1..=5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatingScale {
    /// Smallest expressible rating.
    pub min: f64,
    /// Largest expressible rating.
    pub max: f64,
}

impl RatingScale {
    /// A scale from `min` to `max` inclusive. Panics if the bounds are not
    /// finite and ordered.
    pub fn new(min: f64, max: f64) -> Self {
        assert!(
            min.is_finite() && max.is_finite() && min < max,
            "invalid rating scale [{min}, {max}]"
        );
        Self { min, max }
    }

    /// The MovieLens 1..=5 star scale used throughout the paper.
    pub const fn one_to_five() -> Self {
        Self { min: 1.0, max: 5.0 }
    }

    /// `true` if `r` lies on the scale.
    #[inline]
    pub fn contains(&self, r: f64) -> bool {
        r >= self.min && r <= self.max
    }

    /// Clamps `r` onto the scale. Non-finite inputs clamp to the midpoint,
    /// so a degenerate similarity sum can never poison MAE with NaN.
    #[inline]
    pub fn clamp(&self, r: f64) -> f64 {
        if r.is_finite() {
            r.clamp(self.min, self.max)
        } else {
            self.midpoint()
        }
    }

    /// Midpoint of the scale (3.0 for MovieLens).
    #[inline]
    pub fn midpoint(&self) -> f64 {
        0.5 * (self.min + self.max)
    }
}

impl Default for RatingScale {
    fn default() -> Self {
        Self::one_to_five()
    }
}

/// Clamps a raw prediction onto the 1..=5 MovieLens scale.
///
/// Convenience for the common case; prefer [`RatingScale::clamp`] when the
/// scale travels with the matrix.
#[inline]
pub fn clamp_rating(r: f64) -> f64 {
    RatingScale::one_to_five().clamp(r)
}

/// A trained collaborative-filtering model that can score (user, item)
/// pairs.
///
/// Every algorithm in this workspace — CFSF and the seven comparators from
/// the paper's evaluation — implements this trait, which is what lets the
/// evaluation harness regenerate Tables II/III and Figures 2–8 with one
/// generic loop.
pub trait Predictor: Send + Sync {
    /// Predicts the rating `user` would give `item`.
    ///
    /// Returns `None` only when the model has *no* signal at all for the
    /// pair (e.g. an unknown user with no profile and no fallback). All
    /// implementations clamp onto the training matrix's rating scale.
    fn predict(&self, user: UserId, item: ItemId) -> Option<f64>;

    /// Short algorithm name used in experiment reports ("CFSF", "SUR", ...).
    fn name(&self) -> &'static str;

    /// Predicts with a guaranteed value, falling back to `fallback` when
    /// the model abstains. The paper's MAE protocol scores every holdout
    /// cell, so abstentions must become *some* number.
    fn predict_or(&self, user: UserId, item: ItemId, fallback: f64) -> f64 {
        self.predict(user, item).unwrap_or(fallback)
    }
}

impl<P: Predictor + ?Sized> Predictor for &P {
    fn predict(&self, user: UserId, item: ItemId) -> Option<f64> {
        (**self).predict(user, item)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

impl<P: Predictor + ?Sized> Predictor for Box<P> {
    fn predict(&self, user: UserId, item: ItemId) -> Option<f64> {
        (**self).predict(user, item)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn scale_contains_and_clamp() {
        let s = RatingScale::one_to_five();
        assert!(s.contains(1.0) && s.contains(5.0) && s.contains(3.3));
        assert!(!s.contains(0.9) && !s.contains(5.1));
        assert_eq!(s.clamp(7.0), 5.0);
        assert_eq!(s.clamp(-2.0), 1.0);
        assert_eq!(s.clamp(4.2), 4.2);
    }

    #[test]
    fn clamp_handles_non_finite() {
        let s = RatingScale::one_to_five();
        assert_eq!(s.clamp(f64::NAN), 3.0);
        assert_eq!(s.clamp(f64::INFINITY), 3.0);
        assert_eq!(clamp_rating(f64::NEG_INFINITY), 3.0);
    }

    #[test]
    #[should_panic(expected = "invalid rating scale")]
    fn inverted_scale_panics() {
        let _ = RatingScale::new(5.0, 1.0);
    }

    struct Always(f64);
    impl Predictor for Always {
        fn predict(&self, _: UserId, _: ItemId) -> Option<f64> {
            if self.0.is_nan() {
                None
            } else {
                Some(self.0)
            }
        }
        fn name(&self) -> &'static str {
            "always"
        }
    }

    #[test]
    fn predict_or_falls_back_on_abstention() {
        let p = Always(f64::NAN);
        assert_eq!(p.predict_or(UserId::new(0), ItemId::new(0), 3.0), 3.0);
        let p = Always(4.0);
        assert_eq!(p.predict_or(UserId::new(0), ItemId::new(0), 3.0), 4.0);
    }

    #[test]
    fn blanket_impls_delegate() {
        let p = Always(2.0);
        let r: &dyn Predictor = &p;
        assert_eq!(r.predict(UserId::new(0), ItemId::new(0)), Some(2.0));
        let b: Box<dyn Predictor> = Box::new(Always(1.5));
        assert_eq!(b.name(), "always");
        assert_eq!(b.predict(UserId::new(1), ItemId::new(1)), Some(1.5));
    }
}
