//! The serving degradation ladder: how a prediction steps down when
//! parts of the online phase produce nothing usable.
//!
//! The paper's fusion (Eq. 14) already renormalizes `λ`/`δ` over
//! whichever of `SUIR'`, `SUR'`, `SIR'` are available; this module names
//! the rungs of that ladder explicitly and extends it below the last
//! estimator so an in-range request *always* produces a finite, on-scale
//! answer:
//!
//! 1. [`DegradeLevel::Full`] — all three estimators fused;
//! 2. [`DegradeLevel::PartialFusion`] — two estimators fused;
//! 3. [`DegradeLevel::SingleEstimator`] — one estimator alone;
//! 4. [`DegradeLevel::ClusterSmoothed`] — the cluster-smoothed cell value
//!    (Eq. 7–8), available whenever smoothing is on;
//! 5. [`DegradeLevel::UserMean`] — the user's mean rating;
//! 6. [`DegradeLevel::GlobalMean`] — the training matrix's global mean,
//!    the rung that cannot be missing.
//!
//! Every prediction reports the rung it was served from
//! ([`crate::PredictionBreakdown::level`]) and bumps the matching
//! `online.degrade.*` counter, so operators can alarm on a fleet quietly
//! sliding down the ladder.

/// The rung of the degradation ladder a prediction was served from.
/// Ordered best-first: `Full < PartialFusion < … < GlobalMean`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DegradeLevel {
    /// All three Eq. 12 estimators were available and fused.
    Full,
    /// Exactly two estimators were available; `λ`/`δ` renormalized.
    PartialFusion,
    /// A single estimator carried the prediction alone.
    SingleEstimator,
    /// No estimator: served the cluster-smoothed cell value (Eq. 7–8).
    ClusterSmoothed,
    /// No estimator, no smoothed cell: served the user's mean rating.
    UserMean,
    /// Nothing user-specific at all: served the global mean rating.
    GlobalMean,
}

impl DegradeLevel {
    /// The rung for a fused prediction built from `available` estimators
    /// (1–3). Callers handle the zero-estimator rungs themselves.
    pub(crate) fn from_available(available: usize) -> Self {
        match available {
            3 => Self::Full,
            2 => Self::PartialFusion,
            _ => Self::SingleEstimator,
        }
    }

    /// Stable snake_case name, matching the `online.degrade.*` counters.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Full => "full",
            Self::PartialFusion => "partial_fusion",
            Self::SingleEstimator => "single_estimator",
            Self::ClusterSmoothed => "cluster_smoothed",
            Self::UserMean => "user_mean",
            Self::GlobalMean => "global_mean",
        }
    }

    /// `true` when the prediction came from below the last estimator —
    /// the ladder's fallback region.
    pub fn is_fallback(self) -> bool {
        matches!(
            self,
            Self::ClusterSmoothed | Self::UserMean | Self::GlobalMean
        )
    }

    /// Stable single-byte code for the wire protocol (`cf-serve` ships
    /// the rung inside prediction frames). Best rung is `0`; codes are
    /// append-only so old routers understand new shards.
    pub fn code(self) -> u8 {
        match self {
            Self::Full => 0,
            Self::PartialFusion => 1,
            Self::SingleEstimator => 2,
            Self::ClusterSmoothed => 3,
            Self::UserMean => 4,
            Self::GlobalMean => 5,
        }
    }

    /// Inverse of [`code`](Self::code); `None` for bytes no rung owns.
    pub fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => Self::Full,
            1 => Self::PartialFusion,
            2 => Self::SingleEstimator,
            3 => Self::ClusterSmoothed,
            4 => Self::UserMean,
            5 => Self::GlobalMean,
            _ => return None,
        })
    }

    /// Bumps this rung's `online.degrade.*` counter. The `counter!` macro
    /// caches its handle per call site, so each rung needs its own
    /// literal-name call — a single dynamic-name site would bind every
    /// rung to whichever fired first. Public because the remote serving
    /// tier (`cf-serve`'s router) steps down the same ladder when a shard
    /// is unreachable, and its fallback answers must land in the same
    /// counters operators already alarm on.
    pub fn record(self) {
        match self {
            Self::Full => cf_obs::counter!("online.degrade.full").inc(),
            Self::PartialFusion => cf_obs::counter!("online.degrade.partial_fusion").inc(),
            Self::SingleEstimator => cf_obs::counter!("online.degrade.single_estimator").inc(),
            Self::ClusterSmoothed => cf_obs::counter!("online.degrade.cluster_smoothed").inc(),
            Self::UserMean => cf_obs::counter!("online.degrade.user_mean").inc(),
            Self::GlobalMean => cf_obs::counter!("online.degrade.global_mean").inc(),
        }
    }
}

impl std::fmt::Display for DegradeLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_best_first() {
        assert!(DegradeLevel::Full < DegradeLevel::PartialFusion);
        assert!(DegradeLevel::PartialFusion < DegradeLevel::SingleEstimator);
        assert!(DegradeLevel::SingleEstimator < DegradeLevel::ClusterSmoothed);
        assert!(DegradeLevel::ClusterSmoothed < DegradeLevel::UserMean);
        assert!(DegradeLevel::UserMean < DegradeLevel::GlobalMean);
    }

    #[test]
    fn from_available_maps_counts() {
        assert_eq!(DegradeLevel::from_available(3), DegradeLevel::Full);
        assert_eq!(DegradeLevel::from_available(2), DegradeLevel::PartialFusion);
        assert_eq!(
            DegradeLevel::from_available(1),
            DegradeLevel::SingleEstimator
        );
    }

    #[test]
    fn fallback_region_is_the_bottom_three_rungs() {
        assert!(!DegradeLevel::Full.is_fallback());
        assert!(!DegradeLevel::PartialFusion.is_fallback());
        assert!(!DegradeLevel::SingleEstimator.is_fallback());
        assert!(DegradeLevel::ClusterSmoothed.is_fallback());
        assert!(DegradeLevel::UserMean.is_fallback());
        assert!(DegradeLevel::GlobalMean.is_fallback());
    }

    #[test]
    fn names_are_stable_and_displayed() {
        assert_eq!(DegradeLevel::Full.as_str(), "full");
        assert_eq!(DegradeLevel::GlobalMean.to_string(), "global_mean");
    }

    #[test]
    fn wire_codes_round_trip_and_reject_unknown_bytes() {
        for level in [
            DegradeLevel::Full,
            DegradeLevel::PartialFusion,
            DegradeLevel::SingleEstimator,
            DegradeLevel::ClusterSmoothed,
            DegradeLevel::UserMean,
            DegradeLevel::GlobalMean,
        ] {
            assert_eq!(DegradeLevel::from_code(level.code()), Some(level));
        }
        assert_eq!(DegradeLevel::from_code(6), None);
        assert_eq!(DegradeLevel::from_code(255), None);
    }
}
