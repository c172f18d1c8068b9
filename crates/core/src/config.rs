//! CFSF hyper-parameters.

use cf_cluster::KMeansConfig;
use cf_matrix::PlanePrecision;
use cf_similarity::GisConfig;

use crate::CfsfError;

/// All CFSF hyper-parameters. [`CfsfConfig::paper`] reproduces the values
/// the paper uses for MovieLens (§V-C.1): `C=30, λ=0.8, δ=0.1, K=25,
/// M=95, w=0.35`.
#[derive(Debug, Clone)]
pub struct CfsfConfig {
    /// Number of user clusters `C`.
    pub clusters: usize,
    /// Fusion weight between `SIR'` and `SUR'` (Eq. 14): `λ=0` ignores
    /// `SUR'`, `λ=1` ignores `SIR'`.
    pub lambda: f64,
    /// Fusion weight of `SUIR'` against the other two (Eq. 14).
    pub delta: f64,
    /// Number of like-minded users `K` in the local matrix.
    pub k: usize,
    /// Number of similar items `M` in the local matrix.
    pub m: usize,
    /// The smoothing-discount parameter `w` of Eq. 11 (called ε there):
    /// original ratings weigh `w`, smoothed ones `1-w`.
    pub w: f64,
    /// Candidate pool size as a multiple of `K`: the online phase walks
    /// iCluster until it has `candidate_factor · K` candidates before
    /// ranking them with Eq. 10. Larger pools cost more per request but
    /// approximate a whole-matrix search better.
    pub candidate_factor: usize,
    /// GIS construction parameters (threshold, neighbor cap, threads).
    pub gis: GisConfig,
    /// K-means iteration cap.
    pub kmeans_iterations: usize,
    /// Seed for K-means initialization.
    pub seed: u64,
    /// Worker threads for the offline phase (`None` = auto).
    pub threads: Option<usize>,
    /// Whether to smooth unrated cells (Eq. 7). Turning this off is the
    /// "no smoothing" ablation: candidates and estimators then see only
    /// original ratings.
    pub use_smoothing: bool,
    /// Storage precision of the serving weight planes. It has one value:
    /// the planes are always 16-bit cells (DESIGN.md §6c), and nothing in
    /// the model reads this field. It remains only because the
    /// benchmark's offline-phase replay (`cfbench/src/profile.rs`) passes
    /// it to [`cf_matrix::WeightPlanes::from_dense_with`]; once that call
    /// uses `from_dense`, the field goes.
    pub plane_precision: PlanePrecision,
}

impl Default for CfsfConfig {
    fn default() -> Self {
        Self::paper()
    }
}

impl CfsfConfig {
    /// The paper's MovieLens parameterization.
    pub fn paper() -> Self {
        Self {
            clusters: 30,
            lambda: 0.8,
            delta: 0.1,
            k: 25,
            m: 95,
            w: 0.35,
            candidate_factor: 4,
            gis: GisConfig::default(),
            kmeans_iterations: 20,
            seed: 42,
            threads: None,
            use_smoothing: true,
            plane_precision: PlanePrecision::default(),
        }
    }

    /// A scaled-down configuration for small test matrices.
    pub fn small() -> Self {
        Self {
            clusters: 4,
            k: 10,
            m: 20,
            ..Self::paper()
        }
    }

    /// Validates ranges; called by [`crate::Cfsf::fit`].
    pub fn validate(&self) -> Result<(), CfsfError> {
        fn unit(name: &'static str, v: f64) -> Result<(), CfsfError> {
            if !(0.0..=1.0).contains(&v) || !v.is_finite() {
                return Err(CfsfError::InvalidParameter {
                    name,
                    message: format!("{v} is outside [0, 1]"),
                });
            }
            Ok(())
        }
        unit("lambda", self.lambda)?;
        unit("delta", self.delta)?;
        unit("w", self.w)?;
        if self.clusters == 0 {
            return Err(CfsfError::InvalidParameter {
                name: "clusters",
                message: "must be at least 1".into(),
            });
        }
        if self.k == 0 {
            return Err(CfsfError::InvalidParameter {
                name: "k",
                message: "must be at least 1".into(),
            });
        }
        if self.m == 0 {
            return Err(CfsfError::InvalidParameter {
                name: "m",
                message: "must be at least 1".into(),
            });
        }
        if self.candidate_factor == 0 {
            return Err(CfsfError::InvalidParameter {
                name: "candidate_factor",
                message: "must be at least 1".into(),
            });
        }
        // Zero rounds would leave every user in its round-robin seat
        // `u % C`: a model without clustering that reads as a fitted one.
        if self.kmeans_iterations == 0 {
            return Err(CfsfError::InvalidParameter {
                name: "kmeans_iterations",
                message: "must be at least 1".into(),
            });
        }
        Ok(())
    }

    /// The GIS construction parameters every (re)build uses: the neighbor
    /// cap widened to accommodate `M`, and the offline thread count
    /// inherited unless the GIS config sets its own.
    pub(crate) fn gis_config(&self) -> GisConfig {
        let mut gis = self.gis.clone();
        if let Some(cap) = gis.max_neighbors {
            gis.max_neighbors = Some(cap.max(self.m));
        }
        gis.threads = gis.threads.or(self.threads);
        gis
    }

    /// The K-means configuration the offline phase clusters users with —
    /// seeded, so the same config and matrix give the same assignment.
    pub(crate) fn kmeans_config(&self) -> KMeansConfig {
        KMeansConfig {
            k: self.clusters,
            max_iterations: self.kmeans_iterations,
            seed: self.seed,
            threads: self.threads,
            ..KMeansConfig::default()
        }
    }

    /// Builder-style override of `λ`.
    #[must_use]
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }

    /// Builder-style override of `δ`.
    #[must_use]
    pub fn with_delta(mut self, delta: f64) -> Self {
        self.delta = delta;
        self
    }

    /// Builder-style override of `w`.
    #[must_use]
    pub fn with_w(mut self, w: f64) -> Self {
        self.w = w;
        self
    }

    /// Builder-style override of `M`.
    #[must_use]
    pub fn with_m(mut self, m: usize) -> Self {
        self.m = m;
        self
    }

    /// Builder-style override of `K`.
    #[must_use]
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Builder-style override of the cluster count `C`.
    #[must_use]
    pub fn with_clusters(mut self, clusters: usize) -> Self {
        self.clusters = clusters;
        self
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_five() {
        let c = CfsfConfig::paper();
        assert_eq!(c.clusters, 30);
        assert_eq!(c.lambda, 0.8);
        assert_eq!(c.delta, 0.1);
        assert_eq!(c.k, 25);
        assert_eq!(c.m, 95);
        assert_eq!(c.w, 0.35);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_ranges() {
        assert!(CfsfConfig::paper().with_lambda(1.5).validate().is_err());
        assert!(CfsfConfig::paper().with_delta(-0.1).validate().is_err());
        assert!(CfsfConfig::paper().with_w(f64::NAN).validate().is_err());
        assert!(CfsfConfig::paper().with_m(0).validate().is_err());
        assert!(CfsfConfig::paper().with_k(0).validate().is_err());
        assert!(CfsfConfig::paper().with_clusters(0).validate().is_err());
        let mut c = CfsfConfig::paper();
        c.candidate_factor = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_zero_kmeans_iterations() {
        let mut c = CfsfConfig::small();
        c.kmeans_iterations = 0;
        assert!(matches!(
            c.validate(),
            Err(CfsfError::InvalidParameter {
                name: "kmeans_iterations",
                ..
            })
        ));
        c.kmeans_iterations = 1;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builders_override_single_fields() {
        let c = CfsfConfig::paper().with_m(50).with_k(40).with_lambda(0.5);
        assert_eq!(c.m, 50);
        assert_eq!(c.k, 40);
        assert_eq!(c.lambda, 0.5);
        assert_eq!(c.delta, 0.1); // untouched
    }

    #[test]
    fn plane_precision_defaults_to_u16() {
        assert_eq!(CfsfConfig::paper().plane_precision, PlanePrecision::U16);
        assert_eq!(CfsfConfig::small().plane_precision, PlanePrecision::U16);
    }
}
