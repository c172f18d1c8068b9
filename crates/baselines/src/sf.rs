//! SF — Similarity Fusion (Wang, de Vries & Reinders, SIGIR 2006), as the
//! CFSF paper frames it (Eq. 4 / Fig. 1a).
//!
//! SF unifies item-based and user-based CF by fusing three rating sources
//! over the **entire** matrix: SIR (same user, similar items), SUR
//! (similar users, same item) and SUIR (similar users, similar items).
//! The original paper derives the combination probabilistically; the CFSF
//! paper abstracts it as a fusion function `£{SIR, SUR, SUIR}` with
//! weights, which is what we implement — identical estimator shapes to
//! CFSF's Eq. 12 but with *global* neighborhoods, no clustering, no
//! smoothing, and no locality reduction. The per-request cost is what
//! makes SF slow, which is precisely the comparison the paper draws.

use cf_matrix::{ItemId, Predictor, RatingMatrix, UserId};
use cf_similarity::{pair_weight, user_pcc, Gis, GisConfig};

use crate::common::{fallback_rating, in_range};

/// Configuration for [`SimilarityFusion`].
#[derive(Debug, Clone)]
pub struct SfConfig {
    /// Weight between the item-based and user-based estimators
    /// (λ in Eq. 14's sense). Wang et al. found user evidence slightly
    /// more reliable; 0.6 is a reasonable default.
    pub lambda: f64,
    /// Weight of the SUIR cross term (δ in Eq. 14's sense).
    pub delta: f64,
    /// Similar items considered per request (global top-N by PCC).
    pub top_items: usize,
    /// Similar users considered per request (global top-N by PCC).
    pub top_users: usize,
    /// GIS build parameters.
    pub gis: GisConfig,
}

impl Default for SfConfig {
    fn default() -> Self {
        Self {
            lambda: 0.6,
            delta: 0.15,
            top_items: 50,
            top_users: 50,
            gis: GisConfig::default(),
        }
    }
}

/// Cached per-user neighbor list, shared across requests.
type UserCache =
    std::sync::RwLock<std::collections::HashMap<UserId, std::sync::Arc<Vec<(UserId, f64)>>>>;

/// The SF baseline.
#[derive(Debug)]
pub struct SimilarityFusion {
    matrix: RatingMatrix,
    gis: Gis,
    config: SfConfig,
    /// Per-user neighbor cache. SF itself searches the whole matrix per
    /// request; caching the (item-independent) result keeps the MAE
    /// harness affordable without changing any prediction.
    user_cache: UserCache,
}

impl SimilarityFusion {
    /// Precomputes item similarities; user similarities are computed per
    /// request over the whole matrix (that is SF's cost profile).
    pub fn fit(matrix: &RatingMatrix, config: SfConfig) -> Self {
        let gis = Gis::build(matrix, &config.gis);
        Self {
            matrix: matrix.clone(),
            gis,
            config,
            user_cache: UserCache::default(),
        }
    }

    /// Fits with defaults.
    pub fn fit_default(matrix: &RatingMatrix) -> Self {
        Self::fit(matrix, SfConfig::default())
    }

    /// The `top_users` most similar users to `user`, searched over the
    /// entire user population (no clustering shortcut), cached per user.
    fn global_top_users(&self, user: UserId) -> std::sync::Arc<Vec<(UserId, f64)>> {
        if let Some(hit) = self.user_cache.read().expect("cache lock").get(&user) {
            return std::sync::Arc::clone(hit);
        }
        let computed = std::sync::Arc::new(self.compute_top_users(user));
        std::sync::Arc::clone(
            self.user_cache
                .write()
                .expect("cache lock")
                .entry(user)
                .or_insert(computed),
        )
    }

    fn compute_top_users(&self, user: UserId) -> Vec<(UserId, f64)> {
        let m = &self.matrix;
        let mut scored: Vec<(UserId, f64)> = m
            .users()
            .filter(|&u| u != user)
            .filter_map(|u| {
                let s = user_pcc(m, user, u);
                (s > 0.0).then_some((u, s))
            })
            .collect();
        scored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("similarities are finite")
                .then(a.0.cmp(&b.0))
        });
        scored.truncate(self.config.top_users);
        scored
    }
}

impl Predictor for SimilarityFusion {
    fn predict(&self, user: UserId, item: ItemId) -> Option<f64> {
        if !in_range(&self.matrix, user, item) {
            return None;
        }
        let m = &self.matrix;
        let similar_items = self.gis.top_m(item, self.config.top_items);
        let similar_users = self.global_top_users(user);

        // SIR over the global item neighborhood.
        let mut num = 0.0;
        let mut den = 0.0;
        for &(i_c, s) in similar_items {
            if let Some(r) = m.get(user, i_c) {
                num += s * r;
                den += s;
            }
        }
        let sir = (den > f64::EPSILON).then(|| num / den);

        // SUR over the global user neighborhood (mean-centered).
        let mut num = 0.0;
        let mut den = 0.0;
        for &(u_c, s) in similar_users.iter() {
            if let Some(r) = m.get(u_c, item) {
                num += s * (r - m.user_mean(u_c));
                den += s;
            }
        }
        let sur = (den > f64::EPSILON).then(|| m.user_mean(user) + num / den);

        // SUIR: similar users on similar items, Eq. 13 pair weight (the
        // CFSF paper defines Eq. 3's weight by reference to Eq. 13).
        let mut num = 0.0;
        let mut den = 0.0;
        for &(u_t, su) in similar_users.iter() {
            for &(i_s, si) in similar_items {
                let Some(r) = m.get(u_t, i_s) else { continue };
                let pw = pair_weight(si, su);
                if pw <= 0.0 {
                    continue;
                }
                num += pw * r;
                den += pw;
            }
        }
        let suir = (den > f64::EPSILON).then(|| num / den);

        let lambda = self.config.lambda;
        let delta = self.config.delta;
        let mut num = 0.0;
        let mut den = 0.0;
        for (v, w) in [
            (sir, (1.0 - delta) * (1.0 - lambda)),
            (sur, (1.0 - delta) * lambda),
            (suir, delta),
        ] {
            if let Some(v) = v {
                num += w * v;
                den += w;
            }
        }
        let raw = if den > f64::EPSILON {
            num / den
        } else {
            fallback_rating(m, user, item)
        };
        Some(m.scale().clamp(raw))
    }

    fn name(&self) -> &'static str {
        "SF"
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use cf_data::SyntheticConfig;
    use cf_matrix::MatrixBuilder;

    fn small() -> RatingMatrix {
        SyntheticConfig::small().generate().matrix
    }

    #[test]
    fn predictions_are_in_range_and_deterministic() {
        let m = small();
        let sf = SimilarityFusion::fit_default(&m);
        for u in (0..m.num_users()).step_by(17) {
            for i in (0..m.num_items()).step_by(23) {
                let a = sf.predict(UserId::from(u), ItemId::from(i)).unwrap();
                let b = sf.predict(UserId::from(u), ItemId::from(i)).unwrap();
                assert_eq!(a, b);
                assert!((1.0..=5.0).contains(&a));
            }
        }
    }

    #[test]
    fn fuses_agreeing_evidence_toward_it() {
        // Build a matrix where both item and user evidence say "high".
        let mut b = MatrixBuilder::new();
        for u in 0..5u32 {
            b.push(UserId::new(u), ItemId::new(0), 5.0 - (u % 2) as f64);
            b.push(UserId::new(u), ItemId::new(1), 5.0 - (u % 2) as f64);
            b.push(UserId::new(u), ItemId::new(2), 1.0 + (u % 2) as f64);
        }
        // target user agrees with everyone, hasn't rated item 1
        b.push(UserId::new(5), ItemId::new(0), 5.0);
        b.push(UserId::new(5), ItemId::new(2), 1.0);
        let m = b.build().unwrap();
        let sf = SimilarityFusion::fit_default(&m);
        let r = sf.predict(UserId::new(5), ItemId::new(1)).unwrap();
        assert!(r > 3.8, "got {r}");
    }

    #[test]
    fn out_of_range_returns_none() {
        let m = small();
        let sf = SimilarityFusion::fit_default(&m);
        assert!(sf.predict(UserId::new(10_000), ItemId::new(0)).is_none());
    }
}
