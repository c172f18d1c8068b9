//! SIR — traditional item-based CF with PCC (Eq. 1 of the CFSF paper;
//! Sarwar et al., WWW 2001).
//!
//! Predicts `r(u_b, i_a)` as the similarity-weighted average of the
//! ratings the same user gave to items similar to `i_a`. Similarities come
//! from a full item-item PCC pass over the entire matrix — this is the
//! memory-based approach whose cost CFSF's local reduction attacks.

use cf_matrix::{ItemId, Predictor, RatingMatrix, UserId};
use cf_similarity::{Gis, GisConfig};

use crate::common::{fallback_rating, in_range};

/// Configuration for [`Sir`].
#[derive(Debug, Clone)]
pub struct SirConfig {
    /// Optional cap on the neighborhood: use only the `n` most similar
    /// rated items. `None` uses every positively similar rated item, the
    /// literal Eq. 1.
    pub neighborhood: Option<usize>,
    /// GIS build parameters (threshold, threads).
    pub gis: GisConfig,
}

impl Default for SirConfig {
    fn default() -> Self {
        Self {
            neighborhood: None,
            gis: GisConfig {
                // the full matrix is the point of the baseline: no cap
                max_neighbors: None,
                ..GisConfig::default()
            },
        }
    }
}

/// Item-based PCC predictor (the paper's "SIR" baseline).
#[derive(Debug)]
pub struct Sir {
    matrix: RatingMatrix,
    gis: Gis,
    neighborhood: Option<usize>,
}

impl Sir {
    /// Computes the full item-item similarity structure.
    pub fn fit(matrix: &RatingMatrix, config: SirConfig) -> Self {
        let gis = Gis::build(matrix, &config.gis);
        Self {
            matrix: matrix.clone(),
            gis,
            neighborhood: config.neighborhood,
        }
    }

    /// Fits with defaults.
    pub fn fit_default(matrix: &RatingMatrix) -> Self {
        Self::fit(matrix, SirConfig::default())
    }
}

impl Predictor for Sir {
    fn predict(&self, user: UserId, item: ItemId) -> Option<f64> {
        if !in_range(&self.matrix, user, item) {
            return None;
        }
        let mut num = 0.0;
        let mut den = 0.0;
        let mut used = 0usize;
        for &(i_c, sim) in self.gis.neighbors(item) {
            if let Some(limit) = self.neighborhood {
                if used >= limit {
                    break;
                }
            }
            let Some(r) = self.matrix.get(user, i_c) else {
                continue;
            };
            num += sim * r;
            den += sim;
            used += 1;
        }
        let raw = if den > f64::EPSILON {
            num / den
        } else {
            fallback_rating(&self.matrix, user, item)
        };
        Some(self.matrix.scale().clamp(raw))
    }

    fn name(&self) -> &'static str {
        "SIR"
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use cf_matrix::MatrixBuilder;

    /// Items 0 and 1 strongly similar; user 3 rated item 1 high.
    fn matrix() -> RatingMatrix {
        let mut b = MatrixBuilder::new();
        let rows: [&[(u32, f64)]; 4] = [
            &[(0, 5.0), (1, 5.0), (2, 1.0)],
            &[(0, 4.0), (1, 4.0), (2, 2.0)],
            &[(0, 1.0), (1, 2.0), (2, 5.0)],
            &[(1, 5.0), (2, 1.0)],
        ];
        for (u, row) in rows.iter().enumerate() {
            for &(i, r) in row.iter() {
                b.push(UserId::from(u), ItemId::new(i), r);
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn predicts_from_similar_items() {
        let m = matrix();
        let sir = Sir::fit_default(&m);
        // user 3 never rated item 0; item 1 (which they rated 5) is its
        // closest neighbor → prediction should be high.
        let r = sir.predict(UserId::new(3), ItemId::new(0)).unwrap();
        assert!(r > 3.5, "got {r}");
    }

    #[test]
    fn falls_back_when_no_neighbor_is_rated() {
        let mut b = MatrixBuilder::with_dims(2, 4);
        b.push(UserId::new(0), ItemId::new(0), 2.0);
        b.push(UserId::new(0), ItemId::new(1), 4.0);
        b.push(UserId::new(1), ItemId::new(2), 5.0);
        b.push(UserId::new(1), ItemId::new(3), 1.0);
        let m = b.build().unwrap();
        let sir = Sir::fit_default(&m);
        // no co-rated items anywhere → fallback = user mean (3.0)
        let r = sir.predict(UserId::new(0), ItemId::new(2)).unwrap();
        assert_eq!(r, 3.0);
    }

    #[test]
    fn neighborhood_cap_limits_evidence() {
        let m = matrix();
        let capped = Sir::fit(
            &m,
            SirConfig {
                neighborhood: Some(1),
                ..SirConfig::default()
            },
        );
        let full = Sir::fit_default(&m);
        // both must predict, possibly differently
        let a = capped.predict(UserId::new(0), ItemId::new(2)).unwrap();
        let b = full.predict(UserId::new(0), ItemId::new(2)).unwrap();
        assert!((1.0..=5.0).contains(&a));
        assert!((1.0..=5.0).contains(&b));
    }

    #[test]
    fn out_of_range_returns_none() {
        let m = matrix();
        let sir = Sir::fit_default(&m);
        assert!(sir.predict(UserId::new(99), ItemId::new(0)).is_none());
        assert!(sir.predict(UserId::new(0), ItemId::new(99)).is_none());
    }

    #[test]
    fn name_matches_paper_label() {
        let m = matrix();
        assert_eq!(Sir::fit_default(&m).name(), "SIR");
    }
}
