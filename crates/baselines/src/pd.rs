//! PD — Personality Diagnosis (Pennock, Horvitz, Lawrence & Giles,
//! UAI 2000), the hybrid memory/model comparator in Table III.
//!
//! PD assumes each user has a latent "true personality" — a vector of
//! true ratings — and observed ratings are the truth plus Gaussian noise.
//! The probability that the active user's personality equals user `u`'s is
//!
//! `P(pers = u | observed) ∝ Π_{j ∈ I(a)∩I(u)} exp(-(r_aj - r_uj)² / 2σ²)`
//!
//! and the predicted rating distribution for item `i` mixes each
//! candidate's rating of `i` under the same noise model. We report the
//! posterior mean (the MAE-optimal point estimate; the original paper
//! reports the mode, which optimizes 0/1 loss instead — noted in
//! DESIGN.md).

use cf_matrix::{ItemId, Predictor, RatingMatrix, UserId};

use crate::common::{fallback_rating, in_range};

/// Configuration for [`PersonalityDiagnosis`].
#[derive(Debug, Clone)]
pub struct PdConfig {
    /// Gaussian noise standard deviation σ (Pennock et al. used values
    /// around 1 for 1–5 scales).
    pub sigma: f64,
    /// Minimum co-rated items for a candidate personality to count.
    pub min_overlap: usize,
}

impl Default for PdConfig {
    fn default() -> Self {
        Self {
            sigma: 1.0,
            min_overlap: 1,
        }
    }
}

/// The PD baseline.
#[derive(Debug)]
pub struct PersonalityDiagnosis {
    matrix: RatingMatrix,
    config: PdConfig,
}

impl PersonalityDiagnosis {
    /// PD is memory-based: `fit` snapshots the matrix.
    pub fn fit(matrix: &RatingMatrix, config: PdConfig) -> Self {
        assert!(config.sigma > 0.0, "sigma must be positive");
        Self {
            matrix: matrix.clone(),
            config,
        }
    }

    /// Fits with defaults.
    pub fn fit_default(matrix: &RatingMatrix) -> Self {
        Self::fit(matrix, PdConfig::default())
    }

    /// Log-likelihood that `candidate`'s personality explains `user`'s
    /// observed ratings.
    fn log_likelihood(&self, user: UserId, candidate: UserId) -> Option<f64> {
        let m = &self.matrix;
        let (ia, va) = m.user_row(user);
        let (ic, vc) = m.user_row(candidate);
        let inv = 1.0 / (2.0 * self.config.sigma * self.config.sigma);
        let mut ll = 0.0;
        let mut n = 0usize;
        let (mut x, mut y) = (0usize, 0usize);
        while x < ia.len() && y < ic.len() {
            match ia[x].cmp(&ic[y]) {
                std::cmp::Ordering::Less => x += 1,
                std::cmp::Ordering::Greater => y += 1,
                std::cmp::Ordering::Equal => {
                    let d = va[x] - vc[y];
                    ll -= d * d * inv;
                    n += 1;
                    x += 1;
                    y += 1;
                }
            }
        }
        (n >= self.config.min_overlap).then_some(ll)
    }
}

impl Predictor for PersonalityDiagnosis {
    fn predict(&self, user: UserId, item: ItemId) -> Option<f64> {
        if !in_range(&self.matrix, user, item) {
            return None;
        }
        let m = &self.matrix;

        // Candidates: raters of the item (others have no opinion to mix).
        let mut weighted: Vec<(f64, f64)> = Vec::new(); // (log weight, rating)
        for (cand, r) in m.item_ratings(item) {
            if cand == user {
                continue;
            }
            if let Some(ll) = self.log_likelihood(user, cand) {
                weighted.push((ll, r));
            }
        }
        let raw = if weighted.is_empty() {
            fallback_rating(m, user, item)
        } else {
            // Posterior mean with the max-log-shift trick for stability.
            let max_ll = weighted
                .iter()
                .map(|&(ll, _)| ll)
                .fold(f64::NEG_INFINITY, f64::max);
            let mut num = 0.0;
            let mut den = 0.0;
            for &(ll, r) in &weighted {
                let w = (ll - max_ll).exp();
                num += w * r;
                den += w;
            }
            num / den
        };
        Some(m.scale().clamp(raw))
    }

    fn name(&self) -> &'static str {
        "PD"
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use cf_matrix::MatrixBuilder;

    /// User 1 matches user 0 exactly on shared items; user 2 is opposite.
    fn matrix() -> RatingMatrix {
        let mut b = MatrixBuilder::new();
        let rows: [&[(u32, f64)]; 3] = [
            &[(0, 5.0), (1, 1.0)],
            &[(0, 5.0), (1, 1.0), (2, 4.0)],
            &[(0, 1.0), (1, 5.0), (2, 1.0)],
        ];
        for (u, row) in rows.iter().enumerate() {
            for &(i, r) in row.iter() {
                b.push(UserId::from(u), ItemId::new(i), r);
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn posterior_follows_the_matching_personality() {
        let m = matrix();
        let pd = PersonalityDiagnosis::fit_default(&m);
        // user 0 predicting item 2: user 1 (perfect match) rated it 4,
        // user 2 (opposite) rated it 1 → prediction near 4.
        let r = pd.predict(UserId::new(0), ItemId::new(2)).unwrap();
        assert!(r > 3.3, "got {r}");
    }

    #[test]
    fn smaller_sigma_sharpens_the_posterior() {
        let m = matrix();
        let sharp = PersonalityDiagnosis::fit(
            &m,
            PdConfig {
                sigma: 0.3,
                ..Default::default()
            },
        );
        let blunt = PersonalityDiagnosis::fit(
            &m,
            PdConfig {
                sigma: 5.0,
                ..Default::default()
            },
        );
        let rs = sharp.predict(UserId::new(0), ItemId::new(2)).unwrap();
        let rb = blunt.predict(UserId::new(0), ItemId::new(2)).unwrap();
        // sharp posterior ≈ the matching user's rating; blunt one mixes
        assert!(rs > rb, "sharp {rs} should exceed blunt {rb}");
        assert!((rs - 4.0).abs() < 0.05);
        // blunt mixes toward the average of 4 and 1
        assert!(rb < 3.9 && rb > 2.0);
    }

    #[test]
    fn falls_back_when_item_has_no_raters() {
        let mut b = MatrixBuilder::with_dims(2, 3);
        b.push(UserId::new(0), ItemId::new(0), 4.0);
        b.push(UserId::new(0), ItemId::new(1), 2.0);
        b.push(UserId::new(1), ItemId::new(0), 4.0);
        let m = b.build().unwrap();
        let pd = PersonalityDiagnosis::fit_default(&m);
        let r = pd.predict(UserId::new(1), ItemId::new(2)).unwrap();
        assert_eq!(r, m.user_mean(UserId::new(1)));
    }

    #[test]
    fn min_overlap_excludes_strangers() {
        let m = matrix();
        let pd = PersonalityDiagnosis::fit(
            &m,
            PdConfig {
                min_overlap: 10,
                ..Default::default()
            },
        );
        // nobody shares 10 items → fallback (user 0's mean = 3.0)
        let r = pd.predict(UserId::new(0), ItemId::new(2)).unwrap();
        assert_eq!(r, 3.0);
    }

    #[test]
    #[should_panic(expected = "sigma must be positive")]
    fn zero_sigma_panics() {
        let m = matrix();
        let _ = PersonalityDiagnosis::fit(
            &m,
            PdConfig {
                sigma: 0.0,
                ..Default::default()
            },
        );
    }

    #[test]
    fn out_of_range_returns_none() {
        let m = matrix();
        let pd = PersonalityDiagnosis::fit_default(&m);
        assert!(pd.predict(UserId::new(9), ItemId::new(0)).is_none());
    }
}
