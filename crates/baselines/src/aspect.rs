//! AM — the triadic Aspect Model (Hofmann, "Latent semantic models for
//! collaborative filtering", TOIS 2004), trained with EM.
//!
//! A latent class `z` generates `(user, item, rating)` jointly:
//!
//! `P(u, i, r) = Σ_z P(z) · P(u|z) · P(i|z) · P(r|z)`
//!
//! with `P(r|z)` a multinomial over the five star values. Prediction is
//! the posterior-expected rating `E[r | u, i]`. This is the "AM" column of
//! the paper's Table III — the model-based comparator that scales well but
//! underperforms on sparse data (exactly what the table shows: AM is the
//! weakest baseline on ML_100).

use cf_matrix::{ItemId, Predictor, RatingMatrix, UserId};
use rand::{Rng, SeedableRng};

use crate::common::{fallback_rating, in_range};

/// Configuration for [`AspectModel`].
#[derive(Debug, Clone)]
pub struct AspectConfig {
    /// Number of latent aspects `z`.
    pub aspects: usize,
    /// EM iterations.
    pub iterations: usize,
    /// Dirichlet-style smoothing added to every multinomial cell.
    pub smoothing: f64,
    /// RNG seed for responsibility initialization.
    pub seed: u64,
}

impl Default for AspectConfig {
    fn default() -> Self {
        Self {
            aspects: 20,
            iterations: 40,
            smoothing: 0.1,
            seed: 42,
        }
    }
}

/// The fitted aspect model.
#[derive(Debug)]
pub struct AspectModel {
    matrix: RatingMatrix,
    /// `P(z)`.
    p_z: Vec<f64>,
    /// `P(u|z)`, aspect-major: `p_u_z[z][u]`.
    p_u_z: Vec<Vec<f64>>,
    /// `P(i|z)`, aspect-major.
    p_i_z: Vec<Vec<f64>>,
    /// `P(r|z)` over the discrete rating vocabulary, aspect-major.
    p_r_z: Vec<Vec<f64>>,
    /// The rating vocabulary (sorted distinct values, e.g. 1..=5).
    vocab: Vec<f64>,
}

impl AspectModel {
    /// Trains with EM on the observed triplets.
    pub fn fit(matrix: &RatingMatrix, config: AspectConfig) -> Self {
        assert!(config.aspects > 0, "aspects must be positive");
        let z_count = config.aspects;
        let p = matrix.num_users();
        let q = matrix.num_items();

        // Rating vocabulary: sorted distinct observed values.
        let mut vocab: Vec<f64> = matrix.triplets().map(|t| t.2).collect();
        vocab.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite"));
        vocab.dedup();
        let v_count = vocab.len();
        // Every rating is in the sorted vocabulary, so its index is the
        // count of smaller entries.
        let vocab_index = |r: f64| -> usize { vocab.partition_point(|&v| v < r) };

        let triplets: Vec<(usize, usize, usize)> = matrix
            .triplets()
            .map(|(u, i, r)| (u.index(), i.index(), vocab_index(r)))
            .collect();
        let n = triplets.len();

        // Random soft initialization of responsibilities via randomized
        // initial parameters.
        let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
        let mut p_z = vec![1.0 / z_count as f64; z_count];
        let mut p_u_z: Vec<Vec<f64>> = (0..z_count).map(|_| random_simplex(&mut rng, p)).collect();
        let mut p_i_z: Vec<Vec<f64>> = (0..z_count).map(|_| random_simplex(&mut rng, q)).collect();
        let mut p_r_z: Vec<Vec<f64>> = (0..z_count)
            .map(|_| random_simplex(&mut rng, v_count))
            .collect();

        let s = config.smoothing;
        let mut resp = vec![0.0f64; z_count];
        for _ in 0..config.iterations {
            // Accumulators for the M step.
            let mut acc_z = vec![s; z_count];
            let mut acc_u = vec![vec![s; p]; z_count];
            let mut acc_i = vec![vec![s; q]; z_count];
            let mut acc_r = vec![vec![s; v_count]; z_count];

            for &(u, i, r) in &triplets {
                // E step for one observation.
                let mut total = 0.0;
                for z in 0..z_count {
                    let w = p_z[z] * p_u_z[z][u] * p_i_z[z][i] * p_r_z[z][r];
                    resp[z] = w;
                    total += w;
                }
                if total <= 0.0 {
                    // degenerate observation: spread uniformly
                    for rz in resp.iter_mut() {
                        *rz = 1.0 / z_count as f64;
                    }
                    total = 1.0;
                }
                for z in 0..z_count {
                    let g = resp[z] / total;
                    acc_z[z] += g;
                    acc_u[z][u] += g;
                    acc_i[z][i] += g;
                    acc_r[z][r] += g;
                }
            }

            // M step: normalize.
            let z_total: f64 = acc_z.iter().sum();
            for z in 0..z_count {
                p_z[z] = acc_z[z] / z_total;
                normalize(&mut acc_u[z]);
                normalize(&mut acc_i[z]);
                normalize(&mut acc_r[z]);
            }
            p_u_z = acc_u;
            p_i_z = acc_i;
            p_r_z = acc_r;
            let _ = n;
        }

        Self {
            matrix: matrix.clone(),
            p_z,
            p_u_z,
            p_i_z,
            p_r_z,
            vocab,
        }
    }

    /// Fits with defaults.
    pub fn fit_default(matrix: &RatingMatrix) -> Self {
        Self::fit(matrix, AspectConfig::default())
    }

    /// `E[r | u, i]` under the model, if the posterior has mass.
    fn expected_rating(&self, u: UserId, i: ItemId) -> Option<f64> {
        let mut num = 0.0;
        let mut den = 0.0;
        for z in 0..self.p_z.len() {
            let w = self.p_z[z] * self.p_u_z[z][u.index()] * self.p_i_z[z][i.index()];
            if w <= 0.0 {
                continue;
            }
            let mean_r: f64 = self
                .vocab
                .iter()
                .zip(&self.p_r_z[z])
                .map(|(&r, &pr)| r * pr)
                .sum();
            num += w * mean_r;
            den += w;
        }
        (den > 0.0).then(|| num / den)
    }
}

fn random_simplex<R: Rng>(rng: &mut R, n: usize) -> Vec<f64> {
    let mut v: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() + 0.01).collect();
    normalize(&mut v);
    v
}

fn normalize(v: &mut [f64]) {
    let total: f64 = v.iter().sum();
    if total > 0.0 {
        for x in v.iter_mut() {
            *x /= total;
        }
    }
}

impl Predictor for AspectModel {
    fn predict(&self, user: UserId, item: ItemId) -> Option<f64> {
        if !in_range(&self.matrix, user, item) {
            return None;
        }
        let raw = self
            .expected_rating(user, item)
            .unwrap_or_else(|| fallback_rating(&self.matrix, user, item));
        Some(self.matrix.scale().clamp(raw))
    }

    fn name(&self) -> &'static str {
        "AM"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_matrix::MatrixBuilder;

    /// Two sharply separated blocks the model must be able to learn.
    fn blocks() -> RatingMatrix {
        let mut b = MatrixBuilder::new();
        for u in 0..10u32 {
            for i in 0..8u32 {
                let hi = (u < 5) == (i < 4);
                // leave one hole per user for prediction
                if i == (u % 8) {
                    continue;
                }
                b.push(UserId::new(u), ItemId::new(i), if hi { 5.0 } else { 1.0 });
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn learns_block_structure() {
        let m = blocks();
        let am = AspectModel::fit(
            &m,
            AspectConfig {
                aspects: 4,
                iterations: 60,
                ..Default::default()
            },
        );
        // user 0's hole is item 0 (block-high): expect a high prediction;
        // user 7's hole is item 7 (block-high for u≥5): also high.
        let r0 = am.predict(UserId::new(0), ItemId::new(0)).unwrap();
        assert!(r0 > 3.5, "got {r0}");
        let r7 = am.predict(UserId::new(7), ItemId::new(7)).unwrap();
        assert!(r7 > 3.5, "got {r7}");
        // cross-block cell should be low
        let r_cross = am.predict(UserId::new(0), ItemId::new(7)).unwrap();
        assert!(r_cross < 2.5, "got {r_cross}");
    }

    #[test]
    fn distributions_are_normalized() {
        let m = blocks();
        let am = AspectModel::fit(
            &m,
            AspectConfig {
                aspects: 3,
                iterations: 10,
                ..Default::default()
            },
        );
        let sz: f64 = am.p_z.iter().sum();
        assert!((sz - 1.0).abs() < 1e-9);
        for z in 0..3 {
            assert!((am.p_u_z[z].iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!((am.p_i_z[z].iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!((am.p_r_z[z].iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn vocabulary_is_sorted_distinct_observed_values() {
        let m = blocks();
        let am = AspectModel::fit_default(&m);
        assert_eq!(am.vocab, vec![1.0, 5.0]);
    }

    #[test]
    fn deterministic_per_seed() {
        let m = blocks();
        let cfg = AspectConfig {
            aspects: 4,
            iterations: 15,
            ..Default::default()
        };
        let a = AspectModel::fit(&m, cfg.clone());
        let b = AspectModel::fit(&m, cfg);
        for u in 0..10u32 {
            assert_eq!(
                a.predict(UserId::new(u), ItemId::new(3)),
                b.predict(UserId::new(u), ItemId::new(3))
            );
        }
    }

    #[test]
    #[should_panic(expected = "aspects must be positive")]
    fn zero_aspects_panics() {
        let m = blocks();
        let _ = AspectModel::fit(
            &m,
            AspectConfig {
                aspects: 0,
                ..Default::default()
            },
        );
    }
}
