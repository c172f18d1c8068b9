//! Seeded MovieLens-like synthetic dataset generator.
//!
//! The paper evaluates on a 500-user × 1000-item MovieLens extract where
//! every user rated at least 40 movies (average 94.4, density 9.44%,
//! 5 rating values). That extract cannot be redistributed, so this module
//! generates a matrix with the same statistical structure the algorithms
//! feed on:
//!
//! - **taste groups × genres** — each user belongs to a latent taste
//!   group, each item to a genre; a group↔genre affinity table drives the
//!   systematic part of ratings. This is what gives K-means real cluster
//!   structure to find and makes `SUIR'`-style evidence informative.
//! - **rating-style diversity** — a per-user bias (harsh vs. generous
//!   raters): exactly the diversity the paper's smoothing strategy
//!   removes. A per-item bias models universally (un)popular items, which
//!   is why the paper prefers PCC over raw cosine.
//! - **popularity skew** — users rate popular items more often
//!   (Zipf-weighted sampling without replacement), so item co-rating
//!   overlap is heavy-tailed like real MovieLens.
//! - **discrete 1–5 stars** with Gaussian noise before rounding.

use cf_matrix::{ItemId, MatrixBuilder, RatingMatrix, RatingScale, UserId};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::{Dataset, NormalSampler};

/// Parameters of the synthetic generator. Defaults reproduce the paper's
/// Table I shape; [`SyntheticConfig::small`] is a fast variant for tests
/// and doctests.
#[derive(Debug, Clone)]
pub struct SyntheticConfig {
    /// Number of users (paper: 500).
    pub num_users: usize,
    /// Number of items (paper: 1000).
    pub num_items: usize,
    /// Latent user taste groups.
    pub taste_groups: usize,
    /// Latent item genres.
    pub genres: usize,
    /// Mean ratings per user (paper: 94.4).
    pub mean_ratings_per_user: f64,
    /// Hard floor on ratings per user (paper: 40).
    pub min_ratings_per_user: usize,
    /// Spread (log-normal sigma) of per-user rating counts.
    pub ratings_per_user_sigma: f64,
    /// Standard deviation of the per-user style bias.
    pub user_bias_sd: f64,
    /// Standard deviation of the per-item quality bias.
    pub item_bias_sd: f64,
    /// Scale of the taste-group × genre affinity signal.
    pub affinity_strength: f64,
    /// Standard deviation of observation noise added before rounding.
    pub noise_sd: f64,
    /// Zipf exponent for item popularity (0 = uniform).
    pub zipf_exponent: f64,
    /// Base level ratings center on before biases (≈ global mean).
    pub base_rating: f64,
    /// Rating scale: generated ratings are integers clamped onto it
    /// (MovieLens 1..=5 by default; any `[min, max]` works and flows
    /// through to the matrix's validation).
    pub scale: RatingScale,
    /// RNG seed; same seed ⇒ identical dataset.
    pub seed: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        Self::movielens()
    }
}

impl SyntheticConfig {
    /// The paper-scale dataset: 500 users × 1000 items, ≈94 ratings/user.
    pub fn movielens() -> Self {
        Self {
            num_users: 500,
            num_items: 1000,
            taste_groups: 8,
            genres: 12,
            mean_ratings_per_user: 94.4,
            min_ratings_per_user: 40,
            ratings_per_user_sigma: 0.35,
            user_bias_sd: 0.45,
            item_bias_sd: 0.35,
            affinity_strength: 0.9,
            noise_sd: 0.55,
            zipf_exponent: 0.8,
            base_rating: 3.6,
            scale: RatingScale::one_to_five(),
            seed: 42,
        }
    }

    /// A fast small dataset (80 users × 120 items) for tests and examples.
    pub fn small() -> Self {
        Self {
            num_users: 80,
            num_items: 120,
            taste_groups: 4,
            genres: 6,
            mean_ratings_per_user: 24.0,
            min_ratings_per_user: 12,
            seed: 7,
            ..Self::movielens()
        }
    }

    /// Overrides the seed, keeping everything else.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the dataset.
    ///
    /// # Panics
    /// Panics if dimensions or group counts are zero, or the floor of
    /// ratings per user exceeds the item count.
    pub fn generate(&self) -> Dataset {
        assert!(self.num_users > 0 && self.num_items > 0, "empty dimensions");
        assert!(
            self.taste_groups > 0 && self.genres > 0,
            "zero latent groups"
        );
        assert!(
            self.min_ratings_per_user <= self.num_items,
            "min ratings per user exceeds item count"
        );

        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        let mut normal = NormalSampler::new();

        // Latent structure.
        let affinity: Vec<Vec<f64>> = (0..self.taste_groups)
            .map(|_| {
                (0..self.genres)
                    .map(|_| normal.sample(&mut rng, 0.0, self.affinity_strength))
                    .collect()
            })
            .collect();
        let user_groups: Vec<u32> = (0..self.num_users)
            .map(|_| rng.gen_range(0..self.taste_groups) as u32)
            .collect();
        let user_bias: Vec<f64> = (0..self.num_users)
            .map(|_| normal.sample(&mut rng, 0.0, self.user_bias_sd))
            .collect();
        let item_genres: Vec<u32> = (0..self.num_items)
            .map(|_| rng.gen_range(0..self.genres) as u32)
            .collect();
        let item_bias: Vec<f64> = (0..self.num_items)
            .map(|_| normal.sample(&mut rng, 0.0, self.item_bias_sd))
            .collect();

        // Zipf popularity over a random item permutation, as a cumulative
        // table for weighted sampling.
        let mut popularity_rank: Vec<usize> = (0..self.num_items).collect();
        popularity_rank.shuffle(&mut rng);
        let mut weights = vec![0.0f64; self.num_items];
        for (rank, &item) in popularity_rank.iter().enumerate() {
            weights[item] = 1.0 / ((rank + 1) as f64).powf(self.zipf_exponent);
        }
        let mut cumulative = Vec::with_capacity(self.num_items);
        let mut acc = 0.0;
        for &w in &weights {
            acc += w;
            cumulative.push(acc);
        }
        let total_weight = acc;

        let ln_mean = self.mean_ratings_per_user.max(1.0).ln()
            - 0.5 * self.ratings_per_user_sigma * self.ratings_per_user_sigma;

        let mut b = MatrixBuilder::with_dims(self.num_users, self.num_items).scale(self.scale);
        let mut chosen = vec![false; self.num_items];
        for u in 0..self.num_users {
            // Log-normal rating count, floored and capped.
            let count = (ln_mean + self.ratings_per_user_sigma * normal.standard(&mut rng))
                .exp()
                .round() as usize;
            let count = count.max(self.min_ratings_per_user).min(self.num_items);

            // Weighted sampling without replacement via rejection on the
            // cumulative table; falls back to a scan when nearly all items
            // are taken (cannot happen at MovieLens densities, but keeps
            // the generator total for any config).
            let mut picked: Vec<usize> = Vec::with_capacity(count);
            let mut attempts = 0usize;
            while picked.len() < count {
                attempts += 1;
                if attempts > 50 * count {
                    for (i, taken) in chosen.iter_mut().enumerate() {
                        if picked.len() >= count {
                            break;
                        }
                        if !*taken {
                            *taken = true;
                            picked.push(i);
                        }
                    }
                    break;
                }
                let x = rng.gen::<f64>() * total_weight;
                let i = cumulative
                    .partition_point(|&c| c < x)
                    .min(self.num_items - 1);
                if !chosen[i] {
                    chosen[i] = true;
                    picked.push(i);
                }
            }
            for &i in &picked {
                chosen[i] = false;
                let g = user_groups[u] as usize;
                let genre = item_genres[i] as usize;
                let signal = self.base_rating
                    + user_bias[u]
                    + item_bias[i]
                    + affinity[g][genre]
                    + normal.sample(&mut rng, 0.0, self.noise_sd);
                let rating = signal.round().clamp(self.scale.min, self.scale.max);
                b.push(UserId::from(u), ItemId::from(i), rating);
            }
        }

        let matrix: RatingMatrix = b
            .build()
            .unwrap_or_else(|e| unreachable!("generator always produces valid ratings: {e}"));
        Dataset {
            name: format!(
                "synthetic-movielens-{}x{}-seed{}",
                self.num_users, self.num_items, self.seed
            ),
            matrix,
            user_groups: Some(user_groups),
            item_genres: Some(item_genres),
        }
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_statistics_match_table_one() {
        let d = SyntheticConfig::movielens().generate();
        let s = d.stats();
        assert_eq!(s.num_users, 500);
        assert_eq!(s.num_items, 1000);
        assert_eq!(s.active_users, 500);
        assert!(
            s.min_ratings_per_user >= 40,
            "min {}",
            s.min_ratings_per_user
        );
        assert!(
            (s.avg_ratings_per_user - 94.4).abs() < 12.0,
            "avg {}",
            s.avg_ratings_per_user
        );
        assert!((s.density - 0.0944).abs() < 0.012, "density {}", s.density);
        assert_eq!(s.distinct_rating_values, 5);
        assert_eq!(s.min_rating, 1.0);
        assert_eq!(s.max_rating, 5.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = SyntheticConfig::small().generate();
        let b = SyntheticConfig::small().generate();
        assert_eq!(a.matrix.num_ratings(), b.matrix.num_ratings());
        let ta: Vec<_> = a.matrix.triplets().collect();
        let tb: Vec<_> = b.matrix.triplets().collect();
        assert_eq!(ta, tb);
        let c = SyntheticConfig::small().with_seed(99).generate();
        let tc: Vec<_> = c.matrix.triplets().collect();
        assert_ne!(ta, tc);
    }

    #[test]
    fn popularity_is_skewed() {
        let d = SyntheticConfig::movielens().generate();
        let mut counts: Vec<usize> = d.matrix.items().map(|i| d.matrix.item_count(i)).collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top_decile: usize = counts[..100].iter().sum();
        let bottom_decile: usize = counts[900..].iter().sum();
        assert!(
            top_decile > 5 * bottom_decile.max(1),
            "expected heavy head: top {top_decile}, bottom {bottom_decile}"
        );
    }

    #[test]
    fn users_in_same_group_agree_more() {
        let d = SyntheticConfig::small().generate();
        let groups = d.user_groups.as_ref().unwrap();
        let m = &d.matrix;
        let mut same = (0.0, 0usize);
        let mut diff = (0.0, 0usize);
        for a in 0..m.num_users() {
            for b in (a + 1)..m.num_users() {
                let s = cf_similarity_stub::user_pcc_naive(m, a, b);
                if let Some(s) = s {
                    if groups[a] == groups[b] {
                        same.0 += s;
                        same.1 += 1;
                    } else {
                        diff.0 += s;
                        diff.1 += 1;
                    }
                }
            }
        }
        let mean_same = same.0 / same.1 as f64;
        let mean_diff = diff.0 / diff.1 as f64;
        assert!(
            mean_same > mean_diff + 0.05,
            "same-group PCC {mean_same} should exceed cross-group {mean_diff}"
        );
    }

    /// Tiny local PCC so cf-data needn't depend on cf-similarity.
    mod cf_similarity_stub {
        use cf_matrix::{RatingMatrix, UserId};

        pub fn user_pcc_naive(m: &RatingMatrix, a: usize, b: usize) -> Option<f64> {
            let (ia, va) = m.user_row(UserId::from(a));
            let (ib, vb) = m.user_row(UserId::from(b));
            let (ma, mb) = (m.user_mean(UserId::from(a)), m.user_mean(UserId::from(b)));
            let (mut x, mut y) = (0, 0);
            let (mut dot, mut na, mut nb, mut n) = (0.0, 0.0, 0.0, 0);
            while x < ia.len() && y < ib.len() {
                match ia[x].cmp(&ib[y]) {
                    std::cmp::Ordering::Less => x += 1,
                    std::cmp::Ordering::Greater => y += 1,
                    std::cmp::Ordering::Equal => {
                        let da = va[x] - ma;
                        let db = vb[y] - mb;
                        dot += da * db;
                        na += da * da;
                        nb += db * db;
                        n += 1;
                        x += 1;
                        y += 1;
                    }
                }
            }
            if n < 5 || na <= 0.0 || nb <= 0.0 {
                None
            } else {
                Some(dot / (na.sqrt() * nb.sqrt()))
            }
        }
    }

    #[test]
    #[should_panic(expected = "min ratings per user exceeds item count")]
    fn impossible_floor_panics() {
        let cfg = SyntheticConfig {
            num_items: 10,
            min_ratings_per_user: 20,
            ..SyntheticConfig::small()
        };
        let _ = cfg.generate();
    }

    #[test]
    fn custom_scale_flows_through() {
        let d = SyntheticConfig {
            scale: RatingScale::new(1.0, 10.0),
            base_rating: 5.5,
            affinity_strength: 2.0,
            user_bias_sd: 1.0,
            ..SyntheticConfig::small()
        }
        .generate();
        let s = d.stats();
        assert!(
            s.max_rating > 5.0,
            "scale ceiling unused: max {}",
            s.max_rating
        );
        assert!(s.min_rating >= 1.0);
        assert_eq!(d.matrix.scale(), RatingScale::new(1.0, 10.0));
    }

    #[test]
    fn small_config_is_fast_and_valid() {
        let d = SyntheticConfig::small().generate();
        assert_eq!(d.matrix.num_users(), 80);
        assert_eq!(d.matrix.num_items(), 120);
        assert!(d.matrix.density() > 0.1);
        for u in d.matrix.users() {
            assert!(d.matrix.user_count(u) >= 12);
        }
    }
}
