//! Content-boosted item similarity — the paper's future-work item
//! "attributes of items and users" (§VI), in the spirit of the
//! content-based systems its §II-C surveys.
//!
//! When item attributes (here: a genre label per item, as MovieLens's
//! `u.item` provides) are available, the rating-based item PCC can be
//! blended with an attribute-match score. On sparse data this rescues
//! items with too few co-ratings for a reliable PCC — the exact failure
//! mode the CFSF paper's thresholds otherwise just drop.

use cf_matrix::{ItemId, Predictor, RatingMatrix, UserId};
use cf_similarity::item_pcc;

use crate::common::{fallback_rating, in_range};

/// Configuration for [`ContentBoostedSir`].
#[derive(Debug, Clone)]
pub struct ContentConfig {
    /// Blend factor: `sim = alpha·PCC + (1-alpha)·genre_match`.
    /// `alpha = 1` is pure rating similarity, `alpha = 0` pure content.
    pub alpha: f64,
    /// Neighborhood size per prediction.
    pub neighborhood: usize,
}

impl Default for ContentConfig {
    fn default() -> Self {
        Self {
            alpha: 0.7,
            neighborhood: 40,
        }
    }
}

/// Item-based CF whose similarity blends rating PCC with genre match.
#[derive(Debug)]
pub struct ContentBoostedSir {
    matrix: RatingMatrix,
    /// `sim_lists[i]` = blended neighbors of item `i`, descending.
    sim_lists: Vec<Vec<(ItemId, f64)>>,
    config: ContentConfig,
}

impl ContentBoostedSir {
    /// Builds the blended similarity structure.
    ///
    /// `item_genres[i]` is the genre label of item `i`; its length must
    /// match the matrix's item count. Panics otherwise, or when `alpha`
    /// is outside `[0, 1]`.
    pub fn fit(matrix: &RatingMatrix, item_genres: &[u32], config: ContentConfig) -> Self {
        assert_eq!(
            item_genres.len(),
            matrix.num_items(),
            "one genre label per item required"
        );
        assert!(
            (0.0..=1.0).contains(&config.alpha),
            "alpha must be in [0, 1]"
        );
        let q = matrix.num_items();
        let alpha = config.alpha;
        let sim_lists: Vec<Vec<(ItemId, f64)>> =
            cf_parallel::par_map(q, cf_parallel::effective_threads(None), |a_idx| {
                let a = ItemId::from(a_idx);
                let mut list: Vec<(ItemId, f64)> = (0..q)
                    .filter(|&b| b != a_idx)
                    .filter_map(|b_idx| {
                        let b = ItemId::from(b_idx);
                        let pcc = item_pcc(matrix, a, b);
                        let genre = if item_genres[a_idx] == item_genres[b_idx] {
                            1.0
                        } else {
                            0.0
                        };
                        let sim = alpha * pcc + (1.0 - alpha) * genre;
                        (sim > 0.0).then_some((b, sim))
                    })
                    .collect();
                list.sort_by(|x, y| {
                    y.1.partial_cmp(&x.1)
                        .expect("similarities are finite")
                        .then(x.0.cmp(&y.0))
                });
                list.truncate(256);
                list
            });
        Self {
            matrix: matrix.clone(),
            sim_lists,
            config,
        }
    }

    /// Fits with defaults.
    pub fn fit_default(matrix: &RatingMatrix, item_genres: &[u32]) -> Self {
        Self::fit(matrix, item_genres, ContentConfig::default())
    }
}

impl Predictor for ContentBoostedSir {
    fn predict(&self, user: UserId, item: ItemId) -> Option<f64> {
        if !in_range(&self.matrix, user, item) {
            return None;
        }
        let mut num = 0.0;
        let mut den = 0.0;
        let mut used = 0usize;
        for &(i_c, sim) in &self.sim_lists[item.index()] {
            if used >= self.config.neighborhood {
                break;
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
        "SIR-content"
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use cf_matrix::MatrixBuilder;

    /// Items 0/1 share a genre; item 1 has NO co-ratings with item 0, so
    /// pure PCC carries nothing, but content rescues the link.
    fn matrix_and_genres() -> (RatingMatrix, Vec<u32>) {
        let mut b = MatrixBuilder::with_dims(4, 3);
        b.push(UserId::new(0), ItemId::new(0), 5.0);
        b.push(UserId::new(0), ItemId::new(2), 1.0);
        b.push(UserId::new(1), ItemId::new(1), 5.0);
        b.push(UserId::new(1), ItemId::new(2), 2.0);
        b.push(UserId::new(2), ItemId::new(1), 4.0);
        b.push(UserId::new(2), ItemId::new(2), 1.0);
        // user 3 rated item 1 high; predict item 0 for them
        b.push(UserId::new(3), ItemId::new(1), 5.0);
        (b.build().unwrap(), vec![0, 0, 1])
    }

    #[test]
    fn content_rescues_co_rating_starved_pairs() {
        let (m, genres) = matrix_and_genres();
        let model = ContentBoostedSir::fit_default(&m, &genres);
        // pure PCC between items 0 and 1 is 0 (no co-raters); the genre
        // match must still drive a high prediction from item 1's rating.
        let r = model.predict(UserId::new(3), ItemId::new(0)).unwrap();
        assert!(r > 4.0, "got {r}");
    }

    #[test]
    fn alpha_one_is_pure_rating_similarity() {
        let (m, genres) = matrix_and_genres();
        let pure = ContentBoostedSir::fit(
            &m,
            &genres,
            ContentConfig {
                alpha: 1.0,
                ..Default::default()
            },
        );
        // With alpha=1 the genre link vanishes and user 3 has no usable
        // neighbors for item 0 → fallback to user mean (5.0).
        let r = pure.predict(UserId::new(3), ItemId::new(0)).unwrap();
        assert_eq!(r, 5.0);
    }

    #[test]
    #[should_panic(expected = "one genre label per item")]
    fn wrong_genre_count_panics() {
        let (m, _) = matrix_and_genres();
        let _ = ContentBoostedSir::fit_default(&m, &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "alpha must be in [0, 1]")]
    fn bad_alpha_panics() {
        let (m, genres) = matrix_and_genres();
        let _ = ContentBoostedSir::fit(
            &m,
            &genres,
            ContentConfig {
                alpha: 1.5,
                ..Default::default()
            },
        );
    }

    #[test]
    fn lists_are_sorted_and_positive() {
        let (m, genres) = matrix_and_genres();
        let model = ContentBoostedSir::fit_default(&m, &genres);
        for list in &model.sim_lists {
            assert!(list.windows(2).all(|w| w[0].1 >= w[1].1));
            assert!(list.iter().all(|&(_, s)| s > 0.0));
        }
    }
}
