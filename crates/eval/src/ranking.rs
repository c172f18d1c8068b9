//! Top-N ranking metrics — precision@N, recall@N, NDCG@N.
//!
//! The paper evaluates rating *prediction* (MAE); a deployed recommender
//! serves ranked lists, so the harness also measures ranking quality.
//! A holdout item counts as *relevant* for its user when its true rating
//! clears a threshold (4.0 on the MovieLens scale by convention).

use std::collections::HashMap;

use cf_data::HoldoutCell;
use cf_matrix::{ItemId, Predictor, UserId};

/// Ranking-quality scores averaged over users.
#[derive(Debug, Clone, PartialEq)]
pub struct RankingEvaluation {
    /// Mean precision@N over evaluated users.
    pub precision: f64,
    /// Mean recall@N over evaluated users.
    pub recall: f64,
    /// Mean NDCG@N over evaluated users.
    pub ndcg: f64,
    /// The N used.
    pub n: usize,
    /// Users that had at least one relevant holdout item.
    pub users_evaluated: usize,
}

/// Evaluates top-N ranking over the holdout.
///
/// For each user with at least one relevant holdout item, the predictor
/// ranks that user's *holdout items* (the candidate set with known
/// ground truth); the top `n` are scored against the relevance labels.
/// Returns `None` when no user has a relevant holdout item.
pub fn evaluate_ranking<P: Predictor + ?Sized>(
    predictor: &P,
    holdout: &[HoldoutCell],
    n: usize,
    relevance_threshold: f64,
) -> Option<RankingEvaluation> {
    assert!(n > 0, "n must be positive");
    let mut by_user: HashMap<UserId, Vec<(ItemId, f64)>> = HashMap::new();
    for cell in holdout {
        by_user
            .entry(cell.user)
            .or_default()
            .push((cell.item, cell.rating));
    }

    let mut precision_sum = 0.0;
    let mut recall_sum = 0.0;
    let mut ndcg_sum = 0.0;
    let mut users = 0usize;

    let mut user_ids: Vec<UserId> = by_user.keys().copied().collect();
    user_ids.sort_unstable();
    for user in user_ids {
        let items = &by_user[&user];
        let relevant: usize = items
            .iter()
            .filter(|&&(_, r)| r >= relevance_threshold)
            .count();
        if relevant == 0 {
            continue;
        }
        // Rank the candidate set by predicted score, ties by item id.
        let mut ranked: Vec<(ItemId, f64, f64)> = items
            .iter()
            .map(|&(i, truth)| {
                let score = predictor.predict(user, i).unwrap_or(f64::NEG_INFINITY);
                (i, score, truth)
            })
            .collect();
        ranked.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });

        let top = &ranked[..ranked.len().min(n)];
        let hits = top
            .iter()
            .filter(|&&(_, _, truth)| truth >= relevance_threshold)
            .count();
        precision_sum += hits as f64 / top.len() as f64;
        recall_sum += hits as f64 / relevant as f64;

        // NDCG with binary gains.
        let dcg: f64 = top
            .iter()
            .enumerate()
            .filter(|(_, &(_, _, truth))| truth >= relevance_threshold)
            .map(|(k, _)| 1.0 / ((k + 2) as f64).log2())
            .sum();
        let ideal: f64 = (0..relevant.min(n))
            .map(|k| 1.0 / ((k + 2) as f64).log2())
            .sum();
        ndcg_sum += dcg / ideal;
        users += 1;
    }

    (users > 0).then(|| RankingEvaluation {
        precision: precision_sum / users as f64,
        recall: recall_sum / users as f64,
        ndcg: ndcg_sum / users as f64,
        n,
        users_evaluated: users,
    })
}

#[cfg(test)]
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    struct Oracle;
    impl Predictor for Oracle {
        fn predict(&self, _: UserId, item: ItemId) -> Option<f64> {
            // items with even id are "good"
            Some(if item.raw().is_multiple_of(2) {
                5.0
            } else {
                1.0
            })
        }
        fn name(&self) -> &'static str {
            "oracle"
        }
    }

    struct AntiOracle;
    impl Predictor for AntiOracle {
        fn predict(&self, _: UserId, item: ItemId) -> Option<f64> {
            Some(if item.raw().is_multiple_of(2) {
                1.0
            } else {
                5.0
            })
        }
        fn name(&self) -> &'static str {
            "anti"
        }
    }

    /// One user, 4 holdout items: even ids truly relevant (rating 5).
    fn holdout() -> Vec<HoldoutCell> {
        (0..4u32)
            .map(|i| HoldoutCell {
                user: UserId::new(0),
                item: ItemId::new(i),
                rating: if i.is_multiple_of(2) { 5.0 } else { 2.0 },
            })
            .collect()
    }

    #[test]
    fn oracle_gets_perfect_scores() {
        let e = evaluate_ranking(&Oracle, &holdout(), 2, 4.0).unwrap();
        assert_eq!(e.precision, 1.0);
        assert_eq!(e.recall, 1.0);
        assert!((e.ndcg - 1.0).abs() < 1e-12);
        assert_eq!(e.users_evaluated, 1);
    }

    #[test]
    fn anti_oracle_gets_zero_precision() {
        let e = evaluate_ranking(&AntiOracle, &holdout(), 2, 4.0).unwrap();
        assert_eq!(e.precision, 0.0);
        assert_eq!(e.recall, 0.0);
        assert_eq!(e.ndcg, 0.0);
    }

    #[test]
    fn no_relevant_items_yields_none() {
        let cells = vec![HoldoutCell {
            user: UserId::new(0),
            item: ItemId::new(0),
            rating: 2.0,
        }];
        assert!(evaluate_ranking(&Oracle, &cells, 3, 4.0).is_none());
    }

    #[test]
    fn n_larger_than_candidates_is_fine() {
        let e = evaluate_ranking(&Oracle, &holdout(), 100, 4.0).unwrap();
        // all candidates returned; 2 of 4 are relevant
        assert!((e.precision - 0.5).abs() < 1e-12);
        assert_eq!(e.recall, 1.0);
    }

    #[test]
    fn averaged_over_users() {
        let mut cells = holdout();
        // second user where even items are also relevant
        cells.extend((0..4u32).map(|i| HoldoutCell {
            user: UserId::new(1),
            item: ItemId::new(i),
            rating: if i.is_multiple_of(2) { 4.5 } else { 1.0 },
        }));
        let e = evaluate_ranking(&Oracle, &cells, 2, 4.0).unwrap();
        assert_eq!(e.users_evaluated, 2);
        assert_eq!(e.precision, 1.0);
    }

    #[test]
    #[should_panic(expected = "n must be positive")]
    fn zero_n_panics() {
        let _ = evaluate_ranking(&Oracle, &holdout(), 0, 4.0);
    }
}
