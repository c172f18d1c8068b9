//! Accuracy metrics over holdout cells. MAE is Eq. 15 of the paper.

use cf_data::HoldoutCell;
use cf_matrix::Predictor;

/// Result of scoring a predictor over a holdout set.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Mean absolute error (Eq. 15); lower is better.
    pub mae: f64,
    /// Root mean squared error.
    pub rmse: f64,
    /// Fraction of cells the predictor answered itself (did not need the
    /// harness-level midpoint fallback).
    pub coverage: f64,
    /// Number of holdout cells scored.
    pub cells: usize,
}

/// Scores `predictor` over the holdout cells.
///
/// The paper's MAE is computed over *every* holdout cell; if a predictor
/// abstains on a cell (returns `None`) the scale midpoint (3.0 on
/// MovieLens) stands in, and `coverage` records how often that happened.
pub fn evaluate<P: Predictor + ?Sized>(predictor: &P, holdout: &[HoldoutCell]) -> Evaluation {
    assert!(!holdout.is_empty(), "holdout set is empty");
    let mut abs = 0.0;
    let mut sq = 0.0;
    let mut answered = 0usize;
    for cell in holdout {
        let pred = match predictor.predict(cell.user, cell.item) {
            Some(v) => {
                answered += 1;
                v
            }
            None => 3.0,
        };
        let e = pred - cell.rating;
        abs += e.abs();
        sq += e * e;
    }
    let n = holdout.len() as f64;
    Evaluation {
        mae: abs / n,
        rmse: (sq / n).sqrt(),
        coverage: answered as f64 / n,
        cells: holdout.len(),
    }
}

/// MAE only — see [`evaluate`].
pub fn evaluate_mae<P: Predictor + ?Sized>(predictor: &P, holdout: &[HoldoutCell]) -> f64 {
    evaluate(predictor, holdout).mae
}

/// RMSE only — see [`evaluate`].
pub fn evaluate_rmse<P: Predictor + ?Sized>(predictor: &P, holdout: &[HoldoutCell]) -> f64 {
    evaluate(predictor, holdout).rmse
}

#[cfg(test)]
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use cf_matrix::{ItemId, UserId};

    struct Fixed(f64);
    impl Predictor for Fixed {
        fn predict(&self, _: UserId, _: ItemId) -> Option<f64> {
            Some(self.0)
        }
        fn name(&self) -> &'static str {
            "fixed"
        }
    }

    struct Abstain;
    impl Predictor for Abstain {
        fn predict(&self, _: UserId, _: ItemId) -> Option<f64> {
            None
        }
        fn name(&self) -> &'static str {
            "abstain"
        }
    }

    fn holdout() -> Vec<HoldoutCell> {
        vec![
            HoldoutCell {
                user: UserId::new(0),
                item: ItemId::new(0),
                rating: 4.0,
            },
            HoldoutCell {
                user: UserId::new(0),
                item: ItemId::new(1),
                rating: 2.0,
            },
        ]
    }

    #[test]
    fn mae_and_rmse_match_hand_computation() {
        let e = evaluate(&Fixed(3.0), &holdout());
        assert!((e.mae - 1.0).abs() < 1e-12);
        assert!((e.rmse - 1.0).abs() < 1e-12);
        assert_eq!(e.coverage, 1.0);
        assert_eq!(e.cells, 2);

        let e = evaluate(&Fixed(4.0), &holdout());
        assert!((e.mae - 1.0).abs() < 1e-12); // |0| and |2| → 1.0
        assert!((e.rmse - (2.0f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn abstentions_use_midpoint_and_lower_coverage() {
        let e = evaluate(&Abstain, &holdout());
        assert_eq!(e.coverage, 0.0);
        assert!((e.mae - 1.0).abs() < 1e-12); // |3-4|, |3-2|
    }

    #[test]
    fn perfect_predictor_scores_zero() {
        struct Oracle;
        impl Predictor for Oracle {
            fn predict(&self, _: UserId, item: ItemId) -> Option<f64> {
                Some(if item.index() == 0 { 4.0 } else { 2.0 })
            }
            fn name(&self) -> &'static str {
                "oracle"
            }
        }
        let e = evaluate(&Oracle, &holdout());
        assert_eq!(e.mae, 0.0);
        assert_eq!(e.rmse, 0.0);
    }

    #[test]
    #[should_panic(expected = "holdout set is empty")]
    fn empty_holdout_panics() {
        let _ = evaluate(&Fixed(3.0), &[]);
    }
}
