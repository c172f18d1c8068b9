//! A named rating dataset plus optional generator ground truth.

use cf_matrix::{MatrixStats, RatingMatrix};

/// A rating dataset: the matrix plus provenance metadata.
///
/// When produced by the synthetic generator, the latent ground truth
/// (which taste group each user belongs to, which genre each item has) is
/// carried along — tests use it to verify that K-means actually recovers
/// planted structure, and it is never shown to any algorithm.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Human-readable name used in reports ("synthetic-movielens", ...).
    pub name: String,
    /// The rating matrix.
    pub matrix: RatingMatrix,
    /// Generator ground truth: taste group per user (if synthetic).
    pub user_groups: Option<Vec<u32>>,
    /// Generator ground truth: genre per item (if synthetic).
    pub item_genres: Option<Vec<u32>>,
}

impl Dataset {
    /// Wraps a matrix loaded from external data (no ground truth).
    pub fn from_matrix(name: impl Into<String>, matrix: RatingMatrix) -> Self {
        Self {
            name: name.into(),
            matrix,
            user_groups: None,
            item_genres: None,
        }
    }

    /// Table-I style statistics for this dataset.
    pub fn stats(&self) -> MatrixStats {
        MatrixStats::compute(&self.matrix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_matrix::{ItemId, MatrixBuilder, UserId};

    #[test]
    fn from_matrix_has_no_ground_truth() {
        let mut b = MatrixBuilder::new();
        b.push(UserId::new(0), ItemId::new(0), 3.0);
        let d = Dataset::from_matrix("tiny", b.build().unwrap());
        assert_eq!(d.name, "tiny");
        assert!(d.user_groups.is_none());
        assert_eq!(d.stats().num_ratings, 1);
    }
}
