//! Clustering quality metrics.
//!
//! The synthetic generator plants ground-truth taste groups, so we can
//! *measure* whether K-means under the PCC metric recovers them — the
//! implicit premise of the paper's smoothing strategy (smoothing within
//! a cluster only helps if clusters capture real taste structure).

use std::collections::HashMap;

/// Adjusted Rand Index between two labelings of the same population.
///
/// 1.0 = identical partitions (up to label permutation), ≈0 = the
/// agreement expected by chance, negative = worse than chance. The
/// labelings may use different label alphabets and different cluster
/// counts.
///
/// # Panics
/// Panics if the labelings have different lengths or are empty.
pub fn adjusted_rand_index(a: &[u32], b: &[u32]) -> f64 {
    assert_eq!(a.len(), b.len(), "labelings must cover the same population");
    assert!(!a.is_empty(), "empty labelings have no ARI");
    let n = a.len();

    // Contingency table.
    let mut table: HashMap<(u32, u32), u64> = HashMap::new();
    let mut rows: HashMap<u32, u64> = HashMap::new();
    let mut cols: HashMap<u32, u64> = HashMap::new();
    for (&x, &y) in a.iter().zip(b) {
        *table.entry((x, y)).or_default() += 1;
        *rows.entry(x).or_default() += 1;
        *cols.entry(y).or_default() += 1;
    }

    fn choose2(x: u64) -> f64 {
        (x as f64) * (x as f64 - 1.0) / 2.0
    }

    let sum_table: f64 = table.values().map(|&v| choose2(v)).sum();
    let sum_rows: f64 = rows.values().map(|&v| choose2(v)).sum();
    let sum_cols: f64 = cols.values().map(|&v| choose2(v)).sum();
    let total = choose2(n as u64);
    let expected = sum_rows * sum_cols / total;
    let max_index = 0.5 * (sum_rows + sum_cols);
    if (max_index - expected).abs() < f64::EPSILON {
        // both partitions trivial (all-one-cluster or all-singletons)
        #[expect(
            clippy::float_cmp,
            reason = "both sides are sums of integer pair counts, exact in f64"
        )]
        let identical = sum_table == max_index;
        return if identical { 1.0 } else { 0.0 };
    }
    (sum_table - expected) / (max_index - expected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KMeans, KMeansConfig};
    use cf_data::SyntheticConfig;

    #[test]
    fn identical_partitions_score_one() {
        let a = vec![0, 0, 1, 1, 2, 2];
        assert!((adjusted_rand_index(&a, &a) - 1.0).abs() < 1e-12);
        // label permutation doesn't matter
        let b = vec![5, 5, 9, 9, 7, 7];
        assert!((adjusted_rand_index(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn independent_partitions_score_near_zero() {
        // a splits by half, b alternates: agreement is chance-level
        let a: Vec<u32> = (0..40).map(|i| (i / 20) as u32).collect();
        let b: Vec<u32> = (0..40).map(|i| (i % 2) as u32).collect();
        let ari = adjusted_rand_index(&a, &b);
        assert!(ari.abs() < 0.15, "got {ari}");
    }

    #[test]
    fn partial_agreement_is_between() {
        let a = vec![0, 0, 0, 1, 1, 1];
        let b = vec![0, 0, 1, 1, 1, 1];
        let ari = adjusted_rand_index(&a, &b);
        assert!(ari > 0.0 && ari < 1.0, "got {ari}");
    }

    #[test]
    #[should_panic(expected = "same population")]
    fn length_mismatch_panics() {
        let _ = adjusted_rand_index(&[0, 1], &[0]);
    }

    #[test]
    fn kmeans_recovers_planted_taste_groups() {
        // The premise of the smoothing strategy, measured: K-means with
        // k = true group count must beat chance decisively.
        let d = SyntheticConfig {
            taste_groups: 4,
            noise_sd: 0.4,
            ..SyntheticConfig::small()
        }
        .generate();
        let truth = d.user_groups.as_ref().unwrap();
        let clusters = KMeans::fit(
            &d.matrix,
            &KMeansConfig {
                k: 4,
                seed: 3,
                ..Default::default()
            },
        );
        let labels: Vec<u32> = d
            .matrix
            .users()
            .map(|u| clusters.cluster_of(u) as u32)
            .collect();
        let ari = adjusted_rand_index(truth, &labels);
        assert!(
            ari > 0.5,
            "K-means should recover planted groups, ARI = {ari}"
        );
    }
}
