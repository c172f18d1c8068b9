//! Property-based tests for the rating-matrix substrate.

#![allow(clippy::float_cmp)]

use cf_matrix::{ItemId, MatrixBuilder, RatingMatrix, UserId};
use proptest::prelude::*;

/// Strategy: a deduplicated set of valid rating triplets.
fn arb_triplets() -> impl Strategy<Value = Vec<(u32, u32, f64)>> {
    proptest::collection::btree_map(
        (0u32..40, 0u32..50),
        (1u32..=5).prop_map(|r| r as f64),
        1..200,
    )
    .prop_map(|m| m.into_iter().map(|((u, i), r)| (u, i, r)).collect())
}

fn build(triplets: &[(u32, u32, f64)]) -> RatingMatrix {
    let mut b = MatrixBuilder::new();
    for &(u, i, r) in triplets {
        b.push(UserId::new(u), ItemId::new(i), r);
    }
    b.build().expect("valid triplets")
}

proptest! {
    #[test]
    fn every_pushed_triplet_is_retrievable(triplets in arb_triplets()) {
        let m = build(&triplets);
        for &(u, i, r) in &triplets {
            prop_assert_eq!(m.get(UserId::new(u), ItemId::new(i)), Some(r));
        }
        prop_assert_eq!(m.num_ratings(), triplets.len());
    }

    #[test]
    fn csr_and_csc_views_agree(triplets in arb_triplets()) {
        let m = build(&triplets);
        // every CSR entry appears in CSC and vice versa
        let mut from_rows: Vec<(u32, u32, f64)> = m
            .triplets()
            .map(|(u, i, r)| (u.raw(), i.raw(), r))
            .collect();
        let mut from_cols: Vec<(u32, u32, f64)> = m
            .items()
            .flat_map(|i| m.item_ratings(i).map(move |(u, r)| (u.raw(), i.raw(), r)))
            .collect();
        from_rows.sort_by(|a, b| a.partial_cmp(b).unwrap());
        from_cols.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(from_rows, from_cols);
    }

    #[test]
    fn means_are_bounded_by_observed_ratings(triplets in arb_triplets()) {
        let m = build(&triplets);
        prop_assert!(m.global_mean() >= 1.0 && m.global_mean() <= 5.0);
        for u in m.users() {
            let (_, vals) = m.user_row(u);
            if !vals.is_empty() {
                let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                prop_assert!(m.user_mean(u) >= lo - 1e-12 && m.user_mean(u) <= hi + 1e-12);
            } else {
                prop_assert_eq!(m.user_mean(u), m.global_mean());
            }
        }
    }

    #[test]
    fn duplicate_identical_pushes_are_idempotent(triplets in arb_triplets()) {
        let mut b = MatrixBuilder::new();
        for &(u, i, r) in &triplets {
            b.push(UserId::new(u), ItemId::new(i), r);
            b.push(UserId::new(u), ItemId::new(i), r); // exact duplicate
        }
        let m = b.build().expect("exact duplicates collapse");
        prop_assert_eq!(m.num_ratings(), triplets.len());
    }

    #[test]
    fn filter_users_then_counts_add_up(triplets in arb_triplets(), pivot in 0u32..40) {
        let m = build(&triplets);
        // filter_users requires a non-empty result (an all-empty matrix is
        // unrepresentable by design), so only build the non-empty sides.
        let below: usize = triplets.iter().filter(|t| t.0 < pivot).count();
        let above = triplets.len() - below;
        if below > 0 {
            let kept = m.filter_users(|u| u.raw() < pivot);
            prop_assert_eq!(kept.num_ratings(), below);
            prop_assert_eq!(kept.num_users(), m.num_users());
        }
        if above > 0 {
            let dropped = m.filter_users(|u| u.raw() >= pivot);
            prop_assert_eq!(dropped.num_ratings(), above);
        }
    }

    #[test]
    fn without_cells_never_removes_other_cells(triplets in arb_triplets()) {
        let m = build(&triplets);
        let victims: Vec<(UserId, ItemId)> = triplets
            .iter()
            .step_by(3)
            .map(|&(u, i, _)| (UserId::new(u), ItemId::new(i)))
            .collect();
        prop_assume!(victims.len() < triplets.len());
        let h = m.without_cells(&victims);
        prop_assert_eq!(h.num_ratings(), m.num_ratings() - victims.len());
        for &(u, i, r) in &triplets {
            let cell = (UserId::new(u), ItemId::new(i));
            if victims.contains(&cell) {
                prop_assert_eq!(h.get(cell.0, cell.1), None);
            } else {
                prop_assert_eq!(h.get(cell.0, cell.1), Some(r));
            }
        }
    }

    #[test]
    fn density_matches_definition(triplets in arb_triplets()) {
        let m = build(&triplets);
        let expect = m.num_ratings() as f64 / (m.num_users() * m.num_items()) as f64;
        prop_assert!((m.density() - expect).abs() < 1e-12);
    }
}
