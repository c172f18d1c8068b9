//! Property-based tests for the similarity kernels and the GIS.

#![allow(clippy::float_cmp)]

use cf_matrix::{
    DenseRatings, ItemId, MatrixBuilder, PlanePrecision, RatingMatrix, UserId, WeightPlanes,
};
use cf_similarity::{
    adjusted_cosine, cosine, item_pcc, pair_weight, user_pcc, weighted_user_pcc,
    weighted_user_pcc_planes, Gis, GisConfig,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

type Cells = BTreeMap<(u32, u32), f64>;

fn arb_cells(len: std::ops::Range<usize>) -> impl Strategy<Value = Cells> {
    proptest::collection::btree_map((0u32..15, 0u32..20), (1u32..=5).prop_map(|r| r as f64), len)
}

fn matrix_of(cells: &Cells) -> RatingMatrix {
    let mut b = MatrixBuilder::with_dims(15, 20);
    for (&(u, i), &r) in cells {
        b.push(UserId::new(u), ItemId::new(i), r);
    }
    b.build().expect("valid")
}

fn arb_matrix() -> impl Strategy<Value = RatingMatrix> {
    arb_cells(2..120).prop_map(|cells| matrix_of(&cells))
}

/// A neighbor list as `(id, similarity bits)`, for bit-exact comparison.
fn bits(list: &[(ItemId, f64)]) -> Vec<(ItemId, u64)> {
    list.iter().map(|&(i, s)| (i, s.to_bits())).collect()
}

/// The first `cap` of `entries` in GIS order: similarity descending,
/// then item id ascending.
fn ranked(mut entries: Vec<(ItemId, f64)>, cap: Option<usize>) -> Vec<(ItemId, f64)> {
    entries.sort_by(|x, y| y.1.partial_cmp(&x.1).unwrap().then(x.0.cmp(&y.0)));
    entries.truncate(cap.unwrap_or(usize::MAX));
    entries
}

/// Every item whose `item_pcc` with `a` is above `threshold`, ranked and
/// capped: what `Gis::build` must store for `a`.
fn kernel_list(
    m: &RatingMatrix,
    a: ItemId,
    threshold: f64,
    cap: Option<usize>,
) -> Vec<(ItemId, f64)> {
    let above = m
        .items()
        .filter(|&b| b != a)
        .map(|b| (b, item_pcc(m, a, b)))
        .filter(|&(_, s)| s > threshold)
        .collect();
    ranked(above, cap)
}

proptest! {
    #[test]
    fn kernels_are_bounded_and_symmetric(m in arb_matrix()) {
        for a in 0..m.num_items().min(8) {
            for b in 0..m.num_items().min(8) {
                let (a, b) = (ItemId::from(a), ItemId::from(b));
                for f in [item_pcc, cosine, adjusted_cosine] {
                    let ab = f(&m, a, b);
                    let ba = f(&m, b, a);
                    prop_assert!((-1.0..=1.0).contains(&ab), "{ab}");
                    prop_assert!((ab - ba).abs() < 1e-12);
                }
            }
        }
        for a in 0..m.num_users().min(8) {
            for b in 0..m.num_users().min(8) {
                let (a, b) = (UserId::from(a), UserId::from(b));
                let ab = user_pcc(&m, a, b);
                prop_assert!((-1.0..=1.0).contains(&ab));
                prop_assert!((ab - user_pcc(&m, b, a)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn gis_lists_are_sorted_thresholded_and_kernel_consistent(m in arb_matrix()) {
        // Each list is exactly the first `cap` items whose pairwise
        // kernel value is above the threshold, ranked, bit for bit.
        let threshold = 0.1;
        for cap in [None, Some(3)] {
            for threads in [1, 2, 4] {
                let gis = Gis::build(&m, &GisConfig {
                    threshold,
                    max_neighbors: cap,
                    threads: Some(threads),
                });
                for a in m.items() {
                    let (got, want) = (bits(gis.neighbors(a)), bits(&kernel_list(&m, a, threshold, cap)));
                    prop_assert!(
                        got == want,
                        "item {:?}, cap {:?}, threads {}: gis {:?}, kernel {:?}", a, cap, threads, got, want
                    );
                }
            }
        }
    }

    #[test]
    fn capped_rebuild_patches_by_the_stale_set_not_its_order(
        base in arb_cells(20..120),
        updates in arb_cells(1..8),
    ) {
        // `updates` overwrites or adds cells; the items it touches are
        // stale. Each stale list must be rebuilt exactly, and every other
        // list must become the first `cap` of its old entries without the
        // stale ids plus the stale items' fresh similarities above the
        // threshold — whatever order the stale items come in, and
        // however often each is named.
        let threshold = 0.0;
        let cap = Some(3);
        let config = GisConfig { threshold, max_neighbors: cap, threads: Some(1) };
        let old = matrix_of(&base);
        let mut cells = base;
        cells.extend(&updates);
        let new = matrix_of(&cells);
        let mut stale: Vec<ItemId> = updates.keys().map(|&(_, i)| ItemId::new(i)).collect();
        stale.sort_unstable();
        stale.dedup();

        let before = Gis::build(&old, &config);
        let mut forward = before.clone();
        forward.rebuild_items(&new, &stale, &config);
        // The same set reversed, and every item named twice.
        let reversed_stale: Vec<ItemId> = stale.iter().rev().chain(&stale).copied().collect();
        let mut reversed = before.clone();
        reversed.rebuild_items(&new, &reversed_stale, &config);

        for b in new.items() {
            let want = if stale.contains(&b) {
                kernel_list(&new, b, threshold, cap)
            } else {
                let mut entries: Vec<(ItemId, f64)> = before
                    .neighbors(b)
                    .iter()
                    .filter(|(i, _)| !stale.contains(i))
                    .copied()
                    .collect();
                entries.extend(
                    stale
                        .iter()
                        .map(|&a| (a, item_pcc(&new, a, b)))
                        .filter(|&(_, s)| s > threshold),
                );
                ranked(entries, cap)
            };
            let (got, got_reversed, want) =
                (bits(forward.neighbors(b)), bits(reversed.neighbors(b)), bits(&want));
            prop_assert!(got == got_reversed, "item {:?}: {:?} vs reversed {:?}", b, got, got_reversed);
            prop_assert!(got == want, "item {:?}: patched {:?}, rule {:?}", b, got, want);
        }
    }

    #[test]
    fn gis_build_is_thread_count_invariant(m in arb_matrix()) {
        let cfg1 = GisConfig { threads: Some(1), ..GisConfig::default() };
        let cfg4 = GisConfig { threads: Some(4), ..GisConfig::default() };
        let g1 = Gis::build(&m, &cfg1);
        let g4 = Gis::build(&m, &cfg4);
        for i in m.items() {
            prop_assert_eq!(g1.neighbors(i), g4.neighbors(i));
        }
    }

    #[test]
    fn fused_plane_pcc_matches_naive_kernel(m in arb_matrix(), smooth_seed in 0u64..4) {
        // Densify with a mix of original and pseudo-smoothed cells, then
        // compare the fused-plane kernel against the naive one for every
        // user pair across the ε extremes and the paper default.
        //
        // The planes store candidate ratings quantized (DESIGN.md §6c), so
        // the fused kernel is only step-close to the f64 naive one. With
        // integer active-side ratings and candidate deviations that are
        // either 0 (floored to a 0 correlation) or ≥ 1/(10·q) = 0.005, a
        // u16 step (≤ ~1.2e-4 on the 1..=5 span) perturbs the correlation
        // by well under 3e-2; the bound below is that worst-corner margin,
        // not a measured gap. U8 steps are too coarse for a naive-closeness
        // bound — boundedness is asserted instead.
        let mut dense = DenseRatings::from_sparse(&m);
        for u in 0..m.num_users() {
            for i in 0..m.num_items() {
                let (u, i) = (UserId::from(u), ItemId::from(i));
                if dense.get(u, i).is_none()
                    && !(u.index() + i.index() + smooth_seed as usize).is_multiple_of(3)
                {
                    dense.set_smoothed(u, i, 1.0 + ((u.index() * 7 + i.index() * 13) % 40) as f64 / 10.0);
                }
            }
        }
        for eps in [0.0, 0.35, 1.0] {
            let planes = WeightPlanes::from_dense(&dense, eps);
            let planes_u8 =
                WeightPlanes::from_dense_with(&dense, eps, PlanePrecision::U8);
            for a in 0..m.num_users().min(6) {
                let active = UserId::from(a);
                let (items, vals) = m.user_row(active);
                if items.is_empty() {
                    continue;
                }
                let mean_a = m.user_mean(active);
                for c in 0..m.num_users().min(10) {
                    let cand = UserId::from(c);
                    let mean_c = m.user_mean(cand);
                    let naive = weighted_user_pcc(items, vals, mean_a, &dense, cand, mean_c, eps);
                    let fused = weighted_user_pcc_planes(items, vals, mean_a, &planes, cand, mean_c);
                    prop_assert!(
                        (naive - fused).abs() <= 3e-2,
                        "eps={}, a={}, c={}: naive={}, fused={}", eps, a, c, naive, fused
                    );
                    let coarse =
                        weighted_user_pcc_planes(items, vals, mean_a, &planes_u8, cand, mean_c);
                    prop_assert!(
                        (-1.0..=1.0).contains(&coarse),
                        "u8 out of range: eps={}, a={}, c={}: {}", eps, a, c, coarse
                    );
                }
            }
        }
    }

    #[test]
    fn pair_weight_is_bounded_by_min_magnitude(a in -1.0f64..=1.0, b in -1.0f64..=1.0) {
        let w = pair_weight(a, b);
        prop_assert!(w.is_finite());
        prop_assert!(w.abs() <= a.abs().min(b.abs()) + 1e-12);
        // sign(w) = sign(a*b) unless w == 0
        if w != 0.0 {
            prop_assert_eq!(w.signum(), (a * b).signum());
        }
    }
}
