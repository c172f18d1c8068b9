//! `WeightPlanes::patched` against a full fold. A patch must calibrate
//! its code range bit for bit as `from_dense_with` over the patched
//! store, refuse exactly when that range moved, and otherwise store the
//! same bits, row ranges included. Both zeros are among the values,
//! because a fold that visits cells in another order can keep the other
//! zero as the minimum.

#![allow(clippy::float_cmp)]

use cf_matrix::{DenseRatings, ItemId, PlanePrecision, PlanesView, UserId, WeightPlanes};
use proptest::prelude::*;

const USERS: u32 = 5;
/// Rows longer than one 64-bit word.
const ITEMS: u32 = 70;
/// Cell values by index; index 0 leaves the cell absent.
const VALUES: [f64; 8] = [f64::NAN, -0.0, 0.0, 0.5, 1.25, 2.0, 3.5, 4.0];

type Cell = ((u32, u32), (usize, bool));

/// The calibrated code range: the bits of `min` and `step`.
fn calibration(p: &WeightPlanes) -> (u64, u64) {
    let (min, _) = match p.view() {
        PlanesView::U16(t) => t.rating_range(),
        PlanesView::U8(t) => t.rating_range(),
    };
    (min.to_bits(), p.step().to_bits())
}

fn set(d: &mut DenseRatings, (u, i): (u32, u32), (value, original): (usize, bool)) {
    let (u, i, v) = (UserId::new(u), ItemId::new(i), VALUES[value]);
    if original && !v.is_nan() {
        d.set_original(u, i, v);
    } else {
        d.set_smoothed(u, i, v);
    }
}

/// The first present cell, in row order, holding the lowest (`top =
/// false`) or highest value.
fn extreme(d: &DenseRatings, top: bool) -> Option<(u32, u32)> {
    let mut best: Option<((u32, u32), f64)> = None;
    for u in 0..USERS {
        for (i, &v) in d.row(UserId::new(u)).iter().enumerate() {
            let better = match best {
                None => !v.is_nan(),
                Some((_, b)) => {
                    if top {
                        v > b
                    } else {
                        v < b
                    }
                }
            };
            if better {
                best = Some(((u, i as u32), v));
            }
        }
    }
    best.map(|(cell, _)| cell)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn patched_planes_calibrate_like_a_full_fold_and_refuse_exactly_when_it_moves(
        base in proptest::collection::btree_map(
            (0u32..USERS, 0u32..ITEMS),
            (0usize..VALUES.len(), 0u32..2),
            10..160,
        ),
        patch in proptest::collection::vec(
            ((0u32..USERS, 0u32..ITEMS), (0usize..VALUES.len(), 0u32..2)),
            0..12,
        ),
        rewrite_extreme in 0u32..3,
        extreme_value in 0usize..VALUES.len(),
    ) {
        let mut dense = DenseRatings::new(USERS as usize, ITEMS as usize);
        for (&cell, &(value, original)) in &base {
            set(&mut dense, cell, (value, original == 1));
        }
        let mut next = dense.clone();
        let mut listed: Vec<(UserId, ItemId)> = Vec::new();
        let mut cells: Vec<Cell> = patch
            .into_iter()
            .map(|(cell, (value, original))| (cell, (value, original == 1)))
            .collect();
        // Rewrite the cell holding the old minimum or maximum, so the
        // row that set the range is the one rescanned.
        if rewrite_extreme > 0 {
            if let Some(cell) = extreme(&dense, rewrite_extreme == 2) {
                cells.push((cell, (extreme_value, false)));
            }
        }
        for &(cell, value) in &cells {
            set(&mut next, cell, value);
            listed.push((UserId::new(cell.0), ItemId::new(cell.1)));
        }

        for precision in [PlanePrecision::U16, PlanePrecision::U8] {
            let folded = WeightPlanes::from_dense_with(&dense, 0.35, precision);
            let full = WeightPlanes::from_dense_with(&next, 0.35, precision);
            let moved = calibration(&full) != calibration(&folded);
            match folded.patched(&next, listed.iter().copied()) {
                Some(patched) => {
                    prop_assert!(!moved, "{precision:?}: patched across a range move");
                    prop_assert_eq!(&patched, &full);
                    // A patched plane caches its row ranges too:
                    // patching the cells back lands on the base.
                    let back = patched
                        .patched(&dense, listed.iter().copied())
                        .ok_or("patching back refused")?;
                    prop_assert_eq!(&back, &folded);
                }
                None => prop_assert!(moved, "{precision:?}: refused an unmoved range"),
            }
        }
    }
}

/// The row fold keeps the first of two equal extremes in row order, and
/// a patch that rewrites that cell moves the range to the other zero.
#[test]
fn rewriting_the_zero_that_set_the_minimum_refuses() {
    let mut dense = DenseRatings::new(2, 3);
    dense.set_smoothed(UserId::new(0), ItemId::new(2), 0.0);
    dense.set_smoothed(UserId::new(1), ItemId::new(0), -0.0);
    dense.set_smoothed(UserId::new(1), ItemId::new(1), 2.0);
    let folded = WeightPlanes::from_dense(&dense, 0.35);
    assert_eq!(calibration(&folded).0, 0.0f64.to_bits());

    let mut next = dense.clone();
    next.set_smoothed(UserId::new(0), ItemId::new(2), 1.0);
    let full = WeightPlanes::from_dense(&next, 0.35);
    assert_eq!(calibration(&full).0, (-0.0f64).to_bits());
    assert!(folded
        .patched(&next, [(UserId::new(0), ItemId::new(2))])
        .is_none());
}
