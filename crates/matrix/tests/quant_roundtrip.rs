//! Quantize/dequantize round-trip properties for [`WeightPlanes`].
//!
//! The planes store each cell as a quantized code plus presence and
//! provenance bits (DESIGN.md §6c).
//! The contract under test, at both precisions:
//!
//! - weights are **exact**: an original cell dequantizes to `w = ε`, a
//!   smoothed one to `w = 1 − ε`, bit-for-bit — weights are a 4-entry LUT,
//!   never quantized;
//! - ratings round-trip to within half a quantization step: the fused
//!   `w·r` product is within `|w| · step/2` of the true product;
//! - absent cells dequantize to a hard zero pair and `is_present` agrees
//!   with the dense matrix exactly.

#![allow(clippy::float_cmp)]

use cf_matrix::{DenseRatings, ItemId, MatrixBuilder, PlanePrecision, UserId, WeightPlanes};
use proptest::prelude::*;

/// A dense ratings sheet mixing original, pseudo-smoothed, and absent
/// cells, with ratings beyond the 1..=5 scale on the smoothed side (the
/// smoother can overshoot, so calibration must be data-ranged).
fn arb_dense() -> impl Strategy<Value = DenseRatings> {
    (
        proptest::collection::btree_map((0u32..12, 0u32..90), 1u32..=5, 5..160),
        0u64..8,
    )
        .prop_map(|(cells, seed)| {
            let mut b = MatrixBuilder::with_dims(12, 90);
            for (&(u, i), &r) in &cells {
                b.push(UserId::new(u), ItemId::new(i), f64::from(r));
            }
            let m = b.build().expect("valid");
            let mut dense = DenseRatings::from_sparse(&m);
            for u in 0..12u32 {
                for i in 0..90u32 {
                    let (user, item) = (UserId::new(u), ItemId::new(i));
                    let h = u as u64 * 31 + i as u64 * 7 + seed;
                    if dense.get(user, item).is_none() && !h.is_multiple_of(3) {
                        // Deliberately overshoots 5.0 (up to ~6.4).
                        dense.set_smoothed(user, item, 0.5 + (h % 60) as f64 * 0.1);
                    }
                }
            }
            dense
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn round_trip_is_within_half_a_step_with_exact_weights(
        dense in arb_dense(),
        eps_pick in 0usize..3,
    ) {
        let eps = [0.0, 0.35, 1.0][eps_pick];
        for precision in [PlanePrecision::U16, PlanePrecision::U8] {
            let planes = WeightPlanes::from_dense_with(&dense, eps, precision);
            let half = planes.step() * 0.5;
            for u in 0..dense.num_users() {
                let user = UserId::from(u);
                for i in 0..dense.num_items() {
                    let item = ItemId::from(i);
                    let (w, wr) = planes.pair(user, item);
                    match dense.get(user, item) {
                        Some(r) => {
                            let original = dense.is_original(user, item);
                            let expect_w = if original { eps } else { 1.0 - eps };
                            prop_assert!(
                                w.to_bits() == expect_w.to_bits(),
                                "weight must be exact at ({u},{i}), {precision:?}"
                            );
                            prop_assert!(
                                (wr - w * r).abs() <= w.abs() * half + 1e-12,
                                "({u},{i}) {precision:?}: wr={wr}, w*r={}, step={}",
                                w * r, planes.step()
                            );
                            prop_assert!(planes.is_present(user, item));
                        }
                        None => {
                            prop_assert_eq!(w, 0.0);
                            prop_assert_eq!(wr.abs(), 0.0);
                            prop_assert!(!planes.is_present(user, item));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn u8_step_is_coarser_but_presence_identical(dense in arb_dense()) {
        let fine = WeightPlanes::from_dense_with(&dense, 0.35, PlanePrecision::U16);
        let coarse = WeightPlanes::from_dense_with(&dense, 0.35, PlanePrecision::U8);
        // Same data range ⇒ step ratio is exactly the code-capacity ratio.
        if fine.step() > 0.0 {
            prop_assert!((coarse.step() / fine.step() - 16383.0 / 63.0).abs() < 1e-9);
        } else {
            prop_assert_eq!(coarse.step(), 0.0);
        }
        prop_assert!(coarse.cell_bytes() * 2 == fine.cell_bytes());
        for u in 0..dense.num_users() {
            for i in 0..dense.num_items() {
                let (user, item) = (UserId::from(u), ItemId::from(i));
                prop_assert_eq!(fine.is_present(user, item), coarse.is_present(user, item));
            }
        }
    }
}
