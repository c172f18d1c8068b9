//! Property tests pinning the serving fast path to the reference kernels.
//!
//! `Cfsf::predict_with_breakdown` (quantized planes + gathered SUIR
//! kernel) must match `Cfsf::predict_with_breakdown_ref` (per-cell `f64`
//! loops over the dense matrix) on every component, for random matrices,
//! the ε extremes and paper default, and across thread counts.
//!
//! The tolerance is model-derived: `plane_quant_step() + 1e-9`. Every
//! estimator is a convex (weighted-average) combination of ratings each
//! quantized to within half a step, weights are exact (DESIGN.md §6c
//! weight LUT), and fusion/clamping don't amplify error — so one step
//! bounds the value gap while availability, `m_used`/`k_used`, fallback,
//! and degrade level must agree exactly.

use cf_matrix::{ItemId, MatrixBuilder, Predictor, RatingMatrix, UserId};
use cfsf_core::{Cfsf, CfsfConfig};
use proptest::prelude::*;

fn arb_matrix() -> impl Strategy<Value = RatingMatrix> {
    proptest::collection::btree_map(
        (0u32..20, 0u32..24),
        (1u32..=5).prop_map(|r| r as f64),
        30..220,
    )
    .prop_map(|m| {
        let mut b = MatrixBuilder::with_dims(20, 24);
        for ((u, i), r) in m {
            b.push(UserId::new(u), ItemId::new(i), r);
        }
        b.build().expect("valid")
    })
}

fn opt_close(a: Option<f64>, b: Option<f64>, tol: f64) -> bool {
    match (a, b) {
        (Some(x), Some(y)) => (x - y).abs() <= tol,
        (None, None) => true,
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn fast_path_matches_reference_across_epsilon(m in arb_matrix()) {
        for eps in [0.0, 0.35, 1.0] {
            let mut cfg = CfsfConfig::small();
            cfg.w = eps;
            let model = Cfsf::fit(&m, cfg).expect("fit");
            let tol = model.plane_quant_step() + 1e-9;
            for u in 0..m.num_users() {
                for i in 0..m.num_items() {
                    let (user, item) = (UserId::from(u), ItemId::from(i));
                    let fast = model.predict_with_breakdown(user, item);
                    let refr = model.predict_with_breakdown_ref(user, item);
                    match (fast, refr) {
                        (Some(f), Some(r)) => {
                            prop_assert!(
                                (f.fused - r.fused).abs() <= tol,
                                "eps={eps} ({u},{i}): fast={} ref={}",
                                f.fused, r.fused
                            );
                            prop_assert!(opt_close(f.sir, r.sir, tol), "sir eps={eps} ({u},{i})");
                            prop_assert!(opt_close(f.sur, r.sur, tol), "sur eps={eps} ({u},{i})");
                            prop_assert!(
                                opt_close(f.suir, r.suir, tol),
                                "suir eps={eps} ({u},{i})"
                            );
                            prop_assert!(f.m_used == r.m_used, "m_used eps={eps} ({u},{i})");
                            prop_assert!(f.k_used == r.k_used, "k_used eps={eps} ({u},{i})");
                            prop_assert!(
                                f.used_fallback == r.used_fallback,
                                "fallback eps={eps} ({u},{i})"
                            );
                        }
                        (None, None) => {}
                        (f, r) => {
                            prop_assert!(
                                false,
                                "availability eps={eps} ({u},{i}): {f:?} vs {r:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn batch_fast_path_matches_reference_across_threads(m in arb_matrix()) {
        let model = Cfsf::fit(&m, CfsfConfig::small()).expect("fit");
        let tol = model.plane_quant_step() + 1e-9;
        let reqs: Vec<(UserId, ItemId)> = (0..150)
            .map(|k| (UserId::new(k % 20), ItemId::new((k * 7) % 24)))
            .collect();
        // A deterministic shuffle of the same requests: the strip sort
        // inside predict_batch must make request order irrelevant.
        let shuffled: Vec<(UserId, ItemId)> = (0..reqs.len())
            .map(|k| reqs[(k * 101 + 37) % reqs.len()])
            .collect();
        let reference: Vec<Option<f64>> = reqs
            .iter()
            .map(|&(u, i)| model.predict_with_breakdown_ref(u, i).map(|b| b.fused))
            .collect();
        // The batch path must also stay bit-identical to the serial fast
        // path regardless of thread count (the batch_matches_serial
        // contract), while both sit within tolerance of the reference.
        let serial: Vec<Option<f64>> = reqs.iter().map(|&(u, i)| model.predict(u, i)).collect();
        let serial_shuffled: Vec<Option<f64>> =
            shuffled.iter().map(|&(u, i)| model.predict(u, i)).collect();
        for threads in [1usize, 2, 8] {
            model.clear_caches();
            let batch = model.predict_batch(&reqs, Some(threads));
            prop_assert!(batch == serial, "bit-exactness broke at threads={threads}");
            for (k, (b, r)) in batch.iter().zip(&reference).enumerate() {
                prop_assert!(
                    opt_close(*b, *r, tol),
                    "threads={} req={} batch={:?} ref={:?}", threads, k, b, r
                );
            }
            model.clear_caches();
            let batch_shuffled = model.predict_batch(&shuffled, Some(threads));
            prop_assert!(
                batch_shuffled == serial_shuffled,
                "request-order invariance broke at threads={threads}"
            );
        }
    }
}
