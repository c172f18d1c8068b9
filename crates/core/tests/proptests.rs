//! Property-based tests for CFSF's fusion math and online invariants.

use std::sync::OnceLock;

use cf_matrix::{ItemId, MatrixBuilder, Predictor, RatingMatrix, UserId};
use cfsf_core::topk::top_k_by_score;
use cfsf_core::{fuse, Cfsf, CfsfConfig, FusionWeights};
use proptest::prelude::*;

fn arb_component() -> impl Strategy<Value = Option<f64>> {
    proptest::option::of(1.0f64..=5.0)
}

fn arb_matrix() -> impl Strategy<Value = RatingMatrix> {
    proptest::collection::btree_map(
        (0u32..20, 0u32..25),
        (1u32..=5).prop_map(|r| r as f64),
        10..150,
    )
    .prop_map(|m| {
        let mut b = MatrixBuilder::with_dims(20, 25);
        for ((u, i), r) in m {
            b.push(UserId::new(u), ItemId::new(i), r);
        }
        b.build().expect("valid")
    })
}

proptest! {
    #[test]
    fn fusion_weights_always_sum_to_one(lambda in 0.0f64..=1.0, delta in 0.0f64..=1.0) {
        let w = FusionWeights::new(lambda, delta);
        prop_assert!((w.sir + w.sur + w.suir - 1.0).abs() < 1e-12);
        prop_assert!(w.sir >= 0.0 && w.sur >= 0.0 && w.suir >= 0.0);
    }

    #[test]
    fn fusion_is_convex_over_present_components(
        sir in arb_component(),
        sur in arb_component(),
        suir in arb_component(),
        lambda in 0.0f64..=1.0,
        delta in 0.0f64..=1.0,
    ) {
        match fuse(sir, sur, suir, lambda, delta) {
            Some(v) => {
                let present: Vec<f64> = [sir, sur, suir].iter().flatten().copied().collect();
                let lo = present.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = present.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "{v} not in [{lo}, {hi}]");
            }
            None => {
                // None only when no component carries weight
                let w = FusionWeights::new(lambda, delta);
                let carried = [(sir, w.sir), (sur, w.sur), (suir, w.suir)]
                    .iter()
                    .any(|(v, wt)| v.is_some() && *wt > f64::EPSILON);
                prop_assert!(!carried);
            }
        }
    }

    #[test]
    fn fusion_is_monotone_in_each_component(
        base in 1.0f64..=4.0,
        bump in 0.01f64..=1.0,
        lambda in 0.05f64..=0.95,
        delta in 0.05f64..=0.95,
    ) {
        let low = fuse(Some(base), Some(base), Some(base), lambda, delta).unwrap();
        let hi_sir = fuse(Some(base + bump), Some(base), Some(base), lambda, delta).unwrap();
        let hi_sur = fuse(Some(base), Some(base + bump), Some(base), lambda, delta).unwrap();
        let hi_suir = fuse(Some(base), Some(base), Some(base + bump), lambda, delta).unwrap();
        prop_assert!(hi_sir >= low && hi_sur >= low && hi_suir >= low);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn model_predictions_stay_on_scale_and_are_deterministic(
        m in arb_matrix(),
        lambda in 0.0f64..=1.0,
        delta in 0.0f64..=1.0,
    ) {
        let config = CfsfConfig {
            clusters: 3,
            k: 6,
            m: 10,
            lambda,
            delta,
            ..CfsfConfig::paper()
        };
        let model = Cfsf::fit(&m, config).unwrap();
        for u in 0..m.num_users().min(10) {
            for i in 0..m.num_items().min(10) {
                let (u, i) = (UserId::from(u), ItemId::from(i));
                let a = model.predict(u, i);
                let b = model.predict(u, i);
                prop_assert_eq!(a, b);
                if let Some(r) = a {
                    prop_assert!((1.0..=5.0).contains(&r));
                }
            }
        }
    }

    #[test]
    fn breakdown_matches_predict(m in arb_matrix()) {
        let model = Cfsf::fit(
            &m,
            CfsfConfig { clusters: 3, k: 6, m: 10, ..CfsfConfig::paper() },
        )
        .unwrap();
        for u in 0..m.num_users().min(8) {
            for i in 0..m.num_items().min(8) {
                let (u, i) = (UserId::from(u), ItemId::from(i));
                let p = model.predict(u, i);
                let b = model.predict_with_breakdown(u, i).map(|b| b.fused);
                prop_assert_eq!(p, b);
            }
        }
    }
}

/// One fit serves every top-N case: the small synthetic matrix plus two
/// users with no ratings at all. Each case varies the online-only
/// parameters with `reparameterize`.
fn topn_base() -> &'static Cfsf {
    static BASE: OnceLock<Cfsf> = OnceLock::new();
    BASE.get_or_init(|| {
        let d = cf_data::SyntheticConfig::small().generate();
        let m = &d.matrix;
        let mut b = MatrixBuilder::with_dims(m.num_users() + 2, m.num_items());
        for u in m.users() {
            let (items, vals) = m.user_row(u);
            for (&i, &r) in items.iter().zip(vals) {
                b.push(u, i, r);
            }
        }
        Cfsf::fit(&b.build().expect("valid"), CfsfConfig::small()).expect("fit")
    })
}

/// Top-N as it was before pruning: predict every unrated item of the
/// stripe and keep the best `n`.
fn exhaustive_top_n(
    model: &Cfsf,
    user: UserId,
    n: usize,
    items: std::ops::Range<u32>,
) -> Vec<(ItemId, f64)> {
    let matrix = model.matrix();
    let end = items.end.min(matrix.num_items() as u32);
    let start = items.start.min(end);
    top_k_by_score(
        n,
        (start..end)
            .map(ItemId::new)
            .filter(|&i| !matrix.is_rated(user, i))
            .filter_map(|i| model.predict(user, i).map(|r| (i, r))),
    )
}

fn bits(v: &[(ItemId, f64)]) -> Vec<(ItemId, u64)> {
    v.iter().map(|&(i, s)| (i, s.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pruned top-N equals the exhaustive pipeline by `to_bits` and in
    /// order, for `w`, `λ`, `δ` on {0, 0.1, 1}, smoothing on and off,
    /// random stripes, a user with no ratings, and `n` from none through
    /// every candidate to `u32::MAX`.
    #[test]
    fn pruned_top_n_equals_scoring_every_item(
        w in 0usize..3,
        lambda in 0usize..3,
        delta in 0usize..3,
        smoothing in 0u32..2,
        user in 0u32..82,
        a in 0u32..140,
        b in 0u32..140,
    ) {
        const GRID: [f64; 3] = [0.0, 0.1, 1.0];
        let model = topn_base()
            .reparameterize(|c| {
                c.w = GRID[w];
                c.lambda = GRID[lambda];
                c.delta = GRID[delta];
                c.use_smoothing = smoothing == 1;
            })
            .expect("online-only parameters are valid");
        let no_ratings = UserId::from(model.matrix().num_users() - 1);
        prop_assert_eq!(model.matrix().user_count(no_ratings), 0);
        let stripe = a.min(b)..a.max(b);
        let other = |k: u32| UserId::new((user + k) % 80);
        for (user, items) in [
            (UserId::new(user), stripe),
            (other(27), 0..u32::MAX),
            (other(53), 0..u32::MAX),
            (no_ratings, 0..u32::MAX),
        ] {
            let all = exhaustive_top_n(&model, user, usize::MAX, items.clone());
            for n in [0, 1, 10, all.len(), u32::MAX as usize] {
                let want = &all[..n.min(all.len())];
                let (got, want) = (bits(&model.recommend_top_n_in_range(user, n, items.clone())), bits(want));
                prop_assert!(got == want, "user {user:?}, n {n}, items {items:?}: {got:?} != {want:?}");
            }
        }
    }
}
