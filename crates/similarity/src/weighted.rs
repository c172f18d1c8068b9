//! Smoothing-aware similarity: Eq. 10/11 and the pair weight of Eq. 13.

use cf_matrix::{DenseRatings, ItemId, UserId, WeightPlanes};

/// The weighting coefficient `w` of Eq. 11: an original rating counts with
/// weight `ε`, a smoothed (imputed) rating with `1 − ε`.
///
/// The paper's default `w = 0.35` means original ratings weigh 0.35 and
/// smoothed ones 0.65 — smoothed values carry cluster consensus, which on
/// sparse data is more reliable than a single raw rating.
#[inline]
pub fn smoothing_weight(is_original: bool, epsilon: f64) -> f64 {
    if is_original {
        epsilon
    } else {
        1.0 - epsilon
    }
}

/// The smoothing-aware user-user similarity of Eq. 10.
///
/// Ranks candidate user `u` against the active user `u_a`. The sum runs
/// over the items the *active user* has rated (`f : i ∈ I{u_a}`); the
/// candidate contributes its dense smoothed rating for each such item,
/// weighted by [`smoothing_weight`] according to whether the candidate's
/// rating is original or imputed.
///
/// * `active_items` / `active_vals` — the active user's (sparse) profile,
/// * `active_mean` — the active user's mean rating,
/// * `candidate` — the candidate's row in the smoothed dense matrix,
/// * `candidate_mean` — the candidate's mean rating,
/// * `epsilon` — the paper's `w` parameter (default 0.35).
///
/// Returns 0 when either side has no variance over the summation set.
pub fn weighted_user_pcc(
    active_items: &[ItemId],
    active_vals: &[f64],
    active_mean: f64,
    smoothed: &DenseRatings,
    candidate: UserId,
    candidate_mean: f64,
    epsilon: f64,
) -> f64 {
    let row = smoothed.row(candidate);
    let mut dot = 0.0;
    let mut norm_c = 0.0;
    let mut norm_a = 0.0;
    let mut n = 0usize;
    for (&item, &ra) in active_items.iter().zip(active_vals) {
        let rc = row[item.index()];
        if rc.is_nan() {
            // Candidate has neither an original nor a smoothed rating here
            // (possible when smoothing had no signal); skip the term.
            continue;
        }
        let w = smoothing_weight(smoothed.is_original(candidate, item), epsilon);
        let dc = rc - candidate_mean;
        let da = ra - active_mean;
        dot += w * dc * da;
        norm_c += (w * dc) * (w * dc);
        norm_a += da * da;
        n += 1;
    }
    if n < crate::MIN_OVERLAP || norm_c <= 0.0 || norm_a <= 0.0 {
        return 0.0;
    }
    (dot / (norm_c.sqrt() * norm_a.sqrt())).clamp(-1.0, 1.0)
}

/// The serving-fast-path variant of [`weighted_user_pcc`], reading the
/// candidate's row of 16-bit cells from the quantized [`WeightPlanes`]
/// instead of the dense matrix + provenance bitmap.
///
/// ε is already folded into the plane's weight LUT (exactly — weights are
/// never quantized), so the per-item loop has no weight select; presence
/// comes from the same cell load ([`cf_matrix::PlaneDequant::triple`]),
/// and the cell's rating is dequantized in the loop. Only the rating
/// carries quantization error (≤ `step/2` per cell, `step =
/// planes.step()`): the overlap count `n` and the availability decision
/// are exact, and the correlation matches the naive kernel to a
/// tolerance proportional to `step / min|deviation|` (DESIGN.md §6c).
///
/// A candidate whose weighted deviations are indistinguishable from
/// quantization noise (`Σ(w·dc)² ≤ n·(step/2)²`) scores 0: with exact
/// ratings such candidates have zero variance and score 0 too, and
/// without the floor their residual quantization jitter would resolve to
/// a spurious ±1 correlation.
pub fn weighted_user_pcc_planes(
    active_items: &[ItemId],
    active_vals: &[f64],
    active_mean: f64,
    planes: &WeightPlanes,
    candidate: UserId,
    candidate_mean: f64,
) -> f64 {
    let cells = planes.cell_row(candidate);
    let dq = planes.dq();
    let mut dot = 0.0;
    let mut norm_c = 0.0;
    let mut norm_a = 0.0;
    let mut n = 0u64;
    for (&item, &ra) in active_items.iter().zip(active_vals) {
        let (w, wr, p) = dq.triple(cells[item.index()]);
        let wdc = wr - w * candidate_mean;
        let da = ra - active_mean;
        dot += wdc * da;
        norm_c += wdc * wdc;
        norm_a += (p as f64) * (da * da);
        n += p;
    }
    // Quantization noise floor: each w·dc carries absolute error ≤ step/2
    // (w ≤ 1), so a sum of squares at or below n·(step/2)² is pure noise.
    let half = dq.step() * 0.5;
    let floor = (n as f64) * half * half;
    if (n as usize) < crate::MIN_OVERLAP || norm_c <= floor || norm_a <= 0.0 {
        return 0.0;
    }
    (dot / (norm_c.sqrt() * norm_a.sqrt())).clamp(-1.0, 1.0)
}

/// The pair weight of Eq. 13: how much the rating a like-minded user `u_t`
/// gave a similar item `i_s` counts when predicting `(u_b, i_a)`:
///
/// `sim((i_s,i_a),(u_t,u_b)) = sim_i · sim_u / sqrt(sim_i² + sim_u²)`.
///
/// This is half the harmonic-style mean of the two similarities: it is
/// large only when *both* the item and the user are similar, and it
/// vanishes when either similarity vanishes. Returns 0 when both inputs
/// are 0 (the formula is 0/0 there).
#[inline]
pub fn pair_weight(item_sim: f64, user_sim: f64) -> f64 {
    let denom = (item_sim * item_sim + user_sim * user_sim).sqrt();
    if denom <= f64::EPSILON {
        0.0
    } else {
        item_sim * user_sim / denom
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use cf_matrix::{ItemId, UserId};

    #[test]
    fn smoothing_weight_splits_epsilon() {
        assert_eq!(smoothing_weight(true, 0.35), 0.35);
        assert!((smoothing_weight(false, 0.35) - 0.65).abs() < 1e-12);
        assert_eq!(smoothing_weight(true, 1.0), 1.0);
        assert_eq!(smoothing_weight(false, 1.0), 0.0);
    }

    #[test]
    fn pair_weight_vanishes_when_either_side_vanishes() {
        assert_eq!(pair_weight(0.0, 0.9), 0.0);
        assert_eq!(pair_weight(0.9, 0.0), 0.0);
        assert_eq!(pair_weight(0.0, 0.0), 0.0);
    }

    #[test]
    fn pair_weight_of_equal_sims_is_sim_over_sqrt2() {
        let w = pair_weight(0.8, 0.8);
        assert!((w - 0.8 / std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn pair_weight_is_symmetric_and_sign_respecting() {
        assert!((pair_weight(0.5, 0.7) - pair_weight(0.7, 0.5)).abs() < 1e-12);
        // one negative similarity flips the sign
        assert!(pair_weight(-0.5, 0.7) < 0.0);
        // two negatives make a positive (agreeing dissimilarity)
        assert!(pair_weight(-0.5, -0.7) > 0.0);
    }

    #[test]
    fn pair_weight_bounded_by_min_magnitude() {
        // |w| ≤ min(|a|, |b|) always
        for &(a, b) in &[(0.9, 0.1), (0.3, 0.8), (1.0, 1.0), (-0.6, 0.2)] {
            let w: f64 = pair_weight(a, b);
            assert!(w.abs() <= f64::min(f64::abs(a), f64::abs(b)) + 1e-12);
        }
    }

    /// Builds a 2-user dense matrix: active profile on 3 items, candidate
    /// row fully populated with mixed provenance.
    fn fixture() -> (Vec<ItemId>, Vec<f64>, DenseRatings) {
        let active_items = vec![ItemId::new(0), ItemId::new(1), ItemId::new(2)];
        let active_vals = vec![5.0, 3.0, 1.0];
        let mut d = DenseRatings::new(1, 3);
        let cand = UserId::new(0);
        d.set_original(cand, ItemId::new(0), 4.0);
        d.set_smoothed(cand, ItemId::new(1), 3.0);
        d.set_original(cand, ItemId::new(2), 2.0);
        (active_items, active_vals, d)
    }

    #[test]
    fn weighted_pcc_detects_agreement() {
        let (items, vals, d) = fixture();
        let s = weighted_user_pcc(&items, &vals, 3.0, &d, UserId::new(0), 3.0, 0.35);
        assert!(s > 0.9, "profiles move together, got {s}");
    }

    #[test]
    fn weighted_pcc_detects_disagreement() {
        let (items, mut vals, d) = fixture();
        vals.reverse(); // active now rates 1,3,5 against candidate's 4,3,2
        let s = weighted_user_pcc(&items, &vals, 3.0, &d, UserId::new(0), 3.0, 0.35);
        assert!(s < -0.9, "profiles move oppositely, got {s}");
    }

    #[test]
    fn weighted_pcc_epsilon_one_ignores_smoothed_term_weighting() {
        // With ε = 1 smoothed entries get weight 0: the i1 term drops out
        // of the numerator entirely.
        let (items, vals, d) = fixture();
        let s_full = weighted_user_pcc(&items, &vals, 3.0, &d, UserId::new(0), 3.0, 1.0);
        // Only i0 and i2 contribute; they still agree perfectly.
        assert!(s_full > 0.9);
    }

    #[test]
    fn weighted_pcc_zero_variance_returns_zero() {
        let items = vec![ItemId::new(0), ItemId::new(1)];
        let vals = vec![3.0, 3.0]; // active has no variance
        let mut d = DenseRatings::new(1, 2);
        d.set_original(UserId::new(0), ItemId::new(0), 1.0);
        d.set_original(UserId::new(0), ItemId::new(1), 5.0);
        let s = weighted_user_pcc(&items, &vals, 3.0, &d, UserId::new(0), 3.0, 0.35);
        assert_eq!(s, 0.0);
    }

    #[test]
    fn weighted_pcc_skips_absent_candidate_cells() {
        let items = vec![ItemId::new(0), ItemId::new(1), ItemId::new(2)];
        let vals = vec![5.0, 1.0, 3.0];
        let mut d = DenseRatings::new(1, 3);
        d.set_original(UserId::new(0), ItemId::new(0), 5.0);
        d.set_original(UserId::new(0), ItemId::new(1), 1.0);
        // item 2 absent for candidate
        let s = weighted_user_pcc(&items, &vals, 3.0, &d, UserId::new(0), 3.0, 0.35);
        assert!(s > 0.9);
    }

    #[test]
    fn planes_variant_matches_naive_on_fixture() {
        let (items, vals, d) = fixture();
        for eps in [0.0, 0.35, 1.0] {
            let planes = WeightPlanes::from_dense(&d, eps);
            let naive = weighted_user_pcc(&items, &vals, 3.0, &d, UserId::new(0), 3.0, eps);
            let fused = weighted_user_pcc_planes(&items, &vals, 3.0, &planes, UserId::new(0), 3.0);
            // Fixture deviations are ≥ 1.0, so the correlation error is
            // O(step) (see DESIGN.md §6c); 10·step leaves margin.
            let tol = 10.0 * planes.step() + 1e-9;
            assert!(
                (naive - fused).abs() < tol,
                "eps={eps}: naive={naive}, fused={fused}"
            );
        }
    }

    #[test]
    fn planes_variant_zeroes_quantization_noise_candidates() {
        // Candidate rated everything exactly at their mean: the naive
        // kernel sees zero variance and returns 0. Quantization would
        // leave ±step/2 jitter that resolves to a spurious ±1 without the
        // noise floor.
        let items = [ItemId::new(0), ItemId::new(1), ItemId::new(2)];
        let vals = [5.0, 1.0, 3.0];
        let mut d = DenseRatings::new(1, 3);
        // Mixed magnitudes force a nonzero quantization step, while the
        // candidate's deviations from mean 3.3 are all zero.
        d.set_original(UserId::new(0), ItemId::new(0), 3.3);
        d.set_original(UserId::new(0), ItemId::new(1), 3.3);
        d.set_smoothed(UserId::new(0), ItemId::new(2), 1.0);
        let planes = WeightPlanes::from_dense(&d, 0.35);
        assert!(planes.step() > 0.0);
        let naive = weighted_user_pcc(
            &[ItemId::new(0), ItemId::new(1)],
            &vals[..2],
            3.0,
            &d,
            UserId::new(0),
            3.3,
            0.35,
        );
        assert_eq!(naive, 0.0);
        let fused =
            weighted_user_pcc_planes(&items[..2], &vals[..2], 3.0, &planes, UserId::new(0), 3.3);
        assert_eq!(fused, 0.0, "noise floor must zero the candidate");
    }

    #[test]
    fn planes_variant_skips_absent_candidate_cells() {
        let items = vec![ItemId::new(0), ItemId::new(1), ItemId::new(2)];
        let vals = vec![5.0, 1.0, 3.0];
        let mut d = DenseRatings::new(1, 3);
        d.set_original(UserId::new(0), ItemId::new(0), 5.0);
        d.set_original(UserId::new(0), ItemId::new(1), 1.0);
        // item 2 absent for candidate: must not count toward the overlap
        let planes = WeightPlanes::from_dense(&d, 0.35);
        let s = weighted_user_pcc_planes(&items, &vals, 3.0, &planes, UserId::new(0), 3.0);
        assert!(s > 0.9);
        // a single present cell is below MIN_OVERLAP
        let mut one = DenseRatings::new(1, 3);
        one.set_original(UserId::new(0), ItemId::new(0), 5.0);
        let planes = WeightPlanes::from_dense(&one, 0.35);
        assert_eq!(
            weighted_user_pcc_planes(&items, &vals, 3.0, &planes, UserId::new(0), 3.0),
            0.0
        );
    }

    #[test]
    fn weighted_pcc_single_overlap_returns_zero() {
        let items = vec![ItemId::new(0)];
        let vals = vec![5.0];
        let mut d = DenseRatings::new(1, 1);
        d.set_original(UserId::new(0), ItemId::new(0), 5.0);
        let s = weighted_user_pcc(&items, &vals, 3.0, &d, UserId::new(0), 3.0, 0.35);
        assert_eq!(s, 0.0);
    }
}
