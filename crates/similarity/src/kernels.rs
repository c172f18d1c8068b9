//! Pairwise similarity kernels over the sparse rating matrix.
//!
//! All kernels intersect two sorted sparse vectors with a merge walk, so a
//! pairwise similarity costs `O(len_a + len_b)`. Pearson kernels center on
//! the *entity's global mean* (the item's/user's mean over all its ratings),
//! exactly as Eq. 5/6 of the paper write `r̄_{i_a}` and `r̄_{u_a}`.

use cf_matrix::{ItemId, RatingMatrix, UserId};

/// Minimum number of co-ratings required before a Pearson correlation is
/// considered meaningful; below this the kernels return 0 (a single shared
/// rating always correlates perfectly, which is pure noise).
pub const MIN_OVERLAP: usize = 2;

/// Merge-walk over two id-sorted sparse vectors, calling `f(va, vb)` for
/// every shared id.
#[inline]
fn for_each_corated<K: Ord + Copy>(
    ids_a: &[K],
    vals_a: &[f64],
    ids_b: &[K],
    vals_b: &[f64],
    mut f: impl FnMut(f64, f64),
) {
    let (mut x, mut y) = (0usize, 0usize);
    while x < ids_a.len() && y < ids_b.len() {
        match ids_a[x].cmp(&ids_b[y]) {
            std::cmp::Ordering::Less => x += 1,
            std::cmp::Ordering::Greater => y += 1,
            std::cmp::Ordering::Equal => {
                f(vals_a[x], vals_b[y]);
                x += 1;
                y += 1;
            }
        }
    }
}

/// Pearson correlation of the numbers fed through the accumulator.
#[derive(Default)]
struct PccAcc {
    n: usize,
    dot: f64,
    norm_a: f64,
    norm_b: f64,
}

impl PccAcc {
    #[inline]
    fn push(&mut self, da: f64, db: f64) {
        self.n += 1;
        self.dot += da * db;
        self.norm_a += da * da;
        self.norm_b += db * db;
    }

    fn finish(self) -> f64 {
        if self.n < MIN_OVERLAP || self.norm_a <= 0.0 || self.norm_b <= 0.0 {
            return 0.0;
        }
        let r = self.dot / (self.norm_a.sqrt() * self.norm_b.sqrt());
        // Guard against floating-point drift past ±1.
        r.clamp(-1.0, 1.0)
    }
}

/// Item-item Pearson Correlation Coefficient (paper Eq. 5).
///
/// Correlates the ratings users in `U{a} ∩ U{b}` gave the two items,
/// centered on each item's mean rating. Returns 0 when the overlap is
/// below [`MIN_OVERLAP`] or either side has no variance.
pub fn item_pcc(m: &RatingMatrix, a: ItemId, b: ItemId) -> f64 {
    let (users_a, vals_a) = m.item_col(a);
    let (users_b, vals_b) = m.item_col(b);
    let (mean_a, mean_b) = (m.item_mean(a), m.item_mean(b));
    let mut acc = PccAcc::default();
    for_each_corated(users_a, vals_a, users_b, vals_b, |ra, rb| {
        acc.push(ra - mean_a, rb - mean_b)
    });
    acc.finish()
}

/// User-user Pearson Correlation Coefficient (paper Eq. 6).
///
/// Correlates the ratings the two users gave items in `I(a) ∩ I(b)`,
/// centered on each user's mean rating.
pub fn user_pcc(m: &RatingMatrix, a: UserId, b: UserId) -> f64 {
    let (items_a, vals_a) = m.user_row(a);
    let (items_b, vals_b) = m.user_row(b);
    let (mean_a, mean_b) = (m.user_mean(a), m.user_mean(b));
    let mut acc = PccAcc::default();
    for_each_corated(items_a, vals_a, items_b, vals_b, |ra, rb| {
        acc.push(ra - mean_a, rb - mean_b)
    });
    acc.finish()
}

/// Pure cosine (VSS) similarity between two item columns.
///
/// The paper rejects this for GIS because it ignores rating-style
/// diversity (§IV-B); it is kept for ablation benchmarks.
pub fn cosine(m: &RatingMatrix, a: ItemId, b: ItemId) -> f64 {
    let (users_a, vals_a) = m.item_col(a);
    let (users_b, vals_b) = m.item_col(b);
    let mut acc = PccAcc::default();
    for_each_corated(users_a, vals_a, users_b, vals_b, |ra, rb| acc.push(ra, rb));
    acc.finish()
}

/// Adjusted cosine similarity between two item columns: ratings are
/// centered on the *user's* mean instead of the item's (Sarwar et al.,
/// WWW 2001). Kept for ablation benchmarks.
pub fn adjusted_cosine(m: &RatingMatrix, a: ItemId, b: ItemId) -> f64 {
    let (users_a, vals_a) = m.item_col(a);
    let (users_b, vals_b) = m.item_col(b);
    let mut acc = PccAcc::default();
    // Merge walk duplicated here because we need the shared *user id* to
    // look up its mean, not just the two values.
    let (mut x, mut y) = (0usize, 0usize);
    while x < users_a.len() && y < users_b.len() {
        match users_a[x].cmp(&users_b[y]) {
            std::cmp::Ordering::Less => x += 1,
            std::cmp::Ordering::Greater => y += 1,
            std::cmp::Ordering::Equal => {
                let mu = m.user_mean(users_a[x]);
                acc.push(vals_a[x] - mu, vals_b[y] - mu);
                x += 1;
                y += 1;
            }
        }
    }
    acc.finish()
}

/// Significance weighting: devalues similarities computed from few
/// co-ratings by `min(n, cap) / cap`. Used by the EMDP baseline (Ma et
/// al., SIGIR 2007) with caps γ (users) and δ (items).
#[inline]
pub fn significance_weight(overlap: usize, cap: usize) -> f64 {
    if cap == 0 {
        return 1.0;
    }
    (overlap.min(cap) as f64) / cap as f64
}

/// Spearman rank correlation between two users over their co-rated
/// items: Pearson correlation of the *ranks* of the co-rated values
/// (ties get average ranks). More robust than PCC to users who use the
/// rating scale non-linearly; provided as an alternative kernel for
/// experimentation — the paper itself uses PCC throughout.
pub fn spearman_user(m: &RatingMatrix, a: UserId, b: UserId) -> f64 {
    let (items_a, vals_a) = m.user_row(a);
    let (items_b, vals_b) = m.user_row(b);
    let mut pairs: Vec<(f64, f64)> = Vec::new();
    for_each_corated(items_a, vals_a, items_b, vals_b, |ra, rb| {
        pairs.push((ra, rb))
    });
    spearman_of_pairs(&pairs)
}

/// Spearman rank correlation between two items over their co-raters.
pub fn spearman_item(m: &RatingMatrix, a: ItemId, b: ItemId) -> f64 {
    let (users_a, vals_a) = m.item_col(a);
    let (users_b, vals_b) = m.item_col(b);
    let mut pairs: Vec<(f64, f64)> = Vec::new();
    for_each_corated(users_a, vals_a, users_b, vals_b, |ra, rb| {
        pairs.push((ra, rb))
    });
    spearman_of_pairs(&pairs)
}

/// Average ranks (1-based, ties averaged) of a value vector.
fn average_ranks(values: &[f64]) -> Vec<f64> {
    let n = values.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&x, &y| values[x].total_cmp(&values[y]));
    let mut ranks = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && cf_matrix::approx_eq(values[order[j + 1]], values[order[i]]) {
            j += 1;
        }
        // positions i..=j share the same value: average rank
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            ranks[idx] = avg;
        }
        i = j + 1;
    }
    ranks
}

fn spearman_of_pairs(pairs: &[(f64, f64)]) -> f64 {
    if pairs.len() < MIN_OVERLAP {
        return 0.0;
    }
    let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let rx = average_ranks(&xs);
    let ry = average_ranks(&ys);
    let mx = rx.iter().sum::<f64>() / rx.len() as f64;
    let my = ry.iter().sum::<f64>() / ry.len() as f64;
    let mut acc = PccAcc::default();
    for (x, y) in rx.iter().zip(&ry) {
        acc.push(x - mx, y - my);
    }
    acc.finish()
}

/// Number of co-raters of two items (size of `U{a} ∩ U{b}`).
pub fn item_overlap(m: &RatingMatrix, a: ItemId, b: ItemId) -> usize {
    let (users_a, _) = m.item_col(a);
    let (users_b, _) = m.item_col(b);
    let mut n = 0usize;
    let (mut x, mut y) = (0usize, 0usize);
    while x < users_a.len() && y < users_b.len() {
        match users_a[x].cmp(&users_b[y]) {
            std::cmp::Ordering::Less => x += 1,
            std::cmp::Ordering::Greater => y += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                x += 1;
                y += 1;
            }
        }
    }
    n
}

#[cfg(test)]
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use cf_matrix::MatrixBuilder;

    /// 4 users × 4 items crafted so i0 and i1 correlate positively,
    /// i0 and i2 negatively.
    ///        i0  i1  i2  i3
    ///  u0     5   4   1   3
    ///  u1     4   3   2   .
    ///  u2     1   2   5   3
    ///  u3     2   1   4   .
    fn m() -> RatingMatrix {
        let mut b = MatrixBuilder::new();
        let data = [
            (0, 0, 5.0),
            (0, 1, 4.0),
            (0, 2, 1.0),
            (0, 3, 3.0),
            (1, 0, 4.0),
            (1, 1, 3.0),
            (1, 2, 2.0),
            (2, 0, 1.0),
            (2, 1, 2.0),
            (2, 2, 5.0),
            (2, 3, 3.0),
            (3, 0, 2.0),
            (3, 1, 1.0),
            (3, 2, 4.0),
        ];
        for (u, i, r) in data {
            b.push(UserId::new(u), ItemId::new(i), r);
        }
        b.build().unwrap()
    }

    #[test]
    fn item_pcc_sign_structure() {
        let m = m();
        let pos = item_pcc(&m, ItemId::new(0), ItemId::new(1));
        let neg = item_pcc(&m, ItemId::new(0), ItemId::new(2));
        assert!(pos > 0.8, "expected strong positive, got {pos}");
        assert!(neg < -0.8, "expected strong negative, got {neg}");
    }

    #[test]
    fn item_pcc_is_symmetric_and_bounded() {
        let m = m();
        for a in 0..4u32 {
            for b in 0..4u32 {
                let ab = item_pcc(&m, ItemId::new(a), ItemId::new(b));
                let ba = item_pcc(&m, ItemId::new(b), ItemId::new(a));
                assert!((ab - ba).abs() < 1e-12);
                assert!((-1.0..=1.0).contains(&ab));
            }
        }
    }

    #[test]
    fn self_similarity_is_one_with_variance() {
        let m = m();
        assert!((item_pcc(&m, ItemId::new(0), ItemId::new(0)) - 1.0).abs() < 1e-12);
        assert!((user_pcc(&m, UserId::new(0), UserId::new(0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_variance_column_yields_zero() {
        // i3 is rated 3.0 by everyone who rated it: no variance.
        let m = m();
        assert_eq!(item_pcc(&m, ItemId::new(0), ItemId::new(3)), 0.0);
    }

    #[test]
    fn insufficient_overlap_yields_zero() {
        let mut b = MatrixBuilder::new();
        // items 0 and 1 share exactly one rater
        b.push(UserId::new(0), ItemId::new(0), 5.0);
        b.push(UserId::new(0), ItemId::new(1), 5.0);
        b.push(UserId::new(1), ItemId::new(0), 1.0);
        b.push(UserId::new(2), ItemId::new(1), 1.0);
        let m = b.build().unwrap();
        assert_eq!(item_pcc(&m, ItemId::new(0), ItemId::new(1)), 0.0);
        assert_eq!(item_overlap(&m, ItemId::new(0), ItemId::new(1)), 1);
    }

    #[test]
    fn user_pcc_detects_like_minded_users() {
        let m = m();
        // u0 and u1 rate in the same direction; u0 and u2 oppositely.
        assert!(user_pcc(&m, UserId::new(0), UserId::new(1)) > 0.5);
        assert!(user_pcc(&m, UserId::new(0), UserId::new(2)) < -0.5);
    }

    #[test]
    fn cosine_ignores_rating_style() {
        let m = m();
        // Raw cosine of all-positive ratings is high even for the
        // negatively correlated pair — the flaw the paper cites.
        let c = cosine(&m, ItemId::new(0), ItemId::new(2));
        assert!(c > 0.5, "raw cosine should stay high, got {c}");
        assert!(item_pcc(&m, ItemId::new(0), ItemId::new(2)) < 0.0);
    }

    #[test]
    fn adjusted_cosine_recovers_sign() {
        let m = m();
        assert!(adjusted_cosine(&m, ItemId::new(0), ItemId::new(2)) < 0.0);
    }

    #[test]
    fn spearman_agrees_with_monotone_relationships() {
        // u0 and u1 rank items identically but use the scale differently
        // (non-linear transform): Spearman = 1, PCC < 1.
        let mut b = MatrixBuilder::new();
        let u0 = [1.0, 2.0, 3.0, 4.0, 5.0];
        let u1 = [1.0, 1.0, 2.0, 5.0, 5.0]; // monotone, compressed
        for (i, (&a, &c)) in u0.iter().zip(&u1).enumerate() {
            b.push(UserId::new(0), ItemId::from(i), a);
            b.push(UserId::new(1), ItemId::from(i), c);
        }
        let m = b.build().unwrap();
        let s = spearman_user(&m, UserId::new(0), UserId::new(1));
        assert!(s > 0.9, "monotone agreement should score high, got {s}");
    }

    #[test]
    fn spearman_detects_reversed_ranking() {
        let mut b = MatrixBuilder::new();
        for i in 0..5usize {
            b.push(UserId::new(0), ItemId::from(i), 1.0 + i as f64);
            b.push(UserId::new(1), ItemId::from(i), 5.0 - i as f64);
        }
        let m = b.build().unwrap();
        let s = spearman_user(&m, UserId::new(0), UserId::new(1));
        assert!((s + 1.0).abs() < 1e-9, "got {s}");
    }

    #[test]
    fn spearman_handles_ties_and_small_overlap() {
        let mut b = MatrixBuilder::new();
        b.push(UserId::new(0), ItemId::new(0), 3.0);
        b.push(UserId::new(1), ItemId::new(0), 3.0);
        let m2 = b.build().unwrap();
        assert_eq!(spearman_user(&m2, UserId::new(0), UserId::new(1)), 0.0);

        // all-tied values → zero variance in ranks → 0
        let mut b = MatrixBuilder::new();
        for i in 0..4usize {
            b.push(UserId::new(0), ItemId::from(i), 3.0);
            b.push(UserId::new(1), ItemId::from(i), 1.0 + i as f64);
        }
        let m = b.build().unwrap();
        assert_eq!(spearman_user(&m, UserId::new(0), UserId::new(1)), 0.0);
    }

    #[test]
    fn spearman_item_is_symmetric_and_bounded() {
        let m = m();
        for a in 0..4u32 {
            for b in 0..4u32 {
                let ab = spearman_item(&m, ItemId::new(a), ItemId::new(b));
                let ba = spearman_item(&m, ItemId::new(b), ItemId::new(a));
                assert!((ab - ba).abs() < 1e-12);
                assert!((-1.0..=1.0).contains(&ab));
            }
        }
    }

    #[test]
    fn average_ranks_handle_ties() {
        assert_eq!(average_ranks(&[10.0, 20.0, 30.0]), vec![1.0, 2.0, 3.0]);
        assert_eq!(average_ranks(&[10.0, 10.0, 30.0]), vec![1.5, 1.5, 3.0]);
        assert_eq!(average_ranks(&[5.0, 5.0, 5.0]), vec![2.0, 2.0, 2.0]);
        assert_eq!(average_ranks(&[30.0, 10.0, 20.0]), vec![3.0, 1.0, 2.0]);
    }

    #[test]
    fn significance_weight_ramps_then_saturates() {
        assert_eq!(significance_weight(0, 50), 0.0);
        assert!((significance_weight(25, 50) - 0.5).abs() < 1e-12);
        assert_eq!(significance_weight(50, 50), 1.0);
        assert_eq!(significance_weight(500, 50), 1.0);
        assert_eq!(significance_weight(3, 0), 1.0);
    }
}
