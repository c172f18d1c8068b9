//! Cluster-based rating smoothing — Eq. 7 and Eq. 8 of the paper.
//!
//! Within each user cluster, an unrated cell `(u, i)` is filled with
//! `r̄_u + Δr(C_u, i)`, where `Δr(C, i)` is the average *mean-offset*
//! rating of item `i` among members of `C` who rated it (Eq. 8). Keeping
//! the offset (rather than the raw cluster average) is what removes
//! per-user rating-style diversity: a harsh rater and a generous rater in
//! the same cluster receive different absolute imputations that express
//! the same relative preference.

use cf_matrix::{DenseRatings, DenseRow, ItemId, RatingMatrix, RatingScale, UserId};
use cf_parallel::par_map;

use crate::ClusterAssignment;

/// The output of smoothing: a complete dense matrix plus the per-cluster
/// deviation table Eq. 9 and the online phase both need.
#[derive(Debug, Clone)]
pub struct Smoothed {
    /// Dense ratings: originals flagged, every other cell imputed.
    pub dense: DenseRatings,
    /// `deviations[c][i]` = `Δr(C_c, i)`, `NaN` when no member of cluster
    /// `c` rated item `i`.
    deviations: Vec<Vec<f64>>,
    /// How many cells were filled by the cluster deviation (vs. the
    /// user-mean fallback). Diagnostic for tests and reports.
    pub cells_from_cluster: usize,
    /// Cells filled with the bare user mean because the cluster carried no
    /// signal for that item.
    pub cells_from_fallback: usize,
}

impl Smoothed {
    /// `Δr(C_c, i)` if any member of cluster `c` rated `i`.
    #[inline]
    pub fn deviation(&self, c: usize, i: ItemId) -> Option<f64> {
        let v = self.deviations[c][i.index()];
        if v.is_nan() {
            None
        } else {
            Some(v)
        }
    }

    /// The full deviation row of cluster `c` (`NaN` = undefined).
    #[inline]
    pub fn deviation_row(&self, c: usize) -> &[f64] {
        &self.deviations[c]
    }

    /// Number of clusters the table covers.
    pub fn num_clusters(&self) -> usize {
        self.deviations.len()
    }

    /// Re-smooths after ratings were added for `dirty_users`, with the
    /// cluster assignment frozen: `m` is the matrix these values were
    /// smoothed from plus the new ratings. Bitwise equal to
    /// [`Smoother::smooth`] of `m` — the same summation order, the same
    /// imputation — for the work of the clusters that changed:
    ///
    /// - `Δr(C, ·)` is recomputed only for *dirty clusters* (those
    ///   holding a dirty user);
    /// - each dirty user's whole row is rewritten (its mean moved), and
    ///   so is the row of every user without ratings (its mean is the
    ///   global mean, which moved too);
    /// - every other member of a dirty cluster gets only the unrated
    ///   cells whose `Δr` changed bitwise rewritten.
    ///
    /// The patched store shares every other row with this one (see
    /// [`DenseRatings`]): a rewritten row is built afresh, and a member
    /// row is copied once before its changed items are written, even if
    /// each of them holds an original rating. The returned
    /// [`SmoothPatch`] says what changed, for iCluster and the weight
    /// planes downstream.
    pub fn patched(
        &self,
        m: &RatingMatrix,
        clusters: &ClusterAssignment,
        dirty_users: &[UserId],
    ) -> (Smoothed, SmoothPatch) {
        let q = m.num_items();
        let scale = m.scale();
        let mut dirty_users = dirty_users.to_vec();
        dirty_users.sort_unstable();
        dirty_users.dedup();
        let mut dirty_clusters: Vec<usize> = dirty_users
            .iter()
            .map(|&u| clusters.cluster_of(u))
            .collect();
        dirty_clusters.sort_unstable();
        dirty_clusters.dedup();

        let mut out = self.clone();
        let mut changed_items = Vec::with_capacity(dirty_clusters.len());
        for &c in &dirty_clusters {
            let row = deviation_row(m, clusters.members(c), q);
            let old = &self.deviations[c];
            changed_items.push(
                (0..q)
                    .filter(|&i| row[i].to_bits() != old[i].to_bits())
                    .map(ItemId::from)
                    .collect::<Vec<_>>(),
            );
            out.deviations[c] = row;
        }

        let rewritten_rows: Vec<UserId> = m
            .users()
            .filter(|&u| m.user_count(u) == 0 || dirty_users.binary_search(&u).is_ok())
            .collect();
        for &u in &rewritten_rows {
            let dev = &out.deviations[clusters.cluster_of(u)];
            out.dense.set_row(u, smooth_row(m, u, dev, scale));
        }
        let mut unshared_rows = rewritten_rows.len();
        for (&c, changed) in dirty_clusters.iter().zip(&changed_items) {
            if changed.is_empty() {
                continue;
            }
            let dev = &out.deviations[c];
            for &u in clusters.members(c) {
                if rewritten_rows.binary_search(&u).is_ok() {
                    continue;
                }
                let mean_u = m.user_mean(u);
                let row = out.dense.row_mut(u);
                unshared_rows += 1;
                for &i in changed {
                    if !row.is_original(i) {
                        row.set_smoothed(i, impute(mean_u, dev[i.index()], scale));
                    }
                }
            }
        }

        // Every item a member rated has a defined Δr in its own cluster,
        // so cluster `c` imputes `|c|·defined(c) − ratings(c)` cells from
        // Δr and `|c|·(q − defined(c))` from the bare mean; summed over
        // clusters, the ratings term is the matrix's rating count.
        let (mut from_cluster, mut from_fallback) = (0usize, 0usize);
        for (c, dev) in out.deviations.iter().enumerate() {
            let size = clusters.members(c).len();
            let defined = dev.iter().filter(|d| !d.is_nan()).count();
            from_cluster += size * defined;
            from_fallback += size * (q - defined);
        }
        out.cells_from_cluster = from_cluster - m.num_ratings();
        out.cells_from_fallback = from_fallback;

        (
            out,
            SmoothPatch {
                dirty_users,
                dirty_clusters,
                changed_items,
                rewritten_rows,
                unshared_rows,
            },
        )
    }
}

/// What [`Smoothed::patched`] changed.
#[derive(Debug, Clone, Default)]
pub struct SmoothPatch {
    /// Users with new ratings, ascending.
    pub dirty_users: Vec<UserId>,
    /// Clusters holding a dirty user, ascending.
    pub dirty_clusters: Vec<usize>,
    /// Parallel to `dirty_clusters`: the items whose `Δr` changed
    /// bitwise (including becoming defined), ascending.
    pub changed_items: Vec<Vec<ItemId>>,
    /// Users whose whole dense row was rewritten — the dirty users and
    /// every user without ratings — ascending.
    pub rewritten_rows: Vec<UserId>,
    /// Dense rows the patched store does not share with the one it was
    /// patched from: the rows [`SmoothPatch::cells`] lists a cell of.
    pub unshared_rows: usize,
}

impl SmoothPatch {
    /// Whether `u` has new ratings.
    pub fn is_dirty_user(&self, u: UserId) -> bool {
        self.dirty_users.binary_search(&u).is_ok()
    }

    /// Whether cluster `c` holds a dirty user.
    pub fn is_dirty_cluster(&self, c: usize) -> bool {
        self.dirty_clusters.binary_search(&c).is_ok()
    }

    /// Every dense cell the patch rewrote: the rewritten rows whole and,
    /// for every other member of a dirty cluster, that cluster's changed
    /// items. Cells outside this set hold their old values.
    pub fn cells<'a>(
        &'a self,
        clusters: &'a ClusterAssignment,
        num_items: usize,
    ) -> impl Iterator<Item = (UserId, ItemId)> + 'a {
        let rows = self
            .rewritten_rows
            .iter()
            .flat_map(move |&u| (0..num_items).map(move |i| (u, ItemId::from(i))));
        let columns = self
            .dirty_clusters
            .iter()
            .zip(&self.changed_items)
            .flat_map(move |(&c, changed)| {
                clusters
                    .members(c)
                    .iter()
                    .filter(|u| self.rewritten_rows.binary_search(u).is_err())
                    .flat_map(move |&u| changed.iter().map(move |&i| (u, i)))
            });
        rows.chain(columns)
    }
}

/// `Δr(C, ·)` of Eq. 8 for the cluster with these members, summed in
/// member order then item order; `NaN` where no member rated the item.
fn deviation_row(m: &RatingMatrix, members: &[UserId], q: usize) -> Vec<f64> {
    let mut sum = vec![0.0f64; q];
    let mut count = vec![0u32; q];
    for &u in members {
        let mean_u = m.user_mean(u);
        for (i, r) in m.user_ratings(u) {
            sum[i.index()] += r - mean_u;
            count[i.index()] += 1;
        }
    }
    (0..q)
        .map(|i| {
            if count[i] > 0 {
                sum[i] / count[i] as f64
            } else {
                f64::NAN
            }
        })
        .collect()
}

/// Eq. 7's imputation of an unrated cell: `r̄_u + Δr`, or the bare mean
/// when the cluster has no signal for the item, clamped to the scale.
#[inline]
fn impute(mean_u: f64, d: f64, scale: RatingScale) -> f64 {
    scale.clamp(if d.is_nan() { mean_u } else { mean_u + d })
}

/// User `u`'s smoothed dense row under deviation row `dev`.
fn smooth_row(m: &RatingMatrix, u: UserId, dev: &[f64], scale: RatingScale) -> DenseRow {
    let mean_u = m.user_mean(u);
    let mut row = DenseRow::absent(m.num_items());
    for (i, r) in m.user_ratings(u) {
        row.set_original(i, r);
    }
    for (i, &d) in dev.iter().enumerate() {
        let i = ItemId::from(i);
        if !row.is_original(i) {
            row.set_smoothed(i, impute(mean_u, d, scale));
        }
    }
    row
}

/// Smoothing engine. Stateless; see [`Smoother::smooth`].
pub struct Smoother;

impl Smoother {
    /// Computes the deviation table (Eq. 8) and fills the dense matrix
    /// (Eq. 7) in parallel over clusters, then over users.
    ///
    /// Fallback policy (the paper leaves this case unspecified): when
    /// cluster `C_u` has no rating at all for item `i`, the cell becomes
    /// plain `r̄_u` (i.e. `Δ = 0`). This abstains from inventing item
    /// signal the cluster doesn't have, and keeps the imputation centered
    /// on the user's own style.
    pub fn smooth(
        m: &RatingMatrix,
        clusters: &ClusterAssignment,
        threads: Option<usize>,
    ) -> Smoothed {
        cf_obs::time_scope!("offline.smoothing.pass_ns");
        let threads = cf_parallel::effective_threads(threads);
        let q = m.num_items();
        let k = clusters.k();

        // Eq. 8, one row per cluster, in parallel.
        let deviations: Vec<Vec<f64>> =
            par_map(k, threads, |c| deviation_row(m, clusters.members(c), q));

        // Eq. 7, one row per user, in parallel; each row moves into the
        // dense store as built.
        let scale = m.scale();
        let rows: Vec<(DenseRow, usize, usize)> = par_map(m.num_users(), threads, |ui| {
            let u = UserId::from(ui);
            let dev = &deviations[clusters.cluster_of(u)];
            let row = smooth_row(m, u, dev, scale);
            let from_fallback = dev
                .iter()
                .enumerate()
                .filter(|&(i, d)| d.is_nan() && !row.is_original(ItemId::from(i)))
                .count();
            let from_cluster = q - m.user_count(u) - from_fallback;
            (row, from_cluster, from_fallback)
        });

        let cells_from_cluster = rows.iter().map(|r| r.1).sum();
        let cells_from_fallback = rows.iter().map(|r| r.2).sum();
        let dense = DenseRatings::from_rows(q, rows.into_iter().map(|r| r.0));

        cf_obs::counter!("offline.smoothing.cells_from_cluster").add(cells_from_cluster as u64);
        cf_obs::counter!("offline.smoothing.cells_from_fallback").add(cells_from_fallback as u64);

        Smoothed {
            dense,
            deviations,
            cells_from_cluster,
            cells_from_fallback,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KMeans, KMeansConfig};
    use cf_matrix::MatrixBuilder;

    /// One cluster of 3 users. u0 is a harsh rater (mean 2), u1 generous
    /// (mean 4); item 2 is rated only by u2.
    fn matrix() -> RatingMatrix {
        let mut b = MatrixBuilder::with_dims(3, 4);
        b.push(UserId::new(0), ItemId::new(0), 1.0);
        b.push(UserId::new(0), ItemId::new(1), 3.0);
        b.push(UserId::new(1), ItemId::new(0), 3.0);
        b.push(UserId::new(1), ItemId::new(1), 5.0);
        b.push(UserId::new(2), ItemId::new(2), 4.0);
        b.push(UserId::new(2), ItemId::new(3), 2.0);
        b.build().unwrap()
    }

    fn one_cluster(m: &RatingMatrix) -> ClusterAssignment {
        KMeans::fit(
            m,
            &KMeansConfig {
                k: 1,
                ..Default::default()
            },
        )
    }

    #[test]
    fn deviations_match_equation_eight() {
        let m = matrix();
        let s = Smoother::smooth(&m, &one_cluster(&m), Some(1));
        // item 0: raters u0 (1-2=-1) and u1 (3-4=-1) → Δ = -1
        assert!((s.deviation(0, ItemId::new(0)).unwrap() + 1.0).abs() < 1e-12);
        // item 1: (3-2) and (5-4) → Δ = +1
        assert!((s.deviation(0, ItemId::new(1)).unwrap() - 1.0).abs() < 1e-12);
        // item 2: only u2 (4-3=+1) → Δ = +1
        assert!((s.deviation(0, ItemId::new(2)).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn smoothing_respects_user_style() {
        let m = matrix();
        let s = Smoother::smooth(&m, &one_cluster(&m), Some(1));
        // u0 (mean 2) gets item 2 as 2 + 1 = 3; u1 (mean 4) gets 4 + 1 = 5.
        assert!((s.dense.get(UserId::new(0), ItemId::new(2)).unwrap() - 3.0).abs() < 1e-12);
        assert!((s.dense.get(UserId::new(1), ItemId::new(2)).unwrap() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn originals_survive_untouched() {
        let m = matrix();
        let s = Smoother::smooth(&m, &one_cluster(&m), Some(1));
        assert_eq!(s.dense.get(UserId::new(0), ItemId::new(0)), Some(1.0));
        assert!(s.dense.is_original(UserId::new(0), ItemId::new(0)));
        assert!(!s.dense.is_original(UserId::new(0), ItemId::new(2)));
    }

    #[test]
    fn matrix_is_complete_after_smoothing() {
        let m = matrix();
        let s = Smoother::smooth(&m, &one_cluster(&m), Some(2));
        assert!(s.dense.is_complete());
        assert_eq!(
            s.cells_from_cluster + s.cells_from_fallback,
            m.num_users() * m.num_items() - m.num_ratings()
        );
    }

    #[test]
    fn fallback_used_when_cluster_lacks_signal() {
        // Two singleton-ish clusters: item rated only in the other cluster
        // triggers the user-mean fallback.
        let mut b = MatrixBuilder::with_dims(2, 2);
        b.push(UserId::new(0), ItemId::new(0), 5.0);
        b.push(UserId::new(0), ItemId::new(1), 1.0);
        b.push(UserId::new(1), ItemId::new(0), 1.0);
        let m = b.build().unwrap();
        let clusters = KMeans::fit(
            &m,
            &KMeansConfig {
                k: 2,
                ..Default::default()
            },
        );
        let s = Smoother::smooth(&m, &clusters, Some(1));
        assert!(s.dense.is_complete());
        // u1's cluster (u1 alone, or with u0 — either way the accounting
        // must add up) — check the counters are consistent.
        assert_eq!(s.cells_from_cluster + s.cells_from_fallback, 1);
    }

    #[test]
    fn smoothed_values_stay_on_scale() {
        // Generous user (mean 5) plus a strongly positive deviation could
        // exceed 5 without clamping.
        let mut b = MatrixBuilder::with_dims(2, 3);
        b.push(UserId::new(0), ItemId::new(0), 5.0);
        b.push(UserId::new(0), ItemId::new(1), 5.0);
        b.push(UserId::new(1), ItemId::new(0), 2.0);
        b.push(UserId::new(1), ItemId::new(2), 5.0); // +1.5 above u1's mean
        let m = b.build().unwrap();
        let s = Smoother::smooth(&m, &one_cluster(&m), Some(1));
        for u in m.users() {
            for i in m.items() {
                let v = s.dense.get(u, i).unwrap();
                assert!((1.0..=5.0).contains(&v), "({u:?},{i:?}) = {v}");
            }
        }
    }

    #[test]
    fn deterministic_across_threads() {
        let m = matrix();
        let a = Smoother::smooth(&m, &one_cluster(&m), Some(1));
        let b = Smoother::smooth(&m, &one_cluster(&m), Some(4));
        for u in m.users() {
            for i in m.items() {
                assert_eq!(a.dense.get(u, i), b.dense.get(u, i));
            }
        }
    }
}
