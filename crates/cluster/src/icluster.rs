//! iCluster — per-user ranking of clusters by Eq. 9 similarity (§IV-D).
//!
//! After smoothing, CFSF stores for each user the list of all clusters
//! sorted by descending user↔cluster similarity. The online phase walks
//! this list cluster by cluster to harvest like-minded-user candidates,
//! which is what replaces the whole-matrix neighbor search of classic
//! user-based CF.
//!
//! The rankings live in two flat P×C arrays, cluster indices and their
//! similarities, one C-wide slice per user. A partial rebuild
//! ([`ICluster::patched`]) copies both and rescores only the (user,
//! cluster) pairs whose Eq. 9 inputs moved; each rescored cluster moves
//! to its new rank in place, an insertion step over a slice that stays
//! sorted, so no user's ranking is reallocated or re-sorted unless the
//! user rated something new.

use std::cmp::Ordering;

use cf_matrix::{RatingMatrix, UserId};
use cf_parallel::par_map;

use crate::{SmoothPatch, Smoothed};

/// Per-user cluster rankings.
#[derive(Debug, Clone)]
pub struct ICluster {
    /// Clusters per ranking (C).
    k: usize,
    /// `ranked[u·C..(u+1)·C]` = cluster indices sorted by descending
    /// Eq. 9 similarity.
    ranked: Vec<u32>,
    /// `sims[u·C..(u+1)·C]` = the similarity value for each entry of
    /// user `u`'s ranking.
    sims: Vec<f64>,
}

impl ICluster {
    /// Builds the ranking for every user in parallel.
    ///
    /// Eq. 9 correlates the user's mean-offset ratings with the cluster's
    /// deviation profile `Δr(C, ·)` over the items the user rated for
    /// which the cluster has a defined deviation. Clusters sharing no item
    /// with the user score 0. Ties break toward the lower cluster index so
    /// the ranking is deterministic.
    pub fn build(m: &RatingMatrix, smoothed: &Smoothed, threads: Option<usize>) -> Self {
        let threads = cf_parallel::effective_threads(threads);
        let k = smoothed.num_clusters();
        let p = m.num_users();

        let per_user: Vec<(Vec<u32>, Vec<f64>)> = par_map(p, threads, |ui| {
            let u = UserId::from(ui);
            rank(
                (0..k)
                    .map(|c| score(m, u, smoothed.deviation_row(c)))
                    .collect(),
            )
        });

        let mut ranked = Vec::with_capacity(p * k);
        let mut sims = Vec::with_capacity(p * k);
        for (r, s) in per_user {
            ranked.extend(r);
            sims.extend(s);
        }
        Self { k, ranked, sims }
    }

    /// Re-ranks after [`Smoothed::patched`], bitwise equal to
    /// [`ICluster::build`] on the patched inputs: a dirty user is scored
    /// against every cluster and re-sorted; any other user only against
    /// the dirty clusters whose `Δr` changed on an item the user rated,
    /// each moved to its new rank in place, with every other score — and
    /// every other user's ranking — kept as is, since Eq. 9 reads nothing
    /// else.
    pub fn patched(&self, m: &RatingMatrix, smoothed: &Smoothed, patch: &SmoothPatch) -> Self {
        let k = self.k;
        // (user, cluster): the dirty clusters each user must be rescored
        // against. Clusters come in ascending order, so `last` dedups.
        let mut last = vec![u32::MAX; m.num_users()];
        let mut stale: Vec<(UserId, u32)> = Vec::new();
        for (&c, items) in patch.dirty_clusters.iter().zip(&patch.changed_items) {
            let c = c as u32;
            for &i in items {
                for &u in m.item_col(i).0 {
                    if std::mem::replace(&mut last[u.index()], c) != c {
                        stale.push((u, c));
                    }
                }
            }
        }
        stale.sort_unstable();

        let mut out = self.clone();
        for &u in &patch.dirty_users {
            let scores = (0..k)
                .map(|c| score(m, u, smoothed.deviation_row(c)))
                .collect();
            let (ranked, sims) = rank(scores);
            let row = u.index() * k..(u.index() + 1) * k;
            out.ranked[row.clone()].copy_from_slice(&ranked);
            out.sims[row].copy_from_slice(&sims);
        }
        for &(u, c) in &stale {
            if patch.is_dirty_user(u) {
                continue;
            }
            let s = score(m, u, smoothed.deviation_row(c as usize));
            let row = u.index() * k..(u.index() + 1) * k;
            rerank(&mut out.ranked[row.clone()], &mut out.sims[row], c, s);
        }
        out
    }

    /// Clusters for user `u`, best first.
    #[inline]
    pub fn ranking(&self, u: UserId) -> &[u32] {
        &self.ranked[u.index() * self.k..(u.index() + 1) * self.k]
    }

    /// Eq. 9 similarity values parallel to [`Self::ranking`].
    #[inline]
    pub fn similarities(&self, u: UserId) -> &[f64] {
        &self.sims[u.index() * self.k..(u.index() + 1) * self.k]
    }

    /// Number of users covered.
    pub fn num_users(&self) -> usize {
        self.ranked.len().checked_div(self.k).unwrap_or(0)
    }
}

/// Eq. 9: user `u`'s mean-offset ratings correlated with one cluster's
/// deviation row, over the items `u` rated that the cluster has a
/// deviation for; 0 with fewer than two such items or no variance.
fn score(m: &RatingMatrix, u: UserId, dev: &[f64]) -> f64 {
    let (items, vals) = m.user_row(u);
    let mean_u = m.user_mean(u);
    let mut dot = 0.0;
    let mut nd = 0.0;
    let mut nu = 0.0;
    let mut n = 0usize;
    for (&i, &r) in items.iter().zip(vals) {
        let d = dev[i.index()];
        if d.is_nan() {
            continue;
        }
        let du = r - mean_u;
        dot += d * du;
        nd += d * d;
        nu += du * du;
        n += 1;
    }
    if n < 2 || nd <= 0.0 || nu <= 0.0 {
        0.0
    } else {
        (dot / (nd.sqrt() * nu.sqrt())).clamp(-1.0, 1.0)
    }
}

/// The ranking order: descending score, ties toward the lower cluster
/// index. A strict total order over finite scores, so a sorted slice is
/// unique.
fn order(a: (u32, f64), b: (u32, f64)) -> Ordering {
    b.1.partial_cmp(&a.1)
        .expect("similarities are finite")
        .then(a.0.cmp(&b.0))
}

/// Orders clusters by [`order`] (`scores[c]` is cluster `c`'s score);
/// returns the ranking and the scores in that order.
fn rank(scores: Vec<f64>) -> (Vec<u32>, Vec<f64>) {
    let mut scored: Vec<(u32, f64)> = scores
        .into_iter()
        .enumerate()
        .map(|(c, s)| (c as u32, s))
        .collect();
    scored.sort_by(|&a, &b| order(a, b));
    scored.into_iter().unzip()
}

/// Gives cluster `c` the score `s` in a ranking sorted by [`order`] and
/// moves it to its new rank, shifting the entries in between by one. The
/// other entries stay sorted among themselves, so the slice is sorted
/// again afterwards: after every rescored cluster has moved, it is the
/// sort of the final scores.
fn rerank(ranked: &mut [u32], sims: &mut [f64], c: u32, s: f64) {
    let Some(mut at) = ranked.iter().position(|&x| x == c) else {
        return;
    };
    while at > 0 && order((c, s), (ranked[at - 1], sims[at - 1])) == Ordering::Less {
        ranked[at] = ranked[at - 1];
        sims[at] = sims[at - 1];
        at -= 1;
    }
    while at + 1 < ranked.len() && order((ranked[at + 1], sims[at + 1]), (c, s)) == Ordering::Less {
        ranked[at] = ranked[at + 1];
        sims[at] = sims[at + 1];
        at += 1;
    }
    ranked[at] = c;
    sims[at] = s;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KMeans, KMeansConfig, Smoother};
    use cf_matrix::{ItemId, MatrixBuilder};

    /// Two planted taste groups (as in the kmeans tests) so Eq. 9 has an
    /// unambiguous best cluster per user.
    fn setup() -> (RatingMatrix, Smoothed, crate::ClusterAssignment) {
        let mut b = MatrixBuilder::new();
        for u in 0..8u32 {
            let loves_low = u < 4;
            for i in 0..6u32 {
                let r = if (i < 3) == loves_low { 5.0 } else { 1.0 };
                // leave a few holes so smoothing has work to do
                if (u + i) % 5 == 0 {
                    continue;
                }
                b.push(UserId::new(u), ItemId::new(i), r);
            }
        }
        let m = b.build().unwrap();
        let clusters = KMeans::fit(
            &m,
            &KMeansConfig {
                k: 2,
                seed: 1,
                ..Default::default()
            },
        );
        let smoothed = Smoother::smooth(&m, &clusters, Some(1));
        (m, smoothed, clusters)
    }

    #[test]
    fn own_cluster_ranks_first_for_planted_groups() {
        let (m, smoothed, clusters) = setup();
        let ic = ICluster::build(&m, &smoothed, Some(2));
        for u in m.users() {
            let own = clusters.cluster_of(u) as u32;
            assert_eq!(
                ic.ranking(u)[0],
                own,
                "user {u:?} should rank its own cluster first"
            );
        }
    }

    #[test]
    fn ranking_is_a_permutation_of_clusters() {
        let (m, smoothed, _) = setup();
        let ic = ICluster::build(&m, &smoothed, Some(1));
        for u in m.users() {
            let mut r: Vec<u32> = ic.ranking(u).to_vec();
            r.sort_unstable();
            assert_eq!(r, vec![0, 1]);
        }
    }

    #[test]
    fn similarities_are_descending_and_bounded() {
        let (m, smoothed, _) = setup();
        let ic = ICluster::build(&m, &smoothed, Some(1));
        for u in m.users() {
            let s = ic.similarities(u);
            assert!(s.windows(2).all(|w| w[0] >= w[1]));
            assert!(s.iter().all(|v| (-1.0..=1.0).contains(v)));
        }
    }

    #[test]
    fn deterministic_across_threads() {
        let (m, smoothed, _) = setup();
        let a = ICluster::build(&m, &smoothed, Some(1));
        let b = ICluster::build(&m, &smoothed, Some(4));
        for u in m.users() {
            assert_eq!(a.ranking(u), b.ranking(u));
        }
    }

    /// Patching smoothing and iCluster for a few new ratings — from a
    /// user with no ratings yet, on an item nobody rated, beside a user
    /// who never rates — reproduces the full passes bit for bit.
    #[test]
    fn patched_smoothing_and_ranking_equal_full_passes() {
        let d = cf_data::SyntheticConfig::small().generate();
        // Blank users 5 and 6: a dirty user starting from nothing, and a
        // user whose mean is the (moving) global mean throughout.
        let mut b = MatrixBuilder::with_dims(d.matrix.num_users(), d.matrix.num_items() + 1);
        for (u, i, r) in d
            .matrix
            .triplets()
            .filter(|t| !matches!(t.0.index(), 5 | 6))
        {
            b.push(u, i, r);
        }
        let mut m = b.build().unwrap();
        let clusters = KMeans::fit(
            &m,
            &KMeansConfig {
                k: 4,
                seed: 3,
                ..Default::default()
            },
        );
        let mut smoothed = Smoother::smooth(&m, &clusters, Some(2));
        let mut ranked = ICluster::build(&m, &smoothed, Some(2));
        let fresh_item = ItemId::from(d.matrix.num_items());
        let batches = [
            vec![
                (UserId::new(5), ItemId::new(3), 5.0),
                (UserId::new(5), ItemId::new(7), 1.0),
            ],
            vec![
                (UserId::new(9), fresh_item, 4.0),
                (UserId::new(40), ItemId::new(0), 2.0),
            ],
            vec![(UserId::new(5), fresh_item, 3.0)],
        ];
        for cells in batches {
            let cells: Vec<_> = cells
                .into_iter()
                .filter(|c| m.get(c.0, c.1).is_none())
                .collect();
            let dirty: Vec<UserId> = cells.iter().map(|c| c.0).collect();
            m = m.with_ratings(&cells).unwrap();
            let (patched, patch) = smoothed.patched(&m, &clusters, &dirty);
            let full = Smoother::smooth(&m, &clusters, Some(1));
            for u in m.users() {
                let bits = |r: &[f64]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(patched.dense.row(u)), bits(full.dense.row(u)), "{u:?}");
                for i in m.items() {
                    assert_eq!(
                        patched.dense.is_original(u, i),
                        full.dense.is_original(u, i)
                    );
                }
            }
            for c in 0..full.num_clusters() {
                let bits = |r: &[f64]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(patched.deviation_row(c)), bits(full.deviation_row(c)));
            }
            assert_eq!(patched.cells_from_cluster, full.cells_from_cluster);
            assert_eq!(patched.cells_from_fallback, full.cells_from_fallback);
            assert!(!patch.dirty_clusters.is_empty());

            let patched_rank = ranked.patched(&m, &patched, &patch);
            let full_rank = ICluster::build(&m, &full, Some(1));
            for u in m.users() {
                assert_eq!(patched_rank.ranking(u), full_rank.ranking(u), "{u:?}");
                let bits = |r: &[f64]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(patched_rank.similarities(u)),
                    bits(full_rank.similarities(u))
                );
            }
            (smoothed, ranked) = (patched, patched_rank);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        /// Moving each rescored cluster to its new rank in place, in any
        /// order, ends where a full sort of the final scores does, bit
        /// for bit — with ties, and both zeros, among the scores.
        #[test]
        fn in_place_rerank_equals_a_full_sort(
            pick in 0usize..4,
            old in proptest::collection::vec(0usize..7, 64..65),
            new in proptest::collection::vec(proptest::option::of(0usize..7), 64..65),
            start in 0usize..64
        ) {
            const SCORES: [f64; 7] = [-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0];
            let k = [1, 2, 30, 64][pick];
            let mut scores: Vec<f64> = old[..k].iter().map(|&j| SCORES[j]).collect();
            let (mut ranked, mut sims) = rank(scores.clone());
            // 7 is coprime with every k, so this visits each cluster once.
            for c in (0..k).map(|j| (start + 7 * j) % k) {
                if let Some(j) = new[c] {
                    scores[c] = SCORES[j];
                    rerank(&mut ranked, &mut sims, c as u32, SCORES[j]);
                }
            }
            let (want_ranked, want_sims) = rank(scores);
            proptest::prop_assert_eq!(ranked, want_ranked);
            let bits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            proptest::prop_assert_eq!(bits(&sims), bits(&want_sims));
        }
    }

    #[test]
    fn user_with_no_cluster_overlap_scores_zero() {
        // u2 rates only item 2, which no cluster-0/1 member deviation
        // covers… construct directly: 3 users, u2 disjoint item.
        let mut b = MatrixBuilder::with_dims(3, 4);
        b.push(UserId::new(0), ItemId::new(0), 5.0);
        b.push(UserId::new(0), ItemId::new(1), 1.0);
        b.push(UserId::new(1), ItemId::new(0), 5.0);
        b.push(UserId::new(1), ItemId::new(1), 1.0);
        b.push(UserId::new(2), ItemId::new(3), 4.0);
        let m = b.build().unwrap();
        let clusters = KMeans::fit(
            &m,
            &KMeansConfig {
                k: 2,
                seed: 5,
                ..Default::default()
            },
        );
        let smoothed = Smoother::smooth(&m, &clusters, Some(1));
        let ic = ICluster::build(&m, &smoothed, Some(1));
        // u2 has a single rated item → overlap < 2 with every cluster → 0s
        let sims = ic.similarities(UserId::new(2));
        assert!(sims.iter().all(|&s| s == 0.0));
        // ranking still lists every cluster
        assert_eq!(ic.ranking(UserId::new(2)).len(), clusters.k());
    }
}
