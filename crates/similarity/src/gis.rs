//! The Global Item Similarity matrix (GIS) — §IV-B of the paper.
//!
//! The offline phase computes PCC between every pair of items over the
//! entire matrix, keeps per-item neighbor lists sorted in descending
//! similarity, and thresholds away "less important" items so the structure
//! stays small. The online phase then answers "top M similar items" with a
//! slice.

use std::cmp::Ordering;

use cf_matrix::{ItemId, RatingMatrix};
use cf_parallel::par_map;

/// Configuration for building a [`Gis`].
#[derive(Debug, Clone)]
pub struct GisConfig {
    /// Keep only neighbors with similarity strictly greater than this
    /// (the paper "sets thresholds for Eq. 5 to filter less important
    /// items"). Default 0: negative and zero correlations are dropped —
    /// they are never useful as "similar items".
    pub threshold: f64,
    /// Hard cap on neighbors stored per item, `None` for unlimited.
    /// Online requests ask for the top `M`; storing a few hundred is
    /// plenty while bounding memory at `Q × cap`.
    pub max_neighbors: Option<usize>,
    /// Worker threads for the pairwise computation (`None` = auto).
    pub threads: Option<usize>,
}

impl Default for GisConfig {
    fn default() -> Self {
        Self {
            threshold: 0.0,
            max_neighbors: Some(400),
            threads: None,
        }
    }
}

/// The Global Item Similarity matrix: for every item, its neighbors sorted
/// by descending PCC.
#[derive(Debug, Clone)]
pub struct Gis {
    /// `lists[q]` = neighbors of item `q`, descending similarity.
    lists: Vec<Vec<(ItemId, f64)>>,
}

/// The Eq. 5 sums of one item pair `(a, b)`, accumulated over the users
/// who rated both.
#[derive(Debug, Clone, Copy, Default)]
struct PairSums {
    dot: f64,
    norm_a: f64,
    norm_b: f64,
    n: usize,
}

/// The PCC (Eq. 5) of item `a` against every other item it shares at
/// least [`crate::MIN_OVERLAP`] raters with, un-thresholded, by item id.
/// `sums` holds one zeroed [`PairSums`] per item and is left zeroed.
///
/// Row-driven: for each rater `u` of `a`, in ascending user order, every
/// item `b` in `u`'s row takes one term into its sums. The cost is
/// `Q + Σ_{u ∈ U(a)} |I(u)|` — the co-ratings Eq. 5 reads, plus one pass
/// over `sums` — and each pair's sums see the same additions in the same
/// order as the merge walk of [`crate::item_pcc`], so the results are its
/// bits exactly.
fn item_sims(m: &RatingMatrix, a: ItemId, sums: &mut [PairSums]) -> Vec<(ItemId, f64)> {
    let (users_a, vals_a) = m.item_col(a);
    if users_a.len() < crate::MIN_OVERLAP {
        return Vec::new();
    }
    let means = m.item_means();
    let mean_a = means[a.index()];
    for (&u, &r_ua) in users_a.iter().zip(vals_a) {
        let da = r_ua - mean_a;
        let (items, vals) = m.user_row(u);
        // `a` itself accumulates too (it is in every row here) and is
        // skipped below, which keeps this loop free of the check.
        for (&b, &r_ub) in items.iter().zip(vals) {
            let s = &mut sums[b.index()];
            let db = r_ub - means[b.index()];
            s.dot += da * db;
            s.norm_a += da * da;
            s.norm_b += db * db;
            s.n += 1;
        }
    }
    let mut sims = Vec::new();
    for (b_idx, s) in sums.iter_mut().enumerate() {
        // Sweeping every slot is cheaper than recording the touched
        // ones, which puts a branch in the loop above (measured about
        // twice the time at 2000 × 1000).
        if s.n == 0 {
            continue;
        }
        let s = std::mem::take(s);
        if b_idx == a.index() || s.n < crate::MIN_OVERLAP || s.norm_a <= 0.0 || s.norm_b <= 0.0 {
            continue;
        }
        let sim = (s.dot / (s.norm_a.sqrt() * s.norm_b.sqrt())).clamp(-1.0, 1.0);
        sims.push((ItemId::from(b_idx), sim));
    }
    sims
}

/// `par_map` over `0..n` where every call also gets zeroed [`PairSums`]
/// for `num_items` items to pass to [`item_sims`]. Items run in chunks, a
/// few per worker to balance uneven item costs, and each chunk reuses one
/// set of sums.
fn par_map_with_sums<T: Send>(
    n: usize,
    num_items: usize,
    threads: usize,
    f: impl Fn(&mut [PairSums], usize) -> T + Sync,
) -> Vec<T> {
    let chunk = n.div_ceil(threads.saturating_mul(8)).max(1);
    par_map(n.div_ceil(chunk), threads, |c| {
        let mut sums = vec![PairSums::default(); num_items];
        (c * chunk..n.min((c + 1) * chunk))
            .map(|i| f(&mut sums, i))
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// The order of every neighbor list: similarity descending, ties by item
/// id ascending. Strict on the distinct ids of one list.
fn by_rank(x: &(ItemId, f64), y: &(ItemId, f64)) -> Ordering {
    y.1.partial_cmp(&x.1)
        .expect("similarities are finite")
        .then(x.0.cmp(&y.0))
}

/// Applies threshold + cap to a neighbor list and sorts what is kept by
/// [`by_rank`]. The cap selects before sorting, so only kept entries are
/// sorted.
fn finalize_list(
    mut neighbors: Vec<(ItemId, f64)>,
    threshold: f64,
    cap: Option<usize>,
) -> Vec<(ItemId, f64)> {
    neighbors.retain(|&(_, s)| s > threshold);
    if let Some(cap) = cap.filter(|&cap| cap < neighbors.len()) {
        neighbors.select_nth_unstable_by(cap, by_rank);
        neighbors.truncate(cap);
    }
    neighbors.sort_unstable_by(by_rank);
    neighbors.shrink_to_fit();
    neighbors
}

impl Gis {
    /// Builds the GIS over the whole matrix in parallel, each worker
    /// reusing one set of per-item accumulators across a chunk of items.
    ///
    /// Cost is `O(Q² + Σ_u |I(u)|²)`: item `a` reads the rows of its
    /// raters, so the work follows the co-ratings Eq. 5 sums over. Every
    /// list is bit-identical to [`crate::item_pcc`] over the items it
    /// keeps, for any thread count.
    pub fn build(m: &RatingMatrix, config: &GisConfig) -> Self {
        cf_obs::time_scope!("offline.gis.build_ns");
        let q = m.num_items();
        let threads = cf_parallel::effective_threads(config.threads);
        let threshold = config.threshold;
        let cap = config.max_neighbors;

        let lists = par_map_with_sums(q, q, threads, |sums, a_idx| {
            let t = std::time::Instant::now();
            let list = finalize_list(item_sims(m, ItemId::from(a_idx), sums), threshold, cap);
            cf_obs::histogram!("offline.gis.item_ns").record_duration(t.elapsed());
            list
        });

        let gis = Self { lists };
        cf_obs::counter!("offline.gis.pairs").add(gis.stored_pairs() as u64);
        gis
    }

    /// Incrementally refreshes the similarity lists of the given items
    /// against the (updated) matrix — the paper's future-work question of
    /// "how CFSF can keep GIS up-to-date" (§VI).
    ///
    /// Each stale item's own list is recomputed exactly, with the kernel
    /// [`Gis::build`] uses. Every other list is patched once, for all
    /// stale items together: it becomes the first `cap` entries, by rank,
    /// of its old entries without the stale ids plus each stale item's
    /// fresh similarity above the threshold. The result depends only on
    /// the set of stale items, not on their order or repeats. Uncapped,
    /// it equals [`Gis::build`] over the new matrix, provided only the
    /// stale items' columns changed. Capped, an entry a list evicted
    /// earlier cannot come back when a stale item's similarity drops: a
    /// list can then hold fewer than `cap` entries, or miss one a full
    /// build would keep. Callers that need exactness after heavy churn
    /// should rebuild periodically.
    pub fn rebuild_items(&mut self, m: &RatingMatrix, items: &[ItemId], config: &GisConfig) {
        cf_obs::time_scope!("offline.gis.rebuild_ns");
        let threads = cf_parallel::effective_threads(config.threads);
        let threshold = config.threshold;
        let cap = config.max_neighbors;

        let mut stale_items = items.to_vec();
        stale_items.sort_unstable();
        stale_items.dedup();
        let fresh = par_map_with_sums(stale_items.len(), m.num_items(), threads, |sums, k| {
            item_sims(m, stale_items[k], sums)
        });
        cf_obs::counter!("offline.gis.items_rebuilt").add(stale_items.len() as u64);

        let mut stale = vec![false; self.lists.len()];
        for &a in &stale_items {
            stale[a.index()] = true;
        }
        // Each fresh similarity that enters a non-stale list, keyed by
        // that list's item.
        let mut entering: Vec<(ItemId, (ItemId, f64))> = stale_items
            .iter()
            .zip(&fresh)
            .flat_map(|(&a, sims)| {
                sims.iter()
                    .filter(|&&(b, s)| s > threshold && !stale[b.index()])
                    .map(move |&(b, s)| (b, (a, s)))
            })
            .collect();
        entering.sort_unstable_by_key(|&(b, _)| b);

        let limit = cap.unwrap_or(usize::MAX);
        let mut merged = Vec::new();
        let mut rest = entering.as_mut_slice();
        for (b_idx, list) in self.lists.iter_mut().enumerate() {
            if stale[b_idx] {
                continue;
            }
            let k = rest.partition_point(|&(b, _)| b.index() == b_idx);
            let (mine, tail) = std::mem::take(&mut rest).split_at_mut(k);
            rest = tail;
            if mine.is_empty() && !list.iter().any(|&(i, _)| stale[i.index()]) {
                continue;
            }
            mine.sort_unstable_by(|x, y| by_rank(&x.1, &y.1));
            // Merge the kept old entries and the fresh ones by rank up to
            // the cap, then copy back into the list's own allocation: a
            // list at its cap never grows, even for a moment.
            merged.clear();
            let mut old = list.iter().filter(|&&(i, _)| !stale[i.index()]).peekable();
            let mut new = mine.iter().map(|(_, entry)| entry).peekable();
            while merged.len() < limit {
                let next = match (old.peek(), new.peek()) {
                    (Some(&x), Some(&y)) if by_rank(x, y) == Ordering::Less => old.next(),
                    (_, Some(_)) => new.next(),
                    _ => old.next(),
                };
                match next {
                    Some(&entry) => merged.push(entry),
                    None => break,
                }
            }
            list.clone_from(&merged);
        }
        for (&a, sims) in stale_items.iter().zip(fresh) {
            self.lists[a.index()] = finalize_list(sims, threshold, cap);
        }
    }

    /// Reassembles a GIS from per-item neighbor lists (as produced by
    /// [`Gis::neighbors`]) — the deserialization path for model
    /// persistence. Each list must already be sorted by descending
    /// similarity; this is validated and panics otherwise, since a
    /// mis-sorted list silently corrupts every `top_m` query.
    pub fn from_lists(lists: Vec<Vec<(ItemId, f64)>>) -> Self {
        for (idx, list) in lists.iter().enumerate() {
            assert!(
                list.windows(2).all(|w| w[0].1 >= w[1].1),
                "neighbor list of item {idx} is not sorted descending"
            );
        }
        Self { lists }
    }

    /// Number of items the GIS was built over.
    pub fn num_items(&self) -> usize {
        self.lists.len()
    }

    /// All stored neighbors of `item`, descending similarity.
    #[inline]
    pub fn neighbors(&self, item: ItemId) -> &[(ItemId, f64)] {
        &self.lists[item.index()]
    }

    /// The top `m` similar items of `item` (fewer if the list is shorter —
    /// thresholding may leave less than `m` genuine neighbors).
    #[inline]
    pub fn top_m(&self, item: ItemId, m: usize) -> &[(ItemId, f64)] {
        let list = self.neighbors(item);
        &list[..list.len().min(m)]
    }

    /// Stored similarity between `item` and `other`, if `other` survived
    /// thresholding/capping. Linear scan — lists are short and this is
    /// only used by tests and diagnostics.
    pub fn get(&self, item: ItemId, other: ItemId) -> Option<f64> {
        self.neighbors(item)
            .iter()
            .find(|(i, _)| *i == other)
            .map(|&(_, s)| s)
    }

    /// Total number of stored (directed) neighbor pairs.
    pub fn stored_pairs(&self) -> usize {
        self.lists.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item_pcc;
    use cf_matrix::{MatrixBuilder, UserId};

    fn matrix() -> RatingMatrix {
        // 6 users × 5 items with two clear item groups: {0,1} and {2,3};
        // item 4 is anticorrelated with group {0,1}.
        let rows: [&[f64]; 6] = [
            &[5.0, 4.0, 1.0, 2.0, 1.0],
            &[4.0, 5.0, 2.0, 1.0, 2.0],
            &[5.0, 5.0, 1.0, 1.0, 1.0],
            &[1.0, 2.0, 5.0, 4.0, 5.0],
            &[2.0, 1.0, 4.0, 5.0, 4.0],
            &[1.0, 1.0, 5.0, 5.0, 5.0],
        ];
        let mut b = MatrixBuilder::new();
        for (u, row) in rows.iter().enumerate() {
            for (i, &r) in row.iter().enumerate() {
                b.push(UserId::from(u), ItemId::from(i), r);
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn gis_matches_pairwise_kernel() {
        let m = matrix();
        let gis = Gis::build(
            &m,
            &GisConfig {
                threshold: -1.0, // keep everything to compare against the kernel
                max_neighbors: None,
                threads: Some(2),
            },
        );
        for a in m.items() {
            for b in m.items() {
                if a == b {
                    continue;
                }
                let expect = item_pcc(&m, a, b);
                let got = gis.get(a, b);
                if expect > -1.0 {
                    // A pair the GIS skips (too little overlap or no
                    // variance) is one the kernel scores 0.
                    let got = got.unwrap_or(0.0);
                    assert_eq!(
                        got.to_bits(),
                        expect.to_bits(),
                        "({a:?},{b:?}): gis={got}, kernel={expect}"
                    );
                }
            }
        }
    }

    #[test]
    fn lists_are_sorted_descending() {
        let gis = Gis::build(&matrix(), &GisConfig::default());
        for i in 0..gis.num_items() {
            let list = gis.neighbors(ItemId::from(i));
            assert!(list.windows(2).all(|w| w[0].1 >= w[1].1));
        }
    }

    #[test]
    fn default_threshold_drops_nonpositive_sims() {
        let m = matrix();
        let gis = Gis::build(&m, &GisConfig::default());
        // item 4 anticorrelates with items 0 and 1: must not appear there.
        assert!(gis.get(ItemId::new(0), ItemId::new(4)).is_none());
        assert!(gis.get(ItemId::new(1), ItemId::new(4)).is_none());
        // but items 0 and 1 are mutual neighbors
        assert!(gis.get(ItemId::new(0), ItemId::new(1)).unwrap() > 0.5);
        for i in m.items() {
            for &(_, s) in gis.neighbors(i) {
                assert!(s > 0.0);
            }
        }
    }

    #[test]
    fn top_m_truncates_but_never_pads() {
        let gis = Gis::build(&matrix(), &GisConfig::default());
        let full = gis.neighbors(ItemId::new(0)).len();
        assert_eq!(gis.top_m(ItemId::new(0), 1).len(), 1.min(full));
        assert_eq!(gis.top_m(ItemId::new(0), 1000).len(), full);
    }

    #[test]
    fn max_neighbors_caps_lists() {
        let gis = Gis::build(
            &matrix(),
            &GisConfig {
                threshold: -1.0,
                max_neighbors: Some(2),
                threads: Some(1),
            },
        );
        for i in 0..gis.num_items() {
            assert!(gis.neighbors(ItemId::from(i)).len() <= 2);
        }
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let m = matrix();
        let g1 = Gis::build(
            &m,
            &GisConfig {
                threads: Some(1),
                ..Default::default()
            },
        );
        let g4 = Gis::build(
            &m,
            &GisConfig {
                threads: Some(4),
                ..Default::default()
            },
        );
        for i in m.items() {
            assert_eq!(g1.neighbors(i), g4.neighbors(i));
        }
    }

    #[test]
    fn rebuild_items_matches_full_rebuild() {
        // Start from one matrix, move to another, and verify that an
        // incremental rebuild of the changed items converges to the same
        // GIS a from-scratch build over the new matrix produces.
        let m_old = matrix();
        // new matrix: user 0 flips their rating of item 2
        let mut b = MatrixBuilder::new();
        for (u, i, r) in m_old.triplets() {
            let r = if u == UserId::new(0) && i == ItemId::new(2) {
                5.0
            } else {
                r
            };
            b.push(u, i, r);
        }
        let m_new = b.build().unwrap();
        let config = GisConfig {
            threshold: 0.0,
            max_neighbors: None,
            threads: Some(1),
        };

        let mut incremental = Gis::build(&m_old, &config);
        // item 2 changed; items co-rated with it also shift (their sim to
        // item 2 changes, which rebuild_items patches via reverse edges).
        incremental.rebuild_items(&m_new, &[ItemId::new(2)], &config);

        let fresh = Gis::build(&m_new, &config);
        for i in m_new.items() {
            let a: Vec<_> = incremental.neighbors(i).to_vec();
            let b: Vec<_> = fresh.neighbors(i).to_vec();
            assert_eq!(a.len(), b.len(), "item {i:?}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.0, y.0, "item {i:?}");
                assert_eq!(
                    x.1.to_bits(),
                    y.1.to_bits(),
                    "item {i:?}: {} vs {}",
                    x.1,
                    y.1
                );
            }
        }
    }

    #[test]
    fn rebuild_items_respects_threshold_and_removal() {
        // After an update that destroys a correlation, the reverse edge
        // must disappear from the partner's list.
        let mut b = MatrixBuilder::new();
        for u in 0..4u32 {
            let r = 1.0 + u as f64;
            b.push(UserId::new(u), ItemId::new(0), r);
            b.push(UserId::new(u), ItemId::new(1), r); // perfectly correlated
            b.push(UserId::new(u), ItemId::new(2), 6.0 - r);
        }
        let m_old = b.build().unwrap();
        let config = GisConfig::default();
        let mut gis = Gis::build(&m_old, &config);
        assert!(gis.get(ItemId::new(0), ItemId::new(1)).is_some());

        // item 1 becomes constant: zero variance, no similarity at all
        let mut b = MatrixBuilder::new();
        for (u, i, r) in m_old.triplets() {
            let r = if i == ItemId::new(1) { 3.0 } else { r };
            b.push(u, i, r);
        }
        let m_new = b.build().unwrap();
        gis.rebuild_items(&m_new, &[ItemId::new(1)], &config);
        assert!(gis.neighbors(ItemId::new(1)).is_empty());
        assert!(gis.get(ItemId::new(0), ItemId::new(1)).is_none());
        assert!(gis.get(ItemId::new(2), ItemId::new(1)).is_none());
    }

    #[test]
    fn stored_pairs_counts_all_lists() {
        let gis = Gis::build(&matrix(), &GisConfig::default());
        let total: usize = (0..5usize)
            .map(|i| gis.neighbors(ItemId::from(i)).len())
            .sum();
        assert_eq!(gis.stored_pairs(), total);
        assert!(total > 0);
    }
}
