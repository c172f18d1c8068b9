//! Bounded partial selection: the top `k` of a scored stream in `O(n log k)`
//! time and `O(k)` memory, replacing full `sort_by` + `truncate` on the
//! serving path (neighbor selection, top-N recommendation).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A heap entry ordered so the **worst** candidate under the serving
/// ranking (descending score, then ascending id) sits at the root of a
/// max-heap and is the first to be displaced.
struct Worst<T>(T, f64);

impl<T: Ord> PartialEq for Worst<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<T: Ord> Eq for Worst<T> {}
impl<T: Ord> PartialOrd for Worst<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T: Ord> Ord for Worst<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Lower score is worse; on ties, the higher id is worse — exactly
        // the reverse of the output order, so the heap max is the first
        // element `truncate(k)` would have dropped.
        other
            .1
            .total_cmp(&self.1)
            .then_with(|| self.0.cmp(&other.0))
    }
}

/// Selects the top `k` entries of `scored` under (descending score,
/// ascending id) — the exact order the serving path's former
/// `sort_by` + `truncate(k)` produced, deterministically and regardless
/// of input order (ids are assumed unique). Scores must be finite.
///
/// Public because the sharded serving tier's scatter-gather merge must
/// rank with *exactly* this comparator: the global top-`k` of the union
/// of per-stripe top-`k`s is then bit-for-bit the single-process answer.
pub fn top_k_by_score<T, I>(k: usize, scored: I) -> Vec<(T, f64)>
where
    T: Copy + Ord,
    I: IntoIterator<Item = (T, f64)>,
{
    if k == 0 {
        return Vec::new();
    }
    let scored = scored.into_iter();
    let (lower, upper) = scored.size_hint();
    let mut top = TopK::new(k, upper.unwrap_or(lower));
    for (id, score) in scored {
        top.push(id, score);
    }
    top.into_sorted()
}

/// The top `k` of the entries `0..bounds.len()` under a score that is
/// costly to compute and never exceeds its entry's bound
/// (`score(i) <= bounds[i]`), without scoring every entry. Entries are
/// scored by descending bound (ties toward the lower index), and scoring
/// stops once `k` are held and the next bound is strictly below the
/// `k`-th best score, since no entry left can enter. An entry whose bound
/// equals that score is still scored: it may tie and win on its lower
/// index. This is the threshold algorithm with one bounded attribute
/// (Fagin, Lotem & Naor, "Optimal aggregation algorithms for
/// middleware", PODS 2001).
///
/// Returns the selection with its scores, best first — the same entries
/// in the same order as [`top_k_by_score`] over every entry's score —
/// and how many entries were scored.
pub(crate) fn top_k_by_bound(
    k: usize,
    bounds: &[f64],
    mut score: impl FnMut(usize) -> f64,
) -> (Vec<(usize, f64)>, usize) {
    if k == 0 {
        return (Vec::new(), 0);
    }
    let mut order: Vec<usize> = (0..bounds.len()).collect();
    // When every entry fits in the answer none can be skipped, so the
    // visiting order does not matter.
    if k < bounds.len() {
        order.sort_unstable_by(|&a, &b| bounds[b].total_cmp(&bounds[a]).then(a.cmp(&b)));
    }
    let mut top = TopK::new(k, bounds.len());
    let mut scored = 0;
    for i in order {
        if top.floor().is_some_and(|floor| bounds[i] < floor) {
            break;
        }
        top.push(i, score(i));
        scored += 1;
    }
    (top.into_sorted(), scored)
}

/// [`top_k_by_score`] fed one entry at a time, for callers that stop
/// early once [`TopK::floor`] says nothing left can enter.
struct TopK<T> {
    k: usize,
    heap: BinaryHeap<Worst<T>>,
}

impl<T: Copy + Ord> TopK<T> {
    /// An empty selection of the best `k` of at most `candidates`
    /// entries. `k` may come off the wire: the heap is sized by the
    /// candidates that can actually arrive, never by `k` alone.
    fn new(k: usize, candidates: usize) -> Self {
        Self {
            k,
            heap: BinaryHeap::with_capacity(k.min(candidates).saturating_add(1)),
        }
    }

    /// Offers one entry; it stays if it ranks among the best `k` so far.
    fn push(&mut self, id: T, score: f64) {
        let candidate = Worst(id, score);
        if self.heap.len() < self.k {
            self.heap.push(candidate);
        } else if self.heap.peek().is_some_and(|worst| candidate < *worst) {
            self.heap.pop();
            self.heap.push(candidate);
        }
    }

    /// The `k`-th best score held, once `k` entries are: an entry scoring
    /// strictly below it can never enter. `None` while fewer are held.
    fn floor(&self) -> Option<f64> {
        if self.heap.len() < self.k {
            return None;
        }
        self.heap.peek().map(|worst| worst.1)
    }

    /// The selection, best first (descending score, then ascending id).
    fn into_sorted(self) -> Vec<(T, f64)> {
        let mut out: Vec<(T, f64)> = self.heap.into_iter().map(|Worst(id, s)| (id, s)).collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(k: usize, mut v: Vec<(u32, f64)>) -> Vec<(u32, f64)> {
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    #[test]
    fn matches_sort_truncate_with_ties() {
        let scored = vec![
            (5u32, 0.5),
            (1, 0.9),
            (9, 0.5),
            (2, 0.9),
            (7, 0.1),
            (3, 0.5),
            (0, 0.7),
        ];
        for k in 0..=8 {
            assert_eq!(
                top_k_by_score(k, scored.iter().copied()),
                reference(k, scored.clone()),
                "k={k}"
            );
        }
    }

    #[test]
    fn deterministic_across_input_orders() {
        let mut scored: Vec<(u32, f64)> = (0..200)
            .map(|i| (i, ((i * 37) % 50) as f64 / 10.0))
            .collect();
        let expect = reference(10, scored.clone());
        scored.reverse();
        assert_eq!(top_k_by_score(10, scored.iter().copied()), expect);
        // interleave
        let interleaved: Vec<_> = scored
            .chunks(2)
            .rev()
            .flat_map(|c| c.iter().copied())
            .collect();
        assert_eq!(top_k_by_score(10, interleaved), expect);
    }

    #[test]
    fn huge_k_is_sized_by_the_candidates() {
        let scored = vec![(4u32, 1.5), (1, 3.0), (7, 1.5)];
        assert_eq!(
            top_k_by_score(usize::MAX, scored.iter().copied()),
            reference(usize::MAX, scored.clone())
        );
        // A filtered stream knows only an upper bound on its length.
        assert_eq!(
            top_k_by_score(usize::MAX, scored.iter().copied().filter(|c| c.0 != 1)),
            reference(usize::MAX, vec![(4, 1.5), (7, 1.5)])
        );
    }

    /// Scoring by bound returns exactly what scoring everything does,
    /// for every `k`, over ties in both bound and score and bounds equal
    /// to their score.
    #[test]
    fn by_bound_matches_scoring_everything() {
        // (bound, score) with score <= bound; many exact ties.
        let entries: Vec<(f64, f64)> = (0..60u32)
            .map(|i| {
                let score = f64::from((i * 7) % 11) / 2.0;
                let slack = f64::from((i * 5) % 3) / 2.0;
                (score + slack, score)
            })
            .collect();
        let bounds: Vec<f64> = entries.iter().map(|e| e.0).collect();
        for k in 0..=entries.len() + 1 {
            let want = top_k_by_score(k, entries.iter().enumerate().map(|(i, e)| (i, e.1)));
            let (got, scored) = top_k_by_bound(k, &bounds, |i| entries[i].1);
            assert_eq!(got, want, "k={k}");
            assert!(scored <= entries.len());
            if (1..20).contains(&k) {
                assert!(scored < entries.len(), "k={k}: nothing was skipped");
            }
        }
    }

    /// An entry whose bound equals the `k`-th best score is still scored:
    /// here it ties the held entry and wins on its lower index.
    #[test]
    fn by_bound_scores_an_entry_whose_bound_equals_the_floor() {
        let bounds = [1.0, 2.0, 3.0, 0.5];
        let scores = [1.0, 1.0, 3.0, 0.5];
        let mut visited = Vec::new();
        let (got, scored) = top_k_by_bound(2, &bounds, |i| {
            visited.push(i);
            scores[i]
        });
        assert_eq!(got, vec![(2, 3.0), (0, 1.0)]);
        assert_eq!((scored, visited), (3, vec![2, 1, 0]), "entry 3 is skipped");
    }

    #[test]
    fn short_streams_and_zero_k() {
        assert!(top_k_by_score::<u32, _>(0, vec![(1, 1.0)]).is_empty());
        assert!(top_k_by_score::<u32, _>(5, Vec::new()).is_empty());
        assert_eq!(top_k_by_score(5, vec![(3u32, 2.0)]), vec![(3, 2.0)]);
    }
}
