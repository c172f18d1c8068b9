//! Parallel batch prediction — the paper's future-work item "how CFSF can
//! improve its scalability in a parallel manner" (§VI).
//!
//! The online phase is read-only over the fitted model (the per-user
//! neighbor cache is behind a lock), so a batch of requests parallelizes
//! trivially: shard requests across threads, warm each user's neighbor
//! selection once, share everything else.
//!
//! Requests are processed in **strip-sorted order**: sorted by
//! `(item, user)` so consecutive requests reuse the same per-item GIS
//! strip (and nearby plane rows) while they are still hot in cache —
//! the serving path is LLC-latency-bound (DESIGN.md §6c), so request
//! locality is throughput. The sort permutation is inverted before
//! returning, and prediction is a pure function of `(user, item)`, so
//! results are bit-identical regardless of request order — enforced by
//! the batch-equivalence tests and proptests.

use cf_matrix::{ItemId, Predictor, UserId};

use crate::online::PredictionBreakdown;
use crate::Cfsf;

impl Cfsf {
    /// Predicts a batch of `(user, item)` requests in parallel.
    ///
    /// Output order matches input order and every element equals what
    /// [`Cfsf::predict`] would return for that pair — parallelism and the
    /// internal strip-sorted processing order are implementation details,
    /// not semantic ones.
    ///
    /// For throughput, requests are grouped so each user's top-`K`
    /// selection is computed once even when the cache starts cold, and
    /// processed sorted by item strip for cache locality.
    pub fn predict_batch(
        &self,
        requests: &[(UserId, ItemId)],
        threads: Option<usize>,
    ) -> Vec<Option<f64>> {
        self.batch_over(requests, threads, |u, i| self.predict(u, i))
    }

    /// [`Cfsf::predict_batch`] returning the full per-request
    /// [`PredictionBreakdown`] — what the shard server's batch frame
    /// serves. Same ordering and isolation guarantees.
    pub fn predict_batch_with_breakdown(
        &self,
        requests: &[(UserId, ItemId)],
        threads: Option<usize>,
    ) -> Vec<Option<PredictionBreakdown>> {
        self.batch_over(requests, threads, |u, i| self.predict_with_breakdown(u, i))
    }

    /// Shared batch engine: warm distinct users, process in strip-sorted
    /// order, scatter results back to request order.
    fn batch_over<T: Send>(
        &self,
        requests: &[(UserId, ItemId)],
        threads: Option<usize>,
        predict_one: impl Fn(UserId, ItemId) -> Option<T> + Sync + std::panic::RefUnwindSafe,
    ) -> Vec<Option<T>> {
        cf_obs::time_scope!("online.batch.batch_ns");
        cf_obs::counter!("online.batch.requests").add(requests.len() as u64);
        let threads = cf_parallel::effective_threads(threads);
        // Pre-warm neighbor selections in parallel over *distinct* users,
        // so the per-request loop below never contends on selection work.
        let mut users: Vec<UserId> = requests.iter().map(|&(u, _)| u).collect();
        users.sort_unstable();
        users.dedup();
        users.retain(|u| u.index() < self.matrix.num_users());
        // Warming is best-effort: a panicking selection only costs the
        // warm-up (the per-request path retries, degraded if need be).
        cf_parallel::par_map_isolated(users.len(), threads, |k| {
            self.top_k_users(users[k]);
        });

        // Strip-sorted processing order: same item → same GIS strip, and
        // within an item ascending users. `par_map_isolated` hands out
        // contiguous chunks, so sorted neighbors land on the same thread
        // and the strip stays hot across them. The original index is the
        // final sort key, making the order a deterministic permutation.
        let mut order: Vec<u32> = (0..requests.len() as u32).collect();
        order.sort_unstable_by_key(|&k| {
            let (u, i) = requests[k as usize];
            (i.raw(), u.raw(), k)
        });

        let sorted = cf_parallel::par_map_isolated(requests.len(), threads, |k| {
            #[cfg(feature = "faultinject")]
            cf_faultinject::maybe_panic("batch.worker_panic");
            let (u, i) = requests[order[k] as usize];
            predict_one(u, i)
        });
        // Scatter back to request order. A worker that panicked (outer
        // None) answers that one request with "no prediction" instead of
        // taking down the whole batch.
        let mut out: Vec<Option<T>> = Vec::with_capacity(requests.len());
        out.resize_with(requests.len(), || None);
        for (k, r) in sorted.into_iter().enumerate() {
            out[order[k] as usize] = match r {
                Some(p) => p,
                None => {
                    cf_obs::counter!("online.batch.request_panic").inc();
                    None
                }
            };
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CfsfConfig;
    use cf_data::SyntheticConfig;

    fn model() -> Cfsf {
        let d = SyntheticConfig::small().generate();
        Cfsf::fit(&d.matrix, CfsfConfig::small()).unwrap()
    }

    fn requests() -> Vec<(UserId, ItemId)> {
        (0..300)
            .map(|k| (UserId::new(k % 80), ItemId::new((k * 7) % 120)))
            .collect()
    }

    #[test]
    fn batch_matches_serial_exactly() {
        let m = model();
        let reqs = requests();
        let serial: Vec<Option<f64>> = reqs.iter().map(|&(u, i)| m.predict(u, i)).collect();
        for threads in [1, 2, 8] {
            m.clear_caches();
            let batch = m.predict_batch(&reqs, Some(threads));
            assert_eq!(batch, serial, "threads={threads}");
        }
    }

    #[test]
    fn batch_handles_out_of_range_requests() {
        let m = model();
        let reqs = vec![
            (UserId::new(0), ItemId::new(0)),
            (UserId::new(9999), ItemId::new(0)),
            (UserId::new(0), ItemId::new(9999)),
        ];
        let out = m.predict_batch(&reqs, Some(2));
        assert!(out[0].is_some());
        assert_eq!(out[1], None);
        assert_eq!(out[2], None);
    }

    #[test]
    fn empty_batch_is_fine() {
        let m = model();
        assert!(m.predict_batch(&[], Some(4)).is_empty());
    }

    /// The strip sort is internal: any permutation of the same requests
    /// must produce the permuted-but-bit-identical answers, at every
    /// thread count.
    #[test]
    fn batch_results_are_bit_identical_regardless_of_request_order() {
        let m = model();
        let reqs = requests();
        // A fixed pseudo-random shuffle (Fibonacci hashing permutation on
        // a power-of-two overscan, filtered to range).
        let n = reqs.len();
        let shuffled: Vec<(UserId, ItemId)> = (0..1024usize)
            .map(|k| (k.wrapping_mul(2654435761) >> 6) % 512)
            .filter(|&k| k < n)
            .map(|k| reqs[k])
            .collect();
        assert!(shuffled.len() >= n / 2, "permutation sanity");
        let base: Vec<Option<f64>> = shuffled.iter().map(|&(u, i)| m.predict(u, i)).collect();
        for threads in [1, 2, 8] {
            m.clear_caches();
            let batch = m.predict_batch(&shuffled, Some(threads));
            assert_eq!(batch.len(), base.len());
            for (k, (a, b)) in batch.iter().zip(&base).enumerate() {
                assert_eq!(
                    a.map(f64::to_bits),
                    b.map(f64::to_bits),
                    "threads={threads}, k={k}"
                );
            }
        }
    }

    #[test]
    fn breakdown_batch_matches_serial_breakdowns() {
        let m = model();
        let reqs = requests();
        let serial: Vec<_> = reqs
            .iter()
            .map(|&(u, i)| m.predict_with_breakdown(u, i))
            .collect();
        for threads in [1, 4] {
            m.clear_caches();
            let batch = m.predict_batch_with_breakdown(&reqs, Some(threads));
            assert_eq!(batch, serial, "threads={threads}");
        }
    }
}
