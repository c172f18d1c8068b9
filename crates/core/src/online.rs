//! The online phase: local `M × K` matrix construction and the three
//! estimators `SIR'`, `SUR'`, `SUIR'` of Eq. 12.
//!
//! Two implementations live here:
//!
//! - the **serving fast path** ([`Cfsf::predict_with_breakdown`]): reads
//!   the quantized [`cf_matrix::WeightPlanes`] (ε, presence, and
//!   provenance folded into one 16-bit [`cf_matrix::PlaneCell`] per entry
//!   with an exact weight LUT — one load per cell) and runs the Eq. 12
//!   sums as branch-free multiply-accumulate with the dequantization
//!   fused into the loops — no per-cell `is_nan` test, no
//!   provenance-bit extraction, pair weights via a vectorizable
//!   reciprocal-square-root strip, and the next neighbor's plane row
//!   software-prefetched while the current one is in the MAC (the path
//!   is LLC-latency-bound, DESIGN.md §6c);
//! - the **reference path** ([`Cfsf::predict_with_breakdown_ref`]): the
//!   original per-cell f64 loops over the dense matrix. It is the ground
//!   truth the fast kernels are property-tested against (within the
//!   quantization tolerance `planes.step() + 1e-9` — weights are exact,
//!   so availability, overlap counts, and degrade levels match exactly).
//!
//! The fast path runs one kernel per estimator, so top-N
//! ([`Cfsf::recommend_top_n_in_range`]) can compute SIR' and SUR' for
//! every candidate item, bound each item's score from them, and build
//! the `M × K` matrix for SUIR' only where the bound can still reach the
//! answer (DESIGN.md §6b).

// A hot-path module: the clock is read only through
// `cf_obs::now_if_enabled`.
#![deny(clippy::disallowed_methods)]

use std::cell::RefCell;
use std::sync::Arc;

use cf_matrix::{ItemId, UserId};
use cf_similarity::{pair_weight, smoothing_weight, weighted_user_pcc_planes};

use crate::{fuse, Cfsf, DegradeLevel};

/// A prediction together with its Eq. 12 components — what the local
/// `M × K` matrix produced before fusion. Exposed for tests, ablations,
/// and the parameter-sensitivity experiments (Figs. 6–8).
#[derive(Debug, Clone, PartialEq)]
pub struct PredictionBreakdown {
    /// Same-user-on-similar-items estimator, if computable.
    pub sir: Option<f64>,
    /// Like-minded-users-on-the-active-item estimator, if computable.
    pub sur: Option<f64>,
    /// Like-minded-users-on-similar-items estimator, if computable.
    pub suir: Option<f64>,
    /// The fused prediction (Eq. 14), clamped to the rating scale.
    pub fused: f64,
    /// True when no estimator was available and the model fell back to
    /// the smoothed cell value / user mean / global mean — equivalent to
    /// [`DegradeLevel::is_fallback`] on [`Self::level`].
    pub used_fallback: bool,
    /// The degradation-ladder rung this prediction was served from.
    pub level: DegradeLevel,
    /// Similar items that actually contributed to `SIR'`.
    pub m_used: usize,
    /// Like-minded users selected for the local matrix.
    pub k_used: usize,
}

/// Per-thread request scratch: the Eq. 13 pair-weight strip for one
/// neighbor row (recomputed per neighbor). Reused across requests so the
/// hot path never allocates; the similar-item strips themselves are
/// precomputed per item at fit time ([`crate::strips::ItemStrips`]).
#[derive(Default)]
struct Scratch {
    pw: Vec<f64>,
}

/// `1/√y` to ≤ 2.6e-12 relative error, without touching the divider/sqrt
/// unit: the classic bit-shift initial guess (≤ 3.42e-2 relative error)
/// refined by two order-3 Householder steps, `x ← x·(1 + ½e + ⅜e²)` with
/// `e = 1 − y·x²`. Each step cubes the error (`δ' ≈ 2.5·δ³`, so
/// 3.4e-2 → 1.0e-4 → 2.5e-12), which leaves a ~400× margin against the
/// fast path's 1e-9 equivalence budget. Five fused mul-adds per step on
/// finite positive input, so LLVM vectorizes a strip of these where
/// `sqrt` + `div` would serialize on the divider — the pair-weight loop
/// is exactly such a strip.
#[inline]
fn rsqrt(y: f64) -> f64 {
    let mut x = f64::from_bits(0x5FE6_EB50_C7B5_37A9u64.wrapping_sub(y.to_bits() >> 1));
    for _ in 0..2 {
        let s = y * x;
        let e = (-s).mul_add(x, 1.0);
        let t = 0.375f64.mul_add(e, 0.5);
        let u = x * e;
        x = u.mul_add(t, x);
    }
    x
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

impl Cfsf {
    /// Selects the top `K` like-minded users for `user` (Eq. 10/11),
    /// walking the iCluster ranking to build the candidate pool. Results
    /// are cached per user in a sharded, capacity-bounded cache:
    /// selection is independent of the active item.
    pub fn top_k_users(&self, user: UserId) -> Arc<Vec<(UserId, f64)>> {
        if let Some(hit) = self.neighbor_cache.get(user) {
            cf_obs::counter!("online.neighbor_cache.hit").inc();
            return hit;
        }
        cf_obs::counter!("online.neighbor_cache.miss").inc();
        // Selection is isolated: a panic inside it (corrupt similarity
        // state, injected fault) degrades this request to an empty
        // neighbor list — the ladder below the estimators still serves —
        // and is NOT cached, so the next request retries selection.
        // Unwind safety: the closure captures only `&self` and the Copy
        // user id — `catch_unwind` rejects a `&mut` capture at compile
        // time — and the partial result is dropped, so nothing can
        // observe half-built selection state.
        match std::panic::catch_unwind(|| self.select_top_k(user)) {
            Ok(selection) => self.neighbor_cache.insert(user, Arc::new(selection)),
            Err(_) => {
                cf_obs::counter!("online.select_panic").inc();
                // Anomaly-note the active trace so the caught panic is
                // tail-kept and visible on /traces, not just a counter.
                cf_obs::trace::note("online.select_panic");
                Arc::new(Vec::new())
            }
        }
    }

    pub(crate) fn select_top_k(&self, user: UserId) -> Vec<(UserId, f64)> {
        #[cfg(feature = "faultinject")]
        {
            if cf_faultinject::fires("online.empty_neighbors") {
                cf_obs::counter!("online.injected.empty_neighbors").inc();
                return Vec::new();
            }
            cf_faultinject::maybe_panic("online.select_panic");
        }
        // Selection is cold-path work; it gets its own histogram so
        // `online.predict_ns` reflects steady-state serving latency.
        cf_obs::time_scope!("online.select_ns");
        let _trace_span = cf_obs::trace::span("select");
        let (items, vals) = self.matrix.user_row(user);
        if items.is_empty() {
            return Vec::new();
        }
        let mut candidates = Vec::with_capacity(self.harvest_target() + 32);
        self.harvest_candidates(user, |u| candidates.push(u));

        // Rank candidates with the smoothing-aware weighted PCC (Eq. 10)
        // over the fused planes, keeping the top K via bounded partial
        // selection instead of a full sort.
        let mean_a = self.matrix.user_mean(user);
        crate::topk::top_k_by_score(
            self.config.k,
            candidates.into_iter().filter_map(|cand| {
                let s = weighted_user_pcc_planes(
                    items,
                    vals,
                    mean_a,
                    &self.planes,
                    cand,
                    self.matrix.user_mean(cand),
                );
                // Negatively correlated or signal-free users are never
                // "like-minded"; Eq. 12's denominators assume positive sims.
                (s > 0.0).then_some((cand, s))
            }),
        )
    }

    /// How many candidates [`Self::harvest_candidates`] stops at:
    /// `K · candidate_factor`, capped at the user count.
    fn harvest_target(&self) -> usize {
        self.config
            .k
            .saturating_mul(self.config.candidate_factor)
            .min(self.matrix.num_users())
    }

    /// Hands `sink` the like-minded-user candidates [`Self::top_k_users`]
    /// ranks for `user`, harvested cluster by cluster, best cluster first
    /// (§IV-E2: "selects users from clusters in iCluster one by one")
    /// until [`Self::harvest_target`] are in hand, and returns how many
    /// entries of the user's iCluster ranking that walked.
    pub(crate) fn harvest_candidates(&self, user: UserId, mut sink: impl FnMut(UserId)) -> usize {
        let want = self.harvest_target();
        let mut harvested = 0;
        let mut walked = 0;
        for &c in self.icluster.ranking(user) {
            walked += 1;
            for &u in self.clusters.members(c as usize) {
                // Users with no original ratings have fully-imputed rows
                // after smoothing; selecting them as "like-minded users"
                // would inject cluster consensus disguised as a person.
                if u != user && self.matrix.user_count(u) > 0 {
                    sink(u);
                    harvested += 1;
                }
            }
            if harvested >= want {
                break;
            }
        }
        walked
    }

    /// The item's precomputed GIS strip: column indices, similarities and
    /// squared similarities of its top-`M` similar items. A missing strip
    /// (id/structure disagreement mid-degradation) is empty, so it
    /// contributes nothing: SIR'/SUIR' come out None, SUR' survives.
    fn strip(&self, item: ItemId) -> (&[u32], &[f64], &[f64]) {
        self.strips.try_get(item).unwrap_or((&[], &[], &[]))
    }

    // The fast Eq. 12 kernels over the quantized weight planes and the
    // precomputed per-item strips, one per estimator. Dequantization
    // ([`cf_matrix::PlaneDequant::pair`]) is fused into every loop, and
    // presence comes from each cell's own bit. Weights dequantize exactly
    // (the LUT holds `0`/`ε`/`1−ε` verbatim), so denominators, `m_used`,
    // and estimator availability are identical to the f64 reference;
    // only numerators carry the ≤ `step/2` rating quantization error.
    // The kernels open no trace spans: `predict` wraps each in its own,
    // and top-N wraps whole passes.

    /// SIR': the active user's (smoothed) ratings on the item's similar
    /// items, dequantized straight off the user's plane row. The presence
    /// bit gates the weight (absent cells contribute exact zeros) and
    /// sums into `m_used` — no `is_nan` test. Returns `(sir, m_used)`.
    fn sir_kernel(&self, user: UserId, item: ItemId) -> (Option<f64>, usize) {
        let dq = self.planes.dq();
        let (idx, sim, _) = self.strip(item);
        let row_b = self.planes.cell_row(user);
        let mut sir_num = 0.0;
        let mut sir_den = 0.0;
        let mut m_used = 0u64;
        for (&s, &c) in sim.iter().zip(idx) {
            let (w, wr, p) = dq.triple(row_b[c as usize]);
            sir_num += s * wr;
            sir_den += s * w;
            m_used += p;
        }
        let sir = (sir_den > f64::EPSILON).then(|| sir_num / sir_den);
        (sir, m_used as usize)
    }

    /// SUR': like-minded users' (smoothed) ratings on the active item,
    /// mean-centered per user: `w·(r − mean)` becomes `w·r − w·mean`
    /// straight off the planes.
    fn sur_kernel(&self, user: UserId, item: ItemId, top_users: &[(UserId, f64)]) -> Option<f64> {
        let mean_b = self.matrix.user_mean(user);
        let mut sur_num = 0.0;
        let mut sur_den = 0.0;
        for &(u_t, sim_t) in top_users {
            let (w, wr) = self.planes.pair(u_t, item);
            sur_num += sim_t * (wr - w * self.matrix.user_mean(u_t));
            sur_den += sim_t * w;
        }
        (sur_den > f64::EPSILON).then(|| mean_b + sur_num / sur_den)
    }

    /// SUIR': Eq. 12/13 over the local `M × K` matrix, one neighbor row
    /// at a time. Phase one touches the *next* neighbor's plane row (safe
    /// software prefetch — see [`cf_matrix::WeightPlanes::prefetch_row`]),
    /// so its DRAM latency overlaps this neighbor's pair-weight fill and
    /// MAC: at q=1000 a row is ~32 cache lines and the M=95 strip scatters
    /// across most of them, so whole-row touching is right-sized. Phase
    /// two fills the pair-weight strip `ss·st·rsqrt(ss² + st²)` — pure
    /// mul/add over contiguous memory, so it vectorizes where the
    /// `sqrt`-and-`div` form serializes on the divider unit. Phase three
    /// multiply-accumulates the neighbor's dequantized cells read
    /// scattered, straight off the plane row: gathering them into a dense
    /// block first was measured *slower* — the copy cost as much as the
    /// whole reference kernel. Four independent accumulator lanes keep
    /// the add chains from serializing.
    ///
    /// Every pair weight and every plane weight is non-negative, so the
    /// result is a weighted mean of dequantized plane ratings: it never
    /// exceeds the top of [`cf_matrix::WeightPlanes::rating_range`] by
    /// more than rounding.
    fn suir_kernel(&self, item: ItemId, top_users: &[(UserId, f64)]) -> Option<f64> {
        let planes = &self.planes;
        let dq = planes.dq();
        let (idx, sim, sim2) = self.strip(item);
        SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            scratch.pw.clear();
            scratch.pw.resize(idx.len(), 0.0);
            let mut suir_num = 0.0;
            let mut suir_den = 0.0;
            for (t, &(u_t, sim_t)) in top_users.iter().enumerate() {
                if let Some(&(u_next, _)) = top_users.get(t + 1) {
                    planes.prefetch_row(u_next);
                }
                let tt = sim_t * sim_t;
                for ((pw, &ss), &s2) in scratch.pw.iter_mut().zip(sim).zip(sim2) {
                    // Eq. 13 pair weight; `.max(0.0)` plays the role of
                    // the reference kernel's `pw <= 0` skip. `s2 + tt` is
                    // strictly positive (selection keeps only `sim_t > 0`),
                    // so `rsqrt` never sees zero.
                    *pw = (ss * sim_t * rsqrt(s2 + tt)).max(0.0);
                }
                let row = planes.cell_row(u_t);
                let mut num = [0.0f64; 4];
                let mut den = [0.0f64; 4];
                let mut pw4 = scratch.pw.chunks_exact(4);
                let mut ix4 = idx.chunks_exact(4);
                for (p, cx) in (&mut pw4).zip(&mut ix4) {
                    for l in 0..4 {
                        let (w, wr) = dq.pair(row[cx[l] as usize]);
                        num[l] = p[l].mul_add(wr, num[l]);
                        den[l] = p[l].mul_add(w, den[l]);
                    }
                }
                for (p, &c) in pw4.remainder().iter().zip(ix4.remainder()) {
                    let (w, wr) = dq.pair(row[c as usize]);
                    num[0] = p.mul_add(wr, num[0]);
                    den[0] = p.mul_add(w, den[0]);
                }
                suir_num += (num[0] + num[1]) + (num[2] + num[3]);
                suir_den += (den[0] + den[1]) + (den[2] + den[3]);
            }
            (suir_den > f64::EPSILON).then(|| suir_num / suir_den)
        })
    }

    /// Fuses whatever estimators survived sanitization and, when none
    /// did, walks the remaining rungs of the degradation ladder. The fast
    /// path, top-N and the reference path all call this, so they degrade
    /// identically. Returns the breakdown with the sanitized estimators,
    /// the clamped prediction and the rung it came from; an in-range
    /// request always gets a value — the global-mean rung cannot be
    /// missing.
    fn fuse_with_ladder(
        &self,
        user: UserId,
        item: ItemId,
        estimates: Estimates,
        k_used: usize,
    ) -> PredictionBreakdown {
        // A non-finite estimator (corrupt plane cell, injected NaN) must
        // not reach fusion: one NaN term would poison the whole fused
        // value. Drop it — the ladder absorbs the loss.
        fn sanitize(v: Option<f64>) -> Option<f64> {
            match v {
                Some(x) if x.is_finite() => Some(x),
                Some(_) => {
                    cf_obs::counter!("online.degrade.nonfinite_estimator").inc();
                    None
                }
                None => None,
            }
        }
        let sir = sanitize(estimates.sir);
        let sur = sanitize(estimates.sur);
        let suir = sanitize(estimates.suir);
        let available = [sir, sur, suir].iter().flatten().count();

        let (fused, level) =
            if let Some(v) = fuse(sir, sur, suir, self.config.lambda, self.config.delta) {
                (v, DegradeLevel::from_available(available))
            } else {
                self.ladder_below_fusion(user, item)
            };
        PredictionBreakdown {
            sir,
            sur,
            suir,
            fused: self.matrix.scale().clamp(fused),
            used_fallback: level.is_fallback(),
            level,
            m_used: estimates.m_used,
            k_used,
        }
    }

    /// The rungs below Eq. 14, for a request with no estimator at all.
    /// The smoothed matrix imputes every cell when smoothing is on
    /// (Eq. 7–8); below that, per-user and global means always exist for
    /// a non-empty matrix.
    fn ladder_below_fusion(&self, user: UserId, item: ItemId) -> (f64, DegradeLevel) {
        let smoothed_cell = self
            .config
            .use_smoothing
            .then(|| self.dense().get(user, item))
            .flatten()
            .filter(|v| v.is_finite());
        if let Some(v) = smoothed_cell {
            return (v, DegradeLevel::ClusterSmoothed);
        }
        let mean_b = self.matrix.user_mean(user);
        if self.matrix.user_count(user) > 0 && mean_b.is_finite() {
            return (mean_b, DegradeLevel::UserMean);
        }
        (self.matrix.global_mean(), DegradeLevel::GlobalMean)
    }

    /// Runs the full online phase for `(user, item)` and reports every
    /// component. Returns `None` only for out-of-range ids; every
    /// in-range request is served from *some* rung of the degradation
    /// ladder (see [`DegradeLevel`]), bottoming out at the global mean.
    pub fn predict_with_breakdown(
        &self,
        user: UserId,
        item: ItemId,
    ) -> Option<PredictionBreakdown> {
        if user.index() >= self.matrix.num_users() || item.index() >= self.matrix.num_items() {
            // Not a served prediction: excluded from `online.predict_ns`
            // so the latency histogram reflects real serving work.
            cf_obs::counter!("online.no_signal").inc();
            return None;
        }
        // Request-scoped trace: covers the whole serve (neighbor lookup
        // included), head+tail sampled — see cf_obs::trace. When the
        // request is not head-sampled the span() calls below are one TLS
        // flag read each.
        let trace_req = cf_obs::trace::begin_request(user.raw(), item.raw());
        // Neighbor selection happens (and is timed) before the predict
        // span starts: cold selection work lands in `online.select_ns`,
        // not in the serving-latency histogram.
        let top_users = {
            let _lookup = cf_obs::trace::span("neighbor_lookup");
            self.top_k_users(user)
        };
        cf_obs::time_scope!("online.predict_ns");
        let sir_span = cf_obs::trace::span("estimator.sir");
        let (sir, m_used) = self.sir_kernel(user, item);
        drop(sir_span);
        let sur_span = cf_obs::trace::span("estimator.sur");
        let sur = self.sur_kernel(user, item, &top_users);
        drop(sur_span);
        let suir_span = cf_obs::trace::span("estimator.suir");
        let suir = self.suir_kernel(item, &top_users);
        drop(suir_span);
        #[cfg(feature = "faultinject")]
        let sir = sir.map(|v| cf_faultinject::corrupt_f64("online.nan_estimator", v));

        let fuse_span = cf_obs::trace::span("fuse");
        let estimates = Estimates {
            sir,
            sur,
            suir,
            m_used,
        };
        let b = self.fuse_with_ladder(user, item, estimates, top_users.len());
        drop(fuse_span);
        record_served(&b);
        trace_req.finish(cf_obs::trace::Outcome {
            level: b.level.as_str(),
            fallback: b.used_fallback,
            k_used: b.k_used as u32,
            m_used: b.m_used as u32,
            fused: b.fused,
        });
        Some(b)
    }

    /// [`Cfsf::recommend_top_n_in_range`] for an in-range user, `n > 0`
    /// and a stripe `start..end` already clamped to the item count: the
    /// two passes of DESIGN.md §6b, with pass 2's stopping rule in
    /// [`crate::topk::top_k_by_bound`]. Every scored item counts as one
    /// `online.predictions` on one `online.degrade.*` rung, plus
    /// `online.topn.scored`; every item never scored counts only in
    /// `online.topn.pruned`. The call is one request trace and one
    /// neighbor-cache lookup.
    pub(crate) fn top_n_in_stripe(
        &self,
        user: UserId,
        n: usize,
        start: u32,
        end: u32,
    ) -> Vec<(ItemId, f64)> {
        // One trace for the whole call, labeled like the router's.
        let trace_req = cf_obs::trace::begin_request(user.raw(), u32::MAX);
        let top_users = {
            let _lookup = cf_obs::trace::span("neighbor_lookup");
            self.top_k_users(user)
        };

        // Pass 1: SIR', SUR' and a bound for every unrated item, in
        // ascending item order, so ties on the candidate index break as
        // ties on the item id do.
        let bound_span = cf_obs::trace::span("topn.bound");
        let suir_max = self.suir_ceiling(top_users.len());
        let mut candidates: Vec<(ItemId, Estimates)> = Vec::new();
        let mut bounds: Vec<f64> = Vec::new();
        for item in (start..end).map(ItemId::new) {
            if self.matrix.is_rated(user, item) {
                continue;
            }
            let (sir, m_used) = self.sir_kernel(user, item);
            // The same fault point, at the same place, as `predict`.
            #[cfg(feature = "faultinject")]
            let sir = sir.map(|v| cf_faultinject::corrupt_f64("online.nan_estimator", v));
            let sur = self.sur_kernel(user, item, &top_users);
            bounds.push(self.score_bound(sir, sur, suir_max));
            let estimates = Estimates {
                sir,
                sur,
                suir: None,
                m_used,
            };
            candidates.push((item, estimates));
        }
        drop(bound_span);

        // Pass 2: SUIR' and fusion, by bound, until nothing left can enter.
        let score_span = cf_obs::trace::span("topn.score");
        let mut worst = DegradeLevel::Full;
        let (best, scored) = crate::topk::top_k_by_bound(n, &bounds, |k| {
            let (item, estimates) = candidates[k];
            let estimates = Estimates {
                suir: self.suir_kernel(item, &top_users),
                ..estimates
            };
            let b = self.fuse_with_ladder(user, item, estimates, top_users.len());
            record_served(&b);
            worst = worst.max(b.level);
            b.fused
        });
        drop(score_span);
        cf_obs::counter!("online.topn.scored").add(scored as u64);
        cf_obs::counter!("online.topn.pruned").add((candidates.len() - scored) as u64);
        // The trace carries the worst rung among the items scored.
        trace_req.finish(cf_obs::trace::Outcome {
            level: worst.as_str(),
            fallback: worst.is_fallback(),
            k_used: top_users.len() as u32,
            m_used: 0,
            fused: f64::NAN,
        });
        best.into_iter()
            .map(|(k, score)| (candidates[k].0, score))
            .collect()
    }

    /// An upper bound on the clamped fused score of an item with these
    /// SIR' and SUR' (as the kernels returned them), whatever SUIR' turns
    /// out to be, given that SUIR' is at most `suir_max`. Fusion
    /// sanitizes a non-finite estimator away, so the bound treats one as
    /// absent. Eq. 14 as computed is non-decreasing in SUIR' (every
    /// rounded operation is monotone and its weight `δ ≥ 0`), so the
    /// score is at most the larger of `fuse(SIR', SUR', suir_max)` and,
    /// for a missing SUIR', `fuse(SIR', SUR', —)`, bit for bit. When the
    /// latter is undefined the item may be served by SUIR' alone or from
    /// a ladder rung, anywhere on the scale.
    fn score_bound(&self, sir: Option<f64>, sur: Option<f64>, suir_max: f64) -> f64 {
        let (sir, sur) = (sir.filter(|v| v.is_finite()), sur.filter(|v| v.is_finite()));
        let (lambda, delta) = (self.config.lambda, self.config.delta);
        let scale = self.matrix.scale();
        let Some(without) = fuse(sir, sur, None, lambda, delta) else {
            return scale.max;
        };
        match fuse(sir, sur, Some(suir_max), lambda, delta) {
            Some(with) if with.is_finite() => scale.clamp(with.max(without)),
            _ => scale.max,
        }
    }

    /// The largest SUIR' [`Self::suir_kernel`] can return with `k_used`
    /// neighbors: the planes' top rating plus a rounding margin. SUIR'
    /// is a quotient of two sums of at most `M·K` non-negatively
    /// weighted terms; each sum is within `n·u` of exact (`u` the unit
    /// roundoff, `n` the terms), so the quotient exceeds the top rating
    /// by at most about `2n·u` of the largest rating magnitude. The
    /// margin allows four times that, plus slack.
    fn suir_ceiling(&self, k_used: usize) -> f64 {
        let (lo, hi) = self.planes.rating_range();
        let terms = (self.config.m * k_used + 64) as f64;
        hi + 4.0 * terms * f64::EPSILON * lo.abs().max(hi.abs()).max(1.0)
    }

    /// The pre-fast-path online phase: per-cell loops over the dense
    /// matrix with `is_nan` tests and provenance-bit extraction on every
    /// kernel iteration.
    ///
    /// Kept as the ground truth for the kernel-equivalence property tests
    /// (the fast path must match it within the quantization tolerance
    /// `planes.step() + 1e-9`; availability, `m_used`, and degrade levels
    /// exactly). Shares [`Cfsf::top_k_users`] with the fast path so both
    /// paths predict from the identical local matrix.
    pub fn predict_with_breakdown_ref(
        &self,
        user: UserId,
        item: ItemId,
    ) -> Option<PredictionBreakdown> {
        if user.index() >= self.matrix.num_users() || item.index() >= self.matrix.num_items() {
            return None;
        }
        let eps = self.config.w;
        let dense = self.dense();

        let similar_items = self.gis.top_m(item, self.config.m);
        let top_users = self.top_k_users(user);

        // --- SIR': the active user's (smoothed) ratings on similar items.
        let row_b = dense.row(user);
        let mut sir_num = 0.0;
        let mut sir_den = 0.0;
        let mut m_used = 0usize;
        for &(i_s, sim_s) in similar_items {
            let r = row_b[i_s.index()];
            if r.is_nan() {
                continue;
            }
            let w = smoothing_weight(dense.is_original(user, i_s), eps);
            sir_num += w * sim_s * r;
            sir_den += w * sim_s;
            m_used += 1;
        }
        let sir = (sir_den > f64::EPSILON).then(|| sir_num / sir_den);

        // --- SUR': like-minded users' (smoothed) ratings on the active
        // item, mean-centered per user.
        let mean_b = self.matrix.user_mean(user);
        let mut sur_num = 0.0;
        let mut sur_den = 0.0;
        for &(u_t, sim_t) in top_users.iter() {
            let Some(r) = dense.get(u_t, item) else {
                continue;
            };
            let w = smoothing_weight(dense.is_original(u_t, item), eps);
            sur_num += w * sim_t * (r - self.matrix.user_mean(u_t));
            sur_den += w * sim_t;
        }
        let sur = (sur_den > f64::EPSILON).then(|| mean_b + sur_num / sur_den);

        // --- SUIR': like-minded users' (smoothed) ratings on similar
        // items, weighted by the Eq. 13 pair weight. This double loop *is*
        // the local M × K matrix — O(M·K) work per request.
        let mut suir_num = 0.0;
        let mut suir_den = 0.0;
        for &(u_t, sim_t) in top_users.iter() {
            let row_t = dense.row(u_t);
            for &(i_s, sim_s) in similar_items {
                let r = row_t[i_s.index()];
                if r.is_nan() {
                    continue;
                }
                let pw = pair_weight(sim_s, sim_t);
                if pw <= 0.0 {
                    continue;
                }
                let w = smoothing_weight(dense.is_original(u_t, i_s), eps);
                suir_num += w * pw * r;
                suir_den += w * pw;
            }
        }
        let suir = (suir_den > f64::EPSILON).then(|| suir_num / suir_den);

        let estimates = Estimates {
            sir,
            sur,
            suir,
            m_used,
        };
        Some(self.fuse_with_ladder(user, item, estimates, top_users.len()))
    }
}

/// The three Eq. 12 estimators of one item as the kernels returned them
/// (before sanitization), with the similar items SIR' used.
#[derive(Debug, Clone, Copy)]
struct Estimates {
    sir: Option<f64>,
    sur: Option<f64>,
    suir: Option<f64>,
    m_used: usize,
}

/// Counts one served prediction: one `online.predictions`, its
/// `online.degrade.*` rung, and what it was built from. `predict` and
/// every item top-N scores call it; an item top-N prunes never does.
fn record_served(b: &PredictionBreakdown) {
    b.level.record();
    cf_obs::counter!("online.predictions").inc();
    // `add(0)` still registers the metric, so a snapshot always carries
    // these names even for runs where the event never fires — absent
    // vs zero would be ambiguous to dashboards diffing runs.
    cf_obs::counter!("online.fallback").add(b.used_fallback as u64);
    cf_obs::counter!("online.estimator.sir").add(b.sir.is_some() as u64);
    cf_obs::counter!("online.estimator.sur").add(b.sur.is_some() as u64);
    cf_obs::counter!("online.estimator.suir").add(b.suir.is_some() as u64);
    cf_obs::histogram!("online.m_used").record(b.m_used as u64);
    cf_obs::histogram!("online.k_used").record(b.k_used as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CfsfConfig;
    use cf_data::SyntheticConfig;
    use cf_matrix::Predictor;

    fn model() -> Cfsf {
        let d = SyntheticConfig::small().generate();
        Cfsf::fit(&d.matrix, CfsfConfig::small()).unwrap()
    }

    #[test]
    fn top_k_respects_k_and_positivity() {
        let m = model();
        for u in 0..8usize {
            let top = m.top_k_users(UserId::from(u));
            assert!(top.len() <= m.config().k);
            assert!(top.windows(2).all(|w| w[0].1 >= w[1].1), "sorted desc");
            assert!(top.iter().all(|&(_, s)| s > 0.0));
            assert!(
                top.iter().all(|&(c, _)| c != UserId::from(u)),
                "self excluded"
            );
        }
    }

    #[test]
    fn top_k_cache_returns_same_list() {
        let m = model();
        let a = m.top_k_users(UserId::new(5));
        let b = m.top_k_users(UserId::new(5));
        assert!(Arc::ptr_eq(&a, &b), "second call should hit the cache");
    }

    #[test]
    fn breakdown_components_are_consistent_with_fusion() {
        let m = model();
        let mut checked = 0;
        for u in 0..20usize {
            for i in (0..120usize).step_by(11) {
                let Some(b) = m.predict_with_breakdown(UserId::from(u), ItemId::from(i)) else {
                    continue;
                };
                if b.used_fallback {
                    assert!(b.sir.is_none() && b.sur.is_none() && b.suir.is_none());
                } else {
                    let expect =
                        fuse(b.sir, b.sur, b.suir, m.config().lambda, m.config().delta).unwrap();
                    let clamped = m.matrix().scale().clamp(expect);
                    assert!((b.fused - clamped).abs() < 1e-12);
                    checked += 1;
                }
            }
        }
        assert!(checked > 20, "expected plenty of non-fallback predictions");
    }

    #[test]
    fn fast_path_matches_reference_path() {
        let m = model();
        let mut compared = 0;
        for u in 0..20usize {
            for i in (0..120usize).step_by(7) {
                let fast = m.predict_with_breakdown(UserId::from(u), ItemId::from(i));
                let refr = m.predict_with_breakdown_ref(UserId::from(u), ItemId::from(i));
                // Weights dequantize exactly; only the rating carries
                // quantization error (≤ step/2 per cell), and fusion is
                // convex — so step + 1e-9 bounds the fused divergence.
                let tol = m.plane_quant_step() + 1e-9;
                match (fast, refr) {
                    (Some(f), Some(r)) => {
                        assert!((f.fused - r.fused).abs() <= tol, "({u},{i})");
                        assert_eq!(f.m_used, r.m_used, "({u},{i})");
                        assert_eq!(f.used_fallback, r.used_fallback, "({u},{i})");
                        compared += 1;
                    }
                    (None, None) => {}
                    (f, r) => panic!("availability mismatch at ({u},{i}): {f:?} vs {r:?}"),
                }
            }
        }
        assert!(compared > 100);
    }

    #[test]
    fn m_and_k_used_respect_configuration() {
        let m = model();
        for u in 0..10usize {
            for i in 0..10usize {
                if let Some(b) = m.predict_with_breakdown(UserId::from(u), ItemId::from(i)) {
                    assert!(b.m_used <= m.config().m);
                    assert!(b.k_used <= m.config().k);
                }
            }
        }
    }

    #[test]
    fn out_of_range_ids_return_none() {
        let m = model();
        assert!(m.predict(UserId::new(10_000), ItemId::new(0)).is_none());
        assert!(m.predict(UserId::new(0), ItemId::new(10_000)).is_none());
    }

    #[test]
    fn every_in_range_request_is_served_from_some_rung() {
        let m = model();
        for u in 0..80usize {
            for i in (0..120usize).step_by(17) {
                let b = m
                    .predict_with_breakdown(UserId::from(u), ItemId::from(i))
                    .expect("in-range requests always land on a ladder rung");
                assert!(b.fused.is_finite());
                assert!((1.0..=5.0).contains(&b.fused), "({u},{i}) -> {}", b.fused);
            }
        }
    }

    #[test]
    fn reported_level_is_consistent_with_the_breakdown() {
        let m = model();
        for u in 0..30usize {
            for i in (0..120usize).step_by(7) {
                let Some(b) = m.predict_with_breakdown(UserId::from(u), ItemId::from(i)) else {
                    continue;
                };
                let available = [b.sir, b.sur, b.suir].iter().flatten().count();
                assert_eq!(b.used_fallback, b.level.is_fallback(), "({u},{i})");
                match b.level {
                    DegradeLevel::Full => assert_eq!(available, 3),
                    DegradeLevel::PartialFusion => assert_eq!(available, 2),
                    DegradeLevel::SingleEstimator => assert_eq!(available, 1),
                    _ => assert_eq!(available, 0, "({u},{i})"),
                }
            }
        }
    }

    #[test]
    fn ladder_without_smoothing_bottoms_out_at_means_not_none() {
        let d = SyntheticConfig::small().generate();
        let mut cfg = CfsfConfig::small();
        cfg.use_smoothing = false;
        let m = Cfsf::fit(&d.matrix, cfg).unwrap();
        for u in (0..80usize).step_by(5) {
            for i in (0..120usize).step_by(11) {
                let b = m
                    .predict_with_breakdown(UserId::from(u), ItemId::from(i))
                    .expect("ladder serves even without smoothing");
                assert!((1.0..=5.0).contains(&b.fused));
                assert_ne!(
                    b.level,
                    DegradeLevel::ClusterSmoothed,
                    "smoothing is off: the smoothed rung must be skipped"
                );
            }
        }
    }

    #[test]
    fn both_paths_report_the_same_level() {
        let m = model();
        for u in (0..40usize).step_by(3) {
            for i in (0..120usize).step_by(13) {
                let fast = m.predict_with_breakdown(UserId::from(u), ItemId::from(i));
                let refr = m.predict_with_breakdown_ref(UserId::from(u), ItemId::from(i));
                assert_eq!(fast.map(|b| b.level), refr.map(|b| b.level), "({u},{i})");
            }
        }
    }

    #[test]
    fn smoothing_fallback_always_produces_a_value_in_range() {
        let d = SyntheticConfig::small().generate();
        let m = Cfsf::fit(&d.matrix, CfsfConfig::small()).unwrap();
        // Every in-range pair must produce *some* prediction thanks to the
        // smoothed-matrix fallback.
        for u in (0..80usize).step_by(9) {
            for i in (0..120usize).step_by(13) {
                let r = m
                    .predict(UserId::from(u), ItemId::from(i))
                    .expect("smoothing guarantees a fallback");
                assert!((1.0..=5.0).contains(&r));
            }
        }
    }

    #[test]
    fn fused_prediction_is_convex_in_components() {
        // Eq. 14 is a convex combination, so (before clamping) the fused
        // value must lie within the envelope of the present components.
        let m = model();
        let mut seen = 0;
        for u in 0..30usize {
            for i in 0..40usize {
                let Some(b) = m.predict_with_breakdown(UserId::from(u), ItemId::from(i)) else {
                    continue;
                };
                if b.used_fallback {
                    continue;
                }
                let present: Vec<f64> = [b.sir, b.sur, b.suir].iter().flatten().copied().collect();
                let lo = present.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = present.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let unclamped =
                    fuse(b.sir, b.sur, b.suir, m.config().lambda, m.config().delta).unwrap();
                assert!(
                    unclamped >= lo - 1e-9 && unclamped <= hi + 1e-9,
                    "fused (unclamped) {unclamped} outside envelope [{lo}, {hi}]"
                );
                seen += 1;
            }
        }
        assert!(
            seen > 100,
            "too few non-fallback predictions sampled: {seen}"
        );
    }
}
