//! The fitted CFSF model: offline phase and `Predictor` implementation.

use cf_cluster::{ClusterAssignment, ICluster, KMeans, Smoothed, Smoother};
use cf_matrix::{DenseRatings, ItemId, Predictor, RatingMatrix, UserId, WeightPlanes};
use cf_similarity::Gis;

use crate::cache::NeighborCache;
use crate::{CfsfConfig, CfsfError};

/// Summary of what the offline phase built; useful for reports and tests.
#[derive(Debug, Clone, PartialEq)]
pub struct OfflineSummary {
    /// Number of user clusters actually formed (≤ the configured `C`).
    pub clusters: usize,
    /// K-means iterations run.
    pub kmeans_iterations: usize,
    /// Whether K-means converged within its cap.
    pub kmeans_converged: bool,
    /// Directed neighbor pairs stored in the GIS.
    pub gis_pairs: usize,
    /// Cells imputed from cluster deviations (Eq. 7 second branch).
    pub smoothed_cells: usize,
}

/// A fitted CFSF model.
///
/// Fitting runs the offline phase (GIS, K-means, smoothing, iCluster);
/// [`Cfsf::predict`] runs the `O(M·K)` online phase. The per-user top-`K`
/// like-minded-user selection is cached in one slot per user ("caching
/// intermediate results", §V-D), so predicting many items for one user —
/// the recommender workload — pays the selection cost once.
pub struct Cfsf {
    pub(crate) config: CfsfConfig,
    pub(crate) matrix: RatingMatrix,
    pub(crate) gis: Gis,
    pub(crate) clusters: ClusterAssignment,
    pub(crate) smoothed: Smoothed,
    pub(crate) icluster: ICluster,
    /// The raw sparse ratings densified, held only when `use_smoothing`
    /// is off; otherwise [`Self::dense`] is the smoothed store itself.
    pub(crate) raw_dense: Option<DenseRatings>,
    /// Quantized weight planes over [`Self::dense`] (ε and provenance
    /// folded into an exact weight LUT, ratings stored as 16-bit codes
    /// with presence and provenance in each cell) — what the serving
    /// fast path actually reads. Derived state: every fit, load and
    /// rebuild folds (or patches) them from the dense store.
    pub(crate) planes: WeightPlanes,
    /// Per-item GIS top-`M` lists flattened into structure-of-arrays
    /// strips at fit time for the online kernels.
    pub(crate) strips: crate::strips::ItemStrips,
    /// One cached neighbor selection slot per user of `matrix`.
    pub(crate) neighbor_cache: NeighborCache,
}

impl std::fmt::Debug for Cfsf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cfsf")
            .field("users", &self.matrix.num_users())
            .field("items", &self.matrix.num_items())
            .field("clusters", &self.clusters.k())
            .field("gis_pairs", &self.gis.stored_pairs())
            .field("cached_users", &self.neighbor_cache.len())
            .finish_non_exhaustive()
    }
}

impl Cfsf {
    /// Runs the offline phase on a training matrix.
    ///
    /// The matrix must contain the profiles of everyone predictions will
    /// be requested for — the paper "requires him or her to rate a certain
    /// number of items and then inserts a record in the item-user matrix"
    /// (§IV-A); the evaluation protocol's revealed Given-N rows play that
    /// role for test users.
    pub fn fit(matrix: &RatingMatrix, config: CfsfConfig) -> Result<Self, CfsfError> {
        config.validate()?;
        if matrix.num_ratings() == 0 {
            return Err(CfsfError::EmptyTrainingMatrix);
        }

        // Step 1: GIS (Eq. 5); step 2: K-means (Eq. 6). Smoothing and
        // iCluster (steps 3–4, Eq. 7–9) follow in `assemble`.
        let gis = Gis::build(matrix, &config.gis_config());
        let clusters = KMeans::fit(matrix, &config.kmeans_config());
        Ok(Self::assemble(config, matrix.clone(), gis, clusters))
    }

    /// Derives every serving structure from the offline inputs. Fit,
    /// load and full rebuilds end here (through [`Self::assemble_smoothed`],
    /// the one place a model value is written). Smoothing and iCluster
    /// (Eq. 7–9) run over `clusters` with `config.threads`; the dense
    /// store, the weight planes folded from it and the item strips
    /// follow from them.
    pub(crate) fn assemble(
        config: CfsfConfig,
        matrix: RatingMatrix,
        gis: Gis,
        clusters: ClusterAssignment,
    ) -> Self {
        let smoothed = Smoother::smooth(&matrix, &clusters, config.threads);
        let icluster = ICluster::build(&matrix, &smoothed, config.threads);
        Self::assemble_smoothed(
            config,
            matrix,
            gis,
            clusters,
            smoothed,
            icluster,
            WeightPlanes::from_dense,
        )
    }

    /// [`Self::assemble`] past smoothing and iCluster, for callers that
    /// already hold both (an online-only reparameterization, a partial
    /// rebuild). `planes` derives the weight planes from the dense store
    /// the model will serve from and the ε of `config.w`;
    /// [`WeightPlanes::from_dense`] folds them whole.
    pub(crate) fn assemble_smoothed(
        config: CfsfConfig,
        matrix: RatingMatrix,
        gis: Gis,
        clusters: ClusterAssignment,
        smoothed: Smoothed,
        icluster: ICluster,
        planes: impl FnOnce(&DenseRatings, f64) -> WeightPlanes,
    ) -> Self {
        let raw_dense = (!config.use_smoothing).then(|| DenseRatings::from_sparse(&matrix));
        let planes = planes(raw_dense.as_ref().unwrap_or(&smoothed.dense), config.w);
        let strips = crate::strips::ItemStrips::build(&gis, config.m);
        let neighbor_cache = NeighborCache::new(matrix.num_users());
        let model = Self {
            config,
            matrix,
            gis,
            clusters,
            smoothed,
            icluster,
            raw_dense,
            planes,
            strips,
            neighbor_cache,
        };
        model.publish_footprint();
        model
    }

    /// Dense ratings the online phase reads: the smoothed matrix, or the
    /// raw sparse ratings densified when `use_smoothing` is off. The
    /// reference kernels, `explain` and the degradation ladder all read
    /// through here.
    pub(crate) fn dense(&self) -> &DenseRatings {
        self.raw_dense.as_ref().unwrap_or(&self.smoothed.dense)
    }

    /// The configuration the model was fitted with.
    pub fn config(&self) -> &CfsfConfig {
        &self.config
    }

    /// The training matrix the model was fitted on.
    pub fn matrix(&self) -> &RatingMatrix {
        &self.matrix
    }

    /// The Global Item Similarity matrix.
    pub fn gis(&self) -> &Gis {
        &self.gis
    }

    /// The user cluster assignment.
    pub fn clusters(&self) -> &ClusterAssignment {
        &self.clusters
    }

    /// What the offline phase built.
    pub fn offline_summary(&self) -> OfflineSummary {
        OfflineSummary {
            clusters: self.clusters.k(),
            kmeans_iterations: self.clusters.iterations,
            kmeans_converged: self.clusters.converged,
            gis_pairs: self.gis.stored_pairs(),
            smoothed_cells: self.smoothed.cells_from_cluster,
        }
    }

    /// Drops every user's cached neighbor selection, so the next
    /// [`Self::top_k_users`] for each user selects afresh (benchmarks
    /// that measure cold-path latency clear before each call). A
    /// poisoned slot is reset on the way.
    pub fn clear_caches(&self) {
        self.neighbor_cache.clear();
    }

    /// The rating quantization granularity of the serving planes
    /// (`0.0` for constant/empty planes). Per-cell rating error is at
    /// most half this; the kernel-equivalence tests derive their
    /// tolerance from it.
    pub fn plane_quant_step(&self) -> f64 {
        self.planes.step()
    }

    /// Publishes the serving working-set sizes as gauges
    /// (`model.bytes.planes`, whose cells hold presence too, and
    /// `model.bytes.strips`) so `/stats.json` shows the footprint.
    /// Called whenever the online structures are (re)built.
    pub(crate) fn publish_footprint(&self) {
        cf_obs::gauge!("model.bytes.planes").set(self.planes.cell_bytes() as i64);
        cf_obs::gauge!("model.bytes.strips").set(self.strips.bytes() as i64);
    }

    /// Number of users with a cached neighbor selection, at most the
    /// model's user count.
    pub fn neighbor_cache_len(&self) -> usize {
        self.neighbor_cache.len()
    }

    /// Builds a new model with a modified configuration, reusing the
    /// offline structures whenever the change is online-only.
    ///
    /// `M`, `K`, `λ`, `δ`, `w`, `candidate_factor` and `use_smoothing`
    /// only affect the online phase, so sweeping them (Figs. 2, 3, 6, 7,
    /// 8 and the ablations) costs a clone instead of a refit. Changing
    /// `clusters`, the K-means budget/seed, or the GIS parameters falls
    /// back to a full [`Cfsf::fit`]. Note that a swept `M` larger than the
    /// GIS neighbor cap the model was *fitted* with will silently see
    /// shorter lists — fit with an adequate `gis.max_neighbors` first.
    pub fn reparameterize(&self, modify: impl FnOnce(&mut CfsfConfig)) -> Result<Self, CfsfError> {
        let mut config = self.config.clone();
        modify(&mut config);
        config.validate()?;

        let offline_changed = config.clusters != self.config.clusters
            || config.kmeans_iterations != self.config.kmeans_iterations
            || config.seed != self.config.seed
            || config.gis.threshold.to_bits() != self.config.gis.threshold.to_bits()
            || config.gis.max_neighbors != self.config.gis.max_neighbors;
        if offline_changed {
            return Self::fit(&self.matrix, config);
        }

        Ok(Self::assemble_smoothed(
            config,
            self.matrix.clone(),
            self.gis.clone(),
            self.clusters.clone(),
            self.smoothed.clone(),
            self.icluster.clone(),
            WeightPlanes::from_dense,
        ))
    }

    /// The best `n` items the user hasn't rated, as `(item, predicted
    /// rating)`, best first; ties break toward the lower item id. The
    /// answer is exactly the top `n` of [`Predictor::predict`] over every
    /// unrated item, bit for bit, but most items are ruled out by a cheap
    /// bound on their score before their `M × K` matrix is built (see
    /// [`recommend_top_n_in_range`](Self::recommend_top_n_in_range)).
    /// Empty for a user the model does not hold, or `n = 0`.
    pub fn recommend_top_n(&self, user: UserId, n: usize) -> Vec<(ItemId, f64)> {
        self.recommend_top_n_in_range(user, n, 0..u32::MAX)
    }

    /// [`recommend_top_n`](Self::recommend_top_n) restricted to the item
    /// stripe `items` (end clamped to the item count). This is the
    /// scatter-gather primitive for sharded serving: each shard serves
    /// one stripe, and merging the per-stripe results with
    /// [`crate::topk::top_k_by_score`] reproduces the single-process
    /// answer bit for bit — any global top-`n` item is necessarily in
    /// its own stripe's top-`n`.
    ///
    /// Two passes over the stripe. Pass 1 looks the user's neighbors up
    /// once and computes every unrated item's SIR' and SUR' (`M + K`
    /// cells) and from them an upper bound on its score: Eq. 14 gives
    /// SUIR' the weight `δ`, and SUIR' cannot leave the planes' rating
    /// range. Pass 2 finishes SUIR' and fusion item by item in order of
    /// descending bound, exactly as `predict` does, and stops once it
    /// holds `n` items and the next bound is below the `n`-th best score.
    /// `n` may come off the wire: it sizes nothing beyond the stripe's
    /// candidates.
    pub fn recommend_top_n_in_range(
        &self,
        user: UserId,
        n: usize,
        items: std::ops::Range<u32>,
    ) -> Vec<(ItemId, f64)> {
        if n == 0 || user.index() >= self.matrix.num_users() {
            return Vec::new();
        }
        let end = items.end.min(self.matrix.num_items() as u32);
        let start = items.start.min(end);
        self.top_n_in_stripe(user, n, start, end)
    }
}

impl Predictor for Cfsf {
    fn predict(&self, user: UserId, item: ItemId) -> Option<f64> {
        self.predict_with_breakdown(user, item).map(|b| b.fused)
    }

    fn name(&self) -> &'static str {
        "CFSF"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_data::SyntheticConfig;

    fn data() -> cf_data::Dataset {
        SyntheticConfig::small().generate()
    }

    #[test]
    fn fit_rejects_invalid_config() {
        let d = data();
        let e = Cfsf::fit(&d.matrix, CfsfConfig::small().with_lambda(7.0)).unwrap_err();
        assert!(matches!(
            e,
            CfsfError::InvalidParameter { name: "lambda", .. }
        ));
    }

    #[test]
    fn offline_summary_reflects_structures() {
        let d = data();
        let model = Cfsf::fit(&d.matrix, CfsfConfig::small()).unwrap();
        let s = model.offline_summary();
        assert_eq!(s.clusters, 4);
        assert!(s.kmeans_iterations >= 1);
        assert!(s.gis_pairs > 0);
        assert!(s.smoothed_cells > 0);
    }

    #[test]
    fn predictions_are_on_scale_for_every_user_item_pair_sampled() {
        let d = data();
        let model = Cfsf::fit(&d.matrix, CfsfConfig::small()).unwrap();
        for u in (0..d.matrix.num_users()).step_by(7) {
            for i in (0..d.matrix.num_items()).step_by(13) {
                if let Some(r) = model.predict(UserId::from(u), ItemId::from(i)) {
                    assert!((1.0..=5.0).contains(&r), "({u},{i}) -> {r}");
                }
            }
        }
    }

    #[test]
    fn deterministic_predictions() {
        let d = data();
        let a = Cfsf::fit(&d.matrix, CfsfConfig::small()).unwrap();
        let b = Cfsf::fit(&d.matrix, CfsfConfig::small()).unwrap();
        for u in (0..d.matrix.num_users()).step_by(11) {
            for i in (0..d.matrix.num_items()).step_by(17) {
                assert_eq!(
                    a.predict(UserId::from(u), ItemId::from(i)),
                    b.predict(UserId::from(u), ItemId::from(i))
                );
            }
        }
    }

    #[test]
    fn cache_does_not_change_results() {
        let d = data();
        let model = Cfsf::fit(&d.matrix, CfsfConfig::small()).unwrap();
        let u = UserId::new(3);
        let cold: Vec<Option<f64>> = (0..20)
            .map(|i| model.predict(u, ItemId::from(i as usize)))
            .collect();
        // second pass hits the per-user cache
        let warm: Vec<Option<f64>> = (0..20)
            .map(|i| model.predict(u, ItemId::from(i as usize)))
            .collect();
        assert_eq!(cold, warm);
        model.clear_caches();
        let recleared: Vec<Option<f64>> = (0..20)
            .map(|i| model.predict(u, ItemId::from(i as usize)))
            .collect();
        assert_eq!(cold, recleared);
    }

    #[test]
    fn recommend_top_n_excludes_rated_items_and_sorts() {
        let d = data();
        let model = Cfsf::fit(&d.matrix, CfsfConfig::small()).unwrap();
        let u = UserId::new(0);
        let recs = model.recommend_top_n(u, 10);
        assert!(!recs.is_empty());
        assert!(recs.len() <= 10);
        for &(i, r) in &recs {
            assert!(!d.matrix.is_rated(u, i), "{i:?} was already rated");
            assert!((1.0..=5.0).contains(&r));
        }
        assert!(recs.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn recommend_top_n_for_a_user_outside_the_model_is_empty() {
        let d = data();
        let model = Cfsf::fit(&d.matrix, CfsfConfig::small()).unwrap();
        for unknown in [UserId::from(d.matrix.num_users()), UserId::new(u32::MAX)] {
            assert!(model.predict(unknown, ItemId::new(0)).is_none());
            assert!(model.recommend_top_n(unknown, 10).is_empty());
            assert!(model
                .recommend_top_n_in_range(unknown, 10, 0..50)
                .is_empty());
        }
    }

    /// The scatter-gather identity sharded serving relies on: merging
    /// per-stripe `recommend_top_n_in_range` results with the same
    /// comparator reproduces the full recommend bit for bit, for any
    /// stripe count (including stripes that don't divide evenly). The
    /// full recommend is itself the best `n` of `predict` over every
    /// unrated item: pruning is exact.
    #[test]
    fn striped_recommend_merges_bit_for_bit() {
        let d = data();
        let model = Cfsf::fit(&d.matrix, CfsfConfig::small()).unwrap();
        let items = d.matrix.num_items() as u32;
        for (u, n) in [(0usize, 10), (3, 10), (17, 10), (17, 1)] {
            let user = UserId::from(u);
            let full = model.recommend_top_n(user, n);
            let every_item = crate::topk::top_k_by_score(
                n,
                (0..items)
                    .map(ItemId::new)
                    .filter(|&i| !d.matrix.is_rated(user, i))
                    .filter_map(|i| model.predict(user, i).map(|r| (i, r))),
            );
            assert_eq!(full.len(), every_item.len(), "user {u}, n {n}");
            for (a, b) in full.iter().zip(&every_item) {
                assert_eq!(
                    (a.0, a.1.to_bits()),
                    (b.0, b.1.to_bits()),
                    "user {u}, n {n}"
                );
            }
            for stripes in [1u32, 2, 3, 5] {
                let mut candidates = Vec::new();
                for s in 0..stripes {
                    let start = s * items / stripes;
                    let end = (s + 1) * items / stripes;
                    candidates.extend(model.recommend_top_n_in_range(user, n, start..end));
                }
                let merged = crate::topk::top_k_by_score(n, candidates);
                assert_eq!(full.len(), merged.len(), "stripes={stripes}");
                for (a, b) in full.iter().zip(&merged) {
                    assert_eq!(a.0, b.0, "stripes={stripes}");
                    assert_eq!(a.1.to_bits(), b.1.to_bits(), "stripes={stripes}");
                }
            }
        }
    }

    #[test]
    fn model_is_usable_across_threads() {
        let d = data();
        let model = Cfsf::fit(&d.matrix, CfsfConfig::small()).unwrap();
        let results = cf_parallel::par_map(16, 4, |i| {
            model.predict(UserId::from(i % 8), ItemId::from(i * 3))
        });
        let again = cf_parallel::par_map(16, 2, |i| {
            model.predict(UserId::from(i % 8), ItemId::from(i * 3))
        });
        assert_eq!(results, again);
    }

    #[test]
    fn reparameterize_online_only_matches_fresh_fit() {
        let d = data();
        let base = Cfsf::fit(&d.matrix, CfsfConfig::small()).unwrap();
        let swept = base.reparameterize(|c| c.lambda = 0.3).unwrap();
        let fresh = Cfsf::fit(&d.matrix, CfsfConfig::small().with_lambda(0.3)).unwrap();
        for u in (0..d.matrix.num_users()).step_by(9) {
            for i in (0..d.matrix.num_items()).step_by(15) {
                assert_eq!(
                    swept.predict(UserId::from(u), ItemId::from(i)),
                    fresh.predict(UserId::from(u), ItemId::from(i))
                );
            }
        }
    }

    #[test]
    fn reparameterize_offline_change_refits() {
        let d = data();
        let base = Cfsf::fit(&d.matrix, CfsfConfig::small()).unwrap();
        let refit = base.reparameterize(|c| c.clusters = 2).unwrap();
        assert_eq!(refit.offline_summary().clusters, 2);
        let fresh = Cfsf::fit(&d.matrix, CfsfConfig::small().with_clusters(2)).unwrap();
        for u in (0..d.matrix.num_users()).step_by(13) {
            assert_eq!(
                refit.predict(UserId::from(u), ItemId::new(3)),
                fresh.predict(UserId::from(u), ItemId::new(3))
            );
        }
    }

    #[test]
    fn reparameterize_rejects_invalid() {
        let d = data();
        let base = Cfsf::fit(&d.matrix, CfsfConfig::small()).unwrap();
        assert!(base.reparameterize(|c| c.lambda = 9.0).is_err());
    }

    #[test]
    fn ablation_without_smoothing_still_predicts() {
        let d = data();
        let mut cfg = CfsfConfig::small();
        cfg.use_smoothing = false;
        let model = Cfsf::fit(&d.matrix, cfg).unwrap();
        let mut produced = 0;
        for u in (0..d.matrix.num_users()).step_by(5) {
            for i in (0..d.matrix.num_items()).step_by(9) {
                if let Some(r) = model.predict(UserId::from(u), ItemId::from(i)) {
                    assert!((1.0..=5.0).contains(&r));
                    produced += 1;
                }
            }
        }
        assert!(produced > 0);
    }
}
