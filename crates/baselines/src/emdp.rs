//! EMDP — Effective Missing Data Prediction (Ma, King & Lyu, SIGIR 2007).
//!
//! EMDP combines user-based and item-based evidence with three devices:
//!
//! 1. **significance weighting** — similarities computed from few
//!    co-ratings are devalued by `min(n, γ)/γ`,
//! 2. **thresholded neighborhoods** — only users with weighted similarity
//!    above `η` and items above `θ` participate,
//! 3. **missing-data prediction** — before serving requests, every
//!    missing training cell that has enough evidence is filled in, and
//!    those predicted ratings participate in later predictions.
//!
//! Prediction for `(u, i)` is `λ · user_part + (1-λ) · item_part`, each
//! part a mean-anchored weighted deviation average. When only one side
//! has evidence, that side is used alone (exactly the case analysis of
//! the original paper).

use cf_matrix::{DenseRatings, DenseRow, ItemId, Predictor, RatingMatrix, UserId};
use cf_parallel::par_map;
use cf_similarity::{item_overlap, item_pcc, significance_weight, user_pcc};

use crate::common::{fallback_rating, in_range};

/// Configuration for [`Emdp`].
#[derive(Debug, Clone)]
pub struct EmdpConfig {
    /// Weight of the user-based part (`λ` in Ma et al.; default 0.7).
    pub lambda: f64,
    /// Significance cap for user-user similarities (γ).
    pub gamma_user: usize,
    /// Significance cap for item-item similarities (δ in Ma et al.).
    pub gamma_item: usize,
    /// User similarity threshold η.
    pub eta: f64,
    /// Item similarity threshold θ.
    pub theta: f64,
    /// Cap on stored user neighbors (tractability bound; the thresholds
    /// do the semantic filtering).
    pub max_user_neighbors: usize,
    /// Cap on stored item neighbors.
    pub max_item_neighbors: usize,
    /// Run the missing-data prediction pass before serving requests.
    pub smooth_missing: bool,
    /// Worker threads (`None` = auto).
    pub threads: Option<usize>,
}

impl Default for EmdpConfig {
    fn default() -> Self {
        Self {
            lambda: 0.7,
            gamma_user: 30,
            gamma_item: 25,
            eta: 0.25,
            theta: 0.25,
            max_user_neighbors: 40,
            max_item_neighbors: 40,
            smooth_missing: true,
            threads: None,
        }
    }
}

/// The EMDP baseline.
#[derive(Debug)]
pub struct Emdp {
    matrix: RatingMatrix,
    config: EmdpConfig,
    /// Thresholded, significance-weighted user neighbors, descending.
    user_neighbors: Vec<Vec<(UserId, f64)>>,
    /// Thresholded, significance-weighted item neighbors, descending.
    item_neighbors: Vec<Vec<(ItemId, f64)>>,
    /// Filled training matrix from the missing-data pass (if enabled).
    dense: Option<DenseRatings>,
}

impl Emdp {
    /// Builds both neighbor structures and (by default) runs the
    /// missing-data prediction pass.
    pub fn fit(matrix: &RatingMatrix, config: EmdpConfig) -> Self {
        let threads = cf_parallel::effective_threads(config.threads);
        let p = matrix.num_users();
        let q = matrix.num_items();

        let user_neighbors: Vec<Vec<(UserId, f64)>> = par_map(p, threads, |a| {
            let ua = UserId::from(a);
            if matrix.user_count(ua) == 0 {
                return Vec::new();
            }
            let mut list: Vec<(UserId, f64)> = (0..p)
                .filter(|&b| b != a)
                .filter_map(|b| {
                    let ub = UserId::from(b);
                    let raw = user_pcc(matrix, ua, ub);
                    if raw <= 0.0 {
                        return None;
                    }
                    let overlap = co_rated_users(matrix, ua, ub);
                    let s = significance_weight(overlap, config.gamma_user) * raw;
                    (s > config.eta).then_some((ub, s))
                })
                .collect();
            sort_desc(&mut list);
            list.truncate(config.max_user_neighbors);
            list
        });

        let item_neighbors: Vec<Vec<(ItemId, f64)>> = par_map(q, threads, |a| {
            let ia = ItemId::from(a);
            if matrix.item_count(ia) == 0 {
                return Vec::new();
            }
            let mut list: Vec<(ItemId, f64)> = (0..q)
                .filter(|&b| b != a)
                .filter_map(|b| {
                    let ib = ItemId::from(b);
                    let raw = item_pcc(matrix, ia, ib);
                    if raw <= 0.0 {
                        return None;
                    }
                    let s =
                        significance_weight(item_overlap(matrix, ia, ib), config.gamma_item) * raw;
                    (s > config.theta).then_some((ib, s))
                })
                .collect();
            sort_desc(&mut list);
            list.truncate(config.max_item_neighbors);
            list
        });

        let mut model = Self {
            matrix: matrix.clone(),
            config,
            user_neighbors,
            item_neighbors,
            dense: None,
        };
        if model.config.smooth_missing {
            model.dense = Some(model.predict_missing(threads));
        }
        model
    }

    /// Fits with defaults.
    pub fn fit_default(matrix: &RatingMatrix) -> Self {
        Self::fit(matrix, EmdpConfig::default())
    }

    /// The missing-data prediction pass: fills every absent training cell
    /// that has user or item evidence, leaving truly evidence-free cells
    /// absent (the original algorithm's behaviour).
    fn predict_missing(&self, threads: usize) -> DenseRatings {
        let m = &self.matrix;
        let q = m.num_items();
        let rows: Vec<Vec<f64>> = par_map(m.num_users(), threads, |ui| {
            let u = UserId::from(ui);
            let mut row = vec![f64::NAN; q];
            for (i, r) in m.user_ratings(u) {
                row[i.index()] = r;
            }
            // Snapshot of the user's *original* ratings: the pass must not
            // feed on predictions it just wrote into `row`.
            let orig_row = row.clone();
            // Accumulate the user part for all items at once by streaming
            // each neighbor's profile.
            let mut unum = vec![0.0f64; q];
            let mut uden = vec![0.0f64; q];
            for &(ua, s) in &self.user_neighbors[ui] {
                let mean_a = m.user_mean(ua);
                for (i, r) in m.user_ratings(ua) {
                    unum[i.index()] += s * (r - mean_a);
                    uden[i.index()] += s;
                }
            }
            let mean_u = m.user_mean(u);
            for i in 0..q {
                if !row[i].is_nan() {
                    continue;
                }
                let user_part = (uden[i] > f64::EPSILON).then(|| mean_u + unum[i] / uden[i]);
                // Item part from the user's own original ratings.
                let mut inum = 0.0;
                let mut iden = 0.0;
                for &(ik, s) in &self.item_neighbors[i] {
                    let r = orig_row[ik.index()];
                    if !r.is_nan() {
                        inum += s * (r - m.item_mean(ik));
                        iden += s;
                    }
                }
                let item_part =
                    (iden > f64::EPSILON).then(|| m.item_mean(ItemId::from(i)) + inum / iden);
                let l = self.config.lambda;
                let v = match (user_part, item_part) {
                    (Some(a), Some(b)) => Some(l * a + (1.0 - l) * b),
                    (Some(a), None) => Some(a),
                    (None, Some(b)) => Some(b),
                    (None, None) => None,
                };
                if let Some(v) = v {
                    row[i] = m.scale().clamp(v);
                }
            }
            row
        });

        DenseRatings::from_rows(
            q,
            rows.into_iter().enumerate().map(|(ui, values)| {
                let u = UserId::from(ui);
                let mut row = DenseRow::absent(q);
                for (i, v) in values.into_iter().enumerate() {
                    if v.is_nan() {
                        continue;
                    }
                    let item = ItemId::from(i);
                    if m.is_rated(u, item) {
                        row.set_original(item, v);
                    } else {
                        row.set_smoothed(item, v);
                    }
                }
                row
            }),
        )
    }

    /// Rating of `(u, i)` visible to the predictor: original, else the
    /// missing-data prediction (when the pass ran).
    fn visible(&self, u: UserId, i: ItemId) -> Option<f64> {
        match &self.dense {
            Some(d) => d.get(u, i),
            None => self.matrix.get(u, i),
        }
    }
}

fn co_rated_users(m: &RatingMatrix, a: UserId, b: UserId) -> usize {
    let (ia, _) = m.user_row(a);
    let (ib, _) = m.user_row(b);
    let (mut x, mut y) = (0usize, 0usize);
    let mut n = 0usize;
    while x < ia.len() && y < ib.len() {
        match ia[x].cmp(&ib[y]) {
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

fn sort_desc<T: Ord + Copy>(list: &mut [(T, f64)]) {
    list.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("similarities are finite")
            .then(a.0.cmp(&b.0))
    });
}

impl Predictor for Emdp {
    fn predict(&self, user: UserId, item: ItemId) -> Option<f64> {
        if !in_range(&self.matrix, user, item) {
            return None;
        }
        let m = &self.matrix;
        let l = self.config.lambda;

        let mut unum = 0.0;
        let mut uden = 0.0;
        for &(ua, s) in &self.user_neighbors[user.index()] {
            if let Some(r) = self.visible(ua, item) {
                unum += s * (r - m.user_mean(ua));
                uden += s;
            }
        }
        let user_part = (uden > f64::EPSILON).then(|| m.user_mean(user) + unum / uden);

        let mut inum = 0.0;
        let mut iden = 0.0;
        for &(ik, s) in &self.item_neighbors[item.index()] {
            if let Some(r) = self.visible(user, ik) {
                inum += s * (r - m.item_mean(ik));
                iden += s;
            }
        }
        let item_part = (iden > f64::EPSILON).then(|| m.item_mean(item) + inum / iden);

        let raw = match (user_part, item_part) {
            (Some(a), Some(b)) => l * a + (1.0 - l) * b,
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => fallback_rating(m, user, item),
        };
        Some(m.scale().clamp(raw))
    }

    fn name(&self) -> &'static str {
        "EMDP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_data::SyntheticConfig;

    fn small() -> RatingMatrix {
        SyntheticConfig::small().generate().matrix
    }

    #[test]
    fn neighbors_respect_thresholds_and_caps() {
        let m = small();
        let e = Emdp::fit_default(&m);
        for list in &e.user_neighbors {
            assert!(list.len() <= e.config.max_user_neighbors);
            assert!(list.iter().all(|&(_, s)| s > e.config.eta));
            assert!(list.windows(2).all(|w| w[0].1 >= w[1].1));
        }
        for list in &e.item_neighbors {
            assert!(list.len() <= e.config.max_item_neighbors);
            assert!(list.iter().all(|&(_, s)| s > e.config.theta));
        }
    }

    #[test]
    fn significance_weighting_devalues_thin_overlap() {
        let m = small();
        // any stored similarity must be ≤ its raw PCC (weight ≤ 1)
        let e = Emdp::fit_default(&m);
        for (a, list) in e.user_neighbors.iter().enumerate() {
            for &(b, s) in list.iter().take(3) {
                let raw = user_pcc(&m, UserId::from(a), b);
                assert!(s <= raw + 1e-12, "weighted {s} > raw {raw}");
            }
        }
    }

    #[test]
    fn smoothing_pass_fills_cells_with_evidence() {
        let m = small();
        let e = Emdp::fit_default(&m);
        let d = e.dense.as_ref().unwrap();
        assert!(d.filled_cells() > m.num_ratings(), "pass filled nothing");
        // originals survive identically
        for (u, i, r) in m.triplets().take(100) {
            assert_eq!(d.get(u, i), Some(r));
            assert!(d.is_original(u, i));
        }
    }

    #[test]
    fn predictions_in_range_with_and_without_smoothing() {
        let m = small();
        let with = Emdp::fit_default(&m);
        let without = Emdp::fit(
            &m,
            EmdpConfig {
                smooth_missing: false,
                ..Default::default()
            },
        );
        for u in (0..m.num_users()).step_by(13) {
            for i in (0..m.num_items()).step_by(19) {
                for model in [&with, &without] {
                    let r = model.predict(UserId::from(u), ItemId::from(i)).unwrap();
                    assert!((1.0..=5.0).contains(&r));
                }
            }
        }
    }

    #[test]
    fn out_of_range_returns_none() {
        let m = small();
        let e = Emdp::fit(
            &m,
            EmdpConfig {
                smooth_missing: false,
                ..Default::default()
            },
        );
        assert!(e.predict(UserId::new(60_000), ItemId::new(0)).is_none());
    }
}
