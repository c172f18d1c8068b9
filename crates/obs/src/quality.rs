//! Rolling online prediction-quality and serving-health gauges.
//!
//! Aggregate counters tell us *what* the server did; this module derives
//! drift-visible gauges from them so the `/metrics` endpoint shows, on
//! one scrape, whether prediction quality or serving health is moving:
//!
//! - [`observe_prediction_error`] — the live-rating ingestion path calls
//!   this when a ground-truth rating arrives for a (user, item) the model
//!   could already predict. A bounded window of recent absolute errors
//!   maintains a **windowed online MAE** gauge
//!   (`online.quality.window_mae_milli`, milli-rating-units so the
//!   integer gauge keeps 3 decimals).
//! - [`refresh_derived_gauges`] — folds the global counters into rate
//!   gauges: neighbor-cache hit ratio, degradation fallback rate and
//!   per-rung serve rates, all per-mille. Called by the telemetry server
//!   before each scrape and by the CLI before `--stats` output, so the
//!   gauges are always coherent with the counters next to them.

use std::collections::VecDeque;
use std::sync::OnceLock;

use crate::sync::RecoverMutex;

/// Number of recent observations the MAE window holds.
pub const WINDOW: usize = 256;

fn window() -> &'static RecoverMutex<VecDeque<f64>> {
    static W: OnceLock<RecoverMutex<VecDeque<f64>>> = OnceLock::new();
    W.get_or_init(|| RecoverMutex::new(VecDeque::with_capacity(WINDOW)))
}

/// Feeds one |prediction − observed rating| into the rolling window and
/// refreshes the `online.quality.window_mae_milli` gauge. Non-finite
/// errors are counted (`online.quality.rejected`) but excluded from the
/// window.
pub fn observe_prediction_error(abs_err: f64) {
    if !crate::enabled() {
        return;
    }
    if !abs_err.is_finite() {
        crate::counter!("online.quality.rejected").inc();
        return;
    }
    crate::counter!("online.quality.observed").inc();
    let mae = {
        let mut w = window().lock();
        if w.len() >= WINDOW {
            w.pop_front();
        }
        w.push_back(abs_err.abs());
        w.iter().sum::<f64>() / w.len() as f64
    };
    crate::gauge!("online.quality.window_mae_milli").set((mae * 1000.0).round() as i64);
}

/// Observations currently in the MAE window (tests / diagnostics).
pub fn window_len() -> usize {
    window().lock().len()
}

/// Mean absolute error over the current window, or `None` while the
/// window is empty. The drift detector in `cfsf-core::refresh` compares
/// this against the baseline MAE captured when the serving generation
/// was published.
pub fn window_mae() -> Option<f64> {
    let w = window().lock();
    if w.is_empty() {
        return None;
    }
    Some(w.iter().sum::<f64>() / w.len() as f64)
}

/// Empties the MAE window (tests).
pub fn clear_window() {
    window().lock().clear();
}

fn per_mille(part: u64, whole: u64) -> i64 {
    if whole == 0 {
        0
    } else {
        ((part as f64 / whole as f64) * 1000.0).round() as i64
    }
}

/// The degradation-ladder rungs, best first (counter names are
/// `online.degrade.<rung>`).
pub const RUNGS: [&str; 6] = [
    "full",
    "partial_fusion",
    "single_estimator",
    "cluster_smoothed",
    "user_mean",
    "global_mean",
];
/// The rungs counted as the ladder's fallback region.
pub const FALLBACK_RUNGS: [&str; 3] = ["cluster_smoothed", "user_mean", "global_mean"];

/// The derived gauge values implied by `snap`'s counters, as
/// `(name, per-mille value)` pairs — pure, so one counter pass can feed
/// both the registry and the scrape being rendered.
fn derived_from(snap: &crate::Snapshot) -> Vec<(String, i64)> {
    let c = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let mut out = Vec::with_capacity(2 + RUNGS.len());

    let hits = c("online.neighbor_cache.hit");
    let misses = c("online.neighbor_cache.miss");
    out.push((
        "online.cache.hit_ratio_pm".to_string(),
        per_mille(hits, hits + misses),
    ));

    let total: u64 = RUNGS
        .iter()
        .map(|r| c(&format!("online.degrade.{r}")))
        .sum();
    let fallback: u64 = FALLBACK_RUNGS
        .iter()
        .map(|r| c(&format!("online.degrade.{r}")))
        .sum();
    out.push((
        "online.degrade.fallback_pm".to_string(),
        per_mille(fallback, total),
    ));
    for rung in RUNGS {
        out.push((
            format!("online.degrade.rate_pm.{rung}"),
            per_mille(c(&format!("online.degrade.{rung}")), total),
        ));
    }
    out
}

/// Computes the derived gauges from `snap`'s own counters and writes them
/// both into the global registry (so other readers stay fresh) and into
/// `snap.gauges` itself. Because the gauge values come from exactly the
/// counters in `snap`, a scrape rendered from it can never show a gauge
/// computed from a newer counter than the one printed next to it.
pub fn apply_derived_gauges(snap: &mut crate::Snapshot) {
    if !crate::enabled() {
        return;
    }
    for (name, v) in derived_from(snap) {
        crate::global().gauge(&name).set(v);
        snap.gauges.insert(name, v);
    }
}

/// One coherent scrape payload: a single counter pass with the derived
/// gauges recomputed from exactly those counters. The telemetry server
/// renders `/metrics` and `/stats.json` from this.
pub fn coherent_snapshot() -> crate::Snapshot {
    let mut snap = crate::global().snapshot();
    apply_derived_gauges(&mut snap);
    snap
}

/// Recomputes the derived health gauges from the global registry's
/// counters:
///
/// - `online.cache.hit_ratio_pm` — neighbor-cache hits per mille of
///   lookups,
/// - `online.degrade.fallback_pm` — requests served from the ladder's
///   fallback region per mille of predictions,
/// - `online.degrade.rate_pm.<rung>` — per-rung serve rates.
pub fn refresh_derived_gauges() {
    let mut snap = crate::global().snapshot();
    apply_derived_gauges(&mut snap);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_mae_tracks_recent_errors_and_stays_bounded() {
        clear_window();
        observe_prediction_error(1.0);
        observe_prediction_error(0.5);
        let g = crate::global().gauge("online.quality.window_mae_milli");
        assert_eq!(g.get(), 750, "MAE of [1.0, 0.5] is 0.75 → 750 milli");

        for _ in 0..(WINDOW * 2) {
            observe_prediction_error(0.2);
        }
        assert_eq!(window_len(), WINDOW, "window must stay bounded");
        assert_eq!(g.get(), 200, "old errors must have rolled out");
        clear_window();
    }

    #[test]
    fn non_finite_errors_are_rejected() {
        clear_window();
        let before = window_len();
        observe_prediction_error(f64::NAN);
        observe_prediction_error(f64::INFINITY);
        assert_eq!(window_len(), before);
        assert!(crate::counter!("online.quality.rejected").get() >= 2);
        clear_window();
    }

    #[test]
    fn coherent_snapshot_gauges_match_its_own_counters() {
        crate::counter!("online.degrade.full").add(5);
        crate::counter!("online.degrade.user_mean").add(2);
        let snap = coherent_snapshot();
        let c = |n: &str| snap.counters.get(n).copied().unwrap_or(0);
        let total: u64 = RUNGS
            .iter()
            .map(|r| c(&format!("online.degrade.{r}")))
            .sum();
        let fallback: u64 = FALLBACK_RUNGS
            .iter()
            .map(|r| c(&format!("online.degrade.{r}")))
            .sum();
        assert_eq!(
            snap.gauges["online.degrade.fallback_pm"],
            per_mille(fallback, total),
            "gauge must be derived from this snapshot's own counters"
        );
        assert_eq!(
            snap.gauges["online.degrade.rate_pm.full"],
            per_mille(c("online.degrade.full"), total)
        );
    }

    #[test]
    fn derived_gauges_compute_per_mille_rates() {
        // Shared global registry: add known deltas, then assert the gauge
        // values are consistent with the *current* counter totals (other
        // tests in this binary may also bump them).
        crate::counter!("online.neighbor_cache.hit").add(9);
        crate::counter!("online.neighbor_cache.miss").add(1);
        crate::counter!("online.degrade.full").add(3);
        crate::counter!("online.degrade.global_mean").add(1);
        refresh_derived_gauges();

        let snap = crate::global().snapshot();
        let hits = snap.counters["online.neighbor_cache.hit"];
        let misses = snap.counters["online.neighbor_cache.miss"];
        assert_eq!(
            snap.gauges["online.cache.hit_ratio_pm"],
            per_mille(hits, hits + misses)
        );
        assert!(snap.gauges["online.degrade.fallback_pm"] > 0);
        assert!(snap.gauges["online.degrade.rate_pm.full"] > 0);
        let covered = snap.gauges["online.degrade.rate_pm.partial_fusion"]
            + snap.gauges["online.degrade.rate_pm.full"]
            + snap.gauges["online.degrade.rate_pm.single_estimator"]
            + snap.gauges["online.degrade.fallback_pm"];
        assert!(
            (covered - 1000).abs() <= 3,
            "rung rates plus fallback must cover all predictions (±rounding): {covered}"
        );
    }
}
