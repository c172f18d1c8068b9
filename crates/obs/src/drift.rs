//! Rating-distribution drift sensors for the self-healing refresh loop.
//!
//! The refresh policy in `cfsf-core::refresh` needs to know whether the
//! *incoming* rating stream still looks like the distribution the model
//! was fitted on. This module keeps a bounded window of the most recent
//! ingested ratings bucketed into a fixed histogram, a baseline histogram
//! captured from the training matrix at (re)fit time, and derives three
//! gauges every caller of [`record_rating`] keeps fresh:
//!
//! - `drift.hist_distance_pm` — total-variation distance (per mille)
//!   between the ingest-window histogram and the baseline;
//! - `drift.ingest.mean_milli` / `drift.ingest.stddev_milli` — first two
//!   moments of the window, milli-rating-units;
//!
//! A baseline is the bucket counts of the training ratings
//! ([`BucketCounts`]). Counts add, so a caller that knows which ratings
//! a new generation merged can extend the serving generation's counts
//! and install them ([`set_baseline_counts`]) instead of re-bucketing
//! the whole matrix.
//!
//! The policy half (hysteresis, trip/clear thresholds, the rebuild
//! trigger) lives with the model in `cfsf-core::refresh`; this module is
//! deliberately just the sensor so `/stats.json` shows the raw signals
//! even when no refresh loop is attached.

use std::collections::VecDeque;
use std::sync::OnceLock;

use crate::sync::RecoverMutex;

/// Histogram buckets the rating scale is cut into. Eight is enough to
/// tell "everyone suddenly rates 1" from "everyone rates 5" on any scale
/// while keeping the distance numerically stable on small windows.
pub const BUCKETS: usize = 8;

/// Ratings the ingest window holds before the oldest rolls out.
pub const WINDOW: usize = 512;

struct DriftWindow {
    /// Recent ratings' bucket indices, oldest first.
    recent: VecDeque<(u8, f64)>,
    /// Per-bucket counts over `recent` (kept incrementally).
    counts: [u64; BUCKETS],
    /// Baseline per-bucket probabilities from the training matrix.
    baseline: Option<[f64; BUCKETS]>,
    /// Scale the bucketing maps onto (min, max).
    scale: (f64, f64),
}

fn state() -> &'static RecoverMutex<DriftWindow> {
    static S: OnceLock<RecoverMutex<DriftWindow>> = OnceLock::new();
    S.get_or_init(|| {
        RecoverMutex::new(DriftWindow {
            recent: VecDeque::with_capacity(WINDOW),
            counts: [0; BUCKETS],
            baseline: None,
            scale: (1.0, 5.0),
        })
    })
}

fn bucket_of(rating: f64, min: f64, max: f64) -> usize {
    let span = (max - min).max(f64::MIN_POSITIVE);
    let t = ((rating - min) / span).clamp(0.0, 1.0);
    ((t * BUCKETS as f64) as usize).min(BUCKETS - 1)
}

/// Per-bucket counts of a rating sample on one scale: what a baseline
/// is made of. Non-finite ratings are not counted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketCounts {
    counts: [u64; BUCKETS],
    scale: (f64, f64),
}

impl BucketCounts {
    /// No ratings yet, on the scale `[scale_min, scale_max]`.
    pub fn new(scale_min: f64, scale_max: f64) -> Self {
        Self {
            counts: [0; BUCKETS],
            scale: (scale_min, scale_max),
        }
    }

    /// Counts `ratings` in.
    pub fn add(&mut self, ratings: impl IntoIterator<Item = f64>) {
        let (min, max) = self.scale;
        for r in ratings {
            if r.is_finite() {
                self.counts[bucket_of(r, min, max)] += 1;
            }
        }
    }

    /// The ratings counted so far.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// Installs the baseline distribution the ingest stream is compared
/// against, from an iterator over the *training* ratings, and remembers
/// the scale used for bucketing. Called by the refresh loop whenever a
/// new generation is published (the freshly merged matrix becomes the
/// new normal). Resets the ingest window: drift is measured against the
/// generation currently serving.
pub fn set_baseline(ratings: impl IntoIterator<Item = f64>, scale_min: f64, scale_max: f64) {
    let mut counts = BucketCounts::new(scale_min, scale_max);
    counts.add(ratings);
    set_baseline_counts(&counts);
}

/// [`set_baseline`] from ratings already counted: the same baseline as
/// `set_baseline` over every rating `counts` holds.
pub fn set_baseline_counts(counts: &BucketCounts) {
    let total = counts.total();
    let mut s = state().lock();
    s.scale = counts.scale;
    s.baseline = (total > 0).then(|| {
        let mut p = [0.0; BUCKETS];
        for (b, &c) in p.iter_mut().zip(&counts.counts) {
            *b = c as f64 / total as f64;
        }
        p
    });
    s.recent.clear();
    s.counts = [0; BUCKETS];
    drop(s);
    publish_gauges();
}

/// Feeds one freshly ingested rating into the drift window and refreshes
/// the `drift.*` gauges. Non-finite ratings are ignored (the ingest path
/// validates before calling, so this is belt and braces).
pub fn record_rating(rating: f64) {
    if !crate::enabled() || !rating.is_finite() {
        return;
    }
    {
        let mut s = state().lock();
        let b = bucket_of(rating, s.scale.0, s.scale.1) as u8;
        if s.recent.len() >= WINDOW {
            if let Some((old, _)) = s.recent.pop_front() {
                s.counts[old as usize] = s.counts[old as usize].saturating_sub(1);
            }
        }
        s.recent.push_back((b, rating));
        s.counts[b as usize] += 1;
    }
    publish_gauges();
}

/// Total-variation distance (½ · L1), per mille, between the ingest
/// window and the baseline. `None` until both a baseline and at least
/// one ingested rating exist — the policy layer treats "no signal yet"
/// differently from "distance zero".
pub fn hist_distance_pm() -> Option<i64> {
    let s = state().lock();
    let baseline = s.baseline?;
    let total: u64 = s.counts.iter().sum();
    if total == 0 {
        return None;
    }
    let mut l1 = 0.0;
    for (c, b) in s.counts.iter().zip(&baseline) {
        l1 += (*c as f64 / total as f64 - b).abs();
    }
    Some(((l1 / 2.0) * 1000.0).round() as i64)
}

/// Mean and standard deviation of the ratings currently in the window;
/// `None` while the window is empty.
pub fn window_moments() -> Option<(f64, f64)> {
    let s = state().lock();
    if s.recent.is_empty() {
        return None;
    }
    let n = s.recent.len() as f64;
    let mean = s.recent.iter().map(|&(_, r)| r).sum::<f64>() / n;
    let var = s
        .recent
        .iter()
        .map(|&(_, r)| (r - mean).powi(2))
        .sum::<f64>()
        / n;
    Some((mean, var.sqrt()))
}

/// The installed baseline's per-bucket probabilities, if any (tests /
/// diagnostics).
pub fn baseline() -> Option<[f64; BUCKETS]> {
    state().lock().baseline
}

/// Ratings currently in the ingest window (tests / diagnostics).
pub fn window_len() -> usize {
    state().lock().recent.len()
}

/// Drops the window and the baseline (tests).
pub fn clear() {
    let mut s = state().lock();
    s.recent.clear();
    s.counts = [0; BUCKETS];
    s.baseline = None;
}

fn publish_gauges() {
    if let Some(d) = hist_distance_pm() {
        crate::gauge!("drift.hist_distance_pm").set(d);
    }
    if let Some((mean, stddev)) = window_moments() {
        crate::gauge!("drift.ingest.mean_milli").set((mean * 1000.0).round() as i64);
        crate::gauge!("drift.ingest.stddev_milli").set((stddev * 1000.0).round() as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The drift window is process-global; serialize the tests touching
    /// it so parallel test threads cannot interleave.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: crate::sync::RecoverMutex<()> = crate::sync::RecoverMutex::new(());
        LOCK.lock()
    }

    #[test]
    fn identical_distributions_measure_zero_distance() {
        let _serial = serial();
        clear();
        set_baseline((0..100).map(|i| 1.0 + f64::from(i % 5)), 1.0, 5.0);
        for i in 0..100 {
            record_rating(1.0 + f64::from(i % 5));
        }
        assert_eq!(hist_distance_pm(), Some(0));
        clear();
    }

    #[test]
    fn shifted_distribution_is_visible_and_window_stays_bounded() {
        let _serial = serial();
        clear();
        // Baseline: everyone rates mid-scale. Stream: everyone rates max.
        set_baseline(std::iter::repeat_n(3.0, 64), 1.0, 5.0);
        for _ in 0..(WINDOW * 2) {
            record_rating(5.0);
        }
        assert_eq!(window_len(), WINDOW);
        // Disjoint buckets: total-variation distance is the full 1000 pm.
        assert_eq!(hist_distance_pm(), Some(1000));
        let (mean, stddev) = window_moments().unwrap();
        assert!((mean - 5.0).abs() < 1e-12);
        assert!(stddev < 1e-12);
        clear();
    }

    #[test]
    fn no_signal_before_baseline_or_data() {
        let _serial = serial();
        clear();
        assert_eq!(hist_distance_pm(), None);
        record_rating(4.0); // no baseline installed → still no distance
        assert_eq!(hist_distance_pm(), None);
        clear();
        set_baseline([3.0, 4.0], 1.0, 5.0);
        assert_eq!(hist_distance_pm(), None, "baseline alone is no signal");
        clear();
    }

    /// Counts extended rating by rating install the baseline of the whole
    /// sample, bit for bit.
    #[test]
    fn added_counts_install_the_baseline_of_the_whole_sample() {
        let _serial = serial();
        clear();
        let ratings: Vec<f64> = (0..97).map(|i| 1.0 + f64::from(i % 9) * 0.5).collect();
        set_baseline(ratings.iter().copied(), 1.0, 5.0);
        let whole = baseline().unwrap();
        let mut counts = BucketCounts::new(1.0, 5.0);
        for chunk in ratings.chunks(10) {
            counts.add(chunk.iter().copied());
        }
        counts.add([f64::NAN]);
        assert_eq!(counts.total(), 97);
        clear();
        set_baseline_counts(&counts);
        let bits = |p: [f64; BUCKETS]| p.map(f64::to_bits);
        assert_eq!(bits(baseline().unwrap()), bits(whole));
        clear();
    }

    #[test]
    fn new_baseline_resets_the_window() {
        let _serial = serial();
        clear();
        set_baseline([3.0; 8], 1.0, 5.0);
        for _ in 0..10 {
            record_rating(5.0);
        }
        assert_eq!(window_len(), 10);
        set_baseline([5.0; 8], 1.0, 5.0);
        assert_eq!(window_len(), 0, "a published generation resets drift");
        clear();
    }
}
