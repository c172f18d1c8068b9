//! # cf-obs — runtime observability for the CFSF system
//!
//! The ROADMAP north-star is a production-scale serving system, and
//! memory-based CF lives or dies by hot-path cost per request — yet the
//! seed had no runtime visibility at all. This crate is the metrics and
//! tracing substrate the rest of the workspace instruments itself with:
//!
//! - [`Counter`] / [`Gauge`] — single atomics, relaxed ordering,
//! - [`Histogram`] — log-bucketed (8 sub-buckets per octave, ≤ 12.5%
//!   relative error) with lock-free recording and p50/p95/p99 snapshots,
//! - [`SpanTimer`] — RAII guard feeding a named latency histogram,
//! - [`Registry`] — process-global, name-keyed; handles are `Arc`s so the
//!   hot path never touches the registry lock (see the [`counter!`],
//!   [`gauge!`], [`histogram!`] macros, which cache the handle in a
//!   per-call-site `OnceLock`),
//! - JSON serialization of a full snapshot ([`Snapshot::to_json`]) plus a
//!   `results/`-compatible file writer ([`write_snapshot_file`]) so perf
//!   trajectories can be tracked across PRs.
//!
//! Everything is `std`-only and safe code. Instrumentation cost when
//! metrics are *disabled* ([`set_enabled`]) is one relaxed atomic load
//! and a branch per record call.
//! `crates/bench/benches/obs_overhead.rs` demonstrates the
//! enabled-vs-disabled delta on the online path stays within a few
//! percent.
//!
//! ## Reading a snapshot
//!
//! ```
//! cf_obs::counter!("demo.requests").inc();
//! cf_obs::histogram!("demo.latency_ns").record(1_250);
//! let snap = cf_obs::global().snapshot();
//! assert_eq!(snap.counters["demo.requests"], 1);
//! let json = snap.to_json();
//! assert!(json.contains("\"demo.latency_ns\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Serving-path crate: a request degrades, it never panics (the policy
// is in clippy.toml). Locks recover from poisoning and unwind catches
// check their captures (`disallowed_types`).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::disallowed_types
)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::sync::RecoverMutex;
use std::time::{Duration, Instant};

pub mod drift;
pub mod json;
pub mod merge;
pub mod net;
pub mod prom;
pub mod quality;
pub mod reservoir;
pub mod serve;
pub mod slo;
pub mod sync;
pub mod trace;

// --------------------------------------------------------------------------
// Global enable switch
// --------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Turns all metric recording on or off process-wide. Handles stay valid;
/// a disabled record call is one relaxed load plus a branch.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether metric recording is currently enabled.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The current time while recording is enabled, `None` otherwise: a
/// disabled timer or trace never reads the clock. The hot-path modules
/// (`cfsf_core`'s `online.rs` and `cache.rs`, this crate's `trace.rs`)
/// deny `Instant::now` and start their clocks here, so every later
/// `elapsed()` works on this `Option`.
#[inline]
pub fn now_if_enabled() -> Option<Instant> {
    enabled().then(Instant::now)
}

// --------------------------------------------------------------------------
// Counter / Gauge
// --------------------------------------------------------------------------

/// A monotone event counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A fresh zeroed counter (registry-independent use is fine).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last-value-wins instantaneous measurement (stored as `i64`).
#[derive(Debug, Default)]
pub struct Gauge {
    /// Bit-stored i64.
    value: AtomicU64,
}

impl Gauge {
    /// A fresh zeroed gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        if enabled() {
            self.value.store(v as u64, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed) as i64
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

// --------------------------------------------------------------------------
// Histogram
// --------------------------------------------------------------------------

/// Sub-buckets per octave: 3 bits → relative quantile error ≤ 1/8.
const SUB_BITS: u32 = 3;
const SUB: u64 = 1 << SUB_BITS;
/// Values below `2^(SUB_BITS + 1)` get exact unit buckets.
const LINEAR_LIMIT: u64 = SUB * 2;
const NUM_BUCKETS: usize = (LINEAR_LIMIT + (64 - SUB_BITS - 1) as u64 * SUB) as usize;

fn bucket_index(v: u64) -> usize {
    if v < LINEAR_LIMIT {
        return v as usize;
    }
    // v ≥ 16: bit length b ≥ 5; top SUB_BITS bits after the leading one.
    let b = 63 - v.leading_zeros(); // v in [2^b, 2^(b+1))
    let sub = (v >> (b - SUB_BITS)) & (SUB - 1);
    LINEAR_LIMIT as usize + ((b - SUB_BITS - 1) as usize) * SUB as usize + sub as usize
}

/// Midpoint of the value range covered by `idx` — the representative
/// value quantile estimation reports.
fn bucket_mid(idx: usize) -> u64 {
    if (idx as u64) < LINEAR_LIMIT {
        return idx as u64;
    }
    let rel = idx - LINEAR_LIMIT as usize;
    let b = (rel / SUB as usize) as u32 + SUB_BITS + 1;
    let sub = (rel % SUB as usize) as u64;
    let lo = (1u64 << b) + (sub << (b - SUB_BITS));
    let width = 1u64 << (b - SUB_BITS);
    lo + width / 2
}

/// A lock-free log-bucketed histogram of `u64` samples (typically
/// nanoseconds). Recording is a handful of relaxed atomic RMWs; snapshots
/// fold the buckets into count/sum/min/max and p50/p95/p99.
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &s.count)
            .field("p50", &s.p50)
            .field("p99", &s.p99)
            .finish_non_exhaustive()
    }
}

/// Point-in-time summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (saturating).
    pub sum: u64,
    /// Smallest sample, 0 when empty.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Median estimate (≤ 12.5% relative error, clamped to `[min, max]`).
    pub p50: u64,
    /// 95th-percentile estimate.
    pub p95: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
    /// 99.9th-percentile estimate — the fleet SLO quantile.
    pub p999: u64,
}

impl HistogramSnapshot {
    /// Arithmetic mean of the recorded samples, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

impl Histogram {
    /// A fresh empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        if !enabled() {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Folds the buckets into a summary. Concurrent recording makes the
    /// snapshot approximate (fields may lag each other by a few samples),
    /// which is fine for telemetry.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.buckets().summary()
    }

    /// Reads the raw per-bucket counts — the exactly-mergeable form
    /// fleet aggregation ships over the wire (see [`merge`]).
    pub fn buckets(&self) -> HistogramBuckets {
        HistogramBuckets {
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// The number of log buckets every [`Histogram`] uses. The layout is a
/// compile-time constant (`SUB_BITS` sub-buckets per octave plus a linear
/// prefix), so two histograms from different processes always share bucket
/// boundaries — bucket-wise addition is an *exact* merge.
pub fn histogram_bucket_count() -> usize {
    NUM_BUCKETS
}

/// Raw per-bucket counts plus the scalar totals of one [`Histogram`] —
/// the mergeable snapshot form. Unlike [`HistogramSnapshot`] (which folds
/// to quantiles and cannot be combined), two `HistogramBuckets` from
/// different processes merge exactly: bucket boundaries are deterministic,
/// so addition per bucket loses nothing the single-process histogram had.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramBuckets {
    /// Per-bucket sample counts, length [`histogram_bucket_count`].
    pub counts: Vec<u64>,
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample; `u64::MAX` when empty.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
}

impl Default for HistogramBuckets {
    fn default() -> Self {
        Self {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl HistogramBuckets {
    /// A fresh empty bucket set (identity element for [`merge`](Self::merge)).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `other` into `self`, bucket-wise. Exact: the result is
    /// bit-identical to a histogram that had recorded both sample streams.
    pub fn merge(&mut self, other: &Self) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (dst, src) in self.counts.iter_mut().zip(other.counts.iter()) {
            *dst = dst.saturating_add(*src);
        }
        self.count = self.count.saturating_add(other.count);
        // The live recorder's `fetch_add` wraps on overflow, so the
        // merged sum must wrap too to stay bit-identical to a single
        // histogram that observed every shard's samples.
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Samples at or above `threshold`, counted bucket-wise (a bucket
    /// counts as "over" when its entire range is ≥ the threshold's
    /// bucket). This is how the SLO engine turns a latency histogram into
    /// a good/bad event counter without per-sample data.
    pub fn count_over(&self, threshold: u64) -> u64 {
        let first_bad = bucket_index(threshold);
        self.counts.iter().skip(first_bad + 1).sum()
    }

    /// Folds the buckets into the quantile summary form.
    pub fn summary(&self) -> HistogramSnapshot {
        if self.count == 0 {
            return HistogramSnapshot {
                count: 0,
                sum: 0,
                min: 0,
                max: 0,
                p50: 0,
                p95: 0,
                p99: 0,
                p999: 0,
            };
        }
        let (min, max) = (self.min, self.max);
        let total: u64 = self.counts.iter().sum();
        let quantile = |q: f64| -> u64 {
            let target = ((q * total as f64).ceil() as u64).clamp(1, total);
            let mut seen = 0u64;
            for (idx, &c) in self.counts.iter().enumerate() {
                seen += c;
                if seen >= target {
                    return bucket_mid(idx).clamp(min, max);
                }
            }
            max
        };
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min,
            max,
            p50: quantile(0.50),
            p95: quantile(0.95),
            p99: quantile(0.99),
            p999: quantile(0.999),
        }
    }
}

// --------------------------------------------------------------------------
// Timers
// --------------------------------------------------------------------------

/// RAII guard: measures from construction to drop and records the elapsed
/// nanoseconds into its histogram. Construct via [`Registry::span`] or the
/// [`time_scope!`] macro.
pub struct SpanTimer {
    hist: Arc<Histogram>,
    /// `None` when the registry was disabled at construction: a disabled
    /// timer never reads the clock, so the whole guard costs one relaxed
    /// load at creation and one branch at drop.
    start: Option<Instant>,
}

impl SpanTimer {
    /// Starts a timer feeding `hist` on drop. When metrics are disabled
    /// the guard is inert — no `Instant::now()` on either end.
    pub fn new(hist: Arc<Histogram>) -> Self {
        Self {
            hist,
            start: now_if_enabled(),
        }
    }

    /// Stops early and records, consuming the guard.
    pub fn stop(self) {}
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.hist.record_duration(start.elapsed());
        }
    }
}

// --------------------------------------------------------------------------
// Registry
// --------------------------------------------------------------------------

/// A name-keyed collection of metrics. Lookup takes a mutex; recording
/// through the returned `Arc` handles is lock-free — cache handles at the
/// call site (the [`counter!`]-family macros do this automatically).
#[derive(Debug, Default)]
pub struct Registry {
    counters: RecoverMutex<BTreeMap<String, Arc<Counter>>>,
    gauges: RecoverMutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: RecoverMutex<BTreeMap<String, Arc<Histogram>>>,
}

/// Everything a [`Registry`] held at one point in time.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Registry {
    /// A fresh empty registry (tests; production code uses [`global`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock();
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock();
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Gauge::new())),
        )
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock();
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Starts a [`SpanTimer`] feeding the histogram named `name`.
    pub fn span(&self, name: &str) -> SpanTimer {
        SpanTimer::new(self.histogram(name))
    }

    /// Zeroes every registered metric *in place* — existing handles (and
    /// the macros' cached ones) stay valid.
    pub fn reset(&self) {
        for c in self.counters.lock().values() {
            c.reset();
        }
        for g in self.gauges.lock().values() {
            g.reset();
        }
        for h in self.histograms.lock().values() {
            h.reset();
        }
    }

    /// Reads every metric into a [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// The process-global registry all instrumentation in the workspace
/// records into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

impl Snapshot {
    /// Serializes the snapshot as pretty-printed JSON — the payload the
    /// CLI's `--stats` flag dumps and [`write_snapshot_file`] persists.
    pub fn to_json(&self) -> String {
        self.to_json_with(&[])
    }

    /// Like [`to_json`](Self::to_json) but splices extra top-level keys
    /// whose values are pre-rendered raw JSON — the hook the fleet
    /// aggregator uses to add a `"fleet"` section to `/stats.json`
    /// without `cf_obs` knowing anything about routers.
    pub fn to_json_with(&self, extra: &[(&str, &str)]) -> String {
        let mut w = json::Writer::new();
        w.begin_object();
        w.key("counters");
        w.begin_object();
        for (k, v) in &self.counters {
            w.key(k);
            w.number_u64(*v);
        }
        w.end_object();
        w.key("gauges");
        w.begin_object();
        for (k, v) in &self.gauges {
            w.key(k);
            w.number_i64(*v);
        }
        w.end_object();
        w.key("histograms");
        w.begin_object();
        for (k, h) in &self.histograms {
            w.key(k);
            w.begin_object();
            w.key("count");
            w.number_u64(h.count);
            w.key("sum");
            w.number_u64(h.sum);
            w.key("min");
            w.number_u64(h.min);
            w.key("max");
            w.number_u64(h.max);
            w.key("mean");
            w.number_f64(h.mean());
            w.key("p50");
            w.number_u64(h.p50);
            w.key("p95");
            w.number_u64(h.p95);
            w.key("p99");
            w.number_u64(h.p99);
            w.key("p999");
            w.number_u64(h.p999);
            w.end_object();
        }
        w.end_object();
        for (k, raw) in extra {
            w.key(k);
            w.raw(raw);
        }
        w.end_object();
        w.finish()
    }
}

/// Writes the global registry's snapshot as JSON to `path` (parent
/// directories created), e.g. `results/obs_snapshot.json` — the
/// `results/`-compatible writer future PRs track perf trajectories with.
pub fn write_snapshot_file(path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, global().snapshot().to_json())
}

// --------------------------------------------------------------------------
// Call-site macros
// --------------------------------------------------------------------------

/// The global counter `$name`, with the `Arc` handle cached at the call
/// site so the registry lock is taken once per site, not per event.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: std::sync::OnceLock<std::sync::Arc<$crate::Counter>> =
            std::sync::OnceLock::new();
        HANDLE
            .get_or_init(|| $crate::global().counter($name))
            .as_ref()
    }};
}

/// The global gauge `$name` (call-site cached, see [`counter!`]).
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static HANDLE: std::sync::OnceLock<std::sync::Arc<$crate::Gauge>> =
            std::sync::OnceLock::new();
        HANDLE
            .get_or_init(|| $crate::global().gauge($name))
            .as_ref()
    }};
}

/// The global histogram `$name` (call-site cached, see [`counter!`]).
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: std::sync::OnceLock<std::sync::Arc<$crate::Histogram>> =
            std::sync::OnceLock::new();
        HANDLE
            .get_or_init(|| $crate::global().histogram($name))
            .as_ref()
    }};
}

/// Times the rest of the enclosing scope into the global histogram
/// `$name` (RAII; records on scope exit, panics included).
#[macro_export]
macro_rules! time_scope {
    ($name:expr) => {
        let __cf_obs_span = {
            static HANDLE: std::sync::OnceLock<std::sync::Arc<$crate::Histogram>> =
                std::sync::OnceLock::new();
            $crate::SpanTimer::new(std::sync::Arc::clone(
                HANDLE.get_or_init(|| $crate::global().histogram($name)),
            ))
        };
    };
}

#[cfg(test)]
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(-17);
        assert_eq!(g.get(), -17);
        g.set(3);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn bucket_index_is_monotone_and_mid_is_within_error() {
        // Exhaustive over the small range, then sampled octave edges: the
        // probe values must themselves be increasing for the check to mean
        // anything.
        let mut values: Vec<u64> = (0..4096).collect();
        for shift in 12..60u32 {
            values.extend([(1u64 << shift) - 1, 1 << shift, (1 << shift) + 7]);
        }
        let mut last = 0usize;
        for &v in &values {
            let idx = bucket_index(v);
            assert!(idx >= last, "index must not decrease at {v}");
            last = idx;
            let mid = bucket_mid(idx);
            let err = (mid as f64 - v as f64).abs() / v.max(1) as f64;
            assert!(err <= 0.20, "value {v}: mid {mid}, err {err}");
        }
        const { assert!(NUM_BUCKETS < 520) };
    }

    #[test]
    fn histogram_snapshot_quantiles_are_bounded_by_min_max() {
        let h = Histogram::new();
        for v in [3u64, 10, 100, 1_000, 10_000, 100_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.min, 3);
        assert_eq!(s.max, 100_000);
        assert_eq!(s.sum, 111_113);
        for q in [s.p50, s.p95, s.p99] {
            assert!(q >= s.min && q <= s.max, "quantile {q} outside [min,max]");
        }
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99);
    }

    #[test]
    fn empty_histogram_snapshot_is_zeroed() {
        let s = Histogram::new().snapshot();
        assert_eq!(
            (s.count, s.sum, s.min, s.max, s.p50, s.p95, s.p99),
            (0, 0, 0, 0, 0, 0, 0)
        );
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn quantiles_approximate_a_known_distribution() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        let within =
            |est: u64, truth: u64| (est as f64 - truth as f64).abs() / truth as f64 <= 0.15;
        assert!(within(s.p50, 5_000), "p50 {}", s.p50);
        assert!(within(s.p95, 9_500), "p95 {}", s.p95);
        assert!(within(s.p99, 9_900), "p99 {}", s.p99);
    }

    #[test]
    fn registry_reuses_handles_and_resets_in_place() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        assert!(Arc::ptr_eq(&a, &b));
        a.add(7);
        assert_eq!(b.get(), 7);
        r.reset();
        assert_eq!(a.get(), 0, "reset must zero the shared metric in place");
    }

    #[test]
    fn snapshot_json_contains_all_sections() {
        let r = Registry::new();
        r.counter("hits").add(2);
        r.gauge("depth").set(-4);
        r.histogram("lat\"ency").record(77);
        let json = r.snapshot().to_json();
        assert!(json.contains("\"hits\": 2"));
        assert!(json.contains("\"depth\": -4"));
        assert!(
            json.contains("\"lat\\\"ency\""),
            "keys must be escaped: {json}"
        );
        assert!(json.contains("\"p99\""));
    }

    #[test]
    fn span_timer_records_on_drop() {
        let r = Registry::new();
        {
            let _t = r.span("scope_ns");
            std::thread::sleep(Duration::from_millis(2));
        }
        let s = r.histogram("scope_ns").snapshot();
        assert_eq!(s.count, 1);
        assert!(s.min >= 1_000_000, "recorded {} ns, expected >= 1ms", s.min);
    }
}
