//! Drift-aware self-healing serving: a background refresh loop that
//! rebuilds the model when the live traffic stops looking like the data
//! it was fitted on, and publishes each rebuild through an RCU-style
//! **generation cell** so no request ever blocks on (or observes a torn)
//! rebuild.
//!
//! Three pieces:
//!
//! - [`GenCellCore`] — the generation pointer. Readers take an `Arc`
//!   snapshot of the current model plus its generation number in one
//!   consistent pair; a writer publishes a fully built replacement with
//!   one pointer swap. Like the sharded neighbor cache it is written
//!   generically over [`cf_obs::sync::Shim`], so the `cf-analysis`
//!   model checker explores the *same* swap/reader logic production
//!   runs ([`GenCell`] is the `std` instantiation).
//! - [`DriftMonitor`] — the tripwire. Watches windowed online MAE
//!   regression ([`cf_obs::quality`]), rating-distribution shift on the
//!   ingest stream ([`cf_obs::drift`]) and the degradation-ladder
//!   fallback rate, with **hysteresis** (trip high, clear low, N
//!   consecutive tripped windows, post-rebuild cooldown) so a flapping
//!   signal can never cause a rebuild storm.
//! - [`SelfHealingCfsf`] — the loop. Ingests live ratings, and when the
//!   monitor trips (or on [`SelfHealingCfsf::trigger`] /
//!   [`SelfHealingCfsf::refresh_now`]), rebuilds the next generation —
//!   a **partial** rebuild patches the GIS rows of the items the pending
//!   ratings touched and keeps the K-means assignment, then re-derives
//!   smoothing, iCluster, planes and strips over the whole merged
//!   matrix; a **full** refit reruns K-means too — and publishes the
//!   result through the cell. A panicking or failing rebuild is caught,
//!   counted (`refresh.failed`), and leaves the old generation serving.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cf_matrix::{ItemId, MatrixBuilder, RatingMatrix, UserId};
use cf_obs::sync::{RecoverMutex, Shim, ShimAtomicU64, ShimRwLock, StdShim};

use crate::{Cfsf, CfsfError};

// --------------------------------------------------------------------------
// Generation cell
// --------------------------------------------------------------------------

/// An RCU-style generation pointer: readers snapshot `Arc<T>` (and the
/// generation number it was published under) without ever blocking on a
/// writer building the next generation; the writer's only critical
/// section is the pointer swap itself.
///
/// Memory ordering: the `Arc` lives behind the shim's reader-writer
/// lock, so the happens-before edge between `publish` and a later
/// `load` is carried by the lock, not by atomic orderings — the
/// generation counter is bumped *inside* the write guard and read
/// *inside* the read guard, which is why [`Self::load_with_generation`]
/// can never observe a torn (model, generation) pair. The standalone
/// [`Self::generation`] read is a relaxed atomic load: monotone, cheap,
/// and allowed to lag a concurrent publish by design (it feeds gauges
/// and staleness probes, not correctness).
///
/// Poison recovery mirrors the sharded cache: the data is an `Arc`
/// snapshot (always internally consistent), so a reader that observes
/// poison recovers the guard, clones, and clears the flag — one
/// panicking holder cannot take serving down.
pub struct GenCellCore<S: Shim, T: Send + Sync + 'static> {
    slot: S::RwLock<Arc<T>>,
    generation: S::AtomicU64,
}

impl<S: Shim, T: Send + Sync + 'static> GenCellCore<S, T> {
    /// A fresh cell serving `initial` as generation 0.
    pub fn new(initial: Arc<T>) -> Self {
        Self {
            slot: S::RwLock::new(initial),
            generation: S::AtomicU64::new(0),
        }
    }

    fn recover(&self) -> Arc<T> {
        cf_obs::counter!("refresh.gen_cell.poison_recovered").inc();
        let snapshot = Arc::clone(&*self.slot.write_recover());
        self.slot.clear_poison();
        snapshot
    }

    /// The currently served generation's value. Wait-free for practical
    /// purposes: the read guard is held only for one `Arc` clone.
    pub fn load(&self) -> Arc<T> {
        match self.slot.read() {
            Ok(guard) => Arc::clone(&guard),
            Err(_) => self.recover(),
        }
    }

    /// The served value together with the generation it was published
    /// under, as one consistent pair.
    pub fn load_with_generation(&self) -> (Arc<T>, u64) {
        match self.slot.read() {
            Ok(guard) => (Arc::clone(&guard), self.generation.load(Ordering::Relaxed)),
            Err(_) => {
                let snapshot = self.recover();
                let gen = self.generation.load(Ordering::Relaxed);
                (snapshot, gen)
            }
        }
    }

    /// The current generation number (starts at 0, bumps on every
    /// [`Self::publish`]).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Publishes `next` as the new serving generation and returns its
    /// generation number. In-flight readers keep their snapshots; new
    /// readers see `next`. The old generation is freed when its last
    /// reader drops its `Arc` — classic RCU reclamation.
    pub fn publish(&self, next: Arc<T>) -> u64 {
        let mut guard = self.slot.write_recover();
        // Relaxed is sound here: every generation access is paired with a
        // slot-lock acquisition, and the lock's acquire/release edges
        // order the pair (the gen-swap model checks exactly this).
        let gen = self.generation.load(Ordering::Relaxed) + 1;
        *guard = next;
        self.generation.store(gen, Ordering::Relaxed);
        self.slot.clear_poison();
        gen
    }

    /// Instrumentation for tests and the model checker: poison the slot
    /// as a panicking writer would.
    pub fn poison_slot(&self) {
        self.slot.poison();
    }

    /// Whether the slot is currently poisoned (before any reader ran the
    /// recovery protocol).
    pub fn is_poisoned(&self) -> bool {
        self.slot.is_poisoned()
    }
}

/// The production generation cell: [`GenCellCore`] over plain `std`
/// primitives.
pub type GenCell<T> = GenCellCore<StdShim, T>;

// --------------------------------------------------------------------------
// Drift detection
// --------------------------------------------------------------------------

/// Thresholds and pacing for the drift detector. Every signal has a
/// **trip** threshold and a lower **clear** threshold (hysteresis): the
/// tripped-streak only grows while a signal is above trip, and only
/// resets once *all* signals fall below their clear thresholds, so a
/// signal oscillating inside the band cannot flap the detector.
#[derive(Debug, Clone)]
pub struct DriftConfig {
    /// Trip when windowed MAE exceeds its baseline by this many per
    /// mille (relative regression; 200 = 20% worse).
    pub mae_trip_pm: i64,
    /// The MAE signal clears below this regression (must be ≤ trip).
    pub mae_clear_pm: i64,
    /// Trip when the ingest-stream rating histogram is this far (total
    /// variation, per mille) from the training distribution.
    pub hist_trip_pm: i64,
    /// The distribution signal clears below this (must be ≤ trip).
    pub hist_clear_pm: i64,
    /// Trip when the degradation ladder serves this per-mille of
    /// requests from its fallback region.
    pub fallback_trip_pm: i64,
    /// The fallback-rate signal clears below this (must be ≤ trip).
    pub fallback_clear_pm: i64,
    /// Consecutive tripped evaluations required before a rebuild is
    /// triggered (debounces one-window spikes).
    pub trip_windows: u32,
    /// Minimum time between rebuilds. Even with thresholds at the
    /// floor, rebuilds cannot come closer together than this.
    pub cooldown: Duration,
    /// Observations (MAE window + ingest window) required before a
    /// signal counts — a three-sample window proves nothing.
    pub min_observations: usize,
    /// Escalate the rebuild from partial to a full refit once the ratings
    /// merged since the last full refit exceed this fraction of the
    /// matrix's ratings — the frozen K-means assignment drifts as users
    /// accumulate ratings.
    pub full_refit_fraction: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        Self {
            mae_trip_pm: 200,
            mae_clear_pm: 100,
            hist_trip_pm: 300,
            hist_clear_pm: 150,
            fallback_trip_pm: 500,
            fallback_clear_pm: 250,
            trip_windows: 3,
            cooldown: Duration::from_secs(30),
            min_observations: 32,
            full_refit_fraction: 0.10,
        }
    }
}

impl DriftConfig {
    /// A hair-trigger profile for demos, chaos drills and tests: every
    /// threshold at its floor, one tripped window suffices, and only the
    /// cooldown stands between consecutive rebuilds.
    pub fn sensitive() -> Self {
        Self {
            mae_trip_pm: 0,
            mae_clear_pm: 0,
            hist_trip_pm: 0,
            hist_clear_pm: 0,
            fallback_trip_pm: 0,
            fallback_clear_pm: 0,
            trip_windows: 1,
            cooldown: Duration::from_millis(200),
            min_observations: 1,
            full_refit_fraction: 0.10,
        }
    }

    /// A detector that never trips on its own: rebuilds start only from
    /// [`SelfHealingCfsf::trigger`] or [`SelfHealingCfsf::refresh_now`],
    /// so the caller controls exactly when a generation is built.
    pub fn manual() -> Self {
        Self {
            mae_trip_pm: i64::MAX,
            mae_clear_pm: 0,
            hist_trip_pm: i64::MAX,
            hist_clear_pm: 0,
            fallback_trip_pm: i64::MAX,
            fallback_clear_pm: 0,
            trip_windows: u32::MAX,
            ..Self::default()
        }
    }

    /// Rejects threshold bands that would invert the hysteresis.
    pub fn validate(&self) -> Result<(), CfsfError> {
        let bands = [
            ("mae", self.mae_trip_pm, self.mae_clear_pm),
            ("hist", self.hist_trip_pm, self.hist_clear_pm),
            ("fallback", self.fallback_trip_pm, self.fallback_clear_pm),
        ];
        for (name, trip, clear) in bands {
            if clear > trip || trip < 0 || clear < 0 {
                return Err(CfsfError::InvalidParameter {
                    name: "drift",
                    message: format!(
                        "{name} thresholds need 0 <= clear <= trip ({clear} > {trip})"
                    ),
                });
            }
        }
        if self.trip_windows == 0 {
            return Err(CfsfError::InvalidParameter {
                name: "drift",
                message: "trip_windows must be at least 1".into(),
            });
        }
        if !(0.0..=1.0).contains(&self.full_refit_fraction) {
            return Err(CfsfError::InvalidParameter {
                name: "drift",
                message: format!(
                    "full_refit_fraction {} outside [0, 1]",
                    self.full_refit_fraction
                ),
            });
        }
        Ok(())
    }
}

/// Where the detector's state machine currently stands. Exposed on
/// `/stats.json` as the `drift.state` gauge (the discriminant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftState {
    /// All signals below their clear thresholds (or not yet meaningful).
    Healthy = 0,
    /// At least one signal above trip; streak building toward a rebuild.
    Drifting = 1,
    /// A rebuild worker is in flight.
    Rebuilding = 2,
    /// A rebuild just finished (or failed); triggers are suppressed
    /// until the cooldown elapses.
    Cooldown = 3,
}

/// One evaluation's raw signals (per mille), for logs and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriftSignals {
    /// Relative windowed-MAE regression over baseline; `None` before a
    /// baseline exists.
    pub mae_regression_pm: Option<i64>,
    /// Ingest-histogram distance from the training distribution.
    pub hist_distance_pm: Option<i64>,
    /// Degradation-ladder fallback serve rate.
    pub fallback_pm: Option<i64>,
}

/// The hysteresis state machine between the sensors and the rebuild
/// worker. Not a sensor itself: it reads the gauges [`cf_obs::quality`]
/// and [`cf_obs::drift`] maintain and decides *whether now is the time*.
pub struct DriftMonitor {
    cfg: DriftConfig,
    state: DriftState,
    baseline_mae: Option<f64>,
    tripped_streak: u32,
    cooldown_until: Option<Instant>,
    trips: u64,
}

impl DriftMonitor {
    /// A fresh monitor in [`DriftState::Healthy`].
    pub fn new(cfg: DriftConfig) -> Self {
        let monitor = Self {
            cfg,
            state: DriftState::Healthy,
            baseline_mae: None,
            tripped_streak: 0,
            cooldown_until: None,
            trips: 0,
        };
        monitor.publish_state();
        monitor
    }

    /// Current state-machine position.
    pub fn state(&self) -> DriftState {
        self.state
    }

    /// Rebuilds triggered so far.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    fn publish_state(&self) {
        cf_obs::gauge!("drift.state").set(self.state as i64);
    }

    /// Reads the raw signals off the global registry. The MAE baseline
    /// is captured lazily: the first full-enough window after a publish
    /// becomes the generation's "normal".
    fn read_signals(&mut self) -> DriftSignals {
        let mut signals = DriftSignals::default();
        if cf_obs::quality::window_len() >= self.cfg.min_observations {
            if let Some(mae) = cf_obs::quality::window_mae() {
                match self.baseline_mae {
                    None => self.baseline_mae = Some(mae.max(f64::MIN_POSITIVE)),
                    Some(base) => {
                        let pm = (((mae / base) - 1.0) * 1000.0).round().max(0.0) as i64;
                        signals.mae_regression_pm = Some(pm);
                        cf_obs::gauge!("drift.mae_regression_pm").set(pm);
                    }
                }
            }
        }
        if cf_obs::drift::window_len() >= self.cfg.min_observations {
            signals.hist_distance_pm = cf_obs::drift::hist_distance_pm();
        }
        cf_obs::quality::refresh_derived_gauges();
        let fallback = cf_obs::global().gauge("online.degrade.fallback_pm").get();
        signals.fallback_pm = Some(fallback);
        signals
    }

    /// One detector tick. Returns `true` when a rebuild should be
    /// launched *now*; the caller must then report back through
    /// [`Self::note_rebuild_started`] / [`Self::note_rebuild_finished`].
    pub fn evaluate(&mut self) -> bool {
        if self.state == DriftState::Rebuilding {
            return false;
        }
        if let Some(until) = self.cooldown_until {
            if Instant::now() < until {
                self.state = DriftState::Cooldown;
                self.publish_state();
                return false;
            }
            self.cooldown_until = None;
        }
        let signals = self.read_signals();
        let above_trip = signals
            .mae_regression_pm
            .is_some_and(|v| v >= self.cfg.mae_trip_pm)
            || signals
                .hist_distance_pm
                .is_some_and(|v| v >= self.cfg.hist_trip_pm)
            || signals
                .fallback_pm
                .is_some_and(|v| v >= self.cfg.fallback_trip_pm);
        let below_clear = signals
            .mae_regression_pm
            .is_none_or(|v| v <= self.cfg.mae_clear_pm)
            && signals
                .hist_distance_pm
                .is_none_or(|v| v <= self.cfg.hist_clear_pm)
            && signals
                .fallback_pm
                .is_none_or(|v| v <= self.cfg.fallback_clear_pm);

        if above_trip {
            self.tripped_streak += 1;
            self.state = DriftState::Drifting;
        } else if below_clear {
            // Only a full return below the clear band resets the streak —
            // the hysteresis that keeps an oscillating signal from
            // flapping the detector.
            self.tripped_streak = 0;
            self.state = DriftState::Healthy;
        }
        self.publish_state();
        if self.tripped_streak >= self.cfg.trip_windows {
            self.trips += 1;
            cf_obs::counter!("drift.trips").inc();
            cf_obs::trace::note("drift.tripped");
            return true;
        }
        false
    }

    /// The caller launched a rebuild: suppress further triggers.
    pub fn note_rebuild_started(&mut self) {
        self.state = DriftState::Rebuilding;
        self.tripped_streak = 0;
        self.publish_state();
    }

    /// The rebuild finished (successfully or not): enter the cooldown.
    /// On success the MAE baseline is dropped — the next full window
    /// against the *new* generation becomes the new normal.
    pub fn note_rebuild_finished(&mut self, published: bool) {
        if published {
            self.baseline_mae = None;
        }
        self.state = DriftState::Cooldown;
        self.cooldown_until = Some(Instant::now() + self.cfg.cooldown);
        self.publish_state();
    }
}

// --------------------------------------------------------------------------
// Self-healing serving wrapper
// --------------------------------------------------------------------------

/// Live ratings accepted but not yet merged into a published generation.
/// A rebuild works from a copy: the ratings stay here (and keep blocking
/// duplicates) until a generation that holds them is published.
struct Ingest {
    pending: Vec<(UserId, ItemId, f64)>,
    /// Ratings merged since the last full refit; drives escalation.
    churn_since_full: usize,
}

struct Shared {
    cell: Arc<GenCell<Cfsf>>,
    ingest: RecoverMutex<Ingest>,
    monitor: RecoverMutex<DriftMonitor>,
    cfg: DriftConfig,
    /// A rebuild worker is in flight (authoritative single-flight guard).
    busy: AtomicBool,
}

/// Clears the in-flight flag even if the rebuild path panics.
struct BusyGuard<'a>(&'a AtomicBool);

impl Drop for BusyGuard<'_> {
    fn drop(&mut self) {
        cf_obs::gauge!("refresh.in_flight").set(0);
        self.0.store(false, Ordering::Release);
    }
}

/// Which path a rebuild took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshKind {
    /// GIS rows of the touched items patched, K-means assignment kept;
    /// smoothing, iCluster, planes and strips re-derived in full.
    Partial,
    /// Full offline refit (K-means included).
    Full,
}

/// What one rebuild pass did (the background worker records the same
/// fields into counters/gauges).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebuildReport {
    /// Which rebuild path ran (chosen by the merged-rating count against
    /// [`DriftConfig::full_refit_fraction`]).
    pub kind: RefreshKind,
    /// Ratings merged into the new generation.
    pub merged: usize,
    /// Distinct users among the merged ratings.
    pub dirty_users: usize,
    /// The generation number the rebuild published.
    pub generation: u64,
}

/// A [`Cfsf`] that keeps itself fresh: ingests live ratings, watches the
/// drift signals, and — when the [`DriftMonitor`] trips — rebuilds on a
/// background thread and publishes through a [`GenCell`], so serving
/// never pauses and a failed rebuild leaves the old generation up.
pub struct SelfHealingCfsf {
    shared: Arc<Shared>,
    worker: RecoverMutex<Option<std::thread::JoinHandle<()>>>,
}

impl SelfHealingCfsf {
    /// Wraps a fitted model as generation 0 and installs its training
    /// distribution as the drift baseline.
    pub fn new(model: Cfsf, cfg: DriftConfig) -> Result<Self, CfsfError> {
        cfg.validate()?;
        install_baseline(&model);
        // Register the refresh counters up front so a snapshot carries
        // explicit zeros — absent vs zero matters to the chaos gates.
        cf_obs::counter!("refresh.started").add(0);
        cf_obs::counter!("refresh.completed").add(0);
        cf_obs::counter!("refresh.failed").add(0);
        cf_obs::counter!("refresh.panicked").add(0);
        cf_obs::gauge!("refresh.generation").set(0);
        cf_obs::gauge!("refresh.in_flight").set(0);
        Ok(Self {
            shared: Arc::new(Shared {
                cell: Arc::new(GenCell::new(Arc::new(model))),
                ingest: RecoverMutex::new(Ingest {
                    pending: Vec::new(),
                    churn_since_full: 0,
                }),
                monitor: RecoverMutex::new(DriftMonitor::new(cfg.clone())),
                cfg,
                busy: AtomicBool::new(false),
            }),
            worker: RecoverMutex::new(None),
        })
    }

    /// The generation cell, shareable with serving (the shard server's
    /// model handle loads from exactly this cell).
    pub fn cell(&self) -> Arc<GenCell<Cfsf>> {
        Arc::clone(&self.shared.cell)
    }

    /// Snapshot of the currently served generation.
    pub fn model(&self) -> Arc<Cfsf> {
        self.shared.cell.load()
    }

    /// The currently served generation number.
    pub fn generation(&self) -> u64 {
        self.shared.cell.generation()
    }

    /// Current drift state-machine position.
    pub fn drift_state(&self) -> DriftState {
        self.shared.monitor.lock().state()
    }

    /// Ratings waiting to be merged by the next rebuild.
    pub fn pending(&self) -> usize {
        self.shared.ingest.lock().pending.len()
    }

    /// Ingests one live rating: validated against the current
    /// generation, fed to the quality and drift sensors, queued for the
    /// next rebuild — and the drift detector gets one evaluation tick,
    /// which may launch a background rebuild.
    pub fn add_rating(&self, user: UserId, item: ItemId, rating: f64) -> Result<(), CfsfError> {
        let model = {
            let mut ingest = self.shared.ingest.lock();
            // Loaded under the lock: a rebuild publishes before it prunes
            // `pending`, so this generation's matrix plus `pending` cover
            // every cell already taken.
            let model = self.shared.cell.load();
            let m = model.matrix();
            if user.index() >= m.num_users() || item.index() >= m.num_items() {
                return Err(CfsfError::InvalidParameter {
                    name: "rating",
                    message: format!("({user:?}, {item:?}) is outside the matrix"),
                });
            }
            if !m.scale().contains(rating) || !rating.is_finite() {
                return Err(CfsfError::InvalidParameter {
                    name: "rating",
                    message: format!("{rating} is off the {:?} scale", m.scale()),
                });
            }
            if m.get(user, item).is_some()
                || ingest
                    .pending
                    .iter()
                    .any(|&(u, i, _)| u == user && i == item)
            {
                return Err(CfsfError::InvalidParameter {
                    name: "rating",
                    message: format!("cell ({user:?}, {item:?}) is already rated"),
                });
            }
            ingest.pending.push((user, item, rating));
            model
        };
        if let Some(pred) = cf_matrix::Predictor::predict(&*model, user, item) {
            cf_obs::quality::observe_prediction_error((pred - rating).abs());
        }
        cf_obs::drift::record_rating(rating);
        self.tick();
        Ok(())
    }

    /// One drift-detector evaluation; launches a background rebuild when
    /// it trips. Serving paths may call this on any cadence — it never
    /// blocks on a rebuild.
    pub fn tick(&self) {
        if self.shared.monitor.lock().evaluate() {
            self.spawn_rebuild();
        }
    }

    /// Forces a background rebuild regardless of drift (operator
    /// override, chaos drills). Returns `false` when one is already in
    /// flight.
    pub fn trigger(&self) -> bool {
        self.spawn_rebuild()
    }

    /// Runs one rebuild synchronously on the caller's thread (tests,
    /// examples, the CLI demo). Publishes through the same cell as the
    /// background path.
    pub fn refresh_now(&self) -> Result<RebuildReport, CfsfError> {
        if self.shared.busy.swap(true, Ordering::AcqRel) {
            return Err(CfsfError::RefreshFailed {
                message: "a rebuild is already in flight".into(),
            });
        }
        let _guard = BusyGuard(&self.shared.busy);
        cf_obs::gauge!("refresh.in_flight").set(1);
        self.shared.monitor.lock().note_rebuild_started();
        run_rebuild(&self.shared)
    }

    fn spawn_rebuild(&self) -> bool {
        if self.shared.busy.swap(true, Ordering::AcqRel) {
            return false;
        }
        cf_obs::gauge!("refresh.in_flight").set(1);
        self.shared.monitor.lock().note_rebuild_started();
        let shared = Arc::clone(&self.shared);
        let spawned = std::thread::Builder::new()
            .name("cfsf-refresh".into())
            .spawn(move || {
                let _guard = BusyGuard(&shared.busy);
                let _ = run_rebuild(&shared);
            });
        match spawned {
            Ok(handle) => {
                let mut slot = self.worker.lock();
                // Reap the previous worker (already finished: `busy` was
                // clear) so handles don't accumulate.
                if let Some(old) = slot.take() {
                    let _ = old.join();
                }
                *slot = Some(handle);
                true
            }
            Err(_) => {
                // Could not even spawn: count it as a failed refresh and
                // leave the old generation serving.
                cf_obs::counter!("refresh.failed").inc();
                cf_obs::gauge!("refresh.in_flight").set(0);
                self.shared.busy.store(false, Ordering::Release);
                self.shared.monitor.lock().note_rebuild_finished(false);
                false
            }
        }
    }

    /// Blocks until no background rebuild is in flight (tests, shutdown).
    pub fn wait_idle(&self) {
        if let Some(handle) = self.worker.lock().take() {
            let _ = handle.join();
        }
        while self.shared.busy.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Drop for SelfHealingCfsf {
    fn drop(&mut self) {
        self.wait_idle();
    }
}

/// Seeds the drift sensors with the model's training distribution.
fn install_baseline(model: &Cfsf) {
    let m = model.matrix();
    let scale = m.scale();
    cf_obs::drift::set_baseline(m.triplets().map(|(_, _, r)| r), scale.min, scale.max);
}

/// The rebuild pass: copy the pending ratings, build a complete new
/// [`Cfsf`] off to the side, publish it through the cell. Runs on the
/// worker thread (or inline for [`SelfHealingCfsf::refresh_now`]); the
/// served generation is untouched until the final `publish`, and any
/// panic is caught here — counted, traced, old generation keeps serving.
fn run_rebuild(shared: &Shared) -> Result<RebuildReport, CfsfError> {
    cf_obs::counter!("refresh.started").inc();
    cf_obs::trace::note("refresh.rebuild_started");
    let base = shared.cell.load();
    // Build from a copy: the pending ratings stay queued, so a duplicate
    // of an in-flight cell is still refused and a failed rebuild has
    // nothing to restore.
    let (pending, churn_since_full) = {
        let ingest = shared.ingest.lock();
        (ingest.pending.clone(), ingest.churn_since_full)
    };

    let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        cf_obs::time_scope!("refresh.rebuild_ns");
        build_generation(&base, &shared.cfg, &pending, churn_since_full)
    }));

    match built {
        Ok(Ok((model, kind))) => {
            let published = Arc::new(model);
            let generation = shared.cell.publish(Arc::clone(&published));
            {
                let mut ingest = shared.ingest.lock();
                ingest.churn_since_full = match kind {
                    RefreshKind::Full => 0,
                    RefreshKind::Partial => churn_since_full + pending.len(),
                };
                // Keep only ratings the new generation lacks: those that
                // arrived while it was being built.
                let m = published.matrix();
                ingest.pending.retain(|&(u, i, _)| m.get(u, i).is_none());
            }
            install_baseline(&published);
            cf_obs::quality::clear_window();
            cf_obs::counter!("refresh.completed").inc();
            cf_obs::gauge!("refresh.generation").set(generation as i64);
            cf_obs::trace::note("refresh.generation_published");
            shared.monitor.lock().note_rebuild_finished(true);
            let dirty_users: BTreeSet<UserId> = pending.iter().map(|&(u, _, _)| u).collect();
            Ok(RebuildReport {
                kind,
                merged: pending.len(),
                dirty_users: dirty_users.len(),
                generation,
            })
        }
        other => {
            cf_obs::counter!("refresh.failed").inc();
            shared.monitor.lock().note_rebuild_finished(false);
            match other {
                Ok(Err(e)) => {
                    cf_obs::trace::note("refresh.rebuild_failed");
                    Err(e)
                }
                _ => {
                    cf_obs::counter!("refresh.panicked").inc();
                    cf_obs::trace::note("refresh.worker_panicked");
                    Err(CfsfError::RefreshFailed {
                        message: "rebuild worker panicked; old generation still serving".into(),
                    })
                }
            }
        }
    }
}

/// Builds the next generation completely off to the side. The partial
/// path rebuilds GIS rows only for the items `pending` touches and keeps
/// `base`'s K-means assignment; everything downstream (smoothing,
/// iCluster, planes, strips) is re-derived over the whole merged matrix.
/// Heavy churn since the last full refit escalates to a full refit.
fn build_generation(
    base: &Cfsf,
    cfg: &DriftConfig,
    pending: &[(UserId, ItemId, f64)],
    churn_since_full: usize,
) -> Result<(Cfsf, RefreshKind), CfsfError> {
    #[cfg(feature = "faultinject")]
    {
        cf_faultinject::maybe_stall("refresh.worker_stall");
        cf_faultinject::maybe_panic("refresh.worker_panic");
    }

    let merged = merged_matrix(base, pending)?;
    let would_be_churn = churn_since_full + pending.len();
    let escalate = would_be_churn as f64 > cfg.full_refit_fraction * merged.num_ratings() as f64;

    let (model, kind) = if escalate || pending.is_empty() {
        // An empty rebuild (drift tripped with nothing pending — e.g. a
        // pure fallback-rate trip) refits on the same data: K-means may
        // land a better local optimum, and the baseline resets.
        (Cfsf::fit(&merged, base.config.clone())?, RefreshKind::Full)
    } else {
        let mut stale_items: Vec<ItemId> = pending.iter().map(|&(_, i, _)| i).collect();
        stale_items.sort_unstable();
        stale_items.dedup();
        let mut gis = base.gis.clone();
        gis.rebuild_items(&merged, &stale_items, &base.config.gis_config());
        let model = Cfsf::assemble(
            base.config.clone(),
            merged,
            gis,
            base.clusters.clone(),
            None,
        );
        (model, RefreshKind::Partial)
    };

    #[cfg(feature = "faultinject")]
    if cf_faultinject::fires("refresh.fail_before_commit") {
        return Err(CfsfError::RefreshFailed {
            message: "injected fault before generation publish".into(),
        });
    }
    Ok((model, kind))
}

fn merged_matrix(
    base: &Cfsf,
    pending: &[(UserId, ItemId, f64)],
) -> Result<RatingMatrix, CfsfError> {
    let old = base.matrix();
    let mut b = MatrixBuilder::with_dims(old.num_users(), old.num_items()).scale(old.scale());
    b.reserve(old.num_ratings() + pending.len());
    for (u, i, r) in old.triplets() {
        b.push(u, i, r);
    }
    for &(u, i, r) in pending {
        b.push(u, i, r);
    }
    b.build().map_err(|e| CfsfError::RefreshFailed {
        message: format!("merged matrix failed validation: {e}"),
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::CfsfConfig;
    use cf_data::SyntheticConfig;
    use cf_matrix::Predictor;
    use cf_similarity::Gis;

    /// The drift/quality windows and the drift baseline are
    /// process-global; tests that assert on them, or wrap a model (which
    /// installs a baseline and feeds the windows), serialize here so
    /// parallel test threads cannot interleave observations.
    fn windows_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn fitted() -> (cf_data::Dataset, Cfsf) {
        let d = SyntheticConfig::small().generate();
        let m = Cfsf::fit(&d.matrix, CfsfConfig::small()).unwrap();
        (d, m)
    }

    fn unrated_cell(m: &RatingMatrix, from: u32) -> (UserId, ItemId) {
        for u in from..m.num_users() as u32 {
            for i in 0..m.num_items() as u32 {
                if m.get(UserId::new(u), ItemId::new(i)).is_none() {
                    return (UserId::new(u), ItemId::new(i));
                }
            }
        }
        panic!("matrix is dense");
    }

    #[test]
    fn gen_cell_pairs_value_and_generation() {
        let cell: GenCell<u64> = GenCell::new(Arc::new(0));
        assert_eq!(cell.generation(), 0);
        assert_eq!(*cell.load(), 0);
        for k in 1..=5u64 {
            assert_eq!(cell.publish(Arc::new(k)), k);
            let (v, generation) = cell.load_with_generation();
            assert_eq!(*v, k);
            assert_eq!(generation, k);
        }
    }

    #[test]
    fn gen_cell_recovers_from_poison() {
        let cell: GenCell<u64> = GenCell::new(Arc::new(7));
        cell.poison_slot();
        assert!(cell.is_poisoned());
        assert_eq!(*cell.load(), 7, "reader recovers the snapshot");
        assert!(!cell.is_poisoned(), "recovery clears the flag");
        assert_eq!(cell.publish(Arc::new(8)), 1);
        assert_eq!(*cell.load(), 8);
    }

    #[test]
    fn old_generation_outlives_the_swap() {
        let cell: GenCell<u64> = GenCell::new(Arc::new(1));
        let held = cell.load();
        cell.publish(Arc::new(2));
        assert_eq!(*held, 1, "in-flight reader keeps its snapshot");
        assert_eq!(*cell.load(), 2);
    }

    #[test]
    fn drift_config_rejects_inverted_bands() {
        let mut cfg = DriftConfig::default();
        cfg.mae_clear_pm = cfg.mae_trip_pm + 1;
        assert!(cfg.validate().is_err());
        assert!(DriftConfig::default().validate().is_ok());
        assert!(DriftConfig::sensitive().validate().is_ok());
        assert!(DriftConfig::manual().validate().is_ok());
        let cfg = DriftConfig {
            trip_windows: 0,
            ..DriftConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn monitor_needs_consecutive_tripped_windows_and_cooldown() {
        let _serial = windows_lock();
        cf_obs::quality::clear_window();
        cf_obs::drift::clear();
        // Distribution fully shifted: baseline mid-scale, stream at max.
        cf_obs::drift::set_baseline(std::iter::repeat_n(3.0, 64), 1.0, 5.0);
        for _ in 0..8 {
            cf_obs::drift::record_rating(5.0);
        }
        let cfg = DriftConfig {
            trip_windows: 3,
            min_observations: 4,
            cooldown: Duration::from_secs(3600),
            // Only the histogram signal participates in this test; other
            // tests in this binary feed the shared MAE window, so park
            // the MAE and fallback bands where they cannot trip.
            mae_trip_pm: i64::MAX,
            mae_clear_pm: i64::MAX,
            fallback_trip_pm: 1001,
            fallback_clear_pm: 1001,
            ..DriftConfig::default()
        };
        let mut m = DriftMonitor::new(cfg);
        assert!(!m.evaluate(), "window 1 of 3");
        assert!(!m.evaluate(), "window 2 of 3");
        assert_eq!(m.state(), DriftState::Drifting);
        assert!(m.evaluate(), "window 3 trips");
        m.note_rebuild_started();
        assert!(!m.evaluate(), "no trigger while rebuilding");
        m.note_rebuild_finished(true);
        assert_eq!(m.state(), DriftState::Cooldown);
        assert!(!m.evaluate(), "cooldown suppresses the still-high signal");
        cf_obs::drift::clear();
        cf_obs::quality::clear_window();
    }

    #[test]
    fn monitor_hysteresis_holds_streak_inside_the_band() {
        let _serial = windows_lock();
        cf_obs::quality::clear_window();
        cf_obs::drift::clear();
        cf_obs::drift::set_baseline(std::iter::repeat_n(3.0, 64), 1.0, 5.0);
        let cfg = DriftConfig {
            hist_trip_pm: 900,
            hist_clear_pm: 100,
            trip_windows: 2,
            min_observations: 4,
            cooldown: Duration::from_secs(3600),
            mae_trip_pm: i64::MAX,
            mae_clear_pm: i64::MAX,
            fallback_trip_pm: 1001,
            fallback_clear_pm: 1001,
            ..DriftConfig::default()
        };
        let mut m = DriftMonitor::new(cfg);
        // Fully shifted: above trip. One window of streak.
        for _ in 0..8 {
            cf_obs::drift::record_rating(5.0);
        }
        assert!(!m.evaluate());
        assert_eq!(m.state(), DriftState::Drifting);
        // Drop the distance inside the band (between clear and trip):
        // half the window back at baseline ≈ 500 pm. The streak must
        // hold — neither growing past the trip count nor resetting.
        for _ in 0..8 {
            cf_obs::drift::record_rating(3.0);
        }
        assert!(!m.evaluate(), "inside the band: no trip");
        assert_eq!(m.state(), DriftState::Drifting, "…and no reset either");
        // Back above trip: the held streak completes and trips.
        for _ in 0..64 {
            cf_obs::drift::record_rating(5.0);
        }
        assert!(m.evaluate(), "streak held through the band completes");
        cf_obs::drift::clear();
        cf_obs::quality::clear_window();
    }

    #[test]
    fn add_rating_validates_and_queues() {
        let _serial = windows_lock();
        let (d, model) = fitted();
        let healing = SelfHealingCfsf::new(
            model,
            DriftConfig {
                cooldown: Duration::from_secs(3600),
                ..DriftConfig::default()
            },
        )
        .unwrap();
        let (u, i) = unrated_cell(&d.matrix, 0);
        healing.add_rating(u, i, 4.0).unwrap();
        assert!(healing.add_rating(u, i, 4.0).is_err(), "duplicate pending");
        let (eu, ei, _) = d.matrix.triplets().next().unwrap();
        assert!(healing.add_rating(eu, ei, 3.0).is_err(), "already rated");
        assert!(healing
            .add_rating(UserId::new(99_999), ItemId::new(0), 3.0)
            .is_err());
        assert!(healing.add_rating(u, ItemId::new(1), 99.0).is_err());
        assert_eq!(healing.pending(), 1);
    }

    #[test]
    fn refresh_now_publishes_a_new_generation_with_merged_ratings() {
        let _serial = windows_lock();
        let (d, model) = fitted();
        let healing = SelfHealingCfsf::new(
            model,
            DriftConfig {
                cooldown: Duration::from_millis(1),
                ..DriftConfig::default()
            },
        )
        .unwrap();
        let before = healing.generation();
        let (u, i) = unrated_cell(&d.matrix, 3);
        healing.add_rating(u, i, 5.0).unwrap();
        let report = healing.refresh_now().unwrap();
        assert_eq!(report.kind, RefreshKind::Partial);
        assert_eq!(report.merged, 1);
        assert_eq!(report.dirty_users, 1);
        assert_eq!(report.generation, before + 1);
        assert_eq!(healing.generation(), before + 1);
        assert_eq!(healing.pending(), 0);
        let m = healing.model();
        assert_eq!(m.matrix().get(u, i), Some(5.0));
        assert!(m.predict(u, ItemId::new(0)).is_some());
        // The cell is rated now, so recommendations must skip it.
        let recs = m.recommend_top_n(u, d.matrix.num_items());
        assert!(!recs.is_empty());
        assert!(recs.iter().all(|&(item, _)| item != i));
    }

    #[test]
    fn churn_past_the_full_refit_fraction_escalates_to_a_full_refit() {
        let _serial = windows_lock();
        let (d, model) = fitted();
        let cfg = DriftConfig {
            full_refit_fraction: 0.0,
            ..DriftConfig::manual()
        };
        let healing = SelfHealingCfsf::new(model, cfg).unwrap();
        let mut from = 0;
        for _ in 0..5 {
            let (u, i) = unrated_cell(&d.matrix, from);
            healing.add_rating(u, i, 3.0).unwrap();
            from = u.raw() + 1;
        }
        let report = healing.refresh_now().unwrap();
        assert_eq!(report.kind, RefreshKind::Full);
        assert_eq!(report.merged, 5);
        assert_eq!(report.dirty_users, 5);
        assert_eq!(healing.pending(), 0);
    }

    /// A partial rebuild only patches the touched GIS rows and keeps the
    /// clusters; with no neighbor cap the patch is exact, so the result
    /// must equal a from-scratch GIS assembled over the same clusters.
    #[test]
    fn partial_generation_matches_a_frozen_cluster_rebuild() {
        let _serial = windows_lock();
        let d = SyntheticConfig::small().generate();
        let mut config = CfsfConfig::small();
        config.gis.max_neighbors = None;
        let model = Cfsf::fit(&d.matrix, config.clone()).unwrap();
        let healing = SelfHealingCfsf::new(model, DriftConfig::manual()).unwrap();
        let base = healing.model();
        let mut from = 0;
        for rating in [5.0, 1.0, 4.0, 2.0] {
            let (u, i) = unrated_cell(&d.matrix, from);
            healing.add_rating(u, i, rating).unwrap();
            from = u.raw() + 1;
        }
        assert_eq!(healing.refresh_now().unwrap().kind, RefreshKind::Partial);

        let partial = healing.model();
        let merged = partial.matrix().clone();
        let gis = Gis::build(&merged, &config.gis_config());
        let frozen = Cfsf::assemble(config, merged, gis, base.clusters.clone(), None);
        let mut compared = 0usize;
        for u in (0..d.matrix.num_users()).step_by(3) {
            for i in (0..d.matrix.num_items()).step_by(7) {
                let (user, item) = (UserId::from(u), ItemId::from(i));
                match (partial.predict(user, item), frozen.predict(user, item)) {
                    (Some(a), Some(b)) => {
                        assert!((a - b).abs() < 1e-9, "({u},{i}): {a} vs {b}");
                        compared += 1;
                    }
                    (None, None) => {}
                    other => panic!("availability differs at ({u},{i}): {other:?}"),
                }
            }
        }
        assert!(compared > 0);
    }

    #[test]
    fn background_trigger_swaps_without_blocking_readers() {
        let _serial = windows_lock();
        let (d, model) = fitted();
        let healing = SelfHealingCfsf::new(
            model,
            DriftConfig {
                cooldown: Duration::from_millis(1),
                ..DriftConfig::default()
            },
        )
        .unwrap();
        let (u, i) = unrated_cell(&d.matrix, 5);
        healing.add_rating(u, i, 5.0).unwrap();
        let cell = healing.cell();
        assert!(healing.trigger());
        // Readers keep being served while the worker rebuilds.
        let mut served = 0usize;
        while healing.generation() == 0 {
            let m = cell.load();
            let _ = m.predict(UserId::new(0), ItemId::new(0));
            served += 1;
            if served > 5_000_000 {
                break;
            }
        }
        healing.wait_idle();
        assert_eq!(healing.generation(), 1, "rebuild must have published");
        assert_eq!(healing.model().matrix().get(u, i), Some(5.0));
    }

    #[test]
    fn second_trigger_is_refused_while_one_is_in_flight() {
        let _serial = windows_lock();
        let (_, model) = fitted();
        let healing = SelfHealingCfsf::new(model, DriftConfig::default()).unwrap();
        assert!(healing.trigger());
        // Either refused outright (worker still running) or the first
        // one already finished; both are storm-free.
        let second = healing.trigger();
        healing.wait_idle();
        if second {
            healing.wait_idle();
            assert!(healing.generation() <= 2);
        }
        assert!(cf_obs::counter!("refresh.completed").get() >= 1);
    }

    #[test]
    fn drift_storm_at_floor_thresholds_is_rate_limited() {
        let _serial = windows_lock();
        let (d, model) = fitted();
        cf_obs::quality::clear_window();
        let cfg = DriftConfig {
            cooldown: Duration::from_secs(3600),
            ..DriftConfig::sensitive()
        };
        let healing = SelfHealingCfsf::new(model, cfg).unwrap();
        let started_before = cf_obs::counter!("refresh.started").get();
        // Hammer the detector: every add ticks it with thresholds at 0.
        let mut from = 0;
        for _ in 0..6 {
            let (u, i) = unrated_cell(&d.matrix, from);
            healing.add_rating(u, i, 5.0).unwrap();
            from = u.raw() + 1;
        }
        healing.wait_idle();
        let launched = cf_obs::counter!("refresh.started").get() - started_before;
        assert!(
            launched <= 1,
            "cooldown + single-flight must cap the storm, got {launched} rebuilds"
        );
        cf_obs::quality::clear_window();
        cf_obs::drift::clear();
    }
}
