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
//!   a **partial** rebuild keeps the K-means assignment and patches the
//!   base generation in proportion to what the pending ratings can
//!   change (splices them into the matrix, rebuilds the GIS rows of the
//!   touched items, re-smooths and re-ranks only the clusters holding a
//!   rating user, re-encodes only the rewritten plane cells) and carries
//!   over every cached neighbor selection they cannot reach, bit-identical
//!   to re-deriving everything; a **full** refit reruns K-means too — and
//!   publishes the result through the cell. A partial generation shares
//!   with its base every dense row, row range and ranking it does not
//!   rewrite, so it costs what it touches. Each phase lands in a
//!   `refresh.phase.*_ns` histogram, and the drift baseline of a new
//!   generation is the served one's bucket counts plus the merged
//!   ratings. A panicking or failing rebuild is caught, counted
//!   (`refresh.failed`), and leaves the old generation serving.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar};
use std::time::{Duration, Instant};

use cf_cluster::SmoothPatch;
use cf_matrix::{ItemId, RatingMatrix, UserId, WeightPlanes};
use cf_obs::drift::BucketCounts;
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

/// The drift baseline of the generation published as `generation`: the
/// bucket counts of its matrix's ratings.
struct Baseline {
    generation: u64,
    counts: BucketCounts,
}

impl Baseline {
    fn of(model: &Cfsf, generation: u64) -> Self {
        let m = model.matrix();
        let mut counts = BucketCounts::new(m.scale().min, m.scale().max);
        counts.add(m.triplets().map(|(_, _, r)| r));
        Self { generation, counts }
    }
}

struct Shared {
    cell: Arc<GenCell<Cfsf>>,
    ingest: RecoverMutex<Ingest>,
    /// The served generation's drift baseline; only the rebuild path
    /// (single-flight) touches it.
    baseline: RecoverMutex<Baseline>,
    monitor: RecoverMutex<DriftMonitor>,
    cfg: DriftConfig,
    /// A rebuild is in flight (authoritative single-flight guard).
    busy: AtomicBool,
    /// `busy` is cleared under this lock and `idle` notified, so
    /// [`SelfHealingCfsf::wait_idle`] cannot miss the wake-up.
    idle_lock: RecoverMutex<()>,
    idle: Condvar,
}

impl Shared {
    /// Clears the in-flight flag and wakes [`SelfHealingCfsf::wait_idle`].
    fn clear_busy(&self) {
        cf_obs::gauge!("refresh.in_flight").set(0);
        let _idle = self.idle_lock.lock();
        self.busy.store(false, Ordering::Release);
        self.idle.notify_all();
    }
}

/// Clears the in-flight flag even if the rebuild path panics.
struct BusyGuard<'a>(&'a Shared);

impl Drop for BusyGuard<'_> {
    fn drop(&mut self) {
        self.0.clear_busy();
    }
}

/// The model's one background rebuild thread and its request channel.
/// It starts on the first background rebuild and runs until the
/// [`SelfHealingCfsf`] is dropped. One long-lived thread, rather than one
/// per rebuild, means every generation is allocated by the same thread
/// that freed its predecessors' memory: with a fresh thread per rebuild
/// the allocator could hand each one a different arena, and peak memory
/// then varied by about a generation between identical runs.
struct Worker {
    requests: mpsc::Sender<()>,
    handle: std::thread::JoinHandle<()>,
}

impl Worker {
    fn start(shared: &Arc<Shared>) -> std::io::Result<Self> {
        let (requests, inbox) = mpsc::channel::<()>();
        let shared = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name("cfsf-refresh".into())
            .spawn(move || {
                for () in inbox {
                    let _guard = BusyGuard(&shared);
                    // `run_rebuild` catches a panicking build; this keeps
                    // the worker serving later requests whatever else
                    // unwinds.
                    let _ = std::panic::catch_unwind(|| run_rebuild(&shared));
                }
            })?;
        Ok(Self { requests, handle })
    }
}

/// Which path a rebuild took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshKind {
    /// K-means assignment kept, and everything else patched from the
    /// base generation in proportion to what the merged ratings can
    /// change: the matrix spliced, the GIS rows of the touched items
    /// rebuilt, smoothing and iCluster redone for the clusters holding a
    /// rating user, only the rewritten plane cells re-encoded, and every
    /// neighbor selection those ratings cannot reach carried over.
    /// Bit-identical to re-deriving all of it over the merged matrix.
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
    /// Clusters re-smoothed: those holding a dirty user on the partial
    /// path, every cluster on a full refit.
    pub dirty_clusters: usize,
    /// Cached neighbor selections carried into the new generation (0 for
    /// a full refit, or when the weight planes had to be re-folded).
    pub carried_selections: usize,
    /// Smoothed dense rows the new generation does not share with the
    /// served one (0 for a full refit, which builds every row afresh).
    pub dense_rows_copied: usize,
    /// The generation number the rebuild published.
    pub generation: u64,
}

/// A [`Cfsf`] that keeps itself fresh: ingests live ratings, watches the
/// drift signals, and — when the [`DriftMonitor`] trips — rebuilds on a
/// background thread and publishes through a [`GenCell`], so serving
/// never pauses and a failed rebuild leaves the old generation up.
pub struct SelfHealingCfsf {
    shared: Arc<Shared>,
    worker: RecoverMutex<Option<Worker>>,
}

impl SelfHealingCfsf {
    /// Wraps a fitted model as generation 0 and installs its training
    /// distribution as the drift baseline.
    pub fn new(model: Cfsf, cfg: DriftConfig) -> Result<Self, CfsfError> {
        cfg.validate()?;
        let baseline = Baseline::of(&model, 0);
        cf_obs::drift::set_baseline_counts(&baseline.counts);
        // Register the refresh counters up front so a snapshot carries
        // explicit zeros — absent vs zero matters to the chaos gates.
        cf_obs::counter!("refresh.started").add(0);
        cf_obs::counter!("refresh.completed").add(0);
        cf_obs::counter!("refresh.failed").add(0);
        cf_obs::counter!("refresh.panicked").add(0);
        cf_obs::counter!("refresh.cache_carried").add(0);
        cf_obs::counter!("refresh.cache_dropped").add(0);
        cf_obs::counter!("refresh.planes_refolded").add(0);
        cf_obs::counter!("refresh.dense_rows_copied").add(0);
        cf_obs::gauge!("refresh.generation").set(0);
        cf_obs::gauge!("refresh.in_flight").set(0);
        Ok(Self {
            shared: Arc::new(Shared {
                cell: Arc::new(GenCell::new(Arc::new(model))),
                ingest: RecoverMutex::new(Ingest {
                    pending: Vec::new(),
                    churn_since_full: 0,
                }),
                baseline: RecoverMutex::new(baseline),
                monitor: RecoverMutex::new(DriftMonitor::new(cfg.clone())),
                cfg,
                busy: AtomicBool::new(false),
                idle_lock: RecoverMutex::new(()),
                idle: Condvar::new(),
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
            self.request_rebuild();
        }
    }

    /// Forces a background rebuild regardless of drift (operator
    /// override, chaos drills). Returns `false` when one is already in
    /// flight.
    pub fn trigger(&self) -> bool {
        self.request_rebuild()
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
        let _guard = BusyGuard(&self.shared);
        cf_obs::gauge!("refresh.in_flight").set(1);
        self.shared.monitor.lock().note_rebuild_started();
        run_rebuild(&self.shared)
    }

    fn request_rebuild(&self) -> bool {
        if self.shared.busy.swap(true, Ordering::AcqRel) {
            return false;
        }
        cf_obs::gauge!("refresh.in_flight").set(1);
        self.shared.monitor.lock().note_rebuild_started();
        let mut worker = self.worker.lock();
        if worker.is_none() {
            *worker = Worker::start(&self.shared).ok();
        }
        if worker.as_ref().is_some_and(|w| w.requests.send(()).is_ok()) {
            return true;
        }
        // Could not start the worker, or it is gone: count a failed
        // refresh, leave the old generation serving, and start a worker
        // afresh next time.
        *worker = None;
        drop(worker);
        cf_obs::counter!("refresh.failed").inc();
        self.shared.monitor.lock().note_rebuild_finished(false);
        self.shared.clear_busy();
        false
    }

    /// Blocks until no rebuild is in flight (tests, shutdown).
    pub fn wait_idle(&self) {
        let mut idle = self.shared.idle_lock.lock();
        while self.shared.busy.load(Ordering::Acquire) {
            idle = self
                .shared
                .idle
                .wait(idle)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

impl Drop for SelfHealingCfsf {
    fn drop(&mut self) {
        // Closing the channel lets the worker finish the rebuild it was
        // asked for, if any, and exit.
        let worker = self.worker.lock().take();
        if let Some(Worker { requests, handle }) = worker {
            drop(requests);
            let _ = handle.join();
        }
    }
}

/// The rebuild pass: copy the pending ratings, build a complete new
/// [`Cfsf`] off to the side, publish it through the cell. Runs on the
/// worker thread (or inline for [`SelfHealingCfsf::refresh_now`]); the
/// served generation is untouched until the final `publish`, and any
/// panic is caught here — counted, traced, old generation keeps serving.
fn run_rebuild(shared: &Shared) -> Result<RebuildReport, CfsfError> {
    cf_obs::counter!("refresh.started").inc();
    cf_obs::trace::note("refresh.rebuild_started");
    let (base, base_generation) = shared.cell.load_with_generation();
    // Build from a copy: the pending ratings stay queued, so a duplicate
    // of an in-flight cell is still refused and a failed rebuild has
    // nothing to restore.
    let (pending, churn_since_full) = {
        let ingest = shared.ingest.lock();
        (ingest.pending.clone(), ingest.churn_since_full)
    };

    let built = std::panic::catch_unwind(|| {
        cf_obs::time_scope!("refresh.rebuild_ns");
        build_generation(&base, &shared.cfg, &pending, churn_since_full)
    });

    match built {
        Ok(Ok(Built {
            model,
            kind,
            dirty_clusters,
            carried_selections,
            dense_rows_copied,
        })) => {
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
            // Both paths publish the base's ratings plus `pending`, so the
            // base's counts plus `pending` are the new matrix's counts.
            {
                let mut baseline = shared.baseline.lock();
                if baseline.generation == base_generation {
                    baseline.counts.add(pending.iter().map(|&(_, _, r)| r));
                    baseline.generation = generation;
                } else {
                    *baseline = Baseline::of(&published, generation);
                }
                cf_obs::drift::set_baseline_counts(&baseline.counts);
            }
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
                dirty_clusters,
                carried_selections,
                dense_rows_copied,
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

/// A generation [`build_generation`] built, with what the rebuild
/// report needs to know about it.
struct Built {
    model: Cfsf,
    kind: RefreshKind,
    dirty_clusters: usize,
    carried_selections: usize,
    dense_rows_copied: usize,
}

/// Times consecutive rebuild phases with one clock read per boundary:
/// each lap ends one phase and starts the next.
struct PhaseClock(Instant);

impl PhaseClock {
    fn lap(&mut self, phase: &cf_obs::Histogram) {
        let now = Instant::now();
        phase.record_duration(now - self.0);
        self.0 = now;
    }
}

/// Builds the next generation completely off to the side, inheriting
/// the base's neighbor-cache bound. The merged matrix is `base`'s with
/// `pending` spliced in. Heavy churn since the last full refit (or an
/// empty `pending`) refits from scratch; otherwise
/// [`partial_generation`] patches `base`.
fn build_generation(
    base: &Cfsf,
    cfg: &DriftConfig,
    pending: &[(UserId, ItemId, f64)],
    churn_since_full: usize,
) -> Result<Built, CfsfError> {
    #[cfg(feature = "faultinject")]
    {
        cf_faultinject::maybe_stall("refresh.worker_stall");
        cf_faultinject::maybe_panic("refresh.worker_panic");
    }

    let mut clock = PhaseClock(Instant::now());
    let merged = base
        .matrix
        .with_ratings(pending)
        .map_err(|e| CfsfError::RefreshFailed {
            message: format!("merged matrix failed validation: {e}"),
        })?;
    clock.lap(cf_obs::histogram!("refresh.phase.merge_ns"));
    let would_be_churn = churn_since_full + pending.len();
    let escalate = would_be_churn as f64 > cfg.full_refit_fraction * merged.num_ratings() as f64;

    let built = if escalate || pending.is_empty() {
        // An empty rebuild (drift tripped with nothing pending — e.g. a
        // pure fallback-rate trip) refits on the same data: K-means may
        // land a better local optimum, and the baseline resets. New
        // clusters move every input of every selection: nothing carries.
        let mut model = Cfsf::fit(&merged, base.config.clone())?;
        model.set_neighbor_cache_capacity(base.neighbor_cache_capacity());
        cf_obs::counter!("refresh.cache_dropped").add(base.neighbor_cache_len() as u64);
        Built {
            dirty_clusters: model.clusters.k(),
            model,
            kind: RefreshKind::Full,
            carried_selections: 0,
            dense_rows_copied: 0,
        }
    } else {
        partial_generation(base, merged, pending, clock)
    };

    #[cfg(feature = "faultinject")]
    if cf_faultinject::fires("refresh.fail_before_commit") {
        return Err(CfsfError::RefreshFailed {
            message: "injected fault before generation publish".into(),
        });
    }
    Ok(built)
}

/// The partial rebuild: `base` with its K-means assignment frozen and
/// every other structure patched where `pending` can change it — the GIS
/// rows of the touched items, smoothing and iCluster for the clusters
/// holding a rating user ([`cf_cluster::Smoothed::patched`],
/// [`cf_cluster::ICluster::patched`]), and the plane cells smoothing
/// rewrote, unless the new dense store calibrates another code range
/// (then the planes are folded in full). The result is bit-identical to
/// [`Cfsf::assemble`] of the merged matrix, the patched GIS and
/// `base`'s clusters. Finally every cached selection `pending` cannot
/// reach is carried over ([`carry_selections`]). With the merge, the
/// phases timed here cover the whole rebuild end to end.
fn partial_generation(
    base: &Cfsf,
    merged: RatingMatrix,
    pending: &[(UserId, ItemId, f64)],
    mut clock: PhaseClock,
) -> Built {
    let stale_items: Vec<ItemId> = pending.iter().map(|&(_, i, _)| i).collect();
    let mut gis = base.gis.clone();
    gis.rebuild_items(&merged, &stale_items, &base.config.gis_config());
    clock.lap(cf_obs::histogram!("refresh.phase.gis_ns"));

    let dirty_users: Vec<UserId> = pending.iter().map(|&(u, _, _)| u).collect();
    let (smoothed, patch) = base.smoothed.patched(&merged, &base.clusters, &dirty_users);
    cf_obs::counter!("refresh.dense_rows_copied").add(patch.unshared_rows as u64);
    clock.lap(cf_obs::histogram!("refresh.phase.smooth_ns"));
    let icluster = base.icluster.patched(&merged, &smoothed, &patch);
    clock.lap(cf_obs::histogram!("refresh.phase.icluster_ns"));

    let num_items = merged.num_items();
    let mut refolded = false;
    let mut model = Cfsf::assemble_smoothed(
        base.config.clone(),
        merged,
        gis,
        base.clusters.clone(),
        smoothed,
        icluster,
        |dense, w| {
            // Smoothing rewrote the patch's cells; the raw store only
            // gained the pending cells.
            let patched = if base.config.use_smoothing {
                base.planes
                    .patched(dense, patch.cells(&base.clusters, num_items))
            } else {
                base.planes
                    .patched(dense, pending.iter().map(|&(u, i, _)| (u, i)))
            };
            let planes = patched.unwrap_or_else(|| {
                refolded = true;
                WeightPlanes::from_dense(dense, w)
            });
            clock.lap(cf_obs::histogram!("refresh.phase.planes_ns"));
            planes
        },
    );
    clock.lap(cf_obs::histogram!("refresh.phase.strips_ns"));
    model.set_neighbor_cache_capacity(base.neighbor_cache_capacity());
    let carried_selections = if refolded {
        cf_obs::counter!("refresh.planes_refolded").inc();
        cf_obs::counter!("refresh.cache_dropped").add(base.neighbor_cache_len() as u64);
        0
    } else {
        carry_selections(base, &model, &patch)
    };
    clock.lap(cf_obs::histogram!("refresh.phase.carry_ns"));
    Built {
        model,
        kind: RefreshKind::Partial,
        dirty_clusters: patch.dirty_clusters.len(),
        carried_selections,
        dense_rows_copied: patch.unshared_rows,
    }
}

/// Copies into `next`'s neighbor cache each of `base`'s cached
/// selections that `next` would compute bit for bit, and returns how
/// many it copied. A selection for user `u` reads `u`'s ratings and
/// mean, `u`'s iCluster ranking, and — for every member of each cluster
/// the harvest walks — the member's rating count, mean and plane row.
/// With the clusters frozen and the planes patched (not re-folded, so
/// every code outside the rewritten cells is unchanged), all of that is
/// bitwise unchanged when `u` is not dirty, `u`'s ranking is unchanged,
/// and no walked cluster holds a dirty user (only dirty clusters had
/// rows rewritten).
fn carry_selections(base: &Cfsf, next: &Cfsf, patch: &SmoothPatch) -> usize {
    let mut carried = 0;
    let mut dropped = 0;
    for (user, selection) in base.neighbor_cache.snapshot() {
        let ranking = next.icluster.ranking(user);
        let keeps = !patch.is_dirty_user(user)
            && ranking == base.icluster.ranking(user)
            && !ranking[..next.harvest_candidates(user, |_| {})]
                .iter()
                .any(|&c| patch.is_dirty_cluster(c as usize));
        if keeps {
            next.neighbor_cache.insert(user, selection);
            carried += 1;
        } else {
            dropped += 1;
        }
    }
    cf_obs::counter!("refresh.cache_carried").add(carried as u64);
    cf_obs::counter!("refresh.cache_dropped").add(dropped);
    carried
}

#[cfg(test)]
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
        static LOCK: RecoverMutex<()> = RecoverMutex::new(());
        LOCK.lock()
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
        let frozen = Cfsf::assemble(config, merged, gis, base.clusters.clone());
        let mut compared = 0usize;
        for u in (0..d.matrix.num_users()).step_by(3) {
            for i in (0..d.matrix.num_items()).step_by(7) {
                let (user, item) = (UserId::from(u), ItemId::from(i));
                match (partial.predict(user, item), frozen.predict(user, item)) {
                    (Some(a), Some(b)) => {
                        assert_eq!(a.to_bits(), b.to_bits(), "({u},{i}): {a} vs {b}");
                        compared += 1;
                    }
                    (None, None) => {}
                    other => panic!("availability differs at ({u},{i}): {other:?}"),
                }
            }
        }
        assert!(compared > 0);
    }

    /// A bounded neighbor cache keeps its bound across every swap: a
    /// rebuilt generation inherits the served one's capacity instead of
    /// the default.
    #[test]
    fn rebuilds_keep_the_neighbor_cache_bound() {
        let _serial = windows_lock();
        for full_refit_fraction in [1.0, 0.0] {
            let (d, mut model) = fitted();
            model.set_neighbor_cache_capacity(16);
            let cfg = DriftConfig {
                full_refit_fraction,
                ..DriftConfig::manual()
            };
            let healing = SelfHealingCfsf::new(model, cfg).unwrap();
            let (u, i) = unrated_cell(&d.matrix, 2);
            healing.add_rating(u, i, 4.0).unwrap();
            let report = healing.refresh_now().unwrap();
            let expected = if full_refit_fraction > 0.5 {
                RefreshKind::Partial
            } else {
                RefreshKind::Full
            };
            assert_eq!(report.kind, expected);
            assert_eq!(
                healing.model().neighbor_cache_capacity(),
                16,
                "{expected:?}"
            );
        }
    }

    /// Predicts one item for every user, so every user's selection is
    /// cached.
    fn warm_every_user(model: &Cfsf) {
        for u in 0..model.matrix().num_users() {
            let _ = model.predict(UserId::from(u), ItemId::new(0));
        }
    }

    /// Right after a swap nothing has predicted on the new generation, so
    /// its cache holds exactly the carried selections; each must equal
    /// what the new generation selects itself, bit for bit.
    fn assert_carried_selections_are_fresh(next: &Cfsf) -> Result<usize, String> {
        let carried = next.neighbor_cache.snapshot();
        for (user, selection) in &carried {
            let fresh = next.select_top_k(*user);
            let bits =
                |s: &[(UserId, f64)]| s.iter().map(|&(u, v)| (u, v.to_bits())).collect::<Vec<_>>();
            if bits(selection) != bits(&fresh) {
                return Err(format!(
                    "{user:?}: carried {selection:?} vs fresh {fresh:?}"
                ));
            }
        }
        Ok(carried.len())
    }

    #[test]
    fn carried_selections_equal_fresh_ones() {
        let _serial = windows_lock();
        let (d, model) = fitted();
        let cfg = DriftConfig {
            full_refit_fraction: 1.0,
            ..DriftConfig::manual()
        };
        let healing = SelfHealingCfsf::new(model, cfg).unwrap();
        warm_every_user(&healing.model());
        let carried_before = cf_obs::counter!("refresh.cache_carried").get();
        let (u, i) = unrated_cell(&d.matrix, 11);
        healing.add_rating(u, i, 2.0).unwrap();
        let report = healing.refresh_now().unwrap();
        assert_eq!(report.kind, RefreshKind::Partial);
        assert_eq!(report.dirty_clusters, 1);
        let next = healing.model();
        let carried = assert_carried_selections_are_fresh(&next).unwrap();
        assert_eq!(carried, report.carried_selections);
        assert!(
            carried > 0,
            "one rating must leave most selections untouched"
        );
        assert!(
            carried < d.matrix.num_users(),
            "the dirty user is never carried"
        );
        assert!(next.neighbor_cache.get(u).is_none());
        assert!(cf_obs::counter!("refresh.cache_carried").get() >= carried_before + carried as u64);
    }

    /// A rating below every stored value moves the planes' calibrated
    /// minimum, so every code moves: the planes re-fold and no selection
    /// may survive.
    #[test]
    fn a_rating_that_moves_the_plane_range_carries_nothing() {
        let _serial = windows_lock();
        let d = SyntheticConfig::small().generate();
        // Ratings squeezed into {3, 4}: smoothed cells stay within [2, 5].
        let mut b = cf_matrix::MatrixBuilder::with_dims(d.matrix.num_users(), d.matrix.num_items());
        for (u, i, r) in d.matrix.triplets() {
            b.push(u, i, if r >= 3.5 { 4.0 } else { 3.0 });
        }
        let squeezed = b.build().unwrap();
        let model = Cfsf::fit(&squeezed, CfsfConfig::small()).unwrap();
        let cfg = DriftConfig {
            full_refit_fraction: 1.0,
            ..DriftConfig::manual()
        };
        let healing = SelfHealingCfsf::new(model, cfg).unwrap();
        warm_every_user(&healing.model());
        let refolded_before = cf_obs::counter!("refresh.planes_refolded").get();
        let (u, i) = unrated_cell(&squeezed, 0);
        healing.add_rating(u, i, 1.0).unwrap();
        let report = healing.refresh_now().unwrap();
        assert_eq!(report.kind, RefreshKind::Partial);
        assert_eq!(report.carried_selections, 0);
        assert_eq!(healing.model().neighbor_cache_len(), 0);
        assert!(cf_obs::counter!("refresh.planes_refolded").get() > refolded_before);
    }

    #[test]
    fn a_full_refit_carries_nothing() {
        let _serial = windows_lock();
        let (d, model) = fitted();
        let cfg = DriftConfig {
            full_refit_fraction: 0.0,
            ..DriftConfig::manual()
        };
        let healing = SelfHealingCfsf::new(model, cfg).unwrap();
        warm_every_user(&healing.model());
        let dropped_before = cf_obs::counter!("refresh.cache_dropped").get();
        let (u, i) = unrated_cell(&d.matrix, 4);
        healing.add_rating(u, i, 3.0).unwrap();
        let report = healing.refresh_now().unwrap();
        assert_eq!(report.kind, RefreshKind::Full);
        assert_eq!(report.carried_selections, 0);
        assert_eq!(healing.model().neighbor_cache_len(), 0);
        let dropped = cf_obs::counter!("refresh.cache_dropped").get() - dropped_before;
        assert!(dropped >= d.matrix.num_users() as u64);
    }

    /// A partial rebuild copies only the smoothed rows its patch
    /// rewrites: every other row of the new generation is the base
    /// generation's allocation, the report and `refresh.dense_rows_copied`
    /// count the rest, and `refresh.phase.carry_ns` times the carry.
    #[test]
    fn a_partial_rebuild_shares_every_dense_row_it_does_not_rewrite() {
        let _serial = windows_lock();
        let (_, model) = fitted();
        let cfg = DriftConfig {
            full_refit_fraction: 1.0,
            ..DriftConfig::manual()
        };
        let healing = SelfHealingCfsf::new(model, cfg).unwrap();
        let copied_before = cf_obs::counter!("refresh.dense_rows_copied").get();
        let carries_before = cf_obs::histogram!("refresh.phase.carry_ns")
            .snapshot()
            .count;
        let mut copied = 0;
        for from in [3, 40, 77] {
            let base = healing.model();
            let (u, i) = unrated_cell(base.matrix(), from);
            healing.add_rating(u, i, 4.0).unwrap();
            let report = healing.refresh_now().unwrap();
            assert_eq!(report.kind, RefreshKind::Partial);
            let next = healing.model();
            // The patch this rebuild applied, derived again from the base.
            let (_, patch) = base.smoothed.patched(next.matrix(), &base.clusters, &[u]);
            let rewritten: BTreeSet<UserId> = patch
                .cells(&base.clusters, next.matrix().num_items())
                .map(|(user, _)| user)
                .collect();
            for v in next.matrix().users() {
                assert_eq!(
                    next.smoothed.dense.shares_row(&base.smoothed.dense, v),
                    !rewritten.contains(&v),
                    "{v:?}"
                );
            }
            assert!(rewritten.contains(&u));
            assert!(rewritten.len() < next.matrix().num_users());
            assert_eq!(report.dense_rows_copied, rewritten.len());
            copied += rewritten.len() as u64;
        }
        assert!(cf_obs::counter!("refresh.dense_rows_copied").get() >= copied_before + copied);
        let carries = cf_obs::histogram!("refresh.phase.carry_ns")
            .snapshot()
            .count;
        assert!(carries >= carries_before + 3);
    }

    /// After every link of a chain of partial rebuilds and full refits,
    /// the installed drift baseline — the base's counts plus the merged
    /// ratings — is bit for bit the one `set_baseline` derives from the
    /// published matrix.
    #[test]
    fn the_incremental_drift_baseline_equals_one_over_the_merged_matrix() {
        let _serial = windows_lock();
        let (_, model) = fitted();
        // Escalates to a full refit once more than 2.5 ratings have been
        // merged since the last one: every third rebuild of one rating.
        let cfg = DriftConfig {
            full_refit_fraction: 2.5 / model.matrix().num_ratings() as f64,
            ..DriftConfig::manual()
        };
        let healing = SelfHealingCfsf::new(model, cfg).unwrap();
        let bits = |p: [f64; cf_obs::drift::BUCKETS]| p.map(f64::to_bits);
        let mut kinds = Vec::new();
        for (k, rating) in [5.0, 1.0, 2.0, 4.0, 3.0, 1.0, 5.0].into_iter().enumerate() {
            let (u, i) = unrated_cell(healing.model().matrix(), 5 * k as u32);
            healing.add_rating(u, i, rating).unwrap();
            kinds.push(healing.refresh_now().unwrap().kind);
            let incremental = cf_obs::drift::baseline().expect("baseline installed");
            let m = healing.model().matrix().clone();
            let scale = m.scale();
            cf_obs::drift::set_baseline(m.triplets().map(|(_, _, r)| r), scale.min, scale.max);
            let fresh = cf_obs::drift::baseline().expect("baseline installed");
            assert_eq!(
                bits(incremental),
                bits(fresh),
                "rebuild {k} ({:?})",
                kinds[k]
            );
        }
        assert!(kinds.contains(&RefreshKind::Full));
        assert!(kinds.contains(&RefreshKind::Partial));
        cf_obs::drift::clear();
    }

    /// Every structure of two generations, compared bit for bit: the
    /// matrix (CSR, CSC, means), the dense store and the smoothed one
    /// (values and provenance), the deviations and imputation counts,
    /// the iCluster rankings and similarities, the planes (cells, row
    /// ranges, dequantization constants) and every prediction.
    fn assert_generations_identical(a: &Cfsf, b: &Cfsf) -> Result<(), String> {
        fn bits(v: &[f64]) -> Vec<u64> {
            v.iter().map(|x| x.to_bits()).collect()
        }
        fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
            if ok {
                Ok(())
            } else {
                Err(what())
            }
        }
        let (ma, mb) = (a.matrix(), b.matrix());
        check(
            (ma.num_users(), ma.num_items()) == (mb.num_users(), mb.num_items()),
            || "dimensions".into(),
        )?;
        for u in ma.users() {
            let ((ia, va), (ib, vb)) = (ma.user_row(u), mb.user_row(u));
            check(ia == ib && bits(va) == bits(vb), || {
                format!("CSR row {u:?}")
            })?;
        }
        for i in ma.items() {
            let ((ua, va), (ub, vb)) = (ma.item_col(i), mb.item_col(i));
            check(ua == ub && bits(va) == bits(vb), || {
                format!("CSC col {i:?}")
            })?;
        }
        check(bits(ma.user_means()) == bits(mb.user_means()), || {
            "user means".into()
        })?;
        check(bits(ma.item_means()) == bits(mb.item_means()), || {
            "item means".into()
        })?;
        check(
            ma.global_mean().to_bits() == mb.global_mean().to_bits(),
            || "global mean".into(),
        )?;
        for (da, db, name) in [
            (a.dense(), b.dense(), "dense"),
            (&a.smoothed.dense, &b.smoothed.dense, "smoothed"),
        ] {
            for u in ma.users() {
                check(bits(da.row(u)) == bits(db.row(u)), || {
                    format!("{name} row {u:?}: {:?} vs {:?}", da.row(u), db.row(u))
                })?;
                for i in ma.items() {
                    check(da.is_original(u, i) == db.is_original(u, i), || {
                        format!("{name} provenance ({u:?}, {i:?})")
                    })?;
                }
            }
        }
        let (sa, sb) = (&a.smoothed, &b.smoothed);
        for c in 0..sb.num_clusters() {
            check(
                bits(sa.deviation_row(c)) == bits(sb.deviation_row(c)),
                || format!("deviations of cluster {c}"),
            )?;
        }
        check(
            (sa.cells_from_cluster, sa.cells_from_fallback)
                == (sb.cells_from_cluster, sb.cells_from_fallback),
            || "imputation counts".into(),
        )?;
        for u in ma.users() {
            check(
                a.icluster.ranking(u) == b.icluster.ranking(u)
                    && bits(a.icluster.similarities(u)) == bits(b.icluster.similarities(u)),
                || format!("iCluster of {u:?}"),
            )?;
        }
        check(a.planes == b.planes, || "planes".into())?;
        for u in ma.users() {
            for i in ma.items() {
                let (pa, pb) = (a.predict(u, i), b.predict(u, i));
                check(pa.map(f64::to_bits) == pb.map(f64::to_bits), || {
                    format!("predict ({u:?}, {i:?}): {pa:?} vs {pb:?}")
                })?;
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
        /// A chain of partial rebuilds on small random matrices — with a
        /// capped or uncapped GIS, smoothing on or off — publishes, at
        /// every link, exactly the frozen-cluster `assemble` of the
        /// builder-merged matrix, and carries only selections equal to
        /// fresh ones.
        #[test]
        fn partial_rebuild_chains_are_bit_identical_to_frozen_cluster_assembly(
            base in proptest::collection::btree_map((0u32..30, 0u32..14), 1u32..=5, 60..180),
            batches in proptest::collection::vec(
                proptest::collection::vec(((0u32..30, 0u32..14), 1u32..=5), 1..5),
                3..6,
            ),
            variant in 0u32..4
        ) {
            let _serial = windows_lock();
            let mut b = cf_matrix::MatrixBuilder::with_dims(30, 14);
            for (&(u, i), &r) in &base {
                b.push(UserId::new(u), ItemId::new(i), f64::from(r));
            }
            let matrix = b.build().unwrap();
            let mut config = CfsfConfig {
                clusters: 5,
                k: 2,
                candidate_factor: 2,
                m: 5,
                threads: Some(1),
                ..CfsfConfig::small()
            };
            config.gis.max_neighbors = (variant & 1 == 1).then_some(3);
            config.use_smoothing = variant & 2 == 0;
            let model = Cfsf::fit(&matrix, config.clone()).unwrap();
            let cfg = DriftConfig {
                full_refit_fraction: 1.0,
                ..DriftConfig::manual()
            };
            let healing = SelfHealingCfsf::new(model, cfg).unwrap();
            for batch in batches {
                let before = healing.model();
                warm_every_user(&before);
                for ((u, i), r) in batch {
                    // Refused cells (already rated or pending) just drop out.
                    let _ = healing.add_rating(UserId::new(u), ItemId::new(i), f64::from(r));
                }
                let pending = healing.pending();
                if pending == 0 {
                    continue; // nothing to merge would be a full refit
                }
                let report = healing.refresh_now().map_err(|e| e.to_string())?;
                proptest::prop_assert_eq!(report.kind, RefreshKind::Partial);
                proptest::prop_assert_eq!(report.merged, pending);
                let next = healing.model();
                let carried = assert_carried_selections_are_fresh(&next)?;
                proptest::prop_assert_eq!(carried, report.carried_selections);

                let mut b = cf_matrix::MatrixBuilder::with_dims(30, 14);
                for (u, i, r) in before.matrix().triplets() {
                    b.push(u, i, r);
                }
                for (u, i, r) in next.matrix().triplets() {
                    if before.matrix().get(u, i).is_none() {
                        b.push(u, i, r);
                    }
                }
                let frozen = Cfsf::assemble(
                    config.clone(),
                    b.build().unwrap(),
                    next.gis.clone(),
                    before.clusters.clone(),
                );
                assert_generations_identical(&next, &frozen)?;
            }
        }
    }

    /// `model` saved to bytes and loaded back.
    fn reloaded(model: &Cfsf) -> Cfsf {
        let mut buf = Vec::new();
        model.save(&mut buf).unwrap();
        Cfsf::load(buf.as_slice()).unwrap()
    }

    /// A loaded model folds its planes rather than reading them, so
    /// self-healing a loaded model (`cfsf_cli serve --self-heal`) must
    /// publish, rebuild after rebuild, exactly what self-healing the
    /// fitted one publishes — with a capped or uncapped GIS, smoothing on
    /// or off — and every generation must survive its own save and load
    /// bit for bit.
    #[test]
    fn a_loaded_model_rebuilds_the_generations_of_the_fitted_one() {
        let _serial = windows_lock();
        let d = SyntheticConfig {
            num_users: 40,
            num_items: 50,
            mean_ratings_per_user: 12.0,
            min_ratings_per_user: 6,
            ..SyntheticConfig::small()
        }
        .generate();
        for variant in 0..4u32 {
            let mut config = CfsfConfig {
                threads: Some(1),
                ..CfsfConfig::small()
            };
            config.gis.max_neighbors = (variant & 1 == 1).then_some(5);
            config.use_smoothing = variant & 2 == 0;
            let fitted = Cfsf::fit(&d.matrix, config).unwrap();
            let loaded = reloaded(&fitted);
            let cfg = DriftConfig {
                full_refit_fraction: 1.0,
                ..DriftConfig::manual()
            };
            let wrappers = [fitted, loaded].map(|m| SelfHealingCfsf::new(m, cfg.clone()).unwrap());
            for (k, ratings) in [[2.0, 5.0, 4.0], [1.0, 3.0, 5.0], [4.0, 4.0, 2.0]]
                .into_iter()
                .enumerate()
            {
                let base = wrappers[0].model();
                let batch: Vec<(UserId, ItemId, f64)> = [1, 14, 27]
                    .into_iter()
                    .zip(ratings)
                    .map(|(from, r)| {
                        let (u, i) = unrated_cell(base.matrix(), from + 4 * k as u32);
                        (u, i, r)
                    })
                    .collect();
                for healing in &wrappers {
                    warm_every_user(&healing.model());
                    for &(u, i, r) in &batch {
                        healing.add_rating(u, i, r).unwrap();
                    }
                    let report = healing.refresh_now().unwrap();
                    assert_eq!(report.kind, RefreshKind::Partial, "variant {variant}");
                }
                let [a, b] = [0, 1].map(|w| wrappers[w].model());
                let context = |e: String| format!("variant {variant}, rebuild {k}: {e}");
                assert_generations_identical(&a, &b)
                    .map_err(context)
                    .unwrap();
                for generation in [&a, &b] {
                    assert_generations_identical(generation, &reloaded(generation))
                        .map_err(context)
                        .unwrap();
                }
            }
        }
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
    fn background_rebuilds_chain_and_the_worker_stops_on_drop() {
        let _serial = windows_lock();
        let (_, model) = fitted();
        let healing = SelfHealingCfsf::new(model, DriftConfig::manual()).unwrap();
        for k in 0..3u32 {
            let (u, i) = unrated_cell(healing.model().matrix(), 5 + k);
            healing.add_rating(u, i, 4.0).unwrap();
            assert!(healing.trigger(), "rebuild {k} must start");
            healing.wait_idle();
            assert_eq!(healing.model().matrix().get(u, i), Some(4.0));
        }
        assert_eq!(healing.generation(), 3);
        let cell = healing.cell();
        drop(healing);
        // The worker shares the model's state; once it has exited, this
        // handle is the last owner of the cell.
        assert_eq!(Arc::strong_count(&cell), 1);
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
