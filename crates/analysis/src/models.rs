//! Model-checked ports of the repo's riskiest concurrent structures.
//!
//! Each model instantiates the **production core** — not a copy — with
//! the scheduler-instrumented [`crate::llsync::LLShim`] primitives and
//! asserts its invariants over every explored interleaving:
//!
//! - [`SlotInsertRaceModel`] — `cfsf_core::cache::NeighborSlots` under
//!   two inserts racing on one user's slot: both return the first
//!   writer's value, a hit never returns another user's value, and one
//!   entry is cached;
//! - [`ReservoirAdmissionModel`] — `cf_obs::reservoir::SlowReservoir`
//!   under racing admissions: bounded size, the maximum admitted key
//!   always survives, and the admission bar ends consistent with the
//!   held set;
//! - [`SlotPoisonResetModel`] — the poisoned-slot self-reset racing a
//!   writer: when the poison fully precedes the insert, the reset must
//!   not silently drop the writer's entry, the insert never panics, and
//!   the neighbouring slot keeps its entry;
//! - [`GenSwapModel`] — the refresh generation cell under publish racing
//!   readers: no torn `(model, generation)` pair, generations monotone;
//! - [`FleetScrapeModel`] — `cf_serve::fleet::FleetSync` under a poll
//!   racing a `/metrics` scrape: everything rendered within one scrape
//!   hold is mutually consistent (merged == per-shard sum), totals never
//!   run backwards;
//! - [`SloMergeModel`] — the SLO engine's cumulative differencing racing
//!   fleet ingestion across a shard restart: gauges never go negative or
//!   wrap, whatever snapshot the reader lands on;
//! - [`RacyCellModel`] — the seeded-race fixture: an unguarded
//!   [`LLCell`] increment the happens-before detector **must** report
//!   (the gate requires the failure), plus the mutex-fixed variant that
//!   must pass exhaustively.
//!
//! [`run_builtin_models`] runs them all exhaustively (the CI gate).

use cf_matrix::UserId;
use cf_obs::reservoir::SlowReservoir;
use cf_obs::sync::{Ordering, ShimAtomicU64};
use cfsf_core::cache::NeighborSlots;

use crate::llsync::{LLAtomicU64, LLShim};
use crate::sched::{Explorer, Mode, Model, Report};

// --------------------------------------------------------------------------
// Model A: two inserts racing on one slot
// --------------------------------------------------------------------------

/// Two threads insert different values for user 0 into a two-slot
/// table, thread 1 looking user 0 up before its insert. First writer
/// wins: both inserts return the same value, which ends as the only
/// cached entry, and the lookup sees nothing or thread 0's value. User
/// 1's slot stays empty throughout.
pub struct SlotInsertRaceModel;

/// Shared state of [`SlotInsertRaceModel`].
pub struct SlotInsertState {
    cache: NeighborSlots<LLShim, u32>,
    /// What each thread's insert returned (0 = not yet).
    returned: [LLAtomicU64; 2],
}

impl Model for SlotInsertRaceModel {
    type State = SlotInsertState;

    fn name(&self) -> &'static str {
        "slot-insert-race"
    }

    fn threads(&self) -> usize {
        2
    }

    fn make_state(&self) -> SlotInsertState {
        SlotInsertState {
            cache: NeighborSlots::new(2),
            returned: [ShimAtomicU64::new(0), ShimAtomicU64::new(0)],
        }
    }

    fn run_thread(&self, tid: usize, st: &SlotInsertState) {
        let user = UserId::new(0);
        if tid == 1 {
            // Before this thread's own insert, only thread 0's value can
            // be cached.
            if let Some(v) = st.cache.get(user) {
                assert_eq!(v, 100, "hit before inserting returned {v}");
            }
        }
        let value = 100 * (tid as u32 + 1);
        let stored = st.cache.insert(user, value);
        st.returned[tid].store(u64::from(stored), Ordering::Relaxed);
    }

    fn check(&self, st: &SlotInsertState) -> Result<(), String> {
        let returned = st.returned.each_ref().map(|r| r.load(Ordering::Relaxed));
        if returned[0] != returned[1] || !matches!(returned[0], 100 | 200) {
            return Err(format!("racing inserts returned {returned:?}"));
        }
        let cached = st.cache.get(UserId::new(0)).map(u64::from);
        if cached != Some(returned[0]) {
            return Err(format!(
                "slot holds {cached:?}, inserts returned {returned:?}"
            ));
        }
        if let Some(v) = st.cache.get(UserId::new(1)) {
            return Err(format!("user 1 was never inserted, yet holds {v}"));
        }
        match st.cache.len() {
            1 => Ok(()),
            len => Err(format!("expected 1 cached entry, got {len}")),
        }
    }
}

// --------------------------------------------------------------------------
// Model B: slow-reservoir admission
// --------------------------------------------------------------------------

/// Three threads race distinct keys through the lock-free admission bar
/// into a capacity-2 reservoir.
pub struct ReservoirAdmissionModel;

/// Shared state of [`ReservoirAdmissionModel`].
pub struct ReservoirState {
    res: SlowReservoir<LLShim, u32>,
}

impl Model for ReservoirAdmissionModel {
    type State = ReservoirState;

    fn name(&self) -> &'static str {
        "reservoir-admission"
    }

    fn threads(&self) -> usize {
        3
    }

    fn make_state(&self) -> ReservoirState {
        ReservoirState {
            res: SlowReservoir::new(2),
        }
    }

    fn run_thread(&self, tid: usize, st: &ReservoirState) {
        // Distinct "latencies": 10, 20, 30.
        let key = (tid as u64 + 1) * 10;
        // The production call pattern: lock-free pre-check, then admit.
        if st.res.should_admit(key) {
            st.res.admit(key, key as u32);
        }
    }

    fn check(&self, st: &ReservoirState) -> Result<(), String> {
        let snap = st.res.snapshot_sorted();
        if snap.len() > 2 {
            return Err(format!("reservoir holds {} > capacity 2", snap.len()));
        }
        if snap.len() != 2 {
            return Err(format!(
                "three admissions into capacity 2 must end full, got {}",
                snap.len()
            ));
        }
        // The maximum key always passes every bar it can observe (the
        // bar never exceeds min+1 <= 21 <= 30), so it must survive.
        if snap[0].0 != 30 {
            return Err(format!(
                "maximum key 30 displaced; slowest held is {}",
                snap[0].0
            ));
        }
        // Bar consistency: full reservoir => bar == final minimum + 1.
        let min = snap.iter().map(|&(k, _)| k).min().unwrap_or(0);
        if st.res.bar() != min + 1 {
            return Err(format!("bar {} inconsistent with min {min}", st.res.bar()));
        }
        Ok(())
    }
}

// --------------------------------------------------------------------------
// Model C: poisoned-slot reset vs concurrent writer
// --------------------------------------------------------------------------

/// One thread poisons user 0's slot (as a panicking writer would) while
/// another inserts for that user; a logical clock orders the two
/// completions so the final check can assert the happened-before case
/// exactly. User 1's slot sits beside it.
pub struct SlotPoisonResetModel;

/// Shared state of [`SlotPoisonResetModel`].
pub struct SlotPoisonState {
    cache: NeighborSlots<LLShim, u32>,
    clock: LLAtomicU64,
    /// Clock stamp *after* `poison` returned (0 = not yet).
    poison_done: LLAtomicU64,
    /// Clock stamp *before* the insert began (0 = not yet).
    insert_start: LLAtomicU64,
    /// What the insert returned (0 = not yet).
    stored: LLAtomicU64,
}

impl Model for SlotPoisonResetModel {
    type State = SlotPoisonState;

    fn name(&self) -> &'static str {
        "slot-poison-reset"
    }

    fn threads(&self) -> usize {
        2
    }

    fn make_state(&self) -> SlotPoisonState {
        let cache = NeighborSlots::new(2);
        // User 0's stale entry, which a reset may drop, and user 1's,
        // which nothing may touch.
        cache.insert(UserId::new(0), 100);
        cache.insert(UserId::new(1), 101);
        SlotPoisonState {
            cache,
            clock: ShimAtomicU64::new(1),
            poison_done: ShimAtomicU64::new(0),
            insert_start: ShimAtomicU64::new(0),
            stored: ShimAtomicU64::new(0),
        }
    }

    fn run_thread(&self, tid: usize, st: &SlotPoisonState) {
        if tid == 0 {
            st.cache.poison(UserId::new(0));
            let stamp = st.clock.fetch_add(1, Ordering::SeqCst);
            st.poison_done.store(stamp, Ordering::Relaxed);
        } else {
            let stamp = st.clock.fetch_add(1, Ordering::SeqCst);
            st.insert_start.store(stamp, Ordering::Relaxed);
            // Must never panic, poisoned or not.
            let stored = st.cache.insert(UserId::new(0), 105);
            st.stored.store(u64::from(stored), Ordering::Relaxed);
        }
    }

    fn check(&self, st: &SlotPoisonState) -> Result<(), String> {
        let p = st.poison_done.load(Ordering::Relaxed);
        let i = st.insert_start.load(Ordering::Relaxed);
        if p == 0 || i == 0 {
            return Err("both threads must have stamped the clock".into());
        }
        let stored = st.stored.load(Ordering::Relaxed);
        if p < i {
            // The poison fully completed before the insert began: the
            // insert observed the poison, reset the slot, and inserted
            // into it. The reset must not have dropped that entry, nor
            // served the stale one.
            let cached = st.cache.get(UserId::new(0));
            if stored != 105 || cached != Some(105) {
                return Err(format!(
                    "poison happened-before insert, but the insert returned {stored} \
                     and user 0 holds {cached:?}"
                ));
            }
        } else if !matches!(stored, 100 | 105) {
            return Err(format!("insert returned {stored}"));
        }
        match st.cache.get(UserId::new(1)) {
            Some(101) => Ok(()),
            other => Err(format!("the reset touched user 1's slot: {other:?}")),
        }
    }
}

// --------------------------------------------------------------------------
// Model D: generation-cell publish vs readers
// --------------------------------------------------------------------------

use cfsf_core::refresh::GenCellCore;
use std::sync::Arc;

/// The RCU generation pointer behind zero-pause refresh
/// (`cfsf_core::refresh::GenCellCore`): a writer publishes two new
/// generations while a reader snapshots `(value, generation)` pairs.
/// The payload is the generation number it was published under, so a
/// torn pair — a reader seeing generation `k`'s value with generation
/// `j`'s number — is directly observable. The reader also asserts the
/// generation never runs backwards under any interleaving.
pub struct GenSwapModel;

/// Shared state of [`GenSwapModel`].
pub struct GenSwapState {
    cell: GenCellCore<LLShim, u64>,
}

impl Model for GenSwapModel {
    type State = GenSwapState;

    fn name(&self) -> &'static str {
        "gen-swap"
    }

    fn threads(&self) -> usize {
        2
    }

    fn make_state(&self) -> GenSwapState {
        GenSwapState {
            // Invariant: the served value always equals the generation it
            // was published under (generation 0 serves 0).
            cell: GenCellCore::new(Arc::new(0)),
        }
    }

    fn run_thread(&self, tid: usize, st: &GenSwapState) {
        if tid == 0 {
            // The refresh worker: publish generation 1, then 2, each
            // fully built before the swap (value == generation).
            let gen = st.cell.publish(Arc::new(1));
            assert_eq!(gen, 1, "first publish must be generation 1");
            let gen = st.cell.publish(Arc::new(2));
            assert_eq!(gen, 2, "second publish must be generation 2");
        } else {
            // The serving thread: two consistent-pair snapshots.
            let mut last_gen = 0;
            for _ in 0..2 {
                let (value, generation) = st.cell.load_with_generation();
                assert_eq!(
                    *value, generation,
                    "torn pair: value {value} under generation {generation}"
                );
                assert!(
                    generation >= last_gen,
                    "generation ran backwards: {generation} after {last_gen}"
                );
                last_gen = generation;
            }
        }
    }

    fn check(&self, st: &GenSwapState) -> Result<(), String> {
        let (value, generation) = st.cell.load_with_generation();
        if generation != 2 || *value != 2 {
            return Err(format!(
                "after both publishes the cell must serve (2, 2), got ({value}, {generation})"
            ));
        }
        if st.cell.is_poisoned() {
            return Err("no thread panicked, yet the slot ended poisoned".into());
        }
        Ok(())
    }
}

// --------------------------------------------------------------------------
// Model E: fleet poll vs /metrics scrape
// --------------------------------------------------------------------------

use std::time::{Duration, Instant};

use cf_obs::merge::MergeSnapshot;
use cf_obs::slo::{SloKind, SloSpec};
use cf_serve::fleet::FleetSync;
use cf_serve::frame::WireStats;

/// Builds a shard stats frame whose snapshot carries `reqs` on the
/// `reqs` counter (and `bad` on `bad`), the shape the SLO ratio spec
/// below consumes.
fn stats_frame(shard_id: u32, generation: u64, reqs: u64, bad: u64) -> WireStats {
    let reg = cf_obs::Registry::new();
    reg.counter("reqs").add(reqs);
    reg.counter("bad").add(bad);
    WireStats {
        shard_id,
        generation,
        snapshot: MergeSnapshot::of(&reg).to_bytes(),
    }
}

/// The router's fleet aggregation core (`cf_serve::fleet::FleetSync`)
/// under a poll racing a `/metrics` scrape. `ingest` takes the state
/// lock per slot, so a scrape can land *between* two slot updates — the
/// invariant is that everything read within one [`FleetSync::scrape`]
/// hold is consistent: the merged counter equals the sum of the
/// per-shard counters it renders next to, and successive scrapes never
/// see cumulative totals step backwards.
pub struct FleetScrapeModel;

/// Shared state of [`FleetScrapeModel`].
pub struct FleetScrapeState {
    fleet: FleetSync<LLShim>,
    update: [WireStats; 2],
}

impl FleetScrapeModel {
    /// Sum of the `reqs` counter across a consistent fleet view, plus
    /// the merged value — computed inside one scrape hold.
    fn scrape_totals(fleet: &FleetSync<LLShim>) -> (u64, u64) {
        fleet.scrape(|state| {
            let merged = state.merged().counters.get("reqs").copied().unwrap_or(0);
            let by_shard = state
                .shards()
                .iter()
                .flatten()
                .map(|e| e.snapshot.counters.get("reqs").copied().unwrap_or(0))
                .sum();
            (merged, by_shard)
        })
    }
}

impl Model for FleetScrapeModel {
    type State = FleetScrapeState;

    fn name(&self) -> &'static str {
        "fleet-scrape"
    }

    fn threads(&self) -> usize {
        2
    }

    fn make_state(&self) -> FleetScrapeState {
        let fleet = FleetSync::new(2, Vec::new(), Vec::new());
        // Baseline poll (free-pass: no scheduling during make_state).
        fleet.ingest(&[Some(stats_frame(0, 1, 1, 0)), Some(stats_frame(1, 1, 2, 0))]);
        FleetScrapeState {
            fleet,
            update: [stats_frame(0, 2, 3, 0), stats_frame(1, 2, 5, 0)],
        }
    }

    fn run_thread(&self, tid: usize, st: &FleetScrapeState) {
        if tid == 0 {
            // The poller: a fresh batch for both slots. The per-slot
            // lock grain means the scraper can observe slot 0 updated
            // while slot 1 is still the baseline.
            let fresh = st
                .fleet
                .ingest(&[Some(st.update[0].clone()), Some(st.update[1].clone())]);
            assert_eq!(fresh, 2, "both decodable polls must be fresh");
        } else {
            // The scraper: two consistent reads.
            let mut last = 0;
            for _ in 0..2 {
                let (merged, by_shard) = Self::scrape_totals(&st.fleet);
                assert_eq!(
                    merged, by_shard,
                    "one scrape rendered merged {merged} next to per-shard sum {by_shard}"
                );
                assert!(
                    merged >= last,
                    "cumulative totals ran backwards: {merged} after {last}"
                );
                last = merged;
            }
        }
    }

    fn check(&self, st: &FleetScrapeState) -> Result<(), String> {
        let (merged, by_shard) = Self::scrape_totals(&st.fleet);
        if merged != 8 || by_shard != 8 {
            return Err(format!(
                "after the full poll the fleet must total (8, 8), got ({merged}, {by_shard})"
            ));
        }
        Ok(())
    }
}

// --------------------------------------------------------------------------
// Model F: SLO cumulative-diff vs merge ingestion
// --------------------------------------------------------------------------

/// The SLO engine's cumulative differencing racing fleet ingestion —
/// including the nasty case: a shard *restart* reports a lower
/// cumulative total, so the merged snapshot regresses between ticks.
/// The engine's window diffs must saturate at zero (never go negative,
/// never wrap into an astronomic burn rate) no matter where the
/// reader's gauge snapshot lands between the ticks.
pub struct SloMergeModel;

/// Shared state of [`SloMergeModel`].
pub struct SloMergeState {
    fleet: FleetSync<LLShim>,
    base: Instant,
    /// Tick 1: 10 requests, 2 bad. Tick 2 (restarted shard): 4, 0.
    ticks: [WireStats; 2],
}

impl Model for SloMergeModel {
    type State = SloMergeState;

    fn name(&self) -> &'static str {
        "slo-merge"
    }

    fn threads(&self) -> usize {
        2
    }

    fn make_state(&self) -> SloMergeState {
        let spec = SloSpec {
            name: "deg".to_string(),
            kind: SloKind::Ratio {
                bad: vec!["bad".to_string()],
                total: vec!["reqs".to_string()],
                budget_pm: 100,
            },
        };
        SloMergeState {
            fleet: FleetSync::new(1, vec![spec], vec![Duration::from_secs(60)]),
            base: Instant::now(),
            ticks: [stats_frame(0, 1, 10, 2), stats_frame(0, 1, 4, 0)],
        }
    }

    fn run_thread(&self, tid: usize, st: &SloMergeState) {
        if tid == 0 {
            st.fleet.ingest(&[Some(st.ticks[0].clone())]);
            st.fleet.observe(st.base + Duration::from_secs(60));
            // The shard restarts: cumulative counters regress.
            st.fleet.ingest(&[Some(st.ticks[1].clone())]);
            st.fleet.observe(st.base + Duration::from_secs(120));
        } else {
            let gauges = st.fleet.gauges(st.base + Duration::from_secs(120));
            for (name, v) in gauges {
                assert!(v >= 0, "gauge {name} went negative: {v}");
                // Bad ratio is at most 1000‰, budget 100‰ → burn caps at
                // 10_000 milli; a wrapped diff would smash through this.
                assert!(v <= 10_000, "gauge {name} blew past any real ratio: {v}");
            }
        }
    }

    fn check(&self, st: &SloMergeState) -> Result<(), String> {
        for (name, v) in st.fleet.gauges(st.base + Duration::from_secs(120)) {
            if !(0..=10_000).contains(&v) {
                return Err(format!("final gauge {name} out of range: {v}"));
            }
        }
        let merged = st.fleet.merged();
        if merged.counters.get("reqs") != Some(&4) {
            return Err(format!(
                "final merged must hold the restarted shard's counters, got {:?}",
                merged.counters.get("reqs")
            ));
        }
        Ok(())
    }
}

// --------------------------------------------------------------------------
// Model G: seeded-race fixture (the detector must fire)
// --------------------------------------------------------------------------

use crate::llsync::{LLCell, LLMutex};
use cf_obs::sync::{ShimCell, ShimMutex};

/// A tracked plain cell ([`LLCell`]) incremented by two threads. With
/// `fixed: false` the increments are bare — a textbook data race the
/// happens-before detector must report (with both access sites and a
/// replayable schedule); with `fixed: true` the same accesses run under
/// a mutex and the model must pass exhaustively.
pub struct RacyCellModel {
    /// Guard the cell accesses with the mutex.
    pub fixed: bool,
    /// How many incrementing threads to run (the gate uses 2).
    pub threads: usize,
}

/// Shared state of [`RacyCellModel`].
pub struct RacyCellState {
    cell: LLCell<u64>,
    lock: LLMutex<()>,
}

impl Model for RacyCellModel {
    type State = RacyCellState;

    fn name(&self) -> &'static str {
        if self.fixed {
            "racy-cell-fixed"
        } else {
            "racy-cell"
        }
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn make_state(&self) -> RacyCellState {
        RacyCellState {
            cell: ShimCell::new(0),
            lock: ShimMutex::new(()),
        }
    }

    fn run_thread(&self, _tid: usize, st: &RacyCellState) {
        if self.fixed {
            let _g = st.lock.lock_recover();
            st.cell.set(st.cell.get() + 1);
        } else {
            // Unprotected read-modify-write on plain data: the detector,
            // not a lost-update check, is what must catch this.
            st.cell.set(st.cell.get() + 1);
        }
    }

    fn check(&self, st: &RacyCellState) -> Result<(), String> {
        if self.fixed && st.cell.get() != self.threads as u64 {
            return Err(format!(
                "serialized increments must total {}, got {}",
                self.threads,
                st.cell.get()
            ));
        }
        Ok(())
    }
}

// --------------------------------------------------------------------------
// Registry
// --------------------------------------------------------------------------

/// Names of the built-in models, in the order [`run_builtin_models`]
/// runs them.
pub const BUILTIN_MODELS: [&str; 8] = [
    "slot-insert-race",
    "reservoir-admission",
    "slot-poison-reset",
    "gen-swap",
    "fleet-scrape",
    "slo-merge",
    "racy-cell",
    "racy-cell-fixed",
];

/// One gate entry: a model's exploration report plus what the gate
/// expects of it.
pub struct ModelRun {
    /// The model's stable name.
    pub name: &'static str,
    /// `true` for the seeded-race fixture: the gate *requires* a failure
    /// whose message names a data race, proving the detector fires.
    pub expect_race: bool,
    /// The exploration report.
    pub report: Report,
}

/// Runs every built-in model exhaustively. This is what `cfsf-analyze`
/// gates CI on: every entry must pass — and the `expect_race` fixture
/// must *fail* with a data-race report.
pub fn run_builtin_models() -> Vec<ModelRun> {
    let explorer = Explorer::new(Mode::Exhaustive).with_max_steps(5_000);
    let run = |name, expect_race, report| ModelRun {
        name,
        expect_race,
        report,
    };
    vec![
        run("slot-insert-race", false, explorer.run(SlotInsertRaceModel)),
        run(
            "reservoir-admission",
            false,
            explorer.run(ReservoirAdmissionModel),
        ),
        run(
            "slot-poison-reset",
            false,
            explorer.run(SlotPoisonResetModel),
        ),
        run("gen-swap", false, explorer.run(GenSwapModel)),
        run("fleet-scrape", false, explorer.run(FleetScrapeModel)),
        run("slo-merge", false, explorer.run(SloMergeModel)),
        run(
            "racy-cell",
            true,
            explorer.run(RacyCellModel {
                fixed: false,
                threads: 2,
            }),
        ),
        run(
            "racy-cell-fixed",
            false,
            explorer.run(RacyCellModel {
                fixed: true,
                threads: 2,
            }),
        ),
    ]
}

/// Re-runs one built-in model under an explicit schedule (the binary's
/// `--replay` flag). Returns `None` for an unknown model name.
pub fn replay_builtin(name: &str, script: Vec<usize>) -> Option<Report> {
    let explorer = Explorer::new(Mode::Replay { script }).with_max_steps(5_000);
    match name {
        "slot-insert-race" => Some(explorer.run(SlotInsertRaceModel)),
        "reservoir-admission" => Some(explorer.run(ReservoirAdmissionModel)),
        "slot-poison-reset" => Some(explorer.run(SlotPoisonResetModel)),
        "gen-swap" => Some(explorer.run(GenSwapModel)),
        "fleet-scrape" => Some(explorer.run(FleetScrapeModel)),
        "slo-merge" => Some(explorer.run(SloMergeModel)),
        "racy-cell" => Some(explorer.run(RacyCellModel {
            fixed: false,
            threads: 2,
        })),
        "racy-cell-fixed" => Some(explorer.run(RacyCellModel {
            fixed: true,
            threads: 2,
        })),
        _ => None,
    }
}
