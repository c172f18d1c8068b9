//! loom-lite: a deterministic scheduler exploring thread interleavings.
//!
//! Real OS threads run the model's thread bodies, but exactly **one runs
//! at a time**: every synchronization operation (through the
//! [`crate::llsync::LLShim`] primitives) is a *yield point* where the
//! thread parks and the scheduler picks who proceeds. Because model
//! bodies only communicate through shim primitives, the schedule — the
//! sequence of picks — fully determines the execution, so:
//!
//! - **Exhaustive mode** runs a depth-first search over every schedule
//!   (the next schedule is derived by backtracking the last pick that
//!   had an untried alternative);
//! - **Random mode** samples schedules from a seeded xorshift generator —
//!   deterministic per seed, so a failing seed is a reproducer;
//! - **Replay mode** re-runs one recorded schedule exactly.
//!
//! Every failure carries the schedule that produced it (and the seed, in
//! random mode) plus printable replay instructions. Deadlocks (no ready
//! thread while some are unfinished) and step-bound overruns (livelock)
//! are failures too, not hangs.
//!
//! Two reductions keep the tree tractable:
//!
//! - **Sleep-set partial-order reduction** (exhaustive mode): each
//!   parked thread declares the operation it will perform next (its
//!   `OpId`); after a subtree for thread `t` is explored, `t` joins
//!   the *sleep set* of its later siblings and stays asleep until an
//!   operation **dependent** with its pending one executes. A schedule
//!   whose every ready thread sleeps is a guaranteed reordering of an
//!   already-explored one and is abandoned (counted in
//!   [`Report::sleep_pruned`]). Soundness rests on `dependent` being
//!   conservative: independent operations commute and cannot
//!   enable/disable each other, so commuting them cannot change any
//!   reachable state.
//! - **Optional state hashing**: when a model reports a state hash at a
//!   choice point and the (hash, progress, statuses, resources, sleep
//!   set, tracked-location digests) tuple was seen before, the subtree
//!   is skipped — sound when the hash covers all model-owned shared
//!   state, because the folded scheduler state determines the rest.
//!   Models with loops (spin retries) need this or a step bound to keep
//!   the tree finite. Caveat: tracked-cell *shadow* clocks are not
//!   folded, so race coverage is approximate under state-hash pruning —
//!   models built to exercise the race detector should not implement
//!   `state_hash`.
//!
//! The checker also maintains **vector clocks** ([`crate::vclock`]) at
//! every yield point: lock acquire/release and `Acquire`/`Release`
//! atomic edges build the happens-before relation that the weak-memory
//! store buffer and the [`crate::llsync::LLCell`] race detector consume.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, PoisonError};

use crate::vclock::VClock;

// --------------------------------------------------------------------------
// Shared execution context
// --------------------------------------------------------------------------

/// Thread id of the harness (constructor / checker) context: operations
/// from it free-pass without scheduling.
pub(crate) const HARNESS: usize = usize::MAX;

/// What a parked model thread is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    /// Spawned but not yet parked at its first yield point. The
    /// scheduler grants no slices until every thread has started —
    /// otherwise a grant could race the first park and replay would not
    /// be deterministic.
    NotStarted,
    /// Runnable: the scheduler may pick it at the next choice point.
    Ready,
    /// Waiting on resource `rid` (a lock another thread holds).
    Blocked(usize),
    /// The body returned (or unwound); never scheduled again.
    Finished,
}

/// One lock's scheduler-visible state (mutexes and rwlocks share this).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ResourceState {
    /// Exclusive holder (mutex owner or rwlock writer).
    pub writer: Option<usize>,
    /// Shared holders (rwlock readers).
    pub readers: usize,
    /// Poison flag (rwlocks only).
    pub poisoned: bool,
}

/// The shared-state operation a parked thread will perform when next
/// scheduled. Drives the sleep-set independence relation: two
/// operations are *dependent* when their order can matter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpId {
    /// Not yet known (thread start, or an op with no classification).
    /// Conservatively dependent with everything.
    Unknown,
    /// Any operation on lock resource `rid` (acquire, release, poison
    /// flag reads/writes).
    Lock(usize),
    /// Load of tracked atomic `id`.
    AtomicLoad(usize),
    /// Store or RMW of tracked atomic `id`.
    AtomicStore(usize),
    /// Read of tracked cell `id`.
    CellRead(usize),
    /// Write of tracked cell `id`.
    CellWrite(usize),
}

/// Conservative dependence: `false` only when the two operations
/// provably commute and cannot enable/disable each other. Same-location
/// load/load and read/read commute (loads touch only the reader's own
/// visibility floor); everything else on the same location does not.
pub(crate) fn dependent(a: OpId, b: OpId) -> bool {
    use OpId::*;
    match (a, b) {
        (Unknown, _) | (_, Unknown) => true,
        (Lock(x), Lock(y)) => x == y,
        (AtomicLoad(_), AtomicLoad(_)) => false,
        (AtomicLoad(x), AtomicStore(y)) | (AtomicStore(x), AtomicLoad(y)) => x == y,
        (AtomicStore(x), AtomicStore(y)) => x == y,
        (CellRead(_), CellRead(_)) => false,
        (CellRead(x), CellWrite(y)) | (CellWrite(x), CellRead(y)) => x == y,
        (CellWrite(x), CellWrite(y)) => x == y,
        _ => false,
    }
}

/// What kind of decision a [`Choice`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChoiceKind {
    /// Which ready thread ran.
    Thread,
    /// Which visible store-buffer value a relaxed load observed
    /// (index 0 = newest).
    Value,
}

/// Bitmask with the low `n` bits set (alternative masks; `n <= 64`).
fn full_mask(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// One recorded scheduling decision: which of the ready threads ran, or
/// which buffered value a load observed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Choice {
    /// Index *into the ready set* (thread choices) or value list that
    /// was chosen.
    pub chosen: usize,
    /// Size of the choice set at this point (for DFS backtracking).
    pub ready_len: usize,
    /// Thread pick or store-buffer value pick.
    pub kind: ChoiceKind,
    /// Bitmask over `0..ready_len` of indices DFS may explore at this
    /// node (thread choices exclude sleeping threads). Backtracking
    /// only advances to set bits.
    pub cand: u64,
}

pub(crate) struct CtxState {
    /// The thread currently allowed to run (`None` = scheduler's turn).
    pub active: Option<usize>,
    pub status: Vec<Status>,
    pub resources: Vec<ResourceState>,
    /// Scheduling decisions prescribed for this execution (DFS prefix or
    /// a replay script).
    pub script: Vec<usize>,
    pub cursor: usize,
    /// Decisions actually taken (the replay script of this execution).
    pub taken: Vec<Choice>,
    /// Per-thread count of yield points passed (progress vector).
    pub progress: Vec<u32>,
    /// Set on failure/prune: every parked thread unwinds via
    /// [`AbortToken`] instead of continuing.
    pub aborted: bool,
    /// First failure message observed (body panic, deadlock, …).
    pub failed: Option<String>,
    /// Random-mode generator state (unused otherwise).
    pub rng: u64,
    pub use_rng: bool,
    /// True when the execution was cut by the state-hash prune.
    pub pruned: bool,
    /// True when the execution was cut by the sleep-set prune.
    pub sleep_pruned: bool,
    /// Exhaustive-DFS mode: sleep sets are maintained and enforced.
    pub dfs: bool,
    /// Per-thread happens-before clock (index = tid).
    pub clocks: Vec<VClock>,
    /// Per-lock-resource clock (joined on release, acquired on lock).
    pub resource_clocks: Vec<VClock>,
    /// The operation each thread will perform when next scheduled.
    pub pending: Vec<OpId>,
    /// Sleep set as a tid bitmask (exhaustive mode only).
    pub sleep: u64,
    /// Per-tracked-location state digests (atomics fold their store
    /// buffer; folded into the prune key).
    pub tracked: Vec<u64>,
}

/// The shared handle between the scheduler and its worker threads.
pub(crate) struct ExecCtx {
    pub state: Mutex<CtxState>,
    pub cv: Condvar,
}

fn recover<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

impl ExecCtx {
    fn new(threads: usize, script: Vec<usize>, rng: u64, use_rng: bool, dfs: bool) -> Self {
        Self {
            state: Mutex::new(CtxState {
                active: None,
                status: vec![Status::NotStarted; threads],
                resources: Vec::new(),
                script,
                cursor: 0,
                taken: Vec::new(),
                progress: vec![0; threads],
                aborted: false,
                failed: None,
                rng,
                use_rng,
                pruned: false,
                sleep_pruned: false,
                dfs,
                clocks: (0..threads)
                    .map(|t| {
                        // Distinct starting epochs: C_t[t] = 1.
                        let mut c = VClock::new();
                        c.set(t, 1);
                        c
                    })
                    .collect(),
                resource_clocks: Vec::new(),
                pending: vec![OpId::Unknown; threads],
                sleep: 0,
                tracked: Vec::new(),
            }),
            cv: Condvar::new(),
        }
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, CtxState> {
        recover(self.state.lock())
    }

    /// Registers a new lock resource, returning its id.
    pub(crate) fn alloc_resource(&self) -> usize {
        let mut st = self.lock();
        st.resources.push(ResourceState::default());
        st.resource_clocks.push(VClock::new());
        st.resources.len() - 1
    }

    /// Registers a tracked location (atomic store buffer or data cell),
    /// returning its id for [`OpId`] classification and digests.
    pub(crate) fn alloc_tracked(&self) -> usize {
        let mut st = self.lock();
        st.tracked.push(0);
        st.tracked.len() - 1
    }

    /// Snapshot of thread `tid`'s happens-before clock.
    pub(crate) fn clock_of(&self, tid: usize) -> VClock {
        self.lock().clocks[tid].clone()
    }

    /// Joins `other` into thread `tid`'s clock (an acquire edge).
    pub(crate) fn join_clock(&self, tid: usize, other: &VClock) {
        self.lock().clocks[tid].join(other);
    }

    /// Increments thread `tid`'s own clock component (a release edge).
    pub(crate) fn bump_clock(&self, tid: usize) {
        self.lock().clocks[tid].inc(tid);
    }

    /// Publishes a tracked location's state digest (folded into the
    /// state-hash prune key).
    pub(crate) fn set_tracked_digest(&self, id: usize, digest: u64) {
        self.lock().tracked[id] = digest;
    }

    /// Records a store-buffer value choice: which of `n` visible values
    /// (0 = newest) a relaxed load observes. Consumes the schedule like
    /// a thread choice, so DFS/replay explore value alternatives too.
    /// Called by the *active* worker, not the scheduler.
    pub(crate) fn pick_value(&self, n: usize) -> usize {
        if n <= 1 {
            return 0;
        }
        let mut st = self.lock();
        let idx = if st.cursor < st.script.len() {
            st.script[st.cursor].min(n - 1)
        } else if st.use_rng {
            let mut r = st.rng;
            let v = (xorshift(&mut r) as usize) % n;
            st.rng = r;
            v
        } else {
            0
        };
        st.cursor += 1;
        st.taken.push(Choice {
            chosen: idx,
            ready_len: n,
            kind: ChoiceKind::Value,
            cand: full_mask(n),
        });
        idx
    }

    /// Declares the operation `tid` is about to perform and parks until
    /// the scheduler grants it.
    pub(crate) fn park_op(&self, tid: usize, op: OpId) {
        {
            let mut st = self.lock();
            st.pending[tid] = op;
        }
        self.park(tid, Status::Ready);
    }

    /// Parks the calling worker until the scheduler picks it. `status` is
    /// what the scheduler should see while we are parked. Panics with
    /// [`AbortToken`] when the execution is aborted.
    pub(crate) fn park(&self, tid: usize, status: Status) {
        let mut st = self.lock();
        st.status[tid] = status;
        st.active = None;
        self.cv.notify_all();
        while st.active != Some(tid) {
            if st.aborted {
                drop(st);
                std::panic::panic_any(AbortToken);
            }
            st = recover(self.cv.wait(st));
        }
        st.progress[tid] = st.progress[tid].saturating_add(1);
    }

    /// Marks the calling worker finished and hands control back.
    pub(crate) fn finish(&self, tid: usize) {
        let mut st = self.lock();
        st.status[tid] = Status::Finished;
        if st.active == Some(tid) {
            st.active = None;
        }
        self.cv.notify_all();
    }

    /// Promotes every thread blocked on `rid` back to ready (a lock
    /// release made the resource available).
    pub(crate) fn promote_blocked(st: &mut CtxState, rid: usize) {
        for s in st.status.iter_mut() {
            if *s == Status::Blocked(rid) {
                *s = Status::Ready;
            }
        }
    }
}

/// Panic payload workers unwind with when an execution is aborted; the
/// worker wrapper swallows it.
pub(crate) struct AbortToken;

// --------------------------------------------------------------------------
// Panic-noise suppression
// --------------------------------------------------------------------------

thread_local! {
    static IN_MODEL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Installs (once, process-wide) a panic hook that stays silent for
/// panics on model worker threads — exhaustive searches unwind thousands
/// of times by design; the failure is captured and reported once.
fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if IN_MODEL.with(|f| f.get()) {
                return;
            }
            prev(info);
        }));
    });
}

// --------------------------------------------------------------------------
// Models
// --------------------------------------------------------------------------

/// A concurrent scenario the explorer can check: shared state built from
/// [`crate::llsync::LLShim`] primitives, N thread bodies, and a final
/// invariant check run after every thread joined.
pub trait Model: Send + Sync + 'static {
    /// The shared state threads operate on. All cross-thread mutation
    /// must go through shim primitives — plain fields are only written
    /// during [`Model::make_state`] or read in [`Model::check`].
    type State: Send + Sync + 'static;

    /// Short stable name (used in reports and the registry).
    fn name(&self) -> &'static str;

    /// Number of threads this model runs.
    fn threads(&self) -> usize;

    /// Builds the shared state. Called once per execution, with the
    /// scheduler context installed so shim primitives register
    /// themselves.
    fn make_state(&self) -> Self::State;

    /// The body of thread `tid`. Runs under the deterministic scheduler.
    fn run_thread(&self, tid: usize, state: &Self::State);

    /// Invariants over the final state, checked after every thread
    /// joined. `Err` fails the execution.
    fn check(&self, state: &Self::State) -> Result<(), String>;

    /// Optional state hash for DFS pruning. Must cover **all**
    /// model-owned shared state and only read atomics or tracked cells
    /// (never a shim lock), since it runs while workers are parked
    /// (possibly holding locks). `None` disables pruning at this point.
    /// Note: pruning makes race-detector coverage approximate (cell
    /// shadow clocks are not part of the key) — models written to
    /// exercise the race detector should return `None`.
    fn state_hash(&self, _state: &Self::State) -> Option<u64> {
        None
    }
}

// --------------------------------------------------------------------------
// Exploration
// --------------------------------------------------------------------------

/// How the explorer picks schedules.
#[derive(Debug, Clone)]
pub enum Mode {
    /// Depth-first search over every schedule (deterministic, complete up
    /// to the step bound / pruning).
    Exhaustive,
    /// `iterations` schedules sampled from a seeded generator.
    Random {
        /// Generator seed; a failing seed is a deterministic reproducer.
        seed: u64,
        /// Number of executions to sample.
        iterations: u64,
    },
    /// Re-run one recorded schedule exactly.
    Replay {
        /// The schedule: for each choice point, the index into the ready
        /// set that ran ([`Failure::script`]).
        script: Vec<usize>,
    },
}

/// A failed execution and everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct Failure {
    /// What went wrong (invariant message, panic payload, deadlock, …).
    pub message: String,
    /// The schedule that produced the failure.
    pub script: Vec<usize>,
    /// One char per schedule entry: `t` = thread pick, `v` = relaxed-load
    /// store-buffer value pick. Same length as `script`.
    pub kinds: String,
    /// `(seed, execution index)` when found in random mode.
    pub seed: Option<(u64, u64)>,
}

/// Renders the per-decision kind annotation for a recorded schedule.
fn kinds_of(taken: &[Choice]) -> String {
    taken
        .iter()
        .map(|c| match c.kind {
            ChoiceKind::Thread => 't',
            ChoiceKind::Value => 'v',
        })
        .collect()
}

impl Failure {
    /// Human-readable replay instructions for this failure.
    pub fn replay_instructions(&self, model: &str) -> String {
        let script = self
            .script
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let mut out = format!(
            "model '{model}' failed: {}\n  replay schedule: [{script}]\n  \
             programmatic replay: Explorer::new(Mode::Replay {{ script: vec![{script}] }}).run(model)",
            self.message
        );
        if self.kinds.contains('v') {
            out.push_str(&format!(
                "\n  decision kinds: {} (t = thread pick, v = relaxed-load value pick)",
                self.kinds
            ));
        }
        if let Some((seed, it)) = self.seed {
            out.push_str(&format!(
                "\n  found by: Mode::Random {{ seed: {seed:#x}, .. }} at iteration {it}"
            ));
        }
        out
    }
}

/// Result of exploring a model.
#[derive(Debug, Clone)]
pub struct Report {
    /// Executions actually run.
    pub executions: u64,
    /// Executions cut short by the state-hash prune.
    pub pruned: u64,
    /// Executions abandoned by the sleep-set partial-order reduction
    /// (every ready thread was asleep: a guaranteed reordering of an
    /// explored schedule).
    pub sleep_pruned: u64,
    /// The first failure, if any (`None` = every explored schedule held).
    pub failure: Option<Failure>,
    /// True when exhaustive exploration finished the whole tree (false
    /// when stopped by `max_executions`).
    pub complete: bool,
}

/// Drives a [`Model`] through schedules according to a [`Mode`].
pub struct Explorer {
    mode: Mode,
    /// Abort an execution after this many scheduling steps (livelock
    /// guard; the overrun is reported as a failure).
    pub max_steps: u32,
    /// Stop exhaustive exploration after this many executions (safety
    /// valve; `Report::complete` is false when hit).
    pub max_executions: u64,
}

impl Explorer {
    /// An explorer with default bounds (20k steps, 1M executions).
    pub fn new(mode: Mode) -> Self {
        Self {
            mode,
            max_steps: 20_000,
            max_executions: 1_000_000,
        }
    }

    /// Sets the per-execution step bound.
    pub fn with_max_steps(mut self, max: u32) -> Self {
        self.max_steps = max;
        self
    }

    /// Sets the exhaustive execution cap.
    pub fn with_max_executions(mut self, max: u64) -> Self {
        self.max_executions = max;
        self
    }

    /// Explores `model`, returning the aggregate report.
    pub fn run<M: Model>(&self, model: M) -> Report {
        install_quiet_hook();
        assert!(
            model.threads() <= 64,
            "loom-lite models are limited to 64 threads (sleep-set bitmask)"
        );
        let model = Arc::new(model);
        let mut visited: HashSet<u64> = HashSet::new();
        let mut executions = 0u64;
        let mut pruned = 0u64;
        let mut sleep_pruned = 0u64;

        match self.mode.clone() {
            Mode::Replay { script } => {
                let out = run_one(
                    &model,
                    script,
                    0,
                    false,
                    false,
                    self.max_steps,
                    &mut visited,
                );
                Report {
                    executions: 1,
                    pruned: 0,
                    sleep_pruned: 0,
                    failure: out.failure.map(|message| Failure {
                        message,
                        script: out.taken.iter().map(|c| c.chosen).collect(),
                        kinds: kinds_of(&out.taken),
                        seed: None,
                    }),
                    complete: true,
                }
            }
            Mode::Random { seed, iterations } => {
                for it in 0..iterations {
                    // Split a per-execution stream off the seed.
                    let exec_seed =
                        splitmix(seed.wrapping_add(it.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
                    let out = run_one(
                        &model,
                        Vec::new(),
                        exec_seed,
                        true,
                        false,
                        self.max_steps,
                        &mut visited,
                    );
                    executions += 1;
                    if let Some(message) = out.failure {
                        return Report {
                            executions,
                            pruned,
                            sleep_pruned,
                            failure: Some(Failure {
                                message,
                                script: out.taken.iter().map(|c| c.chosen).collect(),
                                kinds: kinds_of(&out.taken),
                                seed: Some((seed, it)),
                            }),
                            complete: false,
                        };
                    }
                }
                Report {
                    executions,
                    pruned,
                    sleep_pruned,
                    failure: None,
                    complete: false,
                }
            }
            Mode::Exhaustive => {
                let mut script: Vec<usize> = Vec::new();
                loop {
                    let out = run_one(
                        &model,
                        script.clone(),
                        0,
                        false,
                        true,
                        self.max_steps,
                        &mut visited,
                    );
                    executions += 1;
                    if out.pruned {
                        pruned += 1;
                    }
                    if out.sleep_pruned {
                        sleep_pruned += 1;
                    }
                    if let Some(message) = out.failure {
                        return Report {
                            executions,
                            pruned,
                            sleep_pruned,
                            failure: Some(Failure {
                                message,
                                script: out.taken.iter().map(|c| c.chosen).collect(),
                                kinds: kinds_of(&out.taken),
                                seed: None,
                            }),
                            complete: false,
                        };
                    }
                    // DFS backtrack: find the deepest choice with an
                    // untried alternative the sleep set allows.
                    let mut taken = out.taken;
                    let next = loop {
                        match taken.pop() {
                            None => break None,
                            Some(c) => {
                                let alt = (c.chosen + 1..c.ready_len.min(64))
                                    .find(|&j| c.cand & (1u64 << j) != 0);
                                if let Some(j) = alt {
                                    let mut s: Vec<usize> =
                                        taken.iter().map(|c| c.chosen).collect();
                                    s.push(j);
                                    break Some(s);
                                }
                            }
                        }
                    };
                    match next {
                        Some(s) => script = s,
                        None => {
                            return Report {
                                executions,
                                pruned,
                                sleep_pruned,
                                failure: None,
                                complete: true,
                            }
                        }
                    }
                    if executions >= self.max_executions {
                        return Report {
                            executions,
                            pruned,
                            sleep_pruned,
                            failure: None,
                            complete: false,
                        };
                    }
                }
            }
        }
    }
}

pub(crate) fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x.max(1);
    x
}

struct ExecOutcome {
    taken: Vec<Choice>,
    failure: Option<String>,
    pruned: bool,
    sleep_pruned: bool,
}

/// Runs one execution of `model` under the schedule `script` (choices
/// beyond the script come from the rng in random mode, else the first
/// non-sleeping candidate). `dfs` enables the sleep-set reduction.
fn run_one<M: Model>(
    model: &Arc<M>,
    script: Vec<usize>,
    rng: u64,
    use_rng: bool,
    dfs: bool,
    max_steps: u32,
    visited: &mut HashSet<u64>,
) -> ExecOutcome {
    let n = model.threads();
    let ctx = Arc::new(ExecCtx::new(n, script, rng.max(1), use_rng, dfs));

    // Build the state with the harness context installed so primitives
    // register their resources with this execution.
    crate::llsync::set_current(Some((Arc::clone(&ctx), HARNESS)));
    let state = Arc::new(model.make_state());

    let mut handles = Vec::with_capacity(n);
    for tid in 0..n {
        let ctx = Arc::clone(&ctx);
        let state = Arc::clone(&state);
        let model = Arc::clone(model);
        handles.push(std::thread::spawn(move || {
            IN_MODEL.with(|f| f.set(true));
            crate::llsync::set_current(Some((Arc::clone(&ctx), tid)));
            let body = catch_unwind(AssertUnwindSafe(|| {
                // First park: nothing runs until the scheduler says so.
                ctx.park(tid, Status::Ready);
                model.run_thread(tid, &state);
            }));
            if let Err(payload) = body {
                if payload.downcast_ref::<AbortToken>().is_none() {
                    let msg = panic_message(payload.as_ref());
                    let mut st = ctx.lock();
                    if st.failed.is_none() {
                        st.failed = Some(format!("thread {tid} panicked: {msg}"));
                    }
                    st.aborted = true;
                }
            }
            ctx.finish(tid);
            crate::llsync::set_current(None);
        }));
    }

    // Scheduler loop.
    let mut steps = 0u32;
    {
        let mut st = ctx.lock();
        loop {
            while st.active.is_some() || st.status.contains(&Status::NotStarted) {
                st = recover(ctx.cv.wait(st));
            }
            if st.aborted || st.status.iter().all(|s| *s == Status::Finished) {
                break;
            }
            let ready: Vec<usize> = st
                .status
                .iter()
                .enumerate()
                .filter(|(_, s)| **s == Status::Ready)
                .map(|(i, _)| i)
                .collect();
            if ready.is_empty() {
                let held: Vec<String> = st
                    .status
                    .iter()
                    .enumerate()
                    .filter_map(|(i, s)| match s {
                        Status::Blocked(r) => Some(format!("thread {i} waits on resource {r}")),
                        _ => None,
                    })
                    .collect();
                st.failed = Some(format!("deadlock: {}", held.join("; ")));
                st.aborted = true;
                ctx.cv.notify_all();
                break;
            }
            steps += 1;
            if steps > max_steps {
                st.failed = Some(format!(
                    "step bound exceeded ({max_steps} scheduling steps): possible livelock"
                ));
                st.aborted = true;
                ctx.cv.notify_all();
                break;
            }
            // State-hash pruning (exhaustive mode only: random/replay
            // must run their schedule to the end).
            if st.dfs && st.cursor >= st.script.len() {
                if let Some(h) = model.state_hash(&state) {
                    let key = prune_key(h, &st);
                    if !visited.insert(key) {
                        st.pruned = true;
                        st.aborted = true;
                        ctx.cv.notify_all();
                        break;
                    }
                }
            }
            // Candidates: ready threads the sleep set allows (DFS only;
            // random/replay may pick any ready thread).
            let cand: Vec<usize> = if st.dfs {
                (0..ready.len())
                    .filter(|&i| st.sleep & (1u64 << ready[i]) == 0)
                    .collect()
            } else {
                (0..ready.len()).collect()
            };
            if cand.is_empty() {
                // Every ready thread sleeps: any continuation reorders
                // independent ops of an already-explored schedule.
                st.sleep_pruned = true;
                st.aborted = true;
                ctx.cv.notify_all();
                break;
            }
            let idx = if st.cursor < st.script.len() {
                st.script[st.cursor].min(ready.len() - 1)
            } else if st.use_rng {
                let mut r = st.rng;
                let v = (xorshift(&mut r) as usize) % ready.len();
                st.rng = r;
                v
            } else {
                cand[0]
            };
            let mut cand_mask = 0u64;
            for &i in &cand {
                if i < 64 {
                    cand_mask |= 1u64 << i;
                }
            }
            if st.dfs {
                // Sleep-set evolution: siblings explored before `idx` at
                // this node go to sleep in the chosen child; everything
                // dependent on the executed op wakes.
                let chosen_tid = ready[idx];
                let chosen_op = st.pending[chosen_tid];
                let mut sleep = st.sleep;
                for &i in &cand {
                    if i < idx {
                        sleep |= 1u64 << ready[i];
                    }
                }
                sleep &= !(1u64 << chosen_tid);
                let mut kept = 0u64;
                for (t, &op) in st.pending.iter().enumerate() {
                    if sleep & (1u64 << t) != 0 && !dependent(op, chosen_op) {
                        kept |= 1u64 << t;
                    }
                }
                st.sleep = kept;
            }
            st.cursor += 1;
            st.taken.push(Choice {
                chosen: idx,
                ready_len: ready.len(),
                kind: ChoiceKind::Thread,
                cand: cand_mask,
            });
            st.active = Some(ready[idx]);
            ctx.cv.notify_all();
        }
    }

    for h in handles {
        let _ = h.join();
    }

    let (taken, mut failure, pruned, sleep_pruned) = {
        let mut st = ctx.lock();
        (
            std::mem::take(&mut st.taken),
            st.failed.take(),
            st.pruned,
            st.sleep_pruned,
        )
    };

    // Final invariants (harness context still installed: shim ops
    // free-pass since every worker has finished).
    if failure.is_none() && !pruned && !sleep_pruned {
        if let Err(msg) = model.check(&state) {
            failure = Some(format!("invariant violated: {msg}"));
        }
    }
    crate::llsync::set_current(None);
    ExecOutcome {
        taken,
        failure,
        pruned,
        sleep_pruned,
    }
}

/// The prune key folds everything (besides the model's own hash) that
/// determines future behavior: progress, statuses, lock-resource
/// ownership, the sleep set (two visits with different sleep sets
/// explore different subtrees), and the tracked-location digests
/// (store-buffer contents and visibility floors). Vector clocks and
/// cell shadow state are deliberately excluded — see the module docs on
/// approximate race coverage under pruning.
fn prune_key(state_hash: u64, st: &CtxState) -> u64 {
    let mut h = state_hash ^ 0x517C_C1B7_2722_0A95;
    for (i, p) in st.progress.iter().enumerate() {
        h = splitmix(h ^ ((*p as u64) << 32) ^ i as u64);
    }
    for s in &st.status {
        let tag = match s {
            Status::NotStarted => 0u64,
            Status::Ready => 1,
            Status::Blocked(r) => 0x100 + *r as u64,
            Status::Finished => 2,
        };
        h = splitmix(h ^ tag);
    }
    for r in &st.resources {
        let tag = (r.writer.map(|w| w as u64 + 1).unwrap_or(0) << 32)
            | ((r.readers as u64) << 1)
            | r.poisoned as u64;
        h = splitmix(h ^ tag);
    }
    h = splitmix(h ^ st.sleep);
    for d in &st.tracked {
        h = splitmix(h ^ *d);
    }
    h
}

fn panic_message(payload: &dyn std::any::Any) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::llsync::{LLAtomicU64, LLMutex, LLRwLock};
    use cf_obs::sync::{Ordering, ShimAtomicU64, ShimMutex, ShimRwLock};

    /// Two threads each bump a shared counter twice with relaxed RMWs.
    /// RMWs are atomic even under the store-buffer model (they read the
    /// newest value), so every interleaving must end on 4.
    struct CountingModel;

    struct CountingState {
        counter: LLAtomicU64,
    }

    impl Model for CountingModel {
        type State = CountingState;

        fn name(&self) -> &'static str {
            "counting"
        }

        fn threads(&self) -> usize {
            2
        }

        fn make_state(&self) -> CountingState {
            CountingState {
                counter: ShimAtomicU64::new(0),
            }
        }

        fn run_thread(&self, _tid: usize, st: &CountingState) {
            st.counter.fetch_add(1, Ordering::Relaxed);
            st.counter.fetch_add(1, Ordering::Relaxed);
        }

        fn check(&self, st: &CountingState) -> Result<(), String> {
            let v = st.counter.load(Ordering::Relaxed);
            if v == 4 {
                Ok(())
            } else {
                Err(format!("expected counter 4, got {v}"))
            }
        }
    }

    #[test]
    fn exhaustive_run_completes_relaxed_rmws_stay_atomic() {
        let report = Explorer::new(Mode::Exhaustive).run(CountingModel);
        assert!(report.failure.is_none(), "{:?}", report.failure);
        assert!(report.complete);
    }

    /// Two threads perform idempotent, *dependent* operations on one
    /// lock resource (`clear_poison` is classified `Lock(rid)`, so the
    /// sleep set cannot collapse the orders) that leave no trace in any
    /// state — interleavings converge and the state-hash prune must
    /// fire.
    struct ConvergentModel;

    impl Model for ConvergentModel {
        type State = LLRwLock<()>;

        fn name(&self) -> &'static str {
            "convergent"
        }

        fn threads(&self) -> usize {
            2
        }

        fn make_state(&self) -> LLRwLock<()> {
            ShimRwLock::new(())
        }

        fn run_thread(&self, _tid: usize, st: &LLRwLock<()>) {
            st.clear_poison();
            st.clear_poison();
        }

        fn check(&self, _st: &LLRwLock<()>) -> Result<(), String> {
            Ok(())
        }

        fn state_hash(&self, _st: &Self::State) -> Option<u64> {
            // All shared state is the (constant) poison flag, covered by
            // the resource fold in the prune key.
            Some(0)
        }
    }

    #[test]
    fn exhaustive_run_prunes_converging_states() {
        let report = Explorer::new(Mode::Exhaustive).run(ConvergentModel);
        assert!(report.failure.is_none(), "{:?}", report.failure);
        assert!(report.complete);
        assert!(
            report.pruned > 0,
            "identical interleaved states must hit the prune ({report:?})"
        );
    }

    /// Two threads store to *disjoint* atomics: every op pair is
    /// independent, so sleep sets must collapse the order explosion.
    struct DisjointModel;

    struct DisjointState {
        a: LLAtomicU64,
        b: LLAtomicU64,
    }

    impl Model for DisjointModel {
        type State = DisjointState;

        fn name(&self) -> &'static str {
            "disjoint"
        }

        fn threads(&self) -> usize {
            2
        }

        fn make_state(&self) -> DisjointState {
            DisjointState {
                a: ShimAtomicU64::new(0),
                b: ShimAtomicU64::new(0),
            }
        }

        fn run_thread(&self, tid: usize, st: &DisjointState) {
            let target = if tid == 0 { &st.a } else { &st.b };
            target.store(1, Ordering::Relaxed);
            target.store(2, Ordering::Relaxed);
        }

        fn check(&self, st: &DisjointState) -> Result<(), String> {
            let (a, b) = (st.a.load(Ordering::Relaxed), st.b.load(Ordering::Relaxed));
            if a == 2 && b == 2 {
                Ok(())
            } else {
                Err(format!("expected (2, 2), got ({a}, {b})"))
            }
        }
    }

    #[test]
    fn sleep_sets_prune_independent_interleavings() {
        let report = Explorer::new(Mode::Exhaustive).run(DisjointModel);
        assert!(report.failure.is_none(), "{:?}", report.failure);
        assert!(report.complete);
        assert!(
            report.sleep_pruned > 0,
            "reorderings of independent stores must hit the sleep-set \
             prune ({report:?})"
        );
    }

    /// Classic lock-order inversion: t0 takes a then b, t1 takes b then
    /// a. Exhaustive exploration must find the deadlock and name the
    /// blocked resources.
    struct DeadlockModel;

    struct TwoLocks {
        a: LLMutex<()>,
        b: LLMutex<()>,
    }

    impl Model for DeadlockModel {
        type State = TwoLocks;

        fn name(&self) -> &'static str {
            "lock-order-inversion"
        }

        fn threads(&self) -> usize {
            2
        }

        fn make_state(&self) -> TwoLocks {
            TwoLocks {
                a: ShimMutex::new(()),
                b: ShimMutex::new(()),
            }
        }

        fn run_thread(&self, tid: usize, st: &TwoLocks) {
            if tid == 0 {
                let _ga = st.a.lock_recover();
                let _gb = st.b.lock_recover();
            } else {
                let _gb = st.b.lock_recover();
                let _ga = st.a.lock_recover();
            }
        }

        fn check(&self, _st: &TwoLocks) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn exhaustive_run_finds_lock_order_deadlock() {
        let report = Explorer::new(Mode::Exhaustive).run(DeadlockModel);
        let failure = report.failure.expect("inverted lock order must deadlock");
        assert!(
            failure.message.contains("deadlock"),
            "unexpected failure: {}",
            failure.message
        );
        // The recorded schedule must reproduce the exact same failure.
        let replay = Explorer::new(Mode::Replay {
            script: failure.script.clone(),
        })
        .run(DeadlockModel);
        let again = replay.failure.expect("replay must reproduce the deadlock");
        assert_eq!(again.message, failure.message);
    }

    /// A thread that never yields control back (scheduler-visible spin)
    /// must trip the step bound, not hang the explorer.
    struct SpinModel;

    struct SpinState {
        flag: LLAtomicU64,
    }

    impl Model for SpinModel {
        type State = SpinState;

        fn name(&self) -> &'static str {
            "spin"
        }

        fn threads(&self) -> usize {
            1
        }

        fn make_state(&self) -> SpinState {
            SpinState {
                flag: ShimAtomicU64::new(0),
            }
        }

        fn run_thread(&self, _tid: usize, st: &SpinState) {
            while st.flag.load(Ordering::Relaxed) == 0 {}
        }

        fn check(&self, _st: &SpinState) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn step_bound_catches_livelock() {
        let report = Explorer::new(Mode::Exhaustive)
            .with_max_steps(100)
            .run(SpinModel);
        let failure = report.failure.expect("spin loop must hit the step bound");
        assert!(
            failure.message.contains("step bound"),
            "unexpected failure: {}",
            failure.message
        );
    }

    #[test]
    fn replay_instructions_name_the_model_and_schedule() {
        let f = Failure {
            message: "boom".into(),
            script: vec![1, 0, 2],
            kinds: "tvt".into(),
            seed: Some((0xCF5F, 7)),
        };
        let text = f.replay_instructions("toy-lock-buggy");
        assert!(text.contains("toy-lock-buggy"));
        assert!(text.contains("[1,0,2]"));
        assert!(text.contains("0xcf5f"));
        assert!(text.contains("decision kinds: tvt"));
    }
}
