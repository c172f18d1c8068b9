//! Scheduler-instrumented implementations of the [`cf_obs::sync`] shim
//! traits.
//!
//! [`LLShim`] is the model checker's counterpart of
//! [`cf_obs::sync::StdShim`]: every operation on its primitives is a
//! *yield point* where the calling thread declares the operation it is
//! about to perform (its `OpId`, feeding the sleep-set reduction),
//! parks, and the [`crate::sched`] scheduler decides who runs next.
//! Lock acquisition goes through a scheduler-side resource table, so a
//! contended acquire parks the thread as `Blocked` (excluded from the
//! ready set) instead of spinning — the schedule tree stays finite for
//! blocking code. Lock *release* is a yield point too: a release can
//! wake waiters, so it must be a visible transition of its own for the
//! sleep-set reduction to stay sound.
//!
//! Three correctness layers ride on the yield points:
//!
//! - **Vector clocks** ([`crate::vclock`]): each thread carries a
//!   happens-before clock. Lock acquire joins the resource's clock;
//!   lock release publishes the holder's clock to the resource and
//!   increments the holder's epoch. `Acquire` loads of `Release` stores
//!   do the same through the store buffer.
//! - **Weak-memory atomics**: [`LLAtomicU64`]/[`LLAtomicBool`] keep a
//!   bounded buffer of recent stores. A `Relaxed`/`Acquire` load may
//!   observe any buffered value not older than (a) the newest store
//!   happens-before-visible to the reader and (b) anything the reader
//!   already observed at this location (per-location coherence). When
//!   several values qualify, the pick is a recorded schedule decision —
//!   DFS explores every stale read, and a failing stale read replays
//!   exactly. `SeqCst` operations and RMWs read the newest value.
//! - **Race detection** ([`LLCell`]): plain shared data wrapped in
//!   [`cf_obs::sync::ShimCell`] gets FastTrack-style epoch shadow
//!   state. Two accesses to the same cell, at least one a write, with
//!   neither happening before the other, abort the execution with both
//!   access sites — and the failure carries the replayable schedule.
//!
//! The protected data itself lives in ordinary `std::sync` locks inside
//! each primitive. The scheduler guarantees exclusivity before a guard
//! is taken, so those inner locks are uncontended at claim time; they
//! exist to hand out real `Deref` guards with the right lifetimes.
//!
//! Operations performed without a scheduler context — during
//! [`crate::sched::Model::make_state`], in `check()` after all threads
//! joined, or from [`crate::sched::Model::state_hash`] — **free-pass**:
//! they touch the newest data directly without scheduling, clocks, or
//! race checks.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::panic::Location;
use std::sync::Arc;

use cf_obs::sync::{
    Ordering, Poisoned, Shim, ShimAtomicBool, ShimAtomicU64, ShimCell, ShimMutex, ShimRwLock,
};

use crate::sched::{splitmix, AbortToken, CtxState, ExecCtx, OpId, Status, HARNESS};
use crate::vclock::{Epoch, VClock};

/// How many recent stores a modeled atomic retains. A relaxed load may
/// observe any retained value its coherence floor allows, so this
/// bounds how stale a modeled read can be (depth 2 = newest plus one
/// stale value), keeping the value-choice fan-out tractable.
pub const STORE_BUFFER_DEPTH: usize = 2;

thread_local! {
    static CURRENT: RefCell<Option<(Arc<ExecCtx>, usize)>> = const { RefCell::new(None) };
}

/// Installs (or clears) this thread's scheduler context. The scheduler
/// calls this for the harness and each worker; user code never needs to.
pub(crate) fn set_current(ctx: Option<(Arc<ExecCtx>, usize)>) {
    CURRENT.with(|c| *c.borrow_mut() = ctx);
}

fn current() -> Option<(Arc<ExecCtx>, usize)> {
    CURRENT.with(|c| c.borrow().clone())
}

/// The scheduler context an operation should run under: `None` means
/// free-pass (no scheduling).
fn sched_ctx() -> Option<(Arc<ExecCtx>, usize)> {
    match current() {
        Some((_, HARNESS)) | None => None,
        some => some,
    }
}

/// Parks the calling worker as blocked on `rid`, consuming (and
/// returning) the state guard. Returns once the scheduler grants a
/// slice again (after a release promoted the thread to ready).
fn park_blocked<'a>(
    ctx: &'a ExecCtx,
    tid: usize,
    rid: usize,
    mut st: std::sync::MutexGuard<'a, CtxState>,
) -> std::sync::MutexGuard<'a, CtxState> {
    st.status[tid] = Status::Blocked(rid);
    st.active = None;
    ctx.cv.notify_all();
    while st.active != Some(tid) {
        if st.aborted {
            drop(st);
            std::panic::panic_any(AbortToken);
        }
        st = ctx
            .cv
            .wait(st)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
    }
    let p = &mut st.progress[tid];
    *p = p.saturating_add(1);
    st
}

/// Claims exclusive ownership of `rid` for `tid`, parking while it is
/// held by anyone else. One yield happens before the first attempt; the
/// claim joins the resource's happens-before clock (acquire edge).
fn acquire_exclusive(ctx: &ExecCtx, tid: usize, rid: usize) {
    ctx.park_op(tid, OpId::Lock(rid));
    let mut st = ctx.lock();
    loop {
        let r = &mut st.resources[rid];
        if r.writer.is_none() && r.readers == 0 {
            r.writer = Some(tid);
            let rc = st.resource_clocks[rid].clone();
            st.clocks[tid].join(&rc);
            return;
        }
        st = park_blocked(ctx, tid, rid, st);
    }
}

/// Releases exclusive ownership. A scheduled release is its own yield
/// point (skipped mid-unwind: a panicking thread must not park) and a
/// release edge: the holder's clock is published to the resource and
/// its own epoch advances.
fn release_exclusive(ctx: &ExecCtx, tid: Option<usize>, rid: usize) {
    if let Some(t) = tid {
        if !std::thread::panicking() {
            ctx.park_op(t, OpId::Lock(rid));
        }
    }
    let mut st = ctx.lock();
    if let Some(t) = tid {
        let c = st.clocks[t].clone();
        st.resource_clocks[rid].join(&c);
        st.clocks[t].inc(t);
    }
    st.resources[rid].writer = None;
    ExecCtx::promote_blocked(&mut st, rid);
}

/// Claims shared ownership of `rid` for `tid` (blocks on a writer).
fn acquire_shared(ctx: &ExecCtx, tid: usize, rid: usize) {
    ctx.park_op(tid, OpId::Lock(rid));
    let mut st = ctx.lock();
    loop {
        let r = &mut st.resources[rid];
        if r.writer.is_none() {
            r.readers += 1;
            let rc = st.resource_clocks[rid].clone();
            st.clocks[tid].join(&rc);
            return;
        }
        st = park_blocked(ctx, tid, rid, st);
    }
}

/// Releases shared ownership. Readers are treated conservatively like
/// writers for the clocks (they publish and bump) — this can only *add*
/// happens-before edges, so the race detector stays sound (it may miss
/// read-side races the rwlock protocol already serializes anyway).
fn release_shared(ctx: &ExecCtx, tid: Option<usize>, rid: usize) {
    if let Some(t) = tid {
        if !std::thread::panicking() {
            ctx.park_op(t, OpId::Lock(rid));
        }
    }
    let mut st = ctx.lock();
    if let Some(t) = tid {
        let c = st.clocks[t].clone();
        st.resource_clocks[rid].join(&c);
        st.clocks[t].inc(t);
    }
    let r = &mut st.resources[rid];
    r.readers = r.readers.saturating_sub(1);
    if r.readers == 0 {
        ExecCtx::promote_blocked(&mut st, rid);
    }
}

/// The model checker's [`Shim`]: schedule-instrumented primitives.
#[derive(Debug, Default, Clone, Copy)]
pub struct LLShim;

// --------------------------------------------------------------------------
// Weak-memory atomics
// --------------------------------------------------------------------------

fn is_acquire(order: Ordering) -> bool {
    matches!(
        order,
        Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst
    )
}

fn is_release(order: Ordering) -> bool {
    matches!(
        order,
        Ordering::Release | Ordering::AcqRel | Ordering::SeqCst
    )
}

/// One buffered store.
struct WeakEntry {
    val: u64,
    /// Monotone per-atomic sequence number (coherence order).
    seq: u64,
    /// The storer's epoch at the store: the visibility floor — a reader
    /// that happens-after this store may not read anything older.
    epoch: Epoch,
    /// The storer's full clock (joined by acquire loads iff `release`).
    clock: VClock,
    /// Whether the store had release semantics.
    release: bool,
}

struct WeakInner {
    /// Oldest → newest; never empty; `len <= STORE_BUFFER_DEPTH`.
    entries: Vec<WeakEntry>,
    next_seq: u64,
    /// Per-tid coherence floor: the newest seq this thread observed.
    last_seen: Vec<u64>,
}

impl WeakInner {
    fn newest(&self) -> &WeakEntry {
        self.entries.last().expect("store buffer never empty")
    }

    /// Data-state digest for the prune key: buffered values (with
    /// their release flags and relative age) plus each thread's floor
    /// as an offset from the newest store. Storer identities and clocks
    /// are excluded — they only affect happens-before bookkeeping, not
    /// which values code can observe next.
    fn digest(&self) -> u64 {
        let newest = self.newest().seq;
        let mut h = 0x2545_F491_4F6C_DD1Du64;
        for (i, e) in self.entries.iter().enumerate() {
            h = splitmix(h ^ e.val ^ ((i as u64) << 56) ^ ((e.release as u64) << 63));
        }
        for (t, &s) in self.last_seen.iter().enumerate() {
            let off = newest.saturating_sub(s).min(STORE_BUFFER_DEPTH as u64 + 1);
            h = splitmix(h ^ ((t as u64) << 8) ^ off);
        }
        h
    }

    fn floor_slot(&mut self, tid: usize) -> &mut u64 {
        if self.last_seen.len() <= tid {
            self.last_seen.resize(tid + 1, 0);
        }
        &mut self.last_seen[tid]
    }
}

/// The shared weak-memory core behind both atomic shims (`u64`-valued;
/// the bool shim maps `false`/`true` to `0`/`1`).
struct WeakCore {
    ctx: Option<(Arc<ExecCtx>, usize)>,
    inner: std::sync::Mutex<WeakInner>,
}

impl WeakCore {
    fn new(v: u64) -> Self {
        let ctx = current().map(|(c, _)| {
            let id = c.alloc_tracked();
            (c, id)
        });
        Self {
            ctx,
            inner: std::sync::Mutex::new(WeakInner {
                entries: vec![WeakEntry {
                    val: v,
                    seq: 0,
                    epoch: Epoch::NONE,
                    clock: VClock::new(),
                    release: false,
                }],
                next_seq: 1,
                last_seen: Vec::new(),
            }),
        }
    }

    fn lock_inner(&self) -> std::sync::MutexGuard<'_, WeakInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn load(&self, order: Ordering) -> u64 {
        let (ctx, id, tid) = match (&self.ctx, sched_ctx()) {
            (Some((ctx, id)), Some((_, tid))) => (ctx, *id, tid),
            _ => return self.lock_inner().newest().val,
        };
        ctx.park_op(tid, OpId::AtomicLoad(id));
        let clock = ctx.clock_of(tid);
        let mut inner = self.lock_inner();
        // Coherence floor: nothing older than what this thread already
        // saw here, and nothing older than the newest store that
        // happens-before this load.
        let hb_floor = inner
            .entries
            .iter()
            .filter(|e| e.epoch.visible_to(&clock))
            .map(|e| e.seq)
            .max()
            .unwrap_or(0);
        let own_floor = *inner.floor_slot(tid);
        let floor = hb_floor.max(own_floor);
        let visible: Vec<usize> = inner
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.seq >= floor)
            .map(|(i, _)| i)
            .collect();
        let pick = if order == Ordering::SeqCst || visible.len() <= 1 {
            // SeqCst loads read the newest value (the modeled SC order
            // is coherence order — an approximation documented in
            // DESIGN.md §9). `visible` is never empty: the newest entry
            // always qualifies.
            *visible.last().expect("newest entry always visible")
        } else {
            // Stale-read choice, newest first so index 0 (the DFS
            // default) is the strongest behavior.
            let k = ctx.pick_value(visible.len());
            visible[visible.len() - 1 - k]
        };
        let e = &inner.entries[pick];
        let val = e.val;
        let sync = (is_acquire(order) && e.release).then(|| e.clock.clone());
        let seq = e.seq;
        *inner.floor_slot(tid) = seq;
        let digest = inner.digest();
        drop(inner);
        if let Some(c) = sync {
            ctx.join_clock(tid, &c);
        }
        ctx.set_tracked_digest(id, digest);
        val
    }

    fn store(&self, v: u64, order: Ordering) {
        let (ctx, id, tid) = match (&self.ctx, sched_ctx()) {
            (Some((ctx, id)), Some((_, tid))) => (ctx, *id, tid),
            _ => {
                // Free-pass store (harness): collapse the buffer so later
                // reads are deterministic.
                let mut inner = self.lock_inner();
                let seq = inner.next_seq;
                inner.next_seq += 1;
                inner.entries = vec![WeakEntry {
                    val: v,
                    seq,
                    epoch: Epoch::NONE,
                    clock: VClock::new(),
                    release: false,
                }];
                return;
            }
        };
        ctx.park_op(tid, OpId::AtomicStore(id));
        let clock = ctx.clock_of(tid);
        let mut inner = self.lock_inner();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.entries.push(WeakEntry {
            val: v,
            seq,
            epoch: Epoch::of(tid, &clock),
            clock,
            release: is_release(order),
        });
        if inner.entries.len() > STORE_BUFFER_DEPTH {
            inner.entries.remove(0);
        }
        *inner.floor_slot(tid) = seq;
        let digest = inner.digest();
        drop(inner);
        if is_release(order) {
            ctx.bump_clock(tid);
        }
        ctx.set_tracked_digest(id, digest);
    }

    /// RMW: reads the newest value atomically (no staleness — that is
    /// what makes it an RMW), writes `f(old)`, returns `old`.
    fn rmw(&self, order: Ordering, f: impl FnOnce(u64) -> u64) -> u64 {
        let (ctx, id, tid) = match (&self.ctx, sched_ctx()) {
            (Some((ctx, id)), Some((_, tid))) => (ctx, *id, tid),
            _ => {
                let mut inner = self.lock_inner();
                let old = inner.newest().val;
                let seq = inner.next_seq;
                inner.next_seq += 1;
                inner.entries = vec![WeakEntry {
                    val: f(old),
                    seq,
                    epoch: Epoch::NONE,
                    clock: VClock::new(),
                    release: false,
                }];
                return old;
            }
        };
        ctx.park_op(tid, OpId::AtomicStore(id));
        let mut clock = ctx.clock_of(tid);
        let mut inner = self.lock_inner();
        let (old, sync) = {
            let newest = inner.newest();
            (
                newest.val,
                (is_acquire(order) && newest.release).then(|| newest.clock.clone()),
            )
        };
        if let Some(c) = &sync {
            clock.join(c);
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.entries.push(WeakEntry {
            val: f(old),
            seq,
            epoch: Epoch::of(tid, &clock),
            clock: clock.clone(),
            release: is_release(order),
        });
        if inner.entries.len() > STORE_BUFFER_DEPTH {
            inner.entries.remove(0);
        }
        *inner.floor_slot(tid) = seq;
        let digest = inner.digest();
        drop(inner);
        if let Some(c) = sync {
            ctx.join_clock(tid, &c);
        }
        if is_release(order) {
            ctx.bump_clock(tid);
        }
        ctx.set_tracked_digest(id, digest);
        old
    }
}

/// Schedule-instrumented atomic `bool` over the weak-memory core.
pub struct LLAtomicBool(WeakCore);

impl ShimAtomicBool for LLAtomicBool {
    fn new(v: bool) -> Self {
        Self(WeakCore::new(v as u64))
    }
    fn load(&self, order: Ordering) -> bool {
        self.0.load(order) != 0
    }
    fn store(&self, v: bool, order: Ordering) {
        self.0.store(v as u64, order)
    }
    fn swap(&self, v: bool, order: Ordering) -> bool {
        self.0.rmw(order, |_| v as u64) != 0
    }
}

/// Schedule-instrumented atomic `u64` over the weak-memory core.
pub struct LLAtomicU64(WeakCore);

impl ShimAtomicU64 for LLAtomicU64 {
    fn new(v: u64) -> Self {
        Self(WeakCore::new(v))
    }
    fn load(&self, order: Ordering) -> u64 {
        self.0.load(order)
    }
    fn store(&self, v: u64, order: Ordering) {
        self.0.store(v, order)
    }
    fn fetch_add(&self, v: u64, order: Ordering) -> u64 {
        self.0.rmw(order, |old| old.wrapping_add(v))
    }
}

// --------------------------------------------------------------------------
// Tracked data cell (FastTrack race detection)
// --------------------------------------------------------------------------

/// Read shadow: the epochs of reads not yet ordered before a write.
/// Invariant: entries are pairwise concurrent (a new read evicts every
/// entry it happens-after), so the common same-thread / totally-ordered
/// pattern keeps exactly one entry — FastTrack's epoch optimization.
struct ReadShadow {
    reads: Vec<(Epoch, &'static Location<'static>)>,
}

struct CellInner<T> {
    val: T,
    write: Epoch,
    write_site: &'static Location<'static>,
    shadow: ReadShadow,
}

/// A race-tracked plain data cell: the checked counterpart of
/// [`cf_obs::sync::StdCell`]. Every scheduled access runs a FastTrack
/// happens-before check; a conflicting unordered pair panics with both
/// access sites, which the scheduler turns into a replayable failure.
pub struct LLCell<T> {
    ctx: Option<(Arc<ExecCtx>, usize)>,
    inner: std::sync::Mutex<CellInner<T>>,
}

fn race(
    id: usize,
    kind_a: &str,
    tid_a: usize,
    site_a: &Location<'_>,
    kind_b: &str,
    epoch_b: Epoch,
    site_b: &Location<'_>,
) -> ! {
    std::panic::panic_any(format!(
        "data race on tracked cell #{id}: {kind_a} by thread {tid_a} at {site_a} \
         is concurrent with {kind_b} by thread {} at {site_b}",
        epoch_b.tid
    ))
}

impl<T: Copy + Send + 'static> ShimCell<T> for LLCell<T> {
    #[track_caller]
    fn new(v: T) -> Self {
        let site = Location::caller();
        let ctx = current().map(|(c, _)| {
            let id = c.alloc_tracked();
            (c, id)
        });
        Self {
            ctx,
            inner: std::sync::Mutex::new(CellInner {
                val: v,
                write: Epoch::NONE,
                write_site: site,
                shadow: ReadShadow { reads: Vec::new() },
            }),
        }
    }

    #[track_caller]
    fn get(&self) -> T {
        let site = Location::caller();
        let (ctx, id, tid) = match (&self.ctx, sched_ctx()) {
            (Some((ctx, id)), Some((_, tid))) => (ctx, *id, tid),
            _ => {
                return self
                    .inner
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .val
            }
        };
        ctx.park_op(tid, OpId::CellRead(id));
        let clock = ctx.clock_of(tid);
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if !inner.write.visible_to(&clock) {
            let (we, ws) = (inner.write, inner.write_site);
            race(id, "read", tid, site, "write", we, ws);
        }
        // Evict reads this one happens-after; keep concurrent ones.
        inner
            .shadow
            .reads
            .retain(|(e, _)| !(e.tid == tid as u32 || e.visible_to(&clock)));
        inner.shadow.reads.push((Epoch::of(tid, &clock), site));
        inner.val
    }

    #[track_caller]
    fn set(&self, v: T) {
        let site = Location::caller();
        let (ctx, id, tid) = match (&self.ctx, sched_ctx()) {
            (Some((ctx, id)), Some((_, tid))) => (ctx, *id, tid),
            _ => {
                self.inner
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .val = v;
                return;
            }
        };
        ctx.park_op(tid, OpId::CellWrite(id));
        let clock = ctx.clock_of(tid);
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if !inner.write.visible_to(&clock) {
            let (we, ws) = (inner.write, inner.write_site);
            race(id, "write", tid, site, "write", we, ws);
        }
        if let Some(&(e, s)) = inner
            .shadow
            .reads
            .iter()
            .find(|(e, _)| !(e.tid == tid as u32 || e.visible_to(&clock)))
        {
            race(id, "write", tid, site, "read", e, s);
        }
        // All prior accesses are ordered before this write.
        inner.shadow.reads.clear();
        inner.write = Epoch::of(tid, &clock);
        inner.write_site = site;
        inner.val = v;
    }
}

// --------------------------------------------------------------------------
// Mutex
// --------------------------------------------------------------------------

/// Schedule-instrumented mutex. Matches [`cf_obs::sync::RecoverMutex`]'s
/// contract: `lock_recover` never observes poison (model-thread panics
/// abort the whole execution instead).
pub struct LLMutex<T> {
    ctx: Option<Arc<ExecCtx>>,
    rid: usize,
    data: std::sync::Mutex<T>,
}

/// Guard for [`LLMutex`]; releases the scheduler resource on drop.
pub struct LLMutexGuard<'a, T> {
    lock: &'a LLMutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
    scheduled: bool,
}

impl<T> Deref for LLMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard taken")
    }
}

impl<T> DerefMut for LLMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard taken")
    }
}

impl<T> Drop for LLMutexGuard<'_, T> {
    fn drop(&mut self) {
        self.inner = None; // release the data lock first
        if self.scheduled {
            if let Some(ctx) = &self.lock.ctx {
                let tid = sched_ctx().map(|(_, t)| t);
                release_exclusive(ctx, tid, self.lock.rid);
            }
        }
    }
}

impl<T: Send + 'static> ShimMutex<T> for LLMutex<T> {
    type Guard<'a>
        = LLMutexGuard<'a, T>
    where
        T: 'a;

    fn new(value: T) -> Self {
        let (ctx, rid) = match current() {
            Some((ctx, _)) => {
                let rid = ctx.alloc_resource();
                (Some(ctx), rid)
            }
            None => (None, 0),
        };
        Self {
            ctx,
            rid,
            data: std::sync::Mutex::new(value),
        }
    }

    fn lock_recover(&self) -> Self::Guard<'_> {
        let scheduled = match (sched_ctx(), &self.ctx) {
            (Some((_, tid)), Some(ctx)) => {
                acquire_exclusive(ctx, tid, self.rid);
                true
            }
            _ => false,
        };
        let inner = if scheduled {
            // The scheduler granted exclusivity; the data lock is free.
            self.data
                .try_lock()
                .unwrap_or_else(|_| unreachable!("scheduler-granted mutex contended"))
        } else {
            self.data
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        };
        LLMutexGuard {
            lock: self,
            inner: Some(inner),
            scheduled,
        }
    }
}

// --------------------------------------------------------------------------
// RwLock
// --------------------------------------------------------------------------

/// Schedule-instrumented reader-writer lock with the full poison
/// protocol of [`cf_obs::sync::ShimRwLock`].
pub struct LLRwLock<T> {
    ctx: Option<Arc<ExecCtx>>,
    rid: usize,
    data: std::sync::RwLock<T>,
}

impl<T> LLRwLock<T> {
    fn set_poisoned(&self, poisoned: bool) {
        if let Some(ctx) = &self.ctx {
            ctx.lock().resources[self.rid].poisoned = poisoned;
        }
    }

    fn poisoned_flag(&self) -> bool {
        match &self.ctx {
            Some(ctx) => ctx.lock().resources[self.rid].poisoned,
            None => false,
        }
    }

    /// Yield point for poison-flag reads/writes outside a held guard:
    /// they touch the resource, so they classify as `Lock(rid)`.
    fn yield_flag_op(&self) {
        if let (Some((ctx, tid)), Some(_)) = (sched_ctx(), &self.ctx) {
            ctx.park_op(tid, OpId::Lock(self.rid));
        }
    }
}

/// Shared guard for [`LLRwLock`].
pub struct LLReadGuard<'a, T> {
    lock: &'a LLRwLock<T>,
    inner: Option<std::sync::RwLockReadGuard<'a, T>>,
    scheduled: bool,
}

impl<T> Deref for LLReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard taken")
    }
}

impl<T> Drop for LLReadGuard<'_, T> {
    fn drop(&mut self) {
        self.inner = None;
        if self.scheduled {
            if let Some(ctx) = &self.lock.ctx {
                let tid = sched_ctx().map(|(_, t)| t);
                release_shared(ctx, tid, self.lock.rid);
            }
        }
    }
}

/// Exclusive guard for [`LLRwLock`]. Dropping it while panicking
/// poisons the lock, exactly like `std`.
pub struct LLWriteGuard<'a, T> {
    lock: &'a LLRwLock<T>,
    inner: Option<std::sync::RwLockWriteGuard<'a, T>>,
    scheduled: bool,
}

impl<T> Deref for LLWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard taken")
    }
}

impl<T> DerefMut for LLWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard taken")
    }
}

impl<T> Drop for LLWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.inner = None;
        if std::thread::panicking() {
            self.lock.set_poisoned(true);
        }
        if self.scheduled {
            if let Some(ctx) = &self.lock.ctx {
                let tid = sched_ctx().map(|(_, t)| t);
                release_exclusive(ctx, tid, self.lock.rid);
            }
        }
    }
}

impl<T: Send + Sync + 'static> LLRwLock<T> {
    fn claim_shared(&self) -> LLReadGuard<'_, T> {
        let scheduled = match (sched_ctx(), &self.ctx) {
            (Some((_, tid)), Some(ctx)) => {
                acquire_shared(ctx, tid, self.rid);
                true
            }
            _ => false,
        };
        let inner = if scheduled {
            self.data
                .try_read()
                .unwrap_or_else(|_| unreachable!("scheduler-granted shared lock contended"))
        } else {
            self.data
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        };
        LLReadGuard {
            lock: self,
            inner: Some(inner),
            scheduled,
        }
    }

    fn claim_exclusive(&self) -> LLWriteGuard<'_, T> {
        let scheduled = match (sched_ctx(), &self.ctx) {
            (Some((_, tid)), Some(ctx)) => {
                acquire_exclusive(ctx, tid, self.rid);
                true
            }
            _ => false,
        };
        let inner = if scheduled {
            self.data
                .try_write()
                .unwrap_or_else(|_| unreachable!("scheduler-granted exclusive lock contended"))
        } else {
            self.data
                .write()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        };
        LLWriteGuard {
            lock: self,
            inner: Some(inner),
            scheduled,
        }
    }
}

impl<T: Send + Sync + 'static> ShimRwLock<T> for LLRwLock<T> {
    type ReadGuard<'a>
        = LLReadGuard<'a, T>
    where
        T: 'a;
    type WriteGuard<'a>
        = LLWriteGuard<'a, T>
    where
        T: 'a;

    fn new(value: T) -> Self {
        let (ctx, rid) = match current() {
            Some((ctx, _)) => {
                let rid = ctx.alloc_resource();
                (Some(ctx), rid)
            }
            None => (None, 0),
        };
        Self {
            ctx,
            rid,
            data: std::sync::RwLock::new(value),
        }
    }

    fn read(&self) -> Result<Self::ReadGuard<'_>, Poisoned> {
        // Acquire first, then report poison (matching std: a poisoned
        // read still waits for the lock; our contract then drops the
        // guard and reports).
        let g = self.claim_shared();
        if self.poisoned_flag() {
            drop(g);
            return Err(Poisoned);
        }
        Ok(g)
    }

    fn write(&self) -> Result<Self::WriteGuard<'_>, Poisoned> {
        let g = self.claim_exclusive();
        if self.poisoned_flag() {
            drop(g);
            return Err(Poisoned);
        }
        Ok(g)
    }

    fn write_recover(&self) -> Self::WriteGuard<'_> {
        self.claim_exclusive()
    }

    fn clear_poison(&self) {
        self.yield_flag_op();
        self.set_poisoned(false);
    }

    fn is_poisoned(&self) -> bool {
        self.yield_flag_op();
        self.poisoned_flag()
    }

    fn poison(&self) {
        // Exactly what a panicking writer does: acquire exclusively,
        // mark poisoned, release.
        let g = self.claim_exclusive();
        self.set_poisoned(true);
        drop(g);
    }
}

impl Shim for LLShim {
    type AtomicBool = LLAtomicBool;
    type AtomicU64 = LLAtomicU64;
    type Mutex<T: Send + 'static> = LLMutex<T>;
    type RwLock<T: Send + Sync + 'static> = LLRwLock<T>;
    type Cell<T: Copy + Send + 'static> = LLCell<T>;
}
