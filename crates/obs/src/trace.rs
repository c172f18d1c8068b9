//! cf-trace — request-scoped tracing with head + tail sampling.
//!
//! Aggregate counters and histograms (the rest of this crate) answer *how
//! much* and *how slow on average*; this module answers *which request*
//! and *why*. Each online prediction opens a trace ([`begin_request`]),
//! hot-path stages record spans into a **per-thread buffer**
//! ([`span`]), and [`RequestGuard::finish`] decides whether the completed
//! trace is merged into the bounded global rings:
//!
//! - **head sampling** — every `N`-th request per thread
//!   ([`set_head_sample_every`], default 64) keeps its full span tree in
//!   the *recent* ring, giving a steady trickle of representative traces;
//! - **tail sampling** — regardless of the head decision, a request that
//!   lands in the slowest-seen reservoir, was served from the
//!   degradation ladder's fallback region, or carries an anomaly note
//!   (e.g. a caught panic) is always kept. Tail-kept requests that were
//!   not head-sampled have no span detail (spans are only recorded for
//!   sampled requests, to keep the non-sampled hot path at two
//!   timestamps), but carry the full request attribution: user, item,
//!   degrade rung, `K`/`M` used, total latency, notes.
//!
//! Every finished request also records into the `online.request_ns`
//! histogram, and every *kept* trace registers an exemplar — (value,
//! trace id) keyed by the value's octave — so a p99 bucket on the
//! `/metrics` endpoint links to a concrete captured trace
//! ([`exemplars`]).
//!
//! All storage is bounded: the recent ring, slow reservoir and degraded
//! ring have fixed capacities ([`RECENT_CAP`], [`SLOW_CAP`],
//! [`DEGRADED_CAP`]); the slow reservoir's admission threshold is the
//! reservoir minimum once full (an atomic, checked lock-free), so in
//! steady state only genuinely slow requests touch a lock.
//!
//! Disabled behavior: [`crate::set_enabled`]`(false)` or a sample rate of
//! 0 makes [`begin_request`] return an inert guard — no timestamps, no
//! TLS writes beyond one flag read, nothing recorded.

// A hot-path module: the clock is read only through
// `crate::now_if_enabled`.
#![deny(clippy::disallowed_methods)]

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crate::reservoir::{BoundedRing, SlowReservoir};
use crate::sync::{RecoverMutex, StdShim};

/// Bound of the head-sampled *recent* ring.
pub const RECENT_CAP: usize = 64;
/// Bound of the slowest-seen reservoir.
pub const SLOW_CAP: usize = 32;
/// Bound of the degraded/anomaly ring.
pub const DEGRADED_CAP: usize = 32;
/// Cap on notes per trace (anomalies are rare; a runaway loop must not
/// grow the thread buffer unboundedly).
const NOTES_CAP: usize = 8;

/// Histogram name request totals are recorded into and exemplars are
/// attached to.
pub const REQUEST_HISTOGRAM: &str = "online.request_ns";

// --------------------------------------------------------------------------
// Configuration
// --------------------------------------------------------------------------

/// Head-sample every N-th request per thread; 0 disables tracing.
static HEAD_EVERY: AtomicU32 = AtomicU32::new(64);
/// Monotone trace-id source (ids are allocated only for kept traces).
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Allocates a trace id unique within this process and very unlikely to
/// collide across a fleet: the top 16 bits carry the process id, so a
/// router-propagated id and a shard's locally-allocated ids stay
/// distinguishable in the same `/traces` dump.
fn alloc_trace_id() -> u64 {
    let seq = NEXT_ID.fetch_add(1, Ordering::Relaxed) & 0x0000_ffff_ffff_ffff;
    ((std::process::id() as u64 & 0xffff) << 48) | seq
}

/// Sets the head-sampling rate: every `n`-th request per thread captures
/// a full span tree. `1` samples everything (tests, debugging), `0`
/// disables tracing entirely (tail sampling included).
pub fn set_head_sample_every(n: u32) {
    HEAD_EVERY.store(n, Ordering::Relaxed);
}

// --------------------------------------------------------------------------
// Captured traces
// --------------------------------------------------------------------------

/// One completed span inside a captured trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Stage name, e.g. `"select"` or `"estimator.suir"`.
    pub name: &'static str,
    /// Offset from the trace's start, nanoseconds.
    pub start_ns: u64,
    /// Span duration, nanoseconds.
    pub dur_ns: u64,
    /// Nesting depth below the request root (root children are 0).
    pub depth: u8,
}

/// Cross-process trace context: everything a frame needs to carry so a
/// downstream process can continue the span tree. `cf-serve` carries it
/// as an optional field of its traced request frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The originating request's trace id; the downstream trace adopts it.
    pub trace_id: u64,
    /// Span depth at the propagation point (attribution for stitching).
    pub parent_span: u32,
    /// The origin's sampling decision: when true the downstream process
    /// records a full span tree and ships it back even if its own head
    /// sampler would not have fired.
    pub sampled: bool,
}

/// A completed span captured in *another* process and stitched into a
/// local trace. Unlike [`SpanRec`] the name is owned — it crossed a wire.
/// `start_ns` offsets are relative to the remote request's own start
/// (processes share no clock), so stitched trees show remote durations
/// and structure, not absolute alignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteSpan {
    /// Where the span ran, e.g. `"shard2"`; empty while still in the
    /// capturing process (the stitcher fills it in).
    pub origin: String,
    /// Stage name as captured remotely.
    pub name: String,
    /// Offset from the *remote* request start, nanoseconds.
    pub start_ns: u64,
    /// Span duration, nanoseconds.
    pub dur_ns: u64,
    /// Nesting depth below the remote request root.
    pub depth: u8,
}

/// Cap on remote spans one trace will hold (and one response will ship).
pub const REMOTE_SPANS_CAP: usize = 128;

/// Why a trace was kept (bit flags; several can apply).
pub mod keep {
    /// Head-sampled (every N-th request).
    pub const HEAD: u8 = 1;
    /// Admitted to the slowest-seen reservoir.
    pub const SLOW: u8 = 2;
    /// Served from the degradation ladder's fallback region.
    pub const DEGRADED: u8 = 4;
    /// Carried an anomaly note (caught panic, injected fault, abandon).
    pub const NOTE: u8 = 8;
}

/// A captured request trace.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Unique id (allocated at keep time; what exemplars reference).
    pub id: u64,
    /// Raw user id of the request.
    pub user: u32,
    /// Raw item id of the request.
    pub item: u32,
    /// End-to-end request latency in nanoseconds.
    pub total_ns: u64,
    /// Degradation-ladder rung the prediction was served from.
    pub level: &'static str,
    /// True when `level` is in the ladder's fallback region.
    pub fallback: bool,
    /// Like-minded users used.
    pub k_used: u32,
    /// Similar items used.
    pub m_used: u32,
    /// The served (clamped) prediction.
    pub fused: f64,
    /// Anomaly notes recorded during the request.
    pub notes: Vec<&'static str>,
    /// Span tree (empty for tail-kept traces that were not head-sampled).
    pub spans: Vec<SpanRec>,
    /// Spans captured in other processes and stitched under this trace
    /// (router side; empty for purely local requests).
    pub remote_spans: Vec<RemoteSpan>,
    /// [`keep`] flags explaining why this trace survived.
    pub why: u8,
}

impl Trace {
    /// Human-readable keep reasons, e.g. `"head+slow"`.
    pub fn why_str(&self) -> String {
        let mut parts = Vec::new();
        if self.why & keep::HEAD != 0 {
            parts.push("head");
        }
        if self.why & keep::SLOW != 0 {
            parts.push("slow");
        }
        if self.why & keep::DEGRADED != 0 {
            parts.push("degraded");
        }
        if self.why & keep::NOTE != 0 {
            parts.push("note");
        }
        parts.join("+")
    }
}

/// Point-in-time view of the global trace rings.
#[derive(Debug, Clone, Default)]
pub struct TraceDump {
    /// Slowest requests seen, slowest first.
    pub slow: Vec<Arc<Trace>>,
    /// Most recent degraded / anomalous requests, newest first.
    pub degraded: Vec<Arc<Trace>>,
    /// Most recent head-sampled requests, newest first.
    pub recent: Vec<Arc<Trace>>,
}

impl TraceDump {
    /// True when no ring holds any trace.
    pub fn is_empty(&self) -> bool {
        self.slow.is_empty() && self.degraded.is_empty() && self.recent.is_empty()
    }
}

/// An exemplar: a concrete captured trace standing in for a histogram
/// value region (keyed by octave = `floor(log2(value))`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// The sampled value (nanoseconds for latency histograms).
    pub value: u64,
    /// Id of the captured trace ([`Trace::id`]).
    pub trace_id: u64,
}

struct Sink {
    recent: BoundedRing<Arc<Trace>>,
    degraded: BoundedRing<Arc<Trace>>,
    /// metric name → octave → exemplar.
    exemplars: BTreeMap<String, BTreeMap<u8, Exemplar>>,
}

fn sink() -> &'static RecoverMutex<Sink> {
    static SINK: OnceLock<RecoverMutex<Sink>> = OnceLock::new();
    SINK.get_or_init(|| {
        RecoverMutex::new(Sink {
            recent: BoundedRing::new(RECENT_CAP),
            degraded: BoundedRing::new(DEGRADED_CAP),
            exemplars: BTreeMap::new(),
        })
    })
}

/// The slowest-seen reservoir. Its admission logic (lock-free bar +
/// under-lock re-check) lives in [`crate::reservoir::SlowReservoir`] —
/// the same core the `cf-analysis` model checker explores exhaustively.
fn slow_reservoir() -> &'static SlowReservoir<StdShim, Arc<Trace>> {
    static SLOW: OnceLock<SlowReservoir<StdShim, Arc<Trace>>> = OnceLock::new();
    SLOW.get_or_init(|| SlowReservoir::new(SLOW_CAP))
}

fn lock_sink() -> std::sync::MutexGuard<'static, Sink> {
    // The sink is derived telemetry; a poisoning panic elsewhere must not
    // cascade, so recover the data as-is.
    sink().lock()
}

/// Snapshot of the trace rings for rendering or assertions.
pub fn snapshot() -> TraceDump {
    let slow = slow_reservoir()
        .snapshot_sorted()
        .into_iter()
        .map(|(_, t)| t)
        .collect();
    let s = lock_sink();
    TraceDump {
        slow,
        degraded: s.degraded.iter().rev().cloned().collect(),
        recent: s.recent.iter().rev().cloned().collect(),
    }
}

/// Current exemplars as `(metric, octave, exemplar)` triples.
pub fn exemplars() -> Vec<(String, u8, Exemplar)> {
    let s = lock_sink();
    s.exemplars
        .iter()
        .flat_map(|(m, octaves)| octaves.iter().map(move |(&o, &e)| (m.clone(), o, e)))
        .collect()
}

/// Attaches an exemplar to `metric` for `value`'s octave. Called
/// automatically for kept traces; public so other subsystems can link
/// their own histograms to trace ids.
pub fn record_exemplar(metric: &str, value: u64, trace_id: u64) {
    let octave = 63 - value.max(1).leading_zeros();
    let mut s = lock_sink();
    if !s.exemplars.contains_key(metric) && s.exemplars.len() >= 32 {
        return; // bound the per-metric map against name explosions
    }
    s.exemplars
        .entry(metric.to_string())
        .or_default()
        .insert(octave as u8, Exemplar { value, trace_id });
}

/// Empties every ring, the exemplar store and the slow-admission bar
/// (tests; operators via registry reset keep traces).
pub fn clear() {
    let mut s = lock_sink();
    s.recent.clear();
    s.degraded.clear();
    s.exemplars.clear();
    drop(s);
    // Also resets the admission bar.
    slow_reservoir().clear();
}

// --------------------------------------------------------------------------
// Per-thread request state
// --------------------------------------------------------------------------

/// Thread state: 0 = no active trace, 1 = active coarse (tail-only),
/// 2 = active and head-sampled (spans recorded).
const IDLE: u8 = 0;
const COARSE: u8 = 1;
const SAMPLED: u8 = 2;

struct Detail {
    start: Option<Instant>,
    user: u32,
    item: u32,
    depth: u8,
    spans: Vec<SpanRec>,
    notes: Vec<&'static str>,
    /// Trace id fixed before completion — either adopted from a remote
    /// [`TraceContext`] or eagerly allocated because this request
    /// propagated its own context downstream. 0 = allocate at keep time.
    pending_id: u64,
    /// Remote spans stitched in while the request is active.
    remote: Vec<RemoteSpan>,
}

impl Default for Detail {
    fn default() -> Self {
        Self {
            start: None,
            user: 0,
            item: 0,
            depth: 0,
            spans: Vec::with_capacity(16),
            notes: Vec::new(),
            pending_id: 0,
            remote: Vec::new(),
        }
    }
}

thread_local! {
    static STATE: Cell<u8> = const { Cell::new(IDLE) };
    static HEAD_CTR: Cell<u32> = const { Cell::new(0) };
    static DETAIL: RefCell<Detail> = RefCell::new(Detail::default());
    /// Remote adoption armed by [`begin_remote`]: the next requests on
    /// this thread continue the propagated trace instead of starting
    /// their own id / sampling decision.
    static REMOTE_CTX: Cell<Option<TraceContext>> = const { Cell::new(None) };
    /// Span export buffer filled by `complete` while remote adoption is
    /// armed; drained by [`RemoteGuard::finish`].
    static REMOTE_EXPORT: RefCell<Vec<RemoteSpan>> = const { RefCell::new(Vec::new()) };
}

/// Guard for one request's trace. Obtain via [`begin_request`]; close
/// with [`RequestGuard::finish`]. Dropping without finishing (panic
/// unwinding through the request) records an `"abandoned"` note and
/// finishes with an unknown outcome, so escaped panics stay visible.
pub struct RequestGuard {
    armed: bool,
}

/// What the request produced, reported at [`RequestGuard::finish`].
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// Degradation-ladder rung name (stable snake_case).
    pub level: &'static str,
    /// True when served from the ladder's fallback region.
    pub fallback: bool,
    /// Like-minded users used.
    pub k_used: u32,
    /// Similar items used.
    pub m_used: u32,
    /// The served (clamped) prediction.
    pub fused: f64,
}

/// Opens a request trace on this thread. One request per thread at a
/// time: serving code paths never nest predictions, and a nested call
/// would simply restart the thread's buffer.
#[inline]
pub fn begin_request(user: u32, item: u32) -> RequestGuard {
    let every = HEAD_EVERY.load(Ordering::Relaxed);
    if every == 0 {
        return RequestGuard { armed: false };
    }
    let Some(start) = crate::now_if_enabled() else {
        return RequestGuard { armed: false };
    };
    let remote = REMOTE_CTX.get();
    let sampled = match remote {
        // A propagated sampling decision overrides the local head
        // counter in both directions: the origin either wants the whole
        // cross-process tree or none of it.
        Some(ctx) => ctx.sampled,
        None => HEAD_CTR.with(|c| {
            let n = c.get().wrapping_add(1);
            c.set(n);
            n % every == 0
        }),
    };
    DETAIL.with(|d| {
        let d = &mut *d.borrow_mut();
        d.start = Some(start);
        d.user = user;
        d.item = item;
        d.depth = 0;
        d.spans.clear();
        d.notes.clear();
        d.pending_id = remote.map(|ctx| ctx.trace_id).unwrap_or(0);
        d.remote.clear();
    });
    STATE.set(if sampled { SAMPLED } else { COARSE });
    RequestGuard { armed: true }
}

// --------------------------------------------------------------------------
// Cross-process propagation
// --------------------------------------------------------------------------

/// The active request's propagatable context, or `None` when no trace is
/// active on this thread. Allocates the trace id eagerly on first call
/// (the id must cross the wire before the keep decision is made), so the
/// eventual kept trace and all downstream spans agree on it.
pub fn current_context() -> Option<TraceContext> {
    if STATE.get() == IDLE {
        return None;
    }
    let sampled = STATE.get() == SAMPLED;
    DETAIL.with(|d| {
        let d = &mut *d.borrow_mut();
        if d.pending_id == 0 {
            d.pending_id = alloc_trace_id();
        }
        Some(TraceContext {
            trace_id: d.pending_id,
            parent_span: d.depth as u32,
            sampled,
        })
    })
}

/// Guard for a remote-adopted section on a serving thread. While alive,
/// requests begun on this thread continue the propagated trace (same id,
/// same sampling decision) and their completed spans are exported for
/// shipping back. Dropping disarms adoption and discards unclaimed spans.
pub struct RemoteGuard {
    prev: Option<TraceContext>,
    armed: bool,
}

/// Arms remote trace adoption on this thread: until the returned guard is
/// finished or dropped, [`begin_request`] continues `ctx`'s trace. Call
/// on the shard's connection thread before dispatching a request that
/// carried a context.
pub fn begin_remote(ctx: TraceContext) -> RemoteGuard {
    let prev = REMOTE_CTX.replace(Some(ctx));
    REMOTE_EXPORT.with(|b| b.borrow_mut().clear());
    RemoteGuard { prev, armed: true }
}

impl RemoteGuard {
    fn disarm(&mut self) {
        if self.armed {
            self.armed = false;
            REMOTE_CTX.set(self.prev.take());
        }
    }

    /// Disarms adoption and returns every span completed while armed —
    /// the payload the shard appends to its response frame. Spans carry
    /// an empty origin; the stitching side fills it in.
    pub fn finish(mut self) -> Vec<RemoteSpan> {
        self.disarm();
        REMOTE_EXPORT.with(|b| std::mem::take(&mut *b.borrow_mut()))
    }
}

impl Drop for RemoteGuard {
    fn drop(&mut self) {
        self.disarm();
    }
}

/// Stitches spans captured in another process into the active trace,
/// labeling each with `origin` (e.g. `"shard2"`). No-op when no trace is
/// active or the trace is not head-sampled; attachment is bounded by
/// [`REMOTE_SPANS_CAP`].
pub fn attach_remote_spans(origin: &str, spans: Vec<RemoteSpan>) {
    if STATE.get() != SAMPLED || spans.is_empty() {
        return;
    }
    DETAIL.with(|d| {
        let d = &mut *d.borrow_mut();
        for mut s in spans {
            if d.remote.len() >= REMOTE_SPANS_CAP {
                break;
            }
            s.origin = origin.to_string();
            d.remote.push(s);
        }
    });
}

/// RAII guard for one stage of the active request. No-op (one TLS flag
/// read) when the request is not head-sampled or no trace is active.
pub struct SpanGuard {
    name: &'static str,
    start_ns: u64,
    depth: u8,
    active: bool,
}

/// Opens a span named `name` under the active trace, closing at drop.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if STATE.get() != SAMPLED {
        return SpanGuard {
            name,
            start_ns: 0,
            depth: 0,
            active: false,
        };
    }
    DETAIL.with(|d| {
        let d = &mut *d.borrow_mut();
        let start_ns = d
            .start
            .map(|s| s.elapsed().as_nanos().min(u64::MAX as u128) as u64)
            .unwrap_or(0);
        let depth = d.depth;
        d.depth = d.depth.saturating_add(1);
        SpanGuard {
            name,
            start_ns,
            depth,
            active: true,
        }
    })
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        DETAIL.with(|d| {
            let d = &mut *d.borrow_mut();
            let end_ns = d
                .start
                .map(|s| s.elapsed().as_nanos().min(u64::MAX as u128) as u64)
                .unwrap_or(self.start_ns);
            d.depth = d.depth.saturating_sub(1);
            // Bound the span buffer: a pathological loop of spans must not
            // grow a thread buffer without limit.
            if d.spans.len() < 256 {
                d.spans.push(SpanRec {
                    name: self.name,
                    start_ns: self.start_ns,
                    dur_ns: end_ns.saturating_sub(self.start_ns),
                    depth: self.depth,
                });
            }
        });
    }
}

/// Records an anomaly note (caught panic, injected fault) on the active
/// trace. A noted request is always tail-kept. No-op without an active
/// trace.
pub fn note(tag: &'static str) {
    if STATE.get() == IDLE {
        return;
    }
    DETAIL.with(|d| {
        let d = &mut *d.borrow_mut();
        if d.notes.len() < NOTES_CAP && !d.notes.contains(&tag) {
            d.notes.push(tag);
        }
    });
}

impl RequestGuard {
    /// Closes the trace with the request's outcome, recording the total
    /// into [`REQUEST_HISTOGRAM`] and deciding head/tail retention.
    pub fn finish(mut self, outcome: Outcome) {
        if self.armed {
            self.armed = false;
            complete(&outcome);
        }
    }
}

impl Drop for RequestGuard {
    fn drop(&mut self) {
        if self.armed {
            // Unwound out of the request: keep it visible.
            note("abandoned");
            complete(&Outcome {
                level: "unknown",
                fallback: false,
                k_used: 0,
                m_used: 0,
                fused: f64::NAN,
            });
        }
    }
}

fn complete(outcome: &Outcome) {
    let sampled = STATE.get() == SAMPLED;
    STATE.set(IDLE);
    let (total_ns, user, item, spans, notes, pending_id, remote) = DETAIL.with(|d| {
        let d = &mut *d.borrow_mut();
        let total = d
            .start
            .take()
            .map(|s| s.elapsed().as_nanos().min(u64::MAX as u128) as u64)
            .unwrap_or(0);
        let pending_id = std::mem::take(&mut d.pending_id);
        (
            total,
            d.user,
            d.item,
            std::mem::take(&mut d.spans),
            std::mem::take(&mut d.notes),
            pending_id,
            std::mem::take(&mut d.remote),
        )
    });
    crate::histogram!(REQUEST_HISTOGRAM).record(total_ns);

    // A remote-adopted, sampled request exports its completed tree (root
    // first) for the serving layer to ship back to the origin.
    if sampled && REMOTE_CTX.get().is_some() {
        REMOTE_EXPORT.with(|b| {
            let b = &mut *b.borrow_mut();
            if b.len() < REMOTE_SPANS_CAP {
                b.push(RemoteSpan {
                    origin: String::new(),
                    name: "remote.request".to_string(),
                    start_ns: 0,
                    dur_ns: total_ns,
                    depth: 0,
                });
            }
            for s in &spans {
                if b.len() >= REMOTE_SPANS_CAP {
                    break;
                }
                b.push(RemoteSpan {
                    origin: String::new(),
                    name: s.name.to_string(),
                    start_ns: s.start_ns,
                    dur_ns: s.dur_ns,
                    depth: s.depth.saturating_add(1),
                });
            }
        });
    }

    let mut why = 0u8;
    if sampled {
        why |= keep::HEAD;
    }
    if slow_reservoir().should_admit(total_ns) {
        why |= keep::SLOW;
    }
    if outcome.fallback {
        why |= keep::DEGRADED;
    }
    if !notes.is_empty() {
        why |= keep::NOTE;
    }
    if why == 0 {
        // Return the span buffer's capacity to the thread for reuse.
        DETAIL.with(|d| {
            let d = &mut *d.borrow_mut();
            if d.spans.capacity() < spans.capacity() {
                d.spans = spans;
                d.spans.clear();
            }
        });
        return;
    }

    let trace = Arc::new(Trace {
        id: if pending_id != 0 {
            pending_id
        } else {
            alloc_trace_id()
        },
        user,
        item,
        total_ns,
        level: outcome.level,
        fallback: outcome.fallback,
        k_used: outcome.k_used,
        m_used: outcome.m_used,
        fused: outcome.fused,
        notes,
        spans,
        remote_spans: remote,
        why,
    });

    if why & keep::SLOW != 0 {
        // The reservoir re-checks under its own lock (the admission bar
        // may have moved since `should_admit`); the counter tracks
        // traces actually stored.
        if slow_reservoir().admit(total_ns, Arc::clone(&trace)) {
            crate::counter!("trace.captured.slow").inc();
        }
    }
    let mut s = lock_sink();
    if why & keep::HEAD != 0 {
        crate::counter!("trace.captured.head").inc();
        s.recent.push(Arc::clone(&trace));
    }
    if why & (keep::DEGRADED | keep::NOTE) != 0 {
        crate::counter!("trace.captured.degraded").inc();
        s.degraded.push(Arc::clone(&trace));
    }
    drop(s);
    record_exemplar(REQUEST_HISTOGRAM, total_ns, trace.id);
}

// --------------------------------------------------------------------------
// Rendering
// --------------------------------------------------------------------------

fn render_trace(out: &mut String, t: &Trace) {
    use std::fmt::Write;
    let _ = writeln!(
        out,
        "trace {} [{}] user={} item={} level={} fused={:.2} k_used={} m_used={} total={}ns",
        t.id,
        t.why_str(),
        t.user,
        t.item,
        t.level,
        t.fused,
        t.k_used,
        t.m_used,
        t.total_ns
    );
    if !t.notes.is_empty() {
        let _ = writeln!(out, "  notes: {}", t.notes.join(", "));
    }
    let mut spans = t.spans.clone();
    spans.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then(a.depth.cmp(&b.depth)));
    for s in &spans {
        let _ = writeln!(
            out,
            "  {}{:<24} {:>10}ns  @{}ns",
            "  ".repeat(s.depth as usize),
            s.name,
            s.dur_ns,
            s.start_ns
        );
    }
    // Stitched remote spans, grouped by origin. Offsets are relative to
    // the remote request's own start, so each origin group is its own
    // timeline nested under this trace.
    let mut last_origin: Option<&str> = None;
    for s in &t.remote_spans {
        if last_origin != Some(s.origin.as_str()) {
            let _ = writeln!(out, "  remote {} (trace {}):", s.origin, t.id);
            last_origin = Some(s.origin.as_str());
        }
        let _ = writeln!(
            out,
            "    {}{:<24} {:>10}ns  @{}ns",
            "  ".repeat(s.depth as usize),
            s.name,
            s.dur_ns,
            s.start_ns
        );
    }
}

fn render_section(out: &mut String, title: &str, traces: &[Arc<Trace>]) {
    use std::fmt::Write;
    let _ = writeln!(out, "== {title} ({}) ==", traces.len());
    for t in traces {
        render_trace(out, t);
    }
    out.push('\n');
}

/// Renders the given dump as indented span trees (the `/traces` endpoint
/// and `cfsf-cli trace dump` payload).
pub fn render(dump: &TraceDump) -> String {
    let mut out = String::new();
    render_section(&mut out, "slowest", &dump.slow);
    render_section(&mut out, "degraded / anomalous", &dump.degraded);
    render_section(&mut out, "recent (head-sampled)", &dump.recent);
    out
}

/// Convenience: render the current global rings.
pub fn render_current() -> String {
    render(&snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trace tests share process-global rings; serialize them.
    static TEST_LOCK: RecoverMutex<()> = RecoverMutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        let g = TEST_LOCK.lock();
        clear();
        set_head_sample_every(64);
        g
    }

    #[test]
    fn sampled_request_captures_span_tree() {
        let _g = locked();
        set_head_sample_every(1);
        let req = begin_request(7, 42);
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        req.finish(Outcome {
            level: "full",
            fallback: false,
            k_used: 25,
            m_used: 95,
            fused: 4.2,
        });
        let dump = snapshot();
        assert_eq!(dump.recent.len(), 1);
        let t = &dump.recent[0];
        assert_eq!(t.user, 7);
        assert_eq!(t.item, 42);
        assert!(t.why & keep::HEAD != 0);
        assert_eq!(t.spans.len(), 2);
        // Completion order is inner-first; depths identify the nesting.
        assert_eq!(t.spans[0].name, "inner");
        assert_eq!(t.spans[0].depth, 1);
        assert_eq!(t.spans[1].name, "outer");
        assert_eq!(t.spans[1].depth, 0);
        assert!(t.spans[1].dur_ns >= t.spans[0].dur_ns);
    }

    #[test]
    fn degraded_request_is_tail_kept_without_head_sampling() {
        let _g = locked();
        set_head_sample_every(u32::MAX); // head effectively never fires
        let req = begin_request(3, 9);
        req.finish(Outcome {
            level: "global_mean",
            fallback: true,
            k_used: 0,
            m_used: 0,
            fused: 3.1,
        });
        let dump = snapshot();
        assert!(dump.recent.is_empty());
        assert_eq!(dump.degraded.len(), 1);
        assert_eq!(dump.degraded[0].level, "global_mean");
        assert!(dump.degraded[0].spans.is_empty(), "coarse capture only");
        assert!(dump.degraded[0].why & keep::DEGRADED != 0);
    }

    #[test]
    fn noted_request_is_always_kept() {
        let _g = locked();
        set_head_sample_every(u32::MAX);
        let req = begin_request(1, 1);
        note("select_panic");
        note("select_panic"); // deduped
        req.finish(Outcome {
            level: "single_estimator",
            fallback: false,
            k_used: 0,
            m_used: 4,
            fused: 2.0,
        });
        let dump = snapshot();
        assert_eq!(dump.degraded.len(), 1);
        assert_eq!(dump.degraded[0].notes, vec!["select_panic"]);
        assert!(dump.degraded[0].why & keep::NOTE != 0);
    }

    #[test]
    fn abandoned_request_surfaces_via_drop() {
        let _g = locked();
        set_head_sample_every(u32::MAX);
        {
            let _req = begin_request(5, 6);
            // dropped without finish (simulates an unwinding panic)
        }
        let dump = snapshot();
        assert_eq!(dump.degraded.len(), 1);
        assert!(dump.degraded[0].notes.contains(&"abandoned"));
        assert_eq!(dump.degraded[0].level, "unknown");
    }

    #[test]
    fn slow_reservoir_is_bounded_and_keeps_the_slowest() {
        let _g = locked();
        set_head_sample_every(u32::MAX);
        // Fill well past the bound; each is "slow" until the bar rises.
        for k in 0..(SLOW_CAP * 4) {
            let req = begin_request(k as u32, 0);
            // Make later requests genuinely slower so they displace.
            std::hint::black_box((0..(k * 50)).sum::<usize>());
            req.finish(Outcome {
                level: "full",
                fallback: false,
                k_used: 1,
                m_used: 1,
                fused: 1.0,
            });
        }
        let dump = snapshot();
        assert!(dump.slow.len() <= SLOW_CAP);
        assert!(!dump.slow.is_empty());
        // Sorted slowest-first.
        assert!(dump.slow.windows(2).all(|w| w[0].total_ns >= w[1].total_ns));
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let _g = locked();
        set_head_sample_every(1);
        crate::set_enabled(false);
        let req = begin_request(1, 2);
        {
            let _s = span("anything");
        }
        note("ignored");
        req.finish(Outcome {
            level: "full",
            fallback: true, // would otherwise be tail-kept
            k_used: 0,
            m_used: 0,
            fused: 1.0,
        });
        crate::set_enabled(true);
        assert!(snapshot().is_empty(), "disabled registry must stay silent");

        set_head_sample_every(0);
        let req = begin_request(1, 2);
        req.finish(Outcome {
            level: "full",
            fallback: true,
            k_used: 0,
            m_used: 0,
            fused: 1.0,
        });
        assert!(snapshot().is_empty(), "rate 0 must disable tracing");
    }

    #[test]
    fn kept_trace_registers_an_exemplar() {
        let _g = locked();
        set_head_sample_every(1);
        let req = begin_request(11, 13);
        req.finish(Outcome {
            level: "full",
            fallback: false,
            k_used: 2,
            m_used: 3,
            fused: 4.0,
        });
        let ex = exemplars();
        assert!(
            ex.iter()
                .any(|(m, _, e)| m == REQUEST_HISTOGRAM && e.trace_id > 0),
            "exemplar must link the request histogram to a trace id: {ex:?}"
        );
        let dump = snapshot();
        let ids: Vec<u64> = dump.recent.iter().map(|t| t.id).collect();
        assert!(ex.iter().any(|(_, _, e)| ids.contains(&e.trace_id)));
    }

    #[test]
    fn current_context_allocates_id_once_and_tracks_sampling() {
        let _g = locked();
        set_head_sample_every(1);
        assert_eq!(current_context(), None, "no active trace → no context");
        let req = begin_request(4, 5);
        let a = current_context().expect("active trace has context");
        let b = current_context().expect("still active");
        assert_eq!(a.trace_id, b.trace_id, "id is allocated once");
        assert!(a.sampled);
        assert_ne!(a.trace_id, 0);
        req.finish(Outcome {
            level: "full",
            fallback: false,
            k_used: 1,
            m_used: 1,
            fused: 1.0,
        });
        let dump = snapshot();
        assert_eq!(
            dump.recent[0].id, a.trace_id,
            "kept trace reuses the propagated id"
        );
    }

    #[test]
    fn remote_adoption_continues_id_and_exports_spans() {
        let _g = locked();
        set_head_sample_every(u32::MAX); // local head sampling never fires
        let ctx = TraceContext {
            trace_id: 0xfeed_0001,
            parent_span: 2,
            sampled: true,
        };
        let guard = begin_remote(ctx);
        let req = begin_request(9, 10);
        {
            let _s = span("kernel");
        }
        req.finish(Outcome {
            level: "full",
            fallback: false,
            k_used: 3,
            m_used: 4,
            fused: 2.5,
        });
        let exported = guard.finish();
        assert!(
            exported.iter().any(|s| s.name == "remote.request"),
            "export must contain the synthetic root: {exported:?}"
        );
        assert!(exported.iter().any(|s| s.name == "kernel"));
        // The locally-kept trace (head flag via forced sampling) reuses
        // the propagated id.
        let dump = snapshot();
        assert!(dump.recent.iter().any(|t| t.id == ctx.trace_id));
        // Adoption is disarmed after finish.
        let req = begin_request(1, 1);
        let local = current_context().expect("context");
        assert_ne!(local.trace_id, ctx.trace_id);
        drop(req);
    }

    #[test]
    fn remote_unsampled_context_suppresses_span_capture() {
        let _g = locked();
        set_head_sample_every(1); // local sampler would fire...
        let guard = begin_remote(TraceContext {
            trace_id: 77,
            parent_span: 0,
            sampled: false, // ...but the origin said no
        });
        let req = begin_request(2, 3);
        {
            let _s = span("kernel");
        }
        req.finish(Outcome {
            level: "full",
            fallback: false,
            k_used: 1,
            m_used: 1,
            fused: 1.0,
        });
        assert!(guard.finish().is_empty(), "unsampled → nothing exported");
    }

    #[test]
    fn attached_remote_spans_are_kept_and_rendered() {
        let _g = locked();
        set_head_sample_every(1);
        let req = begin_request(21, 22);
        attach_remote_spans(
            "shard1",
            vec![RemoteSpan {
                origin: String::new(),
                name: "remote.request".to_string(),
                start_ns: 0,
                dur_ns: 12_000,
                depth: 0,
            }],
        );
        req.finish(Outcome {
            level: "full",
            fallback: false,
            k_used: 1,
            m_used: 1,
            fused: 3.0,
        });
        let dump = snapshot();
        let t = &dump.recent[0];
        assert_eq!(t.remote_spans.len(), 1);
        assert_eq!(t.remote_spans[0].origin, "shard1");
        let text = render_current();
        assert!(text.contains("remote shard1"), "{text}");
        assert!(text.contains("remote.request"), "{text}");
    }

    #[test]
    fn render_shows_tree_and_attributes() {
        let _g = locked();
        set_head_sample_every(1);
        let req = begin_request(17, 23);
        {
            let _a = span("neighbor_lookup");
        }
        req.finish(Outcome {
            level: "partial_fusion",
            fallback: false,
            k_used: 10,
            m_used: 20,
            fused: 3.5,
        });
        let text = render_current();
        assert!(text.contains("user=17"), "{text}");
        assert!(text.contains("level=partial_fusion"), "{text}");
        assert!(text.contains("neighbor_lookup"), "{text}");
        assert!(text.contains("== slowest"), "{text}");
    }
}
