//! # cf-faultinject — deterministic fault injection for the chaos suite
//!
//! Production code in this workspace carries *injection points*: named
//! hooks, compiled in only under the `faultinject` cargo feature of the
//! host crate, where a test can make a stage misbehave on demand — an
//! I/O error, a NaN rating, an empty neighbor list, a panicking worker, a
//! fault in the middle of a model rebuild. The chaos suite
//! (`crates/core/tests/chaos.rs`) arms points, drives the normal serving
//! API, and asserts the process never panics, every prediction stays
//! finite and on-scale, and the degradation counters account for every
//! injected fault.
//!
//! Everything is deterministic: a point fires according to an explicit
//! [`Policy`], and the only randomized policy ([`Policy::Probability`])
//! draws from a xoshiro256** stream seeded at arm time, so a failing run
//! replays exactly.
//!
//! The registry is process-global because the hooks live deep inside
//! serving code that cannot thread a handle through. Tests that arm
//! points must serialize on a lock of their own (see the chaos suite's
//! `FAULT_LOCK`) — points are named, but the namespace is shared.
//!
//! Besides the named points, the crate ships deterministic I/O wrappers
//! ([`FailingReader`], [`FailingWriter`], [`TruncatedReader`]) for
//! exercising persistence error paths without touching the registry, and
//! [`ChildGuard`], a kill-on-drop handle for chaos tests that spawn real
//! processes (shards, routers) and murder them mid-load.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::sync::{Mutex, OnceLock};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// When an armed injection point fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// Fires on every evaluation.
    Always,
    /// Fires on the first evaluation only.
    Once,
    /// Fires on the `n`-th evaluation (1-based), once.
    Nth(u64),
    /// Fires on every evaluation from the `n`-th (1-based) onward.
    From(u64),
    /// Fires independently with probability `p`, from a stream seeded at
    /// arm time — deterministic per (seed, evaluation index).
    Probability(f64),
}

struct Point {
    policy: Policy,
    rng: StdRng,
    evaluations: u64,
    fired: u64,
}

impl Point {
    fn evaluate(&mut self) -> bool {
        self.evaluations += 1;
        let fire = match self.policy {
            Policy::Always => true,
            Policy::Once => self.evaluations == 1,
            Policy::Nth(n) => self.evaluations == n,
            Policy::From(n) => self.evaluations >= n,
            Policy::Probability(p) => self.rng.gen::<f64>() < p,
        };
        if fire {
            self.fired += 1;
        }
        fire
    }
}

fn registry() -> &'static Mutex<HashMap<String, Point>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, Point>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// A panic while holding the registry lock is impossible (the critical
/// sections only touch the map), but fault-injection code of all things
/// must not turn a poisoned lock into a cascade — recover the guard.
fn lock() -> std::sync::MutexGuard<'static, HashMap<String, Point>> {
    registry()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Arms `point` with `policy`, seeding its random stream from the point
/// name (so `Probability` policies replay without an explicit seed).
pub fn arm(point: &str, policy: Policy) {
    let seed = point.bytes().fold(0xcbf29ce484222325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
    });
    arm_seeded(point, policy, seed);
}

/// Arms `point` with `policy` and an explicit seed for its stream.
pub fn arm_seeded(point: &str, policy: Policy, seed: u64) {
    lock().insert(
        point.to_string(),
        Point {
            policy,
            rng: StdRng::seed_from_u64(seed),
            evaluations: 0,
            fired: 0,
        },
    );
}

/// Disarms one point. Unarmed points never fire.
pub fn disarm(point: &str) {
    lock().remove(point);
}

/// Disarms every point — call between chaos scenarios.
pub fn disarm_all() {
    lock().clear();
}

/// Evaluates `point`: `true` when armed and its policy fires. This is the
/// call production hooks make; for an unarmed point it is one hash lookup
/// under a mutex, and the hooks themselves only exist under the host
/// crate's `faultinject` feature.
pub fn fires(point: &str) -> bool {
    match lock().get_mut(point) {
        Some(p) => p.evaluate(),
        None => false,
    }
}

/// How many times `point` has fired since it was armed (0 if unarmed).
pub fn fired_count(point: &str) -> u64 {
    lock().get(point).map_or(0, |p| p.fired)
}

// --- typed helpers for common fault shapes -----------------------------

/// Returns an injected `io::Error` when `point` fires.
pub fn maybe_io_error(point: &str) -> io::Result<()> {
    if fires(point) {
        Err(io::Error::other(format!("injected fault: {point}")))
    } else {
        Ok(())
    }
}

/// Panics with a recognizable message when `point` fires.
pub fn maybe_panic(point: &str) {
    if fires(point) {
        panic!("injected panic: {point}");
    }
}

/// How long [`maybe_stall`] sleeps when its point fires. Long enough for
/// a chaos test to observe the system serving *around* the stalled
/// thread, short enough not to drag the suite.
pub const STALL: std::time::Duration = std::time::Duration::from_millis(250);

/// Sleeps for [`STALL`] when `point` fires (models a wedged worker — a
/// refresh thread stuck on slow I/O or a starved core — without killing
/// it). The caller's thread blocks; everything else keeps running, which
/// is exactly what the zero-pause chaos scenarios assert.
pub fn maybe_stall(point: &str) {
    if fires(point) {
        std::thread::sleep(STALL);
    }
}

/// Replaces `value` with NaN when `point` fires (models a corrupt rating
/// or estimator slipping into a numeric pipeline).
pub fn corrupt_f64(point: &str, value: f64) -> f64 {
    if fires(point) {
        f64::NAN
    } else {
        value
    }
}

// --- deterministic I/O wrappers ----------------------------------------

/// A reader that yields `inner`'s bytes until `fail_at` bytes have been
/// read, then returns an I/O error on every subsequent call.
#[derive(Debug)]
pub struct FailingReader<R> {
    inner: R,
    remaining: usize,
}

impl<R: Read> FailingReader<R> {
    /// Fails after `fail_at` bytes.
    pub fn new(inner: R, fail_at: usize) -> Self {
        Self {
            inner,
            remaining: fail_at,
        }
    }
}

impl<R: Read> Read for FailingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.remaining == 0 {
            return Err(io::Error::other("injected read fault"));
        }
        let cap = buf.len().min(self.remaining);
        let n = self.inner.read(&mut buf[..cap])?;
        self.remaining -= n;
        Ok(n)
    }
}

/// A writer that accepts `fail_at` bytes, then returns an I/O error on
/// every subsequent write.
#[derive(Debug)]
pub struct FailingWriter<W> {
    inner: W,
    remaining: usize,
}

impl<W: Write> FailingWriter<W> {
    /// Fails after `fail_at` bytes.
    pub fn new(inner: W, fail_at: usize) -> Self {
        Self {
            inner,
            remaining: fail_at,
        }
    }
}

impl<W: Write> Write for FailingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.remaining == 0 {
            return Err(io::Error::other("injected write fault"));
        }
        let cap = buf.len().min(self.remaining);
        let n = self.inner.write(&buf[..cap])?;
        self.remaining -= n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A reader that reports clean end-of-stream after `cut` bytes — a
/// truncated file, as opposed to a failing device.
#[derive(Debug)]
pub struct TruncatedReader<R> {
    inner: R,
    remaining: usize,
}

impl<R: Read> TruncatedReader<R> {
    /// Ends the stream after `cut` bytes.
    pub fn new(inner: R, cut: usize) -> Self {
        Self {
            inner,
            remaining: cut,
        }
    }
}

impl<R: Read> Read for TruncatedReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.remaining == 0 {
            return Ok(0);
        }
        let cap = buf.len().min(self.remaining);
        let n = self.inner.read(&mut buf[..cap])?;
        self.remaining -= n;
        Ok(n)
    }
}

/// A child process that is killed (and reaped) when the guard drops —
/// the process-level analogue of the injection points: chaos tests spawn
/// real shard/router processes through this so a failing assertion can
/// never leak orphans into the test host.
///
/// [`ChildGuard::kill_now`] is the chaos primitive itself: it models a
/// shard crashing mid-load, at a moment the test chooses.
#[derive(Debug)]
pub struct ChildGuard {
    child: Option<std::process::Child>,
    name: String,
}

impl ChildGuard {
    /// Takes ownership of `child`; `name` labels kill messages.
    pub fn new(child: std::process::Child, name: impl Into<String>) -> Self {
        Self {
            child: Some(child),
            name: name.into(),
        }
    }

    /// OS process id, if the child has not been killed yet.
    pub fn id(&self) -> Option<u32> {
        self.child.as_ref().map(std::process::Child::id)
    }

    /// The child handle, for reading its stdout/stderr pipes.
    pub fn child_mut(&mut self) -> Option<&mut std::process::Child> {
        self.child.as_mut()
    }

    /// Kills the child *now* and reaps it. Idempotent; this is how a
    /// chaos test murders a shard mid-load.
    pub fn kill_now(&mut self) {
        if let Some(mut child) = self.child.take() {
            // An already-exited child makes kill() fail; either way the
            // wait() reaps the zombie.
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// Whether the child has already exited on its own (without killing
    /// it). `false` also after `kill_now`.
    pub fn exited(&mut self) -> bool {
        match self.child.as_mut() {
            Some(c) => matches!(c.try_wait(), Ok(Some(_))),
            None => false,
        }
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        if self.child.is_some() {
            // Normal teardown path: tests usually drop guards without an
            // explicit kill. Not a log-worthy event — but keep the name
            // around for debugging double-kill confusion.
            let _ = &self.name;
            self.kill_now();
        }
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    /// The registry is global and tests run threaded: each test uses its
    /// own point names so they cannot interfere.
    #[test]
    fn unarmed_points_never_fire() {
        assert!(!fires("t.unarmed"));
        assert_eq!(fired_count("t.unarmed"), 0);
    }

    #[test]
    fn policies_fire_as_specified() {
        arm("t.always", Policy::Always);
        assert!(fires("t.always") && fires("t.always"));

        arm("t.once", Policy::Once);
        assert!(fires("t.once"));
        assert!(!fires("t.once"));
        assert_eq!(fired_count("t.once"), 1);

        arm("t.nth", Policy::Nth(3));
        assert!(!fires("t.nth") && !fires("t.nth"));
        assert!(fires("t.nth"));
        assert!(!fires("t.nth"));

        arm("t.from", Policy::From(2));
        assert!(!fires("t.from"));
        assert!(fires("t.from") && fires("t.from"));

        disarm("t.always");
        assert!(!fires("t.always"));
    }

    #[test]
    fn probability_stream_is_deterministic() {
        arm_seeded("t.prob_a", Policy::Probability(0.5), 7);
        let a: Vec<bool> = (0..64).map(|_| fires("t.prob_a")).collect();
        arm_seeded("t.prob_a", Policy::Probability(0.5), 7);
        let b: Vec<bool> = (0..64).map(|_| fires("t.prob_a")).collect();
        assert_eq!(a, b);
        assert!(a.iter().any(|&x| x) && a.iter().any(|&x| !x));
    }

    #[test]
    fn typed_helpers_map_fires_to_faults() {
        arm("t.io", Policy::Once);
        assert!(maybe_io_error("t.io").is_err());
        assert!(maybe_io_error("t.io").is_ok());

        arm("t.nan", Policy::Once);
        assert!(corrupt_f64("t.nan", 3.0).is_nan());
        assert_eq!(corrupt_f64("t.nan", 3.0), 3.0);

        arm("t.panic", Policy::Once);
        let r = std::panic::catch_unwind(|| maybe_panic("t.panic"));
        assert!(r.is_err());
        maybe_panic("t.panic"); // disarmed by Once: must not panic
    }

    #[test]
    fn failing_reader_fails_at_boundary() {
        let data = vec![7u8; 100];
        let mut r = FailingReader::new(data.as_slice(), 60);
        let mut buf = Vec::new();
        let e = r.read_to_end(&mut buf).unwrap_err();
        assert_eq!(buf.len(), 60);
        assert!(e.to_string().contains("injected"));
    }

    #[test]
    fn failing_writer_fails_at_boundary() {
        let mut sink = Vec::new();
        let mut w = FailingWriter::new(&mut sink, 10);
        assert_eq!(w.write(&[1u8; 8]).unwrap(), 8);
        assert_eq!(w.write(&[2u8; 8]).unwrap(), 2);
        assert!(w.write(&[3u8; 8]).is_err());
        assert_eq!(sink.len(), 10);
    }

    #[test]
    fn truncated_reader_ends_cleanly() {
        let data = vec![1u8; 100];
        let mut r = TruncatedReader::new(data.as_slice(), 42);
        let mut buf = Vec::new();
        r.read_to_end(&mut buf).unwrap();
        assert_eq!(buf.len(), 42);
    }

    #[test]
    fn child_guard_kills_and_reaps() {
        let child = std::process::Command::new("sleep")
            .arg("30")
            .spawn()
            .expect("sleep is available on the test host");
        let mut guard = ChildGuard::new(child, "sleep-test");
        assert!(guard.id().is_some());
        assert!(!guard.exited());
        guard.kill_now();
        assert!(guard.id().is_none());
        guard.kill_now(); // idempotent
    }
}
