//! # cf-parallel — minimal data-parallel toolkit
//!
//! The CFSF offline phase builds a 1000×1000 item-similarity matrix and
//! runs K-means over user profiles; both are embarrassingly parallel. The
//! allowed dependency set for this reproduction has no `rayon`, so this
//! crate provides the small slice of it the workspace needs, built on
//! `std::thread::scope` and an atomic chunk counter:
//!
//! - [`par_map`] — dynamically scheduled parallel map over an index range,
//! - [`par_map_isolated`] — like [`par_map`], but a panic in one item is
//!   caught and yields `None` for that item alone (request isolation for
//!   serving paths),
//! - [`par_for_each_mut`] — statically chunked parallel mutation of a slice,
//! - [`par_reduce`] — parallel map + associative fold,
//! - [`join`] — run two closures on two threads,
//! - [`effective_threads`] — thread-count policy (request → env → cores).
//!
//! Everything is safe code; results are deterministic for deterministic
//! closures (outputs are reassembled in index order regardless of which
//! worker computed them).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable that caps worker threads for the whole workspace.
pub const THREADS_ENV: &str = "CF_THREADS";

/// Resolves the number of worker threads to use.
///
/// Priority: an explicit `requested` value, then the `CF_THREADS`
/// environment variable, then `std::thread::available_parallelism()`.
/// Always at least 1.
pub fn effective_threads(requested: Option<usize>) -> usize {
    if let Some(n) = requested {
        return n.max(1);
    }
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Picks a chunk size giving each thread several chunks to balance over,
/// with a floor so tiny work items aren't dominated by scheduling overhead.
fn chunk_size_for(n: usize, threads: usize) -> usize {
    (n / (threads * 8)).max(1)
}

/// Parallel map over `0..n`, dynamically scheduled in chunks.
///
/// Returns `vec![f(0), f(1), .., f(n-1)]`, identical to the sequential map
/// for any deterministic `f`. The calling thread is one of the `threads`
/// workers (only `threads − 1` are spawned), so a call never parks its
/// caller while others work. Worker panics propagate to the caller,
/// including a panic in a chunk the caller ran itself.
///
/// ```
/// let squares = cf_parallel::par_map(100, 4, |i| i * i);
/// assert_eq!(squares[7], 49);
/// ```
pub fn par_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let chunk = chunk_size_for(n, threads);
    let num_chunks = n.div_ceil(chunk);
    let next = AtomicUsize::new(0);
    // One worker's loop: claim chunks until none are left, keeping each
    // chunk's outputs with its index for reassembly.
    let work = || {
        let mut done: Vec<(usize, Vec<T>)> = Vec::new();
        loop {
            let c = next.fetch_add(1, Ordering::Relaxed);
            if c >= num_chunks {
                return done;
            }
            let lo = c * chunk;
            let hi = (lo + chunk).min(n);
            done.push((c, (lo..hi).map(&f).collect()));
        }
    };

    std::thread::scope(|s| {
        let helpers: Vec<_> = (1..threads).map(|_| s.spawn(work)).collect();
        // A panic here unwinds out of the scope, which joins the helpers
        // first and then re-raises it.
        let mut parts = work();
        for h in helpers {
            match h.join() {
                Ok(done) => parts.extend(done),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        parts.sort_unstable_by_key(|&(c, _)| c);
        let mut out = Vec::with_capacity(n);
        for (_, vals) in parts {
            out.extend(vals);
        }
        out
    })
}

/// Like [`par_map`], but isolates per-item panics: a panic while
/// computing `f(i)` is caught with `catch_unwind` and surfaces as `None`
/// in slot `i`; every other item still produces its value. This is the
/// serving-path variant — one poisoned request must degrade that request,
/// not take down the batch (let alone the process).
///
/// `f` must be [`std::panic::RefUnwindSafe`], so `catch_unwind` can take
/// it by reference without an `AssertUnwindSafe` wrapper and the compiler
/// checks what the closure shares. The intended callers are read-only
/// prediction closures over a fitted model (whose caches recover from
/// poisoning on their own).
///
/// ```
/// let out = cf_parallel::par_map_isolated(4, 2, |i| {
///     if i == 2 { panic!("bad row") }
///     i * 10
/// });
/// assert_eq!(out, vec![Some(0), Some(10), None, Some(30)]);
/// ```
pub fn par_map_isolated<T, F>(n: usize, threads: usize, f: F) -> Vec<Option<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync + std::panic::RefUnwindSafe,
{
    let f = &f;
    par_map(n, threads, move |i| std::panic::catch_unwind(|| f(i)).ok())
}

/// Parallel in-place mutation of a slice, statically chunked.
///
/// `f` receives the element's index and a mutable reference. Chunks are
/// contiguous, so false sharing is limited to chunk boundaries.
///
/// ```
/// let mut v = vec![0usize; 64];
/// cf_parallel::par_for_each_mut(&mut v, 4, |i, x| *x = i * 2);
/// assert_eq!(v[10], 20);
/// ```
pub fn par_for_each_mut<T, F>(data: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n = data.len();
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 || n <= 1 {
        for (i, x) in data.iter_mut().enumerate() {
            f(i, x);
        }
        return;
    }
    let chunk = n.div_ceil(threads);
    std::thread::scope(|s| {
        for (c, part) in data.chunks_mut(chunk).enumerate() {
            let f = &f;
            s.spawn(move || {
                let base = c * chunk;
                for (k, x) in part.iter_mut().enumerate() {
                    f(base + k, x);
                }
            });
        }
    });
}

/// Parallel map-reduce over `0..n` with an associative `fold`.
///
/// Each chunk folds locally starting from `identity()`; the caller then
/// folds the per-chunk results *in chunk order*, so the result is
/// deterministic whenever `fold` is associative (it need not be
/// commutative, and floating-point summation stays reproducible run to
/// run).
///
/// ```
/// let sum = cf_parallel::par_reduce(1000, 4, || 0u64, |i| i as u64, |a, b| a + b);
/// assert_eq!(sum, 499_500);
/// ```
pub fn par_reduce<T, Id, M, F>(n: usize, threads: usize, identity: Id, map: M, fold: F) -> T
where
    T: Send,
    Id: Fn() -> T + Sync,
    M: Fn(usize) -> T + Sync,
    F: Fn(T, T) -> T + Sync,
{
    if n == 0 {
        return identity();
    }
    let threads = threads.clamp(1, n);
    let chunk = chunk_size_for(n, threads);
    let num_chunks = n.div_ceil(chunk);
    let parts = par_map(num_chunks, threads, |c| {
        let lo = c * chunk;
        let hi = (lo + chunk).min(n);
        let mut acc = identity();
        for i in lo..hi {
            acc = fold(acc, map(i));
        }
        acc
    });
    let mut acc = identity();
    for part in parts {
        acc = fold(acc, part);
    }
    acc
}

/// Runs `a` and `b` concurrently and returns both results.
///
/// ```
/// let (x, y) = cf_parallel::join(|| 2 + 2, || "ok");
/// assert_eq!((x, y), (4, "ok"));
/// ```
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    std::thread::scope(|s| {
        let hb = s.spawn(b);
        let ra = a();
        let rb = hb.join().expect("join: second closure panicked");
        (ra, rb)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_sequential() {
        let seq: Vec<usize> = (0..1000).map(|i| i * 3 + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(
                par_map(1000, threads, |i| i * 3 + 1),
                seq,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn par_map_empty_and_tiny() {
        assert!(par_map(0, 4, |i| i).is_empty());
        assert_eq!(par_map(1, 4, |i| i + 7), vec![7]);
        assert_eq!(par_map(2, 16, |i| i), vec![0, 1]);
    }

    #[test]
    fn par_map_with_nontrivial_payloads() {
        let out = par_map(100, 4, |i| vec![i; i % 5]);
        assert_eq!(out[9], vec![9; 4]);
        assert_eq!(out.len(), 100);
    }

    #[test]
    #[should_panic]
    fn par_map_propagates_worker_panic() {
        let _ = par_map(100, 4, |i| {
            if i == 57 {
                panic!("boom");
            }
            i
        });
    }

    /// `f` on a helper thread waits until the calling thread has run an
    /// item of its own; `on_caller` decides what the caller's item does.
    /// A helper holds one chunk at a time and there are many, so a caller
    /// that works always gets one. The wait gives up after 10 s, so a
    /// caller that never works fails the test instead of hanging it.
    /// Returns the map and whether the caller ran an item.
    fn with_caller_first(on_caller: impl Fn(usize) -> usize + Sync) -> (Vec<usize>, bool) {
        use std::sync::atomic::AtomicBool;
        use std::time::{Duration, Instant};
        let caller = std::thread::current().id();
        let caller_ran = AtomicBool::new(false);
        let give_up = Instant::now() + Duration::from_secs(10);
        let out = par_map(200, 2, |i| {
            if std::thread::current().id() == caller {
                caller_ran.store(true, Ordering::SeqCst);
                return on_caller(i);
            }
            while !caller_ran.load(Ordering::SeqCst) && Instant::now() < give_up {
                std::thread::yield_now();
            }
            i
        });
        (out, caller_ran.into_inner())
    }

    #[test]
    fn par_map_runs_chunks_on_the_calling_thread() {
        let (out, caller_ran) = with_caller_first(|i| i);
        assert!(caller_ran, "the calling thread must work a chunk");
        assert_eq!(out, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_propagates_a_panic_from_the_callers_own_chunk() {
        let err =
            std::panic::catch_unwind(|| with_caller_first(|i| panic!("caller chunk item {i}")))
                .expect_err("the caller's panic must reach the caller");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.starts_with("caller chunk item"), "payload: {msg:?}");
    }

    #[test]
    fn par_map_isolated_turns_panics_into_none() {
        for threads in [1, 4] {
            let out = par_map_isolated(100, threads, |i| {
                if i % 30 == 7 {
                    panic!("poisoned row {i}");
                }
                i * 2
            });
            assert_eq!(out.len(), 100);
            for (i, v) in out.iter().enumerate() {
                if i % 30 == 7 {
                    assert!(v.is_none(), "panicked item {i} must be None");
                } else {
                    assert_eq!(*v, Some(i * 2), "item {i}");
                }
            }
        }
    }

    #[test]
    fn par_map_isolated_without_panics_matches_par_map() {
        let a = par_map_isolated(257, 4, |i| i + 1);
        assert!(a.iter().enumerate().all(|(i, v)| *v == Some(i + 1)));
    }

    #[test]
    fn par_for_each_mut_touches_every_index_once() {
        let mut v = vec![0u32; 777];
        par_for_each_mut(&mut v, 5, |i, x| *x += i as u32 + 1);
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i as u32 + 1);
        }
    }

    #[test]
    fn par_for_each_mut_handles_empty() {
        let mut v: Vec<u8> = vec![];
        par_for_each_mut(&mut v, 4, |_, _| unreachable!());
    }

    #[test]
    fn par_reduce_sums_correctly() {
        for threads in [1, 2, 7] {
            let s = par_reduce(12345, threads, || 0u64, |i| i as u64, |a, b| a + b);
            assert_eq!(s, 12345 * 12344 / 2, "threads={threads}");
        }
    }

    #[test]
    fn par_reduce_empty_returns_identity() {
        let s = par_reduce(0, 4, || 41u64, |_| 1, |a, b| a + b);
        assert_eq!(s, 41);
    }

    #[test]
    fn par_reduce_is_order_preserving_for_associative_noncommutative_fold() {
        // String concatenation is associative but not commutative.
        let s = par_reduce(
            26,
            4,
            String::new,
            |i| char::from(b'a' + i as u8).to_string(),
            |a, b| a + &b,
        );
        assert_eq!(s, "abcdefghijklmnopqrstuvwxyz");
    }

    #[test]
    fn join_runs_both() {
        let (a, b) = join(|| (0..10).sum::<i32>(), || "done".to_string());
        assert_eq!(a, 45);
        assert_eq!(b, "done");
    }

    #[test]
    fn effective_threads_has_floor_of_one() {
        assert_eq!(effective_threads(Some(0)), 1);
        assert!(effective_threads(None) >= 1);
        assert_eq!(effective_threads(Some(9)), 9);
    }
}
