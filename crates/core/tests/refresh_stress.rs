//! Real-thread stress tests for the zero-pause refresh path: reader
//! threads hammer predictions through the generation cell while a
//! rebuild publishes underneath them.
//!
//! The two invariants the tentpole promises:
//!
//! 1. **Bit-identical straddling** — a request that loads generation
//!    `g` computes exactly what generation `g` computes, no matter how
//!    the swap interleaves with it (the `Arc` snapshot pins the model).
//! 2. **Zero failed requests** — a drift-triggered rebuild under
//!    sustained mixed load never surfaces an error or a block to any
//!    reader.
//!
//! The drift/quality windows are process-global, so the tests serialize
//! on a local mutex.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use cf_matrix::{ItemId, UserId};
use cfsf_core::{Cfsf, CfsfConfig, DriftConfig, DriftState, SelfHealingCfsf};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn fitted() -> Cfsf {
    let d = cf_data::SyntheticConfig::small().generate();
    Cfsf::fit(&d.matrix, CfsfConfig::small()).unwrap()
}

/// Unrated cells of the served matrix, usable as fresh live ratings.
fn unrated_cells(model: &Cfsf, n: usize) -> Vec<(UserId, ItemId)> {
    let m = model.matrix();
    let mut out = Vec::with_capacity(n);
    'outer: for u in 0..m.num_users() {
        for i in 0..m.num_items() {
            let (user, item) = (UserId::from(u), ItemId::from(i));
            if m.get(user, item).is_none() {
                out.push((user, item));
                if out.len() == n {
                    break 'outer;
                }
            }
        }
    }
    out
}

fn counter(name: &str) -> u64 {
    cf_obs::global()
        .snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

/// One recorded read: which generation the reader loaded, which probe it
/// predicted, and the exact bits it got.
struct Sample {
    generation: u64,
    probe: usize,
    bits: u64,
}

#[test]
fn requests_straddling_a_swap_are_bit_identical_per_generation() {
    let _guard = serial();
    let healing = SelfHealingCfsf::new(fitted(), DriftConfig::manual()).unwrap();
    let cell = healing.cell();
    let gen0 = cell.load();

    // Probes spread across the matrix; every reader predicts this set
    // over and over while the swap happens underneath.
    let m = gen0.matrix();
    let probes: Vec<(UserId, ItemId)> = (0..64)
        .map(|k| {
            (
                UserId::from((k * 7) % m.num_users()),
                ItemId::from((k * 13) % m.num_items()),
            )
        })
        .collect();
    let probes = Arc::new(probes);

    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let cell = Arc::clone(&cell);
            let probes = Arc::clone(&probes);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut samples = Vec::new();
                let mut failed = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for (idx, &(user, item)) in probes.iter().enumerate() {
                        let (model, generation) = cell.load_with_generation();
                        match model.predict_with_breakdown(user, item) {
                            Some(b) => samples.push(Sample {
                                generation,
                                probe: idx,
                                bits: b.fused.to_bits(),
                            }),
                            None => failed += 1,
                        }
                    }
                }
                (samples, failed)
            })
        })
        .collect();

    // Merge a batch of fresh ratings and force the rebuild mid-load.
    let scale = gen0.matrix().scale();
    for (user, item) in unrated_cells(&gen0, 24) {
        healing.add_rating(user, item, scale.min).unwrap();
    }
    // Give the readers a moment on generation 0 before the swap.
    std::thread::sleep(Duration::from_millis(30));
    assert!(healing.trigger(), "manual trigger must start a rebuild");
    healing.wait_idle();
    assert_eq!(healing.generation(), 1, "the rebuild must have published");
    // And a moment on generation 1 after it.
    std::thread::sleep(Duration::from_millis(30));
    stop.store(true, Ordering::Relaxed);

    let gen1 = cell.load();
    let mut seen = [0u64; 2];
    for reader in readers {
        let (samples, failed) = reader.join().unwrap();
        assert_eq!(failed, 0, "an in-range request failed during the swap");
        for s in samples {
            assert!(s.generation <= 1, "impossible generation {}", s.generation);
            seen[s.generation as usize] += 1;
            let expect = if s.generation == 0 { &gen0 } else { &gen1 };
            let (user, item) = probes[s.probe];
            let want = expect.predict_with_breakdown(user, item).unwrap();
            assert_eq!(
                s.bits,
                want.fused.to_bits(),
                "probe {:?} under generation {} diverged from that \
                 generation's model",
                (user, item),
                s.generation
            );
        }
    }
    assert!(
        seen[0] > 0 && seen[1] > 0,
        "load must straddle the swap (gen0 {} samples, gen1 {})",
        seen[0],
        seen[1]
    );
}

#[test]
fn drift_triggered_rebuild_under_load_fails_no_request() {
    let _guard = serial();
    let started_before = counter("refresh.started");
    let completed_before = counter("refresh.completed");

    // Hair-trigger thresholds: the drifted ingest below must trip the
    // monitor, not a manual trigger.
    let healing = SelfHealingCfsf::new(fitted(), DriftConfig::sensitive()).unwrap();
    let cell = healing.cell();
    let base = cell.load();
    let scale = base.matrix().scale();
    let (users, items) = (base.matrix().num_users(), base.matrix().num_items());

    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..4)
        .map(|t| {
            let cell = Arc::clone(&cell);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let (mut served, mut failed) = (0u64, 0u64);
                let mut k = t;
                while !stop.load(Ordering::Relaxed) {
                    let model = cell.load();
                    let user = UserId::from(k % users);
                    let item = ItemId::from((k * 11) % items);
                    match model.predict_with_breakdown(user, item) {
                        Some(_) => served += 1,
                        None => failed += 1,
                    }
                    k += 1;
                }
                (served, failed)
            })
        })
        .collect();

    // Drift burst: everyone suddenly rates at the top of the scale.
    // Sensitive thresholds trip on the first evaluated window.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut cells = unrated_cells(&base, 256).into_iter();
    while healing.generation() == 0 && Instant::now() < deadline {
        match cells.next() {
            Some((user, item)) => {
                // The cell may collide with a rating merged meanwhile —
                // rejection is fine, failure to serve is not.
                let _ = healing.add_rating(user, item, scale.max);
            }
            None => break,
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    healing.wait_idle();
    stop.store(true, Ordering::Relaxed);

    assert!(
        healing.generation() >= 1,
        "the drift burst never triggered a rebuild (state {:?})",
        healing.drift_state()
    );
    let mut total_served = 0u64;
    for reader in readers {
        let (served, failed) = reader.join().unwrap();
        assert_eq!(failed, 0, "a request failed during the drift rebuild");
        total_served += served;
    }
    assert!(total_served > 0, "readers must have served under load");
    assert!(
        counter("refresh.started") > started_before,
        "refresh.started must count the drift-triggered rebuild"
    );
    assert!(
        counter("refresh.completed") > completed_before,
        "refresh.completed must count the publish"
    );
    // The drift state machine lands in cooldown (or back to healthy
    // after it expires) — never stuck rebuilding.
    assert_ne!(healing.drift_state(), DriftState::Rebuilding);
    // The /stats.json surface carries the drift + generation state.
    let snapshot = cf_obs::global().snapshot();
    assert!(snapshot.gauges.contains_key("drift.state"));
    assert!(snapshot.gauges.contains_key("refresh.generation"));
}
