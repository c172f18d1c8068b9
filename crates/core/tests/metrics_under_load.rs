//! Metric-consistency invariants under concurrent serving load.
//!
//! Counter math only holds if every hot-path increment is placed exactly
//! once; this suite races two full batches through the model and checks
//! the exact bookkeeping identities. It lives in its own integration
//! test file (its own process) so the global registry deltas are not
//! perturbed by unrelated tests.

use std::sync::{Mutex, MutexGuard, PoisonError};

use cf_matrix::{ItemId, UserId};
use cfsf_core::{Cfsf, CfsfConfig, DegradeLevel};

const USERS: usize = 80;
const ITEMS: usize = 120;

fn model() -> Cfsf {
    let d = cf_data::SyntheticConfig::small().generate();
    Cfsf::fit(&d.matrix, CfsfConfig::small()).expect("fit succeeds")
}

/// The tests measure deltas of the same process-global counters, so
/// they take turns: one test's predictions must not land in another's
/// window.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn counter(name: &str) -> u64 {
    cf_obs::global()
        .snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

const RUNGS: [&str; 6] = [
    "online.degrade.full",
    "online.degrade.partial_fusion",
    "online.degrade.single_estimator",
    "online.degrade.cluster_smoothed",
    "online.degrade.user_mean",
    "online.degrade.global_mean",
];

fn rung_sum() -> u64 {
    RUNGS.iter().map(|r| counter(r)).sum()
}

#[test]
fn degrade_and_cache_counters_balance_under_concurrent_load() {
    let _serial = serial();
    let m = std::sync::Arc::new(model());
    let requests: Vec<(UserId, ItemId)> = (0..600)
        .map(|k| {
            (
                UserId::new((k % USERS) as u32),
                ItemId::new(((k * 7) % ITEMS) as u32),
            )
        })
        .collect();
    let n = requests.len() as u64;

    let predictions_before = counter("online.predictions");
    let rungs_before = rung_sum();
    let hits_before = counter("online.neighbor_cache.hit");
    let misses_before = counter("online.neighbor_cache.miss");

    // Two OS threads race full batches (each itself 4-way parallel) over
    // a cold cache: worst-case contention on the neighbor cache's slots.
    m.clear_caches();
    let h1 = {
        let m = std::sync::Arc::clone(&m);
        let reqs = requests.clone();
        std::thread::spawn(move || m.predict_batch(&reqs, Some(4)))
    };
    let h2 = {
        let m = std::sync::Arc::clone(&m);
        let reqs = requests.clone();
        std::thread::spawn(move || m.predict_batch(&reqs, Some(4)))
    };
    let out1 = h1.join().expect("batch thread 1");
    let out2 = h2.join().expect("batch thread 2");
    assert_eq!(out1, out2, "racing batches must serve identical answers");
    assert!(
        out1.iter().all(Option::is_some),
        "all requests are in-range"
    );

    // --- Exact identity: every in-range prediction is served from
    // exactly one degradation rung.
    let predictions = counter("online.predictions") - predictions_before;
    assert_eq!(predictions, 2 * n, "one online.predictions per request");
    assert_eq!(
        rung_sum() - rungs_before,
        predictions,
        "every prediction lands on exactly one online.degrade.* rung"
    );

    // --- Exact identity: every top-K lookup is either a hit or a miss.
    // Each batch warms the USERS distinct users once, then each request
    // looks the user up again inside predict.
    let hits = counter("online.neighbor_cache.hit") - hits_before;
    let misses = counter("online.neighbor_cache.miss") - misses_before;
    let lookups = 2 * (USERS as u64) + 2 * n;
    assert_eq!(
        hits + misses,
        lookups,
        "every lookup must count as exactly one hit or miss"
    );
    // Cold cache: each of the USERS distinct users misses at least once;
    // two racing warms can at most double-miss each user.
    assert!(
        (USERS as u64..=2 * USERS as u64).contains(&misses),
        "misses {misses} outside [{USERS}, {}]",
        2 * USERS
    );
    assert!(hits >= 2 * n - misses, "the warmed lookups must mostly hit");
}

#[test]
fn estimator_counters_never_exceed_predictions() {
    let _serial = serial();
    let m = model();
    let before = counter("online.predictions");
    for u in 0..USERS {
        let _ = m.predict_with_breakdown(UserId::new(u as u32), ItemId::new((u % ITEMS) as u32));
    }
    let served = counter("online.predictions") - before;
    assert_eq!(served, USERS as u64);
    for est in [
        "online.estimator.sir",
        "online.estimator.sur",
        "online.estimator.suir",
    ] {
        assert!(
            counter(est) <= counter("online.predictions"),
            "{est} can fire at most once per prediction"
        );
    }
}

/// A user id past the model's users has no ratings and no cache slot:
/// `top_k_users` answers an empty selection without selecting (so no
/// caught panic in `online.select_panic`), caching or counting a lookup.
#[test]
fn top_k_users_past_the_model_is_empty_uncached_and_uncounted() {
    let _serial = serial();
    let m = model();
    let counted = || {
        [
            "online.neighbor_cache.hit",
            "online.neighbor_cache.miss",
            "online.select_panic",
        ]
        .map(counter)
    };
    let before = counted();
    for user in [USERS, USERS + 5, u32::MAX as usize] {
        assert!(m.top_k_users(UserId::from(user)).is_empty(), "user {user}");
    }
    assert_eq!(counted(), before);
    assert_eq!(m.neighbor_cache_len(), 0);
}

/// Top-N's bookkeeping, exactly, per call: every unrated item of the
/// stripe is either scored or pruned; each scored item is one
/// `online.predictions` on one `online.degrade.*` rung, and a pruned one
/// is neither; the call looks the user's neighbors up once.
#[test]
fn top_n_counts_every_unrated_item_as_scored_or_pruned() {
    let _serial = serial();
    let m = model();
    let lookups = || counter("online.neighbor_cache.hit") + counter("online.neighbor_cache.miss");
    let mut pruned_total = 0;
    for u in (0..USERS).step_by(5) {
        let user = UserId::new(u as u32);
        for (n, range) in [(10, 0..u32::MAX), (3, 30..90), (ITEMS, 0..u32::MAX)] {
            let unrated = (range.start..range.end.min(ITEMS as u32))
                .filter(|&i| !m.matrix().is_rated(user, ItemId::new(i)))
                .count() as u64;
            let (scored0, pruned0) = (counter("online.topn.scored"), counter("online.topn.pruned"));
            let (predictions0, rungs0, lookups0) =
                (counter("online.predictions"), rung_sum(), lookups());

            let recs = m.recommend_top_n_in_range(user, n, range.clone());

            let scored = counter("online.topn.scored") - scored0;
            let pruned = counter("online.topn.pruned") - pruned0;
            let case = format!("user {u}, n {n}, {range:?}");
            assert_eq!(scored + pruned, unrated, "{case}");
            assert_eq!(
                counter("online.predictions") - predictions0,
                scored,
                "{case}"
            );
            assert_eq!(rung_sum() - rungs0, scored, "{case}");
            assert_eq!(
                lookups() - lookups0,
                1,
                "{case}: one neighbor lookup per call"
            );
            assert!(
                recs.len() as u64 <= scored,
                "{case}: only scored items are returned"
            );
            if n as u64 >= unrated {
                assert_eq!(pruned, 0, "{case}: nothing can be pruned when all fit");
            }
            pruned_total += pruned;
        }
    }
    assert!(pruned_total > 0, "the bound never pruned an item");
}

/// Every rung bumps its own `online.degrade.<name>` counter and no other
/// `online.degrade.*` counter. The walk goes over every wire code, so a
/// new rung is covered as soon as it has one.
#[test]
fn every_rung_records_into_its_own_degrade_counter() {
    let _serial = serial();
    let degrade_total = || -> u64 {
        cf_obs::global()
            .snapshot()
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("online.degrade."))
            .map(|(_, v)| v)
            .sum()
    };
    for level in (0..=u8::MAX).filter_map(DegradeLevel::from_code) {
        let name = format!("online.degrade.{}", level.as_str());
        let (own_before, total_before) = (counter(&name), degrade_total());
        level.record();
        assert_eq!(counter(&name), own_before + 1, "{level:?} must bump {name}");
        assert_eq!(
            degrade_total(),
            total_before + 1,
            "{level:?} must bump no other online.degrade.* counter"
        );
    }
}
