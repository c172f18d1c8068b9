//! Concurrency behavior of the online phase's shared caches.

use std::sync::Arc;

use cf_matrix::UserId;
use cfsf_core::{Cfsf, CfsfConfig};

fn model() -> Cfsf {
    let d = cf_data::SyntheticConfig::small().generate();
    Cfsf::fit(&d.matrix, CfsfConfig::small()).unwrap()
}

#[test]
fn concurrent_top_k_users_share_one_cached_selection() {
    // N threads race on a cold cache for the same user. Whoever loses the
    // insert race must still end up with the winner's Arc — all returned
    // handles are pointer-equal, so the cache holds exactly one selection
    // per user no matter how the race resolves.
    let m = model();
    let user = UserId::new(17);
    let threads = 8;

    for round in 0..10 {
        m.clear_caches();
        let handles: Vec<Arc<Vec<(UserId, f64)>>> =
            cf_parallel::par_map(threads, threads, |_| m.top_k_users(user));
        assert_eq!(handles.len(), threads);
        let first = &handles[0];
        for (t, h) in handles.iter().enumerate() {
            assert!(
                Arc::ptr_eq(first, h),
                "round {round}: thread {t} got a different selection Arc"
            );
        }
        // And the shared selection is the correct one.
        assert_eq!(**first, *m.top_k_users(user));
    }
}

#[test]
fn concurrent_top_k_users_across_distinct_users_is_consistent() {
    // Different users hammered concurrently: each user's selection matches
    // what a quiet, sequential query produces.
    let m = model();
    let users = 24;
    let concurrent: Vec<Arc<Vec<(UserId, f64)>>> =
        cf_parallel::par_map(users, 8, |u| m.top_k_users(UserId::from(u)));

    let quiet = model();
    for (u, got) in concurrent.iter().enumerate() {
        let expect = quiet.top_k_users(UserId::from(u));
        assert_eq!(**got, *expect, "user {u}");
    }
}

#[test]
fn every_user_under_concurrency_holds_one_slot_each() {
    // Hammer every user from many threads: every user served, empty
    // selections included, holds exactly one cached selection (no more
    // than the model has users, and no insert lost under contention), and
    // every selection served equals a quiet model's.
    let m = model();
    let users = m.matrix().num_users();
    let quiet = model();

    for _ in 0..5 {
        let served: Vec<Arc<Vec<(UserId, f64)>>> =
            cf_parallel::par_map(users, 8, |u| m.top_k_users(UserId::from(u)));
        assert_eq!(m.neighbor_cache_len(), users, "cached selections");
        for (u, got) in served.iter().enumerate() {
            assert_eq!(**got, *quiet.top_k_users(UserId::from(u)), "user {u}");
        }
    }
}

#[test]
fn repeat_hits_share_the_arc() {
    // A second wave of lookups must be pure cache hits: pointer-equal
    // Arcs, no recomputation.
    let m = model();
    let users = 24;
    let first: Vec<Arc<Vec<(UserId, f64)>>> =
        cf_parallel::par_map(users, 8, |u| m.top_k_users(UserId::from(u)));
    let second: Vec<Arc<Vec<(UserId, f64)>>> =
        cf_parallel::par_map(users, 8, |u| m.top_k_users(UserId::from(u)));
    for u in 0..users {
        assert!(
            Arc::ptr_eq(&first[u], &second[u]),
            "user {u} was recomputed despite being cached"
        );
    }
    assert_eq!(m.neighbor_cache_len(), users);
}

#[test]
fn mixed_predict_traffic_from_a_cold_cache_matches_serial() {
    // End-to-end: concurrent predict_batch racing cold selections must
    // still equal the serial answers.
    let m = model();
    let reqs: Vec<(UserId, cf_matrix::ItemId)> = (0..400)
        .map(|k| (UserId::new(k % 80), cf_matrix::ItemId::new((k * 11) % 120)))
        .collect();
    let serial: Vec<Option<f64>> = {
        use cf_matrix::Predictor;
        reqs.iter().map(|&(u, i)| m.predict(u, i)).collect()
    };
    for threads in [2, 8] {
        m.clear_caches();
        assert_eq!(m.predict_batch(&reqs, Some(threads)), serial, "t={threads}");
    }
}
