//! Property-based tests for clustering and smoothing invariants.

use cf_cluster::{KMeans, KMeansConfig, KMeansInit, Smoother};
use cf_matrix::{ItemId, MatrixBuilder, RatingMatrix, UserId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

fn arb_matrix() -> impl Strategy<Value = RatingMatrix> {
    proptest::collection::btree_map(
        (0u32..25, 0u32..20),
        (1u32..=5).prop_map(|r| r as f64),
        5..200,
    )
    .prop_map(|m| {
        let mut b = MatrixBuilder::with_dims(25, 20);
        for ((u, i), r) in m {
            b.push(UserId::new(u), ItemId::new(i), r);
        }
        b.build().expect("valid")
    })
}

/// 40–80 users over 30 items. Each user leans toward one of three taste
/// groups and rates a seeded share of the items; about one in ten rates
/// nothing, and the sparsest share fewer than two items with a centroid.
fn arb_population() -> impl Strategy<Value = RatingMatrix> {
    (40usize..=80, 0u64..u64::MAX).prop_map(|(users, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = MatrixBuilder::with_dims(users, 30);
        for u in 0..users {
            if rng.gen_range(0u32..10) == 0 {
                continue;
            }
            let group = rng.gen_range(0u32..3);
            let density = rng.gen_range(0.05..0.6);
            for i in 0..30u32 {
                if rng.gen::<f64>() < density {
                    let r = if i % 3 == group {
                        rng.gen_range(3u32..=5)
                    } else {
                        rng.gen_range(1u32..=4)
                    };
                    b.push(UserId::from(u), ItemId::new(i), r as f64);
                }
            }
        }
        b.build().expect("valid")
    })
}

/// A centroid as `(per-item mean, NaN where no member rated the item;
/// mean of the defined values)`.
type RefCentroid = (Vec<f64>, f64);

fn reference_centroid(m: &RatingMatrix, members: &[UserId]) -> RefCentroid {
    let q = m.num_items();
    let mut sum = vec![0.0f64; q];
    let mut count = vec![0u32; q];
    for &u in members {
        for (i, r) in m.user_ratings(u) {
            sum[i.index()] += r;
            count[i.index()] += 1;
        }
    }
    let values: Vec<f64> = (0..q)
        .map(|i| {
            if count[i] > 0 {
                sum[i] / count[i] as f64
            } else {
                f64::NAN
            }
        })
        .collect();
    let defined: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
    let mean = if defined.is_empty() {
        0.0
    } else {
        defined.iter().sum::<f64>() / defined.len() as f64
    };
    (values, mean)
}

/// Eq. 6 between `u` and one centroid over the items both define,
/// walking `u`'s row in order and skipping undefined cells.
fn reference_similarity(centroid: &RefCentroid, m: &RatingMatrix, u: UserId) -> f64 {
    let (values, mean) = centroid;
    let user_mean = m.user_mean(u);
    let (mut dot, mut nu, mut nc, mut n) = (0.0, 0.0, 0.0, 0usize);
    for (i, r) in m.user_ratings(u) {
        let c = values[i.index()];
        if c.is_nan() {
            continue;
        }
        let du = r - user_mean;
        let dc = c - mean;
        dot += du * dc;
        nu += du * du;
        nc += dc * dc;
        n += 1;
    }
    if n < 2 || nu <= 0.0 || nc <= 0.0 {
        return 0.0;
    }
    (dot / (nu.sqrt() * nc.sqrt())).clamp(-1.0, 1.0)
}

/// What [`reference_kmeans`] ends with.
struct Reference {
    assignment: Vec<u32>,
    iterations: usize,
    converged: bool,
    /// Empty clusters refilled over the whole fit.
    repairs: usize,
}

/// Lloyd's K-means written out literally, one (user, centroid) pair at a
/// time: the same seeding; each active user joins the first centroid of
/// highest Eq. 6 similarity, and an empty profile keeps slot `u % k`; an
/// empty cluster takes the first least similar member of the last
/// largest cluster, if that has two or more; the fit stops when no user
/// moves or no centroid mean drifts by more than `tol`.
fn reference_kmeans(m: &RatingMatrix, config: &KMeansConfig) -> Reference {
    let p = m.num_users();
    let k = config.k.min(p.max(1));
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut active: Vec<UserId> = m.users().filter(|&u| m.user_count(u) > 0).collect();
    active.shuffle(&mut rng);
    let mut seeds: Vec<UserId> = Vec::new();
    match config.init {
        KMeansInit::Random => seeds.extend(active.iter().take(k)),
        KMeansInit::PlusPlus if !active.is_empty() => {
            let distance = |a: UserId, b: UserId| 1.0 - cf_similarity::user_pcc(m, a, b);
            seeds.push(active[0]);
            let mut nearest: Vec<f64> = active.iter().map(|&u| distance(u, active[0])).collect();
            while seeds.len() < k.min(active.len()) {
                let (chosen, _) = active
                    .iter()
                    .zip(&nearest)
                    .filter(|(u, _)| !seeds.contains(u))
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .unwrap();
                let chosen = *chosen;
                seeds.push(chosen);
                for (d, &u) in nearest.iter_mut().zip(&active) {
                    let to_chosen = distance(u, chosen);
                    if to_chosen < *d {
                        *d = to_chosen;
                    }
                }
            }
        }
        KMeansInit::PlusPlus => {}
    }
    let k = seeds.len().max(1);
    let mut centroids: Vec<RefCentroid> = seeds
        .iter()
        .map(|&u| {
            let mut values = vec![f64::NAN; m.num_items()];
            for (i, r) in m.user_ratings(u) {
                values[i.index()] = r;
            }
            (values, m.user_mean(u))
        })
        .collect();
    if centroids.is_empty() {
        centroids.push((vec![f64::NAN; m.num_items()], 0.0));
    }

    let mut assignment: Vec<u32> = (0..p).map(|u| (u % k) as u32).collect();
    let (mut iterations, mut converged, mut repairs) = (0, false, 0);
    for iter in 0..config.max_iterations {
        iterations = iter + 1;
        let next: Vec<u32> = m
            .users()
            .map(|u| {
                if m.user_count(u) == 0 {
                    return (u.index() % k) as u32;
                }
                let (mut best, mut best_sim) = (0, f64::NEG_INFINITY);
                for (c, centroid) in centroids.iter().enumerate() {
                    let s = reference_similarity(centroid, m, u);
                    if s > best_sim {
                        (best, best_sim) = (c, s);
                    }
                }
                best as u32
            })
            .collect();
        let changed = next != assignment;
        assignment = next;
        if !changed {
            converged = true;
            break;
        }
        let mut members: Vec<Vec<UserId>> = vec![Vec::new(); k];
        for (ui, &c) in assignment.iter().enumerate() {
            members[c as usize].push(UserId::from(ui));
        }
        for c in 0..k {
            if members[c].is_empty() {
                let donor = (0..k).max_by_key(|&d| members[d].len()).unwrap();
                if members[donor].len() > 1 {
                    let similarity = |u: UserId| reference_similarity(&centroids[donor], m, u);
                    let worst = *members[donor]
                        .iter()
                        .min_by(|&&a, &&b| similarity(a).partial_cmp(&similarity(b)).unwrap())
                        .unwrap();
                    members[donor].retain(|&u| u != worst);
                    members[c].push(worst);
                    assignment[worst.index()] = c as u32;
                    repairs += 1;
                }
            }
        }
        let prev_means: Vec<f64> = centroids.iter().map(|c| c.1).collect();
        centroids = members.iter().map(|ms| reference_centroid(m, ms)).collect();
        let drift = centroids
            .iter()
            .zip(&prev_means)
            .map(|(c, &prev)| (c.1 - prev).abs())
            .fold(0.0_f64, f64::max);
        if drift <= config.tol {
            converged = true;
            break;
        }
    }
    Reference {
        assignment,
        iterations,
        converged,
        repairs,
    }
}

/// Asserts that `KMeans::fit` ends exactly where the reference does.
fn assert_matches_reference(m: &RatingMatrix, config: &KMeansConfig) -> Reference {
    let fit = KMeans::fit(m, config);
    let reference = reference_kmeans(m, config);
    assert_eq!(fit.assignment(), &reference.assignment[..], "{config:?}");
    assert_eq!(fit.iterations, reference.iterations, "{config:?}");
    assert_eq!(fit.converged, reference.converged, "{config:?}");
    reference
}

/// Users 0 and 1 rate identically, so with every active user a seed
/// their two centroids are equal, both join the lower one, and the
/// other cluster starts empty: the repair must run, and match.
#[test]
fn kmeans_repairs_an_empty_cluster_like_the_reference() {
    let rows: [&[f64]; 6] = [
        &[5.0, 4.0, 1.0, 2.0, 3.0],
        &[5.0, 4.0, 1.0, 2.0, 3.0],
        &[1.0, 2.0, 5.0, 4.0, 3.0],
        &[2.0, 5.0, 1.0, 1.0, 4.0],
        &[4.0, 1.0, 3.0, 5.0, 2.0],
        &[3.0, 3.0, 4.0, 1.0, 5.0],
    ];
    // User 6 rates nothing.
    let mut b = MatrixBuilder::with_dims(7, 5);
    for (u, row) in rows.iter().enumerate() {
        for (i, &r) in row.iter().enumerate() {
            b.push(UserId::from(u), ItemId::from(i), r);
        }
    }
    let m = b.build().expect("valid");
    for seed in 0..8 {
        for threads in [1, 2, 4] {
            let config = KMeansConfig {
                k: rows.len(),
                seed,
                threads: Some(threads),
                ..Default::default()
            };
            let reference = assert_matches_reference(&m, &config);
            assert!(reference.repairs > 0, "seed {seed}: no cluster emptied");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Assignments, iteration counts and `converged` flags equal the
    /// literal reference for every `k` up to 40 (across lane groups of
    /// 8, 16 and 32 and into a second group), both seedings and 1, 2
    /// or 4 threads.
    #[test]
    fn kmeans_equals_the_literal_reference(
        m in arb_population(),
        k in 1usize..=40,
        seed in 0u64..50,
        threads in 0usize..3,
        plus_plus in 0u8..2,
    ) {
        let config = KMeansConfig {
            k,
            seed,
            threads: Some([1, 2, 4][threads]),
            init: if plus_plus == 1 { KMeansInit::PlusPlus } else { KMeansInit::Random },
            ..Default::default()
        };
        let fit = KMeans::fit(&m, &config);
        let reference = reference_kmeans(&m, &config);
        prop_assert_eq!(fit.assignment(), &reference.assignment[..]);
        prop_assert_eq!(fit.iterations, reference.iterations);
        prop_assert_eq!(fit.converged, reference.converged);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn kmeans_partitions_all_users(m in arb_matrix(), k in 1usize..8, seed in 0u64..50) {
        let a = KMeans::fit(&m, &KMeansConfig { k, seed, ..Default::default() });
        prop_assert!(a.k() >= 1 && a.k() <= k.max(1));
        let total: usize = a.sizes().iter().sum();
        prop_assert_eq!(total, m.num_users());
        for u in m.users() {
            let c = a.cluster_of(u);
            prop_assert!(c < a.k());
            prop_assert!(a.members(c).contains(&u));
        }
    }

    #[test]
    fn smoothing_completes_the_matrix_and_preserves_originals(
        m in arb_matrix(),
        k in 1usize..6,
    ) {
        let clusters = KMeans::fit(&m, &KMeansConfig { k, ..Default::default() });
        let s = Smoother::smooth(&m, &clusters, Some(2));
        prop_assert!(s.dense.is_complete());
        for (u, i, r) in m.triplets() {
            prop_assert_eq!(s.dense.get(u, i), Some(r));
            prop_assert!(s.dense.is_original(u, i));
        }
        // imputation accounting covers exactly the missing cells
        let missing = m.num_users() * m.num_items() - m.num_ratings();
        prop_assert_eq!(s.cells_from_cluster + s.cells_from_fallback, missing);
        // everything on scale
        for u in m.users() {
            for v in s.dense.row(u) {
                prop_assert!((1.0..=5.0).contains(v));
            }
        }
    }

    #[test]
    fn smoothed_deviations_are_rating_deviation_bounded(m in arb_matrix(), k in 1usize..5) {
        let clusters = KMeans::fit(&m, &KMeansConfig { k, ..Default::default() });
        let s = Smoother::smooth(&m, &clusters, Some(1));
        // |Δr(C,i)| can never exceed the full rating span
        for c in 0..s.num_clusters() {
            for i in m.items() {
                if let Some(d) = s.deviation(c, i) {
                    prop_assert!(d.abs() <= 4.0 + 1e-9, "Δ = {d}");
                }
            }
        }
    }
}
