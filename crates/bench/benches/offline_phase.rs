//! Micro-benchmarks of the CFSF offline phase: GIS construction (with a
//! thread-count scaling sweep — the `gis_parallel_scaling` ablation from
//! DESIGN.md), K-means, smoothing, iCluster, the full fit, and the
//! patches a partial rebuild applies for one pending rating.

use cf_cluster::{ClusterModel, ClusterModelConfig, ICluster, KMeans, KMeansConfig, Smoother};
use cf_matrix::{ItemId, UserId, WeightPlanes};
use cf_similarity::{Gis, GisConfig};
use cfsf_bench::{bench_config, bench_dataset};
use cfsf_core::Cfsf;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn gis_parallel_scaling(c: &mut Criterion) {
    let data = bench_dataset();
    let mut group = c.benchmark_group("offline/gis_build");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            let config = GisConfig {
                threads: Some(t),
                ..GisConfig::default()
            };
            b.iter(|| black_box(Gis::build(&data.matrix, &config)));
        });
    }
    group.finish();
}

fn kmeans_and_smoothing(c: &mut Criterion) {
    let data = bench_dataset();
    let mut group = c.benchmark_group("offline/clustering");
    group.sample_size(10);
    // C = 8 runs the assignment kernel's 8-lane groups; the paper's
    // C = 30 runs its 32-lane groups.
    for k in [8usize, 30] {
        group.bench_function(format!("kmeans_c{k}"), |b| {
            let config = KMeansConfig {
                k,
                ..KMeansConfig::default()
            };
            b.iter(|| black_box(KMeans::fit(&data.matrix, &config)));
        });
    }
    let clusters = KMeans::fit(
        &data.matrix,
        &KMeansConfig {
            k: 8,
            ..KMeansConfig::default()
        },
    );
    group.bench_function("smoothing", |b| {
        b.iter(|| black_box(Smoother::smooth(&data.matrix, &clusters, None)));
    });
    let smoothed = Smoother::smooth(&data.matrix, &clusters, None);
    group.bench_function("icluster", |b| {
        b.iter(|| black_box(ICluster::build(&data.matrix, &smoothed, None)));
    });
    group.bench_function("cluster_model_full", |b| {
        let config = ClusterModelConfig {
            kmeans: KMeansConfig {
                k: 8,
                ..KMeansConfig::default()
            },
            threads: None,
        };
        b.iter(|| black_box(ClusterModel::fit(&data.matrix, &config)));
    });
    group.finish();
}

fn full_fit(c: &mut Criterion) {
    let data = bench_dataset();
    let mut group = c.benchmark_group("offline/cfsf_fit");
    group.sample_size(10);
    group.bench_function("fit_200x300", |b| {
        b.iter(|| black_box(Cfsf::fit(&data.matrix, bench_config()).unwrap()));
    });
    group.finish();
}

/// The smoothing, iCluster and plane patches of a partial rebuild
/// (`refresh.phase.{smooth,icluster,planes}_ns`) after one rating lands
/// on the first unrated cell of a mid-matrix user.
fn partial_refresh(c: &mut Criterion) {
    let data = bench_dataset();
    let m = &data.matrix;
    let clusters = KMeans::fit(
        m,
        &KMeansConfig {
            k: 8,
            ..KMeansConfig::default()
        },
    );
    let smoothed = Smoother::smooth(m, &clusters, None);
    let ranked = ICluster::build(m, &smoothed, None);
    let planes = WeightPlanes::from_dense(&smoothed.dense, bench_config().w);
    let user = UserId::from(m.num_users() / 2);
    let item = m
        .items()
        .find(|&i| m.get(user, i).is_none())
        .unwrap_or(ItemId::new(0));
    let merged = m
        .with_ratings(&[(user, item, 4.0)])
        .expect("the cell is unrated");
    let (next, patch) = smoothed.patched(&merged, &clusters, &[user]);
    let cells = || patch.cells(&clusters, merged.num_items());
    assert!(
        planes.patched(&next.dense, cells()).is_some(),
        "a rating inside the plane range must patch, not refold"
    );

    let mut group = c.benchmark_group("offline/refresh");
    group.sample_size(10);
    group.bench_function("smoothed_patched", |b| {
        b.iter(|| black_box(smoothed.patched(&merged, &clusters, &[user])));
    });
    group.bench_function("icluster_patched", |b| {
        b.iter(|| black_box(ranked.patched(&merged, &next, &patch)));
    });
    group.bench_function("planes_patched", |b| {
        b.iter(|| black_box(planes.patched(&next.dense, cells())));
    });
    group.finish();
}

criterion_group!(
    benches,
    gis_parallel_scaling,
    kmeans_and_smoothing,
    full_fit,
    partial_refresh
);
criterion_main!(benches);
