//! Micro-benchmarks of the CFSF offline phase: GIS construction (with a
//! thread-count scaling sweep — the `gis_parallel_scaling` ablation from
//! DESIGN.md), K-means, smoothing, iCluster, and the full fit.

use cf_cluster::{ClusterModel, ClusterModelConfig, ICluster, KMeans, KMeansConfig, Smoother};
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

criterion_group!(
    benches,
    gis_parallel_scaling,
    kmeans_and_smoothing,
    full_fit
);
criterion_main!(benches);
