//! Benchmarks of the §VI-extension machinery: batch/parallel serving,
//! model persistence, and incremental maintenance.

use cf_matrix::{ItemId, UserId};
use cfsf_bench::{bench_config, bench_dataset};
use cfsf_core::{Cfsf, DriftConfig, RefreshKind, SelfHealingCfsf};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn batch_serving(c: &mut Criterion) {
    let data = bench_dataset();
    let model = Cfsf::fit(&data.matrix, bench_config()).unwrap();
    let requests: Vec<(UserId, ItemId)> = (0..2000)
        .map(|k| (UserId::new(k % 200), ItemId::new((k * 7) % 300)))
        .collect();

    let mut group = c.benchmark_group("extensions/batch_predict");
    group.sample_size(10);
    group.throughput(Throughput::Elements(requests.len() as u64));
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| {
                model.clear_caches();
                black_box(model.predict_batch(&requests, Some(t)))
            });
        });
    }
    group.finish();
}

fn persistence(c: &mut Criterion) {
    let data = bench_dataset();
    let model = Cfsf::fit(&data.matrix, bench_config()).unwrap();
    let mut buf = Vec::new();
    model.save(&mut buf).unwrap();
    println!(
        "extensions bench: serialized model is {} KiB",
        buf.len() / 1024
    );

    let mut group = c.benchmark_group("extensions/persistence");
    group.sample_size(10);
    group.bench_function("save", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(buf.len());
            model.save(&mut out).unwrap();
            black_box(out)
        });
    });
    group.bench_function("load", |b| {
        b.iter(|| black_box(Cfsf::load(buf.as_slice()).unwrap()));
    });
    group.bench_function("fit_from_scratch_for_comparison", |b| {
        b.iter(|| black_box(Cfsf::fit(&data.matrix, bench_config()).unwrap()));
    });
    group.finish();
}

/// Partial-rebuild time against the number of dirty users (one new
/// rating each, spread over the user range so they land in different
/// clusters): the rebuild patches only what those users' clusters can
/// change, so time should grow with the count, not with the matrix.
fn incremental_refresh(c: &mut Criterion) {
    let data = bench_dataset();
    let mut group = c.benchmark_group("extensions/incremental");
    group.sample_size(10);
    for dirty_users in [1usize, 10, 100] {
        group.bench_with_input(
            BenchmarkId::new("partial_refresh", dirty_users),
            &dirty_users,
            |b, &dirty_users| {
                // Fitting and queueing stay off the clock: only the
                // rebuild is timed.
                b.iter_custom(|iters| {
                    let mut rebuilding = Duration::ZERO;
                    for _ in 0..iters {
                        let model = Cfsf::fit(&data.matrix, bench_config()).unwrap();
                        let m = model.matrix().clone();
                        let service = SelfHealingCfsf::new(model, DriftConfig::manual()).unwrap();
                        let stride = (m.num_users() / dirty_users).max(1);
                        for u in (0..m.num_users()).step_by(stride).take(dirty_users) {
                            let user = UserId::from(u);
                            if let Some(item) = m.items().find(|&i| m.get(user, i).is_none()) {
                                service.add_rating(user, item, 4.0).unwrap();
                            }
                        }
                        let t = Instant::now();
                        let report = service.refresh_now().unwrap();
                        rebuilding += t.elapsed();
                        assert_eq!(report.kind, RefreshKind::Partial);
                        black_box(report);
                    }
                    rebuilding
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, batch_serving, persistence, incremental_refresh);
criterion_main!(benches);
