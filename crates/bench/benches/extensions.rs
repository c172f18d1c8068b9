//! Benchmarks of the §VI-extension machinery: batch/parallel serving,
//! model persistence, and incremental maintenance.

use cf_matrix::{ItemId, UserId};
use cfsf_bench::{bench_config, bench_dataset};
use cfsf_core::{Cfsf, DriftConfig, SelfHealingCfsf};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

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

fn incremental_refresh(c: &mut Criterion) {
    let data = bench_dataset();
    let mut group = c.benchmark_group("extensions/incremental");
    group.sample_size(10);
    for batch in [10usize, 100] {
        group.bench_with_input(
            BenchmarkId::new("partial_refresh", batch),
            &batch,
            |b, &batch| {
                b.iter_with_setup(
                    || {
                        let model = Cfsf::fit(&data.matrix, bench_config()).unwrap();
                        let m = model.matrix().clone();
                        let service = SelfHealingCfsf::new(model, DriftConfig::manual()).unwrap();
                        'outer: for u in 0..m.num_users() {
                            for i in 0..m.num_items() {
                                let (user, item) = (UserId::from(u), ItemId::from(i));
                                if m.get(user, item).is_none()
                                    && service.add_rating(user, item, 4.0).is_ok()
                                    && service.pending() >= batch
                                {
                                    break 'outer;
                                }
                            }
                        }
                        service
                    },
                    |service| black_box(service.refresh_now().unwrap()),
                );
            },
        );
    }
    group.finish();
}

criterion_group!(benches, batch_serving, persistence, incremental_refresh);
criterion_main!(benches);
