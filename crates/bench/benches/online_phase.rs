//! Micro-benchmarks of the CFSF online phase: single-request latency
//! (cold and warm neighbor cache), the top-K selection itself, top-N
//! recommendation (pruned, and the no-prune worst case), and the
//! online-side ablations from DESIGN.md
//! (`ablate_smoothing`, `ablate_suir`, `ablate_icluster`).

use cf_matrix::{ItemId, Predictor, UserId};
use cfsf_bench::{bench_config, bench_dataset};
use cfsf_core::Cfsf;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn request_latency(c: &mut Criterion) {
    let data = bench_dataset();
    let model = Cfsf::fit(&data.matrix, bench_config()).unwrap();
    let user = UserId::new(7);
    let item = ItemId::new(42);

    let mut group = c.benchmark_group("online/request");
    group.bench_function("cold_cache", |b| {
        b.iter(|| {
            model.clear_caches();
            black_box(model.predict(user, item))
        });
    });
    let _ = model.predict(user, item); // warm the cache
    group.bench_function("warm_cache", |b| {
        b.iter(|| black_box(model.predict(user, item)));
    });
    group.bench_function("top_k_selection", |b| {
        b.iter(|| {
            model.clear_caches();
            black_box(model.top_k_users(user))
        });
    });
    group.bench_function("recommend_top_10", |b| {
        b.iter(|| black_box(model.recommend_top_n(user, 10)));
    });
    // Every item fits in the answer, so nothing can be pruned: the
    // top-N worst case, scoring the full M × K matrix of every item.
    let all = data.matrix.num_items();
    group.bench_function("recommend_all", |b| {
        b.iter(|| black_box(model.recommend_top_n(user, all)));
    });
    group.finish();
}

fn ablations(c: &mut Criterion) {
    let data = bench_dataset();
    let base = Cfsf::fit(&data.matrix, bench_config()).unwrap();
    let no_smoothing = base.reparameterize(|c| c.use_smoothing = false).unwrap();
    let no_suir = base.reparameterize(|c| c.delta = 0.0).unwrap();
    let whole_population = base
        .reparameterize(|c| c.candidate_factor = usize::MAX / c.k.max(1))
        .unwrap();
    let user = UserId::new(11);
    let item = ItemId::new(99);

    let mut group = c.benchmark_group("online/ablations");
    for (name, model) in [
        ("full", &base),
        ("no_smoothing", &no_smoothing),
        ("no_suir", &no_suir),
        ("whole_population_candidates", &whole_population),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                model.clear_caches();
                black_box(model.predict(user, item))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, request_latency, ablations);
criterion_main!(benches);
