//! Instrumentation overhead on the online hot path: the same prediction
//! workload with metric recording enabled vs disabled.
//!
//! `cf_obs::set_enabled(false)` reduces every record call to one relaxed
//! atomic load plus a branch, the floor this bench measures against. The
//! acceptance bar is that enabled stays within ~5% of disabled.

use cf_matrix::{ItemId, Predictor, UserId};
use cfsf_bench::{bench_config, bench_dataset};
use cfsf_core::Cfsf;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn predict_workload(model: &Cfsf, requests: &[(UserId, ItemId)]) -> f64 {
    let mut acc = 0.0;
    for &(u, i) in requests {
        if let Some(r) = model.predict(u, i) {
            acc += r;
        }
    }
    acc
}

fn obs_overhead(c: &mut Criterion) {
    let data = bench_dataset();
    let model = Cfsf::fit(&data.matrix, bench_config()).unwrap();
    let requests: Vec<(UserId, ItemId)> = (0..500)
        .map(|k| (UserId::new(k % 200), ItemId::new((k * 13) % 300)))
        .collect();
    // Warm the neighbor cache so the measured loop is the steady-state
    // serving path (cache hits + estimator math), where per-record
    // instrumentation cost is proportionally largest.
    for &(u, _) in &requests {
        model.top_k_users(u);
    }

    let mut group = c.benchmark_group("obs/online_predict_overhead");
    for enabled in [false, true] {
        let label = if enabled { "enabled" } else { "disabled" };
        group.bench_with_input(BenchmarkId::from_parameter(label), &enabled, |b, &on| {
            cf_obs::set_enabled(on);
            b.iter(|| black_box(predict_workload(&model, &requests)));
        });
    }
    cf_obs::set_enabled(true);
    group.finish();
}

fn obs_record_calls(c: &mut Criterion) {
    // Microbench of the primitives themselves, enabled vs disabled.
    let mut group = c.benchmark_group("obs/record_call");
    for enabled in [false, true] {
        let label = if enabled { "enabled" } else { "disabled" };
        group.bench_with_input(
            BenchmarkId::new("counter_inc", label),
            &enabled,
            |b, &on| {
                cf_obs::set_enabled(on);
                b.iter(|| {
                    for _ in 0..1000 {
                        cf_obs::counter!("bench.obs.counter").inc();
                    }
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("histogram_record", label),
            &enabled,
            |b, &on| {
                cf_obs::set_enabled(on);
                b.iter(|| {
                    for k in 0..1000u64 {
                        cf_obs::histogram!("bench.obs.histogram").record(black_box(k * 37 + 11));
                    }
                });
            },
        );
        group.bench_with_input(BenchmarkId::new("span_timer", label), &enabled, |b, &on| {
            cf_obs::set_enabled(on);
            b.iter(|| {
                for _ in 0..1000 {
                    cf_obs::time_scope!("bench.obs.span_ns");
                    black_box(());
                }
            });
        });
    }
    cf_obs::set_enabled(true);
    group.finish();
}

fn obs_trace_calls(c: &mut Criterion) {
    // The request-tracing primitives across their three cost regimes:
    // registry disabled (inert guard), enabled but not head-sampled (the
    // common case — a TLS counter, two timestamps, no spans), and
    // head-sampled (full span capture).
    let mut group = c.benchmark_group("obs/trace_call");
    let outcome = || cf_obs::trace::Outcome {
        level: "full",
        fallback: false,
        k_used: 25,
        m_used: 95,
        fused: 3.7,
    };
    let request = || {
        let req = cf_obs::trace::begin_request(7, 42);
        {
            let _a = cf_obs::trace::span("neighbor_lookup");
        }
        {
            let _b = cf_obs::trace::span("estimator.suir");
        }
        req.finish(outcome());
    };
    for (label, enabled, every) in [
        ("disabled", false, 64u32),
        ("unsampled", true, u32::MAX),
        ("sampled", true, 1),
    ] {
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            cf_obs::set_enabled(enabled);
            cf_obs::trace::set_head_sample_every(every);
            cf_obs::trace::clear();
            b.iter(|| {
                for _ in 0..1000 {
                    request();
                }
            });
        });
    }
    cf_obs::set_enabled(true);
    cf_obs::trace::set_head_sample_every(64);
    cf_obs::trace::clear();
    group.finish();
}

criterion_group!(benches, obs_overhead, obs_record_calls, obs_trace_calls);
criterion_main!(benches);
