//! Online-serving throughput benchmark with a machine-readable report.
//!
//! Fits CFSF at the paper-scale configuration (500 users × 1000 items,
//! `K = 25`, `M = 95`) and measures predictions/second through the
//! serving fast path and through the pre-fast-path reference kernels
//! (`predict_with_breakdown_ref`), single- and multi-threaded, batched,
//! and with a cold neighbor cache. Emits `BENCH_online.json`.
//!
//! Two request patterns are measured:
//!
//! - **burst** — each user visit scores a run of candidate items, the
//!   recommender serving workload (§V-D: selection and the neighbor
//!   rows are reused across a user's candidates). This is the headline
//!   `speedup_single_thread_vs_baseline` pattern.
//! - **mixed** — fully scattered `(user, item)` point queries, the
//!   worst case for cache locality. At paper scale this pattern is
//!   bound by last-level-cache latency on the scattered row reads in
//!   *both* paths, so the kernel speedup compresses; it is reported as
//!   `speedup_mixed_vs_baseline`.
//!
//! Usage:
//!
//! ```text
//! online_throughput [--quick] [--out PATH] [--compare PATH] [--filter SUBSTR]
//! ```
//!
//! `--quick` (or `BENCH_MODE=quick`) shrinks warmup/measure windows for
//! CI smoke runs; the committed report uses the default full windows.
//! Request patterns are fixed arithmetic sequences, so runs are
//! reproducible bar machine noise.
//!
//! `--filter SUBSTR` measures only the scenarios whose name contains the
//! substring — the kernel-tuning loop, where waiting for all eight
//! scenarios per experiment would dominate the iteration time. A
//! filtered report is partial: speedup summary fields are emitted only
//! when both of their scenarios ran, and `--compare` prints a coverage
//! warning per committed scenario the filter skipped.
//!
//! `--compare PATH` diffs this run against a committed report (e.g.
//! `BENCH_online.json`) and prints a `BENCH REGRESSION WARNING` for any
//! measurement more than 10% below it. The check never fails the run —
//! CI machines are noisy — it exists so the trajectory is visible in the
//! logs instead of silently drifting.

use std::time::{Duration, Instant};

use cf_data::SyntheticConfig;
use cf_matrix::{ItemId, Predictor, UserId};
use cfsf_core::{Cfsf, CfsfConfig, DriftConfig, SelfHealingCfsf};

struct Windows {
    warmup: Duration,
    measure: Duration,
}

struct Measurement {
    name: &'static str,
    predictions_per_sec: f64,
    predictions: u64,
    elapsed_s: f64,
}

/// Runs `pass` (which returns the number of predictions it served)
/// repeatedly: first until `warmup` elapses, then until `measure`
/// elapses, reporting steady-state throughput.
fn measure(name: &'static str, w: &Windows, mut pass: impl FnMut() -> u64) -> Measurement {
    let warm_until = Instant::now() + w.warmup;
    while Instant::now() < warm_until {
        std::hint::black_box(pass());
    }
    let start = Instant::now();
    let mut served = 0u64;
    while start.elapsed() < w.measure {
        served += std::hint::black_box(pass());
    }
    let elapsed = start.elapsed().as_secs_f64();
    let m = Measurement {
        name,
        predictions_per_sec: served as f64 / elapsed,
        predictions: served,
        elapsed_s: elapsed,
    };
    eprintln!(
        "  {:<28} {:>12.0} predictions/sec  ({} preds in {:.2}s)",
        m.name, m.predictions_per_sec, m.predictions, m.elapsed_s
    );
    m
}

fn json_entry(m: &Measurement) -> String {
    format!(
        "    \"{}\": {{ \"predictions_per_sec\": {:.1}, \"predictions\": {}, \"elapsed_s\": {:.3} }}",
        m.name, m.predictions_per_sec, m.predictions, m.elapsed_s
    )
}

/// `p`-th percentile of an unsorted latency sample set, in seconds.
fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let idx = ((samples.len() - 1) as f64 * p).round() as usize;
    samples[idx.min(samples.len() - 1)]
}

/// Pulls `"name": { "predictions_per_sec": <value>` out of a committed
/// report by string scanning — the report format is produced above, so a
/// full JSON parser (which the workspace deliberately lacks) is overkill.
fn committed_rate(report: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\"");
    let after_key = &report[report.find(&key)? + key.len()..];
    let field = "\"predictions_per_sec\":";
    let after_field = &after_key[after_key.find(field)? + field.len()..];
    let number: String = after_field
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    number.parse().ok()
}

/// Scenario names present in a committed report: every quoted key
/// immediately followed by a `predictions_per_sec` object (the exact
/// shape [`json_entry`] writes).
fn committed_scenarios(report: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut rest = report;
    while let Some(q) = rest.find('"') {
        let after = &rest[q + 1..];
        let Some(end) = after.find('"') else { break };
        let name = &after[..end];
        let tail = after[end + 1..].trim_start();
        if tail.starts_with(':')
            && tail[1..]
                .trim_start()
                .starts_with("{ \"predictions_per_sec\"")
        {
            names.push(name.to_string());
        }
        rest = &after[end + 1..];
    }
    names
}

/// Non-gating regression check against a committed report. Prints a
/// warning per regressed measurement — and per committed scenario the
/// current run did not measure, so a renamed or dropped scenario can't
/// silently escape the comparison. Never exits nonzero.
fn compare_against(results: &[Measurement], committed_path: &str) {
    let committed = match std::fs::read_to_string(committed_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("  bench-compare: cannot read {committed_path}: {e} (skipping)");
            return;
        }
    };
    eprintln!("  comparing against {committed_path} (warn threshold: >10% below committed)");
    for name in committed_scenarios(&committed) {
        if !results.iter().any(|m| m.name == name) {
            eprintln!(
                "  BENCH COVERAGE WARNING: committed scenario {name:<28} not measured by this run"
            );
        }
    }
    let mut regressions = 0u32;
    for m in results {
        let Some(want) = committed_rate(&committed, m.name) else {
            eprintln!("  bench-compare: {:<28} not in committed report", m.name);
            continue;
        };
        let ratio = m.predictions_per_sec / want;
        if ratio < 0.90 {
            regressions += 1;
            eprintln!(
                "  BENCH REGRESSION WARNING: {:<28} {:>12.0} vs committed {:>12.0} ({:+.1}%)",
                m.name,
                m.predictions_per_sec,
                want,
                (ratio - 1.0) * 100.0
            );
        } else {
            eprintln!(
                "  bench-compare: {:<28} {:>12.0} vs committed {:>12.0} ({:+.1}%) ok",
                m.name,
                m.predictions_per_sec,
                want,
                (ratio - 1.0) * 100.0
            );
        }
    }
    if regressions > 0 {
        eprintln!(
            "  bench-compare: {regressions} measurement(s) regressed >10% — non-gating, \
             investigate before trusting the committed numbers"
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick")
        || std::env::var("BENCH_MODE")
            .map(|m| m == "quick")
            .unwrap_or(false);
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|p| args.get(p + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_online.json".to_string());
    let compare_path = args
        .iter()
        .position(|a| a == "--compare")
        .and_then(|p| args.get(p + 1))
        .cloned();
    let filter = args
        .iter()
        .position(|a| a == "--filter")
        .and_then(|p| args.get(p + 1))
        .cloned();
    let want = |name: &str| filter.as_deref().is_none_or(|f| name.contains(f));
    if let Some(f) = filter.as_deref() {
        eprintln!("online_throughput: --filter {f} — partial report, skipped scenarios omitted");
    }
    let windows = if quick {
        Windows {
            warmup: Duration::from_millis(80),
            measure: Duration::from_millis(250),
        }
    } else {
        Windows {
            warmup: Duration::from_millis(1000),
            measure: Duration::from_millis(3000),
        }
    };

    // Paper-scale serving setup: MovieLens-shaped synthetic data at the
    // paper's online parameters (Table I / §V).
    let data = SyntheticConfig {
        num_users: 500,
        num_items: 1000,
        ..SyntheticConfig::movielens()
    }
    .generate();
    let config = CfsfConfig::paper();
    eprintln!(
        "online_throughput: {} users x {} items, {} ratings, K={}, M={}, mode={}",
        data.matrix.num_users(),
        data.matrix.num_items(),
        data.matrix.num_ratings(),
        config.k,
        config.m,
        if quick { "quick" } else { "full" }
    );
    let fit_start = Instant::now();
    let model = Cfsf::fit(&data.matrix, config.clone()).expect("fit paper-scale model");
    eprintln!("  offline fit in {:.2}s", fit_start.elapsed().as_secs_f64());

    let users = data.matrix.num_users();
    let items = data.matrix.num_items();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);

    // Burst pattern: each user visit scores a run of 128 candidate
    // items (the recommender workload). Mixed pattern: fully scattered
    // point queries, every request a different user.
    let burst: Vec<(UserId, ItemId)> = (0..4096usize)
        .map(|k| {
            (
                UserId::from((k / 128 * 31) % users),
                ItemId::from((k * 97) % items),
            )
        })
        .collect();
    let mixed: Vec<(UserId, ItemId)> = (0..4096usize)
        .map(|k| {
            (
                UserId::from((k * 31) % users),
                ItemId::from((k * 97) % items),
            )
        })
        .collect();
    let requests = &mixed;

    // Warm every selection once so "warm" measurements start warm.
    model.predict_batch(&mixed, Some(threads));

    let mut results: Vec<Measurement> = Vec::new();

    // Serving fast path, single thread, warm neighbor cache: the
    // steady-state per-request kernel cost on the burst pattern.
    if want("single_thread_warm") {
        results.push(measure("single_thread_warm", &windows, || {
            let mut n = 0;
            for &(u, i) in &burst {
                if model.predict(u, i).is_some() {
                    n += 1;
                }
            }
            n
        }));
    }

    // The pre-fast-path kernels on the identical warm selections — the
    // baseline the headline speedup is measured against.
    if want("baseline_single_thread_warm") {
        results.push(measure("baseline_single_thread_warm", &windows, || {
            let mut n = 0;
            for &(u, i) in &burst {
                if model.predict_with_breakdown_ref(u, i).is_some() {
                    n += 1;
                }
            }
            n
        }));
    }

    // The same pair on the scattered mix — the cache-hostile worst case.
    if want("mixed_single_thread_warm") {
        results.push(measure("mixed_single_thread_warm", &windows, || {
            let mut n = 0;
            for &(u, i) in &mixed {
                if model.predict(u, i).is_some() {
                    n += 1;
                }
            }
            n
        }));
    }
    if want("mixed_baseline_single_thread") {
        results.push(measure("mixed_baseline_single_thread", &windows, || {
            let mut n = 0;
            for &(u, i) in &mixed {
                if model.predict_with_breakdown_ref(u, i).is_some() {
                    n += 1;
                }
            }
            n
        }));
    }

    // Batched parallel serving across all cores.
    if want("multi_thread_warm") {
        results.push(measure("multi_thread_warm", &windows, || {
            model
                .predict_batch(requests, Some(threads))
                .iter()
                .filter(|r| r.is_some())
                .count() as u64
        }));
    }

    // Single-threaded batch API (shard bookkeeping, no parallel win).
    if want("batch_one_thread") {
        results.push(measure("batch_one_thread", &windows, || {
            model
                .predict_batch(requests, Some(1))
                .iter()
                .filter(|r| r.is_some())
                .count() as u64
        }));
    }

    // The same mixed requests in a shuffled arrival order: the batch
    // engine's internal strip sort must recover the locality that the
    // arrival order destroyed (single thread isolates the sort's effect
    // from parallelism).
    let shuffled: Vec<(UserId, ItemId)> = (0..mixed.len())
        .map(|k| mixed[(k.wrapping_mul(2654435761)) % mixed.len()])
        .collect();
    if want("mixed_batch_sorted_one_thread") {
        results.push(measure("mixed_batch_sorted_one_thread", &windows, || {
            model
                .predict_batch(&shuffled, Some(1))
                .iter()
                .filter(|r| r.is_some())
                .count() as u64
        }));
    }

    // Cold cache: every pass pays neighbor selection again — the
    // worst-case first-request-per-user cost.
    if want("cold_cache_batch") {
        results.push(measure("cold_cache_batch", &windows, || {
            model.clear_caches();
            model
                .predict_batch(requests, Some(threads))
                .iter()
                .filter(|r| r.is_some())
                .count() as u64
        }));
    }

    // Zero-pause refresh under load: the same mixed point queries served
    // through the generation cell while a background rebuild runs and
    // publishes underneath them. Reports throughput during the rebuild
    // (the `--compare` measurement) plus the tail-latency spike: p999 of
    // per-request latency during the rebuild vs. steady state. The
    // refresh tentpole promises the spike stays within 10% — reported as
    // a non-gating warning, like every other bench number.
    let mut refresh_spike: Option<(f64, f64)> = None;
    if want("refresh_under_load") {
        let refit = Cfsf::fit(&data.matrix, config.clone()).expect("fit refresh model");
        let healing =
            SelfHealingCfsf::new(refit, DriftConfig::manual()).expect("wrap refresh model");
        let cell = healing.cell();
        let serve_pass = |latencies: &mut Vec<f64>| {
            for &(u, i) in &mixed {
                let t = Instant::now();
                let m = cell.load();
                std::hint::black_box(m.predict(u, i));
                latencies.push(t.elapsed().as_secs_f64());
            }
        };

        // Warm, then a steady-state latency window with no rebuild.
        let warm_until = Instant::now() + windows.warmup;
        let mut scratch = Vec::new();
        while Instant::now() < warm_until {
            scratch.clear();
            serve_pass(&mut scratch);
        }
        let mut steady = Vec::new();
        let steady_until = Instant::now() + windows.measure / 2;
        while Instant::now() < steady_until {
            serve_pass(&mut steady);
        }

        // Queue fresh ratings and serve straight through the rebuild.
        let scale = data.matrix.scale();
        let mut queued = 0;
        'queue: for u in 0..users {
            for i in 0..items {
                let (user, item) = (UserId::from(u), ItemId::from(i));
                if data.matrix.get(user, item).is_none() {
                    healing
                        .add_rating(user, item, scale.min)
                        .expect("queue rating");
                    queued += 1;
                    if queued == 64 {
                        break 'queue;
                    }
                }
            }
        }
        let mut during = Vec::new();
        let rebuild_start = Instant::now();
        assert!(healing.trigger(), "refresh trigger");
        while healing.generation() == 0 {
            serve_pass(&mut during);
        }
        let rebuild_elapsed = rebuild_start.elapsed().as_secs_f64();
        healing.wait_idle();

        let served = during.len() as u64;
        let m = Measurement {
            name: "refresh_under_load",
            predictions_per_sec: served as f64 / rebuild_elapsed,
            predictions: served,
            elapsed_s: rebuild_elapsed,
        };
        eprintln!(
            "  {:<28} {:>12.0} predictions/sec  ({} preds in {:.2}s)",
            m.name, m.predictions_per_sec, m.predictions, m.elapsed_s
        );
        let p999_steady = percentile(&mut steady, 0.999);
        let p999_during = percentile(&mut during, 0.999);
        let ratio = if p999_steady > 0.0 {
            p999_during / p999_steady
        } else {
            1.0
        };
        eprintln!(
            "  refresh_under_load p999: {:.1}us during rebuild vs {:.1}us steady ({:.2}x)",
            p999_during * 1e6,
            p999_steady * 1e6,
            ratio
        );
        if ratio > 1.10 {
            if threads == 1 {
                // With a single core the rebuild worker timeslices with
                // the serving thread; the spike measures CPU contention,
                // not a pause (no request ever blocks on the rebuild).
                eprintln!(
                    "  refresh_under_load p999 spike {ratio:.2}x on a 1-core host: \
                     rebuild and serving share the core; the 1.10x zero-pause \
                     budget needs a spare core to be meaningful"
                );
            } else {
                eprintln!(
                    "  BENCH LATENCY WARNING: refresh_under_load p999 spike {ratio:.2}x \
                     exceeds the 1.10x zero-pause budget (non-gating)"
                );
            }
        }
        refresh_spike = Some((ratio, p999_during * 1e6));
        results.push(m);
    }

    // Speedup summaries, each present only when both of its scenarios ran
    // (a `--filter` run is allowed to skip either side).
    let rate = |name: &str| {
        results
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.predictions_per_sec)
    };
    let speedup = rate("single_thread_warm")
        .zip(rate("baseline_single_thread_warm"))
        .map(|(f, b)| f / b);
    let mixed_speedup = rate("mixed_single_thread_warm")
        .zip(rate("mixed_baseline_single_thread"))
        .map(|(f, b)| f / b);
    if let (Some(s), Some(m)) = (speedup, mixed_speedup) {
        eprintln!(
            "  single-thread speedup over reference kernels: {s:.2}x (burst), {m:.2}x (mixed)"
        );
    }

    let entries: Vec<String> = results.iter().map(json_entry).collect();
    let mut summary = String::new();
    if let Some(s) = speedup {
        summary.push_str(&format!(
            ",\n  \"speedup_single_thread_vs_baseline\": {s:.3}"
        ));
    }
    if let Some(s) = mixed_speedup {
        summary.push_str(&format!(",\n  \"speedup_mixed_vs_baseline\": {s:.3}"));
    }
    if let Some((ratio, p999_us)) = refresh_spike {
        summary.push_str(&format!(
            ",\n  \"refresh_p999_spike_ratio\": {ratio:.3},\n  \"refresh_p999_us\": {p999_us:.1}"
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"online_throughput\",\n  \"mode\": \"{}\",\n  \"dataset\": {{ \"users\": {}, \"items\": {}, \"ratings\": {} }},\n  \"config\": {{ \"clusters\": {}, \"k\": {}, \"m\": {}, \"lambda\": {}, \"delta\": {}, \"w\": {} }},\n  \"threads\": {},\n  \"requests_per_pass\": {},\n  \"results\": {{\n{}\n  }}{}\n}}\n",
        if quick { "quick" } else { "full" },
        users,
        items,
        data.matrix.num_ratings(),
        config.clusters,
        config.k,
        config.m,
        config.lambda,
        config.delta,
        config.w,
        threads,
        requests.len(),
        entries.join(",\n"),
        summary
    );
    std::fs::write(&out_path, &json).expect("write bench report");
    eprintln!("  wrote {out_path}");
    if let Some(committed) = compare_path {
        compare_against(&results, &committed);
    }
    println!("{json}");
}
