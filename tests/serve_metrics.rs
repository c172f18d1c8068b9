//! End-to-end telemetry: the live endpoint serves valid Prometheus text,
//! the JSON snapshot, and captured traces — including an exemplar trace
//! for a forced-degraded request — both in-process (the component the
//! `--serve-metrics` flag binds) and through the actual CLI binary.

use cfsf::prelude::*;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Minimal HTTP GET against the telemetry endpoint.
fn http_get(addr: &str, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to telemetry endpoint");
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes())
        .expect("send request");
    let mut reader = BufReader::new(stream);
    let mut status = String::new();
    reader.read_line(&mut status).expect("status line");
    let mut content_len = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let trimmed = line.trim();
        if trimmed.is_empty() {
            break;
        }
        if let Some(v) = trimmed
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
            .and_then(|v| v.parse().ok())
        {
            content_len = v;
        }
    }
    let mut body = vec![0u8; content_len];
    reader.read_exact(&mut body).expect("body");
    (
        status.trim().to_string(),
        String::from_utf8(body).expect("utf8 body"),
    )
}

/// A model where `DEGRADED_USER` is forced onto the fallback region of
/// the degradation ladder: the user has no ratings (so no estimator can
/// fire) and smoothing is off (so the smoothed-cell rung is skipped) —
/// every prediction for them is served from user/global mean, which is
/// `DegradeLevel::is_fallback()` territory.
const DEGRADED_USER: usize = 79;

fn forced_degraded_model() -> Cfsf {
    let dataset = SyntheticConfig::small().generate();
    let m = &dataset.matrix;
    let mut b = cf_matrix::MatrixBuilder::with_dims(m.num_users(), m.num_items()).scale(m.scale());
    for u in 0..m.num_users() {
        if u == DEGRADED_USER {
            continue;
        }
        let (items, vals) = m.user_row(UserId::from(u));
        for (&i, &r) in items.iter().zip(vals) {
            b.push(UserId::from(u), i, r);
        }
    }
    let matrix = b.build().expect("rebuilt matrix is valid");
    let mut cfg = CfsfConfig::small();
    cfg.use_smoothing = false;
    Cfsf::fit(&matrix, cfg).expect("fit succeeds")
}

/// Every non-comment exposition line must be `name{labels} value` with a
/// Prometheus-grammar metric name and a parseable float value.
fn assert_prometheus_format(text: &str) {
    let mut series = 0usize;
    for line in text.lines() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let name_end = line
            .find([' ', '{'])
            .unwrap_or_else(|| panic!("series line without name/value separator: {line:?}"));
        let name = &line[..name_end];
        assert!(
            !name.is_empty()
                && !name.starts_with(|c: char| c.is_ascii_digit())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "invalid metric name in line {line:?}"
        );
        let value = line.rsplit(' ').next().expect("value field");
        assert!(
            value.parse::<f64>().is_ok(),
            "unparseable sample value in line {line:?}"
        );
        series += 1;
    }
    assert!(series > 10, "suspiciously few series: {series}");
}

#[test]
fn endpoint_serves_metrics_and_a_degraded_exemplar_trace() {
    let model = forced_degraded_model();

    // Drive a mixed workload: healthy users plus the degraded one. The
    // degraded user's requests are tail-kept regardless of head sampling.
    for u in 0..40usize {
        for i in (0..model.matrix().num_items()).step_by(13) {
            let _ = model.predict_with_breakdown(UserId::from(u), ItemId::from(i));
        }
    }
    let degraded = model
        .predict_with_breakdown(UserId::from(DEGRADED_USER), ItemId::from(3usize))
        .expect("ladder always serves in-range requests");
    assert!(
        degraded.used_fallback,
        "user without ratings must be served from the fallback region, got {:?}",
        degraded.level
    );

    let server = cf_obs::serve::MetricsServer::bind("127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();

    // --- /metrics: valid Prometheus text carrying the serving metrics,
    // derived gauges, and at least one trace exemplar.
    let (status, metrics) = http_get(&addr, "/metrics");
    assert!(status.contains("200 OK"), "{status}");
    assert_prometheus_format(&metrics);
    assert!(
        metrics.contains("cfsf_online_predictions_total"),
        "{metrics}"
    );
    assert!(metrics.contains("cfsf_online_request_ns{quantile=\"0.99\"}"));
    assert!(metrics.contains("cfsf_online_degrade_global_mean_total"));
    assert!(
        metrics.contains("cfsf_online_cache_hit_ratio_pm"),
        "derived gauges must refresh on scrape"
    );
    assert!(
        metrics.contains("cfsf_trace_exemplar{metric=\"online.request_ns\""),
        "p99 buckets must link to captured traces:\n{metrics}"
    );

    // --- /stats.json: dotted names untouched.
    let (status, json) = http_get(&addr, "/stats.json");
    assert!(status.contains("200 OK"), "{status}");
    assert!(json.contains("\"online.predictions\""), "{json}");
    assert!(json.contains("\"online.request_ns\""), "{json}");

    // --- /traces: the forced-degraded request is captured with full
    // attribution, and its trace id matches an exported exemplar.
    let (status, traces) = http_get(&addr, "/traces");
    assert!(status.contains("200 OK"), "{status}");
    assert!(
        traces.contains(&format!("user={DEGRADED_USER}")),
        "degraded user's trace must be tail-kept:\n{traces}"
    );
    assert!(
        traces.contains("[degraded]") || traces.contains("+degraded"),
        "{traces}"
    );
    let exemplar_ids: Vec<u64> = cf_obs::trace::exemplars()
        .iter()
        .map(|(_, _, e)| e.trace_id)
        .collect();
    let dump = cf_obs::trace::snapshot();
    let captured: Vec<u64> = dump
        .slow
        .iter()
        .chain(&dump.degraded)
        .chain(&dump.recent)
        .map(|t| t.id)
        .collect();
    assert!(
        exemplar_ids.iter().any(|id| captured.contains(id)),
        "every exemplar must reference a captured trace"
    );

    let (status, _) = http_get(&addr, "/definitely-not-a-route");
    assert!(status.contains("404"), "{status}");

    server.shutdown();
}

#[test]
fn cli_serve_metrics_flag_binds_and_serves() {
    use std::process::{Command, Stdio};

    let mut child = Command::new(env!("CARGO_BIN_EXE_cfsf_cli"))
        .args([
            "--serve-metrics",
            "127.0.0.1:0",
            "--trace-sample-every",
            "4",
            "demo",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cfsf_cli");

    // The CLI prints the bound address before running the command.
    let stderr = child.stderr.take().expect("piped stderr");
    let mut lines = BufReader::new(stderr).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("stderr closed before announcing the endpoint")
            .expect("read stderr");
        if let Some(rest) = line.strip_prefix("telemetry endpoint on http://") {
            break rest.trim_end_matches('/').to_string();
        }
    };

    // The endpoint is announced before the demo runs; scrape once the
    // CLI reports the command finished, so the demo's series are there.
    loop {
        let line = lines
            .next()
            .expect("stderr closed before the command finished")
            .expect("read stderr");
        if line.starts_with("command finished; still serving telemetry") {
            break;
        }
    }
    let (status, metrics) = http_get(&addr, "/metrics");
    assert!(status.contains("200 OK"), "{status}");
    assert_prometheus_format(&metrics);

    let (status, _traces) = http_get(&addr, "/traces");
    assert!(status.contains("200 OK"), "{status}");

    child.kill().expect("kill serving CLI");
    let _ = child.wait();
}
