//! End-to-end test of fleet observability as real processes: two
//! `cfsf-cli serve` shards and one `cfsf_router` front, with head
//! sampling forced on.
//!
//! The acceptance criteria this file exists for:
//!
//! - a request through the router produces ONE trace whose shard-side
//!   spans (shipped back on the response frames) stitch under the
//!   router's trace id — visible as `remote shardN` groups on the
//!   router's `/traces` endpoint,
//! - the router's `/metrics` carries merged `cfsf_fleet_*` series that
//!   equal the sum of the per-shard (`shard="N"`) series scraped in the
//!   same pass,
//! - the SLO engine publishes multi-window burn-rate gauges and
//!   `--slo-report` writes the report JSON.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use cf_faultinject::ChildGuard;
use cf_serve::client::{ClientOptions, ShardClient};
use cf_serve::frame::{Request, Response};
use cfsf::prelude::*;

/// Reads lines from `pipe` until one contains `marker`, returning the
/// rest of that line, then hands the pipe to a drain thread (closing
/// the read end would SIGPIPE the child).
fn await_line(pipe: impl Read + Send + 'static, marker: &str) -> Option<String> {
    let mut reader = BufReader::new(pipe);
    let mut found = None;
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {
                if let Some((_, rest)) = line.rsplit_once(marker) {
                    found = Some(rest.trim().to_string());
                    break;
                }
            }
        }
    }
    std::thread::spawn(move || {
        let mut sink = String::new();
        loop {
            sink.clear();
            match reader.read_line(&mut sink) {
                Ok(0) | Err(_) => return,
                Ok(_) => {}
            }
        }
    });
    found
}

fn spawn_listening(mut cmd: Command, what: &str) -> (ChildGuard, String) {
    cmd.stdout(Stdio::piped()).stderr(Stdio::null());
    let child = cmd.spawn().unwrap_or_else(|e| panic!("spawn {what}: {e}"));
    let mut guard = ChildGuard::new(child, what);
    let stdout = guard
        .child_mut()
        .and_then(|c| c.stdout.take())
        .expect("stdout piped");
    let addr = await_line(stdout, "listening on ")
        .unwrap_or_else(|| panic!("{what} never printed its listening line"));
    (guard, addr)
}

/// One HTTP GET against the router's telemetry endpoint.
fn scrape(addr: &str, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("metrics endpoint reachable");
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut body = String::new();
    let _ = stream.read_to_string(&mut body);
    body
}

/// Extracts the value of the exactly-matching series line
/// (`name value` or `name{labels} value`) from a Prometheus scrape.
fn series_value(text: &str, series: &str) -> Option<u64> {
    text.lines().find_map(|l| {
        let rest = l.strip_prefix(series)?;
        let rest = rest.strip_prefix(' ')?;
        rest.trim().parse().ok()
    })
}

#[test]
fn fleet_traces_stitch_and_merged_metrics_sum_per_shard() {
    // --- train and persist the model the whole fleet serves ------------
    let dataset = SyntheticConfig::small().generate();
    let model = Arc::new(Cfsf::fit(&dataset.matrix, CfsfConfig::small()).expect("valid config"));
    let dir = std::env::temp_dir().join(format!("cfsf-fleet-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let model_path = dir.join("model.cfsf");
    model.save_to_file(&model_path).expect("model saves");
    let slo_path = dir.join("BENCH_slo.json");

    // --- spawn 2 shards + router from the real binaries -----------------
    let cli = env!("CARGO_BIN_EXE_cfsf_cli");
    let router_bin = env!("CARGO_BIN_EXE_cfsf_router");
    let mut shards = Vec::new();
    let mut shard_addrs = Vec::new();
    for shard_id in 0..2u32 {
        let mut cmd = Command::new(cli);
        cmd.arg("serve")
            .arg(&model_path)
            .args(["--serve", "127.0.0.1:0", "--shard-id"])
            .arg(shard_id.to_string());
        let (guard, addr) = spawn_listening(cmd, &format!("shard {shard_id}"));
        shards.push(guard);
        shard_addrs.push(addr);
    }
    let mut cmd = Command::new(router_bin);
    cmd.args(["--shards", &shard_addrs.join(",")])
        .args(["--listen", "127.0.0.1:0"])
        .args(["--serve-metrics", "127.0.0.1:0"])
        .args(["--trace-sample-every", "1"])
        .args(["--stats-poll-ms", "100"])
        .args(["--slo-p999-ms", "250", "--slo-degrade-pm", "100"])
        .arg("--slo-report")
        .arg(&slo_path)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let child = cmd.spawn().expect("spawn router");
    let mut router_guard = ChildGuard::new(child, "router");
    let stderr = router_guard
        .child_mut()
        .and_then(|c| c.stderr.take())
        .expect("stderr piped");
    let metrics_addr = await_line(stderr, "telemetry endpoint on http://")
        .expect("router never printed its telemetry line");
    let metrics_addr = metrics_addr.trim_end_matches('/').to_string();
    let stdout = router_guard
        .child_mut()
        .and_then(|c| c.stdout.take())
        .expect("stdout piped");
    let router_addr =
        await_line(stdout, "listening on ").expect("router never printed its listening line");

    // --- drive traffic through the router --------------------------------
    let mut client = ShardClient::connect(router_addr.as_str(), ClientOptions::default())
        .expect("router reachable");
    let users = model.matrix().num_users() as u32;
    for user in 0..users.min(32) {
        match client.request(&Request::predict(user, 1)).unwrap() {
            Response::Prediction(p) => assert!(p.fused.is_finite()),
            other => panic!("predict answered {other:?}"),
        }
    }
    match client
        .request(&Request::recommend_top_n(0, 5, 0, u32::MAX))
        .unwrap()
    {
        Response::TopN(items) => assert!(!items.is_empty()),
        other => panic!("recommend answered {other:?}"),
    }

    // --- one trace, stitched across processes ----------------------------
    // Head sampling is 1-in-1, so the very first predict was captured;
    // its shard answered with its spans on the response frame and the
    // router attached them under its own trace id.
    let traces = scrape(&metrics_addr, "/traces");
    assert!(
        traces.contains("router.shard_call"),
        "router-side span missing from /traces: {traces}"
    );
    assert!(
        traces.contains("remote shard"),
        "stitched shard-side spans missing from /traces: {traces}"
    );
    assert!(
        traces.contains("remote.request"),
        "shard-side request root missing from /traces: {traces}"
    );
    // The scatter path stitches too.
    assert!(
        traces.contains("router.scatter"),
        "scatter span missing from /traces: {traces}"
    );

    // --- merged fleet series == sum of per-shard series ------------------
    // Wait for at least one stats poll to land (100ms interval).
    let mut metrics = String::new();
    for _ in 0..50 {
        metrics = scrape(&metrics_addr, "/metrics");
        if series_value(&metrics, "cfsf_fleet_online_request_ns_count").is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    // Merged and per-shard series render from one locked snapshot, so
    // the identity is exact within a single scrape even under load.
    for family in [
        "cfsf_fleet_online_request_ns_count",
        "cfsf_fleet_online_request_ns_sum",
        "cfsf_fleet_online_predictions",
    ] {
        let merged = series_value(&metrics, family)
            .unwrap_or_else(|| panic!("{family} missing from scrape: {metrics}"));
        let per_shard: u64 = (0..2)
            .map(|s| {
                series_value(&metrics, &format!("{family}{{shard=\"{s}\"}}"))
                    .unwrap_or_else(|| panic!("{family}{{shard={s}}} missing: {metrics}"))
            })
            .sum();
        assert_eq!(
            merged, per_shard,
            "merged {family} must equal the bucket-wise per-shard sum"
        );
    }
    // Every routed predict recorded one request on its shard.
    assert!(series_value(&metrics, "cfsf_fleet_online_request_ns_count").unwrap() >= 32);
    assert_eq!(
        series_value(&metrics, "cfsf_fleet_shards_reachable"),
        Some(2)
    );
    assert_eq!(
        series_value(&metrics, "cfsf_fleet_generation_skew"),
        Some(0)
    );

    // --- SLO gauges + report file ----------------------------------------
    assert!(
        metrics.contains("cfsf_slo_latency_p999_burn_milli_1m"),
        "burn-rate gauge missing: {metrics}"
    );
    assert!(
        metrics.contains("cfsf_slo_degrade_rate_budget_pm 100"),
        "degrade budget gauge missing: {metrics}"
    );
    let report = std::fs::read_to_string(&slo_path).expect("--slo-report wrote the report");
    for needle in ["\"latency_p999\"", "\"degrade_rate\"", "\"burn_milli\""] {
        assert!(report.contains(needle), "missing {needle} in {report}");
    }

    // A healthy fleet run: no shard was down, so nothing degraded.
    let stats = scrape(&metrics_addr, "/stats.json");
    assert!(stats.contains("\"fleet\""), "{stats}");
    assert!(stats.contains("\"shards_reachable\": 2"), "{stats}");

    drop(client);
    router_guard.kill_now();
    for mut s in shards {
        s.kill_now();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
