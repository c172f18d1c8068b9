//! End-to-end test of the sharded serving fleet as real processes: two
//! `cfsf-cli serve --serve` shards and one `cfsf_router` front, spawned
//! from the built binaries, speaking the wire protocol over loopback.
//!
//! The acceptance criterion this file exists for: killing one of N
//! shards mid-load causes ZERO router request errors — the dead shard's
//! users degrade down the ladder (`online.degrade.*` rises on the
//! router's metrics endpoint) while every request keeps answering.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use cf_faultinject::ChildGuard;
use cf_serve::client::{ClientOptions, ShardClient};
use cf_serve::frame::{Request, Response};
use cf_serve::router::shard_for_user;
use cfsf::prelude::*;

/// Reads lines from `pipe` until one contains `marker`, returning the
/// rest of that line, then hands the pipe to a drain thread: closing the
/// read end would SIGPIPE/panic the child on its next print.
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

/// Spawns a binary and parses the `... listening on ADDR` line from its
/// stdout, returning the guard and the bound address.
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

/// Scrapes `GET /stats.json` from the router's metrics endpoint.
fn scrape_stats(addr: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("metrics endpoint reachable");
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    write!(
        stream,
        "GET /stats.json HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut body = String::new();
    let _ = stream.read_to_string(&mut body);
    body
}

/// Pulls counter `name` out of a `/stats.json` scrape.
fn counter_in(stats: &str, name: &str) -> u64 {
    let needle = format!("\"{name}\":");
    let at = stats
        .find(&needle)
        .unwrap_or_else(|| panic!("{name} missing from stats: {stats}"));
    stats[at + needle.len()..]
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("{name} is not a number in stats"))
}

fn degrade_total_in(stats: &str) -> u64 {
    [
        "online.degrade.full",
        "online.degrade.partial_fusion",
        "online.degrade.single_estimator",
        "online.degrade.cluster_smoothed",
        "online.degrade.user_mean",
        "online.degrade.global_mean",
    ]
    .iter()
    .map(|n| {
        let needle = format!("\"{n}\":");
        stats.find(&needle).map_or(0, |at| {
            stats[at + needle.len()..]
                .trim_start()
                .chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
                .parse()
                .unwrap_or(0)
        })
    })
    .sum()
}

#[test]
fn sharded_fleet_round_trips_and_survives_shard_kill() {
    // --- train and persist the model the whole fleet serves ------------
    let dataset = SyntheticConfig::small().generate();
    let model = Arc::new(Cfsf::fit(&dataset.matrix, CfsfConfig::small()).expect("valid config"));
    let dir = std::env::temp_dir().join(format!("cfsf-sharded-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let model_path = dir.join("model.cfsf");
    model.save_to_file(&model_path).expect("model saves");

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
        .args(["--retries", "1", "--down-cooldown-ms", "200"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let child = cmd.spawn().expect("spawn router");
    let mut router_guard = ChildGuard::new(child, "router");
    // The telemetry line goes to stderr before the router connects to its
    // shards; the listening line goes to stdout after. Both are tiny, so
    // reading them in that order cannot deadlock on pipe buffers.
    let stderr = router_guard
        .child_mut()
        .and_then(|c| c.stderr.take())
        .expect("stderr piped");
    let metrics_addr = await_line(stderr, "telemetry endpoint on http://")
        .expect("router never printed its telemetry line");
    let metrics_addr = metrics_addr.trim_end_matches('/');
    let stdout = router_guard
        .child_mut()
        .and_then(|c| c.stdout.take())
        .expect("stdout piped");
    let router_addr =
        await_line(stdout, "listening on ").expect("router never printed its listening line");

    // --- phase 1: the fleet answers bit-for-bit ------------------------
    let mut client = ShardClient::connect(router_addr.as_str(), ClientOptions::default())
        .expect("router reachable");
    let users = model.matrix().num_users() as u32;
    let items = model.matrix().num_items() as u32;
    for user in (0..users).step_by(5) {
        for item in (0..items).step_by(11) {
            let local = model
                .predict_with_breakdown(UserId::new(user), ItemId::new(item))
                .unwrap();
            match client.request(&Request::predict(user, item)).unwrap() {
                Response::Prediction(p) => {
                    assert_eq!(
                        p.fused.to_bits(),
                        local.fused.to_bits(),
                        "remote predict for ({user},{item}) must be bit-for-bit"
                    );
                }
                other => panic!("predict answered {other:?}"),
            }
        }
        let local: Vec<(u32, u64)> = model
            .recommend_top_n(UserId::new(user), 5)
            .iter()
            .map(|(i, s)| (i.raw(), s.to_bits()))
            .collect();
        match client
            .request(&Request::recommend_top_n(user, 5, 0, u32::MAX))
            .unwrap()
        {
            Response::TopN(remote) => {
                let remote: Vec<(u32, u64)> =
                    remote.iter().map(|(i, s)| (*i, s.to_bits())).collect();
                assert_eq!(
                    remote, local,
                    "scatter-gather top-N for user {user} must merge bit-for-bit"
                );
            }
            other => panic!("recommend answered {other:?}"),
        }
    }

    // Batches through the router: answered bit-for-bit, in request
    // order, with out-of-range pairs as `None`.
    let pairs: Vec<(u32, u32)> = (0..users)
        .step_by(3)
        .flat_map(|user| (0..items).step_by(97).map(move |item| (user, item)))
        .chain([(users + 5, 0), (0, items + 5)])
        .collect();
    let served = client.predict_batch(pairs.clone()).expect("batch answered");
    assert_eq!(served.len(), pairs.len());
    for (&(user, item), remote) in pairs.iter().zip(&served) {
        let local = model.predict_with_breakdown(UserId::new(user), ItemId::new(item));
        match (remote, local) {
            (Some(p), Some(l)) => {
                assert_eq!(
                    p.fused.to_bits(),
                    l.fused.to_bits(),
                    "remote batch pair ({user},{item}) must be bit-for-bit"
                );
                assert_eq!(p.level, l.level.code());
                assert_eq!(p.fallback, l.used_fallback);
            }
            (None, None) => {}
            other => panic!("batch pair ({user},{item}): remote vs local disagree: {other:?}"),
        }
    }

    let stats = scrape_stats(metrics_addr);
    assert_eq!(counter_in(&stats, "router.request_errors"), 0);
    let degrade_before = degrade_total_in(&stats);

    // --- phase 2: murder shard 1 mid-load -------------------------------
    shards[1].kill_now();

    let mut dead_users = 0u64;
    for user in 0..users {
        match client.request(&Request::predict(user, 0)).unwrap() {
            Response::Prediction(p) => {
                assert!(p.fused.is_finite());
                if shard_for_user(user, 2) == 1 {
                    dead_users += 1;
                    assert!(
                        p.fallback,
                        "user {user} lives on the dead shard: must be served degraded"
                    );
                }
            }
            other => panic!("predict after shard kill answered {other:?}"),
        }
    }
    assert!(dead_users > 0, "the hash must place users on shard 1");

    // A batch over every user: the dead shard's pairs degrade, the live
    // shard's pairs stay bit-for-bit.
    let pairs: Vec<(u32, u32)> = (0..users).map(|user| (user, (user * 7) % items)).collect();
    let served = client.predict_batch(pairs.clone()).expect("batch answered");
    assert_eq!(served.len(), pairs.len());
    let mut dead_pairs = 0u64;
    for (&(user, item), remote) in pairs.iter().zip(&served) {
        let p = remote.expect("in-range batch pairs always answer");
        assert!(p.fused.is_finite());
        if shard_for_user(user, 2) == 1 {
            dead_pairs += 1;
            assert!(
                p.fallback,
                "batch pair ({user},{item}) lives on the dead shard: must be served degraded"
            );
        } else {
            let local = model
                .predict_with_breakdown(UserId::new(user), ItemId::new(item))
                .unwrap();
            assert_eq!(
                p.fused.to_bits(),
                local.fused.to_bits(),
                "live-shard batch pair ({user},{item}) must stay bit-for-bit"
            );
        }
    }

    // Recommends still answer from the surviving stripe.
    match client
        .request(&Request::recommend_top_n(0, 5, 0, u32::MAX))
        .unwrap()
    {
        Response::TopN(items) => {
            assert!(!items.is_empty(), "surviving stripe must contribute items")
        }
        other => panic!("recommend after shard kill answered {other:?}"),
    }

    // --- the acceptance criterion ---------------------------------------
    let stats = scrape_stats(metrics_addr);
    assert_eq!(
        counter_in(&stats, "router.request_errors"),
        0,
        "a dead shard must cost zero router errors"
    );
    assert!(
        degrade_total_in(&stats) >= degrade_before + dead_users + dead_pairs,
        "every dead-shard user must step down the online.degrade.* ladder"
    );
    assert!(counter_in(&stats, "router.fallback_served") >= dead_users + dead_pairs);

    let _ = std::fs::remove_dir_all(&dir);
}
