//! Regression tests for the hardened telemetry socket loop: the three
//! client shapes that used to corrupt it — slow (byte-at-a-time) heads,
//! stalled half-heads, and oversized heads — must now get `200`, `408`,
//! and `431` respectively, and none of them may wedge the accept loop.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use cf_obs::serve::MetricsServer;

/// Reads one HTTP response (status line + headers + sized body).
fn read_response(stream: TcpStream) -> (String, String) {
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
    (status.trim().to_string(), String::from_utf8(body).unwrap())
}

fn get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
        .expect("write");
    read_response(stream)
}

#[test]
fn slow_client_byte_at_a_time_still_gets_200() {
    let server = MetricsServer::bind("127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    for b in b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n" {
        stream.write_all(&[*b]).expect("write byte");
        stream.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(2));
    }
    let (status, body) = read_response(stream);
    assert!(status.contains("200"), "slow client got: {status}");
    assert!(body.contains("cfsf_"), "not a metrics body: {body:.60}");
}

#[test]
fn stalled_client_gets_408_and_the_loop_keeps_serving() {
    let server = MetricsServer::bind("127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let before_408 = cf_obs::global().counter("obs.serve.responses.408").get();

    // Send half a head, then hang. The server must answer 408 within its
    // head deadline instead of blocking forever or routing the prefix.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(b"GET /metrics HT").expect("half head");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let started = Instant::now();
    let (status, _body) = read_response(stream);
    assert!(status.contains("408"), "stalled client got: {status}");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "408 took {:?} — timeout not armed?",
        started.elapsed()
    );
    assert!(
        cf_obs::global().counter("obs.serve.responses.408").get() > before_408,
        "408 must be counted in the response breakdown"
    );

    // The accept loop survived the stall: a normal request still works.
    let (status, body) = get(addr, "/metrics");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("cfsf_"));
}

#[test]
fn oversized_head_gets_431_not_routed() {
    let server = MetricsServer::bind("127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let before = cf_obs::global().counter("obs.serve.responses.431").get();

    let mut stream = TcpStream::connect(addr).expect("connect");
    // > MAX_REQUEST_BYTES (8 KiB) with no terminator: must be rejected,
    // not silently truncated into a routable request line.
    let huge = vec![b'A'; 9 * 1024];
    stream.write_all(&huge).expect("oversized head");
    let (status, _body) = read_response(stream);
    assert!(status.contains("431"), "oversized head got: {status}");
    assert!(cf_obs::global().counter("obs.serve.responses.431").get() > before);

    let (status, _) = get(addr, "/stats.json");
    assert!(status.contains("200"), "{status}");
}

#[test]
fn half_closed_partial_head_gets_400() {
    let server = MetricsServer::bind("127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(b"GET /metrics").expect("partial head");
    // FIN the write half: the server sees EOF mid-head but can still
    // answer on the read half.
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let (status, _body) = read_response(stream);
    assert!(status.contains("400"), "truncated head got: {status}");
}

#[test]
fn requests_counter_covers_error_responses_too() {
    let server = MetricsServer::bind("127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let requests = || cf_obs::global().counter("obs.serve.requests").get();

    let before = requests();
    let (status, _) = get(addr, "/definitely-not-a-route");
    assert!(status.contains("404"), "{status}");
    assert!(
        requests() > before,
        "a 404 must still count as a served request"
    );

    let before = requests();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(b"GET /st").expect("partial");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let (status, _) = read_response(stream);
    assert!(status.contains("400"), "{status}");
    assert!(
        requests() > before,
        "a 400 must still count as a served request"
    );
}
