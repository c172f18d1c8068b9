//! Fuzzes the CFWP decoders through the public read path.
//!
//! Every case is one frame with a valid header and CRC, written on a
//! loopback pair and read back with `read_request` / `read_response`. A
//! frame is read in full before it is decoded, so a payload that fails to
//! decode leaves the stream on a frame boundary and the same pair carries
//! the next case. The properties:
//!
//! - arbitrary payload bytes, and random edits of valid payloads, of every
//!   kind decode or fail as `Malformed` (known kinds) or `UnknownKind`
//!   (unknown ones), and never panic or abort;
//! - a payload that decodes is the only encoding of its value: the
//!   crate's writers re-encode it to the same bytes;
//! - random valid frames, traces and spans included, round-trip with every
//!   `f64` equal by bits, and request payloads match the layout as written
//!   out field by field below.

use std::cell::RefCell;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use cf_obs::trace::{RemoteSpan, TraceContext};
use cf_serve::frame::{
    read_frame, read_request, read_response, write_request, write_response, FrameError, HealthInfo,
    ReadOutcome, Request, Response, WirePrediction, WireProfile, WireStats, MAGIC, VERSION,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// Request kinds, then response kinds, then unknown kinds on both sides
/// of the request/response split at 16.
const KINDS: [u16; 18] = [
    1, 2, 3, 4, 5, 6, 16, 17, 18, 19, 20, 21, 22, 0, 7, 15, 23, 0xFFFF,
];
const KNOWN_KINDS: usize = 13;

const DEADLINE: Duration = Duration::from_secs(2);

thread_local! {
    /// One loopback pair per test thread: `.0` writes, `.1` reads.
    static PAIR: RefCell<(TcpStream, TcpStream)> = RefCell::new(loopback());
}

fn loopback() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (rx, _) = listener.accept().unwrap();
    for s in [&tx, &rx] {
        cf_obs::net::harden(s, Duration::from_millis(200)).unwrap();
    }
    (tx, rx)
}

/// What one frame decoded to.
#[derive(Debug)]
enum Decoded {
    Request(Request),
    Response(Response, Vec<RemoteSpan>),
}

/// Sends `payload` as a `kind` frame with a valid header and CRC and reads
/// it back with the reader for its side of the kind space.
fn exchange(kind: u16, payload: &[u8]) -> Result<Decoded, FrameError> {
    PAIR.with(|pair| {
        let (tx, rx) = &mut *pair.borrow_mut();
        let mut raw = Vec::with_capacity(payload.len() + 16);
        raw.extend_from_slice(&MAGIC);
        raw.extend_from_slice(&VERSION.to_le_bytes());
        raw.extend_from_slice(&kind.to_le_bytes());
        raw.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        raw.extend_from_slice(payload);
        raw.extend_from_slice(&cfsf_core::crc32(payload).to_le_bytes());
        tx.write_all(&raw).unwrap();
        if kind < 16 {
            match read_request(rx, DEADLINE)? {
                ReadOutcome::Frame(req) => Ok(Decoded::Request(req)),
                other => panic!("expected a frame, got {other:?}"),
            }
        } else {
            let (resp, spans) = read_response(rx, DEADLINE, Instant::now() + DEADLINE)?;
            Ok(Decoded::Response(resp, spans))
        }
    })
}

/// Encodes `decoded` with the crate's writers; returns the frame's kind
/// and payload as they crossed the wire.
fn encode(decoded: &Decoded) -> (u16, Vec<u8>) {
    PAIR.with(|pair| {
        let (tx, rx) = &mut *pair.borrow_mut();
        match decoded {
            Decoded::Request(req) => write_request(tx, req).unwrap(),
            Decoded::Response(resp, spans) => write_response(tx, resp, spans).unwrap(),
        }
        match read_frame(rx, DEADLINE).unwrap() {
            ReadOutcome::Frame(frame) => frame,
            other => panic!("expected a frame, got {other:?}"),
        }
    })
}

/// What every input must satisfy: a known kind decodes or is `Malformed`,
/// an unknown one is `UnknownKind`, and whatever decodes re-encodes to the
/// same bytes.
fn check(kind: u16, payload: &[u8]) -> Result<(), String> {
    let known = KINDS[..KNOWN_KINDS].contains(&kind);
    match exchange(kind, payload) {
        Ok(decoded) if known => {
            let again = encode(&decoded);
            if again != (kind, payload.to_vec()) {
                return Err(format!("kind {kind}: {decoded:?} re-encodes differently"));
            }
            Ok(())
        }
        Err(FrameError::Malformed(_)) if known => Ok(()),
        Err(FrameError::UnknownKind(k)) if !known && k == kind => Ok(()),
        other => Err(format!("kind {kind}: unexpected outcome {other:?}")),
    }
}

/// Payload bytes biased toward 0, 1 and 2, so counts, tags and flags
/// often land on values a decoder accepts and the fields behind them get
/// exercised too.
fn noise(max: usize) -> impl Strategy<Value = Vec<u8>> {
    vec(
        (0u8..=255, 0u8..4).prop_map(|(b, pick)| if pick == 0 { b } else { b % 3 }),
        0..max,
    )
}

fn f64_bits() -> impl Strategy<Value = f64> {
    (0u64..=u64::MAX).prop_map(f64::from_bits)
}

/// One- and two-byte UTF-8 text.
fn text(max: usize) -> impl Strategy<Value = String> {
    vec(0x20u32..0x800, 0..max).prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect())
}

fn trace() -> impl Strategy<Value = Option<TraceContext>> {
    proptest::option::of((0u64..=u64::MAX, 0u32..=u32::MAX, 0u8..2).prop_map(
        |(trace_id, parent_span, sampled)| TraceContext {
            trace_id,
            parent_span,
            sampled: sampled == 1,
        },
    ))
}

fn prediction() -> impl Strategy<Value = WirePrediction> {
    (f64_bits(), 0u8..=255, 0u8..2).prop_map(|(fused, level, fallback)| WirePrediction {
        fused,
        level,
        fallback: fallback == 1,
    })
}

fn span() -> impl Strategy<Value = RemoteSpan> {
    (text(24), 0u64..=u64::MAX, 0u64..=u64::MAX, 0u8..=255).prop_map(
        |(name, start_ns, dur_ns, depth)| RemoteSpan {
            origin: String::new(),
            name,
            start_ns,
            dur_ns,
            depth,
        },
    )
}

/// A valid request as `(kind, payload)`, written field by field from the
/// version 2 layout rather than with the crate's encoder: the kind's
/// fixed fields, then (for the traced kinds) the trace context as an
/// optional value. Also returns the trace it carries.
fn request() -> impl Strategy<Value = (u16, Vec<u8>, Option<TraceContext>)> {
    (
        0usize..6,
        (
            0u32..=u32::MAX,
            0u32..=u32::MAX,
            0u32..=u32::MAX,
            0u32..=u32::MAX,
        ),
        vec((0u32..=u32::MAX, 0u32..=u32::MAX), 0..40),
        trace(),
    )
        .prop_map(|(pick, (a, b, c, d), pairs, trace)| {
            let kind = KINDS[pick];
            let mut out = Vec::new();
            match kind {
                2 => [a, b]
                    .iter()
                    .for_each(|w| out.extend_from_slice(&w.to_le_bytes())),
                3 => [a, b, c, d]
                    .iter()
                    .for_each(|w| out.extend_from_slice(&w.to_le_bytes())),
                5 => {
                    out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
                    for (user, item) in pairs {
                        out.extend_from_slice(&user.to_le_bytes());
                        out.extend_from_slice(&item.to_le_bytes());
                    }
                }
                _ => return (kind, out, None),
            }
            match trace {
                None => out.push(0),
                Some(ctx) => {
                    out.push(1);
                    out.extend_from_slice(&ctx.trace_id.to_le_bytes());
                    out.extend_from_slice(&ctx.parent_span.to_le_bytes());
                    out.push(u8::from(ctx.sampled));
                }
            }
            (kind, out, trace)
        })
}

/// A random response of any kind: one draw of every variant's fields,
/// and the first element picks the variant.
fn response() -> impl Strategy<Value = Response> {
    (
        (
            0u8..7,
            0u32..=u32::MAX,
            0u64..=u64::MAX,
            0u64..=u64::MAX,
            0u64..=u64::MAX,
        ),
        prediction(),
        vec((0u32..=u32::MAX, f64_bits()), 0..32),
        (f64_bits(), f64_bits(), f64_bits(), vec(f64_bits(), 0..32)),
        vec(proptest::option::of(prediction()), 0..32),
        (0u16..=u16::MAX, text(32), vec(0u8..=255, 0..64)),
    )
        .prop_map(
            |(
                (pick, id, a, b, generation),
                p,
                top,
                (lo, hi, mean, means),
                preds,
                (code, message, blob),
            )| {
                match pick {
                    0 => Response::Health(HealthInfo {
                        shard_id: id,
                        num_users: a,
                        num_items: b,
                        generation,
                    }),
                    1 => Response::Prediction(p),
                    2 => Response::TopN(top),
                    3 => Response::Profile(WireProfile {
                        scale_min: lo,
                        scale_max: hi,
                        global_mean: mean,
                        num_items: a,
                        user_means: means,
                        generation,
                    }),
                    4 => Response::Predictions(preds),
                    5 => Response::Error { code, message },
                    _ => Response::Stats(WireStats {
                        shard_id: id,
                        generation,
                        snapshot: blob,
                    }),
                }
            },
        )
}

/// Byte edits: `(position, byte, op)` with op 0 = xor, 1 = insert,
/// 2 = delete, 3 = overwrite.
fn edits() -> impl Strategy<Value = Vec<(usize, u8, u8)>> {
    vec((0usize..4096, 0u8..=255, 0u8..4), 1..6)
}

fn apply(payload: &mut Vec<u8>, edits: &[(usize, u8, u8)]) {
    for &(pos, byte, op) in edits {
        if op == 1 {
            payload.insert(pos % (payload.len() + 1), byte);
        } else if !payload.is_empty() {
            let at = pos % payload.len();
            match op {
                0 => payload[at] ^= byte.max(1),
                2 => {
                    payload.remove(at);
                }
                _ => payload[at] = byte,
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn arbitrary_payloads_decode_or_fail_cleanly(pick in 0usize..KINDS.len(), payload in noise(160)) {
        check(KINDS[pick], &payload)?;
    }

    #[test]
    fn edited_requests_decode_or_fail_cleanly(req in request(), edits in edits()) {
        let (kind, mut payload, _) = req;
        apply(&mut payload, &edits);
        check(kind, &payload)?;
    }

    #[test]
    fn edited_responses_decode_or_fail_cleanly(resp in response(), spans in vec(span(), 0..4), edits in edits()) {
        let (kind, mut payload) = encode(&Decoded::Response(resp, spans));
        apply(&mut payload, &edits);
        check(kind, &payload)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn valid_requests_round_trip(req in request()) {
        let (kind, payload, trace) = req;
        let req = match exchange(kind, &payload) {
            Ok(Decoded::Request(req)) => req,
            other => return Err(format!("kind {kind} did not decode: {other:?}")),
        };
        prop_assert_eq!(req.trace_context(), trace);
        // The crate's encoder writes exactly the layout above...
        let (again_kind, again) = encode(&Decoded::Request(req.clone()));
        prop_assert_eq!((again_kind, &again), (kind, &payload));
        // ...and decoding it gives back the same request.
        match exchange(again_kind, &again) {
            Ok(Decoded::Request(back)) => prop_assert_eq!(back, req),
            other => return Err(format!("re-encoded kind {kind} did not decode: {other:?}")),
        }
    }

    #[test]
    fn valid_responses_round_trip(resp in response(), spans in vec(span(), 0..6)) {
        let sent = Decoded::Response(resp, spans);
        let (kind, payload) = encode(&sent);
        let got = exchange(kind, &payload).map_err(|e| format!("kind {kind}: {e}"))?;
        // Equal Debug text pins every field and tells -0.0 from 0.0; equal
        // encodings then pin every f64's bits, NaN payloads included.
        prop_assert_eq!(format!("{got:?}"), format!("{sent:?}"));
        prop_assert_eq!(encode(&got), (kind, payload));
    }
}
