//! The CFSF wire protocol (CFWP): length-framed, versioned, checksummed
//! binary frames over TCP.
//!
//! Frame layout (everything little-endian):
//!
//! ```text
//! magic "CFWP" | u16 version | u16 kind | u32 len | payload (len bytes) | u32 crc32
//! ```
//!
//! The crc32 ([`cfsf_core::crc32`], the same IEEE polynomial the model
//! files use) covers the payload only; the fixed header is validated
//! field by field so a desynced or hostile peer fails fast with a
//! specific error instead of a mis-sized read. `len` is capped by
//! [`MAX_FRAME_BYTES`] **before** any allocation, so a corrupt length
//! can't OOM the server.
//!
//! Requests and responses share the same framing; kinds below 16 are
//! requests, 16 and up are responses. Every payload has one fixed
//! layout (DESIGN.md §8b) built from three shapes: fixed-width fields,
//! optional values (a tag byte, 0 or 1, then the value when the tag is
//! 1), and lists (a `u32` count, then the elements; strings and blobs
//! are byte lists). Every response ends with the responder's remote
//! spans. Decoding is strict: a short field, a tag or boolean byte other
//! than 0 or 1, a count above its cap or above what the rest of the
//! payload can hold, a string that is not UTF-8, or bytes left after the
//! last field is [`FrameError::Malformed`]; an unknown kind is
//! [`FrameError::UnknownKind`]. Any layout change bumps [`VERSION`].
//!
//! Floating-point values travel as `f64::to_bits`, so a prediction
//! served through a shard is bit-for-bit the prediction the same model
//! serves in process.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use cf_obs::trace::{RemoteSpan, TraceContext, REMOTE_SPANS_CAP};

/// Frame magic: CFSF Wire Protocol.
pub const MAGIC: [u8; 4] = *b"CFWP";
/// Current protocol version: every field present, every decode strict.
/// Any change to a payload layout bumps it.
pub const VERSION: u16 = 2;
/// Hard cap on one frame's payload. Generous enough for a 1M-user
/// profile frame (8 MiB of user means), small enough that a corrupt
/// length field cannot balloon allocation.
pub const MAX_FRAME_BYTES: usize = 64 << 20;
/// Hard cap on the pairs of one [`Request::PredictBatch`], and so on the
/// elements of the [`Response::Predictions`] that answers it. The answer
/// costs 11 bytes per pair, so a batch much above this would soon answer
/// with a frame over [`MAX_FRAME_BYTES`]; at this size the answer is
/// 0.7 MiB and takes well under a second to compute even on one thread,
/// inside the router's request deadline.
pub const MAX_BATCH_PAIRS: usize = 1 << 16;
/// Fixed header size: magic + version + kind + len.
pub const HEADER_LEN: usize = 12;

/// Error code: the requested user or item id is outside the model.
pub const ERR_OUT_OF_RANGE: u16 = 1;
/// Error code: the frame decoded but the request is malformed.
pub const ERR_BAD_REQUEST: u16 = 2;
/// Error code: the server is at its connection/queue limit.
pub const ERR_BUSY: u16 = 3;
/// Error code: an internal failure the server absorbed.
pub const ERR_INTERNAL: u16 = 4;

const KIND_HEALTH: u16 = 1;
const KIND_PREDICT: u16 = 2;
const KIND_RECOMMEND: u16 = 3;
const KIND_PROFILE: u16 = 4;
const KIND_PREDICT_BATCH: u16 = 5;
const KIND_STATS: u16 = 6;
const KIND_R_HEALTH: u16 = 16;
const KIND_R_PREDICTION: u16 = 17;
const KIND_R_TOP_N: u16 = 18;
const KIND_R_PROFILE: u16 = 19;
const KIND_R_ERROR: u16 = 20;
const KIND_R_PREDICTIONS: u16 = 21;
const KIND_R_STATS: u16 = 22;

/// Everything that can go wrong reading or decoding a frame.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying socket failure (including timeouts mid-frame).
    Io(std::io::Error),
    /// The stream does not start with [`MAGIC`] — not a CFSF peer, or a
    /// desynced one.
    BadMagic([u8; 4]),
    /// The peer speaks a protocol version this build does not.
    BadVersion(u16),
    /// The declared payload length exceeds [`MAX_FRAME_BYTES`].
    TooLarge(u32),
    /// The payload checksum did not match.
    BadCrc {
        /// CRC carried by the frame.
        expected: u32,
        /// CRC computed over the received payload.
        actual: u32,
    },
    /// A kind byte neither side of this build understands.
    UnknownKind(u16),
    /// The kind is known but the payload doesn't decode.
    Malformed(&'static str),
    /// The peer closed the stream mid-frame (clean EOF between frames is
    /// [`ReadOutcome::Eof`], not an error).
    Truncated,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o error: {e}"),
            Self::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            Self::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            Self::TooLarge(n) => write!(f, "frame payload of {n} bytes exceeds the limit"),
            Self::BadCrc { expected, actual } => {
                write!(
                    f,
                    "payload crc mismatch: frame says {expected:08x}, computed {actual:08x}"
                )
            }
            Self::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            Self::Malformed(what) => write!(f, "malformed payload: {what}"),
            Self::Truncated => write!(f, "peer closed the stream mid-frame"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// The trace context a traced [`Request`] carries: the caller's, so the
/// shard continues the span tree under the same trace id.
///
/// Only this module can build one. [`Request::predict`],
/// [`Request::recommend_top_n`] and [`Request::predict_batch`] capture
/// the calling thread's context, and decoding reads the peer's, so no
/// traced request can be built with its context dropped.
/// [`Request::trace_context`] reads it.
///
/// ```compile_fail,E0308
/// use cf_serve::frame::Request;
/// let req = Request::Predict { user: 1, item: 2, trace: None };
/// ```
///
/// ```compile_fail,E0423
/// use cf_serve::frame::{Request, WireTrace};
/// let req = Request::Predict { user: 1, item: 2, trace: WireTrace(None) };
/// ```
///
/// ```
/// use cf_serve::frame::Request;
/// // No request trace is active on this thread, so there is none to carry.
/// assert_eq!(Request::predict(1, 2).trace_context(), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireTrace(Option<TraceContext>);

impl WireTrace {
    fn current() -> Self {
        Self(cf_obs::trace::current_context())
    }
}

/// A request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness + model-shape probe.
    Health,
    /// Predict one `(user, item)` rating.
    Predict {
        /// 0-based user id.
        user: u32,
        /// 0-based item id.
        item: u32,
        /// Caller's trace context (see [`WireTrace`]).
        trace: WireTrace,
    },
    /// Top-`n` recommendations for `user` over the item stripe
    /// `[item_start, item_end)`; `item_end == u32::MAX` means "through
    /// the last item". The router scatters stripes across shards and
    /// merges; plain clients just pass the full range.
    RecommendTopN {
        /// 0-based user id.
        user: u32,
        /// How many items to return.
        n: u32,
        /// First item of the stripe (inclusive).
        item_start: u32,
        /// One past the last item of the stripe; `u32::MAX` = item count.
        item_end: u32,
        /// Caller's trace context (see [`WireTrace`]).
        trace: WireTrace,
    },
    /// Fetch the fallback profile (scale, global/user means) the router
    /// serves degraded answers from when a shard is unreachable.
    Profile,
    /// Predict a whole batch of `(user, item)` pairs in one frame. The
    /// shard runs them through [`cfsf_core::Cfsf::predict_batch_with_breakdown`]
    /// (strip-sorted for locality), so amortized per-request cost beats a
    /// stream of [`Request::Predict`] frames while answers stay
    /// bit-identical and in request order. At most [`MAX_BATCH_PAIRS`]
    /// pairs: decoding a larger batch fails as
    /// [`FrameError::Malformed`], which a server answers with
    /// [`ERR_BAD_REQUEST`].
    PredictBatch {
        /// 0-based `(user, item)` pairs, answered in this order.
        pairs: Vec<(u32, u32)>,
        /// Caller's trace context (see [`WireTrace`]).
        trace: WireTrace,
    },
    /// Fetch the shard's mergeable metrics snapshot
    /// ([`cf_obs::merge::MergeSnapshot`] wire bytes) for fleet
    /// aggregation.
    Stats,
}

impl Request {
    /// A [`Request::Predict`] carrying the calling thread's current
    /// trace context (if a request trace is active).
    pub fn predict(user: u32, item: u32) -> Self {
        Self::Predict {
            user,
            item,
            trace: WireTrace::current(),
        }
    }

    /// A [`Request::RecommendTopN`] carrying the current trace context.
    pub fn recommend_top_n(user: u32, n: u32, item_start: u32, item_end: u32) -> Self {
        Self::RecommendTopN {
            user,
            n,
            item_start,
            item_end,
            trace: WireTrace::current(),
        }
    }

    /// A [`Request::PredictBatch`] carrying the current trace context.
    pub fn predict_batch(pairs: Vec<(u32, u32)>) -> Self {
        Self::PredictBatch {
            pairs,
            trace: WireTrace::current(),
        }
    }

    /// The propagated trace context, if the request carries one.
    pub fn trace_context(&self) -> Option<TraceContext> {
        match self {
            Self::Predict { trace, .. }
            | Self::RecommendTopN { trace, .. }
            | Self::PredictBatch { trace, .. } => trace.0,
            Self::Health | Self::Profile | Self::Stats => None,
        }
    }
}

/// A shard's mergeable metrics snapshot, for the router's fleet
/// aggregator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireStats {
    /// Operator-assigned shard id.
    pub shard_id: u32,
    /// Refresh generation currently serving.
    pub generation: u64,
    /// [`cf_obs::merge::MergeSnapshot::to_bytes`] payload; versioned and
    /// bounds-checked by its own decoder, so the frame layer just
    /// carries the bytes.
    pub snapshot: Vec<u8>,
}

/// Shard identity and model shape, for health checks and mismatch
/// detection at router startup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthInfo {
    /// Operator-assigned shard id (`u32::MAX` for a router front).
    pub shard_id: u32,
    /// Users in the loaded model.
    pub num_users: u64,
    /// Items in the loaded model.
    pub num_items: u64,
    /// Refresh generation currently serving (0 before any live refresh).
    pub generation: u64,
}

/// One served prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WirePrediction {
    /// The fused, clamped prediction (bit-exact with the in-process
    /// model).
    pub fused: f64,
    /// [`cfsf_core::DegradeLevel::code`] of the rung that served it.
    pub level: u8,
    /// Whether the rung is in the fallback region of the ladder.
    pub fallback: bool,
}

/// The fallback profile: enough of the model for a router to serve the
/// bottom rungs of the degradation ladder on its own.
#[derive(Debug, Clone, PartialEq)]
pub struct WireProfile {
    /// Rating scale minimum.
    pub scale_min: f64,
    /// Rating scale maximum.
    pub scale_max: f64,
    /// Global mean rating — the rung that cannot be missing.
    pub global_mean: f64,
    /// Items in the model (users is `user_means.len()`).
    pub num_items: u64,
    /// Per-user mean ratings, indexed by user id.
    pub user_means: Vec<f64>,
    /// Refresh generation the profile was cut from. The router compares
    /// this against health frames to notice its fallback table has gone
    /// stale.
    pub generation: u64,
}

/// A response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Health`].
    Health(HealthInfo),
    /// Answer to [`Request::Predict`].
    Prediction(WirePrediction),
    /// Answer to [`Request::RecommendTopN`]: `(item, score)`, best
    /// first.
    TopN(Vec<(u32, f64)>),
    /// Answer to [`Request::Profile`].
    Profile(WireProfile),
    /// Answer to [`Request::PredictBatch`], element `k` answering pair
    /// `k`; `None` marks a pair the model cannot predict (out of range or
    /// no local information) without failing the rest of the batch.
    Predictions(Vec<Option<WirePrediction>>),
    /// The request could not be served; `code` is one of the `ERR_*`
    /// constants.
    Error {
        /// Machine-readable `ERR_*` code.
        code: u16,
        /// Human-readable detail.
        message: String,
    },
    /// Answer to [`Request::Stats`].
    Stats(WireStats),
}

/// Outcome of one [`read_frame`] call on a stream with a read timeout.
#[derive(Debug)]
pub enum ReadOutcome<T> {
    /// A complete, checksummed, decoded frame.
    Frame(T),
    /// The socket timeout elapsed with **zero** bytes of a new frame —
    /// the connection is idle. Callers poll their stop flag and retry.
    Idle,
    /// Clean EOF on a frame boundary: the peer is done.
    Eof,
}

// --- payload cursor ----------------------------------------------------

struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.data.len())
            .ok_or(FrameError::Malformed(
                "payload shorter than declared fields",
            ))?;
        let s = &self.data[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, FrameError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f64(&mut self) -> Result<f64, FrameError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self) -> Result<bool, FrameError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(FrameError::Malformed("boolean byte is neither 0 nor 1")),
        }
    }

    /// An optional value: a tag byte, then the value when the tag is 1.
    fn option<T>(
        &mut self,
        value: impl FnOnce(&mut Self) -> Result<T, FrameError>,
    ) -> Result<Option<T>, FrameError> {
        match self.u8()? {
            0 => Ok(None),
            1 => value(self).map(Some),
            _ => Err(FrameError::Malformed("optional tag is neither 0 nor 1")),
        }
    }

    /// A list's `u32` count, vetted before anything is sized by it: more
    /// than `cap` elements, or more than the rest of the payload can hold
    /// at `min_bytes` wire bytes per element, is `Malformed`. Every
    /// length read off the wire goes through here.
    fn count(&mut self, cap: usize, min_bytes: usize) -> Result<usize, FrameError> {
        let count = self.u32()? as usize;
        if count > cap || count > (self.data.len() - self.pos) / min_bytes {
            return Err(FrameError::Malformed(
                "list count exceeds its cap or the payload",
            ));
        }
        Ok(count)
    }

    /// A list: a vetted count (see [`Cursor::count`]), then the elements.
    fn list<T>(
        &mut self,
        cap: usize,
        min_bytes: usize,
        mut elem: impl FnMut(&mut Self) -> Result<T, FrameError>,
    ) -> Result<Vec<T>, FrameError> {
        let count = self.count(cap, min_bytes)?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(elem(self)?);
        }
        Ok(out)
    }

    /// A byte list, capped only by the frame.
    fn bytes(&mut self) -> Result<Vec<u8>, FrameError> {
        let len = self.count(MAX_FRAME_BYTES, 1)?;
        Ok(self.take(len)?.to_vec())
    }

    fn string(&mut self) -> Result<String, FrameError> {
        String::from_utf8(self.bytes()?).map_err(|_| FrameError::Malformed("string is not UTF-8"))
    }

    fn trace(&mut self) -> Result<WireTrace, FrameError> {
        let ctx = self.option(|c| {
            Ok(TraceContext {
                trace_id: c.u64()?,
                parent_span: c.u32()?,
                sampled: c.bool()?,
            })
        })?;
        Ok(WireTrace(ctx))
    }

    fn prediction(&mut self) -> Result<WirePrediction, FrameError> {
        Ok(WirePrediction {
            fused: self.f64()?,
            level: self.u8()?,
            fallback: self.bool()?,
        })
    }

    /// One remote span. `origin` is not on the wire — the receiver knows
    /// which shard it asked.
    fn span(&mut self) -> Result<RemoteSpan, FrameError> {
        Ok(RemoteSpan {
            origin: String::new(),
            name: self.string()?,
            start_ns: self.u64()?,
            dur_ns: self.u64()?,
            depth: self.u8()?,
        })
    }

    /// Ends a decode: bytes after the last field are `Malformed`.
    fn finish(self) -> Result<(), FrameError> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(FrameError::Malformed("bytes left after the last field"))
        }
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}
fn put_list<T>(out: &mut Vec<u8>, items: &[T], mut put: impl FnMut(&mut Vec<u8>, &T)) {
    put_u32(out, items.len() as u32);
    for item in items {
        put(out, item);
    }
}
fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}
fn put_trace(out: &mut Vec<u8>, trace: WireTrace) {
    match trace.0 {
        None => out.push(0),
        Some(ctx) => {
            out.push(1);
            put_u64(out, ctx.trace_id);
            put_u32(out, ctx.parent_span);
            out.push(u8::from(ctx.sampled));
        }
    }
}
fn put_prediction(out: &mut Vec<u8>, p: &WirePrediction) {
    put_f64(out, p.fused);
    out.push(p.level);
    out.push(u8::from(p.fallback));
}
fn put_span(out: &mut Vec<u8>, span: &RemoteSpan) {
    put_bytes(out, span.name.as_bytes());
    put_u64(out, span.start_ns);
    put_u64(out, span.dur_ns);
    out.push(span.depth);
}

// --- payload codecs ----------------------------------------------------

impl Request {
    fn kind(&self) -> u16 {
        match self {
            Self::Health => KIND_HEALTH,
            Self::Predict { .. } => KIND_PREDICT,
            Self::RecommendTopN { .. } => KIND_RECOMMEND,
            Self::Profile => KIND_PROFILE,
            Self::PredictBatch { .. } => KIND_PREDICT_BATCH,
            Self::Stats => KIND_STATS,
        }
    }

    fn payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Self::Health | Self::Profile | Self::Stats => {}
            Self::Predict { user, item, trace } => {
                put_u32(&mut out, *user);
                put_u32(&mut out, *item);
                put_trace(&mut out, *trace);
            }
            Self::RecommendTopN {
                user,
                n,
                item_start,
                item_end,
                trace,
            } => {
                put_u32(&mut out, *user);
                put_u32(&mut out, *n);
                put_u32(&mut out, *item_start);
                put_u32(&mut out, *item_end);
                put_trace(&mut out, *trace);
            }
            Self::PredictBatch { pairs, trace } => {
                put_list(&mut out, pairs, |out, &(user, item)| {
                    put_u32(out, user);
                    put_u32(out, item);
                });
                put_trace(&mut out, *trace);
            }
        }
        out
    }

    fn decode(kind: u16, payload: &[u8]) -> Result<Self, FrameError> {
        let mut c = Cursor::new(payload);
        let req = match kind {
            KIND_HEALTH => Self::Health,
            KIND_PROFILE => Self::Profile,
            KIND_STATS => Self::Stats,
            KIND_PREDICT => Self::Predict {
                user: c.u32()?,
                item: c.u32()?,
                trace: c.trace()?,
            },
            KIND_RECOMMEND => Self::RecommendTopN {
                user: c.u32()?,
                n: c.u32()?,
                item_start: c.u32()?,
                item_end: c.u32()?,
                trace: c.trace()?,
            },
            KIND_PREDICT_BATCH => Self::PredictBatch {
                pairs: c.list(MAX_BATCH_PAIRS, 8, |c| Ok((c.u32()?, c.u32()?)))?,
                trace: c.trace()?,
            },
            other => return Err(FrameError::UnknownKind(other)),
        };
        c.finish()?;
        Ok(req)
    }
}

impl Response {
    fn kind(&self) -> u16 {
        match self {
            Self::Health(_) => KIND_R_HEALTH,
            Self::Prediction(_) => KIND_R_PREDICTION,
            Self::TopN(_) => KIND_R_TOP_N,
            Self::Profile(_) => KIND_R_PROFILE,
            Self::Error { .. } => KIND_R_ERROR,
            Self::Predictions(_) => KIND_R_PREDICTIONS,
            Self::Stats(_) => KIND_R_STATS,
        }
    }

    /// The kind's fields, then at most [`REMOTE_SPANS_CAP`] of `spans`.
    fn payload(&self, spans: &[RemoteSpan]) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Self::Health(h) => {
                put_u32(&mut out, h.shard_id);
                put_u64(&mut out, h.num_users);
                put_u64(&mut out, h.num_items);
                put_u64(&mut out, h.generation);
            }
            Self::Prediction(p) => put_prediction(&mut out, p),
            Self::TopN(items) => put_list(&mut out, items, |out, &(item, score)| {
                put_u32(out, item);
                put_f64(out, score);
            }),
            Self::Profile(p) => {
                put_f64(&mut out, p.scale_min);
                put_f64(&mut out, p.scale_max);
                put_f64(&mut out, p.global_mean);
                put_u64(&mut out, p.num_items);
                put_list(&mut out, &p.user_means, |out, &m| put_f64(out, m));
                put_u64(&mut out, p.generation);
            }
            Self::Error { code, message } => {
                put_u16(&mut out, *code);
                put_bytes(&mut out, message.as_bytes());
            }
            Self::Predictions(preds) => put_list(&mut out, preds, |out, p| match p {
                Some(p) => {
                    out.push(1);
                    put_prediction(out, p);
                }
                None => out.push(0),
            }),
            Self::Stats(s) => {
                put_u32(&mut out, s.shard_id);
                put_u64(&mut out, s.generation);
                put_bytes(&mut out, &s.snapshot);
            }
        }
        put_list(
            &mut out,
            &spans[..spans.len().min(REMOTE_SPANS_CAP)],
            put_span,
        );
        out
    }

    /// Decodes a response payload into the response and the remote spans
    /// that end it.
    fn decode(kind: u16, payload: &[u8]) -> Result<(Self, Vec<RemoteSpan>), FrameError> {
        let mut c = Cursor::new(payload);
        let resp = match kind {
            KIND_R_HEALTH => Self::Health(HealthInfo {
                shard_id: c.u32()?,
                num_users: c.u64()?,
                num_items: c.u64()?,
                generation: c.u64()?,
            }),
            KIND_R_PREDICTION => Self::Prediction(c.prediction()?),
            KIND_R_TOP_N => Self::TopN(c.list(MAX_FRAME_BYTES, 12, |c| Ok((c.u32()?, c.f64()?)))?),
            KIND_R_PROFILE => Self::Profile(WireProfile {
                scale_min: c.f64()?,
                scale_max: c.f64()?,
                global_mean: c.f64()?,
                num_items: c.u64()?,
                user_means: c.list(MAX_FRAME_BYTES, 8, Cursor::f64)?,
                generation: c.u64()?,
            }),
            KIND_R_ERROR => Self::Error {
                code: c.u16()?,
                message: c.string()?,
            },
            // A `None` element is its tag byte alone.
            KIND_R_PREDICTIONS => {
                Self::Predictions(c.list(MAX_BATCH_PAIRS, 1, |c| c.option(Cursor::prediction))?)
            }
            KIND_R_STATS => Self::Stats(WireStats {
                shard_id: c.u32()?,
                generation: c.u64()?,
                snapshot: c.bytes()?,
            }),
            other => return Err(FrameError::UnknownKind(other)),
        };
        // An empty name list (4), two u64s and the depth byte.
        let spans = c.list(REMOTE_SPANS_CAP, 21, Cursor::span)?;
        c.finish()?;
        Ok((resp, spans))
    }
}

// --- wire i/o ----------------------------------------------------------

fn write_frame(stream: &mut TcpStream, kind: u16, payload: &[u8]) -> std::io::Result<()> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + 4);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&kind.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&cfsf_core::crc32(payload).to_le_bytes());
    // One write_all for the whole frame: no interleaving torn frames when
    // several router threads share a pool connection sequentially.
    stream.write_all(&out)?;
    stream.flush()
}

/// Writes `req` as one frame.
pub fn write_request(stream: &mut TcpStream, req: &Request) -> std::io::Result<()> {
    write_frame(stream, req.kind(), &req.payload())
}

/// Writes `resp` as one frame, ending with the responder's completed
/// remote spans (empty unless the request carried a trace context). At
/// most [`REMOTE_SPANS_CAP`] spans are sent.
pub fn write_response(
    stream: &mut TcpStream,
    resp: &Response,
    spans: &[RemoteSpan],
) -> std::io::Result<()> {
    write_frame(stream, resp.kind(), &resp.payload(spans))
}

/// How one `fill` call ended.
enum Fill {
    Done,
    /// Zero bytes arrived before the socket timeout (only reported when
    /// `idle_ok`).
    Idle,
    /// Clean EOF before the first byte (only when `idle_ok`).
    Eof,
}

/// Reads exactly `buf.len()` bytes. With `idle_ok`, a timeout or EOF
/// *before the first byte* is reported as `Idle`/`Eof` instead of an
/// error; once any byte has arrived the frame is in flight and must
/// complete before `deadline`.
fn fill(
    stream: &mut TcpStream,
    buf: &mut [u8],
    idle_ok: bool,
    deadline: Instant,
) -> Result<Fill, FrameError> {
    let mut got = 0usize;
    while got < buf.len() {
        match stream.read(&mut buf[got..]) {
            Ok(0) => {
                return if got == 0 && idle_ok {
                    Ok(Fill::Eof)
                } else {
                    Err(FrameError::Truncated)
                };
            }
            Ok(n) => got += n,
            Err(e) if cf_obs::net::is_timeout(&e) => {
                if got == 0 && idle_ok {
                    return Ok(Fill::Idle);
                }
                if Instant::now() >= deadline {
                    return Err(FrameError::Io(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "frame did not complete before the deadline",
                    )));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(Fill::Done)
}

/// Reads one frame from a stream whose read timeout is already armed
/// (see [`cf_obs::net::harden`]). A timeout before the first byte is
/// [`ReadOutcome::Idle`] — the caller's loop polls its stop flag and
/// calls again; a timeout mid-frame is an error once `frame_deadline`
/// (measured from the first header byte) has passed.
pub fn read_frame(
    stream: &mut TcpStream,
    frame_deadline: Duration,
) -> Result<ReadOutcome<(u16, Vec<u8>)>, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    // Arm a generous provisional deadline for the idle wait; the real
    // per-frame deadline starts once the first byte has arrived.
    match fill(stream, &mut header, true, Instant::now() + frame_deadline)? {
        Fill::Idle => return Ok(ReadOutcome::Idle),
        Fill::Eof => return Ok(ReadOutcome::Eof),
        Fill::Done => {}
    }
    let deadline = Instant::now() + frame_deadline;
    if header[..4] != MAGIC {
        return Err(FrameError::BadMagic([
            header[0], header[1], header[2], header[3],
        ]));
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != VERSION {
        return Err(FrameError::BadVersion(version));
    }
    let kind = u16::from_le_bytes([header[6], header[7]]);
    let len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
    if len as usize > MAX_FRAME_BYTES {
        return Err(FrameError::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    match fill(stream, &mut payload, false, deadline)? {
        Fill::Done => {}
        Fill::Idle | Fill::Eof => return Err(FrameError::Truncated),
    }
    let mut crc = [0u8; 4];
    match fill(stream, &mut crc, false, deadline)? {
        Fill::Done => {}
        Fill::Idle | Fill::Eof => return Err(FrameError::Truncated),
    }
    let expected = u32::from_le_bytes(crc);
    let actual = cfsf_core::crc32(&payload);
    if expected != actual {
        return Err(FrameError::BadCrc { expected, actual });
    }
    Ok(ReadOutcome::Frame((kind, payload)))
}

/// [`read_frame`] + `Request::decode`.
pub fn read_request(
    stream: &mut TcpStream,
    frame_deadline: Duration,
) -> Result<ReadOutcome<Request>, FrameError> {
    Ok(match read_frame(stream, frame_deadline)? {
        ReadOutcome::Frame((kind, payload)) => ReadOutcome::Frame(Request::decode(kind, &payload)?),
        ReadOutcome::Idle => ReadOutcome::Idle,
        ReadOutcome::Eof => ReadOutcome::Eof,
    })
}

/// [`read_frame`] + `Response::decode`: the response and the remote
/// spans the responder shipped with it. Idle ticks are retried until
/// `overall_deadline` — a client waiting for its answer treats "no bytes
/// yet" as waiting, not as an idle connection.
pub fn read_response(
    stream: &mut TcpStream,
    frame_deadline: Duration,
    overall_deadline: Instant,
) -> Result<(Response, Vec<RemoteSpan>), FrameError> {
    loop {
        match read_frame(stream, frame_deadline)? {
            ReadOutcome::Frame((kind, payload)) => return Response::decode(kind, &payload),
            ReadOutcome::Eof => return Err(FrameError::Truncated),
            ReadOutcome::Idle => {
                if Instant::now() >= overall_deadline {
                    return Err(FrameError::Io(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "no response before the deadline",
                    )));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        for s in [&client, &server] {
            cf_obs::net::harden(s, Duration::from_millis(100)).unwrap();
        }
        (client, server)
    }

    fn roundtrip_response(resp: &Response) -> Response {
        let (mut client, mut server) = pair();
        write_response(&mut client, resp, &[]).unwrap();
        let (got, spans) = read_response(
            &mut server,
            Duration::from_secs(1),
            Instant::now() + Duration::from_secs(1),
        )
        .unwrap();
        assert!(spans.is_empty());
        got
    }

    fn ctx(trace_id: u64, parent_span: u32, sampled: bool) -> WireTrace {
        WireTrace(Some(TraceContext {
            trace_id,
            parent_span,
            sampled,
        }))
    }

    #[test]
    fn requests_round_trip() {
        let cases = [
            Request::Health,
            Request::Profile,
            Request::Stats,
            Request::predict(7, 42),
            Request::Predict {
                user: 7,
                item: 42,
                trace: ctx(0xfeed_0000_0000_0042, 3, true),
            },
            Request::recommend_top_n(3, 10, 100, u32::MAX),
            Request::RecommendTopN {
                user: 3,
                n: 10,
                item_start: 100,
                item_end: u32::MAX,
                trace: ctx(0xfeed_0000_0000_0042, 3, true),
            },
            Request::predict_batch(vec![]),
            Request::PredictBatch {
                pairs: vec![(0, 0), (7, 42), (u32::MAX, u32::MAX)],
                trace: ctx(1, 0, false),
            },
        ];
        for req in cases {
            let (mut client, mut server) = pair();
            write_request(&mut client, &req).unwrap();
            match read_request(&mut server, Duration::from_secs(1)).unwrap() {
                ReadOutcome::Frame(got) => assert_eq!(got, req),
                other => panic!("expected a frame, got {other:?}"),
            }
        }
    }

    /// Version 1 let a trace context, a span block and a `generation`
    /// trail the fixed fields, and read a short or garbled tail as
    /// "absent". Version 2 fields are always present, so each of those
    /// payloads now fails the frame.
    #[test]
    fn version_one_tail_payloads_are_malformed() {
        let malformed = |kind: u16, payload: &[u8]| {
            let got = if kind < KIND_R_HEALTH {
                Request::decode(kind, payload).map(|_| ())
            } else {
                Response::decode(kind, payload).map(|_| ())
            };
            assert!(
                matches!(got, Err(FrameError::Malformed(_))),
                "kind {kind}: {got:?}"
            );
        };

        // A predict without its trace tag, then with a truncated context.
        let mut predict = Vec::new();
        put_u32(&mut predict, 7);
        put_u32(&mut predict, 42);
        malformed(KIND_PREDICT, &predict);
        predict.push(1);
        predict.extend_from_slice(&[0xaa; 3]);
        malformed(KIND_PREDICT, &predict);

        // A prediction whose span block claims 5 spans and carries half
        // of one.
        let mut prediction = Vec::new();
        put_f64(&mut prediction, 2.0);
        prediction.extend_from_slice(&[1, 0]);
        put_u32(&mut prediction, 5);
        put_u16(&mut prediction, 4);
        prediction.extend_from_slice(b"se");
        malformed(KIND_R_PREDICTION, &prediction);

        // Health and profile without the trailing generation.
        let mut health = Vec::new();
        put_u32(&mut health, 3);
        put_u64(&mut health, 80);
        put_u64(&mut health, 120);
        malformed(KIND_R_HEALTH, &health);
        let mut profile = Vec::new();
        put_f64(&mut profile, 1.0);
        put_f64(&mut profile, 5.0);
        put_f64(&mut profile, 3.0);
        put_u64(&mut profile, 10);
        put_u64(&mut profile, 2);
        put_f64(&mut profile, 2.5);
        put_f64(&mut profile, 4.5);
        malformed(KIND_R_PROFILE, &profile);
    }

    /// List counts are capped before anything is allocated: a
    /// `Predictions` frame could claim one element per payload byte, 16×
    /// its size once decoded.
    #[test]
    fn counts_above_their_caps_are_malformed() {
        let mut preds = Vec::new();
        put_u32(&mut preds, MAX_BATCH_PAIRS as u32 + 1);
        preds.resize(preds.len() + MAX_BATCH_PAIRS + 1, 0);
        put_u32(&mut preds, 0);
        let mut spans = Vec::new();
        put_f64(&mut spans, 1.0);
        spans.extend_from_slice(&[0, 0]);
        put_u32(&mut spans, REMOTE_SPANS_CAP as u32 + 1);
        spans.resize(spans.len() + 21 * (REMOTE_SPANS_CAP + 1), 0);
        for (kind, payload) in [(KIND_R_PREDICTIONS, preds), (KIND_R_PREDICTION, spans)] {
            assert!(matches!(
                Response::decode(kind, &payload),
                Err(FrameError::Malformed(_))
            ));
        }
    }

    #[test]
    fn stats_frames_round_trip() {
        let stats = WireStats {
            shard_id: 3,
            generation: 12,
            snapshot: vec![1, 0, 0, 9, 255, 42],
        };
        match roundtrip_response(&Response::Stats(stats.clone())) {
            Response::Stats(got) => assert_eq!(got, stats),
            other => panic!("{other:?}"),
        }

        // A stats length word lying about the payload is malformed.
        let mut payload = Vec::new();
        put_u32(&mut payload, 3);
        put_u64(&mut payload, 12);
        put_u32(&mut payload, 1_000_000);
        put_u32(&mut payload, 0);
        assert!(matches!(
            Response::decode(KIND_R_STATS, &payload),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn responses_round_trip_bit_for_bit() {
        let fused = std::f64::consts::PI;
        match roundtrip_response(&Response::Prediction(WirePrediction {
            fused,
            level: 2,
            fallback: false,
        })) {
            Response::Prediction(p) => {
                assert_eq!(p.fused.to_bits(), fused.to_bits());
                assert_eq!(p.level, 2);
                assert!(!p.fallback);
            }
            other => panic!("{other:?}"),
        }

        let items = vec![(5u32, 4.75_f64), (2, 4.75), (9, 1.0 / 3.0)];
        match roundtrip_response(&Response::TopN(items.clone())) {
            Response::TopN(got) => {
                assert_eq!(got.len(), items.len());
                for (a, b) in got.iter().zip(&items) {
                    assert_eq!(a.0, b.0);
                    assert_eq!(a.1.to_bits(), b.1.to_bits());
                }
            }
            other => panic!("{other:?}"),
        }

        let profile = WireProfile {
            scale_min: 1.0,
            scale_max: 5.0,
            global_mean: 3.6007,
            num_items: 100,
            user_means: vec![1.5, f64::NAN, 4.25],
            generation: 9,
        };
        match roundtrip_response(&Response::Profile(profile.clone())) {
            Response::Profile(got) => {
                assert_eq!(got.num_items, 100);
                assert_eq!(got.user_means.len(), 3);
                assert_eq!(got.generation, 9);
                // NaN user means (users with no ratings) must survive the
                // wire — compare bits, not values.
                for (a, b) in got.user_means.iter().zip(&profile.user_means) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            other => panic!("{other:?}"),
        }

        let preds = vec![
            Some(WirePrediction {
                fused,
                level: 0,
                fallback: false,
            }),
            None,
            Some(WirePrediction {
                fused: f64::NAN,
                level: 5,
                fallback: true,
            }),
        ];
        match roundtrip_response(&Response::Predictions(preds.clone())) {
            Response::Predictions(got) => {
                assert_eq!(got.len(), preds.len());
                for (a, b) in got.iter().zip(&preds) {
                    match (a, b) {
                        (Some(x), Some(y)) => {
                            assert_eq!(x.fused.to_bits(), y.fused.to_bits());
                            assert_eq!(x.level, y.level);
                            assert_eq!(x.fallback, y.fallback);
                        }
                        (None, None) => {}
                        other => panic!("{other:?}"),
                    }
                }
            }
            other => panic!("{other:?}"),
        }

        match roundtrip_response(&Response::Error {
            code: ERR_OUT_OF_RANGE,
            message: "user 900 not in model".into(),
        }) {
            Response::Error { code, message } => {
                assert_eq!(code, ERR_OUT_OF_RANGE);
                assert!(message.contains("900"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn corrupt_payload_fails_crc() {
        let (mut client, mut server) = pair();
        let req = Request::predict(1, 2);
        let mut raw = Vec::new();
        raw.extend_from_slice(&MAGIC);
        raw.extend_from_slice(&VERSION.to_le_bytes());
        raw.extend_from_slice(&req.kind().to_le_bytes());
        let payload = req.payload();
        raw.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        raw.extend_from_slice(&payload);
        raw.extend_from_slice(&cfsf_core::crc32(&payload).to_le_bytes());
        // Flip one payload bit.
        let flip = HEADER_LEN + 2;
        raw[flip] ^= 0x01;
        client.write_all(&raw).unwrap();
        match read_request(&mut server, Duration::from_secs(1)) {
            Err(FrameError::BadCrc { .. }) => {}
            other => panic!("expected BadCrc, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_version_kind_and_oversize_are_rejected() {
        // Bad magic.
        let (mut client, mut server) = pair();
        client.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        assert!(matches!(
            read_request(&mut server, Duration::from_secs(1)),
            Err(FrameError::BadMagic(_))
        ));

        // Past and future versions.
        for version in [1u16, 99] {
            let (mut client, mut server) = pair();
            let mut raw = Vec::new();
            raw.extend_from_slice(&MAGIC);
            raw.extend_from_slice(&version.to_le_bytes());
            raw.extend_from_slice(&KIND_HEALTH.to_le_bytes());
            raw.extend_from_slice(&0u32.to_le_bytes());
            raw.extend_from_slice(&cfsf_core::crc32(&[]).to_le_bytes());
            client.write_all(&raw).unwrap();
            assert!(matches!(
                read_request(&mut server, Duration::from_secs(1)),
                Err(FrameError::BadVersion(v)) if v == version
            ));
        }

        // Unknown kind.
        let (mut client, mut server) = pair();
        let mut raw = Vec::new();
        raw.extend_from_slice(&MAGIC);
        raw.extend_from_slice(&VERSION.to_le_bytes());
        raw.extend_from_slice(&1234u16.to_le_bytes());
        raw.extend_from_slice(&0u32.to_le_bytes());
        raw.extend_from_slice(&cfsf_core::crc32(&[]).to_le_bytes());
        client.write_all(&raw).unwrap();
        assert!(matches!(
            read_request(&mut server, Duration::from_secs(1)),
            Err(FrameError::UnknownKind(1234))
        ));

        // Oversized declared length: rejected before allocation.
        let (mut client, mut server) = pair();
        let mut raw = Vec::new();
        raw.extend_from_slice(&MAGIC);
        raw.extend_from_slice(&VERSION.to_le_bytes());
        raw.extend_from_slice(&KIND_HEALTH.to_le_bytes());
        raw.extend_from_slice(&u32::MAX.to_le_bytes());
        client.write_all(&raw).unwrap();
        assert!(matches!(
            read_request(&mut server, Duration::from_secs(1)),
            Err(FrameError::TooLarge(_))
        ));
    }

    #[test]
    fn batch_count_lying_about_payload_is_malformed() {
        // A batch frame claiming 1M pairs but carrying only the count
        // word must be rejected before the decoder allocates for it.
        let (mut client, mut server) = pair();
        let mut payload = Vec::new();
        put_u32(&mut payload, 1_000_000);
        let mut raw = Vec::new();
        raw.extend_from_slice(&MAGIC);
        raw.extend_from_slice(&VERSION.to_le_bytes());
        raw.extend_from_slice(&KIND_PREDICT_BATCH.to_le_bytes());
        raw.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        raw.extend_from_slice(&payload);
        raw.extend_from_slice(&cfsf_core::crc32(&payload).to_le_bytes());
        client.write_all(&raw).unwrap();
        assert!(matches!(
            read_request(&mut server, Duration::from_secs(1)),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn batches_above_the_pair_cap_are_malformed() {
        let payload = |pairs: usize| Request::predict_batch(vec![(1, 2); pairs]).payload();
        match Request::decode(KIND_PREDICT_BATCH, &payload(MAX_BATCH_PAIRS)).unwrap() {
            Request::PredictBatch { pairs, .. } => assert_eq!(pairs.len(), MAX_BATCH_PAIRS),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            Request::decode(KIND_PREDICT_BATCH, &payload(MAX_BATCH_PAIRS + 1)),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn idle_then_eof_are_distinguished() {
        let (client, mut server) = pair();
        // No bytes yet: idle tick.
        assert!(matches!(
            read_request(&mut server, Duration::from_secs(1)),
            Ok(ReadOutcome::Idle)
        ));
        drop(client);
        // Peer gone on a frame boundary: clean EOF.
        assert!(matches!(
            read_request(&mut server, Duration::from_secs(1)),
            Ok(ReadOutcome::Eof)
        ));
    }

    #[test]
    fn truncated_mid_frame_is_an_error() {
        let (mut client, mut server) = pair();
        let mut raw = Vec::new();
        raw.extend_from_slice(&MAGIC);
        raw.extend_from_slice(&VERSION.to_le_bytes());
        client.write_all(&raw).unwrap();
        drop(client);
        assert!(matches!(
            read_request(&mut server, Duration::from_secs(1)),
            Err(FrameError::Truncated)
        ));
    }
}
