//! The router front tier: hashes users across N shard processes,
//! bounds the work in flight per shard, retries transient failures with
//! backoff, and — when a shard is down or saturated — **load-sheds onto
//! the degradation ladder** instead of queueing to death: the affected
//! user gets a user-mean/global-mean answer from the router's local
//! fallback table, served from the same `online.degrade.*` counters the
//! in-process ladder uses, and the request never errors.
//!
//! Routing:
//!
//! - `predict(user, item)` goes to the user's **owning shard**
//!   (`shard_for_user`). Deliberately no cross-shard failover: in a
//!   capacity-planned fleet the other shards have their own users' load,
//!   and redirecting a dead shard's traffic at them turns one failure
//!   into a cascade. A dead shard's users degrade — bounded blast
//!   radius — until it returns.
//! - `predict_batch(pairs)` groups the pairs by owning shard and sends
//!   each group as one `PredictBatch` frame, so a batch costs one
//!   exchange per shard it touches, not one per pair; groups on
//!   different shards go out in parallel, and the answers come back in
//!   request order. Each shard answers its group through its
//!   strip-sorted batch engine. Degradation stays per pair: a group
//!   whose shard is down, saturated or failing is answered pair by pair
//!   from the fallback table.
//! - `recommend_top_n(user, n)` scatter-gathers: the item space is cut
//!   into one fixed stripe per configured shard, each live shard scores
//!   its stripe ([`cfsf_core::Cfsf::recommend_top_n_in_range`]), and the
//!   router merges with [`cfsf_core::topk::top_k_by_score`] — the same
//!   comparator the model uses, so with all shards up the merged answer
//!   is bit-for-bit the single-process answer. A dead shard's stripe is
//!   dropped and the (still valid, still ordered) partial result is
//!   returned, counted in `router.recommend.partial`.
//!
//! A shard that exhausts its retries is marked **down** for a cooldown;
//! during it the router sheds straight to the fallback table without
//! touching the socket, so a dead shard costs one failed exchange per
//! cooldown, not one per request.

use std::net::ToSocketAddrs;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::RwLock;
use std::time::{Duration, Instant};

use cf_matrix::RatingScale;
use cf_obs::sync::RecoverMutex;
use cfsf_core::DegradeLevel;

use crate::client::{ClientOptions, ShardClient};
use crate::frame::{
    FrameError, HealthInfo, Request, Response, WirePrediction, WireProfile, WireStats,
};

/// Tuning for the router tier.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Shard addresses; index order defines stripe ownership, so every
    /// router in a fleet must list shards in the same order.
    pub shards: Vec<String>,
    /// Per-connection timeouts for shard traffic.
    pub client: ClientOptions,
    /// Bounded queue per shard: requests beyond this many in flight are
    /// shed onto the fallback ladder instead of piling onto a struggling
    /// shard.
    pub max_in_flight_per_shard: usize,
    /// Reconnect-and-resend attempts after the first failure.
    pub retries: u32,
    /// Sleep between attempts (grows linearly per attempt).
    pub backoff: Duration,
    /// How long a shard that exhausted its retries stays marked down
    /// before the router probes it again.
    pub down_cooldown: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            shards: Vec::new(),
            client: ClientOptions::default(),
            max_in_flight_per_shard: 64,
            retries: 1,
            backoff: Duration::from_millis(50),
            down_cooldown: Duration::from_secs(1),
        }
    }
}

/// Why the router could not use a shard for one request.
enum ShardUnavailable {
    /// Marked down and inside its cooldown.
    Down,
    /// At its in-flight bound (admission control shed).
    Busy,
    /// All attempts failed and the shard has just been marked down, or
    /// the scatter thread running the exchange panicked.
    Failed,
}

/// The outcome of one shard exchange: the answer plus the remote spans
/// the shard shipped back on it.
type Exchange = Result<(Response, Vec<cf_obs::trace::RemoteSpan>), ShardUnavailable>;

/// The compact model summary the router serves fallback answers from:
/// the bottom rungs of the degradation ladder need only means and the
/// scale, not the weight planes. Carries the model generation it was
/// built from so a self-healing shard fleet can tell the router its
/// table went stale (see [`Router::refresh_profile_if_stale`]).
struct FallbackTable {
    scale: RatingScale,
    global_mean: f64,
    user_means: Vec<f64>,
    num_items: u64,
    generation: u64,
}

impl FallbackTable {
    fn from_profile(p: WireProfile) -> Self {
        Self {
            scale: RatingScale {
                min: p.scale_min,
                max: p.scale_max,
            },
            global_mean: p.global_mean,
            user_means: p.user_means,
            num_items: p.num_items,
            generation: p.generation,
        }
    }
}

/// Checks that a fallback profile fits shards serving `num_users` ×
/// `num_items` and carries a usable rating scale; the reason when not.
/// [`Router::connect`] and [`Router::refresh_profile_if_stale`] both
/// accept a profile only through here.
fn check_profile(p: &WireProfile, num_users: u64, num_items: u64) -> Result<(), String> {
    if p.user_means.len() as u64 != num_users || p.num_items != num_items {
        return Err(format!(
            "profile covers {} users / {} items, shards serve {num_users} / {num_items}",
            p.user_means.len(),
            p.num_items,
        ));
    }
    if !(p.scale_min.is_finite() && p.scale_max.is_finite() && p.scale_min < p.scale_max) {
        return Err(format!("scale [{}, {}]", p.scale_min, p.scale_max));
    }
    Ok(())
}

/// A tiny xoshiro256**-style generator seeded through splitmix64 — the
/// same mixer [`shard_for_user`] uses — so retry backoff can be
/// jittered without pulling in a randomness dependency. One instance
/// per shard slot, seeded from the slot's address and index, so two
/// routers (or two slots) that fail at the same instant do not sleep
/// in lockstep and re-stampede the shard together.
struct JitterRng {
    state: RecoverMutex<[u64; 4]>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl JitterRng {
    fn seeded(seed: u64) -> Self {
        let mut s = seed;
        Self {
            state: RecoverMutex::new([
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
            ]),
        }
    }

    /// Seed from a shard slot's identity: the address bytes folded with
    /// the slot index, then expanded through splitmix64.
    fn for_slot(addr: &str, index: usize) -> Self {
        let folded = addr.bytes().fold(index as u64 + 1, |h, b| {
            h.wrapping_mul(131).wrapping_add(u64::from(b))
        });
        Self::seeded(folded)
    }

    fn next_u64(&self) -> u64 {
        let mut s = self.state.lock();
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// Linear backoff plus bounded jitter: `base * attempt` stretched by a
/// uniform draw in `[0, base * attempt / 2]`. Pure in the draw so tests
/// can pin the bounds and the de-correlation without sleeping.
fn jittered_backoff(base: Duration, attempt: u32, draw: u64) -> Duration {
    let linear = base.saturating_mul(attempt);
    let cap = (linear.as_nanos() / 2).min(u128::from(u64::MAX)) as u64;
    let jitter = if cap == 0 { 0 } else { draw % (cap + 1) };
    linear.saturating_add(Duration::from_nanos(jitter))
}

/// One prediction answered by the router.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouterPrediction {
    /// The prediction (clamped to the model's scale).
    pub fused: f64,
    /// The degradation rung it was served from.
    pub level: DegradeLevel,
    /// Whether the rung is in the ladder's fallback region.
    pub fallback: bool,
    /// Index of the shard that answered; `None` means the router's own
    /// fallback table did (shard down or shed).
    pub shard: Option<usize>,
}

impl RouterPrediction {
    /// A shard's wire answer, attributed to the shard that gave it.
    fn from_shard(p: WirePrediction, shard: usize) -> Self {
        Self {
            fused: p.fused,
            level: DegradeLevel::from_code(p.level).unwrap_or(DegradeLevel::GlobalMean),
            fallback: p.fallback,
            shard: Some(shard),
        }
    }

    /// The wire form the router front answers with.
    fn to_wire(self) -> WirePrediction {
        WirePrediction {
            fused: self.fused,
            level: self.level.code(),
            fallback: self.fallback,
        }
    }
}

/// One top-N answer from the router.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterTopN {
    /// `(item, score)`, best first — the usual recommend shape.
    pub items: Vec<(u32, f64)>,
    /// `false` when at least one stripe was dropped because its shard
    /// was unavailable: the list is valid and ordered but may miss items
    /// a dead shard would have scored.
    pub complete: bool,
}

struct ShardSlot {
    addr: String,
    /// Idle pooled connections, reused across requests.
    pool: RecoverMutex<Vec<ShardClient>>,
    in_flight: AtomicUsize,
    down_until: RecoverMutex<Option<Instant>>,
    /// Per-slot backoff jitter source (see [`JitterRng`]).
    jitter: JitterRng,
}

/// Decrements the in-flight count even if the request path panics.
struct InFlightGuard<'a>(&'a AtomicUsize);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The router: see the module docs for the routing and shedding model.
pub struct Router {
    cfg: RouterConfig,
    slots: Vec<ShardSlot>,
    /// Behind a `RwLock` so [`Router::refresh_profile_if_stale`] can
    /// swap in a newer generation's table while requests keep shedding
    /// onto the old one — the router-side mirror of the shards' RCU
    /// generation cell.
    fallback: RwLock<FallbackTable>,
    /// Mirror of `fallback.generation`, readable without the lock so
    /// the staleness probe and the health frame stay off the read path.
    profile_generation: AtomicU64,
    num_users: u64,
    num_items: u64,
}

/// Which shard owns `user` out of `shards` (splitmix64 of the id — the
/// id space is dense, so modulo alone would stripe users pathologically
/// across capacity changes). Exposed so tests and operators can tell
/// which users a given shard owns.
pub fn shard_for_user(user: u32, shards: usize) -> usize {
    debug_assert!(shards > 0);
    let mut z = u64::from(user).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % shards.max(1) as u64) as usize
}

/// Errors establishing the router (runtime requests never error — they
/// degrade).
#[derive(Debug)]
pub enum RouterError {
    /// No shard addresses configured.
    NoShards,
    /// A shard could not be reached or answered the wrong frame.
    Unreachable(String, String),
    /// Shards disagree on the model shape — a fleet serving different
    /// models would silently mix predictions.
    ModelMismatch(String),
    /// The fallback profile failed validation.
    BadProfile(String),
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoShards => write!(f, "router needs at least one shard address"),
            Self::Unreachable(addr, why) => write!(f, "shard {addr} unreachable: {why}"),
            Self::ModelMismatch(why) => write!(f, "shard model mismatch: {why}"),
            Self::BadProfile(why) => write!(f, "invalid fallback profile: {why}"),
        }
    }
}

impl std::error::Error for RouterError {}

impl Router {
    /// Connects to every configured shard, verifies they serve the same
    /// model shape, and fetches the fallback profile. Startup is strict
    /// (every shard must answer — a fleet booted half-broken should say
    /// so); runtime is lenient (shards may die and return freely).
    pub fn connect(cfg: RouterConfig) -> Result<Self, RouterError> {
        if cfg.shards.is_empty() {
            return Err(RouterError::NoShards);
        }
        let mut shape: Option<HealthInfo> = None;
        let mut profile: Option<WireProfile> = None;
        let mut slots = Vec::with_capacity(cfg.shards.len());
        for (i, addr) in cfg.shards.iter().enumerate() {
            let mut client = ShardClient::connect(addr.as_str(), cfg.client)
                .map_err(|e| RouterError::Unreachable(addr.clone(), e.to_string()))?;
            let health = match client.request(&Request::Health) {
                Ok(Response::Health(h)) => h,
                Ok(other) => {
                    return Err(RouterError::Unreachable(
                        addr.clone(),
                        format!("health probe answered {other:?}"),
                    ))
                }
                Err(e) => return Err(RouterError::Unreachable(addr.clone(), e.to_string())),
            };
            if let Some(first) = shape {
                if (first.num_users, first.num_items) != (health.num_users, health.num_items) {
                    return Err(RouterError::ModelMismatch(format!(
                        "shard {i} ({addr}) serves {}x{}, shard 0 serves {}x{}",
                        health.num_users, health.num_items, first.num_users, first.num_items
                    )));
                }
            } else {
                shape = Some(health);
            }
            if profile.is_none() {
                match client.request(&Request::Profile) {
                    Ok(Response::Profile(p)) => profile = Some(p),
                    Ok(other) => {
                        return Err(RouterError::Unreachable(
                            addr.clone(),
                            format!("profile probe answered {other:?}"),
                        ))
                    }
                    Err(e) => return Err(RouterError::Unreachable(addr.clone(), e.to_string())),
                }
            }
            slots.push(ShardSlot {
                addr: addr.clone(),
                pool: RecoverMutex::new(vec![client]),
                in_flight: AtomicUsize::new(0),
                down_until: RecoverMutex::new(None),
                jitter: JitterRng::for_slot(addr, i),
            });
        }
        let (shape, profile) = match (shape, profile) {
            (Some(s), Some(p)) => (s, p),
            _ => return Err(RouterError::NoShards),
        };
        check_profile(&profile, shape.num_users, shape.num_items)
            .map_err(RouterError::BadProfile)?;
        let profile_generation = profile.generation;
        // Register the router's health counters up front: a snapshot must
        // carry `router.request_errors: 0` explicitly — absent vs zero is
        // exactly the ambiguity the chaos gate cannot afford.
        cf_obs::counter!("router.requests").add(0);
        cf_obs::counter!("router.ok").add(0);
        cf_obs::counter!("router.request_errors").add(0);
        cf_obs::counter!("router.fallback_served").add(0);
        cf_obs::counter!("router.shed_busy").add(0);
        cf_obs::counter!("router.shed_down").add(0);
        cf_obs::counter!("router.shard_io_errors").add(0);
        cf_obs::counter!("router.retries").add(0);
        cf_obs::counter!("router.recommend.partial").add(0);
        cf_obs::counter!("router.profile.refreshed").add(0);
        cf_obs::counter!("router.profile.refresh_errors").add(0);
        cf_obs::gauge!("router.shards").set(cfg.shards.len() as i64);
        cf_obs::gauge!("router.shards_up").set(cfg.shards.len() as i64);
        cf_obs::gauge!("router.profile.generation")
            .set(profile_generation.min(i64::MAX as u64) as i64);

        Ok(Self {
            num_users: shape.num_users,
            num_items: shape.num_items,
            fallback: RwLock::new(FallbackTable::from_profile(profile)),
            profile_generation: AtomicU64::new(profile_generation),
            slots,
            cfg,
        })
    }

    /// Users served by this router's shards.
    pub fn num_users(&self) -> u64 {
        self.num_users
    }

    /// Items in the served model.
    pub fn num_items(&self) -> u64 {
        self.num_items
    }

    /// The fallback profile, re-servable to downstream routers.
    pub fn profile(&self) -> WireProfile {
        let fallback = self
            .fallback
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        WireProfile {
            scale_min: fallback.scale.min,
            scale_max: fallback.scale.max,
            global_mean: fallback.global_mean,
            num_items: fallback.num_items,
            user_means: fallback.user_means.clone(),
            generation: fallback.generation,
        }
    }

    /// The model generation the fallback table was built from.
    pub fn profile_generation(&self) -> u64 {
        self.profile_generation.load(Ordering::Relaxed)
    }

    /// Probes a live shard's health frame and, when the shard reports a
    /// newer model generation than the fallback table was built from,
    /// re-fetches the profile and swaps the table — so a self-healing
    /// fleet's background rebuilds propagate to router fallbacks without
    /// a restart. Returns `true` when the table was refreshed. Cheap
    /// when nothing changed: one pooled health exchange, no profile
    /// transfer.
    pub fn refresh_profile_if_stale(&self) -> bool {
        let cached = self.profile_generation.load(Ordering::Relaxed);
        // Find the first live shard that answers health; skip down ones
        // for free via request_on_shard's cooldown check.
        for (i, _slot) in self.slots.iter().enumerate() {
            let health = match self.request_on_shard(i, &Request::Health) {
                Ok((Response::Health(h), _)) => h,
                _ => continue,
            };
            if health.generation <= cached {
                return false;
            }
            match self.request_on_shard(i, &Request::Profile) {
                Ok((Response::Profile(p), _)) => {
                    if check_profile(&p, self.num_users, self.num_items).is_err() {
                        // A malformed refresh never replaces a working
                        // table: keep serving the old generation.
                        cf_obs::counter!("router.profile.refresh_errors").inc();
                        return false;
                    }
                    let generation = p.generation;
                    {
                        let mut fallback = self
                            .fallback
                            .write()
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                        *fallback = FallbackTable::from_profile(p);
                    }
                    self.profile_generation.store(generation, Ordering::Relaxed);
                    cf_obs::counter!("router.profile.refreshed").inc();
                    cf_obs::gauge!("router.profile.generation")
                        .set(generation.min(i64::MAX as u64) as i64);
                    cf_obs::trace::note("router.profile_refreshed");
                    return true;
                }
                _ => {
                    cf_obs::counter!("router.profile.refresh_errors").inc();
                    return false;
                }
            }
        }
        false
    }

    /// Predicts `(user, item)` through the owning shard, degrading to
    /// the fallback table when it is down, saturated, or failing.
    /// `None` only for out-of-range ids — mirroring the in-process API.
    ///
    /// Opens a router-side request trace: the owning-shard exchange is a
    /// span, the propagated context rides the predict frame, and the
    /// shard's completed spans come back stitched under the same trace
    /// id — so `/traces` on the router shows the cross-process tree.
    pub fn predict(&self, user: u32, item: u32) -> Option<RouterPrediction> {
        if !self.in_range(user, item) {
            return None;
        }
        cf_obs::counter!("router.requests").inc();
        cf_obs::time_scope!("router.request_ns");
        let trace_req = cf_obs::trace::begin_request(user, item);
        let shard = shard_for_user(user, self.slots.len());
        // Built after begin_request so the frame captures this trace's
        // context (id allocated eagerly, sampling decision included).
        let req = Request::predict(user, item);
        let result = {
            let _s = cf_obs::trace::span("router.shard_call");
            self.request_on_shard(shard, &req)
        };
        let pred = match result {
            Ok((Response::Prediction(p), spans)) => {
                cf_obs::trace::attach_remote_spans(&format!("shard{shard}"), spans);
                cf_obs::counter!("router.ok").inc();
                RouterPrediction::from_shard(p, shard)
            }
            Ok(_) => {
                // Decodable but wrong frame: a confused shard. Absorb it
                // the same way as an I/O failure.
                cf_obs::counter!("router.shard_io_errors").inc();
                self.fallback_predict(user)
            }
            Err(_) => self.fallback_predict(user),
        };
        trace_req.finish(cf_obs::trace::Outcome {
            level: pred.level.as_str(),
            fallback: pred.fallback,
            k_used: 0,
            m_used: 0,
            fused: pred.fused,
        });
        Some(pred)
    }

    /// Predicts a batch of `(user, item)` pairs, element `k` answering
    /// pair `k`. The pairs are grouped by owning shard and each group
    /// travels as one [`Request::PredictBatch`] frame, answered by the
    /// shard's strip-sorted batch engine; groups on different shards are
    /// scattered in parallel. Out-of-range pairs answer `None` without
    /// touching a shard, as in [`Router::predict`].
    ///
    /// Degradation stays per pair. When a group's exchange is shed,
    /// fails, or answers anything but one prediction per pair, every
    /// pair of that group is served from the fallback table; a `None`
    /// element for an in-range pair (a panicked batch worker on the
    /// shard) falls back for that pair alone. A group of more than
    /// [`crate::frame::MAX_BATCH_PAIRS`] pairs is refused by its shard
    /// and so falls back whole; the router front never forms one, since
    /// it decodes no larger batch.
    ///
    /// The whole batch is one request to the router's accounting: one
    /// `router.requests`, one `router.request_ns` sample and one request
    /// trace, with each group's shard spans stitched under it.
    pub fn predict_batch(&self, pairs: &[(u32, u32)]) -> Vec<Option<RouterPrediction>> {
        cf_obs::counter!("router.requests").inc();
        cf_obs::time_scope!("router.request_ns");
        // A batch has no single user or item to label its trace with.
        let trace_req = cf_obs::trace::begin_request(u32::MAX, u32::MAX);
        // Request positions of each shard's pairs.
        let mut owned: Vec<Vec<usize>> = vec![Vec::new(); self.slots.len()];
        for (k, &(user, item)) in pairs.iter().enumerate() {
            if self.in_range(user, item) {
                owned[shard_for_user(user, self.slots.len())].push(k);
            }
        }
        let groups: Vec<(usize, Vec<usize>)> = owned
            .into_iter()
            .enumerate()
            .filter(|(_, ks)| !ks.is_empty())
            .collect();
        // Built on this thread so every frame carries this trace's
        // context (see `scatter`).
        let calls: Vec<(usize, Request)> = groups
            .iter()
            .map(|(s, ks)| {
                let group = ks.iter().map(|&k| pairs[k]).collect();
                (*s, Request::predict_batch(group))
            })
            .collect();

        let mut out = vec![None; pairs.len()];
        let mut worst = DegradeLevel::Full;
        let mut fell_back = false;
        for ((s, ks), outcome) in groups.iter().zip(self.scatter(&calls)) {
            let answers = match outcome {
                Ok((Response::Predictions(answers), spans)) if answers.len() == ks.len() => {
                    cf_obs::trace::attach_remote_spans(&format!("shard{s}"), spans);
                    answers
                }
                Ok(_) => {
                    // A wrong frame kind or length: a confused shard,
                    // absorbed the same way as an I/O failure.
                    cf_obs::counter!("router.shard_io_errors").inc();
                    vec![None; ks.len()]
                }
                Err(_) => vec![None; ks.len()],
            };
            for (&k, answer) in ks.iter().zip(answers) {
                let p = match answer {
                    Some(p) => RouterPrediction::from_shard(p, *s),
                    None => {
                        fell_back = true;
                        self.fallback_predict(pairs[k].0)
                    }
                };
                worst = worst.max(p.level);
                out[k] = Some(p);
            }
        }
        if !fell_back {
            cf_obs::counter!("router.ok").inc();
        }
        // The trace carries the batch's worst rung.
        trace_req.finish(cf_obs::trace::Outcome {
            level: worst.as_str(),
            fallback: worst.is_fallback(),
            k_used: 0,
            m_used: 0,
            fused: f64::NAN,
        });
        out
    }

    /// Top-`n` via scatter-gather over all shard stripes (see module
    /// docs). `None` only for an out-of-range user.
    pub fn recommend_top_n(&self, user: u32, n: u32) -> Option<RouterTopN> {
        self.recommend_top_n_in_range(user, n, 0, u32::MAX)
    }

    /// Stripe-restricted scatter-gather, protocol-complete so a router
    /// can front other routers. `item_end == u32::MAX` means the whole
    /// item space.
    pub fn recommend_top_n_in_range(
        &self,
        user: u32,
        n: u32,
        item_start: u32,
        item_end: u32,
    ) -> Option<RouterTopN> {
        if u64::from(user) >= self.num_users {
            return None;
        }
        cf_obs::counter!("router.requests").inc();
        cf_obs::time_scope!("router.request_ns");
        let trace_req = cf_obs::trace::begin_request(user, u32::MAX);
        let total = self.num_items.min(u64::from(u32::MAX)) as u32;
        let end = item_end.min(total);
        let start = item_start.min(end);
        let shards = self.slots.len() as u32;
        // Fixed stripes over the requested range, one per configured
        // shard — liveness-independent, so results are deterministic.
        // Stripe requests are built here, on the tracing thread, so every
        // frame carries this trace's context (see `scatter`).
        let span = end - start;
        let stripes: Vec<(usize, Request)> = (0..shards)
            .map(|s| {
                let lo = start + (u64::from(s) * u64::from(span) / u64::from(shards)) as u32;
                let hi = start + (u64::from(s + 1) * u64::from(span) / u64::from(shards)) as u32;
                (s as usize, lo, hi)
            })
            .filter(|&(_, lo, hi)| lo < hi)
            .map(|(s, lo, hi)| (s, Request::recommend_top_n(user, n, lo, hi)))
            .collect();

        let mut complete = true;
        let mut candidates: Vec<(u32, f64)> = Vec::new();
        for ((s, _), outcome) in stripes.iter().zip(self.scatter(&stripes)) {
            match outcome {
                Ok((Response::TopN(items), spans)) => {
                    cf_obs::trace::attach_remote_spans(&format!("shard{s}"), spans);
                    candidates.extend(items);
                }
                Ok(_) => {
                    cf_obs::counter!("router.shard_io_errors").inc();
                    complete = false;
                }
                Err(_) => complete = false,
            }
        }
        if complete {
            cf_obs::counter!("router.ok").inc();
        } else {
            cf_obs::counter!("router.recommend.partial").inc();
            cf_obs::counter!("router.fallback_served").inc();
            // A partial recommend is a degraded answer: account for it on
            // the ladder operators already watch. The missing stripe's
            // items were effectively served from "nothing", the rung
            // below single-estimator territory.
            DegradeLevel::ClusterSmoothed.record();
        }
        let level = if complete {
            DegradeLevel::Full
        } else {
            DegradeLevel::ClusterSmoothed
        };
        trace_req.finish(cf_obs::trace::Outcome {
            level: level.as_str(),
            fallback: !complete,
            k_used: 0,
            m_used: 0,
            fused: f64::NAN,
        });
        Some(RouterTopN {
            items: cfsf_core::topk::top_k_by_score(n as usize, candidates),
            complete,
        })
    }

    /// Polls every shard's mergeable metrics snapshot (a `Stats` frame
    /// per shard, through the same admission/retry/down-marking path as
    /// serving traffic). Element `i` is `None` when shard `i` is down or
    /// failed the exchange — the fleet aggregator keeps its last good
    /// snapshot in that case.
    pub fn poll_shard_stats(&self) -> Vec<Option<WireStats>> {
        (0..self.slots.len())
            .map(|i| match self.request_on_shard(i, &Request::Stats) {
                Ok((Response::Stats(s), _)) => Some(s),
                _ => None,
            })
            .collect()
    }

    /// Number of shard slots this router fronts.
    pub fn num_shards(&self) -> usize {
        self.slots.len()
    }

    /// Health of the fleet as this router sees it: `(configured, up)`.
    pub fn shards_up(&self) -> (usize, usize) {
        let up = self.slots.iter().filter(|s| !Self::is_down_now(s)).count();
        (self.slots.len(), up)
    }

    fn is_down_now(slot: &ShardSlot) -> bool {
        let guard = slot.down_until.lock();
        guard.is_some_and(|t| Instant::now() < t)
    }

    /// Whether `(user, item)` lies inside the served model.
    fn in_range(&self, user: u32, item: u32) -> bool {
        u64::from(user) < self.num_users && u64::from(item) < self.num_items
    }

    /// Runs each `(shard, frame)` exchange through
    /// [`Router::request_on_shard`] under one `router.scatter` span and
    /// returns the outcomes in call order. Two or more exchanges run in
    /// parallel, one scoped thread each; a single exchange runs inline.
    /// Scatter threads have no trace TLS, so callers build the frames
    /// (which capture the trace context) and stitch the returned spans
    /// on their own thread. A panicking scatter thread is absorbed as
    /// [`ShardUnavailable::Failed`], never propagated to the caller.
    fn scatter(&self, calls: &[(usize, Request)]) -> Vec<Exchange> {
        let _span = cf_obs::trace::span("router.scatter");
        if let [(shard, req)] = calls {
            return vec![self.request_on_shard(*shard, req)];
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = calls
                .iter()
                .map(|(shard, req)| scope.spawn(move || self.request_on_shard(*shard, req)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or(Err(ShardUnavailable::Failed)))
                .collect()
        })
    }

    /// One request against one shard with admission control, pooled
    /// connections, retry + backoff, and down-marking. Also returns any
    /// remote spans the shard shipped back on the response frame.
    fn request_on_shard(&self, shard: usize, req: &Request) -> Exchange {
        let slot = &self.slots[shard];
        // Down and inside cooldown: shed immediately, zero socket cost.
        {
            let mut guard = slot.down_until.lock();
            match *guard {
                Some(t) if Instant::now() < t => {
                    drop(guard);
                    cf_obs::counter!("router.shed_down").inc();
                    return Err(ShardUnavailable::Down);
                }
                Some(_) => {
                    // Cooldown over: half-open. Clear the mark and let
                    // this request be the probe.
                    *guard = None;
                }
                None => {}
            }
        }
        // Bounded queue: admission control, not an actual queue — beyond
        // the bound we shed to the ladder rather than add latency to a
        // shard that is already behind.
        if slot.in_flight.fetch_add(1, Ordering::Relaxed) >= self.cfg.max_in_flight_per_shard {
            slot.in_flight.fetch_sub(1, Ordering::Relaxed);
            cf_obs::counter!("router.shed_busy").inc();
            return Err(ShardUnavailable::Busy);
        }
        let _guard = InFlightGuard(&slot.in_flight);

        let mut attempt = 0u32;
        loop {
            let client = {
                let mut pool = slot.pool.lock();
                pool.pop()
            };
            let mut client = match client {
                Some(c) => c,
                None => match ShardClient::connect(slot.addr.as_str(), self.cfg.client) {
                    Ok(c) => c,
                    Err(e) => {
                        if self.note_attempt_failed(&mut attempt, slot, &e.to_string()) {
                            continue;
                        }
                        return Err(ShardUnavailable::Failed);
                    }
                },
            };
            match client.request_traced(req) {
                Ok(resp) => {
                    let mut pool = slot.pool.lock();
                    pool.push(client);
                    return Ok(resp);
                }
                Err(e) => {
                    // The connection's framing state is unknown: drop it,
                    // never pool it.
                    drop(client);
                    let why = match &e {
                        FrameError::Io(io) => io.to_string(),
                        other => other.to_string(),
                    };
                    if self.note_attempt_failed(&mut attempt, slot, &why) {
                        continue;
                    }
                    return Err(ShardUnavailable::Failed);
                }
            }
        }
    }

    /// Counts a failed attempt; returns `true` while retries remain
    /// (after the backoff sleep), otherwise marks the shard down.
    fn note_attempt_failed(&self, attempt: &mut u32, slot: &ShardSlot, why: &str) -> bool {
        cf_obs::counter!("router.shard_io_errors").inc();
        *attempt += 1;
        if *attempt <= self.cfg.retries {
            cf_obs::counter!("router.retries").inc();
            // Linear backoff with bounded jitter: slots that fail at the
            // same instant de-correlate their retries instead of
            // re-stampeding the shard in lockstep.
            std::thread::sleep(jittered_backoff(
                self.cfg.backoff,
                *attempt,
                slot.jitter.next_u64(),
            ));
            return true;
        }
        // Out of attempts: mark down for the cooldown and shed.
        {
            let mut guard = slot.down_until.lock();
            *guard = Some(Instant::now() + self.cfg.down_cooldown);
        }
        // Drain the pool: every pooled connection points at a shard we
        // just declared dead.
        {
            let mut pool = slot.pool.lock();
            pool.clear();
        }
        let (_total, up) = self.shards_up();
        cf_obs::gauge!("router.shards_up").set(up as i64);
        cf_obs::trace::note("router.shard_down");
        eprintln!(
            "router: shard {addr} marked down for {cooldown:?}: {why}",
            addr = slot.addr,
            cooldown = self.cfg.down_cooldown,
        );
        false
    }

    /// Serves a prediction from the router-local fallback table — the
    /// user-mean / global-mean rungs of the degradation ladder, the same
    /// rungs (and the same counters) the in-process model bottoms out
    /// on.
    fn fallback_predict(&self, user: u32) -> RouterPrediction {
        cf_obs::counter!("router.fallback_served").inc();
        let fallback = self
            .fallback
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mean = fallback
            .user_means
            .get(user as usize)
            .copied()
            .unwrap_or(f64::NAN);
        let (value, level) = if mean.is_finite() {
            (mean, DegradeLevel::UserMean)
        } else {
            (fallback.global_mean, DegradeLevel::GlobalMean)
        };
        level.record();
        RouterPrediction {
            fused: fallback.scale.clamp(value),
            level,
            fallback: true,
            shard: None,
        }
    }
}

// --- the router as a frame server --------------------------------------

use std::sync::Arc;

use crate::frame::ERR_OUT_OF_RANGE;
use crate::server::{FrameServer, Handler, ServerOptions};

struct RouterHandler {
    router: Arc<Router>,
}

impl Handler for RouterHandler {
    fn handle(&self, req: Request) -> Response {
        match req {
            Request::Health => Response::Health(HealthInfo {
                // u32::MAX marks a front tier, distinguishing it from any
                // operator-assigned shard id.
                shard_id: u32::MAX,
                num_users: self.router.num_users(),
                num_items: self.router.num_items(),
                generation: self.router.profile_generation(),
            }),
            Request::Profile => Response::Profile(self.router.profile()),
            // A router answers stats frames with its *own* registry (the
            // front tier's counters and request histograms), marked with
            // the front-tier id — so stacked routers can aggregate tiers
            // without conflating them with shards.
            Request::Stats => Response::Stats(WireStats {
                shard_id: u32::MAX,
                generation: self.router.profile_generation(),
                snapshot: cf_obs::merge::MergeSnapshot::of(cf_obs::global()).to_bytes(),
            }),
            Request::PredictBatch { pairs, .. } => Response::Predictions(
                self.router
                    .predict_batch(&pairs)
                    .into_iter()
                    .map(|p| p.map(RouterPrediction::to_wire))
                    .collect(),
            ),
            Request::Predict { user, item, .. } => match self.router.predict(user, item) {
                Some(p) => Response::Prediction(p.to_wire()),
                None => Response::Error {
                    code: ERR_OUT_OF_RANGE,
                    message: format!("user {user} or item {item} outside the model"),
                },
            },
            Request::RecommendTopN {
                user,
                n,
                item_start,
                item_end,
                ..
            } => match self
                .router
                .recommend_top_n_in_range(user, n, item_start, item_end)
            {
                Some(t) => Response::TopN(t.items),
                None => Response::Error {
                    code: ERR_OUT_OF_RANGE,
                    message: format!("user {user} outside the model"),
                },
            },
        }
    }

    fn bump(&self, ok: bool) {
        cf_obs::counter!("router.front.requests").inc();
        if ok {
            cf_obs::counter!("router.front.responses.ok").inc();
        } else {
            // Only out-of-range / malformed requests land here — shard
            // failures degrade, they do not error.
            cf_obs::counter!("router.front.responses.error").inc();
        }
    }
}

/// The router exposed over the same wire protocol the shards speak, so
/// clients cannot tell a router from a shard (and routers can stack).
pub struct RouterServer {
    inner: FrameServer,
}

impl RouterServer {
    /// Binds `addr` and serves `router` to downstream clients.
    pub fn bind(
        addr: impl ToSocketAddrs,
        router: Arc<Router>,
        opts: ServerOptions,
    ) -> std::io::Result<Self> {
        cf_obs::counter!("router.front.requests").add(0);
        cf_obs::counter!("router.front.responses.ok").add(0);
        cf_obs::counter!("router.front.responses.error").add(0);
        let handler = Arc::new(RouterHandler { router });
        let inner = FrameServer::bind(addr, opts, handler, "cf-serve-router")?;
        Ok(Self { inner })
    }

    /// The actually-bound address.
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.inner.local_addr()
    }

    /// Stops the accept loop and joins every connection thread.
    pub fn shutdown(self) {
        self.inner.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ShardOptions, ShardServer};
    use crate::ModelHandle;
    use cf_data::SyntheticConfig;
    use cf_matrix::{ItemId, RatingMatrix, UserId};
    use cfsf_core::{Cfsf, CfsfConfig, GenCell};

    /// The profile-refresh tests read the process-global
    /// `router.profile.*` counters, so they run one at a time.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: RecoverMutex<()> = RecoverMutex::new(());
        LOCK.lock()
    }

    fn fit(matrix: &RatingMatrix) -> Arc<Cfsf> {
        Arc::new(Cfsf::fit(matrix, CfsfConfig::small()).unwrap())
    }

    /// One shard serving `cell`'s current generation, and a router in
    /// front of it with test-sized timeouts.
    fn fleet(cell: &Arc<GenCell<Cfsf>>) -> (ShardServer, Router) {
        let handle = ModelHandle::from_cell(Arc::clone(cell));
        let shard = ShardServer::bind("127.0.0.1:0", handle, ShardOptions::default()).unwrap();
        let router = Router::connect(RouterConfig {
            shards: vec![shard.local_addr().to_string()],
            client: ClientOptions {
                connect_timeout: Duration::from_millis(300),
                io_timeout: Duration::from_millis(500),
                request_deadline: Duration::from_secs(2),
            },
            retries: 1,
            backoff: Duration::from_millis(5),
            ..RouterConfig::default()
        })
        .unwrap();
        (shard, router)
    }

    /// A newer generation published behind a live shard swaps the
    /// router's fallback table once; with nothing newer, a refresh
    /// changes nothing.
    #[test]
    fn a_newer_published_generation_swaps_the_fallback_table() {
        let _serial = serial();
        let base = SyntheticConfig::small().generate().matrix;
        let cell = Arc::new(GenCell::new(fit(&base)));
        let (shard, router) = fleet(&cell);
        assert!(!router.refresh_profile_if_stale());
        assert_eq!(router.profile_generation(), 0);

        // The same users and items with one more rating, so user 3's
        // mean moves.
        let user = UserId::new(3);
        let item = (0..base.num_items() as u32)
            .map(ItemId::new)
            .find(|&i| base.get(user, i).is_none())
            .unwrap();
        let next = fit(&base.with_ratings(&[(user, item, 5.0)]).unwrap());
        assert_ne!(
            next.matrix().user_mean(user).to_bits(),
            base.user_mean(user).to_bits()
        );
        cell.publish(Arc::clone(&next));

        let refreshed = cf_obs::counter!("router.profile.refreshed").get();
        assert!(router.refresh_profile_if_stale());
        assert!(!router.refresh_profile_if_stale());
        assert_eq!(router.profile_generation(), 1);
        assert_eq!(
            cf_obs::counter!("router.profile.refreshed").get(),
            refreshed + 1
        );
        assert_eq!(router.profile().user_means, next.matrix().user_means());
        let answer = router.fallback_predict(user.raw());
        let expect = next.matrix().scale().clamp(next.matrix().user_mean(user));
        assert_eq!(answer.fused.to_bits(), expect.to_bits());
        shard.shutdown();
    }

    /// A published model that serves another user count is refused: the
    /// old table keeps serving, the generation stays, and
    /// `router.profile.refresh_errors` rises by one.
    #[test]
    fn a_profile_of_another_user_count_is_refused() {
        let _serial = serial();
        let data = SyntheticConfig::small();
        let cell = Arc::new(GenCell::new(fit(&data.generate().matrix)));
        let (shard, router) = fleet(&cell);
        let before = router.profile();
        let fewer_users = SyntheticConfig {
            num_users: data.num_users - 1,
            ..data.clone()
        };
        cell.publish(fit(&fewer_users.generate().matrix));

        let errors = cf_obs::counter!("router.profile.refresh_errors").get();
        assert!(!router.refresh_profile_if_stale());
        assert_eq!(
            cf_obs::counter!("router.profile.refresh_errors").get(),
            errors + 1
        );
        assert_eq!(router.profile_generation(), 0);
        assert_eq!(router.profile(), before);
        // The last user exists only in the old model, and the table
        // still answers for it.
        let last = data.num_users as u32 - 1;
        let answer = router.fallback_predict(last);
        assert_eq!(answer.level, DegradeLevel::UserMean);
        let scale = RatingScale {
            min: before.scale_min,
            max: before.scale_max,
        };
        let expect = scale.clamp(before.user_means[last as usize]);
        assert_eq!(answer.fused.to_bits(), expect.to_bits());
        shard.shutdown();
    }

    /// The retry schedule two slots would sleep, as durations — pure:
    /// no sockets, no sleeping.
    fn schedule(rng: &JitterRng, base: Duration, attempts: u32) -> Vec<Duration> {
        (1..=attempts)
            .map(|a| jittered_backoff(base, a, rng.next_u64()))
            .collect()
    }

    #[test]
    fn jittered_backoff_stays_within_bounds() {
        let base = Duration::from_millis(50);
        let rng = JitterRng::seeded(7);
        for attempt in 1..=8u32 {
            let linear = base * attempt;
            for _ in 0..64 {
                let d = jittered_backoff(base, attempt, rng.next_u64());
                assert!(d >= linear, "jitter must only stretch the linear backoff");
                assert!(
                    d <= linear + linear / 2,
                    "jitter bounded by half the linear backoff: {d:?} vs {linear:?}"
                );
            }
        }
        // Zero base degenerates to zero sleep, never a panic.
        assert_eq!(
            jittered_backoff(Duration::ZERO, 3, u64::MAX),
            Duration::ZERO
        );
    }

    #[test]
    fn retry_timestamps_decorrelate_across_slots() {
        // Two slots failing at the same instant must not sleep in
        // lockstep: their cumulative retry timestamps diverge. Seeds
        // derive from slot identity, exactly as Router::connect does.
        let base = Duration::from_millis(50);
        let a = JitterRng::for_slot("10.0.0.1:7400", 0);
        let b = JitterRng::for_slot("10.0.0.2:7400", 1);
        let sched_a = schedule(&a, base, 16);
        let sched_b = schedule(&b, base, 16);
        assert_ne!(sched_a, sched_b, "two slots drew identical jitter");
        // Cumulative wake-up times (both slots start failing at t=0)
        // must differ at almost every retry — identical wake-ups are
        // exactly the stampede jitter exists to break.
        let cumulative = |s: &[Duration]| -> Vec<Duration> {
            s.iter()
                .scan(Duration::ZERO, |t, d| {
                    *t += *d;
                    Some(*t)
                })
                .collect()
        };
        let wake_a = cumulative(&sched_a);
        let wake_b = cumulative(&sched_b);
        let collisions = wake_a
            .iter()
            .zip(wake_b.iter())
            .filter(|(x, y)| x == y)
            .count();
        assert!(
            collisions <= 1,
            "{collisions}/16 retry timestamps collide across slots"
        );
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        // Same slot identity → same schedule: failures replay
        // identically under test harnesses and chaos reruns.
        let x = JitterRng::for_slot("127.0.0.1:9000", 2);
        let y = JitterRng::for_slot("127.0.0.1:9000", 2);
        assert_eq!(
            schedule(&x, Duration::from_millis(10), 8),
            schedule(&y, Duration::from_millis(10), 8)
        );
    }
}
