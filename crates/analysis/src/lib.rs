//! cf-analysis — the loom-lite concurrency model checker for the CFSF
//! workspace, runnable through the `cfsf-analyze` binary and gated in
//! `scripts/check.sh` / CI.
//!
//! A deterministic scheduler ([`sched`], [`llsync`], [`models`]) explores
//! thread interleavings (exhaustive DFS with sleep-set partial-order
//! reduction, seeded random, exact replay) over the production concurrent
//! cores, which are generic over [`cf_obs::sync::Shim`]: the per-user
//! neighbor slots, the slow-trace reservoir, the poisoned-slot reset,
//! the generation cell, and the fleet aggregator all run the
//! *same code* in production and under the checker. The checked shim
//! carries a FastTrack-style happens-before race detector ([`vclock`],
//! [`llsync::LLCell`]) and models relaxed atomics against a bounded store
//! buffer of stale values instead of assuming sequential consistency.
//!
//! The repo's code policies (panic-free serving crates, poison-safe
//! locks, unwind-safe catches, gated hot-path clock reads, exact float
//! compares, the model doorway) are held by rustc, clippy and types; see
//! DESIGN.md §9.

#![warn(missing_docs)]

pub mod llsync;
pub mod models;
pub mod sched;
pub mod toylock;
pub mod vclock;
