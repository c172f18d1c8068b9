//! # cfsf-core — the CFSF algorithm (the paper's contribution)
//!
//! CFSF (*Collaborative Filtering using Smoothing and Fusing*) turns CF
//! into a **local** prediction problem. This crate implements both phases
//! exactly as §IV of the paper describes:
//!
//! **Offline** ([`Cfsf::fit`]):
//! 1. build the Global Item Similarity matrix (GIS, Eq. 5) over the whole
//!    training matrix,
//! 2. cluster users with K-means under PCC similarity (Eq. 6),
//! 3. smooth every unrated cell within its user cluster (Eq. 7–8),
//! 4. rank clusters per user into the iCluster structure (Eq. 9).
//!
//! **Online** ([`Cfsf::predict`]): for a request `(u_b, i_a)`,
//! 1. take the top `M` similar items straight off the GIS,
//! 2. harvest like-minded-user candidates cluster-by-cluster in iCluster
//!    order and rank them with the smoothing-aware weighted PCC
//!    (Eq. 10/11), keeping the top `K` (cached per user),
//! 3. over the resulting local `M × K` matrix compute the three
//!    estimators `SIR'`, `SUR'`, `SUIR'` (Eq. 12, pair weight Eq. 13),
//! 4. fuse them with `λ` and `δ` (Eq. 14).
//!
//! The online phase costs `O(M·K)` per request — independent of the size
//! of the full item-user matrix, which is the paper's scalability claim.
//!
//! ```
//! use cf_data::SyntheticConfig;
//! use cf_matrix::{Predictor, UserId, ItemId};
//! use cfsf_core::{Cfsf, CfsfConfig};
//!
//! let data = SyntheticConfig::small().generate();
//! let model = Cfsf::fit(&data.matrix, CfsfConfig::small()).unwrap();
//! let r = model.predict(UserId::new(0), ItemId::new(5)).unwrap();
//! assert!((1.0..=5.0).contains(&r));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Serving-path crate: a request degrades, it never panics (the policy
// is in clippy.toml). Locks recover from poisoning and unwind catches
// check their captures (`disallowed_types`).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::disallowed_types
)]

mod batch;
pub mod cache;
mod config;
mod degrade;
mod error;
mod explain;
mod fusion;
mod model;
mod online;
mod persist;
pub mod refresh;
mod strips;
pub mod topk;

pub use cf_matrix::PlanePrecision;
pub use config::CfsfConfig;
pub use degrade::DegradeLevel;
pub use error::CfsfError;
pub use explain::{Explanation, ItemEvidence, UserEvidence};
pub use fusion::{fuse, FusionWeights};
pub use model::{Cfsf, OfflineSummary};
pub use online::PredictionBreakdown;
pub use persist::{crc32, PersistError, RecoveryReport};
pub use refresh::{
    DriftConfig, DriftMonitor, DriftSignals, DriftState, GenCell, RebuildReport, RefreshKind,
    SelfHealingCfsf,
};
