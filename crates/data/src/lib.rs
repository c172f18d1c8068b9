//! # cf-data — datasets and the paper's evaluation protocol
//!
//! Three pieces:
//!
//! - [`SyntheticConfig`] / [`Dataset`] — a seeded generator producing a
//!   MovieLens-like rating matrix (latent taste groups × item genres,
//!   per-user/per-item bias, popularity skew). This is the documented
//!   substitution for the paper's MovieLens extract (500 users × 1000
//!   items, ≥40 ratings/user, ≈9.44% dense): the real dataset is not
//!   redistributable, but the algorithms only ever see the matrix, and the
//!   generator reproduces the statistical structure CFSF exploits.
//! - [`load_movielens`] / [`save_movielens`] — reader/writer for the
//!   GroupLens `u.data` tab-separated format, so the real dataset can be
//!   dropped in when available.
//! - [`Protocol`] — the paper's split: training = first `N` users
//!   (ML_100/200/300), test = the last 200 users with `Given5/10/20`
//!   observed ratings each; everything else is held out for MAE.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

mod crossval;
mod dataset;
mod loader;
mod protocol;
mod rng;
mod synthetic;

pub use crossval::k_fold_splits;
pub use dataset::Dataset;
pub use loader::{
    load_movielens, load_movielens_lenient, load_movielens_str, load_movielens_str_lenient,
    parse_line, save_movielens, LoadError, LoadReport, RatingLine,
};
pub use protocol::{GivenN, HoldoutCell, Protocol, ProtocolError, Split, TrainSize};
pub use rng::NormalSampler;
pub use synthetic::SyntheticConfig;
