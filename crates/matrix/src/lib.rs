//! # cf-matrix — sparse item-user rating matrix substrate
//!
//! This crate is the foundation of the CFSF reproduction. It provides:
//!
//! - [`UserId`] / [`ItemId`] — typed indices into the matrix,
//! - [`RatingMatrix`] — an immutable sparse rating matrix stored in both
//!   user-major (CSR) and item-major (CSC) order, with precomputed user and
//!   item means,
//! - [`MatrixBuilder`] — constructs a [`RatingMatrix`] from triplets;
//!   deduplicates, sorts, and validates them
//!   ([`RatingMatrix::with_ratings`] splices new ratings into an
//!   existing matrix under the same checks),
//! - [`DenseRatings`] — a dense user×item matrix with an "originally rated"
//!   bitset; used for cluster-smoothed ratings (Eq. 7 of the paper),
//! - [`WeightPlanes`] — the serving fast path's quantized weight planes,
//!   folded from a [`DenseRatings`]: per-cell rating codes (u16/u8) that
//!   also hold presence and provenance, with the Eq. 11 smoothing weight
//!   in an exact 4-entry LUT, dequantized in-kernel via [`PlaneDequant`],
//! - [`Predictor`] — the trait every CF algorithm in this workspace
//!   implements, plus rating-scale clamping helpers,
//! - [`stats`] — dataset statistics as reported in Table I of the paper,
//! - [`approx`] — the sanctioned float-comparison helpers (clippy's
//!   `float_cmp` forbids raw float `==` elsewhere).
//!
//! The matrix is deliberately immutable after build: every algorithm in the
//! paper (CFSF and all baselines) trains on a frozen snapshot, and
//! immutability lets us share it freely across threads (`&RatingMatrix` is
//! `Send + Sync`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod approx;
mod builder;
mod dense;
mod error;
mod ids;
mod matrix;
mod planes;
mod predictor;
pub mod stats;

pub use approx::{approx_eq, approx_eq_eps, approx_zero, DEFAULT_EPS};
pub use builder::{MatrixBuilder, QuarantineReport};
pub use dense::{DenseRatings, DenseRow};
pub use error::MatrixError;
pub use ids::{ItemId, UserId};
pub use matrix::RatingMatrix;
pub use planes::{
    PlaneDequant, PlanePrecision, PlanesOnly, PlanesView, QuantCell, TypedPlanes, WeightPlanes,
};
pub use predictor::{clamp_rating, Predictor, RatingScale};
pub use stats::MatrixStats;
