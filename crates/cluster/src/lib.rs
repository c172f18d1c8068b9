//! # cf-cluster — user clustering, smoothing, and iCluster ranking
//!
//! The offline half of CFSF's "smoothing strategy" (§IV-C / §IV-D of the
//! paper), also reused by the SCBPCC baseline:
//!
//! - [`KMeans`] — K-means over user profiles under a PCC-derived
//!   similarity (Eq. 6), with deterministic seeding and empty-cluster
//!   repair,
//! - [`Smoother`] / [`Smoothed`] — fills every unrated cell with
//!   `r̄_u + Δr(C_u, i)` (Eq. 7–8), keeping provenance bits so Eq. 10/11
//!   can discount imputed ratings,
//! - [`ICluster`] — for every user, all clusters ranked by descending
//!   user↔cluster similarity (Eq. 9); the online phase walks this ranking
//!   to harvest like-minded-user candidates,
//! - [`ClusterModel`] — the bundle of all three that CFSF's offline phase
//!   produces in one call.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod icluster;
mod kmeans;
mod model;
mod quality;
mod smoothing;

pub use icluster::ICluster;
pub use kmeans::{ClusterAssignment, KMeans, KMeansConfig, KMeansInit};
pub use model::{ClusterModel, ClusterModelConfig};
pub use quality::adjusted_rand_index;
pub use smoothing::{SmoothPatch, Smoothed, Smoother};
