//! # CFSF — Collaborative Filtering with Smoothing and Fusing
//!
//! Meta-crate re-exporting the whole CFSF reproduction workspace:
//! a from-scratch Rust implementation of the ICPP 2009 paper
//! *"An Efficient Collaborative Filtering Approach Using Smoothing and
//! Fusing"* (Zhang, Cao, Zhou, Guo, Raychoudhury), plus every substrate
//! and baseline its evaluation depends on.
//!
//! ## Quick start
//!
//! ```
//! use cfsf::prelude::*;
//!
//! // Generate a small MovieLens-like dataset and train CFSF on it.
//! let dataset = SyntheticConfig::small().generate(); // 80 users × 120 items
//! let split = Protocol::new(TrainSize::Users(40), GivenN::Given5, 20)
//!     .split(&dataset)
//!     .expect("valid protocol");
//! let model = Cfsf::fit(&split.train, CfsfConfig::small()).unwrap();
//! let mae = evaluate_mae(&model, &split.holdout);
//! assert!(mae < 2.0);
//! ```

// Part of the serving path: it never panics (the policy is in
// clippy.toml).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
pub use cf_baselines as baselines;
pub use cf_cluster as cluster;
pub use cf_data as data;
pub use cf_eval as eval;
pub use cf_matrix as matrix;
pub use cf_obs as obs;
pub use cf_parallel as parallel;
pub use cf_similarity as similarity;
pub use cf_temporal as temporal;
pub use cfsf_core as core;

/// Commonly used items, re-exported for `use cfsf::prelude::*`.
pub mod prelude {
    pub use cf_baselines::{
        AspectModel, Emdp, PersonalityDiagnosis, Scbpcc, SimilarityFusion, Sir, Sur,
    };
    pub use cf_data::{Dataset, GivenN, Protocol, Split, SyntheticConfig, TrainSize};
    pub use cf_eval::{evaluate_mae, evaluate_rmse, Evaluation};
    pub use cf_matrix::{ItemId, Predictor, RatingMatrix, UserId};
    pub use cfsf_core::{Cfsf, CfsfConfig};
}
