//! cfsf-bench: Criterion micro-benches of single layers that no
//! end-to-end workload isolates — the offline phases and the patches of
//! a partial rebuild (`offline_phase`),
//! one online request and the online ablations (`online_phase`), batch
//! serving, persistence and incremental rebuilds (`extensions`), and the
//! cost of instrumentation (`obs_overhead`). Serving and rebuild speed end
//! to end is cfbench's job, and `cfsf-experiments` regenerates the paper's
//! tables and figures. This library crate only hosts the shared dataset
//! and configuration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cf_data::{Dataset, SyntheticConfig};

/// The dataset all benches share: small enough for Criterion iteration,
/// large enough to exercise the real code paths.
pub fn bench_dataset() -> Dataset {
    SyntheticConfig {
        num_users: 200,
        num_items: 300,
        mean_ratings_per_user: 40.0,
        min_ratings_per_user: 21,
        ..SyntheticConfig::movielens()
    }
    .generate()
}

/// The CFSF configuration used across benches (substrate-tuned point).
pub fn bench_config() -> cfsf_core::CfsfConfig {
    cfsf_core::CfsfConfig {
        clusters: 8,
        k: 25,
        m: 40,
        w: 0.6,
        lambda: 0.9,
        ..cfsf_core::CfsfConfig::paper()
    }
}
