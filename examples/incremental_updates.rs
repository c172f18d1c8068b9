//! Live-service simulation: a fitted CFSF model absorbing a stream of new
//! ratings through partial refreshes — the paper's "keep GIS up-to-date"
//! future-work item (§VI) in action.
//!
//! ```text
//! cargo run --release --example incremental_updates
//! ```

use std::time::Instant;

use cfsf::core::{DriftConfig, RefreshKind, SelfHealingCfsf};
use cfsf::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

fn main() {
    let dataset = SyntheticConfig {
        num_users: 250,
        num_items: 400,
        mean_ratings_per_user: 45.0,
        min_ratings_per_user: 25,
        ..SyntheticConfig::movielens()
    }
    .generate();

    println!("initial offline fit...");
    let t = Instant::now();
    let model = Cfsf::fit(
        &dataset.matrix,
        CfsfConfig {
            clusters: 12,
            ..CfsfConfig::paper()
        },
    )
    .expect("valid config");
    println!("  fit in {:.2}s", t.elapsed().as_secs_f64());

    // Drift detection parked: the service refreshes only when told to.
    let service = SelfHealingCfsf::new(model, DriftConfig::manual()).expect("valid drift config");
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);

    // Simulate five days of traffic: each day users rate ~80 new items,
    // and the service refreshes overnight.
    let matrix = &dataset.matrix;
    let mut unrated: Vec<(UserId, ItemId)> = matrix
        .users()
        .flat_map(|u| {
            matrix
                .items()
                .filter(move |&i| !matrix.is_rated(u, i))
                .map(move |i| (u, i))
        })
        .collect();
    unrated.shuffle(&mut rng);

    let mut cursor = 0usize;
    for day in 1..=5 {
        let mut absorbed = 0;
        while absorbed < 80 && cursor < unrated.len() {
            let (u, i) = unrated[cursor];
            cursor += 1;
            let rating = rng.gen_range(1..=5) as f64;
            if service.add_rating(u, i, rating).is_ok() {
                absorbed += 1;
            }
        }
        let t = Instant::now();
        let report = service.refresh_now().expect("refresh succeeds");
        println!(
            "day {day}: absorbed {} ratings from {} users via {:?} refresh in {:.3}s",
            report.merged,
            report.dirty_users,
            report.kind,
            t.elapsed().as_secs_f64()
        );
        if report.kind == RefreshKind::Full {
            println!("         (churn threshold crossed — full refit ran)");
        }
    }

    // The service still predicts everywhere, reflecting all absorbed data.
    let model = service.model();
    let user = UserId::new(3);
    let recs = model.recommend_top_n(user, 5);
    println!("\nafter 5 days, top-5 for user {user}:");
    for (item, score) in recs {
        println!("  item {:<5} predicted {score:.2}", item.raw());
    }
    println!(
        "training matrix now holds {} ratings",
        model.matrix().num_ratings()
    );
}
