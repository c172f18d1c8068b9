//! End-to-end integration: dataset → protocol → offline fit → online
//! predictions → MAE, across crate boundaries.

#![allow(clippy::float_cmp)]

use cfsf::prelude::*;

fn dataset() -> Dataset {
    SyntheticConfig {
        num_users: 150,
        num_items: 200,
        mean_ratings_per_user: 35.0,
        min_ratings_per_user: 22,
        ..SyntheticConfig::movielens()
    }
    .with_seed(99)
    .generate()
}

fn config() -> CfsfConfig {
    // The substrate-tuned operating point (see EXPERIMENTS.md): fewer,
    // larger clusters than the paper's MovieLens extract wanted, a wider
    // neighborhood, and a higher original-rating weight.
    CfsfConfig {
        clusters: 8,
        k: 30,
        m: 30,
        w: 0.6,
        lambda: 0.9,
        ..CfsfConfig::paper()
    }
}

#[test]
fn full_pipeline_produces_sane_mae() {
    let data = dataset();
    let split = Protocol::new(TrainSize::Users(100), GivenN::Given10, 50)
        .split(&data)
        .unwrap();
    let model = Cfsf::fit(&split.train, config()).unwrap();
    let eval = cfsf::eval::evaluate(&model, &split.holdout);
    // On a 1–5 scale, anything near or above 1.0 means the model learned
    // nothing; the generator's structure supports far better.
    assert!(eval.mae < 0.95, "MAE {}", eval.mae);
    assert!(
        eval.rmse >= eval.mae,
        "RMSE {} < MAE {}",
        eval.rmse,
        eval.mae
    );
    assert!(eval.coverage > 0.99, "coverage {}", eval.coverage);
}

#[test]
fn cfsf_beats_plain_item_and_user_baselines() {
    let data = dataset();
    let split = Protocol::new(TrainSize::Users(100), GivenN::Given10, 50)
        .split(&data)
        .unwrap();
    let cfsf = Cfsf::fit(&split.train, config()).unwrap();
    let sur = Sur::fit_default(&split.train);
    let sir = Sir::fit_default(&split.train);
    let mae_cfsf = evaluate_mae(&cfsf, &split.holdout);
    let mae_sur = evaluate_mae(&sur, &split.holdout);
    let mae_sir = evaluate_mae(&sir, &split.holdout);
    assert!(
        mae_cfsf < mae_sur && mae_cfsf < mae_sir,
        "CFSF {mae_cfsf} vs SUR {mae_sur} / SIR {mae_sir}"
    );
}

#[test]
fn whole_pipeline_is_deterministic() {
    let run = || {
        let data = dataset();
        let split = Protocol::new(TrainSize::Users(100), GivenN::Given5, 50)
            .split(&data)
            .unwrap();
        let model = Cfsf::fit(&split.train, config()).unwrap();
        evaluate_mae(&model, &split.holdout)
    };
    assert_eq!(run(), run());
}

#[test]
fn every_algorithm_handles_the_same_split() {
    let data = dataset();
    let split = Protocol::new(TrainSize::Users(100), GivenN::Given5, 50)
        .split(&data)
        .unwrap();
    let train = &split.train;
    let models: Vec<Box<dyn cf_matrix::Predictor>> = vec![
        Box::new(Cfsf::fit(train, config()).unwrap()),
        Box::new(Sur::fit_default(train)),
        Box::new(Sir::fit_default(train)),
        Box::new(SimilarityFusion::fit_default(train)),
        Box::new(Emdp::fit_default(train)),
        Box::new(Scbpcc::fit_default(train)),
        Box::new(AspectModel::fit_default(train)),
        Box::new(PersonalityDiagnosis::fit_default(train)),
    ];
    for model in &models {
        let eval = cfsf::eval::evaluate(model.as_ref(), &split.holdout);
        assert!(
            eval.mae > 0.0 && eval.mae < 1.6,
            "{}: implausible MAE {}",
            model.name(),
            eval.mae
        );
    }
    // names are the paper's labels, all distinct
    let mut names: Vec<&str> = models.iter().map(|m| m.name()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), models.len());
}

#[test]
fn recommendations_come_from_unrated_items_and_respect_n() {
    let data = dataset();
    let model = Cfsf::fit(&data.matrix, config()).unwrap();
    for u in [0usize, 7, 42] {
        let user = UserId::from(u);
        let recs = model.recommend_top_n(user, 7);
        assert!(recs.len() <= 7);
        for (item, score) in recs {
            assert!(!data.matrix.is_rated(user, item));
            assert!((1.0..=5.0).contains(&score));
        }
    }
}

#[test]
fn movielens_roundtrip_preserves_model_input() {
    let data = dataset();
    let mut buf = Vec::new();
    cfsf::data::save_movielens(&data.matrix, &mut buf).unwrap();
    let reloaded =
        cfsf::data::load_movielens_str(std::str::from_utf8(&buf).unwrap(), "rt").unwrap();
    assert_eq!(reloaded.matrix.num_ratings(), data.matrix.num_ratings());
    // identical MAE on an identical protocol proves the matrices agree
    let p = Protocol::new(TrainSize::Users(100), GivenN::Given5, 50);
    let a = p.split(&data).unwrap();
    let b = p.split(&reloaded).unwrap();
    let ma = Cfsf::fit(&a.train, config()).unwrap();
    let mb = Cfsf::fit(&b.train, config()).unwrap();
    assert_eq!(evaluate_mae(&ma, &a.holdout), evaluate_mae(&mb, &b.holdout));
}
