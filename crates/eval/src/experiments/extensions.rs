//! Beyond-the-paper experiments exercising the future-work extensions:
//! top-N ranking quality, temporal drift, and incremental maintenance.

use std::collections::BTreeSet;
use std::time::Instant;

use cf_data::GivenN;
use cf_matrix::{ItemId, UserId};
use cf_temporal::{
    temporal_split, Decay, DecayMode, DriftConfig, TimeAwareSur, TimeAwareSurConfig,
};
use cfsf_core::{RefreshKind, SelfHealingCfsf};

use crate::ranking::evaluate_ranking;
use crate::table::{fmt_mae, Table};

use super::{ExperimentContext, ExperimentOutput, Scale};

/// Top-N ranking quality of CFSF vs the memory-based baselines.
pub fn topn(ctx: &ExperimentContext) -> ExperimentOutput {
    let split = ctx.split(ctx.largest_train(), GivenN::Given10);
    let n = 10;
    let threshold = 4.0;

    let mut table = Table::new(
        "Extension — top-10 ranking quality (largest training set, Given10)",
        &["method", "precision@10", "recall@10", "NDCG@10"],
    );
    let mut notes = Vec::new();
    let mut cfsf_ndcg = 0.0;
    let mut best_other = 0.0f64;

    let cfsf = ctx.fit_cfsf(&split.train);
    if let Some(e) = evaluate_ranking(&cfsf, &split.holdout, n, threshold) {
        table.push_row(vec![
            "CFSF".into(),
            fmt_mae(e.precision),
            fmt_mae(e.recall),
            fmt_mae(e.ndcg),
        ]);
        cfsf_ndcg = e.ndcg;
    }
    for name in ["SUR", "SIR", "SF"] {
        let model = ctx.fit_baseline(name, &split.train);
        if let Some(e) = evaluate_ranking(model.as_ref(), &split.holdout, n, threshold) {
            table.push_row(vec![
                name.into(),
                fmt_mae(e.precision),
                fmt_mae(e.recall),
                fmt_mae(e.ndcg),
            ]);
            best_other = best_other.max(e.ndcg);
        }
    }
    notes.push(format!(
        "CFSF NDCG@10 = {cfsf_ndcg:.3}; best baseline = {best_other:.3} \
         (rating-accuracy gains should carry over to ranking)"
    ));

    ExperimentOutput {
        id: "topn".into(),
        title: "Extension — top-N ranking quality".into(),
        tables: vec![table],
        notes,
        charts: Vec::new(),
    }
}

/// Temporal drift: time-decayed SUR vs plain SUR on drifting users
/// (future work §VI: "dates associated with the ratings").
pub fn temporal(ctx: &ExperimentContext) -> ExperimentOutput {
    let cfg = match ctx.scale {
        Scale::Paper => DriftConfig {
            num_users: 300,
            num_items: 400,
            ratings_per_user: 60,
            drift_fraction: 0.6,
            noise_sd: 0.3,
            ..DriftConfig::default()
        },
        Scale::Quick => DriftConfig {
            drift_fraction: 0.6,
            noise_sd: 0.3,
            ..DriftConfig::default()
        },
    };
    let (data, drifted) = cfg.generate();
    let split = temporal_split(&data, 0.75);

    let mut table = Table::new(
        "Extension — MAE under preference drift (train on past, test on future)",
        &["method", "half-life", "MAE (all)", "MAE (drifted users)"],
    );
    let mut notes = Vec::new();

    let half_lives = [
        ("plain (no decay)", 1e15),
        ("span", cfg.time_span as f64),
        ("span/8", cfg.time_span as f64 / 8.0),
        ("span/32", cfg.time_span as f64 / 32.0),
    ];
    let mut results = Vec::new();
    for &(label, hl) in &half_lives {
        let model = TimeAwareSur::fit(
            &split.train,
            TimeAwareSurConfig {
                decay: Decay::with_half_life(hl),
                mode: DecayMode::ActiveAge,
                decay_neighbor_ratings: false,
                neighborhood: Some(40),
            },
        );
        let mae_of = |filter: &dyn Fn(UserId) -> bool| {
            let mut err = 0.0;
            let mut n = 0usize;
            for &(u, i, r, _) in &split.holdout {
                if !filter(u) {
                    continue;
                }
                let p = cf_matrix::Predictor::predict(&model, u, i).unwrap_or(3.0);
                err += (p - r).abs();
                n += 1;
            }
            err / n.max(1) as f64
        };
        let all = mae_of(&|_| true);
        let drift_only = mae_of(&|u| drifted.contains(&u));
        table.push_row(vec![
            label.into(),
            if hl > 1e14 {
                "∞".into()
            } else {
                format!("{hl:.0}")
            },
            fmt_mae(all),
            fmt_mae(drift_only),
        ]);
        results.push((label, all, drift_only));
    }
    let plain = results[0];
    let best_decay = results[1..]
        .iter()
        .min_by(|a, b| a.2.partial_cmp(&b.2).expect("finite"))
        .copied()
        .expect("non-empty");
    notes.push(format!(
        "on drifted users, best decay ({}) MAE {:.3} vs plain {:.3} — decay {}",
        best_decay.0,
        best_decay.2,
        plain.2,
        if best_decay.2 < plain.2 {
            "helps"
        } else {
            "DOES NOT help"
        }
    ));

    ExperimentOutput {
        id: "temporal".into(),
        title: "Extension — temporal drift".into(),
        tables: vec![table],
        notes,
        charts: Vec::new(),
    }
}

/// Incremental maintenance: cost of absorbing new ratings via partial
/// refresh vs full refit (future work §VI: "keep GIS up-to-date").
pub fn incremental(ctx: &ExperimentContext) -> ExperimentOutput {
    let split = ctx.split(ctx.largest_train(), GivenN::Given10);
    let model = ctx.fit_cfsf(&split.train);
    let t_fit = {
        let t = Instant::now();
        let _ = ctx.fit_cfsf(&split.train);
        t.elapsed()
    };

    let batch = match ctx.scale {
        Scale::Paper => 200,
        Scale::Quick => 50,
    };
    let drift = cfsf_core::DriftConfig::manual();
    let full_refit_fraction = drift.full_refit_fraction;
    let service = SelfHealingCfsf::new(model, drift).expect("valid drift config");
    // queue `batch` new ratings on unrated cells
    let base = service.model();
    let m = base.matrix();
    let mut items = BTreeSet::new();
    'outer: for u in 0..m.num_users() {
        for i in 0..m.num_items() {
            let (user, item) = (UserId::from(u), ItemId::from(i));
            if m.get(user, item).is_none() && service.add_rating(user, item, 4.0).is_ok() {
                items.insert(item);
                if service.pending() >= batch {
                    break 'outer;
                }
            }
        }
    }
    let t = Instant::now();
    let report = service.refresh_now().expect("refresh succeeds");
    let elapsed = t.elapsed();

    let mut table = Table::new(
        "Extension — incremental maintenance cost",
        &["operation", "ratings absorbed", "seconds"],
    );
    table.push_row(vec![
        "full offline fit".into(),
        "-".into(),
        format!("{:.3}", t_fit.as_secs_f64()),
    ]);
    table.push_row(vec![
        format!("partial refresh ({} GIS rows)", items.len()),
        report.merged.to_string(),
        format!("{:.3}", elapsed.as_secs_f64()),
    ]);

    let speedup = t_fit.as_secs_f64() / elapsed.as_secs_f64().max(1e-9);
    let notes = vec![
        format!(
            "partial refresh absorbed {} ratings {speedup:.1}x faster than a full refit \
             (kind: {:?})",
            report.merged, report.kind
        ),
        format!(
            "refresh escalates to a full refit automatically past {}% churn",
            (full_refit_fraction * 100.0) as u32
        ),
    ];
    assert_eq!(report.kind, RefreshKind::Partial, "batch below escalation");

    ExperimentOutput {
        id: "incremental".into(),
        title: "Extension — incremental maintenance".into(),
        tables: vec![table],
        notes,
        charts: Vec::new(),
    }
}

/// Cold-start analysis: MAE binned by how many training ratings the
/// active item has, comparing CFSF, plain SUR, and the content-boosted
/// item CF (which blends genre attributes into the similarity — §VI's
/// "attributes of items" direction, aimed exactly at cold items).
pub fn coldstart(ctx: &ExperimentContext) -> ExperimentOutput {
    use cf_baselines::{ContentBoostedSir, ContentConfig};

    let split = ctx.split(ctx.largest_train(), GivenN::Given10);
    let genres = ctx
        .dataset
        .item_genres
        .clone()
        .expect("synthetic datasets carry genres");

    let cfsf = ctx.fit_cfsf(&split.train);
    let sur = ctx.fit_baseline("SUR", &split.train);
    let content = ContentBoostedSir::fit(&split.train, &genres, ContentConfig::default());

    // Bin holdout cells by the item's training popularity.
    let bins: &[(usize, usize, &str)] = &[
        (0, 5, "cold (≤5 raters)"),
        (6, 20, "warm (6–20)"),
        (21, usize::MAX, "popular (>20)"),
    ];
    let mut table = Table::new(
        "Extension — MAE by item popularity (largest training set, Given10)",
        &["item bin", "cells", "CFSF", "SUR", "SIR-content"],
    );
    let mut notes = Vec::new();
    for &(lo, hi, label) in bins {
        let cells: Vec<_> = split
            .holdout
            .iter()
            .filter(|c| {
                let n = split.train.item_count(c.item);
                n >= lo && n <= hi
            })
            .copied()
            .collect();
        if cells.is_empty() {
            continue;
        }
        let mae_cfsf = crate::metrics::evaluate_mae(&cfsf, &cells);
        let mae_sur = crate::metrics::evaluate_mae(sur.as_ref(), &cells);
        let mae_content = crate::metrics::evaluate_mae(&content, &cells);
        table.push_row(vec![
            label.into(),
            cells.len().to_string(),
            fmt_mae(mae_cfsf),
            fmt_mae(mae_sur),
            fmt_mae(mae_content),
        ]);
        if lo == 0 {
            notes.push(format!(
                "cold items: CFSF {mae_cfsf:.3}, SUR {mae_sur:.3}, content-boosted {mae_content:.3} \
                 (attributes should help most where co-ratings are scarce)"
            ));
        }
    }
    notes.push(
        "every method degrades on cold items relative to popular ones — the sparsity \
         problem the paper targets, localized"
            .into(),
    );

    ExperimentOutput {
        id: "coldstart".into(),
        title: "Extension — cold-start analysis".into(),
        tables: vec![table],
        notes,
        charts: Vec::new(),
    }
}

/// Robustness across dataset seeds: the paper reports single-run numbers;
/// this experiment regenerates the dataset with several seeds and reports
/// mean ± sd of the headline comparison, so a reader can tell signal from
/// generator luck.
pub fn variance(ctx: &ExperimentContext) -> ExperimentOutput {
    let seeds: &[u64] = match ctx.scale {
        Scale::Paper => &[42, 43, 44],
        Scale::Quick => &[42, 43, 44],
    };
    let mut per_method: Vec<(&str, Vec<f64>)> = vec![
        ("CFSF", Vec::new()),
        ("SUR", Vec::new()),
        ("SCBPCC", Vec::new()),
    ];

    for &seed in seeds {
        let run_ctx = ExperimentContext::new(ctx.scale, seed, ctx.threads);
        let split = run_ctx.split(run_ctx.largest_train(), GivenN::Given10);
        let cfsf = run_ctx.fit_cfsf(&split.train);
        per_method[0]
            .1
            .push(crate::metrics::evaluate_mae(&cfsf, &split.holdout));
        for (name, maes) in per_method.iter_mut().skip(1) {
            let model = run_ctx.fit_baseline(name, &split.train);
            maes.push(crate::metrics::evaluate_mae(model.as_ref(), &split.holdout));
        }
    }

    let mut table = Table::new(
        "Extension — MAE across dataset seeds (largest training set, Given10)",
        &["method", "mean MAE", "sd", "runs"],
    );
    let mut summary: Vec<(String, f64, f64)> = Vec::new();
    for (name, maes) in &per_method {
        let n = maes.len() as f64;
        let mean = maes.iter().sum::<f64>() / n;
        let sd = (maes.iter().map(|m| (m - mean) * (m - mean)).sum::<f64>() / (n - 1.0)).sqrt();
        table.push_row(vec![
            name.to_string(),
            fmt_mae(mean),
            format!("{sd:.4}"),
            maes.len().to_string(),
        ]);
        summary.push((name.to_string(), mean, sd));
    }

    let cfsf = &summary[0];
    let gap_vs_sur = summary[1].1 - cfsf.1;
    let pooled_sd = (cfsf.2 + summary[1].2) / 2.0;
    let notes = vec![format!(
        "CFSF's mean advantage over SUR ({gap_vs_sur:.3}) is {:.1}x the pooled seed-to-seed sd \
         ({pooled_sd:.4}) — the Table II ordering is not generator luck",
        gap_vs_sur / pooled_sd.max(1e-9)
    )];

    ExperimentOutput {
        id: "variance".into(),
        title: "Extension — cross-seed variance".into(),
        tables: vec![table],
        notes,
        charts: Vec::new(),
    }
}

/// K-fold cross-validation: every user rotates through the test role
/// once, giving per-fold MAE and a variance estimate from a single
/// dataset (a rigor upgrade over the paper's fixed last-200-users split).
pub fn crossval(ctx: &ExperimentContext) -> ExperimentOutput {
    let k = 5;
    let folds = cf_data::k_fold_splits(&ctx.dataset, k, GivenN::Given10, 17);
    let mut table = Table::new(
        "Extension — 5-fold cross-validation (Given10)",
        &["fold", "holdout cells", "CFSF MAE", "SUR MAE"],
    );
    let mut cfsf_maes = Vec::new();
    let mut sur_maes = Vec::new();
    for (f, split) in folds.iter().enumerate() {
        let cfsf = ctx.fit_cfsf(&split.train);
        let sur = ctx.fit_baseline("SUR", &split.train);
        let a = crate::metrics::evaluate_mae(&cfsf, &split.holdout);
        let b = crate::metrics::evaluate_mae(sur.as_ref(), &split.holdout);
        table.push_row(vec![
            f.to_string(),
            split.holdout.len().to_string(),
            fmt_mae(a),
            fmt_mae(b),
        ]);
        cfsf_maes.push(a);
        sur_maes.push(b);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let sd = |v: &[f64]| {
        let m = mean(v);
        (v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (v.len() - 1) as f64).sqrt()
    };
    let wins = cfsf_maes
        .iter()
        .zip(&sur_maes)
        .filter(|(a, b)| a < b)
        .count();
    let notes = vec![
        format!(
            "CFSF {:.3} ± {:.4} vs SUR {:.3} ± {:.4} across {k} folds",
            mean(&cfsf_maes),
            sd(&cfsf_maes),
            mean(&sur_maes),
            sd(&sur_maes)
        ),
        format!("CFSF wins {wins}/{k} folds"),
    ];

    ExperimentOutput {
        id: "crossval".into(),
        title: "Extension — k-fold cross-validation".into(),
        tables: vec![table],
        notes,
        charts: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossval_covers_every_fold() {
        let ctx = ExperimentContext::new(Scale::Quick, 21, Some(2));
        let out = crossval(&ctx);
        assert_eq!(out.tables[0].rows.len(), 5);
        assert_eq!(out.notes.len(), 2);
    }

    #[test]
    fn variance_reports_three_methods() {
        let ctx = ExperimentContext::new(Scale::Quick, 21, Some(2));
        let out = variance(&ctx);
        assert_eq!(out.tables[0].rows.len(), 3);
        for row in &out.tables[0].rows {
            let mean: f64 = row[1].parse().unwrap();
            let sd: f64 = row[2].parse().unwrap();
            assert!(mean > 0.0 && mean < 2.0);
            assert!((0.0..0.5).contains(&sd));
        }
    }

    #[test]
    fn coldstart_bins_cover_the_holdout() {
        let ctx = ExperimentContext::new(Scale::Quick, 21, Some(2));
        let out = coldstart(&ctx);
        assert!(!out.tables[0].rows.is_empty());
        let total: usize = out.tables[0]
            .rows
            .iter()
            .map(|r| r[1].parse::<usize>().unwrap())
            .sum();
        let split = ctx.split(ctx.largest_train(), GivenN::Given10);
        assert_eq!(total, split.holdout.len());
    }

    #[test]
    fn topn_reports_all_methods() {
        let ctx = ExperimentContext::new(Scale::Quick, 21, Some(2));
        let out = topn(&ctx);
        assert_eq!(out.tables[0].rows.len(), 4);
        for row in &out.tables[0].rows {
            for cell in &row[1..] {
                let v: f64 = cell.parse().unwrap();
                assert!((0.0..=1.0).contains(&v), "{v}");
            }
        }
    }

    #[test]
    fn temporal_reports_decay_grid() {
        let ctx = ExperimentContext::new(Scale::Quick, 21, Some(2));
        let out = temporal(&ctx);
        assert_eq!(out.tables[0].rows.len(), 4);
        assert!(!out.notes.is_empty());
    }

    #[test]
    fn incremental_reports_speedup() {
        let ctx = ExperimentContext::new(Scale::Quick, 21, Some(2));
        let out = incremental(&ctx);
        assert_eq!(out.tables[0].rows.len(), 2);
        assert_eq!(out.notes.len(), 2);
    }
}
