//! Ablation experiments for the design choices DESIGN.md calls out.
//!
//! None of these appear as figures in the paper, but each isolates one of
//! its claims:
//!
//! - **local vs global** — does the local `M × K` reduction actually buy
//!   latency without losing accuracy? (CFSF vs the SF baseline, which
//!   fuses the same three estimators over the whole matrix.)
//! - **smoothing on/off** — §IV-D motivates smoothing by sparsity and
//!   rating-style diversity.
//! - **SUIR' on/off** — §V-E2 says SUIR' helps "but not significantly".
//! - **iCluster candidate walk vs whole-population ranking** — §IV-E2's
//!   selection shortcut.

use cf_data::GivenN;
use cfsf_core::Cfsf;

use crate::metrics::evaluate_mae;
use crate::table::{fmt_mae, fmt_secs, Table};
use crate::timing::{median_times, time_predictions, TIMING_ROUNDS};

use super::{ExperimentContext, ExperimentOutput};

/// Runs all four ablations on the largest training set at Given10.
pub fn ablations(ctx: &ExperimentContext) -> ExperimentOutput {
    let train = ctx.largest_train();
    let split = ctx.split(train, GivenN::Given10);
    let base = ctx.fit_cfsf(&split.train);

    let sf = ctx.fit_baseline("SF", &split.train);
    let no_smooth = base
        .reparameterize(|c| c.use_smoothing = false)
        .expect("valid");
    let no_suir = base.reparameterize(|c| c.delta = 0.0).expect("valid");
    let whole = base
        .reparameterize(|c| c.candidate_factor = usize::MAX / c.k.max(1))
        .expect("valid");

    // Every CFSF variant starts each round with a cold neighbor cache.
    let cold = |model: &Cfsf| {
        model.clear_caches();
        time_predictions(model, &split.holdout)
    };
    let [t, t_sf, t_ns, t_nd, t_w] = median_times([
        &|| cold(&base),
        &|| time_predictions(sf.as_ref(), &split.holdout),
        &|| cold(&no_smooth),
        &|| cold(&no_suir),
        &|| cold(&whole),
    ]);

    let mut table = Table::new(
        format!("Ablations (largest training set, Given10; median time of {TIMING_ROUNDS} rounds)"),
        &["variant", "MAE", "online time (s)"],
    );
    let mut notes = Vec::new();

    let mae_base = evaluate_mae(&base, &split.holdout);
    table.push_row(vec!["CFSF (full)".into(), fmt_mae(mae_base), fmt_secs(t)]);

    // 1. Global fusion (SF) against local CFSF.
    let mae_sf = evaluate_mae(sf.as_ref(), &split.holdout);
    table.push_row(vec![
        "global fusion (SF)".into(),
        fmt_mae(mae_sf),
        fmt_secs(t_sf),
    ]);
    notes.push(format!(
        "local vs global: CFSF MAE {:.3} vs SF {:.3}; the local matrix must not cost accuracy",
        mae_base, mae_sf
    ));

    // 2. Smoothing off.
    let mae_ns = evaluate_mae(&no_smooth, &split.holdout);
    table.push_row(vec!["no smoothing".into(), fmt_mae(mae_ns), fmt_secs(t_ns)]);
    notes.push(format!(
        "smoothing: on {:.3} vs off {:.3} (paper: smoothing combats sparsity/diversity) — {}",
        mae_base,
        mae_ns,
        if mae_base <= mae_ns { "helps" } else { "HURTS" }
    ));

    // 3. SUIR' off (δ = 0).
    let mae_nd = evaluate_mae(&no_suir, &split.holdout);
    table.push_row(vec![
        "delta = 0 (no SUIR')".into(),
        fmt_mae(mae_nd),
        fmt_secs(t_nd),
    ]);
    notes.push(format!(
        "SUIR': with {:.3} vs without {:.3} (paper: small improvement from SUIR')",
        mae_base, mae_nd
    ));

    // 4. iCluster walk vs whole-population candidate pool.
    let mae_w = evaluate_mae(&whole, &split.holdout);
    table.push_row(vec![
        "whole-population candidates".into(),
        fmt_mae(mae_w),
        fmt_secs(t_w),
    ]);
    notes.push(format!(
        "iCluster walk: MAE {:.3} in {:.3}s vs whole-population {:.3} in {:.3}s \
         (the walk should be close in accuracy and cheaper per cold user)",
        mae_base,
        t.as_secs_f64(),
        mae_w,
        t_w.as_secs_f64()
    ));

    ExperimentOutput {
        id: "ablations".into(),
        title: "Ablations".into(),
        tables: vec![table],
        notes,
        charts: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Scale;

    #[test]
    fn ablations_produce_five_rows() {
        let ctx = ExperimentContext::new(Scale::Quick, 9, Some(2));
        let out = ablations(&ctx);
        assert_eq!(out.tables[0].rows.len(), 5);
        assert_eq!(out.notes.len(), 4);
        for row in &out.tables[0].rows {
            let mae: f64 = row[1].parse().unwrap();
            assert!(mae > 0.0 && mae < 4.0, "MAE {mae}");
        }
    }
}
