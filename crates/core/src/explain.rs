//! Prediction explanations — the "because you liked … and users like you
//! rated …" surface a production recommender needs on top of raw scores.
//!
//! [`Cfsf::explain`] reruns the online phase for one request and reports
//! which similar items and like-minded users actually moved the
//! prediction, each with its contribution weight. The contributions are
//! the very terms of the Eq. 12 sums, read at full `f64` precision from
//! the dense ratings — so an evidence-weighted reconstruction of an
//! estimator matches the served (quantized-plane, DESIGN.md §6c) value to
//! within the plane quantization step, not bit-exactly.

use cf_matrix::{ItemId, UserId};
use cf_similarity::smoothing_weight;

use crate::{Cfsf, PredictionBreakdown};

/// One similar item's contribution to `SIR'`.
#[derive(Debug, Clone, PartialEq)]
pub struct ItemEvidence {
    /// The similar item.
    pub item: ItemId,
    /// Its GIS similarity to the active item.
    pub similarity: f64,
    /// The active user's (possibly smoothed) rating of it.
    pub rating: f64,
    /// Whether that rating was user-given (vs. imputed by smoothing).
    pub original: bool,
    /// The term's normalized weight within the `SIR'` sum (sums to 1).
    pub weight: f64,
}

/// One like-minded user's contribution to `SUR'`.
#[derive(Debug, Clone, PartialEq)]
pub struct UserEvidence {
    /// The like-minded user.
    pub user: UserId,
    /// Their Eq. 10 similarity to the active user.
    pub similarity: f64,
    /// Their (possibly smoothed) rating of the active item.
    pub rating: f64,
    /// Whether that rating was user-given.
    pub original: bool,
    /// The term's normalized weight within the `SUR'` sum (sums to 1).
    pub weight: f64,
}

/// A full explanation of one prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct Explanation {
    /// The component values and the fused prediction.
    pub breakdown: PredictionBreakdown,
    /// Similar-item evidence, strongest weight first.
    pub item_evidence: Vec<ItemEvidence>,
    /// Like-minded-user evidence, strongest weight first.
    pub user_evidence: Vec<UserEvidence>,
}

impl Cfsf {
    /// Explains the prediction for `(user, item)`: the breakdown plus the
    /// individual evidence terms, strongest first. Returns `None` exactly
    /// when [`Cfsf::predict`](cf_matrix::Predictor::predict) would.
    pub fn explain(&self, user: UserId, item: ItemId) -> Option<Explanation> {
        let breakdown = self.predict_with_breakdown(user, item)?;
        let eps = self.config.w;
        let dense = self.dense();

        // Reconstruct the SIR' terms.
        let row_b = dense.row(user);
        let mut item_evidence: Vec<ItemEvidence> = Vec::new();
        let mut sir_den = 0.0;
        for &(i_s, sim_s) in self.gis.top_m(item, self.config.m) {
            let r = row_b[i_s.index()];
            if r.is_nan() {
                continue;
            }
            let original = dense.is_original(user, i_s);
            let w = smoothing_weight(original, eps) * sim_s;
            sir_den += w;
            item_evidence.push(ItemEvidence {
                item: i_s,
                similarity: sim_s,
                rating: r,
                original,
                weight: w, // normalized below
            });
        }
        if sir_den > f64::EPSILON {
            for e in &mut item_evidence {
                e.weight /= sir_den;
            }
        }
        item_evidence.sort_by(|a, b| b.weight.total_cmp(&a.weight).then(a.item.cmp(&b.item)));

        // Reconstruct the SUR' terms.
        let mut user_evidence: Vec<UserEvidence> = Vec::new();
        let mut sur_den = 0.0;
        for &(u_t, sim_t) in self.top_k_users(user).iter() {
            let Some(r) = dense.get(u_t, item) else {
                continue;
            };
            let original = dense.is_original(u_t, item);
            let w = smoothing_weight(original, eps) * sim_t;
            sur_den += w;
            user_evidence.push(UserEvidence {
                user: u_t,
                similarity: sim_t,
                rating: r,
                original,
                weight: w,
            });
        }
        if sur_den > f64::EPSILON {
            for e in &mut user_evidence {
                e.weight /= sur_den;
            }
        }
        user_evidence.sort_by(|a, b| b.weight.total_cmp(&a.weight).then(a.user.cmp(&b.user)));

        Some(Explanation {
            breakdown,
            item_evidence,
            user_evidence,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CfsfConfig;
    use cf_data::SyntheticConfig;

    fn model() -> Cfsf {
        let d = SyntheticConfig::small().generate();
        Cfsf::fit(&d.matrix, CfsfConfig::small()).unwrap()
    }

    #[test]
    fn evidence_weights_are_normalized_and_sorted() {
        let m = model();
        let mut seen = 0;
        for u in 0..15usize {
            for i in 0..15usize {
                let Some(e) = m.explain(UserId::from(u), ItemId::from(i)) else {
                    continue;
                };
                if !e.item_evidence.is_empty() {
                    let total: f64 = e.item_evidence.iter().map(|x| x.weight).sum();
                    assert!((total - 1.0).abs() < 1e-9, "item weights sum {total}");
                    assert!(e
                        .item_evidence
                        .windows(2)
                        .all(|w| w[0].weight >= w[1].weight));
                    seen += 1;
                }
                if !e.user_evidence.is_empty() {
                    let total: f64 = e.user_evidence.iter().map(|x| x.weight).sum();
                    assert!((total - 1.0).abs() < 1e-9, "user weights sum {total}");
                }
            }
        }
        assert!(seen > 10, "too few explanations had item evidence");
    }

    #[test]
    fn explanation_is_consistent_with_prediction() {
        use cf_matrix::Predictor;
        let m = model();
        for u in 0..10usize {
            let e = m.explain(UserId::from(u), ItemId::new(3));
            let p = m.predict(UserId::from(u), ItemId::new(3));
            assert_eq!(e.map(|x| x.breakdown.fused), p);
        }
    }

    #[test]
    fn evidence_terms_reconstruct_sir_component() {
        let m = model();
        for u in 0..20usize {
            let Some(e) = m.explain(UserId::from(u), ItemId::new(7)) else {
                continue;
            };
            let Some(sir) = e.breakdown.sir else { continue };
            let recon: f64 = e.item_evidence.iter().map(|x| x.weight * x.rating).sum();
            // Evidence ratings are exact f64; the served SIR' reads
            // quantized planes, so the gap is bounded by the plane step.
            let tol = m.plane_quant_step() + 1e-9;
            assert!((recon - sir).abs() < tol, "recon {recon} vs sir {sir}");
            return; // one verified case is enough
        }
        panic!("no explanation with a SIR' component found");
    }

    #[test]
    fn evidence_counts_respect_m_and_k() {
        let m = model();
        for u in 0..8usize {
            if let Some(e) = m.explain(UserId::from(u), ItemId::new(2)) {
                assert!(e.item_evidence.len() <= m.config().m);
                assert!(e.user_evidence.len() <= m.config().k);
            }
        }
    }

    #[test]
    fn out_of_range_gives_none() {
        let m = model();
        assert!(m.explain(UserId::new(9_999), ItemId::new(0)).is_none());
    }
}
