//! Declared service-level objectives with multi-window error-budget
//! burn rates.
//!
//! An SLO here is a *budgeted bad-event ratio*: "p999 ≤ X ms" is
//! expressed as "at most 1‰ of requests may be slower than X ms", and
//! "degrade rate ≤ Y‰" as "at most Y‰ of predictions may be served from
//! the ladder's fallback region". Both reduce to a pair of cumulative
//! monotone quantities — bad events and total events — that the
//! mergeable snapshot form ([`MergeSnapshot`]) carries exactly, which is
//! what makes the math fleet-safe: the router evaluates objectives over
//! the *merged* histograms, so a shard cannot hide a tail by being small.
//!
//! Bad-event counts for latency objectives come from the log-bucket
//! histogram via [`crate::HistogramBuckets::count_over`]: because bucket
//! boundaries are deterministic and shared fleet-wide, the "slower than
//! X" count after a merge equals the sum of the per-shard counts —
//! no re-binning error.
//!
//! **Burn rate** follows the SRE convention: the observed bad-event
//! ratio over a trailing window divided by the budgeted ratio. Burn 1.0
//! (gauged as 1000 milli) means the budget is being consumed exactly at
//! the sustainable pace; 14 means a page. The engine keeps a bounded
//! ring of cumulative ticks and differences them per window, so rates
//! need no per-request storage — two scrapes of mergeable counters are
//! enough.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use crate::merge::MergeSnapshot;

/// Default burn-rate windows: 1 minute, 5 minutes, 1 hour.
pub const DEFAULT_WINDOWS: [Duration; 3] = [
    Duration::from_secs(60),
    Duration::from_secs(300),
    Duration::from_secs(3600),
];

/// Upper bound on retained ticks; beyond it the oldest are dropped.
const MAX_TICKS: usize = 4096;

/// What counts as a bad event for one objective.
#[derive(Debug, Clone)]
pub enum SloKind {
    /// Samples of `histogram` above `max_ns` are bad; at most
    /// `budget_pm` per mille of samples may be bad. "p999 ≤ X" is
    /// `budget_pm: 1`.
    Latency {
        /// Histogram name in the (merged) snapshot.
        histogram: String,
        /// Threshold in nanoseconds.
        max_ns: u64,
        /// Budgeted bad ratio, per mille.
        budget_pm: u32,
    },
    /// `bad` counters (summed) over `total` counters (summed) must stay
    /// within `budget_pm` per mille.
    Ratio {
        /// Counter names whose sum is the bad-event count.
        bad: Vec<String>,
        /// Counter names whose sum is the total-event count.
        total: Vec<String>,
        /// Budgeted bad ratio, per mille.
        budget_pm: u32,
    },
}

impl SloKind {
    /// The objective's budgeted bad ratio in per mille.
    pub fn budget_pm(&self) -> u32 {
        match self {
            SloKind::Latency { budget_pm, .. } | SloKind::Ratio { budget_pm, .. } => *budget_pm,
        }
    }
}

/// One declared objective.
#[derive(Debug, Clone)]
pub struct SloSpec {
    /// Stable snake_case name, used in gauge names and the report.
    pub name: String,
    /// The objective's bad-event definition and budget.
    pub kind: SloKind,
}

/// The default serving objectives: request p999 ≤ `p999_max_ms`
/// (expressed as ≤1‰ of requests slower than the threshold) and a
/// degrade-to-fallback rate ≤ `degrade_budget_pm`.
pub fn serving_slos(p999_max_ms: u64, degrade_budget_pm: u32) -> Vec<SloSpec> {
    vec![
        SloSpec {
            name: "latency_p999".to_string(),
            kind: SloKind::Latency {
                histogram: crate::trace::REQUEST_HISTOGRAM.to_string(),
                max_ns: p999_max_ms.saturating_mul(1_000_000),
                budget_pm: 1,
            },
        },
        SloSpec {
            name: "degrade_rate".to_string(),
            kind: SloKind::Ratio {
                bad: crate::quality::FALLBACK_RUNGS
                    .iter()
                    .map(|r| format!("online.degrade.{r}"))
                    .collect(),
                total: crate::quality::RUNGS
                    .iter()
                    .map(|r| format!("online.degrade.{r}"))
                    .collect(),
                budget_pm: degrade_budget_pm,
            },
        },
    ]
}

/// Cumulative (bad, total) extracted from one snapshot for one spec.
#[derive(Debug, Clone, Copy, Default)]
struct CumSample {
    bad: u64,
    total: u64,
}

#[derive(Debug)]
struct Tick {
    at: Instant,
    samples: Vec<CumSample>,
}

/// Evaluates a set of [`SloSpec`]s against a stream of cumulative
/// mergeable snapshots, producing burn-rate gauges and a JSON report.
/// Callers pass `now` explicitly so evaluation is deterministic in tests
/// and the engine never reads the clock itself.
pub struct SloEngine {
    specs: Vec<SloSpec>,
    windows: Vec<Duration>,
    history: VecDeque<Tick>,
}

fn window_label(w: Duration) -> String {
    let s = w.as_secs();
    if s >= 3600 && s.is_multiple_of(3600) {
        format!("{}h", s / 3600)
    } else if s >= 60 && s.is_multiple_of(60) {
        format!("{}m", s / 60)
    } else {
        format!("{s}s")
    }
}

fn extract(spec: &SloSpec, snap: &MergeSnapshot) -> CumSample {
    match &spec.kind {
        SloKind::Latency {
            histogram, max_ns, ..
        } => match snap.histograms.get(histogram) {
            Some(h) => CumSample {
                bad: h.count_over(*max_ns),
                total: h.count,
            },
            None => CumSample::default(),
        },
        SloKind::Ratio { bad, total, .. } => {
            let sum = |names: &[String]| {
                names
                    .iter()
                    .map(|n| snap.counters.get(n).copied().unwrap_or(0))
                    .fold(0u64, u64::saturating_add)
            };
            CumSample {
                bad: sum(bad),
                total: sum(total),
            }
        }
    }
}

fn bad_pm(bad: u64, total: u64) -> i64 {
    if total == 0 {
        0
    } else {
        ((bad as f64 / total as f64) * 1000.0).round() as i64
    }
}

fn burn_milli(bad: u64, total: u64, budget_pm: u32) -> i64 {
    if total == 0 {
        return 0;
    }
    let ratio = bad as f64 / total as f64;
    let budget = budget_pm as f64 / 1000.0;
    if budget <= 0.0 {
        // A zero budget: any bad event is an infinite burn; clamp.
        return if bad > 0 { i64::MAX } else { 0 };
    }
    ((ratio / budget) * 1000.0).round().min(i64::MAX as f64) as i64
}

impl SloEngine {
    /// An engine over `specs`, computing burn rates for `windows`.
    pub fn new(specs: Vec<SloSpec>, windows: Vec<Duration>) -> Self {
        let mut windows = windows;
        windows.sort();
        windows.dedup();
        SloEngine {
            specs,
            windows,
            history: VecDeque::new(),
        }
    }

    /// The declared objectives.
    pub fn specs(&self) -> &[SloSpec] {
        &self.specs
    }

    /// Records one cumulative snapshot taken at `now`. Call on every
    /// aggregator poll; storage is bounded (per-spec scalars per tick,
    /// pruned past the longest window).
    pub fn observe(&mut self, snap: &MergeSnapshot, now: Instant) {
        let samples = self.specs.iter().map(|s| extract(s, snap)).collect();
        self.history.push_back(Tick { at: now, samples });
        let horizon = self.windows.last().copied().unwrap_or(Duration::ZERO);
        // Keep exactly one tick at-or-past the horizon as the baseline
        // for the longest window; everything older is dead weight.
        while self.history.len() > 2 {
            let second_oldest_at = self.history[1].at;
            if now.saturating_duration_since(second_oldest_at) >= horizon {
                self.history.pop_front();
            } else {
                break;
            }
        }
        while self.history.len() > MAX_TICKS {
            self.history.pop_front();
        }
    }

    /// Burn-rate / budget gauges for every spec × window as of `now`:
    ///
    /// - `slo.<name>.burn_milli.<window>` — window burn rate × 1000
    ///   (1000 = consuming budget exactly at the sustainable pace),
    /// - `slo.<name>.bad_pm.<window>` — observed bad ratio per mille,
    /// - `slo.<name>.attainment_pm` — cumulative good ratio per mille,
    /// - `slo.<name>.budget_pm` — the declared budget (for dashboards).
    pub fn gauges(&self, now: Instant) -> Vec<(String, i64)> {
        let mut out = Vec::new();
        let Some(latest) = self.history.back() else {
            return out;
        };
        for (i, spec) in self.specs.iter().enumerate() {
            let budget = spec.kind.budget_pm();
            let cur = latest.samples.get(i).copied().unwrap_or_default();
            out.push((format!("slo.{}.budget_pm", spec.name), budget as i64));
            out.push((
                format!("slo.{}.attainment_pm", spec.name),
                1000 - bad_pm(cur.bad, cur.total),
            ));
            for &w in &self.windows {
                let label = window_label(w);
                let base = self.baseline(w, now);
                let base = base
                    .and_then(|t| t.samples.get(i).copied())
                    .unwrap_or_default();
                let db = cur.bad.saturating_sub(base.bad);
                let dt = cur.total.saturating_sub(base.total);
                out.push((format!("slo.{}.bad_pm.{label}", spec.name), bad_pm(db, dt)));
                out.push((
                    format!("slo.{}.burn_milli.{label}", spec.name),
                    burn_milli(db, dt, budget),
                ));
            }
        }
        out
    }

    /// The newest tick old enough to cover window `w`. `None` when
    /// uptime is shorter than the window — callers use a zero baseline
    /// then, because every cumulative event so far happened inside it.
    fn baseline(&self, w: Duration, now: Instant) -> Option<&Tick> {
        self.history
            .iter()
            .rev()
            .find(|t| now.saturating_duration_since(t.at) >= w)
    }

    /// Writes the current gauges into the global registry so they appear
    /// on `/metrics` next to everything else.
    pub fn publish(&self, now: Instant) {
        for (name, v) in self.gauges(now) {
            crate::global().gauge(&name).set(v);
        }
    }

    /// Renders the full SLO report as JSON — the `BENCH_slo.json`
    /// payload the router's `--slo-report` path dumps.
    pub fn report_json(&self, now: Instant) -> String {
        let mut w = crate::json::Writer::new();
        w.begin_object();
        w.key("version");
        w.number_u64(1);
        w.key("windows");
        w.begin_object();
        for &win in &self.windows {
            w.key(&window_label(win));
            w.number_u64(win.as_secs());
        }
        w.end_object();
        w.key("objectives");
        w.begin_object();
        let latest = self.history.back();
        for (i, spec) in self.specs.iter().enumerate() {
            w.key(&spec.name);
            w.begin_object();
            w.key("kind");
            match &spec.kind {
                SloKind::Latency {
                    histogram, max_ns, ..
                } => {
                    w.string("latency");
                    w.key("histogram");
                    w.string(histogram);
                    w.key("max_ns");
                    w.number_u64(*max_ns);
                }
                SloKind::Ratio { bad, total, .. } => {
                    w.string("ratio");
                    w.key("bad_counters");
                    w.number_u64(bad.len() as u64);
                    w.key("total_counters");
                    w.number_u64(total.len() as u64);
                }
            }
            w.key("budget_pm");
            w.number_u64(spec.kind.budget_pm() as u64);
            let cur = latest
                .and_then(|t| t.samples.get(i).copied())
                .unwrap_or_default();
            w.key("cumulative");
            w.begin_object();
            w.key("bad");
            w.number_u64(cur.bad);
            w.key("total");
            w.number_u64(cur.total);
            w.key("bad_pm");
            w.number_i64(bad_pm(cur.bad, cur.total));
            w.key("attainment_pm");
            w.number_i64(1000 - bad_pm(cur.bad, cur.total));
            w.end_object();
            w.key("burn");
            w.begin_object();
            for &win in &self.windows {
                let base = self
                    .baseline(win, now)
                    .and_then(|t| t.samples.get(i).copied())
                    .unwrap_or_default();
                let db = cur.bad.saturating_sub(base.bad);
                let dt = cur.total.saturating_sub(base.total);
                w.key(&window_label(win));
                w.begin_object();
                w.key("bad_pm");
                w.number_i64(bad_pm(db, dt));
                w.key("burn_milli");
                w.number_i64(burn_milli(db, dt, spec.kind.budget_pm()));
                w.end_object();
            }
            w.end_object();
            w.end_object();
        }
        w.end_object();
        w.end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn latency_spec(max_ns: u64, budget_pm: u32) -> SloSpec {
        SloSpec {
            name: "lat".to_string(),
            kind: SloKind::Latency {
                histogram: "req_ns".to_string(),
                max_ns,
                budget_pm,
            },
        }
    }

    fn snap_with_latencies(values: &[u64]) -> MergeSnapshot {
        let reg = Registry::new();
        let h = reg.histogram("req_ns");
        for &v in values {
            h.record(v);
        }
        MergeSnapshot::of(&reg)
    }

    #[test]
    fn burn_rate_reflects_window_deltas_not_cumulative_totals() {
        let mut eng = SloEngine::new(
            vec![latency_spec(1_000_000, 10)], // ≤1ms for 99%: budget 10‰
            vec![Duration::from_secs(60)],
        );
        let t0 = Instant::now();
        // First minute: all fast.
        eng.observe(&snap_with_latencies(&[100_000; 100]), t0);
        // Second minute: 100 more requests, 50 of them slow.
        let mut vals = vec![100_000u64; 50];
        vals.extend([100_000; 100]);
        vals.extend([50_000_000u64; 50]);
        let t1 = t0 + Duration::from_secs(60);
        eng.observe(&snap_with_latencies(&vals), t1);

        let g: std::collections::BTreeMap<String, i64> = eng.gauges(t1).into_iter().collect();
        // Window delta: 100 new requests, 50 bad → 500‰ bad, budget 10‰
        // → burn 50× → 50_000 milli.
        assert_eq!(g["slo.lat.bad_pm.1m"], 500);
        assert_eq!(g["slo.lat.burn_milli.1m"], 50_000);
        assert_eq!(g["slo.lat.budget_pm"], 10);
        // Cumulative: 50 bad of 200 → 250‰ → attainment 750‰.
        assert_eq!(g["slo.lat.attainment_pm"], 750);
    }

    #[test]
    fn zero_traffic_windows_burn_nothing() {
        let mut eng = SloEngine::new(vec![latency_spec(1_000, 1)], vec![Duration::from_secs(60)]);
        let t0 = Instant::now();
        eng.observe(&snap_with_latencies(&[]), t0);
        let g: std::collections::BTreeMap<String, i64> = eng
            .gauges(t0 + Duration::from_secs(120))
            .into_iter()
            .collect();
        assert_eq!(g["slo.lat.burn_milli.1m"], 0);
        assert_eq!(g["slo.lat.attainment_pm"], 1000);
    }

    #[test]
    fn ratio_objective_sums_counters() {
        let reg = Registry::new();
        reg.counter("deg.bad").add(5);
        reg.counter("deg.ok").add(95);
        let snap = MergeSnapshot::of(&reg);
        let mut eng = SloEngine::new(
            vec![SloSpec {
                name: "deg".to_string(),
                kind: SloKind::Ratio {
                    bad: vec!["deg.bad".to_string()],
                    total: vec!["deg.bad".to_string(), "deg.ok".to_string()],
                    budget_pm: 50,
                },
            }],
            vec![Duration::from_secs(60)],
        );
        let t0 = Instant::now();
        eng.observe(&snap, t0);
        let g: std::collections::BTreeMap<String, i64> = eng.gauges(t0).into_iter().collect();
        // 5 bad / 100 total = 50‰ = exactly the budget → burn 1000 milli.
        assert_eq!(g["slo.deg.bad_pm.1m"], 50);
        assert_eq!(g["slo.deg.burn_milli.1m"], 1000);
    }

    #[test]
    fn history_is_pruned_past_the_longest_window() {
        let mut eng = SloEngine::new(vec![latency_spec(1_000, 1)], vec![Duration::from_secs(60)]);
        let t0 = Instant::now();
        for i in 0..500 {
            eng.observe(&snap_with_latencies(&[10]), t0 + Duration::from_secs(i));
        }
        assert!(
            eng.history.len() < 70,
            "ticks past the horizon must be pruned, got {}",
            eng.history.len()
        );
    }

    #[test]
    fn report_json_names_objectives_windows_and_burn() {
        let mut eng = SloEngine::new(
            serving_slos(5, 100),
            vec![Duration::from_secs(60), Duration::from_secs(3600)],
        );
        let reg = Registry::new();
        reg.histogram(crate::trace::REQUEST_HISTOGRAM).record(1_000);
        reg.counter("online.degrade.full").add(10);
        reg.counter("online.degrade.global_mean").add(1);
        let t0 = Instant::now();
        eng.observe(&MergeSnapshot::of(&reg), t0);
        let json = eng.report_json(t0);
        for needle in [
            "\"latency_p999\"",
            "\"degrade_rate\"",
            "\"1m\"",
            "\"1h\"",
            "\"burn_milli\"",
            "\"attainment_pm\"",
            "\"budget_pm\": 100",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn publish_writes_gauges_into_the_global_registry() {
        let mut eng = SloEngine::new(vec![latency_spec(1_000_000, 1)], DEFAULT_WINDOWS.to_vec());
        let t0 = Instant::now();
        eng.observe(&snap_with_latencies(&[500, 700]), t0);
        eng.publish(t0);
        let snap = crate::global().snapshot();
        assert_eq!(snap.gauges["slo.lat.attainment_pm"], 1000);
        assert!(snap.gauges.contains_key("slo.lat.burn_milli.5m"));
    }
}
