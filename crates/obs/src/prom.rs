//! Prometheus text-format (0.0.4) rendering of a registry [`Snapshot`].
//!
//! cf-obs metric names are dotted (`online.predict_ns`) and stay dotted
//! in JSON snapshots; Prometheus requires `[a-zA-Z_:][a-zA-Z0-9_:]*`, so
//! the exporter normalizes on the way out: dots (and any other invalid
//! byte) become underscores and every series gains a `cfsf_` prefix —
//! `online.predict_ns` exports as `cfsf_online_predict_ns`. Label values
//! are escaped per the exposition format (`\\`, `\"`, `\n`) and
//! [`unescape_label_value`] inverts the escaping exactly (round-trip
//! tested).
//!
//! Mapping:
//! - counters → `# TYPE <name>_total counter`,
//! - gauges → `# TYPE <name> gauge`,
//! - histograms → `# TYPE <name> summary` with `quantile` labels for
//!   min/p50/p95/p99/p999/max plus `_sum` and `_count` (the histogram stores
//!   log buckets, not cumulative `le` buckets, so a summary is the
//!   honest translation),
//! - trace exemplars ([`crate::trace::exemplars`]) → a
//!   `cfsf_trace_exemplar` gauge family labelled with the source metric,
//!   value octave and trace id, linking latency buckets to captured
//!   traces the `/traces` endpoint can show.

use crate::trace;
use crate::Snapshot;
use std::fmt::Write;

/// Converts a dotted cf-obs metric name into a Prometheus-safe one:
/// every byte outside `[a-zA-Z0-9_:]` becomes `_`, and the result is
/// prefixed with `cfsf_` (which also fixes leading digits).
pub fn normalize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("cfsf_");
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() || ch == '_' || ch == ':' {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escapes a label value per the Prometheus exposition format:
/// backslash, double quote and newline get backslash-escaped.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(ch),
        }
    }
    out
}

/// Inverts [`escape_label_value`]. Unknown escape sequences are kept
/// verbatim (backslash included) rather than dropped.
pub fn unescape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    let mut chars = value.chars();
    while let Some(ch) = chars.next() {
        if ch != '\\' {
            out.push(ch);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('"') => out.push('"'),
            Some('n') => out.push('\n'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

fn write_f64(out: &mut String, v: f64) {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        let _ = write!(out, "{v:.0}");
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Formats one labeled series line, normalizing the metric name and
/// escaping every label value — the helper the fleet aggregator renders
/// per-shard series with (`cfsf_fleet_x{shard="3"} 7`).
pub fn format_series(name: &str, labels: &[(&str, &str)], value: u64) -> String {
    let mut out = normalize_metric_name(name);
    if !labels.is_empty() {
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
        }
        out.push('}');
    }
    let _ = write!(out, " {value}");
    out.push('\n');
    out
}

/// Renders one histogram summary family with fixed extra labels on every
/// series (quantile lines, `_sum`, `_count`).
pub fn format_summary(name: &str, labels: &[(&str, &str)], h: &crate::HistogramSnapshot) -> String {
    let pname = normalize_metric_name(name);
    let mut label_text = String::new();
    for (k, v) in labels {
        let _ = write!(label_text, "{k}=\"{}\",", escape_label_value(v));
    }
    let mut out = String::new();
    for (q, v) in [
        ("0", h.min),
        ("0.5", h.p50),
        ("0.95", h.p95),
        ("0.99", h.p99),
        ("0.999", h.p999),
        ("1", h.max),
    ] {
        let _ = writeln!(out, "{pname}{{{label_text}quantile=\"{q}\"}} {v}");
    }
    if label_text.is_empty() {
        let _ = writeln!(out, "{pname}_sum {}", h.sum);
        let _ = writeln!(out, "{pname}_count {}", h.count);
    } else {
        let trimmed = label_text.trim_end_matches(',');
        let _ = writeln!(out, "{pname}_sum{{{trimmed}}} {}", h.sum);
        let _ = writeln!(out, "{pname}_count{{{trimmed}}} {}", h.count);
    }
    out
}

/// Renders `snap` (plus the current trace exemplars) as Prometheus text
/// exposition format 0.0.4 — the `/metrics` payload.
pub fn render_prometheus(snap: &Snapshot) -> String {
    let mut out = String::with_capacity(4096);

    for (name, value) in &snap.counters {
        let pname = normalize_metric_name(name);
        let _ = writeln!(out, "# HELP {pname}_total cf-obs counter {name}");
        let _ = writeln!(out, "# TYPE {pname}_total counter");
        let _ = writeln!(out, "{pname}_total {value}");
    }

    for (name, value) in &snap.gauges {
        let pname = normalize_metric_name(name);
        let _ = writeln!(out, "# HELP {pname} cf-obs gauge {name}");
        let _ = writeln!(out, "# TYPE {pname} gauge");
        let _ = writeln!(out, "{pname} {value}");
    }

    for (name, h) in &snap.histograms {
        let pname = normalize_metric_name(name);
        let _ = writeln!(out, "# HELP {pname} cf-obs histogram {name}");
        let _ = writeln!(out, "# TYPE {pname} summary");
        out.push_str(&format_summary(name, &[], h));
    }

    let exemplars = trace::exemplars();
    if !exemplars.is_empty() {
        let _ = writeln!(
            out,
            "# HELP cfsf_trace_exemplar captured trace id standing in for a histogram value octave"
        );
        let _ = writeln!(out, "# TYPE cfsf_trace_exemplar gauge");
        for (metric, octave, ex) in &exemplars {
            let mut line = format!(
                "cfsf_trace_exemplar{{metric=\"{}\",octave=\"{octave}\",trace_id=\"{}\"}} ",
                escape_label_value(metric),
                ex.trace_id
            );
            write_f64(&mut line, ex.value as f64);
            let _ = writeln!(out, "{line}");
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn normalize_replaces_dots_and_invalid_bytes() {
        assert_eq!(
            normalize_metric_name("online.predict_ns"),
            "cfsf_online_predict_ns"
        );
        assert_eq!(
            normalize_metric_name("online.degrade.user_mean"),
            "cfsf_online_degrade_user_mean"
        );
        assert_eq!(normalize_metric_name("weird name-1%"), "cfsf_weird_name_1_");
        assert_eq!(normalize_metric_name("9starts.digit"), "cfsf_9starts_digit");
        // Result must match the Prometheus metric-name grammar.
        let n = normalize_metric_name("a.b-c d/e");
        assert!(n
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'));
        assert!(!n.starts_with(|c: char| c.is_ascii_digit()));
    }

    #[test]
    fn label_escaping_round_trips() {
        let cases = [
            "plain",
            "with \"quotes\"",
            "back\\slash",
            "new\nline",
            "mix \\\"\n\\n end",
            "",
            "trailing\\",
        ];
        for case in cases {
            let escaped = escape_label_value(case);
            assert!(!escaped.contains('\n'), "escaped must be single-line");
            assert_eq!(
                unescape_label_value(&escaped),
                case,
                "round-trip failed for {case:?} via {escaped:?}"
            );
        }
    }

    #[test]
    fn json_snapshot_keeps_dotted_names() {
        let r = Registry::new();
        r.counter("online.predictions").inc();
        let json = r.snapshot().to_json();
        assert!(json.contains("\"online.predictions\""), "{json}");
        assert!(!json.contains("cfsf_online_predictions"), "{json}");
    }

    #[test]
    fn render_emits_counter_gauge_and_summary_series() {
        let r = Registry::new();
        r.counter("online.predictions").add(42);
        r.gauge("online.cache.hit_ratio_pm").set(937);
        for v in [100u64, 200, 50_000] {
            r.histogram("online.predict_ns").record(v);
        }
        let text = render_prometheus(&r.snapshot());

        assert!(text.contains("# TYPE cfsf_online_predictions_total counter"));
        assert!(text.contains("cfsf_online_predictions_total 42"));
        assert!(text.contains("# TYPE cfsf_online_cache_hit_ratio_pm gauge"));
        assert!(text.contains("cfsf_online_cache_hit_ratio_pm 937"));
        assert!(text.contains("# TYPE cfsf_online_predict_ns summary"));
        assert!(text.contains("cfsf_online_predict_ns{quantile=\"0.99\"}"));
        assert!(text.contains("cfsf_online_predict_ns_count 3"));
        assert!(text.contains("cfsf_online_predict_ns_sum 50300"));
        // No dotted names may leak into the exposition text.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let series = line.split(&[' ', '{'][..]).next().unwrap_or("");
            assert!(!series.contains('.'), "dotted series leaked: {line}");
        }
    }
}
