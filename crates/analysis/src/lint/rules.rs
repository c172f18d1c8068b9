//! The rule catalog.
//!
//! Every rule works on the scanner's decomposed lines ([`super::FileScan`]):
//! comments and string contents are already blanked out of `code`, and
//! `in_test` marks `#[cfg(test)]` regions plus `tests/`/`benches/` files,
//! so the matching below is plain token scanning with word-boundary
//! checks — deliberately simple, reviewable, and dependency-free.

use super::{Diagnostic, FileScan};

/// Static description of one rule, for `--list-rules` and suppression
/// validation.
pub struct RuleInfo {
    /// Stable id used in diagnostics, suppressions, and the allowlist.
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
}

/// The full catalog.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "no-unwrap",
        summary: "no unwrap/expect/panic!/unreachable!/todo! in production code \
                  (tests, benches, and allowlisted files exempt)",
    },
    RuleInfo {
        id: "hot-path-clock",
        summary: "no Instant::now/SystemTime::now in hot-path modules (online.rs, \
                  cache.rs, trace.rs) unless an enabled() gate appears within the \
                  previous 25 lines",
    },
    RuleInfo {
        id: "float-eq",
        summary: "no ==/!= against a float literal in production code; use the \
                  cf_matrix approx helpers",
    },
    RuleInfo {
        id: "bare-sync-prim",
        summary: "no new `static mut` or bare std::sync::Mutex in crates/core or \
                  crates/obs; use the poison-recovering wrappers in cf_obs::sync",
    },
    RuleInfo {
        id: "counter-pairing",
        summary: "every online.degrade.* / online.neighbor_cache.* / cache.* \
                  counter increment site must have a matching test reference",
    },
    RuleInfo {
        id: "unwind-safe-mut",
        summary: "no AssertUnwindSafe over a closure capturing &mut (over-broad \
                  unwind capture can observe broken invariants)",
    },
    RuleInfo {
        id: "model-access-outside-generation",
        summary: "no naming the concrete model type (Cfsf) in crates/serve/src \
                  outside live.rs; serve paths load snapshots through ModelHandle \
                  so generation swaps stay zero-pause",
    },
];

/// Files whose clock reads must sit behind the obs enabled-gate.
const HOT_PATH_FILES: &[&str] = &[
    "crates/core/src/online.rs",
    "crates/core/src/cache.rs",
    "crates/obs/src/trace.rs",
];

/// Counter-name prefixes that require a paired test reference.
const PAIRED_COUNTER_PREFIXES: &[&str] = &["online.degrade.", "online.neighbor_cache.", "cache."];

/// How many lines above a clock read an `enabled()` gate may sit.
const CLOCK_GATE_WINDOW: usize = 25;

/// True when `code[pos]` starts a token (previous char is not part of an
/// identifier), so `RecoverMutex<` never matches a `Mutex<` search.
fn at_word_boundary(code: &str, pos: usize) -> bool {
    pos == 0
        || !code[..pos]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
}

fn find_token(code: &str, token: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(off) = code[from..].find(token) {
        let pos = from + off;
        if at_word_boundary(code, pos) {
            return Some(pos);
        }
        from = pos + 1;
    }
    None
}

/// Runs every single-file rule over one scan.
pub fn check_file(scan: &FileScan, out: &mut Vec<Diagnostic>) {
    no_unwrap(scan, out);
    hot_path_clock(scan, out);
    float_eq(scan, out);
    bare_sync_prim(scan, out);
    unwind_safe_mut(scan, out);
    model_access_outside_generation(scan, out);
}

// --------------------------------------------------------------------------
// no-unwrap
// --------------------------------------------------------------------------

const PANICKY_TOKENS: &[(&str, &str)] = &[
    (".unwrap()", "unwrap"),
    (".expect(", "expect"),
    ("panic!(", "panic!"),
    ("unreachable!(", "unreachable!"),
    ("todo!(", "todo!"),
    ("unimplemented!(", "unimplemented!"),
];

fn no_unwrap(scan: &FileScan, out: &mut Vec<Diagnostic>) {
    for (i, l) in scan.lines.iter().enumerate() {
        if l.in_test {
            continue;
        }
        for (tok, name) in PANICKY_TOKENS {
            let hit = if tok.starts_with('.') {
                l.code.contains(tok)
            } else {
                find_token(&l.code, tok).is_some()
            };
            if hit {
                out.push(Diagnostic {
                    rule: "no-unwrap",
                    path: scan.path.clone(),
                    line: i + 1,
                    message: format!(
                        "`{name}` in production code; return an error, use the \
                         recovering wrappers, or allowlist this file"
                    ),
                });
            }
        }
    }
}

// --------------------------------------------------------------------------
// hot-path-clock
// --------------------------------------------------------------------------

fn hot_path_clock(scan: &FileScan, out: &mut Vec<Diagnostic>) {
    if !HOT_PATH_FILES.iter().any(|f| scan.path.ends_with(f)) {
        return;
    }
    for (i, l) in scan.lines.iter().enumerate() {
        if l.in_test {
            continue;
        }
        let clock = ["Instant::now", "SystemTime::now"]
            .iter()
            .find(|t| l.code.contains(*t));
        let Some(clock) = clock else {
            continue;
        };
        let gated = scan.lines[i.saturating_sub(CLOCK_GATE_WINDOW)..=i]
            .iter()
            .any(|g| !g.in_test && g.code.contains("enabled()"));
        if !gated {
            out.push(Diagnostic {
                rule: "hot-path-clock",
                path: scan.path.clone(),
                line: i + 1,
                message: format!(
                    "`{clock}` on a hot path without an enabled() gate within the \
                     previous {CLOCK_GATE_WINDOW} lines"
                ),
            });
        }
    }
}

// --------------------------------------------------------------------------
// float-eq
// --------------------------------------------------------------------------

/// True when the text immediately right of an operator begins with a
/// float literal (`0.0`, `1.`, `1e-9`, `2.5f64`, …).
fn starts_with_float_literal(s: &str) -> bool {
    let s = s.trim_start();
    let b = s.as_bytes();
    let mut i = 0;
    while i < b.len() && b[i].is_ascii_digit() {
        i += 1;
    }
    if i == 0 {
        return false;
    }
    if i < b.len() && b[i] == b'.' {
        // Digits then a dot not followed by an identifier (so `1.max(x)`
        // method calls don't count — and those are int anyway).
        let after = b.get(i + 1);
        return !after.is_some_and(|c| c.is_ascii_alphabetic() && !matches!(c, b'e' | b'E'))
            || b.get(i + 2)
                .is_some_and(|c| c.is_ascii_digit() || *c == b'-');
    }
    // Scientific without a dot: 1e-9.
    if i < b.len() && (b[i] == b'e' || b[i] == b'E') {
        let rest = &b[i + 1..];
        let rest = rest
            .strip_prefix(b"-")
            .or(rest.strip_prefix(b"+"))
            .unwrap_or(rest);
        return rest.first().is_some_and(|c| c.is_ascii_digit());
    }
    false
}

/// True when the text immediately left of an operator ends with a float
/// literal.
fn ends_with_float_literal(s: &str) -> bool {
    let s = s.trim_end();
    let s = s
        .strip_suffix("f64")
        .or_else(|| s.strip_suffix("f32"))
        .unwrap_or(s);
    let b = s.as_bytes();
    let mut i = b.len();
    while i > 0 && (b[i - 1].is_ascii_digit() || b[i - 1] == b'_') {
        i -= 1;
    }
    if i == b.len() {
        return false;
    }
    if i > 0 && b[i - 1] == b'.' {
        // `x.0` tuple access vs `1.0` literal: require a digit before the
        // dot (or nothing, for `.5`).
        let mut j = i - 1;
        while j > 0 && b[j - 1].is_ascii_digit() {
            j -= 1;
        }
        return j == 0
            || !b[j - 1].is_ascii_alphanumeric()
                && b[j - 1] != b'_'
                && b[j - 1] != b')'
                && b[j - 1] != b']';
    }
    // Scientific: …1e-9 / …1e9.
    if i > 0 && (b[i - 1] == b'-' || b[i - 1] == b'+') {
        i -= 1;
    }
    if i > 0 && (b[i - 1] == b'e' || b[i - 1] == b'E') {
        let mut j = i - 1;
        let mut digits = false;
        while j > 0 && (b[j - 1].is_ascii_digit() || b[j - 1] == b'.' || b[j - 1] == b'_') {
            digits = true;
            j -= 1;
        }
        return digits;
    }
    false
}

fn float_eq(scan: &FileScan, out: &mut Vec<Diagnostic>) {
    for (i, l) in scan.lines.iter().enumerate() {
        if l.in_test {
            continue;
        }
        for op in ["==", "!="] {
            let mut from = 0;
            while let Some(off) = l.code[from..].find(op) {
                let pos = from + off;
                from = pos + op.len();
                // Skip `<=`-style neighbors and pattern arms (`=>`).
                let before = l.code[..pos].chars().next_back();
                let after = l.code[pos + op.len()..].chars().next();
                if matches!(before, Some('=' | '<' | '>' | '!')) || matches!(after, Some('=' | '>'))
                {
                    continue;
                }
                if starts_with_float_literal(&l.code[pos + op.len()..])
                    || ends_with_float_literal(&l.code[..pos])
                {
                    out.push(Diagnostic {
                        rule: "float-eq",
                        path: scan.path.clone(),
                        line: i + 1,
                        message: format!(
                            "float `{op}` against a literal; use \
                             cf_matrix::approx_eq / approx_zero"
                        ),
                    });
                }
            }
        }
    }
}

// --------------------------------------------------------------------------
// bare-sync-prim
// --------------------------------------------------------------------------

/// True when the line uses the std `Mutex` type directly: a bare
/// `Mutex<`/`Mutex::new` (imported) or one qualified through a `std`/
/// `sync` path. Shim-associated types (`S::Mutex`) and the wrappers
/// (`RecoverMutex`) don't count.
fn bare_std_mutex(code: &str) -> bool {
    for token in ["Mutex<", "Mutex::new"] {
        let mut from = 0;
        while let Some(off) = code[from..].find(token) {
            let pos = from + off;
            from = pos + 1;
            if !at_word_boundary(code, pos) {
                continue;
            }
            if let Some(qualified) = code[..pos].strip_suffix("::") {
                let qual: String = qualified
                    .chars()
                    .rev()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect::<Vec<_>>()
                    .into_iter()
                    .rev()
                    .collect();
                if qual != "std" && qual != "sync" {
                    // Not a std path (e.g. `S::Mutex` from a Shim bound).
                    continue;
                }
            }
            return true;
        }
    }
    false
}

fn bare_sync_prim(scan: &FileScan, out: &mut Vec<Diagnostic>) {
    let scoped = scan.path.starts_with("crates/core/") || scan.path.starts_with("crates/obs/");
    if !scoped {
        return;
    }
    for (i, l) in scan.lines.iter().enumerate() {
        if l.in_test {
            continue;
        }
        if find_token(&l.code, "static mut").is_some() {
            out.push(Diagnostic {
                rule: "bare-sync-prim",
                path: scan.path.clone(),
                line: i + 1,
                message: "`static mut` is forbidden; use atomics or the cf_obs::sync \
                          wrappers"
                    .to_string(),
            });
        }
        if bare_std_mutex(&l.code) {
            out.push(Diagnostic {
                rule: "bare-sync-prim",
                path: scan.path.clone(),
                line: i + 1,
                message: "bare std::sync::Mutex in core/obs; use \
                          cf_obs::sync::RecoverMutex (poison-resetting) instead"
                    .to_string(),
            });
        }
    }
}

// --------------------------------------------------------------------------
// unwind-safe-mut
// --------------------------------------------------------------------------

fn unwind_safe_mut(scan: &FileScan, out: &mut Vec<Diagnostic>) {
    for (i, l) in scan.lines.iter().enumerate() {
        if l.in_test {
            continue;
        }
        let Some(pos) = l.code.find("AssertUnwindSafe(") else {
            continue;
        };
        // Collect the parenthesized argument, possibly across lines.
        let mut depth = 0i32;
        let mut arg = String::new();
        let mut done = false;
        'outer: for (j, line) in scan.lines.iter().enumerate().skip(i).take(50) {
            let start = if j == i {
                pos + "AssertUnwindSafe".len()
            } else {
                0
            };
            for c in line.code[start..].chars() {
                match c {
                    '(' => depth += 1,
                    ')' => {
                        depth -= 1;
                        if depth == 0 {
                            done = true;
                            break 'outer;
                        }
                    }
                    _ => {}
                }
                if depth > 0 {
                    arg.push(c);
                }
            }
            arg.push('\n');
        }
        if done && arg.contains("&mut ") {
            out.push(Diagnostic {
                rule: "unwind-safe-mut",
                path: scan.path.clone(),
                line: i + 1,
                message: "AssertUnwindSafe over a closure capturing `&mut`; a caught \
                          panic can leave the borrowed state half-mutated — narrow \
                          the capture to shared/owned data"
                    .to_string(),
            });
        }
    }
}

// --------------------------------------------------------------------------
// model-access-outside-generation
// --------------------------------------------------------------------------

/// The serving tier's one sanctioned doorway to the concrete model.
const MODEL_DOORWAY_FILE: &str = "crates/serve/src/live.rs";

/// Zero-pause refresh works because every serve path takes its model
/// snapshot through `ModelHandle` (an RCU generation-cell load). A raw
/// `Cfsf` reference held across requests would pin one generation
/// forever — invisible in review, fatal to live refresh — so the
/// concrete type may only be named in [`MODEL_DOORWAY_FILE`]. The
/// scanner has already blanked comments and strings; `Cfsf` here is a
/// word-boundary token match, so `CfsfConfig`/`cfsf_core` never fire.
fn model_access_outside_generation(scan: &FileScan, out: &mut Vec<Diagnostic>) {
    if !scan.path.starts_with("crates/serve/src/") || scan.path.ends_with(MODEL_DOORWAY_FILE) {
        return;
    }
    for (i, l) in scan.lines.iter().enumerate() {
        if l.in_test {
            continue;
        }
        let mut from = 0;
        while let Some(off) = l.code[from..].find("Cfsf") {
            let pos = from + off;
            from = pos + 1;
            if !at_word_boundary(&l.code, pos) {
                continue;
            }
            // Token must also END at a word boundary: `CfsfConfig` and
            // `CfsfError` are not the concrete model type.
            let after = l.code[pos + "Cfsf".len()..].chars().next();
            if after.is_some_and(|c| c.is_alphanumeric() || c == '_') {
                continue;
            }
            out.push(Diagnostic {
                rule: "model-access-outside-generation",
                path: scan.path.clone(),
                line: i + 1,
                message: "concrete model type named outside live.rs; serve paths \
                          must load generation snapshots through ModelHandle"
                    .to_string(),
            });
        }
    }
}

// --------------------------------------------------------------------------
// counter-pairing (cross-file)
// --------------------------------------------------------------------------

/// Checks that every gated counter increment in production code has a
/// matching reference (the exact metric name) somewhere in test code.
pub fn check_counter_pairing(scans: &[FileScan], out: &mut Vec<Diagnostic>) {
    // Pass 1: every string literal that appears in test scope.
    let mut test_literals: Vec<&str> = Vec::new();
    for scan in scans {
        for (line, lit) in &scan.strings {
            let in_test = scan.lines.get(line - 1).is_some_and(|l| l.in_test);
            if in_test {
                test_literals.push(lit.as_str());
            }
        }
    }
    // Pass 2: production counter!/gauge! sites with a gated prefix.
    for scan in scans {
        for (line, lit) in &scan.strings {
            let Some(l) = scan.lines.get(line - 1) else {
                continue;
            };
            if l.in_test || !l.code.contains("counter!") {
                continue;
            }
            if !PAIRED_COUNTER_PREFIXES.iter().any(|p| lit.starts_with(p)) {
                continue;
            }
            if !test_literals.iter().any(|t| t.contains(lit.as_str())) {
                out.push(Diagnostic {
                    rule: "counter-pairing",
                    path: scan.path.clone(),
                    line: *line,
                    message: format!(
                        "counter `{lit}` incremented here has no test referencing \
                         its name; add a balance test"
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{lint_scans, scan_file, Allowlist};
    use super::*;

    fn lint_one(path: &str, src: &str) -> Vec<Diagnostic> {
        let scan = scan_file(path, src);
        lint_scans(&[scan], &Allowlist::default()).diagnostics
    }

    #[test]
    fn unwrap_flagged_in_prod_not_in_tests() {
        let src = "fn f() { x.unwrap(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n    fn g() { y.unwrap(); }\n}\n";
        let d = lint_one("crates/core/src/x.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "no-unwrap");
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn unwrap_in_string_or_comment_is_ignored() {
        let src = "fn f() { let s = \".unwrap()\"; } // .unwrap() here too\n";
        assert!(lint_one("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn unwrap_or_variants_do_not_match() {
        let src = "fn f() { x.unwrap_or(0); y.unwrap_or_else(|| 1); z.unwrap_or_default(); }\n";
        assert!(lint_one("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn clock_in_hot_file_needs_gate() {
        let bad = "fn f() { let t = Instant::now(); }\n";
        let good =
            "fn f() {\n    if !crate::enabled() { return; }\n    let t = Instant::now();\n}\n";
        let d = lint_one("crates/core/src/online.rs", bad);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "hot-path-clock");
        assert!(lint_one("crates/core/src/online.rs", good).is_empty());
        // Non-hot files are never flagged.
        assert!(lint_one("crates/core/src/batch.rs", bad).is_empty());
    }

    #[test]
    fn float_eq_literal_adjacency() {
        for bad in [
            "fn f(x: f64) -> bool { x == 0.0 }\n",
            "fn f(x: f64) -> bool { 1.5 != x }\n",
            "fn f(x: f64) -> bool { x == 1e-9 }\n",
            "fn f(x: f64) -> bool { x.fract() == 0.0 }\n",
        ] {
            let d = lint_one("crates/core/src/x.rs", bad);
            assert_eq!(d.len(), 1, "expected one diagnostic for {bad:?}");
            assert_eq!(d[0].rule, "float-eq");
        }
        for good in [
            "fn f(x: u64) -> bool { x == 0 }\n",
            "fn f(x: usize) -> bool { x <= 10 }\n",
            "fn f(t: (u8, u8)) -> bool { t.0 == t.1 }\n",
            "fn f(x: f64) -> bool { approx_eq(x, 0.0) }\n",
            // Tuple access on an indexed value is not a float literal.
            "fn f(v: &[(u64, u8)]) -> bool { v[0].0 != 30 }\n",
        ] {
            assert!(
                lint_one("crates/core/src/x.rs", good).is_empty(),
                "false positive on {good:?}"
            );
        }
    }

    #[test]
    fn bare_mutex_flagged_but_wrappers_pass() {
        let bad = "use std::sync::Mutex;\nstatic S: Mutex<u32> = Mutex::new(0);\n";
        let d = lint_one("crates/obs/src/x.rs", bad);
        assert!(d.iter().all(|d| d.rule == "bare-sync-prim"));
        assert!(!d.is_empty());
        let good = "static S: RecoverMutex<u32> = RecoverMutex::new(0);\n";
        assert!(lint_one("crates/obs/src/x.rs", good).is_empty());
        // Shim-associated types are the sanctioned abstraction, not a
        // bare std lock.
        let shim = "struct R<S: Shim> { inner: S::Mutex<Vec<u8>> }\n";
        assert!(lint_one("crates/obs/src/x.rs", shim).is_empty());
        // Fully qualified std paths are still caught.
        let qualified = "static S: std::sync::Mutex<u32> = std::sync::Mutex::new(0);\n";
        assert!(!lint_one("crates/obs/src/x.rs", qualified).is_empty());
        // Out of scope: other crates may use std Mutex.
        assert!(lint_one("crates/analysis/src/x.rs", bad).is_empty());
    }

    #[test]
    fn static_mut_flagged() {
        let d = lint_one("crates/core/src/x.rs", "static mut COUNTER: u32 = 0;\n");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "bare-sync-prim");
    }

    #[test]
    fn assert_unwind_safe_with_mut_capture() {
        let bad = "fn f(buf: &mut Vec<u8>) {\n    let r = catch_unwind(AssertUnwindSafe(|| {\n        step(&mut *buf);\n    }));\n}\n";
        let d = lint_one("crates/core/src/x.rs", bad);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "unwind-safe-mut");
        let good =
            "fn f(buf: &Vec<u8>) {\n    let r = catch_unwind(AssertUnwindSafe(|| step(buf)));\n}\n";
        assert!(lint_one("crates/core/src/x.rs", good).is_empty());
    }

    #[test]
    fn model_type_flagged_in_serve_outside_live() {
        let bad = "fn f(m: &Cfsf) { m.predict(u, i); }\n";
        let d = lint_one("crates/serve/src/server.rs", bad);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "model-access-outside-generation");
        let qualified = "fn f(m: Arc<cfsf_core::Cfsf>) {}\n";
        let d = lint_one("crates/serve/src/router.rs", qualified);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "model-access-outside-generation");
        // The doorway file owns the concrete type.
        assert!(lint_one("crates/serve/src/live.rs", bad).is_empty());
        // Config/error types and paths are not the model.
        let config = "fn f(c: CfsfConfig) -> Result<(), CfsfError> { Ok(()) }\n";
        assert!(lint_one("crates/serve/src/server.rs", config).is_empty());
        let path_only = "use cfsf_core::DegradeLevel;\n";
        assert!(lint_one("crates/serve/src/router.rs", path_only).is_empty());
        // Other crates (and serve's tests/) may name the model freely.
        assert!(lint_one("crates/core/src/model.rs", bad).is_empty());
        assert!(lint_one("crates/serve/tests/roundtrip.rs", bad).is_empty());
        let in_test = "#[cfg(test)]\nmod tests {\n    fn g(m: &Cfsf) {}\n}\n";
        assert!(lint_one("crates/serve/src/server.rs", in_test).is_empty());
    }

    #[test]
    fn counter_pairing_requires_test_reference() {
        let prod = "fn f() { cf_obs::counter!(\"online.degrade.user_mean\").inc(); }\n";
        let scan = scan_file("crates/core/src/online.rs", prod);
        let report = lint_scans(&[scan], &Allowlist::default());
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].rule, "counter-pairing");

        let test_file =
            "#[test]\nfn t() { assert!(dump().contains(\"online.degrade.user_mean\")); }\n";
        let scans = [
            scan_file("crates/core/src/online.rs", prod),
            scan_file("crates/core/tests/balance.rs", test_file),
        ];
        let report = lint_scans(&scans, &Allowlist::default());
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    }

    #[test]
    fn suppression_silences_and_is_counted() {
        let src = "fn f() {\n    // cf-analysis: allow(no-unwrap)\n    x.unwrap();\n}\n";
        let scan = scan_file("crates/core/src/x.rs", src);
        let report = lint_scans(&[scan], &Allowlist::default());
        assert!(report.diagnostics.is_empty());
        assert_eq!(report.suppressed.len(), 1);
        assert!(report.unused_suppressions.is_empty());
    }

    #[test]
    fn unknown_suppression_rule_is_hard_error() {
        let src = "// cf-analysis: allow(not-a-rule)\nfn f() {}\n";
        let scan = scan_file("crates/core/src/x.rs", src);
        let report = lint_scans(&[scan], &Allowlist::default());
        assert_eq!(report.errors.len(), 1);
        assert_eq!(report.errors[0].rule, "bad-suppression");
        assert!(!report.is_clean());
    }

    #[test]
    fn unused_suppression_reported_not_fatal() {
        let src = "// cf-analysis: allow(no-unwrap)\nfn f() {}\n";
        let scan = scan_file("crates/core/src/x.rs", src);
        let report = lint_scans(&[scan], &Allowlist::default());
        assert!(report.is_clean());
        assert_eq!(report.unused_suppressions.len(), 1);
    }

    #[test]
    fn allowlist_exempts_by_prefix() {
        let src = "fn f() { x.unwrap(); }\n";
        let scan = scan_file("crates/analysis/src/sched.rs", src);
        let allow = Allowlist::parse("no-unwrap crates/analysis/src/\n").unwrap();
        let report = lint_scans(&[scan], &allow);
        assert!(report.is_clean());
    }

    #[test]
    fn allowlist_rejects_unknown_rule() {
        assert!(Allowlist::parse("bogus-rule crates/\n").is_err());
    }

    #[test]
    fn stale_allowlist_entry_is_hard_error() {
        let src = "fn f() { x.unwrap(); }\n";
        let scan = scan_file("crates/analysis/src/sched.rs", src);
        // Second entry exempts a path with no findings: stale.
        let allow = Allowlist::parse("no-unwrap crates/analysis/src/\nfloat-eq crates/gone/src/\n")
            .unwrap();
        let report = lint_scans(&[scan], &allow);
        assert_eq!(report.errors.len(), 1, "{:?}", report.errors);
        assert_eq!(report.errors[0].rule, "stale-allowlist");
        assert_eq!(report.errors[0].line, 2);
        assert!(report.errors[0].message.contains("crates/gone/src/"));
        assert!(!report.is_clean());
    }
}
