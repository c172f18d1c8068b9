//! `cfsf-analyze` — runs the loom-lite model checks; the CI gate for
//! them.
//!
//! ```text
//! cfsf-analyze [--replay <model> <c0,c1,...>] [--json] [--json-out <path>]
//!              [--annotate]
//! ```
//!
//! `--json` replaces the human report on stdout with one machine-readable
//! JSON document; `--json-out <path>` writes the same document to a file
//! while keeping the human report; `--annotate` additionally emits GitHub
//! workflow commands (`::error file=…,line=…::…`) so CI surfaces model
//! failures inline on the diff.
//!
//! Exit status: `0` when every model passes its gate, `1` otherwise. The
//! seeded-race fixture models (`expect_race`) invert: they gate on the
//! race detector *firing*.

use std::path::PathBuf;
use std::process::ExitCode;

use cf_analysis::models::{self, ModelRun};
use cf_obs::json::Writer;

struct Args {
    replay: Option<(String, Vec<usize>)>,
    json: bool,
    json_out: Option<PathBuf>,
    annotate: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        replay: None,
        json: false,
        json_out: None,
        annotate: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => args.json = true,
            "--json-out" => {
                args.json_out = Some(PathBuf::from(it.next().ok_or("--json-out needs a path")?));
            }
            "--annotate" => args.annotate = true,
            "--replay" => {
                let model = it.next().ok_or("--replay needs <model> <schedule>")?;
                let sched = it.next().ok_or("--replay needs <model> <schedule>")?;
                let script = sched
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.trim().parse::<usize>().map_err(|e| e.to_string()))
                    .collect::<Result<Vec<_>, _>>()?;
                args.replay = Some((model, script));
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(args)
}

/// Did this model run satisfy its gate? Ordinary models must explore
/// clean; `expect_race` fixtures must fail *with a data-race report* —
/// a clean run means the detector regressed.
fn model_ok(run: &ModelRun) -> bool {
    match (&run.report.failure, run.expect_race) {
        (None, false) => true,
        (Some(f), true) => f.message.contains("data race"),
        _ => false,
    }
}

/// Renders the whole gate result as one JSON document.
fn render_json(runs: &[ModelRun], ok: bool) -> String {
    let mut w = Writer::new();
    w.begin_object();
    w.key("models");
    w.begin_array();
    for run in runs {
        w.elem();
        w.begin_object();
        w.key("name");
        w.string(run.name);
        w.key("expect_race");
        w.bool(run.expect_race);
        w.key("ok");
        w.bool(model_ok(run));
        w.key("executions");
        w.number_u64(run.report.executions);
        w.key("pruned");
        w.number_u64(run.report.pruned);
        w.key("sleep_pruned");
        w.number_u64(run.report.sleep_pruned);
        w.key("complete");
        w.bool(run.report.complete);
        w.key("failure");
        match &run.report.failure {
            None => w.null(),
            Some(f) => {
                w.begin_object();
                w.key("message");
                w.string(&f.message);
                w.key("script");
                w.begin_array();
                for c in &f.script {
                    w.elem();
                    w.number_u64(*c as u64);
                }
                w.end_array();
                w.key("kinds");
                w.string(&f.kinds);
                w.end_object();
            }
        }
        w.end_object();
    }
    w.end_array();
    w.key("ok");
    w.bool(ok);
    w.end_object();
    w.finish()
}

/// Emits a GitHub workflow command pinned to a file and line.
fn annotate(level: &str, path: &str, line: usize, message: &str) {
    // Workflow commands terminate at the newline; escape the message's.
    let msg = message.replace('%', "%25").replace('\n', "%0A");
    println!("::{level} file={path},line={line}::{msg}");
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cfsf-analyze: {e}");
            return ExitCode::FAILURE;
        }
    };

    if let Some((model, script)) = &args.replay {
        println!("replaying {model} under schedule {script:?}");
        return match models::replay_builtin(model, script.clone()) {
            None => {
                eprintln!(
                    "cfsf-analyze: unknown model '{model}' (known: {})",
                    models::BUILTIN_MODELS.join(", ")
                );
                ExitCode::FAILURE
            }
            Some(report) => match report.failure {
                Some(f) => {
                    println!("reproduced: {}", f.message);
                    println!("{}", f.replay_instructions(model));
                    ExitCode::FAILURE
                }
                None => {
                    println!("schedule ran clean ({} execution(s))", report.executions);
                    ExitCode::SUCCESS
                }
            },
        };
    }

    let human = !args.json;
    let mut failed = false;
    let runs = models::run_builtin_models();
    for run in &runs {
        let ok = model_ok(run);
        if !ok {
            failed = true;
        }
        if human {
            let counts = format!(
                "{} execution(s){}{}{}",
                run.report.executions,
                if run.report.pruned > 0 {
                    format!(", {} pruned", run.report.pruned)
                } else {
                    String::new()
                },
                if run.report.sleep_pruned > 0 {
                    format!(", {} sleep-pruned", run.report.sleep_pruned)
                } else {
                    String::new()
                },
                if run.report.complete {
                    " (exhaustive)"
                } else {
                    ""
                }
            );
            match (&run.report.failure, run.expect_race, ok) {
                (None, false, _) => println!("model {}: ok — {counts}", run.name),
                (Some(f), true, true) => println!(
                    "model {}: ok — detector fired as required: {} ({counts})",
                    run.name, f.message
                ),
                (None, true, _) => println!(
                    "model {}: FAILED — seeded race went UNDETECTED ({counts}); \
                     the happens-before detector has regressed",
                    run.name
                ),
                (Some(f), _, _) => {
                    println!("model {}: FAILED — {}", run.name, f.message);
                    println!("{}", f.replay_instructions(run.name));
                }
            }
        }
        if args.annotate && !ok {
            let msg = match &run.report.failure {
                Some(f) => f.replay_instructions(run.name),
                None => format!(
                    "model '{}' explored clean but is a seeded-race fixture: \
                     the data-race detector did not fire",
                    run.name
                ),
            };
            annotate("error", "crates/analysis/src/models.rs", 1, &msg);
        }
    }

    if args.json || args.json_out.is_some() {
        let doc = render_json(&runs, !failed);
        if args.json {
            print!("{doc}");
        }
        if let Some(path) = &args.json_out {
            if let Err(e) = std::fs::write(path, &doc) {
                eprintln!("cfsf-analyze: cannot write {}: {e}", path.display());
                failed = true;
            }
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
