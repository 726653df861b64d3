//! `szhi-analyzer` command-line interface.
//!
//! ```text
//! szhi-analyzer [--root PATH] [--deny-all] [--lint ID]...
//!               [--format text|json] [--baseline FILE]
//! ```
//!
//! Without flags every lint runs in report-only mode (violations are printed
//! but the exit code stays 0). `--deny-all` makes any violation fatal (exit
//! code 1), which is how CI invokes it. `--format json` writes the full
//! machine-readable report to stdout (new findings still go to stderr).
//! `--baseline FILE` loads a previous JSON report and counts only findings
//! *not* in it as failures — CI fails on new findings while known ones age
//! out. Exit code 2 signals a usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use szhi_analyzer::{report, Analyzer, Lint};

const USAGE: &str = "usage: szhi-analyzer [--root PATH] [--deny-all] [--lint ID]...
                     [--format text|json] [--baseline FILE]

  --root PATH      workspace root to analyze (default: current directory)
  --deny-all       exit 1 on any new violation (CI mode); default report-only
  --lint ID        run only the named lint (repeatable); default: all lints
  --format FMT     text (default, human-readable on stderr) or json (full
                   machine-readable report on stdout)
  --baseline FILE  previous JSON report; findings recorded there are known
                   and do not fail --deny-all, only new findings do

lints: no-unsafe, capped-alloc, spec-drift, error-coverage, panic-reachability,
       steady-alloc, pool-invariant (capped-alloc and panic-reachability are
       the two site checks of one decode walk)
exit codes: 0 clean (or report-only), 1 new violations under --deny-all, 2 error";

fn usage_error(message: &str) -> ExitCode {
    eprintln!("szhi-analyzer: {message}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut deny = false;
    let mut json = false;
    let mut baseline_path: Option<PathBuf> = None;
    let mut lints: Vec<Lint> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => return usage_error("--root requires a path"),
            },
            "--deny-all" => deny = true,
            "--lint" => match args.next().as_deref().and_then(Lint::from_id) {
                Some(l) => {
                    if !lints.contains(&l) {
                        lints.push(l);
                    }
                }
                None => return usage_error("--lint requires a known lint id"),
            },
            "--format" => match args.next().as_deref() {
                Some("text") => json = false,
                Some("json") => json = true,
                Some(other) => {
                    return usage_error(&format!("unknown format `{other}` (text or json)"))
                }
                None => return usage_error("--format requires a value"),
            },
            "--baseline" => match args.next() {
                Some(p) => baseline_path = Some(PathBuf::from(p)),
                None => return usage_error("--baseline requires a file"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }
    let baseline = match &baseline_path {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(e) => {
                    return usage_error(&format!("cannot read baseline {}: {e}", path.display()))
                }
            };
            match report::parse_baseline(&text) {
                Some(keys) => Some(keys),
                None => {
                    return usage_error(&format!(
                        "baseline {} is not a valid JSON report",
                        path.display()
                    ))
                }
            }
        }
        None => None,
    };
    let analyzer = if lints.is_empty() {
        Analyzer::new(root)
    } else {
        Analyzer::with_lints(root, lints)
    };
    let analysis = match analyzer.run_report() {
        Ok(analysis) => analysis,
        Err(e) => {
            eprintln!("szhi-analyzer: error: {e}");
            return ExitCode::from(2);
        }
    };
    let (known, fresh) = match &baseline {
        Some(keys) => report::split_by_baseline(analysis.violations, keys),
        None => (Vec::new(), analysis.violations),
    };
    // New findings always go to stderr with their chains, so a failing
    // `--format json` run still shows them in the log.
    for v in &fresh {
        eprintln!("{v}");
    }
    if json {
        // The JSON report carries every finding (known ones included, so a
        // report can serve as next cycle's baseline); the baseline only
        // affects the exit code.
        let mut all = fresh.clone();
        all.extend(known.iter().cloned());
        all.sort_by(|a, b| (&a.file, a.line, a.lint.id()).cmp(&(&b.file, b.line, b.lint.id())));
        print!("{}", report::to_json(&analysis.metrics, &all));
    } else {
        for v in &known {
            eprintln!("{v} (baseline)");
        }
        let m = &analysis.metrics;
        eprintln!(
            "szhi-analyzer: {} file(s), {} fn(s), {} call site(s) \
             ({} resolved edge(s), {} unresolved), {} panic root(s), {} alloc root(s)",
            m.files,
            m.functions,
            m.calls,
            m.resolved_edges,
            m.unresolved_calls,
            m.panic_roots,
            m.alloc_roots
        );
    }
    if fresh.is_empty() && known.is_empty() {
        if !json {
            println!("szhi-analyzer: workspace clean");
        }
        ExitCode::SUCCESS
    } else {
        if !json {
            eprintln!(
                "szhi-analyzer: {} new violation(s), {} known from baseline",
                fresh.len(),
                known.len()
            );
        }
        if deny && !fresh.is_empty() {
            ExitCode::from(1)
        } else {
            ExitCode::SUCCESS
        }
    }
}
