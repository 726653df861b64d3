//! `szhi-analyzer` command-line interface.
//!
//! ```text
//! szhi-analyzer [--root PATH] [--deny-all]
//! ```
//!
//! Every lint runs on every invocation. Findings go to stderr with their
//! call chains, followed by one metrics line. Without `--deny-all` the run
//! is report-only (the exit code stays 0); `--deny-all` makes any
//! violation fatal (exit code 1), which is how CI invokes it. Exit code 2
//! signals a usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use szhi_analyzer::analyze;

const USAGE: &str = "usage: szhi-analyzer [--root PATH] [--deny-all]

  --root PATH  workspace root to analyze (default: current directory)
  --deny-all   exit 1 on any violation (CI mode); default report-only

lints: capped-alloc, spec-drift, error-coverage, panic-reachability,
       steady-alloc, pool-invariant (capped-alloc and panic-reachability are
       the two site checks of one decode walk)
exit codes: 0 clean (or report-only), 1 violations under --deny-all, 2 error";

fn usage_error(message: &str) -> ExitCode {
    eprintln!("szhi-analyzer: {message}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut deny = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => return usage_error("--root requires a path"),
            },
            "--deny-all" => deny = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }
    let report = match analyze(&root) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("szhi-analyzer: error: {e}");
            return ExitCode::from(2);
        }
    };
    for v in &report.violations {
        eprintln!("{v}");
    }
    let m = &report.metrics;
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
    if report.violations.is_empty() {
        println!("szhi-analyzer: workspace clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("szhi-analyzer: {} violation(s)", report.violations.len());
        if deny {
            ExitCode::from(1)
        } else {
            ExitCode::SUCCESS
        }
    }
}
