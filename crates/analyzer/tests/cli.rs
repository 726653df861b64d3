//! The binary's exit-code contract: 0 clean or report-only, 1 violations
//! under `--deny-all`, 2 usage or I/O error.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_szhi-analyzer"))
        .args(args)
        .output()
        .expect("spawning szhi-analyzer")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A scratch path outside the workspace, so the workspace walk never sees it.
fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("szhi-analyzer-cli-{}-{tag}", std::process::id()))
}

/// A root whose only source is a `src/lib.rs`: with no `docs/FORMAT.md`
/// to cross-check, `spec-drift` reports it.
fn bare_root(tag: &str) -> PathBuf {
    let root = temp_path(tag);
    std::fs::create_dir_all(root.join("src")).expect("creating the temp root");
    std::fs::write(root.join("src/lib.rs"), "pub fn poke() {}\n").expect("writing the temp source");
    root
}

#[test]
fn deny_all_fails_on_a_finding_and_names_its_lint() {
    let root = bare_root("deny");
    let out = run(&["--root", root.to_str().unwrap(), "--deny-all"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("[spec-drift]"), "{}", stderr(&out));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn without_deny_all_a_finding_is_only_reported() {
    let root = bare_root("report");
    let out = run(&["--root", root.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stderr(&out).contains("[spec-drift]"), "{}", stderr(&out));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn the_workspace_runs_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = run(&["--root", root.to_str().unwrap(), "--deny-all"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("workspace clean"), "{stdout}");
}

#[test]
fn removed_flags_are_unknown_arguments() {
    for args in [
        ["--format", "json"],
        ["--baseline", "f"],
        ["--lint", "spec-drift"],
    ] {
        let out = run(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(
            stderr(&out).contains("unknown argument"),
            "{args:?}: {}",
            stderr(&out)
        );
    }
}

#[test]
fn a_missing_root_directory_is_an_error() {
    let root = temp_path("no-such-root");
    let out = run(&["--root", root.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
}
