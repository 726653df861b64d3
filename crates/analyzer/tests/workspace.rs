//! Meta-test: the analyzer must run clean over the real workspace. This is
//! the same invocation CI enforces (`szhi-analyzer --deny-all`), so a
//! violation introduced anywhere in the tree fails `cargo test` too.
//!
//! Beyond "no findings", the suite pins what *clean* means: the transitive
//! lints actually found their entry points (a rename that empties the root
//! sets would otherwise pass vacuously), and every suppression comment in
//! the tree carries a written reason.

use std::path::{Path, PathBuf};

use szhi_analyzer::graph::CallGraph;
use szhi_analyzer::table::Workspace;
use szhi_analyzer::{analyze, workspace_sources, Lint};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_has_no_violations() {
    let report = analyze(&workspace_root()).expect("walking the workspace");
    assert!(
        report.violations.is_empty(),
        "szhi-analyzer found {} violation(s):\n{}",
        report.violations.len(),
        report
            .violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The decode/serve entry points and warm-path roots must exist in the
/// tree: together with `workspace_has_no_violations` this asserts the
/// entry points are transitively panic-free (L6) and the warm encode and
/// decode paths are statically allocation-free (L7) — not that the lints
/// had nothing to check.
#[test]
fn transitive_lints_found_their_roots() {
    let report = analyze(&workspace_root()).expect("walking the workspace");
    assert!(
        report.metrics.panic_roots > 0,
        "no panic-reachability entry points found — did the decode/serve API get renamed?"
    );
    assert!(
        report.metrics.alloc_roots > 0,
        "no steady-alloc warm-path roots found — did the encode API get renamed?"
    );
    assert!(report.metrics.functions > 0);
    assert!(report.metrics.resolved_edges > 0);
    assert!(
        report.metrics.unresolved_calls > 0,
        "zero unresolved calls is implausible (std/extern calls are recorded, not dropped)"
    );
}

/// The manifest's sections: each `[name]` header with the trimmed,
/// non-empty lines below it.
fn manifest_sections(toml: &str) -> Vec<(String, Vec<String>)> {
    let mut sections: Vec<(String, Vec<String>)> = vec![(String::new(), Vec::new())];
    for line in toml.lines().map(str::trim) {
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            sections.push((name.to_string(), Vec::new()));
        } else if !line.is_empty() && !line.starts_with('#') {
            sections.last_mut().unwrap().1.push(line.to_string());
        }
    }
    sections
}

fn section_has(toml: &str, section: &str, line: &str) -> bool {
    manifest_sections(toml)
        .iter()
        .any(|(name, lines)| name == section && lines.iter().any(|l| l == line))
}

/// The unsafe rule lives in the manifests, and a crate that leaves out its
/// `[lints]` table drops out of it without a warning. So every member and
/// the root package must opt into the workspace lints, which must deny
/// `unsafe_code`; `vendor/rayon`, which needs `unsafe`, must instead deny
/// clippy's `undocumented_unsafe_blocks`.
#[test]
fn every_manifest_opts_into_the_unsafe_rule() {
    let root = workspace_root();
    let read = |dir: &str| {
        std::fs::read_to_string(root.join(dir).join("Cargo.toml"))
            .unwrap_or_else(|e| panic!("reading {dir}/Cargo.toml: {e}"))
    };
    let workspace = read(".");
    assert!(
        section_has(
            &workspace,
            "workspace.lints.rust",
            r#"unsafe_code = "deny""#
        ),
        "the root Cargo.toml must deny unsafe_code in [workspace.lints.rust]"
    );
    let members: Vec<String> = manifest_sections(&workspace)
        .into_iter()
        .find(|(name, _)| name == "workspace")
        .expect("a [workspace] table")
        .1
        .into_iter()
        .skip_while(|l| !l.starts_with("members"))
        .skip(1)
        .take_while(|l| l != "]")
        .map(|l| l.trim_matches(|c| c == '"' || c == ',').to_string())
        .collect();
    assert!(
        members.len() >= 15,
        "members list looks misparsed: {members:?}"
    );
    let mut missing = Vec::new();
    for dir in std::iter::once(".".to_string()).chain(members) {
        let toml = read(&dir);
        let ok = if dir == "vendor/rayon" {
            section_has(
                &toml,
                "lints.clippy",
                r#"undocumented_unsafe_blocks = "deny""#,
            )
        } else {
            section_has(&toml, "lints", "workspace = true")
        };
        if !ok {
            missing.push(dir);
        }
    }
    assert!(
        missing.is_empty(),
        "manifests outside the unsafe rule: {missing:?}"
    );
}

/// The L6/L7 roots are matched by function and owner name, so renaming a
/// reader type or an encode entry point would silently drop its
/// panic-reachability or steady-alloc coverage. Every root pattern must
/// therefore still match at least one function of the real workspace.
#[test]
fn every_root_pattern_matches_a_function_of_the_workspace() {
    use szhi_analyzer::graph::{L6_ROOTS, L7_ROOTS};

    let ws = first_party_workspace();
    let dangling: Vec<String> = L6_ROOTS
        .iter()
        .chain(L7_ROOTS)
        .filter(|p| !ws.fns.iter().any(|f| p.matches(&ws, f)))
        .map(|p| format!("{p:?}"))
        .collect();
    assert!(
        dangling.is_empty(),
        "root pattern(s) that match no function — update them to the renamed API:\n{}",
        dangling.join("\n")
    );
}

/// Calls on the decode and warm-path walks that a miscounted arity used
/// to drop from the graph (rustfmt's trailing commas, string-literal
/// arguments). Without them L6 never checked the predictor's decode sweep
/// or the table readers, and L7 never saw trial selection.
#[test]
fn the_walks_keep_the_edges_arity_once_dropped() {
    let ws = first_party_workspace();
    let graph = CallGraph::build(&ws);
    let find = |name: &str, owner: Option<&str>| {
        ws.find_fn(name, owner)
            .unwrap_or_else(|| panic!("no fn `{name}` in the workspace"))
    };
    for (caller, callee) in [
        (("locate_table", None), ("read_leading_table", None)),
        (("locate_table", None), ("read_trailing_table", None)),
        (
            ("decode_into", Some("StreamIndex")),
            ("decompress_into", Some("InterpPredictor")),
        ),
        (
            ("encode_into", Some("ChunkEncoder")),
            ("select_pipeline", None),
        ),
        (("tune_chunk_interp", None), ("tune", None)),
    ] {
        let (from, to) = (find(caller.0, caller.1), find(callee.0, callee.1));
        assert!(
            graph.callees(from).contains(&to),
            "the call graph lost the edge {caller:?} -> {callee:?}"
        );
    }
}

/// Every `szhi-analyzer: allow(...)` comment in the tree must carry a
/// ` -- <reason>` tail and name only real lints. The analyzer already
/// treats a reasonless allow as inert (the finding still fires), and an
/// allow of an unknown or retired id suppresses nothing; either left in
/// the tree is a lie to the next reader — fail loudly instead.
#[test]
fn every_suppression_carries_a_reason() {
    let sources = workspace_sources(&workspace_root()).expect("walking the workspace");
    assert!(sources.len() > 50, "workspace walk looks broken");
    let mut bad = Vec::new();
    let mut seen = 0usize;
    for (rel, src) in &sources {
        for (idx, line) in src.lines().enumerate() {
            let Some(p) = line.find("szhi-analyzer: allow(") else {
                continue;
            };
            // Skip mentions inside string literals or backtick-quoted prose
            // (the analyzer's tests and docs talk *about* allow comments).
            if line[..p].contains('"') || line[..p].contains('`') {
                continue;
            }
            seen += 1;
            let rest = &line[p + "szhi-analyzer: allow(".len()..];
            let (ids, tail) = rest.split_once(')').unwrap_or((rest, ""));
            let reasoned = tail
                .split_once("--")
                .is_some_and(|(_, reason)| !reason.trim().is_empty());
            let known = ids.split(',').all(|id| Lint::from_id(id.trim()).is_some());
            if !reasoned || !known {
                bad.push(format!("{rel}:{}: {}", idx + 1, line.trim()));
            }
        }
    }
    assert!(
        seen > 10,
        "expected the tree's suppressions to be visible to this walk"
    );
    assert!(
        bad.is_empty(),
        "suppression(s) without a ` -- <reason>` tail or naming no lint:\n{}",
        bad.join("\n")
    );
}

/// The first-party sources as the analyzer's own walk hands them to the
/// call-graph lints.
fn first_party_workspace() -> Workspace {
    let sources: Vec<(String, String)> = workspace_sources(&workspace_root())
        .expect("walking the workspace")
        .into_iter()
        .filter(|(rel, _)| !rel.starts_with("vendor/"))
        .collect();
    Workspace::from_sources(&sources)
}
