//! In-tree static analysis enforcing the workspace's safety invariants.
//!
//! The decoder is hardened by convention: every `Vec::with_capacity` fed
//! by an untrusted length routes through `bitio::decode_capacity`, and
//! decode paths return typed errors instead of panicking. This crate
//! machine-checks those conventions so future work cannot silently regress
//! them; the rule that all `unsafe` stays inside `vendor/` is rustc's and
//! clippy's, set in the manifests. It is dependency-free (the build
//! environment is offline): a plain `std::fs` walk plus a small Rust lexer
//! that blanks comments and literal contents before matching, so a lint
//! never fires on the contents of a string or a doc comment.
//!
//! The transitive lints run on a workspace **call-graph engine**
//! ([`table`], [`graph`]): every `fn` item is parsed into a function table
//! and call sites are resolved into a name-based call graph (unresolved
//! calls are recorded, never silently dropped). Decode safety is one walk
//! of that graph from the decode/serve entry points, checking two kinds of
//! site in every fn it reaches; findings carry their root-cause chain.
//! [`analyze`] runs every lint over the files [`workspace_sources`] walks.
//!
//! # Lints
//!
//! | id | rule |
//! |----|------|
//! | `capped-alloc` (L3) | no call chain from a decode/serve entry point reaches a `Vec::with_capacity`/`reserve` whose size is not routed through `decode_capacity` |
//! | `spec-drift` (L4) | constants in `format.rs` must be stated in `docs/FORMAT.md`; subcommands/flags/exit codes in `args.rs` must be stated in `docs/CLI.md` |
//! | `error-coverage` (L5) | every `SzhiError` variant constructed and asserted by name; every cli usage-error message pinned by a test |
//! | `panic-reachability` (L6) | no call chain from a decode/serve entry point reaches a panic site (reported with the full chain) |
//! | `steady-alloc` (L7) | no call chain from a warm-path encode or decode root reaches an unsuppressed allocation |
//! | `pool-invariant` (L8) | every `lock()`/`wait` in `vendor/rayon` carries an `// ORDER:` level, monotonically non-decreasing along call chains |
//!
//! # Suppression
//!
//! A violation is suppressed by a comment on the same line or the line
//! directly above, naming the lint and giving a non-empty reason:
//!
//! ```text
//! // szhi-analyzer: allow(panic-reachability) -- ids are validated at parse time
//! ```
//!
//! For the transitive lints the same comment on a *call site* cuts every
//! chain through that edge (for the decode walk, `panic-reachability` is
//! the id that cuts) — place it at the boundary where the invariant is
//! argued (e.g. a fuzz-tested subsystem entry).
//!
//! See `docs/ANALYSIS.md` for the full catalogue and the rationale per lint.
#![forbid(unsafe_code)]

pub mod graph;
mod lexer;
pub mod table;

pub use lexer::{lex, Lexed};
pub use table::Workspace;

use lexer::{find, in_regions, is_ident_byte, line_of, line_starts, match_brace, test_regions};
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// The project lints, in catalogue order (L3–L8; L2 was folded into L6,
/// and L1's `unsafe` rule is rustc's `unsafe_code` and clippy's
/// `undocumented_unsafe_blocks`, set in the manifests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lint {
    /// L3: decoder allocations route through `decode_capacity` (checked on
    /// L6's walk).
    CappedAlloc,
    /// L4: `format.rs`/`args.rs` constants cross-checked against the docs.
    SpecDrift,
    /// L5: every `SzhiError` variant constructed and asserted by name.
    ErrorCoverage,
    /// L6: no panic site reachable from a decode/serve entry point.
    PanicReachability,
    /// L7: no unrouted allocation reachable from a warm-path root.
    SteadyAlloc,
    /// L8: `vendor/rayon` lock sites annotated and ordered.
    PoolInvariant,
}

impl Lint {
    /// Every lint, in catalogue order.
    pub(crate) const ALL: [Lint; 6] = [
        Lint::CappedAlloc,
        Lint::SpecDrift,
        Lint::ErrorCoverage,
        Lint::PanicReachability,
        Lint::SteadyAlloc,
        Lint::PoolInvariant,
    ];

    /// The stable id printed in reports and named by suppression comments.
    pub(crate) fn id(self) -> &'static str {
        match self {
            Lint::CappedAlloc => "capped-alloc",
            Lint::SpecDrift => "spec-drift",
            Lint::ErrorCoverage => "error-coverage",
            Lint::PanicReachability => "panic-reachability",
            Lint::SteadyAlloc => "steady-alloc",
            Lint::PoolInvariant => "pool-invariant",
        }
    }

    /// Inverse of `Lint::id`.
    pub fn from_id(id: &str) -> Option<Lint> {
        Lint::ALL.into_iter().find(|l| l.id() == id)
    }
}

/// One lint violation, anchored at a workspace-relative file and line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The lint that fired.
    pub lint: Lint,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
    /// Supporting detail — for the transitive lints, the call chain from
    /// the entry point to the offending site, one step per line.
    pub notes: Vec<String>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.lint.id(),
            self.message
        )?;
        for note in &self.notes {
            write!(f, "\n        {note}")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Suppression comments
// ---------------------------------------------------------------------------

const ALLOW_MARKER: &str = "szhi-analyzer: allow(";

/// Whether `text` carries a well-formed suppression for `id`:
/// `szhi-analyzer: allow(<ids>) -- <non-empty reason>`.
fn comment_allows(text: &str, id: &str) -> bool {
    let Some(p) = text.find(ALLOW_MARKER) else {
        return false;
    };
    let rest = &text[p + ALLOW_MARKER.len()..];
    let Some(close) = rest.find(')') else {
        return false;
    };
    let ids = &rest[..close];
    let after = &rest[close + 1..];
    let Some(dash) = after.find("--") else {
        return false;
    };
    if after[dash + 2..].trim().is_empty() {
        return false; // a reason is mandatory
    }
    ids.split(',').any(|s| s.trim() == id)
}

/// Suppression applies on the violation's own line or the line above.
pub(crate) fn is_suppressed(comments: &HashMap<usize, String>, line: usize, lint: Lint) -> bool {
    [line, line.saturating_sub(1)]
        .iter()
        .filter(|&&l| l > 0)
        .any(|l| {
            comments
                .get(l)
                .is_some_and(|t| comment_allows(t, lint.id()))
        })
}

// ---------------------------------------------------------------------------
// Path classification
// ---------------------------------------------------------------------------

fn is_vendor_path(rel: &str) -> bool {
    rel.starts_with("vendor/")
}

/// Integration-test files: every byte is test code.
fn is_test_path(rel: &str) -> bool {
    rel.split('/').any(|c| c == "tests")
}

/// Files that are not library code (tests, benches, examples).
fn is_nonlib_path(rel: &str) -> bool {
    rel.split('/')
        .any(|c| matches!(c, "tests" | "benches" | "examples"))
}

/// First-party library source (in scope for L5's construction leg).
fn is_first_party_lib(rel: &str) -> bool {
    !is_vendor_path(rel)
        && !is_nonlib_path(rel)
        && (rel.starts_with("src/") || (rel.starts_with("crates/") && rel.contains("/src/")))
}

// ---------------------------------------------------------------------------
// L4: spec-drift between format.rs and docs/FORMAT.md
// ---------------------------------------------------------------------------

enum ConstValue {
    Bytes(String),
    Int(u64),
}

/// Parses `pub const NAME: T = VALUE;` where VALUE is `*b"..."`, `b"..."`
/// or an integer literal. Returns `None` for anything else.
fn parse_const_line(line: &str) -> Option<(String, ConstValue)> {
    let p = line.find("const ")?;
    let t = &line[p + 6..];
    let colon = t.find(':')?;
    let name = t[..colon].trim();
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
    {
        return None;
    }
    let eq = t.find('=')?;
    // The terminating `;` must be looked up after the `=`: array types like
    // `[u8; 4]` put a semicolon inside the type annotation.
    let semi = t[eq..].find(';')? + eq;
    let val = t[eq + 1..semi].trim();
    if let Some(s) = val.strip_prefix("*b\"").or_else(|| val.strip_prefix("b\"")) {
        let inner = s.strip_suffix('"')?;
        return Some((name.to_string(), ConstValue::Bytes(inner.to_string())));
    }
    let digits: String = val.chars().filter(|c| *c != '_').collect();
    digits
        .parse::<u64>()
        .ok()
        .map(|v| (name.to_string(), ConstValue::Int(v)))
}

fn contains_word(hay: &str, needle: &str) -> bool {
    let bytes = hay.as_bytes();
    let mut from = 0usize;
    while let Some(p) = hay.get(from..).and_then(|h| h.find(needle)) {
        let abs = from + p;
        let before_ok = abs == 0 || !bytes[abs - 1].is_ascii_alphanumeric();
        let after = bytes.get(abs + needle.len());
        let after_ok = !matches!(after, Some(b) if b.is_ascii_alphanumeric());
        if before_ok && after_ok {
            return true;
        }
        from = abs + 1;
    }
    false
}

fn md_states_size(md: &str, n: u64) -> bool {
    [
        format!("{n} bytes"),
        format!("{n}-byte"),
        format!("× {n}"),
        format!("{n} B"),
    ]
    .iter()
    .any(|p| md.contains(p.as_str()))
}

/// Cross-checks the constants declared in `format.rs` (raw source, so the
/// magic string literals are visible) against the prose of `docs/FORMAT.md`:
/// magics must appear quoted, sizes as `N bytes`/`N-byte`/`× N`/`N B`,
/// version bytes as `vN`.
pub fn lint_spec_drift(format_rs: &str, format_md: &str) -> Vec<Violation> {
    const FORMAT_RS: &str = "crates/core/src/format.rs";
    let comments = lex(format_rs).comments;
    let mut out = Vec::new();
    let push = |out: &mut Vec<Violation>, line: usize, message: String| {
        if !is_suppressed(&comments, line, Lint::SpecDrift) {
            out.push(Violation {
                lint: Lint::SpecDrift,
                file: FORMAT_RS.to_string(),
                line,
                message,
                notes: Vec::new(),
            });
        }
    };
    let mut extracted = 0usize;
    for (idx, raw) in format_rs.lines().enumerate() {
        let line_no = idx + 1;
        let Some((name, value)) = parse_const_line(raw) else {
            continue;
        };
        match value {
            ConstValue::Bytes(s) if name.contains("MAGIC") => {
                extracted += 1;
                let quoted = format!("\"{s}\"");
                if !format_md.contains(&quoted) {
                    push(
                        &mut out,
                        line_no,
                        format!(
                            "docs/FORMAT.md does not state the magic {quoted} declared by `{name}`"
                        ),
                    );
                }
            }
            ConstValue::Int(v) if name.contains("SIZE") => {
                extracted += 1;
                if !md_states_size(format_md, v) {
                    push(
                        &mut out,
                        line_no,
                        format!("docs/FORMAT.md does not state the size {v} declared by `{name}`"),
                    );
                }
            }
            ConstValue::Int(v) if name.starts_with("VERSION") => {
                extracted += 1;
                if !contains_word(format_md, &format!("v{v}")) {
                    push(
                        &mut out,
                        line_no,
                        format!("docs/FORMAT.md does not mention v{v} declared by `{name}`"),
                    );
                }
            }
            _ => {}
        }
    }
    if extracted == 0 {
        out.push(Violation {
            lint: Lint::SpecDrift,
            file: FORMAT_RS.to_string(),
            line: 1,
            message: "no magic/size/version constants could be extracted from format.rs"
                .to_string(),
            notes: Vec::new(),
        });
    }
    out
}

// ---------------------------------------------------------------------------
// L4 (cli leg): args.rs cross-checked against docs/CLI.md
// ---------------------------------------------------------------------------

/// Whether `md` mentions `flag` as a whole token (`--chunk` must not be
/// satisfied by `--chunk-span`).
fn contains_flag(md: &str, flag: &str) -> bool {
    let bytes = md.as_bytes();
    let mut from = 0usize;
    while let Some(p) = md.get(from..).and_then(|h| h.find(flag)) {
        let abs = from + p;
        let after = bytes.get(abs + flag.len());
        let after_ok = !matches!(after, Some(b) if b.is_ascii_lowercase() || *b == b'-');
        if after_ok {
            return true;
        }
        from = abs + 1;
    }
    false
}

/// Cross-checks the CLI surface declared in `crates/cli/src/args.rs`
/// against `docs/CLI.md`: every dispatched subcommand, every `"--flag"`
/// literal and every exit code on the `exit codes:` usage line must be
/// stated in the doc (same word-boundary rules as the FORMAT.md pass).
pub(crate) fn lint_cli_drift(args_rs: &str, cli_md: &str) -> Vec<Violation> {
    const ARGS_RS: &str = "crates/cli/src/args.rs";
    let comments = lex(args_rs).comments;
    let mut out = Vec::new();
    let push = |out: &mut Vec<Violation>, line: usize, message: String| {
        if !is_suppressed(&comments, line, Lint::SpecDrift) {
            out.push(Violation {
                lint: Lint::SpecDrift,
                file: ARGS_RS.to_string(),
                line,
                message,
                notes: Vec::new(),
            });
        }
    };
    let mut subcommands = 0usize;
    let mut flags_seen: Vec<String> = Vec::new();
    for (idx, raw) in args_rs.lines().enumerate() {
        let line_no = idx + 1;
        // Subcommand dispatch arms: `"encode" => parse_encode(...)`.
        if let Some(arrow) = raw.find("\" => parse_") {
            let head = &raw[..arrow];
            if let Some(open) = head.rfind('"') {
                let name = &head[open + 1..];
                if !name.is_empty()
                    && name
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
                {
                    subcommands += 1;
                    if !contains_word(cli_md, name) {
                        push(
                            &mut out,
                            line_no,
                            format!("docs/CLI.md does not document the `{name}` subcommand"),
                        );
                    }
                }
            }
        }
        // Exact `"--flag"` string literals (match arms and alias lists).
        let mut from = 0usize;
        while let Some(p) = raw.get(from..).and_then(|h| h.find("\"--")) {
            let abs = from + p;
            let rest = &raw[abs + 1..];
            let end = rest
                .char_indices()
                .find(|(_, c)| !(c.is_ascii_lowercase() || *c == '-'))
                .map(|(i, _)| i)
                .unwrap_or(rest.len());
            let flag = &rest[..end];
            if rest[end..].starts_with('"')
                && flag.len() > 2
                && !flags_seen.contains(&flag.to_string())
            {
                flags_seen.push(flag.to_string());
                if !contains_flag(cli_md, flag) {
                    push(
                        &mut out,
                        line_no,
                        format!("docs/CLI.md does not document the `{flag}` flag"),
                    );
                }
            }
            from = abs + 3;
        }
        // Exit codes from the usage text's `exit codes:` line.
        if let Some(p) = raw.find("exit codes:") {
            let codes: Vec<String> = raw[p..]
                .chars()
                .filter(|c| c.is_ascii_digit())
                .map(|c| c.to_string())
                .collect();
            if !codes.is_empty() {
                subcommands += 1; // the usage line counts as extractable surface
            }
            for code in codes {
                if !contains_word(cli_md, &code) {
                    push(
                        &mut out,
                        line_no,
                        format!("docs/CLI.md does not state exit code {code}"),
                    );
                }
            }
        }
    }
    if subcommands == 0 && flags_seen.is_empty() {
        out.push(Violation {
            lint: Lint::SpecDrift,
            file: ARGS_RS.to_string(),
            line: 1,
            message: "no subcommands/flags/exit codes could be extracted from args.rs".to_string(),
            notes: Vec::new(),
        });
    }
    out
}

// ---------------------------------------------------------------------------
// L5: SzhiError variant coverage
// ---------------------------------------------------------------------------

/// Variant names (with byte positions) of `pub enum <name>` in lexed code.
fn extract_enum_variants(code: &[u8], enum_name: &str) -> Option<Vec<(String, usize)>> {
    let pat = format!("pub enum {enum_name}");
    let p = find(code, pat.as_bytes(), 0)?;
    let open = (p..code.len()).find(|&k| code[k] == b'{')?;
    let close = match_brace(code, open)?;
    let mut variants = Vec::new();
    let mut depth = 0usize;
    let mut expect_name = true;
    let mut i = open + 1;
    while i < close {
        match code[i] {
            b'{' | b'(' | b'[' => {
                depth += 1;
                i += 1;
            }
            b'}' | b')' | b']' => {
                depth = depth.saturating_sub(1);
                i += 1;
            }
            b',' if depth == 0 => {
                expect_name = true;
                i += 1;
            }
            b'#' => {
                // Skip an attribute: `#[...]`.
                if code.get(i + 1) == Some(&b'[') {
                    let mut d = 0usize;
                    let mut k = i + 1;
                    while k < close {
                        match code[k] {
                            b'[' => d += 1,
                            b']' => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    i = k + 1;
                } else {
                    i += 1;
                }
            }
            b if is_ident_byte(b) && depth == 0 => {
                let s = i;
                while i < close && is_ident_byte(code[i]) {
                    i += 1;
                }
                if expect_name {
                    variants.push((String::from_utf8_lossy(&code[s..i]).into_owned(), s));
                    expect_name = false;
                }
            }
            _ => i += 1,
        }
    }
    Some(variants)
}

/// Checks that every `SzhiError` variant is (a) constructed/named in
/// first-party library code outside its defining file, and (b) asserted by
/// name inside at least one test (a `#[cfg(test)]` region or a `tests/`
/// file). `files` maps workspace-relative paths to file contents.
pub fn lint_error_coverage(files: &[(String, String)]) -> Vec<Violation> {
    struct Prepped {
        rel: String,
        code: Vec<u8>,
        tests: Vec<(usize, usize)>,
        whole_test: bool,
    }
    let prepped: Vec<Prepped> = files
        .iter()
        .filter(|(rel, _)| !is_vendor_path(rel))
        .map(|(rel, src)| {
            let code = lex(src).code;
            let tests = test_regions(&code);
            Prepped {
                rel: rel.clone(),
                tests,
                whole_test: is_test_path(rel),
                code,
            }
        })
        .collect();

    // Locate the enum definition.
    let mut enum_rel = None;
    let mut variants: Vec<(String, usize)> = Vec::new();
    let mut enum_comments = HashMap::new();
    for (rel, src) in files {
        if !is_first_party_lib(rel) {
            continue;
        }
        let lexed = lex(src);
        if let Some(vs) = extract_enum_variants(&lexed.code, "SzhiError") {
            let starts = line_starts(&lexed.code);
            variants = vs
                .into_iter()
                .map(|(name, pos)| (name, line_of(&starts, pos)))
                .collect();
            enum_rel = Some(rel.clone());
            enum_comments = lexed.comments;
            break;
        }
    }
    let Some(enum_rel) = enum_rel else {
        return vec![Violation {
            lint: Lint::ErrorCoverage,
            file: "crates/core/src/error.rs".to_string(),
            line: 1,
            message: "no `pub enum SzhiError` found in first-party library code".to_string(),
            notes: Vec::new(),
        }];
    };

    let mentions = |p: &Prepped, variant: &str, want_test: bool| -> bool {
        let pat = format!("SzhiError::{variant}");
        let pb = pat.as_bytes();
        let mut from = 0usize;
        while let Some(pos) = find(&p.code, pb, from) {
            let boundary = p
                .code
                .get(pos + pb.len())
                .is_none_or(|b| !is_ident_byte(*b));
            if boundary {
                let in_test = p.whole_test || in_regions(&p.tests, pos);
                if in_test == want_test {
                    return true;
                }
            }
            from = pos + 1;
        }
        false
    };

    let mut out = Vec::new();
    for (variant, line) in &variants {
        let constructed = prepped
            .iter()
            .filter(|p| is_first_party_lib(&p.rel) && p.rel != enum_rel)
            .any(|p| mentions(p, variant, false));
        let tested = prepped.iter().any(|p| mentions(p, variant, true));
        let mut push = |message: String| {
            if !is_suppressed(&enum_comments, *line, Lint::ErrorCoverage) {
                out.push(Violation {
                    lint: Lint::ErrorCoverage,
                    file: enum_rel.clone(),
                    line: *line,
                    message,
                    notes: Vec::new(),
                });
            }
        };
        if !constructed {
            push(format!(
                "`SzhiError::{variant}` is never constructed in library code outside {enum_rel}"
            ));
        }
        if !tested {
            push(format!(
                "`SzhiError::{variant}` is never asserted by name in any test"
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// L5 (cli leg): every usage-error message in args.rs pinned by a test
// ---------------------------------------------------------------------------

/// Reads a Rust string literal starting at the `"` at `pos` in raw
/// source, resolving `\"`, `\\`, `\n`, `\t` and backslash-newline
/// continuations. Returns the decoded content.
fn read_string_literal(src: &[u8], pos: usize) -> Option<String> {
    if src.get(pos) != Some(&b'"') {
        return None;
    }
    let mut out = String::new();
    let mut i = pos + 1;
    while i < src.len() {
        match src[i] {
            b'"' => return Some(out),
            b'\\' => {
                i += 1;
                match src.get(i)? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'\n' => {
                        // Line continuation: skip the newline and the
                        // indentation that follows.
                        i += 1;
                        while matches!(src.get(i), Some(b' ') | Some(b'\t')) {
                            i += 1;
                        }
                        continue;
                    }
                    &b => out.push(b as char),
                }
                i += 1;
            }
            b => {
                out.push(b as char);
                i += 1;
            }
        }
    }
    None
}

/// The longest literal segment of a format string, between `{...}`
/// placeholders (`{{`/`}}` decoded as literal braces).
fn longest_literal_segment(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut segments: Vec<String> = vec![String::new()];
    let mut i = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'{' if bytes.get(i + 1) == Some(&b'{') => {
                if let Some(seg) = segments.last_mut() {
                    seg.push('{');
                }
                i += 2;
            }
            b'}' if bytes.get(i + 1) == Some(&b'}') => {
                if let Some(seg) = segments.last_mut() {
                    seg.push('}');
                }
                i += 2;
            }
            b'{' => {
                // A placeholder: skip to the matching `}` and start a new
                // segment.
                while i < bytes.len() && bytes[i] != b'}' {
                    i += 1;
                }
                i += 1;
                segments.push(String::new());
            }
            b => {
                if let Some(seg) = segments.last_mut() {
                    seg.push(b as char);
                }
                i += 1;
            }
        }
    }
    segments
        .into_iter()
        .map(|seg| seg.trim().to_string())
        .max_by_key(|seg| seg.len())
        .unwrap_or_default()
}

/// L5 cli leg: every `usage(...)` error message constructed in
/// `crates/cli/src/args.rs` must be pinned by a test — its longest
/// literal segment must appear verbatim inside test code somewhere in the
/// workspace (the args.rs test table asserting exit code 2 and the
/// message text). Messages too short to pin robustly (< 8 chars of
/// literal text) are skipped.
pub(crate) fn lint_usage_pins(files: &[(String, String)]) -> Vec<Violation> {
    const ARGS_RS: &str = "crates/cli/src/args.rs";
    let Some((_, args_src)) = files.iter().find(|(rel, _)| rel == ARGS_RS) else {
        return Vec::new(); // no cli crate in this tree: nothing to pin
    };
    let lexed = lex(args_src);
    let starts = line_starts(&lexed.code);
    let tests = test_regions(&lexed.code);
    let raw = args_src.as_bytes();

    // Collect the usage messages: `usage("...")` / `usage(format!("..."))`
    // call sites outside test code. Blanking preserves byte offsets, so
    // positions found in lexed code index the raw source directly.
    let mut messages: Vec<(usize, String)> = Vec::new(); // (line, segment)
    let mut from = 0usize;
    while let Some(p) = find(&lexed.code, b"usage(", from) {
        from = p + 1;
        if (p > 0 && is_ident_byte(lexed.code[p - 1])) || in_regions(&tests, p) {
            continue; // an identifier tail (`USAGE(`-like) or test code
        }
        // Skip the definition `fn usage(msg: String)`.
        if let Some((pp, prev)) = lexer::prev_nonspace(&lexed.code, p) {
            if is_ident_byte(prev) {
                if let Some((_, word)) = lexer::ident_before(&lexed.code, pp + 1) {
                    if word == b"fn" {
                        continue;
                    }
                }
            }
        }
        // Find the string literal: directly, or behind `format!(`.
        let mut q = p + 6;
        while matches!(raw.get(q), Some(b' ') | Some(b'\n') | Some(b'\t')) {
            q += 1;
        }
        if raw[q..].starts_with(b"format!(") {
            q += 8;
            while matches!(raw.get(q), Some(b' ') | Some(b'\n') | Some(b'\t')) {
                q += 1;
            }
        }
        let Some(content) = read_string_literal(raw, q) else {
            continue; // not a literal (e.g. `usage(msg)` forwarding)
        };
        let segment = longest_literal_segment(&content);
        if segment.len() >= 8 {
            messages.push((line_of(&starts, p), segment));
        }
    }

    // A message is pinned when its segment appears inside test code.
    let pinned = |segment: &str| -> bool {
        files.iter().any(|(rel, src)| {
            if is_vendor_path(rel) {
                return false;
            }
            let whole_test = is_test_path(rel);
            let code = lex(src).code;
            let regions = test_regions(&code);
            let mut from = 0usize;
            // Search the raw source: the segment lives inside test string
            // literals, which the lexer blanks.
            while let Some(pos) = find(src.as_bytes(), segment.as_bytes(), from) {
                if whole_test || in_regions(&regions, pos) {
                    return true;
                }
                from = pos + 1;
            }
            false
        })
    };

    let mut out = Vec::new();
    for (line, segment) in messages {
        if is_suppressed(&lexed.comments, line, Lint::ErrorCoverage) {
            continue;
        }
        if !pinned(&segment) {
            out.push(Violation {
                lint: Lint::ErrorCoverage,
                file: ARGS_RS.to_string(),
                line,
                message: format!(
                    "usage-error message \"{segment}\" has no test pinning its exit code and text"
                ),
                notes: Vec::new(),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Per-run summary metrics, printed on the report's last line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Source files analyzed.
    pub files: usize,
    /// `fn` items in the function table (vendor included).
    pub functions: usize,
    /// Call sites extracted from non-test code.
    pub calls: usize,
    /// Resolved call edges (conservative: one site may yield several).
    pub resolved_edges: usize,
    /// Call sites resolution recorded as unresolved (never dropped).
    pub unresolved_calls: usize,
    /// L6 decode/serve entry points found.
    pub panic_roots: usize,
    /// L7 warm-path roots found.
    pub alloc_roots: usize,
}

/// A full analysis result: summary metrics plus the findings.
pub struct AnalysisReport {
    /// Function-table and call-graph statistics.
    pub metrics: Metrics,
    /// All findings, sorted by file, line and lint.
    pub violations: Vec<Violation>,
}

/// Runs every lint over the sources [`workspace_sources`] collects under
/// `root`. Violations are sorted by file, line and lint.
pub fn analyze(root: &Path) -> io::Result<AnalysisReport> {
    let files = workspace_sources(root)?;
    let mut out = Vec::new();
    let format_rs = files
        .iter()
        .find(|(rel, _)| rel == "crates/core/src/format.rs");
    let format_md = fs::read_to_string(root.join("docs/FORMAT.md"));
    match (format_rs, format_md) {
        (Some((_, src)), Ok(md)) => out.extend(lint_spec_drift(src, &md)),
        _ => out.push(Violation {
            lint: Lint::SpecDrift,
            file: "docs/FORMAT.md".to_string(),
            line: 1,
            message: "format.rs or docs/FORMAT.md not found; cannot cross-check the spec"
                .to_string(),
            notes: Vec::new(),
        }),
    }
    let args_rs = files
        .iter()
        .find(|(rel, _)| rel == "crates/cli/src/args.rs");
    let cli_md = fs::read_to_string(root.join("docs/CLI.md"));
    match (args_rs, cli_md) {
        (Some((_, src)), Ok(md)) => out.extend(lint_cli_drift(src, &md)),
        _ => out.push(Violation {
            lint: Lint::SpecDrift,
            file: "docs/CLI.md".to_string(),
            line: 1,
            message: "args.rs or docs/CLI.md not found; cannot cross-check the CLI doc".to_string(),
            notes: Vec::new(),
        }),
    }
    out.extend(lint_error_coverage(&files));
    out.extend(lint_usage_pins(&files));

    // The call-graph lints: the decode walk (L6 with L3) and L7 over
    // first-party code, L8 over the vendored pool.
    let first_party: Vec<(String, String)> = files
        .iter()
        .filter(|(rel, _)| !is_vendor_path(rel))
        .cloned()
        .collect();
    let ws = Workspace::from_sources(&first_party);
    let cg = graph::CallGraph::build(&ws);
    let vendor_files: Vec<(String, String)> = files
        .iter()
        .filter(|(rel, _)| rel.starts_with("vendor/rayon/"))
        .cloned()
        .collect();
    let vws = Workspace::from_sources(&vendor_files);
    let vcg = graph::CallGraph::build(&vws);
    let metrics = Metrics {
        files: files.len(),
        functions: ws.fns.len() + vws.fns.len(),
        calls: cg.calls + vcg.calls,
        resolved_edges: cg.resolved_edges + vcg.resolved_edges,
        unresolved_calls: cg.unresolved_calls + vcg.unresolved_calls,
        panic_roots: graph::l6_roots(&ws).len(),
        alloc_roots: graph::l7_roots(&ws).len(),
    };
    out.extend(graph::lint_decode_paths(&ws, &cg));
    out.extend(graph::lint_steady_alloc(&ws, &cg));
    out.extend(graph::lint_pool_invariants(&vws, &vcg));

    out.sort_by(|a, b| (&a.file, a.line, a.lint.id()).cmp(&(&b.file, b.line, b.lint.id())));
    Ok(AnalysisReport {
        metrics,
        violations: out,
    })
}

/// Every `.rs` file under `root` (skipping `target/`, `.git/`, `fixtures/`
/// and `node_modules/`) as `(workspace-relative /-separated path, source)`,
/// sorted by path. This is the file set every lint sees.
pub fn workspace_sources(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    collect_rs(root, root, &mut files)?;
    files.sort();
    Ok(files)
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(
                name.as_ref(),
                "target" | ".git" | "fixtures" | "node_modules"
            ) {
                continue;
            }
            collect_rs(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            if let Ok(src) = fs::read_to_string(&path) {
                out.push((rel, src));
            }
        }
    }
    Ok(())
}
