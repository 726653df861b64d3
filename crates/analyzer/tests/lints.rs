//! Per-lint fixture tests: each lint must fire on a seeded violation and
//! stay quiet on the equivalent clean code, and the inline suppression
//! syntax must silence exactly the annotated line.
//!
//! Fixtures are passed to the linting functions as string literals — the
//! analyzer's own lexer blanks literal contents before matching, so these
//! fixtures can never make the analyzer trip over its own test suite. The
//! decode walk's fixtures (L6 with L3) live in `callgraph.rs`.

use szhi_analyzer::{lex, lint_error_coverage, lint_spec_drift, Lint};

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[test]
fn lexer_blanks_strings_and_collects_comments() {
    let lexed = lex("let s = \"unsafe\"; // unsafe in a comment\n");
    let code = String::from_utf8(lexed.code).unwrap();
    assert!(
        !code.contains("unsafe"),
        "literal and comment text must be blanked, got: {code}"
    );
    assert!(lexed.comments[&1].contains("unsafe in a comment"));
}

#[test]
fn lexer_blanks_raw_strings_but_keeps_following_code() {
    let lexed = lex("let s = r#\"panic!(boom)\"#; let t = 1;\n");
    let code = String::from_utf8(lexed.code).unwrap();
    assert!(!code.contains("panic"));
    assert!(code.contains("let t = 1;"));
}

#[test]
fn lexer_preserves_byte_offsets_and_newlines() {
    let src = "let a = \"x\";\n// note\nlet b = 'y';\n";
    let lexed = lex(src);
    assert_eq!(lexed.code.len(), src.len());
    assert_eq!(
        lexed.code.iter().filter(|&&b| b == b'\n').count(),
        src.bytes().filter(|&b| b == b'\n').count()
    );
}

// ---------------------------------------------------------------------------
// L4: spec-drift
// ---------------------------------------------------------------------------

const FORMAT_RS_FIXTURE: &str = "pub(crate) const MAGIC: [u8; 4] = *b\"SZHI\";\n\
                                 pub(crate) const VERSION: u8 = 1;\n\
                                 pub(crate) const TRAILER_SIZE: usize = 24;\n";

#[test]
fn l4_passes_when_docs_state_the_constants() {
    let md = "The stream opens with \"SZHI\", a v1 body, and a trailer of 24 bytes.";
    assert!(lint_spec_drift(FORMAT_RS_FIXTURE, md).is_empty());
}

#[test]
fn l4_flags_drifted_docs() {
    let md = "The stream opens with \"SZXX\", a v2 body, and a trailer of 16 bytes.";
    let v = lint_spec_drift(FORMAT_RS_FIXTURE, md);
    assert_eq!(v.len(), 3, "{v:?}");
    assert!(v.iter().all(|v| v.lint == Lint::SpecDrift));
    // Violations anchor at the declaring const's line in format.rs.
    assert_eq!(v.iter().map(|v| v.line).collect::<Vec<_>>(), vec![1, 2, 3]);
}

#[test]
fn l4_version_check_uses_word_boundaries() {
    // "v12" must not satisfy the v1 check.
    let md = "Magic \"SZHI\", a v12 body, 24 bytes of trailer.";
    let v = lint_spec_drift(FORMAT_RS_FIXTURE, md);
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].line, 2);
}

#[test]
fn l4_reports_when_nothing_can_be_extracted() {
    let v = lint_spec_drift("fn nothing_here() {}\n", "prose");
    assert_eq!(v.len(), 1);
    assert_eq!(v[0].lint, Lint::SpecDrift);
}

#[test]
fn l4_suppression_on_the_const_line() {
    let rs = "// szhi-analyzer: allow(spec-drift) -- legacy magic intentionally undocumented\n\
              pub(crate) const OLD_MAGIC: [u8; 4] = *b\"OLD!\";\n";
    assert!(lint_spec_drift(rs, "no mention of it").is_empty());
}

#[test]
fn suppression_requires_a_reason() {
    let with_reason =
        "// szhi-analyzer: allow(spec-drift) -- legacy magic intentionally undocumented\n\
                       pub(crate) const OLD_MAGIC: [u8; 4] = *b\"OLD!\";\n";
    assert!(lint_spec_drift(with_reason, "no mention of it").is_empty());

    // Without its reason the same comment suppresses nothing.
    let without_reason = "// szhi-analyzer: allow(spec-drift)\n\
                          pub(crate) const OLD_MAGIC: [u8; 4] = *b\"OLD!\";\n";
    assert_eq!(lint_spec_drift(without_reason, "no mention of it").len(), 1);
}

// ---------------------------------------------------------------------------
// L5: error-coverage
// ---------------------------------------------------------------------------

fn l5_files(lib_src: &str, test_src: &str) -> Vec<(String, String)> {
    vec![
        (
            "crates/core/src/error.rs".to_string(),
            "pub enum SzhiError {\n    Io(String),\n}\n".to_string(),
        ),
        ("crates/core/src/lib.rs".to_string(), lib_src.to_string()),
        (
            "crates/core/tests/errors.rs".to_string(),
            test_src.to_string(),
        ),
    ]
}

#[test]
fn l5_requires_construction_and_assertion() {
    let v = lint_error_coverage(&l5_files("", ""));
    assert_eq!(v.len(), 2, "{v:?}");
    assert!(v.iter().all(|v| v.lint == Lint::ErrorCoverage));
    assert!(v[0].message.contains("never constructed"));
    assert!(v[1].message.contains("never asserted"));

    let v = lint_error_coverage(&l5_files(
        "pub fn f() -> SzhiError { SzhiError::Io(String::new()) }\n",
        "fn t(e: SzhiError) { assert!(matches!(e, SzhiError::Io(_))); }\n",
    ));
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn l5_construction_in_a_test_does_not_count_as_library_use() {
    // The only construction site sits inside a #[cfg(test)] region: the
    // "constructed in library code" leg must still fire.
    let v = lint_error_coverage(&l5_files(
        "#[cfg(test)]\nmod tests {\n    fn f() -> SzhiError { SzhiError::Io(String::new()) }\n}\n",
        "fn t(e: SzhiError) { assert!(matches!(e, SzhiError::Io(_))); }\n",
    ));
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(v[0].message.contains("never constructed"));
}

#[test]
fn l5_suppression_on_the_variant_line() {
    let files = vec![(
        "crates/core/src/error.rs".to_string(),
        "pub enum SzhiError {\n    \
         // szhi-analyzer: allow(error-coverage) -- reserved for the v6 container\n    \
         Future,\n}\n"
            .to_string(),
    )];
    assert!(lint_error_coverage(&files).is_empty());
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

#[test]
fn violations_render_as_file_line_lint() {
    let md = "The stream opens with \"SZHI\", a v1 body, and a trailer of 16 bytes.";
    let v = &lint_spec_drift(FORMAT_RS_FIXTURE, md)[0];
    let rendered = v.to_string();
    assert!(
        rendered.starts_with("crates/core/src/format.rs:3: [spec-drift]"),
        "got: {rendered}"
    );
}
