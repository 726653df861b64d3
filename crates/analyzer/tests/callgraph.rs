//! Fixture tests for the call-graph engine: name resolution, conservatism
//! (unresolved calls are recorded, never dropped), cycle termination, the
//! decode walk's site classes (L6 panics, L3 uncapped allocations), and the
//! transitive lints' chain reporting.

use szhi_analyzer::graph::{lint_decode_paths, CallGraph, Qualifier};
use szhi_analyzer::{Lint, Violation, Workspace};

fn ws_of(files: &[(&str, &str)]) -> Workspace {
    let sources: Vec<(String, String)> = files
        .iter()
        .map(|(rel, src)| (rel.to_string(), src.to_string()))
        .collect();
    Workspace::from_sources(&sources)
}

/// The decode walk's findings over one serving-crate file.
fn decode_findings(src: &str) -> Vec<Violation> {
    let ws = ws_of(&[("crates/core/src/fixture.rs", src)]);
    lint_decode_paths(&ws, &CallGraph::build(&ws))
}

#[test]
fn bare_call_prefers_free_fn_over_method_of_same_name() {
    let ws = ws_of(&[(
        "crates/x/src/lib.rs",
        r#"
struct A;
impl A {
    fn go(&self) -> usize {
        work()
    }
    fn via_self(&self) -> usize {
        self.work()
    }
    fn work(&self) -> usize {
        1
    }
}
fn work() -> usize {
    2
}
"#,
    )]);
    let graph = CallGraph::build(&ws);
    let free_work = ws.find_fn("work", None).expect("free work");
    let method_work = ws.find_fn("work", Some("A")).expect("A::work");

    let go = ws.find_fn("go", Some("A")).expect("A::go");
    assert_eq!(graph.callees(go), vec![free_work], "bare call → free fn");

    let via_self = ws.find_fn("via_self", Some("A")).expect("A::via_self");
    assert_eq!(
        graph.callees(via_self),
        vec![method_work],
        "self.work() → the enclosing impl's method"
    );
}

#[test]
fn same_method_name_on_two_types_resolves_by_owner() {
    let ws = ws_of(&[(
        "crates/x/src/lib.rs",
        r#"
struct B;
struct C;
impl B {
    fn ping(&self) -> usize {
        1
    }
}
impl C {
    fn ping(&self) -> usize {
        2
    }
}
fn drive_b(b: &B) -> usize {
    B::ping(b)
}
fn drive_unknown(b: &B) -> usize {
    (*b).ping()
}
"#,
    )]);
    let graph = CallGraph::build(&ws);
    let b_ping = ws.find_fn("ping", Some("B")).expect("B::ping");
    let c_ping = ws.find_fn("ping", Some("C")).expect("C::ping");

    let drive_b = ws.find_fn("drive_b", None).unwrap();
    assert_eq!(
        graph.callees(drive_b),
        vec![b_ping],
        "Type::method resolves to that type's impl only"
    );

    let drive_unknown = ws.find_fn("drive_unknown", None).unwrap();
    let mut callees = graph.callees(drive_unknown);
    callees.sort_unstable();
    assert_eq!(
        callees,
        vec![b_ping, c_ping],
        "a method on an unknown receiver conservatively fans out to every impl"
    );
}

#[test]
fn local_nested_fn_shadows_the_free_fn() {
    let ws = ws_of(&[(
        "crates/x/src/lib.rs",
        r#"
fn outer() -> usize {
    fn helper() -> usize {
        1
    }
    helper()
}
fn helper() -> usize {
    2
}
"#,
    )]);
    let graph = CallGraph::build(&ws);
    let outer = ws.find_fn("outer", None).unwrap();
    let callees = graph.callees(outer);
    assert_eq!(
        callees.len(),
        1,
        "exactly one resolution for the shadowed name"
    );
    let callee = &ws.fns[callees[0]];
    assert_eq!(callee.name, "helper");
    let outer_body = ws.fns[outer].body;
    assert!(
        callee.body.0 > outer_body.0 && callee.body.1 < outer_body.1,
        "the nested helper (inside outer's body) wins over the free helper"
    );
}

#[test]
fn macro_calls_are_recorded_as_unresolved_not_dropped() {
    let ws = ws_of(&[(
        "crates/x/src/lib.rs",
        r#"
fn uses_macro() -> String {
    format!("{}", 1)
}
"#,
    )]);
    let graph = CallGraph::build(&ws);
    assert!(graph.calls >= 1);
    assert!(graph.unresolved_calls >= 1);
    let site = graph
        .unresolved
        .iter()
        .find(|s| s.name == "format")
        .expect("the format! invocation is recorded");
    assert_eq!(site.qualifier, Qualifier::Macro);
}

#[test]
fn call_cycles_terminate_the_reachability_walk() {
    let ws = ws_of(&[(
        "crates/core/src/cyclic.rs",
        r#"
pub fn decompress_cycle(n: usize) -> usize {
    a_step(n)
}
fn a_step(n: usize) -> usize {
    if n == 0 {
        0
    } else {
        b_step(n - 1)
    }
}
fn b_step(n: usize) -> usize {
    a_step(n)
}
"#,
    )]);
    let graph = CallGraph::build(&ws);
    // `decompress_cycle` is an L6 root; the a↔b cycle must not hang or
    // overflow the walk, and a panic-free cycle yields no findings.
    let violations = lint_decode_paths(&ws, &graph);
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn transitive_panic_chain_is_reported_with_the_full_path() {
    let ws = ws_of(&[(
        "crates/core/src/fixture.rs",
        r#"
pub fn decompress_entry(stream: &[u8]) -> usize {
    helper_mid(stream)
}
fn helper_mid(stream: &[u8]) -> usize {
    helper_leaf(stream)
}
fn helper_leaf(stream: &[u8]) -> usize {
    stream.first().copied().unwrap() as usize
}
"#,
    )]);
    let graph = CallGraph::build(&ws);
    let violations = lint_decode_paths(&ws, &graph);
    assert_eq!(violations.len(), 1, "{violations:?}");
    let v = &violations[0];
    assert_eq!(v.file, "crates/core/src/fixture.rs");

    // The Display form carries the whole chain, entry to panic site.
    let text = v.to_string();
    assert!(text.contains("[panic-reachability]"), "{text}");
    assert!(text.contains("entry `decompress_entry`"), "{text}");
    assert!(text.contains("`helper_mid`"), "{text}");
    assert!(text.contains("`helper_leaf`"), "{text}");
    assert!(text.contains("call to `.unwrap()`"), "{text}");
}

#[test]
fn suppression_at_a_call_site_cuts_the_whole_chain() {
    let ws = ws_of(&[(
        "crates/core/src/fixture.rs",
        r#"
pub fn decompress_entry(stream: &[u8]) -> usize {
    // szhi-analyzer: allow(panic-reachability) -- fixture: the callee is length-checked upstream
    helper_mid(stream)
}
fn helper_mid(stream: &[u8]) -> usize {
    stream.first().copied().unwrap() as usize
}
"#,
    )]);
    let graph = CallGraph::build(&ws);
    let violations = lint_decode_paths(&ws, &graph);
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn warm_path_allocations_are_flagged_even_when_named_scratch() {
    let ws = ws_of(&[(
        "crates/core/src/warm.rs",
        r#"
pub fn compress_into(out: &mut Vec<u8>) {
    fill(out);
}
fn fill(out: &mut Vec<u8>) {
    let tmp: Vec<u8> = Vec::new();
    let scratch_buf: Vec<u8> = Vec::with_capacity(16); // reused scratch
    out.extend_from_slice(&tmp);
    out.extend_from_slice(&scratch_buf);
}
"#,
    )]);
    let graph = CallGraph::build(&ws);
    let violations = szhi_analyzer::graph::lint_steady_alloc(&ws, &graph);
    // A fresh buffer is fresh whatever it is called.
    let found: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
    assert_eq!(found.len(), 2, "{found:?}");
    assert!(found[0].contains("`Vec::new()`"), "{}", found[0]);
    assert!(found[1].contains("`with_capacity`"), "{}", found[1]);
}

#[test]
fn a_push_that_replaces_its_scratch_plane_is_flagged() {
    let ws = ws_of(&[(
        "crates/core/src/stream.rs",
        r#"
pub struct StreamSink {
    scratch: EncodeScratch,
}
impl StreamSink {
    pub fn push_chunk_with(&mut self) {
        self.scratch.plane = Vec::new();
    }
}
"#,
    )]);
    let graph = CallGraph::build(&ws);
    let violations = szhi_analyzer::graph::lint_steady_alloc(&ws, &graph);
    assert_eq!(violations.len(), 1, "{violations:?}");
    let found = violations[0].to_string();
    assert!(found.contains("`Vec::new()`"), "{found}");
    assert!(found.contains("StreamSink::push_chunk_with"), "{found}");
}

#[test]
fn a_trailing_comma_in_a_signature_adds_no_parameter() {
    let ws = ws_of(&[(
        "crates/x/src/lib.rs",
        r#"
fn callee(
    first_argument_with_a_long_name: usize,
    second_argument_with_a_long_name: usize,
) -> usize {
    first_argument_with_a_long_name + second_argument_with_a_long_name
}
fn caller() -> usize {
    callee(1, 2)
}
"#,
    )]);
    let callee = ws.find_fn("callee", None).unwrap();
    assert_eq!(ws.fns[callee].params, 2);
    let caller = ws.find_fn("caller", None).unwrap();
    assert_eq!(CallGraph::build(&ws).callees(caller), vec![callee]);
}

#[test]
fn a_trailing_comma_in_a_call_adds_no_argument() {
    let ws = ws_of(&[(
        "crates/x/src/lib.rs",
        r#"
fn callee(a: usize, b: usize) -> usize {
    a + b
}
fn caller() -> usize {
    callee(
        1,
        2,
    )
}
"#,
    )]);
    let callee = ws.find_fn("callee", None).unwrap();
    let caller = ws.find_fn("caller", None).unwrap();
    assert_eq!(CallGraph::build(&ws).callees(caller), vec![callee]);
}

#[test]
fn a_string_literal_argument_counts_as_one() {
    let ws = ws_of(&[(
        "crates/x/src/lib.rs",
        r#"
fn named(name: &str) -> usize {
    name.len()
}
fn caller() -> usize {
    named("x")
}
"#,
    )]);
    let named = ws.find_fn("named", None).unwrap();
    let caller = ws.find_fn("caller", None).unwrap();
    assert_eq!(CallGraph::build(&ws).callees(caller), vec![named]);
}

#[test]
fn a_bare_call_resolves_to_its_own_file_first() {
    let ws = ws_of(&[
        (
            "crates/x/src/a.rs",
            "pub fn encode(v: usize) -> usize {\n    v\n}\n\
             pub fn dispatch(v: usize) -> usize {\n    encode(v)\n}\n",
        ),
        (
            "crates/x/src/b.rs",
            "pub fn encode(v: usize) -> usize {\n    v + 1\n}\n",
        ),
    ]);
    let dispatch = ws.find_fn("dispatch", None).unwrap();
    let own = ws
        .fns
        .iter()
        .position(|f| f.name == "encode" && ws.files[f.file].rel.ends_with("a.rs"))
        .unwrap();
    assert_eq!(CallGraph::build(&ws).callees(dispatch), vec![own]);
}

#[test]
fn decode_walk_flags_every_panic_site_class() {
    for body in [
        "v[0]",
        "o.unwrap()",
        "o.expect(\"present\")",
        "panic!(\"boom\")",
        "unreachable!()",
    ] {
        let v = decode_findings(&format!(
            "pub fn decompress_entry(v: &[u8], o: Option<u8>) -> u8 {{\n    helper(v, o)\n}}\n\
             fn helper(v: &[u8], o: Option<u8>) -> u8 {{\n    {body}\n}}\n"
        ));
        assert_eq!(v.len(), 1, "{body} must fire: {v:?}");
        assert_eq!(v[0].lint, Lint::PanicReachability);
        assert_eq!(v[0].line, 5);
    }
}

#[test]
fn decode_walk_skips_unreached_fns_tests_and_unwrap_or() {
    let src = "pub fn decompress_entry(o: Option<u8>) -> u8 {\n    o.unwrap_or(0)\n}\n\
               pub fn encode_field(v: &[u8]) -> u8 {\n    v[0]\n}\n\
               #[cfg(test)]\nmod tests {\n    fn decompress_helper(v: &[u8]) -> u8 {\n        v[0]\n    }\n}\n";
    let v = decode_findings(src);
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn decode_roots_come_only_from_the_serving_crates() {
    let src = "pub fn decompress_field(v: &[u8]) -> u8 {\n    v[0]\n}\n";
    assert_eq!(decode_findings(src).len(), 1);
    let ws = ws_of(&[("crates/datagen/src/x.rs", src)]);
    assert!(lint_decode_paths(&ws, &CallGraph::build(&ws)).is_empty());
}

#[test]
fn decode_walk_site_suppression_silences_one_line() {
    let v = decode_findings(
        "pub fn decompress_field(v: &[u8]) -> u8 {\n    \
         // szhi-analyzer: allow(panic-reachability) -- the caller checked the length\n    \
         let a = v[0];\n    \
         let b = v[1];\n    \
         a + b\n}\n",
    );
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].line, 4);
}

#[test]
fn decode_walk_requires_decode_capacity() {
    let fixture = |body: &str| {
        decode_findings(&format!(
            "pub fn decompress_body(n: usize) -> Vec<u8> {{\n    body_of(n)\n}}\n\
             fn body_of(n: usize) -> Vec<u8> {{\n    {body}\n}}\n"
        ))
    };
    for bad in [
        "Vec::with_capacity(n)",
        "let mut v = Vec::new();\n    v.reserve(n);\n    v",
    ] {
        let v = fixture(bad);
        assert_eq!(v.len(), 1, "{bad} must fire: {v:?}");
        assert_eq!(v[0].lint, Lint::CappedAlloc);
        assert!(v[0].notes[0].contains("entry `decompress_body`"), "{v:?}");
    }
    let good = fixture("Vec::with_capacity(decode_capacity(n))");
    assert!(good.is_empty(), "{good:?}");
}
