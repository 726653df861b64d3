//! The conservative call graph over the function table, and the
//! transitive lints that walk it: the decode walk (L6 panic-reachability
//! with L3 capped-alloc), L7 steady-state allocation-freedom and L8 pool
//! lock-ordering.
//!
//! Resolution is name-based with owner disambiguation, never type-based:
//! a method call through an unknown receiver links to *every* non-test
//! method of that name (over-approximation), while a call that matches no
//! candidate at all — macros, std/extern calls, arity mismatches — is
//! recorded as *unresolved* and counted in the metrics, never silently
//! dropped. See `docs/ANALYSIS.md` for the exact rules and what they do
//! and do not guarantee.

use crate::lexer::{
    count_list_items, ident_before, is_ident_byte, next_nonspace, prev_nonspace, skip_angles,
};
use crate::table::{is_keyword, FnItem, Workspace};
use crate::{is_suppressed, Lint, Violation};
use std::collections::HashMap;

/// How a call site was qualified in the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Qualifier {
    /// `helper(...)` — a bare path.
    Bare,
    /// `self.helper(...)` — a method on the enclosing impl's type.
    SelfMethod,
    /// `expr.helper(...)` — a method on a receiver of unknown type.
    UnknownReceiver,
    /// `Type::helper(...)` — an associated function of a named type.
    Type(String),
    /// `Self::helper(...)`.
    SelfType,
    /// `module::helper(...)` — a lowercase path segment.
    Module(String),
    /// `helper!(...)` — a macro invocation (always unresolved).
    Macro,
}

/// One syntactic call site, attributed to its innermost enclosing fn.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Index of the calling fn in [`Workspace::fns`].
    pub caller: usize,
    /// Callee name as written.
    pub name: String,
    /// Path/receiver context.
    pub qualifier: Qualifier,
    /// Byte position of the callee name.
    pub pos: usize,
    /// 1-based line.
    pub line: usize,
    /// Number of non-empty top-level arguments (a trailing comma adds none).
    pub args: usize,
    /// Whether the argument list contains a `|` (a probable closure, which
    /// makes the comma count unreliable — arity filtering is skipped).
    pub has_closure: bool,
}

/// A resolved edge: caller fn → callee fn, at a call line.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Callee fn index.
    pub callee: usize,
    /// Byte position of the call in the caller's file.
    pub pos: usize,
    /// 1-based call line in the caller's file.
    pub line: usize,
}

/// The resolved call graph plus resolution metrics.
pub struct CallGraph {
    /// Outgoing edges per fn index, in call-site order.
    pub edges: Vec<Vec<Edge>>,
    /// Total call sites extracted from non-test code.
    pub calls: usize,
    /// Resolved edges (one site may produce several, conservatively).
    pub resolved_edges: usize,
    /// Sites with no candidate (macros, std/extern, arity mismatches).
    pub unresolved_calls: usize,
    /// Unresolved sites kept for inspection, in extraction order.
    pub unresolved: Vec<CallSite>,
}

impl CallGraph {
    /// Extracts and resolves every call site of every non-test fn.
    pub fn build(ws: &Workspace) -> CallGraph {
        let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        for (i, f) in ws.fns.iter().enumerate() {
            if !f.is_test {
                by_name.entry(f.name.as_str()).or_default().push(i);
            }
        }
        let mut graph = CallGraph {
            edges: vec![Vec::new(); ws.fns.len()],
            calls: 0,
            resolved_edges: 0,
            unresolved_calls: 0,
            unresolved: Vec::new(),
        };
        for (fi, file) in ws.files.iter().enumerate() {
            if file.whole_test {
                continue;
            }
            for site in extract_calls(ws, fi) {
                graph.calls += 1;
                match resolve(ws, &by_name, &site) {
                    Some(callees) => {
                        for callee in callees {
                            graph.resolved_edges += 1;
                            graph.edges[site.caller].push(Edge {
                                callee,
                                pos: site.pos,
                                line: site.line,
                            });
                        }
                    }
                    None => {
                        graph.unresolved_calls += 1;
                        graph.unresolved.push(site);
                    }
                }
            }
        }
        graph
    }

    /// The distinct callees of one fn, in call order (test helper).
    pub fn callees(&self, fn_idx: usize) -> Vec<usize> {
        let mut out = Vec::new();
        for e in &self.edges[fn_idx] {
            if !out.contains(&e.callee) {
                out.push(e.callee);
            }
        }
        out
    }
}

/// Extracts the call sites of one file, attributed to their innermost
/// enclosing non-test fn. Attribute ranges (`#[...]`) are skipped so
/// derive lists and cfg predicates do not read as calls.
fn extract_calls(ws: &Workspace, fi: usize) -> Vec<CallSite> {
    let file = &ws.files[fi];
    let code = &file.code;
    let n = code.len();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < n {
        let b = code[i];
        if b == b'#' && code.get(i + 1) == Some(&b'[') {
            let mut depth = 0usize;
            let mut k = i + 1;
            while k < n {
                match code[k] {
                    b'[' => depth += 1,
                    b']' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            i = k + 1;
            continue;
        }
        if !is_ident_byte(b) || (i > 0 && is_ident_byte(code[i - 1])) {
            i += 1;
            continue;
        }
        let s = i;
        let mut e = i;
        while e < n && is_ident_byte(code[e]) {
            e += 1;
        }
        i = e;
        let name_bytes = &code[s..e];
        if is_keyword(name_bytes) || name_bytes == b"self" || name_bytes == b"Self" {
            continue;
        }
        // A definition, not a call: `fn name(...)`.
        if let Some((pp, prev)) = prev_nonspace(code, s) {
            if is_ident_byte(prev) {
                if let Some((_, word)) = ident_before(code, pp + 1) {
                    if word == b"fn" {
                        continue;
                    }
                }
            }
        }
        let Some((mut k, next)) = next_nonspace(code, e) else {
            break;
        };
        let mut qualifier = None;
        if next == b'!' {
            // `name!(...)` / `name![...]` / `name! {...}`: macro.
            if matches!(code.get(k + 1), Some(&b'(') | Some(&b'[') | Some(&b'{')) {
                qualifier = Some(Qualifier::Macro);
                k += 1;
            } else {
                continue;
            }
        } else {
            // Skip a turbofish between the name and the arguments.
            if next == b':' && code.get(k + 1) == Some(&b':') && code.get(k + 2) == Some(&b'<') {
                k = skip_angles(code, k + 2);
                match next_nonspace(code, k) {
                    Some((p, b'(')) => k = p,
                    _ => continue,
                }
            }
            if code.get(k) != Some(&b'(') {
                continue;
            }
        }
        let qualifier = qualifier.unwrap_or_else(|| classify_qualifier(code, s));
        let (args, has_closure, _) = count_list_items(code, k, false);
        let Some(caller) = ws.enclosing_fn(fi, s) else {
            continue;
        };
        if ws.fns[caller].is_test {
            continue;
        }
        out.push(CallSite {
            caller,
            name: String::from_utf8_lossy(name_bytes).into_owned(),
            qualifier,
            pos: s,
            line: file.line(s),
            args,
            has_closure,
        });
    }
    out
}

/// Classifies the path/receiver context of the callee name starting at `s`.
fn classify_qualifier(code: &[u8], s: usize) -> Qualifier {
    let Some((p, prev)) = prev_nonspace(code, s) else {
        return Qualifier::Bare;
    };
    if prev == b'.' {
        // Method call: `self.name(...)` vs anything else.
        if let Some((_, word)) = ident_before(code, p) {
            if word == b"self" {
                return Qualifier::SelfMethod;
            }
        }
        return Qualifier::UnknownReceiver;
    }
    if prev == b':' && p > 0 && code[p - 1] == b':' {
        // Qualified path: the segment before `::` (skipping a generic
        // argument list: `Vec::<u8>::new`).
        let mut q = p - 1;
        if q > 0 && code[q - 1] == b'>' {
            // Walk back over `<...>`.
            let mut depth = 0isize;
            let mut k = q - 1;
            loop {
                match code[k] {
                    b'>' => depth += 1,
                    b'<' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                if k == 0 {
                    break;
                }
                k -= 1;
            }
            q = k;
        }
        if let Some((_, word)) = ident_before(code, q) {
            if word == b"Self" {
                return Qualifier::SelfType;
            }
            if word == b"self" || word == b"crate" || word == b"super" {
                return Qualifier::Bare;
            }
            let seg = String::from_utf8_lossy(word).into_owned();
            if seg.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                return Qualifier::Type(seg);
            }
            return Qualifier::Module(seg);
        }
        return Qualifier::Bare;
    }
    Qualifier::Bare
}

/// Resolves one call site to its candidate callees, or `None` when the
/// site cannot be linked to any non-test fn (recorded as unresolved).
fn resolve(
    ws: &Workspace,
    by_name: &HashMap<&str, Vec<usize>>,
    site: &CallSite,
) -> Option<Vec<usize>> {
    if site.qualifier == Qualifier::Macro {
        return None;
    }
    let base = by_name.get(site.name.as_str())?;
    let caller = &ws.fns[site.caller];
    let pick = |pred: &dyn Fn(&FnItem) -> bool| -> Vec<usize> {
        base.iter().copied().filter(|&c| pred(&ws.fns[c])).collect()
    };
    let candidates: Vec<usize> = match &site.qualifier {
        Qualifier::Macro => return None,
        Qualifier::Type(t) => pick(&|f| f.owner.as_deref() == Some(t.as_str())),
        Qualifier::SelfType => {
            let owner = caller.owner.clone()?;
            pick(&|f| f.owner.as_deref() == Some(owner.as_str()))
        }
        Qualifier::SelfMethod => {
            let owner = caller.owner.clone()?;
            pick(&|f| f.owner.as_deref() == Some(owner.as_str()))
        }
        Qualifier::UnknownReceiver => pick(&|f| f.has_self),
        Qualifier::Module(m) => {
            let stem_match = pick(&|f| {
                f.owner.is_none() && !f.has_self && file_stem(&ws.files[f.file].rel) == m.as_str()
            });
            if stem_match.is_empty() {
                pick(&|f| f.owner.is_none() && !f.has_self)
            } else {
                stem_match
            }
        }
        Qualifier::Bare => {
            // Rust looks a bare name up innermost first: a `fn` nested in
            // the caller's own body, then a free fn of the caller's file
            // (its module), and only then one brought in from elsewhere.
            let inside = |f: &FnItem, outer: &FnItem| {
                f.file == outer.file && f.body.0 > outer.body.0 && f.body.1 < outer.body.1
            };
            let local = pick(&|f| inside(f, caller));
            let free = |f: &FnItem| f.owner.is_none() && !f.has_self;
            let same_file =
                pick(&|f| free(f) && f.file == caller.file && !ws.fns.iter().any(|g| inside(f, g)));
            [local, same_file]
                .into_iter()
                .find(|c| !c.is_empty())
                .unwrap_or_else(|| pick(&free))
        }
    };
    if candidates.is_empty() {
        return None;
    }
    // Arity narrowing: keep exact-arity candidates when the argument count
    // is trustworthy (no closure in the list). A site whose count matches
    // no candidate is unresolved — the callee is a std/extern fn that
    // happens to share a first-party name.
    if site.has_closure {
        return Some(candidates);
    }
    // A path-qualified method call (`Type::method(recv, ...)`) passes the
    // receiver as an explicit first argument, so a `has_self` candidate's
    // effective arity is `params + 1` there.
    let path_qualified = matches!(site.qualifier, Qualifier::Type(_) | Qualifier::SelfType);
    let exact: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&c| {
            let f = &ws.fns[c];
            let expect = if f.has_self && path_qualified {
                f.params + 1
            } else {
                f.params
            };
            expect == site.args
        })
        .collect();
    if exact.is_empty() {
        None
    } else {
        Some(exact)
    }
}

fn file_stem(rel: &str) -> &str {
    rel.rsplit('/')
        .next()
        .unwrap_or(rel)
        .strip_suffix(".rs")
        .unwrap_or(rel)
}

// ---------------------------------------------------------------------------
// Reachability
// ---------------------------------------------------------------------------

/// How a fn was reached in a BFS: its parent fn and the call line.
#[derive(Debug, Clone, Copy)]
struct Via {
    parent: Option<usize>,
    call_line: usize,
}

/// Breadth-first reachability from `roots`, honouring suppressions: an
/// edge whose call line carries `allow(<lint>)` in the caller's file cuts
/// every chain through it. Returns the reached set with parent links.
fn bfs(ws: &Workspace, graph: &CallGraph, roots: &[usize], lint: Lint) -> HashMap<usize, Via> {
    let mut reached: HashMap<usize, Via> = HashMap::new();
    let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    for &r in roots {
        if let std::collections::hash_map::Entry::Vacant(slot) = reached.entry(r) {
            slot.insert(Via {
                parent: None,
                call_line: 0,
            });
            queue.push_back(r);
        }
    }
    while let Some(f) = queue.pop_front() {
        let file = &ws.files[ws.fns[f].file];
        for e in &graph.edges[f] {
            if reached.contains_key(&e.callee) {
                continue;
            }
            if is_suppressed(&file.comments, e.line, lint) {
                continue; // the chain is cut at this call site
            }
            reached.insert(
                e.callee,
                Via {
                    parent: Some(f),
                    call_line: e.line,
                },
            );
            queue.push_back(e.callee);
        }
    }
    reached
}

/// The call chain root → … → `f`, rendered as note lines.
fn chain_notes(ws: &Workspace, reached: &HashMap<usize, Via>, f: usize) -> Vec<String> {
    let mut rev: Vec<(usize, usize)> = Vec::new(); // (fn, call_line into it)
    let mut cur = f;
    loop {
        let via = reached[&cur];
        rev.push((cur, via.call_line));
        match via.parent {
            Some(p) => cur = p,
            None => break,
        }
    }
    rev.reverse();
    let mut notes = Vec::with_capacity(rev.len());
    for (step, (fx, call_line)) in rev.iter().enumerate() {
        let item = &ws.fns[*fx];
        let rel = &ws.files[item.file].rel;
        if step == 0 {
            notes.push(format!(
                "entry `{}` ({rel}:{})",
                item.qualified(),
                item.line
            ));
        } else {
            let caller_rel = &ws.files[ws.fns[rev[step - 1].0].file].rel;
            notes.push(format!(
                "-> `{}` ({rel}:{}), called at {caller_rel}:{call_line}",
                item.qualified(),
                item.line
            ));
        }
    }
    notes
}

// ---------------------------------------------------------------------------
// Sites inside one fn body
// ---------------------------------------------------------------------------

/// A token of interest inside a fn body.
struct Site {
    pos: usize,
    line: usize,
    what: &'static str,
}

/// Byte ranges of fns nested inside `f`'s body (excluded from its scans).
fn nested_ranges(ws: &Workspace, f: usize) -> Vec<(usize, usize)> {
    let item = &ws.fns[f];
    ws.fns
        .iter()
        .filter(|g| g.file == item.file && g.body.0 > item.body.0 && g.body.1 < item.body.1)
        .map(|g| (g.body.0, g.body.1))
        .collect()
}

fn scan_sites(
    ws: &Workspace,
    f: usize,
    matcher: impl Fn(&[u8], usize) -> Option<&'static str>,
) -> Vec<Site> {
    let item = &ws.fns[f];
    let file = &ws.files[item.file];
    let code = &file.code;
    let nested = nested_ranges(ws, f);
    let mut out = Vec::new();
    let mut i = item.body.0;
    while i <= item.body.1 {
        if let Some(&(_, end)) = nested.iter().find(|&&(s, e)| i >= s && i <= e) {
            i = end + 1;
            continue;
        }
        if let Some(what) = matcher(code, i) {
            out.push(Site {
                pos: i,
                line: file.line(i),
                what,
            });
        }
        i += 1;
    }
    out
}

/// Keywords that can directly precede a `[` without it being an index
/// expression (array/slice literals and patterns).
const PRE_BRACKET_KEYWORDS: &[&str] = &[
    "return", "break", "in", "else", "match", "if", "while", "let", "mut", "ref", "move", "for",
    "loop", "as", "dyn", "where", "impl", "const", "static",
];

/// Heuristic: `[` is an index expression if it directly follows an
/// identifier, `)`, `]` or `?` (rustfmt leaves no space there), and the
/// preceding identifier is not a keyword.
fn is_index_expr(code: &[u8], pos: usize) -> bool {
    match pos.checked_sub(1).map(|p| code[p]) {
        Some(b')' | b']' | b'?') => true,
        Some(b) if is_ident_byte(b) => ident_before(code, pos)
            .is_some_and(|(_, ident)| !PRE_BRACKET_KEYWORDS.iter().any(|k| k.as_bytes() == ident)),
        _ => false,
    }
}

/// Whether the parenthesised argument list opening at `open` contains
/// `needle` (used to accept `with_capacity(decode_capacity(...))`).
fn paren_contains(code: &[u8], open: usize, needle: &[u8]) -> bool {
    let (_, _, close) = count_list_items(code, open, false);
    crate::lexer::find(&code[..close], needle, open).is_some()
}

fn panic_matcher(code: &[u8], i: usize) -> Option<&'static str> {
    let at_ident = i == 0 || !is_ident_byte(code[i - 1]);
    if code[i..].starts_with(b".unwrap()") {
        Some("call to `.unwrap()`")
    } else if code[i..].starts_with(b".expect(") {
        Some("call to `.expect(...)`")
    } else if at_ident && code[i..].starts_with(b"panic!") {
        Some("`panic!` invocation")
    } else if at_ident && code[i..].starts_with(b"unreachable!") {
        Some("`unreachable!` invocation")
    } else if code[i] == b'[' && is_index_expr(code, i) {
        Some("slice/array indexing")
    } else {
        None
    }
}

/// A `with_capacity`/`reserve` whose size is not routed through
/// `decode_capacity`, the cap on what a corrupt length claim can allocate.
fn uncapped_alloc_matcher(code: &[u8], i: usize) -> Option<&'static str> {
    let at_ident = i == 0 || !is_ident_byte(code[i - 1]);
    if at_ident
        && code[i..].starts_with(b"with_capacity(")
        && !paren_contains(code, i + 13, b"decode_capacity")
    {
        Some("`with_capacity` not routed through `decode_capacity`")
    } else if code[i..].starts_with(b".reserve(")
        && !paren_contains(code, i + 8, b"decode_capacity")
    {
        Some("`reserve` not routed through `decode_capacity`")
    } else {
        None
    }
}

/// An allocation on the warm path. Naming a buffer "scratch" does not
/// excuse one: a fresh `Vec` bound to a scratch field is still a fresh
/// `Vec` per call. A retained buffer's growth that is a no-op once it is
/// warm is shown by a suppression with its reason, and checked at run
/// time by `tests/steady_state_alloc.rs`.
fn unrouted_alloc_matcher(code: &[u8], i: usize) -> Option<&'static str> {
    let at_ident = i == 0 || !is_ident_byte(code[i - 1]);
    if at_ident && code[i..].starts_with(b"Vec::new()") {
        Some("`Vec::new()` allocation")
    } else if at_ident && code[i..].starts_with(b"with_capacity(") {
        Some("`with_capacity` allocation")
    } else if code[i..].starts_with(b".reserve(") {
        Some("`reserve` call")
    } else if code[i..].starts_with(b".to_vec()") {
        Some("`to_vec` allocation")
    } else if code[i..].starts_with(b".collect()") || code[i..].starts_with(b".collect::<") {
        Some("`collect` allocation")
    } else {
        None
    }
}

fn lock_matcher(code: &[u8], i: usize) -> Option<&'static str> {
    if code[i..].starts_with(b".lock()") {
        Some("`lock()`")
    } else if code[i..].starts_with(b".wait(") {
        Some("`wait`")
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// Roots and walks: L6 with L3 (decode), L7 (warm encode and decode)
// ---------------------------------------------------------------------------

/// Serving crates whose entry points are L6 roots.
fn in_serving_scope(rel: &str) -> bool {
    rel.starts_with("crates/core/src/")
        || rel.starts_with("crates/codec/src/")
        || rel.starts_with("crates/cli/src/")
        || rel.starts_with("src/")
}

/// One name-based entry point of a transitive lint. Roots are matched by
/// name, so a rename silently drops coverage — the workspace meta-test
/// therefore asserts that every pattern still matches a function of the
/// real tree.
#[derive(Debug)]
pub struct RootPattern {
    /// Base type of the enclosing `impl`; `None` matches any owner
    /// (including none).
    pub owner: Option<&'static str>,
    /// The function name; a trailing `*` makes it a prefix (`"*"` matches
    /// every name).
    pub name: &'static str,
    /// Suffix the file's workspace-relative path must end with (`""`
    /// matches every file).
    pub file: &'static str,
}

const fn root(owner: Option<&'static str>, name: &'static str) -> RootPattern {
    RootPattern {
        owner,
        name,
        file: "",
    }
}

impl RootPattern {
    /// Whether the non-test function `f` of `ws` is one of this pattern's
    /// roots.
    pub fn matches(&self, ws: &Workspace, f: &FnItem) -> bool {
        !f.is_test
            && self.owner.is_none_or(|o| f.owner.as_deref() == Some(o))
            && self
                .name
                .strip_suffix('*')
                .map_or(f.name == self.name, |prefix| f.name.starts_with(prefix))
            && ws.files[f.file].rel.ends_with(self.file)
    }
}

/// The decode/serve entry points (L6, and L3 on the same walk): the
/// `decompress*`, `decode*` and `unpack*` functions, the v1 parser
/// `read_stream`, the chunk-table front `read_chunk_table` and the
/// `locate_table*` path behind it, every method of the one chunk reader
/// (`ChunkReader` with its private fetch, and its `StreamSource` and
/// `ForwardSource` constructors) and of its metadata view (`StreamIndex`),
/// the one checksum step (`ChunkEntry::verify`), `inspect::render`, every
/// method of the job service and its handles, and the CLI's `run`. Only
/// functions of the serving crates (`szhi-core`, `szhi-codec`, `szhi-cli`
/// and the umbrella crate) count.
pub const L6_ROOTS: &[RootPattern] = &[
    root(None, "decompress*"),
    root(None, "decode*"),
    root(None, "unpack*"),
    root(None, "read_stream"),
    root(None, "read_chunk_table"),
    root(None, "locate_table*"),
    root(Some("ChunkReader"), "*"),
    root(Some("StreamSource"), "*"),
    root(Some("ForwardSource"), "*"),
    root(Some("StreamIndex"), "*"),
    root(Some("ChunkEntry"), "verify"),
    RootPattern {
        owner: None,
        name: "render",
        file: "inspect.rs",
    },
    root(Some("JobService"), "*"),
    root(Some("JobHandle"), "*"),
    RootPattern {
        owner: None,
        name: "run",
        file: "cli/src/lib.rs",
    },
];

/// The warm-path roots (L7): the per-chunk encode chain
/// (`ChunkEncoder::encode` and `encode_into`), the predictor's
/// `compress_into` and `compress_in_place`, `StreamSink::push_chunk` and
/// `push_chunk_with`, and the scratch forms of the per-chunk decode,
/// `decompress_into` and `restore_into`.
pub const L7_ROOTS: &[RootPattern] = &[
    root(Some("ChunkEncoder"), "encode"),
    root(Some("ChunkEncoder"), "encode_into"),
    root(None, "compress_into"),
    root(None, "compress_in_place"),
    root(Some("StreamSink"), "push_chunk"),
    root(Some("StreamSink"), "push_chunk_with"),
    root(None, "decompress_into"),
    root(None, "restore_into"),
];

fn roots_of(ws: &Workspace, patterns: &[RootPattern], serving_only: bool) -> Vec<usize> {
    ws.fns
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            (!serving_only || in_serving_scope(&ws.files[f.file].rel))
                && patterns.iter().any(|p| p.matches(ws, f))
        })
        .map(|(i, _)| i)
        .collect()
}

/// The functions of `ws` matching [`L6_ROOTS`] inside the serving crates.
pub(crate) fn l6_roots(ws: &Workspace) -> Vec<usize> {
    roots_of(ws, L6_ROOTS, true)
}

/// One kind of site a walk looks for in every fn it reaches.
struct Rule {
    lint: Lint,
    matcher: fn(&[u8], usize) -> Option<&'static str>,
    /// The rest of the message after the site's description.
    advice: &'static str,
}

/// Walks from `roots` (cut by `allow(<cut>)` on a call site) and reports
/// every unsuppressed site of each rule in the reached non-test fns, with
/// the chain that reaches it.
fn walk(
    ws: &Workspace,
    graph: &CallGraph,
    roots: &[usize],
    cut: Lint,
    rules: &[Rule],
) -> Vec<Violation> {
    let reached = bfs(ws, graph, roots, cut);
    let mut out = Vec::new();
    for f in (0..ws.fns.len()).filter(|f| reached.contains_key(f) && !ws.fns[*f].is_test) {
        let file = &ws.files[ws.fns[f].file];
        for rule in rules {
            for site in scan_sites(ws, f, rule.matcher) {
                if is_suppressed(&file.comments, site.line, rule.lint) {
                    continue;
                }
                let mut notes = chain_notes(ws, &reached, f);
                notes.push(format!("-> {} at {}:{}", site.what, file.rel, site.line));
                out.push(Violation {
                    lint: rule.lint,
                    file: file.rel.clone(),
                    line: site.line,
                    message: format!("{} {}", site.what, rule.advice),
                    notes,
                });
            }
        }
    }
    out
}

/// The decode walk: no path from a decode/serve entry point may reach a
/// panic site (L6) or an allocation sized without `decode_capacity` (L3).
/// `allow(panic-reachability)` on a call site cuts the walk for both.
pub fn lint_decode_paths(ws: &Workspace, graph: &CallGraph) -> Vec<Violation> {
    let rules = [
        Rule {
            lint: Lint::PanicReachability,
            matcher: panic_matcher,
            advice: "reachable from decode/serve entry point (chain below); \
                     return a typed error or suppress with a reason",
        },
        Rule {
            lint: Lint::CappedAlloc,
            matcher: uncapped_alloc_matcher,
            advice: "reachable from decode/serve entry point (chain below); \
                     cap the size with `decode_capacity` or suppress with a reason",
        },
    ];
    walk(ws, graph, &l6_roots(ws), Lint::PanicReachability, &rules)
}

/// The functions of `ws` matching [`L7_ROOTS`].
pub(crate) fn l7_roots(ws: &Workspace) -> Vec<usize> {
    roots_of(ws, L7_ROOTS, false)
}

/// L7: every allocation site reachable from a warm-path root must be
/// suppressed with the reason it does not grow the heap once warm.
pub fn lint_steady_alloc(ws: &Workspace, graph: &CallGraph) -> Vec<Violation> {
    let rule = Rule {
        lint: Lint::SteadyAlloc,
        matcher: unrouted_alloc_matcher,
        advice: "on the warm encode or decode path (chain below); \
                 reuse a retained buffer or suppress with a reason",
    };
    walk(ws, graph, &l7_roots(ws), Lint::SteadyAlloc, &[rule])
}

// ---------------------------------------------------------------------------
// L8: pool lock-ordering invariants (vendor/rayon)
// ---------------------------------------------------------------------------

/// Parses the `ORDER: <n>` level from the comments on `line` or the line
/// above.
fn order_level(file: &crate::table::SourceFile, line: usize) -> Option<u32> {
    [line, line.saturating_sub(1)]
        .iter()
        .filter(|&&l| l > 0)
        .find_map(|l| {
            let text = file.comments.get(l)?;
            let p = text.find("ORDER:")?;
            let rest = text[p + 6..].trim_start();
            let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
            digits.parse::<u32>().ok()
        })
}

/// The minimum lock level reachable from `f` (its own annotated sites and
/// everything transitively called), with a witness site for diagnostics.
fn min_reachable_level(
    ws: &Workspace,
    graph: &CallGraph,
    f: usize,
    memo: &mut HashMap<usize, Option<(u32, String)>>,
    visiting: &mut Vec<usize>,
) -> Option<(u32, String)> {
    if let Some(cached) = memo.get(&f) {
        return cached.clone();
    }
    if visiting.contains(&f) {
        return None; // cycle: the recursion terminates, levels resolve below
    }
    visiting.push(f);
    let file = &ws.files[ws.fns[f].file];
    let mut best: Option<(u32, String)> = None;
    for site in scan_sites(ws, f, lock_matcher) {
        if let Some(level) = order_level(file, site.line) {
            let witness = format!("level {level} {} at {}:{}", site.what, file.rel, site.line);
            if best.as_ref().is_none_or(|(b, _)| level < *b) {
                best = Some((level, witness));
            }
        }
    }
    for e in &graph.edges[f] {
        if let Some((level, witness)) = min_reachable_level(ws, graph, e.callee, memo, visiting) {
            if best.as_ref().is_none_or(|(b, _)| level < *b) {
                best = Some((level, witness));
            }
        }
    }
    visiting.pop();
    memo.insert(f, best.clone());
    best
}

/// L8: every `lock()` / `wait` site in `ws` (built over `vendor/rayon`)
/// must carry an `// ORDER: <n>` level, and levels must be monotonically
/// non-decreasing along call chains: a call made after acquiring level
/// `M` must not reach a site at a level below `M`.
pub(crate) fn lint_pool_invariants(ws: &Workspace, graph: &CallGraph) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut memo: HashMap<usize, Option<(u32, String)>> = HashMap::new();
    for (f, item) in ws.fns.iter().enumerate() {
        if item.is_test {
            continue;
        }
        let file = &ws.files[item.file];
        let sites = scan_sites(ws, f, lock_matcher);
        for site in &sites {
            if order_level(file, site.line).is_none()
                && !is_suppressed(&file.comments, site.line, Lint::PoolInvariant)
            {
                out.push(Violation {
                    lint: Lint::PoolInvariant,
                    file: file.rel.clone(),
                    line: site.line,
                    message: format!(
                        "{} site in `{}` without an `// ORDER: <level>` annotation",
                        site.what,
                        item.qualified()
                    ),
                    notes: Vec::new(),
                });
            }
        }
        // Monotonicity: for each outgoing call, the levels already
        // acquired textually before it bound the callee's closure from
        // below. (Guards dropped before the call are over-approximated as
        // held; the order of sites within one fn is not checked.)
        for e in &graph.edges[f] {
            let held: Option<u32> = sites
                .iter()
                .filter(|s| s.pos < e.pos)
                .filter_map(|s| order_level(file, s.line))
                .max();
            let Some(held) = held else { continue };
            let mut visiting = Vec::new();
            let Some((level, witness)) =
                min_reachable_level(ws, graph, e.callee, &mut memo, &mut visiting)
            else {
                continue;
            };
            if level < held && !is_suppressed(&file.comments, e.line, Lint::PoolInvariant) {
                out.push(Violation {
                    lint: Lint::PoolInvariant,
                    file: file.rel.clone(),
                    line: e.line,
                    message: format!(
                        "lock-ordering inversion: `{}` calls `{}` after acquiring level \
                         {held}, but the callee can reach {witness}",
                        item.qualified(),
                        ws.fns[e.callee].qualified()
                    ),
                    notes: Vec::new(),
                });
            }
        }
    }
    out
}
