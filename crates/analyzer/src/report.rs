//! Machine-readable reports: the `--format json` writer, a dependency-free
//! JSON reader for `--baseline` files, and the baseline diff.
//!
//! The JSON shape is versioned:
//!
//! ```json
//! {
//!   "version": 1,
//!   "summary": {
//!     "files": 42, "functions": 900, "calls": 3000,
//!     "resolved_edges": 2100, "unresolved_calls": 900,
//!     "panic_roots": 12, "alloc_roots": 3, "violations": 0,
//!     "per_lint": {"no-unsafe": 0, "...": 0}
//!   },
//!   "violations": [
//!     {"lint": "…", "file": "…", "line": 1, "message": "…", "notes": ["…"]}
//!   ]
//! }
//! ```
//!
//! A baseline file is simply a previous report (or the `violations` array
//! of one): findings whose `(lint, file, message)` key appears in the
//! baseline are *known* and do not fail a `--deny-all --baseline` run;
//! only new findings do. Line numbers are deliberately not part of the
//! key, so unrelated edits shifting a known finding do not break CI.

use crate::{Lint, Violation};
use std::collections::BTreeMap;
use std::collections::HashSet;

/// Per-run summary metrics, reported in text and JSON output.
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

fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Renders the full machine-readable report.
pub fn to_json(metrics: &Metrics, violations: &[Violation]) -> String {
    let mut per_lint: BTreeMap<&'static str, usize> =
        Lint::ALL.iter().map(|l| (l.id(), 0usize)).collect();
    for v in violations {
        *per_lint.entry(v.lint.id()).or_insert(0) += 1;
    }
    let mut out = String::new();
    out.push_str("{\n  \"version\": 1,\n  \"summary\": {\n");
    out.push_str(&format!("    \"files\": {},\n", metrics.files));
    out.push_str(&format!("    \"functions\": {},\n", metrics.functions));
    out.push_str(&format!("    \"calls\": {},\n", metrics.calls));
    out.push_str(&format!(
        "    \"resolved_edges\": {},\n",
        metrics.resolved_edges
    ));
    out.push_str(&format!(
        "    \"unresolved_calls\": {},\n",
        metrics.unresolved_calls
    ));
    out.push_str(&format!("    \"panic_roots\": {},\n", metrics.panic_roots));
    out.push_str(&format!("    \"alloc_roots\": {},\n", metrics.alloc_roots));
    out.push_str(&format!("    \"violations\": {},\n", violations.len()));
    out.push_str("    \"per_lint\": {");
    let mut first = true;
    for (id, count) in &per_lint {
        if !first {
            out.push_str(", ");
        }
        first = false;
        out.push_str(&format!("\"{id}\": {count}"));
    }
    out.push_str("}\n  },\n  \"violations\": [");
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\"lint\": \"");
        out.push_str(v.lint.id());
        out.push_str("\", \"file\": \"");
        escape_json(&v.file, &mut out);
        out.push_str(&format!("\", \"line\": {}, \"message\": \"", v.line));
        escape_json(&v.message, &mut out);
        out.push_str("\", \"notes\": [");
        for (j, note) in v.notes.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push('"');
            escape_json(note, &mut out);
            out.push('"');
        }
        out.push_str("]}");
    }
    if !violations.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

// ---------------------------------------------------------------------------
// Minimal JSON reader (the build environment is offline: no serde)
// ---------------------------------------------------------------------------

/// A parsed JSON value — just enough to read our own reports back.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (read back as f64; our fields are small integers).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn ws(&mut self) {
        while matches!(
            self.bytes.get(self.pos),
            Some(b' ') | Some(b'\n') | Some(b'\t') | Some(b'\r')
        ) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        self.ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Option<Json> {
        self.ws();
        match self.bytes.get(self.pos)? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => self.string().map(Json::Str),
            b't' if self.bytes[self.pos..].starts_with(b"true") => {
                self.pos += 4;
                Some(Json::Bool(true))
            }
            b'f' if self.bytes[self.pos..].starts_with(b"false") => {
                self.pos += 5;
                Some(Json::Bool(false))
            }
            b'n' if self.bytes[self.pos..].starts_with(b"null") => {
                self.pos += 4;
                Some(Json::Null)
            }
            _ => self.number(),
        }
    }

    fn object(&mut self) -> Option<Json> {
        if !self.eat(b'{') {
            return None;
        }
        let mut members = Vec::new();
        if self.eat(b'}') {
            return Some(Json::Obj(members));
        }
        loop {
            self.ws();
            let key = self.string()?;
            if !self.eat(b':') {
                return None;
            }
            members.push((key, self.value()?));
            if self.eat(b',') {
                continue;
            }
            if self.eat(b'}') {
                return Some(Json::Obj(members));
            }
            return None;
        }
    }

    fn array(&mut self) -> Option<Json> {
        if !self.eat(b'[') {
            return None;
        }
        let mut items = Vec::new();
        if self.eat(b']') {
            return Some(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            if self.eat(b',') {
                continue;
            }
            if self.eat(b']') {
                return Some(Json::Arr(items));
            }
            return None;
        }
    }

    fn string(&mut self) -> Option<String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return None;
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos)? {
                b'"' => {
                    self.pos += 1;
                    return Some(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.bytes.get(self.pos)? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self.bytes.get(self.pos + 1..self.pos + 5)?;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            out.push(char::from_u32(code)?);
                            self.pos += 4;
                        }
                        _ => return None,
                    }
                    self.pos += 1;
                }
                &b => {
                    // Copy the UTF-8 sequence through byte-by-byte.
                    let start = self.pos;
                    let mut end = self.pos + 1;
                    if b >= 0x80 {
                        while self
                            .bytes
                            .get(end)
                            .is_some_and(|&c| (0x80..0xc0).contains(&c))
                        {
                            end += 1;
                        }
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..end]).ok()?);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Option<Json> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'-') | Some(b'+') | Some(b'.') | Some(b'e') | Some(b'E') | Some(b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        if self.pos == start {
            return None;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()?
            .parse::<f64>()
            .ok()
            .map(Json::Num)
    }
}

/// Parses a JSON document; `None` on any syntax error.
pub fn parse_json(text: &str) -> Option<Json> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.pos == p.bytes.len() {
        Some(v)
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// Baseline
// ---------------------------------------------------------------------------

/// The identity of a finding for baseline purposes: lint, file and
/// message — line numbers excluded so unrelated edits do not churn it.
pub fn baseline_key(v: &Violation) -> String {
    format!("{}|{}|{}", v.lint.id(), v.file, v.message)
}

/// Reads the known-finding keys out of a baseline file: either a full
/// report object (its `violations` member) or a bare array of findings.
/// `None` means the file is not valid JSON of either shape.
pub fn parse_baseline(text: &str) -> Option<HashSet<String>> {
    let doc = parse_json(text)?;
    let arr = match &doc {
        Json::Arr(items) => items.as_slice(),
        Json::Obj(_) => match doc.get("violations")? {
            Json::Arr(items) => items.as_slice(),
            _ => return None,
        },
        _ => return None,
    };
    let mut keys = HashSet::new();
    for item in arr {
        let lint = item.get("lint")?.as_str()?;
        let file = item.get("file")?.as_str()?;
        let message = item.get("message")?.as_str()?;
        keys.insert(format!("{lint}|{file}|{message}"));
    }
    Some(keys)
}

/// Splits findings into `(known, new)` against a baseline key set.
pub fn split_by_baseline(
    violations: Vec<Violation>,
    baseline: &HashSet<String>,
) -> (Vec<Violation>, Vec<Violation>) {
    violations
        .into_iter()
        .partition(|v| baseline.contains(&baseline_key(v)))
}
