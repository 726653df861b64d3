//! The workspace function table: every brace-matched `fn` item of every
//! source file, with its file/line span, impl/trait owner and
//! `#[cfg(test)]` classification. This is the substrate the call graph
//! ([`crate::graph`]) is resolved over.

use crate::lexer::{
    count_list_items, is_ident_byte, lex, line_of, line_starts, match_brace, next_nonspace,
    prev_nonspace, skip_angles, test_regions, Lexed,
};
use std::collections::HashMap;

/// One parsed source file, lexed and indexed.
pub struct SourceFile {
    /// Workspace-relative `/`-separated path.
    pub rel: String,
    /// Blanked code bytes (see [`crate::lexer::Lexed`]).
    pub code: Vec<u8>,
    /// Comment text per 1-based line.
    pub comments: HashMap<usize, String>,
    /// Byte offsets of line starts.
    pub starts: Vec<usize>,
    /// `#[cfg(test)]` byte ranges.
    pub tests: Vec<(usize, usize)>,
    /// Whether every byte of the file is test code (`tests/` path).
    pub whole_test: bool,
}

impl SourceFile {
    /// 1-based line of a byte position.
    pub(crate) fn line(&self, pos: usize) -> usize {
        line_of(&self.starts, pos)
    }
}

/// One `fn` item with a body.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Index of the defining file in [`Workspace::files`].
    pub file: usize,
    /// The function's bare name.
    pub name: String,
    /// Base type name of the enclosing `impl` block, if any
    /// (`impl Display for Violation` → `Violation`).
    pub owner: Option<String>,
    /// Trait name for trait impls (`impl Display for Violation` → `Display`).
    pub trait_name: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Byte position of the `fn` keyword.
    pub sig_start: usize,
    /// Byte range of the body, braces inclusive.
    pub body: (usize, usize),
    /// Number of parameters, `self` excluded.
    pub params: usize,
    /// Whether the function takes `self` (a method).
    pub has_self: bool,
    /// Whether the function is test code (a `tests/` file, a
    /// `#[cfg(test)]` region, or a `#[test]` item).
    pub is_test: bool,
}

impl FnItem {
    /// `Owner::name` or the bare name, for display.
    pub(crate) fn qualified(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The parsed workspace: files plus the function table over them.
pub struct Workspace {
    /// All parsed files, in input order.
    pub files: Vec<SourceFile>,
    /// All `fn` items with bodies, grouped by file in source order.
    pub fns: Vec<FnItem>,
}

/// An `impl` block: body byte range, owner base type, optional trait.
struct ImplRegion {
    start: usize,
    end: usize,
    owner: String,
    trait_name: Option<String>,
}

impl Workspace {
    /// Parses `(relative path, source)` pairs into a function table.
    pub fn from_sources(sources: &[(String, String)]) -> Workspace {
        let mut files = Vec::with_capacity(sources.len());
        let mut fns = Vec::new();
        for (rel, src) in sources {
            let Lexed { code, comments } = lex(src);
            let starts = line_starts(&code);
            let tests = test_regions(&code);
            let whole_test = crate::is_test_path(rel);
            let file = SourceFile {
                rel: rel.clone(),
                code,
                comments,
                starts,
                tests,
                whole_test,
            };
            let fi = files.len();
            parse_fns(fi, &file, &mut fns);
            files.push(file);
        }
        Workspace { files, fns }
    }

    /// The innermost function whose body contains `pos` in file `file`.
    pub(crate) fn enclosing_fn(&self, file: usize, pos: usize) -> Option<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.file == file && pos >= f.body.0 && pos <= f.body.1)
            .min_by_key(|(_, f)| f.body.1 - f.body.0)
            .map(|(i, _)| i)
    }

    /// Looks a function up by bare name and optional owner (test helpers).
    pub fn find_fn(&self, name: &str, owner: Option<&str>) -> Option<usize> {
        self.fns
            .iter()
            .position(|f| f.name == name && f.owner.as_deref() == owner)
    }
}

/// Keywords that an identifier scan must never treat as a name.
pub(crate) const KEYWORDS: &[&str] = &[
    "as", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "false", "fn",
    "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "static", "struct", "super", "trait", "true", "type", "unsafe", "use", "where",
    "while", "async", "await", "box", "macro", "union", "yield",
];

pub(crate) fn is_keyword(ident: &[u8]) -> bool {
    KEYWORDS.iter().any(|k| k.as_bytes() == ident)
}

/// `impl` blocks of one file, with owners resolved.
fn impl_regions(code: &[u8]) -> Vec<ImplRegion> {
    let n = code.len();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < n {
        if !is_ident_byte(code[i]) {
            i += 1;
            continue;
        }
        let s = i;
        while i < n && is_ident_byte(code[i]) {
            i += 1;
        }
        if &code[s..i] != b"impl" {
            continue;
        }
        // `impl Trait` in signatures (`fn f(x: impl Read)`, `-> impl Iterator`)
        // is preceded by `(`, `,`, `:`, `=`, `&`, `+`, `<` or a `->` arrow;
        // item-level impl blocks never are.
        if let Some((_, prev)) = prev_nonspace(code, s) {
            if matches!(prev, b'(' | b',' | b':' | b'=' | b'&' | b'+' | b'<' | b'>') {
                continue;
            }
        }
        // Skip the generic parameter list, if any.
        let mut k = match next_nonspace(code, i) {
            Some((p, b'<')) => skip_angles(code, p),
            Some((p, _)) => p,
            None => break,
        };
        // Walk the header up to the body `{`, collecting the last path
        // segment seen; `for` switches from the trait to the implementing
        // type, `where` ends owner collection.
        let mut last_ident: Option<String> = None;
        let mut trait_name: Option<String> = None;
        let mut done_collecting = false;
        while k < n {
            let b = code[k];
            if b == b'{' {
                if let (Some(owner), Some(close)) = (last_ident.take(), match_brace(code, k)) {
                    out.push(ImplRegion {
                        start: k,
                        end: close,
                        owner,
                        trait_name,
                    });
                }
                break;
            }
            if b == b';' {
                break;
            }
            if b == b'<' {
                k = skip_angles(code, k);
                continue;
            }
            if is_ident_byte(b) {
                let ws = k;
                while k < n && is_ident_byte(code[k]) {
                    k += 1;
                }
                let word = &code[ws..k];
                if word == b"for" {
                    // `impl Trait for Type`: what we collected so far was
                    // the trait; the owner follows.
                    trait_name = last_ident.take();
                } else if word == b"where" {
                    done_collecting = true;
                } else if !done_collecting && !is_keyword(word) {
                    last_ident = Some(String::from_utf8_lossy(word).into_owned());
                }
                continue;
            }
            k += 1;
        }
        i = k.max(i);
    }
    out
}

/// Parses every braced `fn` item of `file` into `out`.
fn parse_fns(fi: usize, file: &SourceFile, out: &mut Vec<FnItem>) {
    let code = &file.code;
    let n = code.len();
    let impls = impl_regions(code);
    let mut i = 0usize;
    while i < n {
        if !is_ident_byte(code[i]) {
            i += 1;
            continue;
        }
        let s = i;
        while i < n && is_ident_byte(code[i]) {
            i += 1;
        }
        if &code[s..i] != b"fn" {
            continue;
        }
        // Name.
        let (name_start, mut j) = match next_nonspace(code, i) {
            Some((p, b)) if is_ident_byte(b) => (p, p),
            _ => continue, // `fn(...)` pointer type: no name, no body
        };
        while j < n && is_ident_byte(code[j]) {
            j += 1;
        }
        let name = String::from_utf8_lossy(&code[name_start..j]).into_owned();
        // Generic parameter list.
        let mut k = match next_nonspace(code, j) {
            Some((p, b'<')) => skip_angles(code, p),
            Some((p, _)) => p,
            None => break,
        };
        // Parameter list.
        let (params, has_self, after_params) = match next_nonspace(code, k) {
            Some((p, b'(')) => parse_params(code, p),
            _ => {
                i = j;
                continue;
            }
        };
        k = after_params;
        // Body `{`, skipping `;` inside `[u8; 4]`-style types in the
        // return position; a bare `;` at depth 0 is a bodyless trait
        // method declaration.
        let mut depth = 0i32;
        let mut body = None;
        while k < n {
            match code[k] {
                b'(' | b'[' => depth += 1,
                b')' | b']' => depth -= 1,
                b'<' if depth == 0 => {
                    k = skip_angles(code, k);
                    continue;
                }
                b'{' if depth == 0 => {
                    if let Some(close) = match_brace(code, k) {
                        body = Some((k, close));
                    }
                    break;
                }
                b';' if depth == 0 => break,
                _ => {}
            }
            k += 1;
        }
        let Some(body) = body else {
            i = j;
            continue;
        };
        let enclosing = impls
            .iter()
            .filter(|r| s >= r.start && s <= r.end)
            .min_by_key(|r| r.end - r.start);
        let is_test = file.whole_test
            || crate::lexer::in_regions(&file.tests, s)
            || has_test_attr(file, file.line(s));
        out.push(FnItem {
            file: fi,
            name,
            owner: enclosing.map(|r| r.owner.clone()),
            trait_name: enclosing.and_then(|r| r.trait_name.clone()),
            line: file.line(s),
            sig_start: s,
            body,
            params,
            has_self,
            is_test,
        });
        i = j;
    }
}

/// Whether one of the few lines above `line` carries a `#[test]` /
/// `#[bench]`-style attribute (blanked code keeps attribute tokens).
fn has_test_attr(file: &SourceFile, line: usize) -> bool {
    (line.saturating_sub(3)..line).any(|l| {
        let (Some(&start), end) = (
            file.starts.get(l.wrapping_sub(1)),
            file.starts.get(l).copied().unwrap_or(file.code.len()),
        ) else {
            return false;
        };
        let text = &file.code[start..end];
        crate::lexer::find(text, b"#[test]", 0).is_some()
            || crate::lexer::find(text, b"#[proptest", 0).is_some()
    })
}

/// Parses a parameter list opening at `open` (a `(`): returns
/// `(param count excluding self, has_self, position after the `)`)`.
fn parse_params(code: &[u8], open: usize) -> (usize, bool, usize) {
    let n = code.len();
    let (mut params, _, close) = count_list_items(code, open, true);
    // `self`, `&self`, `&mut self`, `&'a self`, `mut self` as first token.
    let mut has_self = false;
    let mut p = open + 1;
    while p < close {
        let b = code[p];
        if b == b' ' || b == b'\n' || b == b'\t' || b == b'&' {
            p += 1;
            continue;
        }
        if b == b'\'' {
            // A lifetime (`&'a self`): skip the quote and its name.
            p += 1;
            while p < close && is_ident_byte(code[p]) {
                p += 1;
            }
            continue;
        }
        if is_ident_byte(b) {
            let ws = p;
            while p < close && is_ident_byte(code[p]) {
                p += 1;
            }
            let word = &code[ws..p];
            if word == b"mut" {
                continue;
            }
            has_self = word == b"self";
            break;
        }
        break;
    }
    if has_self {
        params = params.saturating_sub(1);
    }
    (params, has_self, close.saturating_add(1).min(n))
}
