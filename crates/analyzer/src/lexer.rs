//! A small byte-preserving Rust lexer plus structural helpers.
//!
//! [`lex`] blanks comments and the contents of string/char literals to
//! spaces while preserving newlines, so byte offsets and line numbers in
//! the blanked stream line up with the original text and braces/tokens can
//! be matched without tripping over literal contents. A literal's quotes
//! stay, so `f("x")` still reads as a call with one argument. The
//! structural helpers (line tables, brace matching, `#[cfg(test)]`
//! regions, list counting) operate on that blanked stream.

use std::collections::HashMap;

/// A lexed source file.
///
/// `code` is the original byte stream with comments and the contents of
/// string/char literals blanked to spaces (the quotes stay) — newlines are
/// preserved, so byte offsets and line numbers still line up with the
/// original text and braces/tokens can be matched without tripping over
/// literal contents. `comments` maps 1-based
/// line numbers to the comment text appearing on that line (used for
/// `// SAFETY:` checks, suppression comments and `// ORDER:` levels).
pub struct Lexed {
    /// Blanked source bytes, same length as the input.
    pub code: Vec<u8>,
    /// Comment text per 1-based line number.
    pub comments: HashMap<usize, String>,
}

pub(crate) fn is_ident_byte(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphanumeric()
}

fn append_comment(map: &mut HashMap<usize, String>, line: usize, text: &str) {
    if text.is_empty() {
        return;
    }
    let entry = map.entry(line).or_default();
    if !entry.is_empty() {
        entry.push(' ');
    }
    entry.push_str(text);
}

/// Returns the position of the opening quote if `i` starts a raw string
/// (`r"`, `r#"`, `br"`, `br##"`, …), along with the number of `#`s.
fn raw_string_start(bytes: &[u8], i: usize) -> Option<(usize, usize)> {
    let mut j = i;
    if bytes.get(j) == Some(&b'b') {
        j += 1;
    }
    if bytes.get(j) != Some(&b'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0usize;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    if bytes.get(j) == Some(&b'"') {
        Some((hashes, j))
    } else {
        None
    }
}

/// Lexes `source`: blanks comments and literal contents, collects per-line
/// comments.
pub fn lex(source: &str) -> Lexed {
    let bytes = source.as_bytes();
    let n = bytes.len();
    let mut code = Vec::with_capacity(n);
    let mut comments: HashMap<usize, String> = HashMap::new();
    let mut line = 1usize;
    let mut i = 0usize;
    // Pushes one blank per byte, preserving newlines (and counting lines).
    macro_rules! blank {
        ($b:expr) => {
            if $b == b'\n' {
                code.push(b'\n');
                line += 1;
            } else {
                code.push(b' ');
            }
        };
    }
    while i < n {
        let b = bytes[i];
        let prev_ident = i > 0 && is_ident_byte(bytes[i - 1]);
        if b == b'/' && bytes.get(i + 1) == Some(&b'/') {
            let start = i;
            while i < n && bytes[i] != b'\n' {
                code.push(b' ');
                i += 1;
            }
            append_comment(&mut comments, line, &source[start..i]);
        } else if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
            let mut depth = 1usize;
            code.push(b' ');
            code.push(b' ');
            i += 2;
            let mut seg = i;
            while i < n && depth > 0 {
                if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    depth += 1;
                    code.push(b' ');
                    code.push(b' ');
                    i += 2;
                } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    depth -= 1;
                    code.push(b' ');
                    code.push(b' ');
                    i += 2;
                } else if bytes[i] == b'\n' {
                    append_comment(&mut comments, line, &source[seg..i]);
                    code.push(b'\n');
                    line += 1;
                    i += 1;
                    seg = i;
                } else {
                    code.push(b' ');
                    i += 1;
                }
            }
            append_comment(&mut comments, line, &source[seg..i]);
        } else if !prev_ident && (b == b'r' || b == b'b') && raw_string_start(bytes, i).is_some() {
            let (hashes, quote) = raw_string_start(bytes, i).unwrap_or((0, i)); // unreachable: checked just above
            while i < quote {
                code.push(b' ');
                i += 1;
            }
            code.push(b'"');
            i += 1;
            while i < n {
                if bytes[i] == b'"' {
                    let mut k = 0usize;
                    while k < hashes && bytes.get(i + 1 + k) == Some(&b'#') {
                        k += 1;
                    }
                    if k == hashes {
                        code.push(b'"');
                        code.extend(std::iter::repeat_n(b' ', hashes));
                        i += 1 + hashes;
                        break;
                    }
                    code.push(b' ');
                    i += 1;
                } else {
                    blank!(bytes[i]);
                    i += 1;
                }
            }
        } else if b == b'"' {
            // Plain (or byte) string literal; the `b` prefix, if any, was
            // already copied through as a harmless stray identifier byte.
            code.push(b'"');
            i += 1;
            while i < n {
                match bytes[i] {
                    b'\\' => {
                        code.push(b' ');
                        i += 1;
                        if i < n {
                            blank!(bytes[i]);
                            i += 1;
                        }
                    }
                    b'"' => {
                        code.push(b'"');
                        i += 1;
                        break;
                    }
                    other => {
                        blank!(other);
                        i += 1;
                    }
                }
            }
        } else if b == b'\'' {
            // Distinguish a char literal from a lifetime: a lifetime starts
            // with an identifier char and is NOT closed by a quote right
            // after that single char ('a, 'static), while 'x' / '\n' / '('
            // are literals.
            let next = bytes.get(i + 1).copied();
            let is_char = match next {
                Some(b'\\') => true,
                Some(c) if is_ident_byte(c) => bytes.get(i + 2) == Some(&b'\''),
                Some(_) => true,
                None => true,
            };
            if !is_char {
                code.push(b'\'');
                i += 1;
            } else {
                code.push(b'\'');
                i += 1;
                while i < n && bytes[i] != b'\'' {
                    if bytes[i] == b'\\' {
                        code.push(b' ');
                        i += 1;
                        if i < n {
                            blank!(bytes[i]);
                            i += 1;
                        }
                    } else if bytes[i] == b'\n' {
                        break; // malformed literal: bail out of the scan
                    } else {
                        code.push(b' ');
                        i += 1;
                    }
                }
                if i < n && bytes[i] == b'\'' {
                    code.push(b'\'');
                    i += 1;
                }
            }
        } else {
            if b == b'\n' {
                line += 1;
            }
            code.push(b);
            i += 1;
        }
    }
    Lexed { code, comments }
}

// ---------------------------------------------------------------------------
// Structural helpers over lexed code
// ---------------------------------------------------------------------------

pub(crate) fn line_starts(code: &[u8]) -> Vec<usize> {
    let mut starts = vec![0usize];
    for (i, &b) in code.iter().enumerate() {
        if b == b'\n' {
            starts.push(i + 1);
        }
    }
    starts
}

pub(crate) fn line_of(starts: &[usize], pos: usize) -> usize {
    starts.partition_point(|&s| s <= pos)
}

pub(crate) fn find(hay: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    hay.get(from..)?
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|p| p + from)
}

/// Position of the `}` matching the `{` at `open`.
pub(crate) fn match_brace(code: &[u8], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (k, &b) in code.iter().enumerate().skip(open) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}

/// Byte ranges covered by `#[cfg(test)]` items (the attribute through the
/// end of the item it gates).
pub(crate) fn test_regions(code: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let pat = b"cfg(test)";
    let mut from = 0usize;
    while let Some(p) = find(code, pat, from) {
        let mut k = p + pat.len();
        let mut end = code.len();
        while k < code.len() {
            match code[k] {
                b'{' => {
                    end = match_brace(code, k).map_or(code.len(), |c| c + 1);
                    break;
                }
                b';' => {
                    end = k + 1;
                    break;
                }
                _ => k += 1,
            }
        }
        out.push((p, end));
        from = end.max(p + 1);
    }
    out
}

pub(crate) fn in_regions(regions: &[(usize, usize)], pos: usize) -> bool {
    regions.iter().any(|&(s, e)| pos >= s && pos < e)
}

/// Skips a generic-argument list: `pos` points at `<`; returns the position
/// one past the matching `>`. `->` arrows inside the list (closure-trait
/// bounds like `Fn(usize) -> bool`) do not close it.
pub(crate) fn skip_angles(code: &[u8], pos: usize) -> usize {
    let mut angle = 0isize;
    let mut paren = 0isize;
    let mut k = pos;
    while k < code.len() {
        match code[k] {
            b'(' | b'[' => paren += 1,
            b')' | b']' => paren -= 1,
            b'<' if paren == 0 => angle += 1,
            // `->` return arrows inside parenthesised bounds
            // (`Fn(usize) -> bool`) do not close the list.
            b'>' if paren == 0 && !(k > 0 && code[k - 1] == b'-') => {
                angle -= 1;
                if angle == 0 {
                    return k + 1;
                }
            }
            b';' | b'{' if paren == 0 => return k, // malformed: bail early
            _ => {}
        }
        k += 1;
    }
    code.len()
}

/// Counts the top-level, comma-separated, non-empty items of the list
/// opening at the `(` at `open`, so rustfmt's trailing comma adds no item.
/// With `generics`, commas inside a top-level `<...>` do not separate
/// (parameter types like `HashMap<K, V>`); otherwise only turbofish lists
/// are skipped, because a bare `<` in an argument is a comparison. Returns
/// the count, whether a top-level `|` (a probable closure) appeared, and
/// the position of the closing `)` (`code.len()` when unclosed).
pub(crate) fn count_list_items(code: &[u8], open: usize, generics: bool) -> (usize, bool, usize) {
    let mut depth = 0i32;
    let mut angle = 0i32;
    let mut items = 0usize;
    let mut in_item = false;
    let mut closure = false;
    let mut k = open;
    while k < code.len() {
        let b = code[k];
        if depth == 1 && !matches!(b, b' ' | b'\n' | b'\t' | b'\r' | b',' | b')') {
            in_item = true;
        }
        match b {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            b':' if !generics
                && code.get(k + 1) == Some(&b':')
                && code.get(k + 2) == Some(&b'<') =>
            {
                k = skip_angles(code, k + 2);
                continue;
            }
            b'<' if generics && depth == 1 => angle += 1,
            b'>' if generics && depth == 1 && code[k - 1] != b'-' => angle -= 1,
            b',' if depth == 1 && angle == 0 => {
                items += usize::from(in_item);
                in_item = false;
            }
            b'|' if depth == 1 => closure = true,
            _ => {}
        }
        k += 1;
    }
    (items + usize::from(in_item), closure, k)
}

/// The identifier ending at `end` (exclusive), if any.
pub(crate) fn ident_before(code: &[u8], end: usize) -> Option<(usize, &[u8])> {
    if end == 0 || !is_ident_byte(code[end - 1]) {
        return None;
    }
    let mut s = end - 1;
    while s > 0 && is_ident_byte(code[s - 1]) {
        s -= 1;
    }
    Some((s, &code[s..end]))
}

/// The previous non-whitespace byte before `pos`, with its position.
pub(crate) fn prev_nonspace(code: &[u8], pos: usize) -> Option<(usize, u8)> {
    let mut k = pos;
    while k > 0 {
        k -= 1;
        let b = code[k];
        if b != b' ' && b != b'\n' && b != b'\t' && b != b'\r' {
            return Some((k, b));
        }
    }
    None
}

/// The next non-whitespace byte at or after `pos`, with its position.
pub(crate) fn next_nonspace(code: &[u8], pos: usize) -> Option<(usize, u8)> {
    let mut k = pos;
    while k < code.len() {
        let b = code[k];
        if b != b' ' && b != b'\n' && b != b'\t' && b != b'\r' {
            return Some((k, b));
        }
        k += 1;
    }
    None
}
