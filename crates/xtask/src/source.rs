//! A token-level model of one Rust source file.
//!
//! The workspace is hermetic (no crates registry), so there is no `syn`;
//! instead this module builds a *masked* copy of the source — identical
//! byte-for-byte layout, but with comments, string literals, and char
//! literals blanked out — so the checks can pattern-match tokens without
//! being fooled by `"sleep"` inside a string or an example in a doc
//! comment. Alongside the mask it records which lines fall inside
//! `#[cfg(test)]` modules or `#[test]` functions.

/// Masked view of a source file plus its test regions.
pub struct SourceModel {
    /// Same length as the raw text; comments/strings/chars replaced by
    /// spaces (newlines preserved so offsets and line numbers agree).
    pub masked: String,
    /// `in_test[line-1]` is true when the line is inside a `#[cfg(test)]`
    /// module or a `#[test]` function body.
    in_test: Vec<bool>,
}

impl SourceModel {
    /// Lex `raw` into a model.
    pub fn parse(raw: &str) -> SourceModel {
        let masked = mask(raw);
        let in_test = test_regions(&masked);
        SourceModel { masked, in_test }
    }

    /// Is the (1-based) line inside test-only code?
    pub fn line_in_test(&self, line: usize) -> bool {
        self.in_test
            .get(line.saturating_sub(1))
            .copied()
            .unwrap_or(false)
    }

    /// 1-based line number of a byte offset.
    pub fn line_of(&self, offset: usize) -> usize {
        line_at(self.masked.as_bytes(), offset)
    }
}

/// Blank out comments, strings, and char literals.
fn mask(raw: &str) -> String {
    let bytes = raw.as_bytes();
    let mut out = bytes.to_vec();
    let mut i = 0usize;
    let at = |j: usize| bytes.get(j).copied().unwrap_or(0);
    while i < bytes.len() {
        let start = i;
        match (at(i), at(i + 1)) {
            (b'/', b'/') => {
                while i < bytes.len() && at(i) != b'\n' {
                    i += 1;
                }
            }
            (b'/', b'*') => {
                let mut depth = 0usize;
                loop {
                    match (at(i), at(i + 1)) {
                        (0, _) => break,
                        (b'/', b'*') => (depth, i) = (depth + 1, i + 2),
                        (b'*', b'/') => {
                            (depth, i) = (depth - 1, i + 2);
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => i += 1,
                    }
                }
            }
            (b'"', _) => i = skip_string(bytes, i + 1, 0),
            (b'r' | b'b', _) if raw_string_hashes(bytes, i).is_some() => {
                let hashes = raw_string_hashes(bytes, i).unwrap_or(0);
                while at(i) != b'"' {
                    i += 1;
                }
                i = skip_string(bytes, i + 1, hashes);
            }
            (b'b', b'\'') if !prev_is_ident(bytes, i) => i = skip_char(bytes, i + 2),
            (b'\'', _) if is_char_literal(bytes, i) => i = skip_char(bytes, i + 1),
            _ => {
                i += 1;
                continue;
            }
        }
        for c in out.iter_mut().take(i).skip(start) {
            if *c != b'\n' {
                *c = b' ';
            }
        }
    }
    // `out` only ever swaps ASCII bytes for spaces, so it stays valid UTF-8.
    String::from_utf8_lossy(&out).into_owned()
}

fn prev_is_ident(bytes: &[u8], i: usize) -> bool {
    i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_')
}

/// `Some(#hashes)` when `r"`, `r#"`, `br"`, … starts at `i`.
fn raw_string_hashes(bytes: &[u8], i: usize) -> Option<usize> {
    if prev_is_ident(bytes, i) {
        return None;
    }
    let mut j = i + usize::from(bytes[i] == b'b');
    if bytes.get(j) != Some(&b'r') {
        return None;
    }
    j += 1;
    let hashes = bytes[j..].iter().take_while(|&&b| b == b'#').count();
    (bytes.get(j + hashes) == Some(&b'"')).then_some(hashes)
}

/// From just past an opening quote, return the offset past the closing
/// quote (and `hashes` trailing `#`s; escapes only count when unhashed
/// strings are plain).
fn skip_string(bytes: &[u8], mut i: usize, hashes: usize) -> usize {
    let raw = hashes > 0 || (i >= 2 && bytes[i - 2] == b'r');
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if !raw => i += 2,
            b'"' if bytes[i + 1..].iter().take_while(|&&b| b == b'#').count() >= hashes => {
                return i + 1 + hashes;
            }
            _ => i += 1,
        }
    }
    bytes.len()
}

/// After the opening quote of a char/byte literal: skip to past the close.
fn skip_char(bytes: &[u8], mut i: usize) -> usize {
    if bytes.get(i) == Some(&b'\\') {
        i += 2;
    }
    while i < bytes.len() && bytes[i] != b'\'' {
        i += 1;
    }
    (i + 1).min(bytes.len())
}

/// `'x'` vs `'lifetime`: a char literal closes with `'` after one char (or
/// after an escape); a lifetime never closes.
fn is_char_literal(bytes: &[u8], i: usize) -> bool {
    match bytes.get(i + 1) {
        None => false,
        Some(b'\\') => true,
        Some(_) => {
            let mut j = i + 2;
            while j < bytes.len() && (bytes[j] & 0xC0) == 0x80 {
                j += 1;
            }
            bytes.get(j) == Some(&b'\'')
        }
    }
}

/// Mark lines covered by `#[cfg(test)] mod ... { }` blocks and
/// `#[test] fn ... { }` bodies. Works on the masked text so braces inside
/// strings cannot unbalance the match.
fn test_regions(masked: &str) -> Vec<bool> {
    let bytes = masked.as_bytes();
    let lines = line_at(bytes, bytes.len());
    let mut in_test = vec![false; lines];
    for marker in ["#[cfg(test)]", "#[test]"] {
        for (pos, _) in masked.match_indices(marker) {
            if let Some((_, close)) = next_brace_block(bytes, pos + marker.len()) {
                let (first, last) = (line_at(bytes, pos), line_at(bytes, close));
                for l in in_test.iter_mut().take(last).skip(first - 1) {
                    *l = true;
                }
            }
        }
    }
    in_test
}

fn line_at(bytes: &[u8], pos: usize) -> usize {
    bytes.iter().take(pos).filter(|&&b| b == b'\n').count() + 1
}

/// From `from`, find the next `{` and its matching `}` (byte offsets). A
/// `;` first means the item has no body.
pub fn next_brace_block(bytes: &[u8], from: usize) -> Option<(usize, usize)> {
    let open = from
        + bytes
            .get(from..)?
            .iter()
            .position(|&b| b == b'{' || b == b';')?;
    if bytes[open] == b';' {
        return None;
    }
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some((open, i));
                }
            }
            _ => {}
        }
    }
    None
}

/// A minimal token over the masked text: identifier or single punct byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier/keyword (numbers lex as idents too) with its offset.
    Ident { text: String, offset: usize },
    /// One ASCII punctuation byte.
    Punct(u8),
}

impl Tok {
    /// Whether this is the punctuation byte `ch`.
    pub fn is(&self, ch: u8) -> bool {
        *self == Tok::Punct(ch)
    }
}

/// Tokenize masked text (whitespace and non-ASCII dropped).
pub fn tokenize(masked: &str) -> Vec<Tok> {
    let bytes = masked.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i];
        if c.is_ascii_alphanumeric() || c == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            toks.push(Tok::Ident {
                text: masked[start..i].to_string(),
                offset: start,
            });
            continue;
        }
        if c.is_ascii_punctuation() {
            toks.push(Tok::Punct(c));
        }
        i += 1;
    }
    toks
}
