//! The checks clippy cannot express. Each takes source text (independent of
//! the filesystem, so the seeded fixtures can drive it directly) and
//! returns [`Finding`]s.

use crate::source::{next_brace_block, tokenize, SourceModel, Tok};
use crate::{Check, Finding};

fn finding(check: Check, file: &str, line: usize, message: String) -> Finding {
    Finding {
        check,
        file: file.to_string(),
        line,
        message,
    }
}

/// An identifier in an item body: its text, its offset into the masked
/// source, and whether a `:` follows it.
type BodyIdent = (String, usize, bool);

/// Identifiers at nesting depth 0 of the `{ ... }` body following the first
/// `<keyword> <name>` in `src`. `None` when the item is missing.
fn body_idents(keyword: &str, name: &str, src: &str) -> Option<(SourceModel, Vec<BodyIdent>)> {
    let model = SourceModel::parse(src);
    let needle = format!("{keyword} {name}");
    let after = model
        .masked
        .match_indices(&needle)
        .map(|(p, _)| p + needle.len())
        .find(|&a| {
            let b = model.masked.as_bytes().get(a).copied().unwrap_or(b' ');
            !(b.is_ascii_alphanumeric() || b == b'_')
        })?;
    let (open, close) = next_brace_block(model.masked.as_bytes(), after)?;
    let body = &model.masked[open + 1..close];
    let toks = tokenize(body);
    let mut out = Vec::new();
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate() {
        match t {
            Tok::Punct(b'{' | b'(' | b'[' | b'<') => depth += 1,
            Tok::Punct(b'}' | b')' | b']' | b'>') => depth -= 1,
            Tok::Ident { text, offset } if depth == 0 => {
                let colon = toks.get(i + 1).is_some_and(|t| t.is(b':'));
                out.push((text.clone(), open + 1 + offset, colon));
            }
            _ => {}
        }
    }
    Some((model, out))
}

/// Variant names of `enum <name> { ... }` (uppercase-initial identifiers at
/// body depth 0; attribute contents sit inside `[...]`).
pub fn enum_variants(name: &str, src: &str) -> Option<Vec<String>> {
    let (_, idents) = body_idents("enum", name, src)?;
    Some(
        idents
            .into_iter()
            .filter(|(t, _, _)| t.starts_with(|c: char| c.is_ascii_uppercase()))
            .map(|(t, _, _)| t)
            .collect(),
    )
}

/// Field names of `struct <name> { ... }` with their lines.
pub fn struct_fields(name: &str, src: &str) -> Option<Vec<(String, usize)>> {
    let (model, idents) = body_idents("struct", name, src)?;
    Some(
        idents
            .into_iter()
            .filter(|(t, _, colon)| *colon && t != "pub")
            .map(|(t, off, _)| (t, model.line_of(off)))
            .collect(),
    )
}

// ---------------------------------------------------------------------------
// config-knob
// ---------------------------------------------------------------------------

/// Every `<struct_name>` field must be *read* (`.field`) somewhere in
/// `sources` outside the defining file's `impl <builder>` blocks: a
/// builder's setter *stores* operator intent, it does not honor it.
pub fn check_config_knobs(
    struct_name: &str,
    def_label: &str,
    def_src: &str,
    sources: &[(String, String)],
    builder: Option<&str>,
) -> Vec<Finding> {
    let Some(fields) = struct_fields(struct_name, def_src) else {
        let msg = format!("could not locate `struct {struct_name}`");
        return vec![finding(Check::ConfigKnob, def_label, 1, msg)];
    };
    let def_model = SourceModel::parse(def_src);
    let builder_spans: Vec<(usize, usize)> = builder
        .map(|b| format!("impl {b}"))
        .map(|needle| {
            let bytes = def_model.masked.as_bytes();
            def_model
                .masked
                .match_indices(&needle)
                .filter_map(|(p, _)| next_brace_block(bytes, p + needle.len()))
                .collect()
        })
        .unwrap_or_default();
    let mut reads: Vec<String> = Vec::new();
    for (label, text) in sources {
        let own = label == def_label;
        let model = if own {
            None
        } else {
            Some(SourceModel::parse(text))
        };
        let masked = model.as_ref().map_or(&def_model.masked, |m| &m.masked);
        let toks = tokenize(masked);
        for w in toks.windows(2) {
            if let [dot, Tok::Ident { text, offset }] = w {
                let in_builder =
                    own && builder_spans.iter().any(|&(a, b)| (a..=b).contains(offset));
                if dot.is(b'.') && !in_builder {
                    reads.push(text.clone());
                }
            }
        }
    }
    fields
        .into_iter()
        .filter(|(f, _)| !reads.contains(f))
        .map(|(f, line)| {
            let msg = format!(
                "`{struct_name}.{f}` is never read outside its definition: \
                 a dead knob silently ignores operator intent"
            );
            finding(Check::ConfigKnob, def_label, line, msg)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// test-hygiene
// ---------------------------------------------------------------------------

/// `#[ignore]` needs a reason; tests in `crates/net` (`in_net`) must not
/// synchronize with `sleep`.
pub fn check_test_hygiene(label: &str, source: &str, in_net: bool) -> Vec<Finding> {
    let model = SourceModel::parse(source);
    let toks = tokenize(&model.masked);
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let Tok::Ident { text, offset } = t else {
            continue;
        };
        let line = model.line_of(*offset);
        let at = |j: usize, ch: u8| toks.get(j).is_some_and(|t| t.is(ch));
        if text == "ignore" && i >= 2 && at(i - 1, b'[') && at(i - 2, b'#') && at(i + 1, b']') {
            let msg =
                "#[ignore] without a reason: use #[ignore = \"why\"] so the skip is auditable";
            out.push(finding(Check::TestHygiene, label, line, msg.to_string()));
        }
        let in_test = label.contains("/tests/") || model.line_in_test(line);
        if in_net && in_test && text == "sleep" && at(i + 1, b'(') {
            let msg = "sleep-based synchronization in a net test: poll a condition or use a \
                       channel/timeout instead";
            out.push(finding(Check::TestHygiene, label, line, msg.to_string()));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// assert-ban
// ---------------------------------------------------------------------------

/// No `assert!`/`assert_eq!`/`assert_ne!` outside test code. Applied to the
/// helper crates (gf/rs/lh/obs) whose callers are actor handlers: clippy
/// has no lint for the `assert!` family that exempts tests.
/// `debug_assert!` is allowed — release builds compile it out.
pub fn check_assert_ban(label: &str, source: &str) -> Vec<Finding> {
    let model = SourceModel::parse(source);
    let toks = tokenize(&model.masked);
    toks.iter()
        .zip(toks.iter().skip(1))
        .filter_map(|(t, next)| match t {
            Tok::Ident { text, offset }
                if matches!(text.as_str(), "assert" | "assert_eq" | "assert_ne")
                    && next.is(b'!') =>
            {
                Some((text, model.line_of(*offset)))
            }
            _ => None,
        })
        .filter(|(_, line)| !model.line_in_test(*line))
        .map(|(text, line)| {
            let msg = format!("{text}! aborts the calling actor; return a typed error instead");
            finding(Check::AssertBan, label, line, msg)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// lint-list
// ---------------------------------------------------------------------------

/// The clippy denial block of the seeded fixture crate: from its first
/// `#![cfg_attr(` to the closing `)]`.
pub fn deny_block(fixture_src: &str) -> Option<&str> {
    let start = fixture_src.find("#![cfg_attr(\n")?;
    let len = fixture_src.get(start..)?.find("\n)]")? + 3;
    fixture_src.get(start..start + len)
}

/// Every file in `required` must carry `block` verbatim, so the runtime
/// crates deny exactly the lints the seeded fixture proves fire.
pub fn check_lint_list(block: &str, what: &str, required: &[(&str, Option<&str>)]) -> Vec<Finding> {
    required
        .iter()
        .filter(|(_, text)| !text.is_some_and(|t| t.contains(block)))
        .map(|(label, _)| {
            let msg = format!(
                "missing the {what} denial block of crates/xtask/tests/fixtures/seeded: a crate \
                 root (or module) must deny exactly the lints the fixture proves"
            );
            finding(Check::LintList, label, 1, msg)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// drill-coverage
// ---------------------------------------------------------------------------

/// Counter-name prefixes whose series must be asserted by at least one
/// test: the recovery/durability metrics the kill drills gate on, plus the
/// pipelined-client window accounting the multiplexed drills gate on.
pub const DRILL_COUNTER_PREFIXES: [&str; 5] =
    ["restart_", "wal_", "recovery_", "inflight_", "window_"];

fn is_test_file(label: &str) -> bool {
    label.contains("/tests/") || label.starts_with("tests/")
}

/// `"<prefix>[a-z0-9_]*"` string literals outside test regions, with the
/// line of each first occurrence.
fn drill_counters(text: &str, model: &SourceModel) -> Vec<(String, usize)> {
    let mut out: Vec<(String, usize)> = Vec::new();
    for prefix in DRILL_COUNTER_PREFIXES {
        for (pos, _) in text.match_indices(prefix) {
            let name_len = text[pos..]
                .bytes()
                .take_while(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || *b == b'_')
                .count();
            let quoted = pos > 0
                && text.as_bytes()[pos - 1] == b'"'
                && text.as_bytes().get(pos + name_len) == Some(&b'"');
            let line = model.line_of(pos);
            let name = &text[pos..pos + name_len];
            if quoted && !model.line_in_test(line) && !out.iter().any(|(n, _)| n == name) {
                out.push((name.to_string(), line));
            }
        }
    }
    out
}

/// Every `CoordEvent` variant and every drill counter minted by production
/// code must appear in at least one test (integration-test files or
/// `#[cfg(test)]` regions): a failure path nobody asserts on is one nobody
/// will notice regressing.
pub fn check_drill_coverage(
    coord_label: &str,
    coord_src: &str,
    sources: &[(String, String)],
) -> Vec<Finding> {
    let mut corpus = String::new();
    for (label, text) in sources {
        let model = SourceModel::parse(text);
        for (i, line) in text.lines().enumerate() {
            if is_test_file(label) || model.line_in_test(i + 1) {
                corpus.push_str(line);
                corpus.push('\n');
            }
        }
    }
    let mut out = Vec::new();
    match enum_variants("CoordEvent", coord_src) {
        None => {
            let msg = "could not locate `enum CoordEvent` to audit drill coverage".to_string();
            out.push(finding(Check::DrillCoverage, coord_label, 1, msg));
        }
        Some(variants) => {
            for v in variants
                .iter()
                .filter(|v| !corpus.contains(&format!("CoordEvent::{v}")))
            {
                let msg = format!(
                    "`CoordEvent::{v}` is asserted by no test: this failure path can regress \
                     without any drill noticing"
                );
                out.push(finding(Check::DrillCoverage, coord_label, 1, msg));
            }
        }
    }
    for (label, text) in sources.iter().filter(|(l, _)| !is_test_file(l)) {
        let model = SourceModel::parse(text);
        for (name, line) in drill_counters(text, &model) {
            if !corpus.contains(&name) {
                let msg = format!(
                    "counter `{name}` is asserted by no test: the metric can silently stop \
                     moving and every drill built on it stays green"
                );
                out.push(finding(Check::DrillCoverage, label, line, msg));
            }
        }
    }
    out
}
