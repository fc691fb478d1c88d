//! lhrs-xtask: the project checks clippy cannot express.
//!
//! Panic freedom, checked arithmetic, codec exhaustiveness, tag uniqueness
//! and per-kind labels are enforced by the compiler: every runtime crate
//! root denies clippy's panic-family lints (see [`RUNTIME_ROOTS`]), and the
//! wire codec is generated from one table in `core::wire`. What remains
//! here are five checks about *tests and knobs*, which no lint sees:
//!
//! 1. **drill-coverage** — every `CoordEvent` variant and every
//!    `restart_*`/`wal_*`/`recovery_*`/`inflight_*`/`window_*` counter must
//!    be asserted by at least one test.
//! 2. **config-knob** — every `Config` field must be read somewhere.
//! 3. **test-hygiene** — no bare `#[ignore]`, no sleep-based
//!    synchronization in `crates/net` tests.
//! 4. **assert-ban** — no `assert!` family in gf/rs/lh/obs non-test code
//!    (clippy has no test-exempt lint for it).
//! 5. **lint-list** — every runtime crate root carries the exact clippy
//!    denial block of the seeded fixture crate, whose clippy run is proven
//!    to fail on every listed lint (`tests/clippy_fixture.rs`).

#![forbid(unsafe_code)]

pub mod checks;
pub mod source;

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Which check produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// Events and counters asserted by tests.
    DrillCoverage,
    /// Dead-knob detection on `Config`.
    ConfigKnob,
    /// Test-attribute hygiene.
    TestHygiene,
    /// No `assert!` family in helper-crate production code.
    AssertBan,
    /// Runtime crates deny the fixture's lint list.
    LintList,
}

impl Check {
    /// The name shown in findings.
    pub fn name(self) -> &'static str {
        match self {
            Check::DrillCoverage => "drill-coverage",
            Check::ConfigKnob => "config-knob",
            Check::TestHygiene => "test-hygiene",
            Check::AssertBan => "assert-ban",
            Check::LintList => "lint-list",
        }
    }
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The check that fired.
    pub check: Check,
    /// File label (workspace-relative path).
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (file, line, check) = (&self.file, self.line, self.check.name());
        write!(f, "{file}:{line}: [{check}] {}", self.message)
    }
}

/// Crate roots that must carry the fixture's panic-family denial block.
pub const RUNTIME_ROOTS: [&str; 10] = [
    "crates/core/src/lib.rs",
    "crates/net/src/lib.rs",
    "crates/net/src/bin/lhrs-netd.rs",
    "crates/net/src/bin/lhrs-netcli.rs",
    "crates/wal/src/lib.rs",
    "crates/gf/src/lib.rs",
    "crates/rs/src/lib.rs",
    "crates/lh/src/lib.rs",
    "crates/obs/src/lib.rs",
    "crates/sim/src/lib.rs",
];

/// Crate roots and modules that must also deny `arithmetic_side_effects`:
/// the helper crates and the code that parses wire bytes.
pub const ARITH_FILES: [&str; 7] = [
    "crates/gf/src/lib.rs",
    "crates/rs/src/lib.rs",
    "crates/lh/src/lib.rs",
    "crates/obs/src/lib.rs",
    "crates/core/src/wire.rs",
    "crates/core/src/convert.rs",
    "crates/net/src/frame.rs",
];

/// The arithmetic denial, verbatim.
pub const ARITH_DENY: &str = "#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]";

/// The seeded fixture crate's root: the one copy of the lint list.
pub const FIXTURE_ROOT: &str = "crates/xtask/tests/fixtures/seeded/src/lib.rs";

/// Crates whose production code may not use the `assert!` family.
const ASSERT_BAN_CRATES: [&str; 4] = ["crates/gf/", "crates/rs/", "crates/lh/", "crates/obs/"];

/// Walk a directory tree collecting `.rs` files (sorted for determinism).
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            // Build products, and the checker itself (its fixtures plant
            // the very patterns being hunted).
            if name != "target" && !name.starts_with('.') && !path.ends_with("crates/xtask") {
                rs_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Load every workspace source as `(workspace-relative label, text)`.
pub fn workspace_sources(root: &Path) -> Vec<(String, String)> {
    let mut files = Vec::new();
    rs_files(root, &mut files);
    files
        .into_iter()
        .filter_map(|p| {
            let label = p.strip_prefix(root).unwrap_or(&p).to_string_lossy();
            let label = label.replace('\\', "/");
            fs::read_to_string(&p).ok().map(|text| (label, text))
        })
        .collect()
}

/// Run every check over the workspace rooted at `root`.
pub fn run_all(root: &Path) -> Vec<Finding> {
    let sources = workspace_sources(root);
    let get = |label: &str| {
        sources
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, t)| t.as_str())
    };
    let mut findings = Vec::new();

    if let Some(def_src) = get("crates/core/src/config.rs") {
        let def = "crates/core/src/config.rs";
        findings.extend(checks::check_config_knobs(
            "Config",
            def,
            def_src,
            &sources,
            Some("ConfigBuilder"),
        ));
    }
    for (label, text) in &sources {
        findings.extend(checks::check_test_hygiene(
            label,
            text,
            label.starts_with("crates/net/"),
        ));
        if ASSERT_BAN_CRATES.iter().any(|c| label.starts_with(c)) && label.contains("/src/") {
            findings.extend(checks::check_assert_ban(label, text));
        }
    }
    if let Some(coord_src) = get("crates/core/src/coordinator.rs") {
        let label = "crates/core/src/coordinator.rs";
        findings.extend(checks::check_drill_coverage(label, coord_src, &sources));
    }

    let fixture = fs::read_to_string(root.join(FIXTURE_ROOT)).unwrap_or_default();
    match checks::deny_block(&fixture) {
        Some(block) if fixture.contains(ARITH_DENY) => {
            let roots: Vec<_> = RUNTIME_ROOTS.iter().map(|l| (*l, get(l))).collect();
            findings.extend(checks::check_lint_list(block, "panic-family", &roots));
            let arith: Vec<_> = ARITH_FILES.iter().map(|l| (*l, get(l))).collect();
            findings.extend(checks::check_lint_list(ARITH_DENY, "arithmetic", &arith));
        }
        _ => findings.push(Finding {
            check: Check::LintList,
            file: FIXTURE_ROOT.to_string(),
            line: 1,
            message: "the seeded fixture must hold both denial blocks".to_string(),
        }),
    }
    findings
}

/// Locate the workspace root: walk up from `start` until a `Cargo.toml`
/// containing `[workspace]` and a `crates/` directory is found.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    start.ancestors().find_map(|dir| {
        let text = fs::read_to_string(dir.join("Cargo.toml")).ok()?;
        (text.contains("[workspace]") && dir.join("crates").is_dir()).then(|| dir.to_path_buf())
    })
}
