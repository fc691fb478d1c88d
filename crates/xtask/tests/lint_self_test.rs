//! The checker is itself tested: every check must fire on its seeded
//! fixture (exactly once per planted violation), stay silent on the decoys,
//! and report nothing on the real tree.

use std::path::Path;

use lhrs_xtask::checks::{
    check_assert_ban, check_config_knobs, check_drill_coverage, check_lint_list,
    check_test_hygiene, deny_block, enum_variants, struct_fields,
};
use lhrs_xtask::{run_all, ARITH_DENY};

const CONFIG_DEAD: &str = include_str!("fixtures/config_dead_knob.rs");
const CONFIG_BUILDER: &str = include_str!("fixtures/config_builder_knob.rs");
const HYGIENE: &str = include_str!("fixtures/hygiene_violations.rs");
const DRILL_GAP: &str = include_str!("fixtures/drill_gap.rs");
const DRILL_COORD: &str = include_str!("fixtures/drill_coord.rs");
const SEEDED: &str = include_str!("fixtures/seeded/src/lib.rs");

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/xtask sits two levels below the workspace root")
}

#[test]
fn enum_variant_extraction_sees_all_shapes() {
    let src = "pub enum Msg {\n    #[doc = \"x\"]\n    Alpha,\n    Beta(u8, Vec<u8>),\n    \
               Gamma { a: u64 },\n}\npub enum MsgKind { Delta }";
    assert_eq!(
        enum_variants("Msg", src).unwrap(),
        ["Alpha", "Beta", "Gamma"]
    );
    assert_eq!(enum_variants("MsgKind", src).unwrap(), ["Delta"]);
}

#[test]
fn config_check_flags_only_the_dead_knob() {
    let label = "fixtures/config_dead_knob.rs";
    let sources = vec![(label.to_string(), CONFIG_DEAD.to_string())];
    let findings = check_config_knobs("Config", label, CONFIG_DEAD, &sources, None);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert!(findings[0].message.contains("dead_knob"));

    let fields = struct_fields("Config", CONFIG_DEAD).expect("struct found");
    let names: Vec<&str> = fields.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, ["live_knob", "dead_knob", "nested"]);
}

#[test]
fn config_check_is_builder_aware() {
    let label = "fixtures/config_builder_knob.rs";
    let sources = vec![(label.to_string(), CONFIG_BUILDER.to_string())];
    // Without exclusion, the builder's setter writes mask the dead knob.
    let masked = check_config_knobs("Config", label, CONFIG_BUILDER, &sources, None);
    assert!(masked.is_empty(), "{masked:#?}");
    // With the builder impl excluded, `builder_only_knob` (stored and
    // validated by the builder, read nowhere else) must be flagged.
    let builder = Some("ConfigBuilder");
    let findings = check_config_knobs("Config", label, CONFIG_BUILDER, &sources, builder);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert!(findings[0].message.contains("builder_only_knob"));
}

#[test]
fn hygiene_check_fires_on_bare_ignore_and_test_sleep() {
    let findings = check_test_hygiene("crates/net/src/fixture.rs", HYGIENE, true);
    assert_eq!(findings.len(), 2, "{findings:#?}");
    for needle in ["#[ignore]", "sleep-based"] {
        let hits = findings.iter().filter(|f| f.message.contains(needle));
        assert_eq!(hits.count(), 1, "{needle}");
    }
    // Outside crates/net the sleep rule does not apply; the bare #[ignore]
    // still does.
    let findings = check_test_hygiene("crates/core/src/fixture.rs", HYGIENE, false);
    assert_eq!(findings.len(), 1);
}

#[test]
fn assert_ban_fires_outside_tests_only() {
    let src = "pub fn f(x: u8) {\n    debug_assert!(x > 0);\n    assert_eq!(x, 1); // seeded\n}\n\
               // assert!(x) in a comment\n#[cfg(test)]\nmod tests {\n    #[test]\n    \
               fn t() {\n        assert!(true);\n    }\n}\n";
    let findings = check_assert_ban("crates/gf/src/fixture.rs", src);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].line, 3);
}

#[test]
fn unasserted_drill_counter_is_flagged() {
    let coord = "crates/core/src/coordinator.rs";
    let sources = vec![
        (coord.to_string(), DRILL_COORD.to_string()),
        (
            "crates/wal/src/fixture.rs".to_string(),
            DRILL_GAP.to_string(),
        ),
    ];
    let findings = check_drill_coverage(coord, DRILL_COORD, &sources);
    assert_eq!(findings.len(), 2, "{findings:#?}");
    // `recovery_probe_ok`, `inflight_launched` and `CoordEvent::SplitDone`
    // are named by the fixture's tests and must stay silent.
    for gap in ["`wal_rotations`", "`window_full_stalls`"] {
        assert!(findings.iter().any(|f| f.message.contains(gap)), "{gap}");
    }
}

#[test]
fn lint_list_flags_a_root_that_drifts_from_the_fixture() {
    let block = deny_block(SEEDED).expect("the fixture holds the denial block");
    assert!(block.contains("clippy::unwrap_used") && block.ends_with(")]"));
    assert!(SEEDED.contains(ARITH_DENY));
    let exact = format!("//! a crate\n\n{block}\n");
    let dropped = exact.replace("        clippy::panic,\n", "");
    let roots = [
        ("a/lib.rs", Some(exact.as_str())),
        ("b/lib.rs", Some(&dropped)),
        ("c/lib.rs", None),
    ];
    let findings = check_lint_list(block, "panic-family", &roots);
    let files: Vec<&str> = findings.iter().map(|f| f.file.as_str()).collect();
    assert_eq!(files, ["b/lib.rs", "c/lib.rs"]);
}

/// The acceptance gate: the real tree reports zero findings.
#[test]
fn real_workspace_is_clean() {
    let findings = run_all(workspace_root());
    let report: Vec<String> = findings.iter().map(|f| f.to_string()).collect();
    assert!(
        findings.is_empty(),
        "the workspace must lint clean:\n{}",
        report.join("\n")
    );
}
