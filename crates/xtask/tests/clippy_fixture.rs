//! The seeded fixture crate must fail clippy on every lint the runtime
//! crates deny, plus a stale `#[expect]`. This proves the denial block that
//! `lhrs-xtask lint` requires of every runtime crate root actually fires.

use std::path::Path;
use std::process::Command;

use lhrs_xtask::checks::deny_block;

#[test]
#[ignore = "runs `cargo clippy` on the fixture crate; the CI lint job runs it with --ignored"]
fn seeded_fixture_fails_clippy_on_every_denied_lint() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/seeded");
    let src = std::fs::read_to_string(fixture.join("src/lib.rs")).expect("fixture root");
    let block = deny_block(&src).expect("fixture denial block");
    let mut lints: Vec<&str> = block
        .lines()
        .filter_map(|l| l.trim().trim_end_matches(',').strip_prefix("clippy::"))
        .collect();
    lints.push("arithmetic_side_effects");
    assert_eq!(lints.len(), 9, "{lints:?}");

    let out = Command::new(env!("CARGO"))
        .arg("clippy")
        .arg("--manifest-path")
        .arg(fixture.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(Path::new(env!("CARGO_TARGET_TMPDIR")).join("seeded"))
        .args(["--", "-D", "warnings"])
        .output()
        .expect("cargo clippy runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "the seeded fixture passed clippy:\n{stderr}"
    );
    for lint in lints {
        assert!(
            stderr.contains(&format!("index.html#{lint}\n")),
            "clippy did not report `{lint}`:\n{stderr}"
        );
    }
    assert!(
        stderr.contains("this lint expectation is unfulfilled"),
        "the stale #[expect] went unreported:\n{stderr}"
    );
}
