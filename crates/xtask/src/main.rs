//! CLI for the LH\*RS project checks.
//!
//! ```text
//! cargo run -p lhrs-xtask -- lint    # exit 1 on any finding
//! ```

#![forbid(unsafe_code)]

use std::process::ExitCode;

use lhrs_xtask::{find_workspace_root, run_all};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args != ["lint"] {
        eprintln!("usage: lhrs-xtask lint");
        return ExitCode::from(2);
    }
    let Some(root) = std::env::current_dir()
        .ok()
        .and_then(|d| find_workspace_root(&d))
    else {
        eprintln!("could not locate the workspace root (no Cargo.toml with [workspace])");
        return ExitCode::from(2);
    };
    let findings = run_all(&root);
    for f in &findings {
        println!("{f}");
    }
    println!("lhrs-lint: {} finding(s)", findings.len());
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
