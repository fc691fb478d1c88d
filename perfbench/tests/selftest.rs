//! Self-test of the benchmark: a tiny run of every workload prints every
//! metric `BENCHMARK.json` names, with its unit, and a planted wrong
//! expectation trips the correctness oracle.
//!
//! `write-durable` is not among `BENCHMARK.json`'s workloads: on a disk
//! whose WAL I/O stalls a host thread past the failure-detection timeouts,
//! the program rebuilds live buckets and can lose acked keys. Its test
//! asserts that the run prints every metric and reports what the oracle
//! found, whichever way that goes.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The workloads `BENCHMARK.json` gates.
const GATED: [&str; 3] = ["read-mostly", "grow", "recover"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

/// Run the benchmark binary from the repository root, where its command
/// runs, at self-test sizes.
fn run(workload: &str, trace: u8, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lhrs-perfbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--size", "tiny"])
        .args(extra)
        .output()
        .expect("run the benchmark binary")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn metrics_of(section: &str) -> Vec<(String, String)> {
    let text =
        std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("read BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let end = body.find(']').expect("section is a list");
    let body = &body[..end];
    let field = |item: &str, key: &str| -> String {
        let at = item.find(&format!("\"{key}\"")).expect("field present");
        let rest = &item[at + key.len() + 2..];
        let open = rest.find('"').expect("string value") + 1;
        let close = rest[open..].find('"').expect("closed string") + open;
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|item| (field(item, "name"), field(item, "unit")))
        .collect()
}

fn last_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .unwrap_or_default()
        .to_string()
}

fn assert_printed(out: &Output, metrics: &[(String, String)], what: &str) {
    let line = last_line(out);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{what}: bad last line {line}"
    );
    assert_metrics(&line, metrics, what);
}

fn assert_metrics(line: &str, metrics: &[(String, String)], what: &str) {
    for (name, unit) in metrics {
        let expected = format!("\"{name}\": {{\"value\": ");
        let at = line
            .find(&expected)
            .unwrap_or_else(|| panic!("{what}: metric {name} missing from {line}"));
        assert!(
            line[at..].starts_with(&expected)
                && line[at..].contains(&format!("\"unit\": \"{unit}\"")),
            "{what}: metric {name} printed without its unit {unit}"
        );
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    let e2e = metrics_of("end_to_end");
    assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for w in GATED {
        let out = run(w, 0, &[]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{w} failed: {stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_printed(&out, &e2e, w);
        // The workload-specific end-to-end figures, printed above the
        // last line with their units and sample counts.
        let mut specific = vec!["failed_frac = "];
        match w {
            "read-mostly" => specific.extend(["read_p99_us = ", "write_p99_us = "]),
            "grow" => specific.extend(["write_p50_us = "]),
            _ => specific.extend(["read_p50_us = ", "recovery_ms = "]),
        }
        for s in specific {
            assert!(
                stdout.contains(&format!("e2e[run] {s}")),
                "{w}: {s} not printed"
            );
        }
        for meta in [
            "meta nproc = ",
            "meta cpu_model = ",
            "meta git_rev = ",
            "meta seed = 7",
            "meta window = ",
        ] {
            assert!(stdout.contains(meta), "{w}: {meta} missing");
        }
        assert!(
            stdout.contains("(n="),
            "{w}: percentiles need their sample counts"
        );
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric_when_traced() {
    let layer = metrics_of("per_layer");
    assert!(layer.iter().any(|(n, _)| n == "trace.overhead_frac"));
    for w in GATED {
        let out = run(w, 1, &[]);
        assert!(
            out.status.success(),
            "{w} traced run failed: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        assert_printed(&out, &layer, &format!("{w} traced"));
    }
}

#[test]
fn write_durable_prints_every_metric_and_reports_what_the_oracle_found() {
    let sections = [(0, metrics_of("end_to_end")), (1, metrics_of("per_layer"))];
    for (trace, metrics) in sections {
        let out = run("write-durable", trace, &[]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = last_line(&out);
        let correct = line.starts_with("{\"correct\": true, ");
        assert!(
            correct || line.starts_with("{\"correct\": false, "),
            "write-durable: bad last line {line}"
        );
        assert_eq!(out.status.success(), correct, "write-durable: {stdout}");
        assert_eq!(
            stdout.contains("\nerror "),
            !correct,
            "write-durable: a failed check prints what failed"
        );
        assert_metrics(&line, &metrics, "write-durable");
        if trace == 0 {
            for s in [
                "write_p99_us = ",
                "failed_frac = ",
                "disk_bytes_per_user_byte = ",
            ] {
                assert!(
                    stdout.contains(&format!("e2e[run] {s}")),
                    "write-durable: {s} not printed"
                );
            }
        }
    }
}

#[test]
fn planted_wrong_expectation_trips_the_oracle() {
    for w in GATED {
        let out = run(w, 0, &["--plant-wrong-expectation"]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            !out.status.success(),
            "{w}: a wrong expectation must fail the run"
        );
        assert!(
            last_line(&out).starts_with("{\"correct\": false"),
            "{w}: {stdout}"
        );
        assert!(
            stdout.contains("error wrong value for key"),
            "{w}: the mismatch is printed"
        );
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_lhrs-perfbench"))
        .args([
            "--workload",
            "no-such-workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run the benchmark binary");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
