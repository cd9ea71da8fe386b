//! Smoke runs of every workload, untraced and traced: tiny rounds, the
//! same output checks as a full run, and the result-line contract for
//! every metric `BENCHMARK.json` declares.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["route-commit", "fabric-acl", "inspect"];

fn run(args: &str) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_sessionbench"))
        .args(args.split_whitespace())
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    (out.status.code().unwrap_or(-1), stdout)
}

/// Metric names of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

fn smoke(workload: &str, trace: &str) -> String {
    let (code, stdout) = run(&format!(
        "--workload {workload} --seed 3 --seconds 1 --trace {trace} --smoke"
    ));
    assert_eq!(code, 0, "{workload} trace={trace} failed:\n{stdout}");
    assert!(stdout.contains("diagnostics: rounds="), "{stdout}");
    let last = stdout.lines().last().expect("a result line").to_string();
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.contains("\"failed\": 0,"), "{last}");
    last
}

fn assert_reports(last: &str, wanted: &[String], unwanted: &[String]) {
    for name in wanted {
        let key = format!("\"{name}\": {{\"value\": ");
        assert!(last.contains(&key), "{name} missing: {last}");
    }
    for name in unwanted {
        assert!(
            !last.contains(&format!("\"{name}\"")),
            "{name} reported: {last}"
        );
    }
}

#[test]
fn every_workload_reports_end_to_end_metrics_untraced() {
    let (e2e, layers) = (declared("end_to_end"), declared("per_layer"));
    assert_eq!(e2e.len(), 9);
    for w in WORKLOADS {
        assert_reports(&smoke(w, "0"), &e2e, &layers);
    }
}

#[test]
fn every_workload_reports_every_layer_traced() {
    let (e2e, layers) = (declared("end_to_end"), declared("per_layer"));
    assert_eq!(layers.len(), 35);
    for w in WORKLOADS {
        assert_reports(&smoke(w, "1"), &layers, &e2e);
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload inspect --seed 1 --seconds 1",
        "--workload inspect --seed 1 --seconds 1 --trace 2",
        "--workload inspect --seed x --seconds 1 --trace 0",
    ] {
        let (code, stdout) = run(args);
        assert_ne!(code, 0, "{args}");
        assert!(!stdout.contains("\"correct\""), "{stdout}");
    }
}
