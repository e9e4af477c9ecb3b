//! The `benchmark` binary against `BENCHMARK.json`: a `--quick` smoke of
//! every workload in both passes, and `run --all` + `compare`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use coyote_benchmark::cli::DEFAULT_SECONDS;
use coyote_benchmark::spec::{BenchSpec, MetricSpec};
use coyote_benchmark::workloads::WORKLOADS;
use coyote_telemetry::{parse_json, JsonValue};

fn spec_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

fn bench_spec() -> BenchSpec {
    BenchSpec::load(&spec_path()).unwrap()
}

fn benchmark(args: &[&str]) -> (bool, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .output()
        .unwrap();
    (
        output.status.success(),
        String::from_utf8(output.stdout).unwrap(),
    )
}

/// Runs one quick pass and returns the contract's result line, parsed.
fn quick_pass(workload: &str, trace: &str) -> JsonValue {
    let (ok, stdout) = benchmark(&[
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "0",
        "--trace",
        trace,
        "--quick",
    ]);
    assert!(ok, "{workload} --trace {trace} failed:\n{stdout}");
    parse_json(stdout.lines().last().unwrap()).unwrap()
}

fn assert_emits_exactly(result: &JsonValue, declared: &[MetricSpec], what: &str) {
    assert_eq!(
        result.keys().unwrap(),
        ["correct", "attempted", "failed", "metrics"],
        "{what}"
    );
    assert_eq!(
        result.get("correct"),
        Some(&JsonValue::Bool(true)),
        "{what}"
    );
    assert_eq!(result.get("failed").unwrap().as_u64(), Some(0), "{what}");
    assert!(
        result.get("attempted").unwrap().as_u64().unwrap() >= 1,
        "{what}"
    );
    let metrics = result.get("metrics").unwrap();
    let emitted: BTreeSet<&str> = metrics.keys().unwrap().into_iter().collect();
    let expected: BTreeSet<&str> = declared.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(
        emitted, expected,
        "{what}: emitted vs declared metric names"
    );
    for m in declared {
        let entry = metrics.get(&m.name).unwrap();
        assert_eq!(
            entry.keys().unwrap(),
            ["value", "unit"],
            "{what} {}",
            m.name
        );
        assert_eq!(
            entry.get("unit").unwrap().as_str(),
            Some(m.unit.as_str()),
            "{what} {}",
            m.name
        );
        assert!(
            entry.get("value").unwrap().as_f64().is_some(),
            "{what} {} has no number",
            m.name
        );
    }
}

#[test]
fn declared_workloads_and_run_length_match_the_harness() {
    let spec = bench_spec();
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(spec.workloads, names);
    assert_eq!(spec.run_seconds as f64, DEFAULT_SECONDS);
    assert!(spec
        .end_to_end
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
    // Set-up time carries the largest bound.
    let setup = spec
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .unwrap();
    assert!(spec.end_to_end.iter().all(|m| m.bound <= setup.bound));
}

#[test]
fn quick_smoke_emits_exactly_the_declared_metrics() {
    let spec = bench_spec();
    for workload in &spec.workloads {
        let e2e = quick_pass(workload, "0");
        assert_emits_exactly(&e2e, &spec.end_to_end, &format!("{workload} end to end"));
        let traced = quick_pass(workload, "1");
        assert_emits_exactly(&traced, &spec.per_layer, &format!("{workload} traced"));
        // Replay conservation: every requested response completed.
        let completed = traced
            .get("metrics")
            .unwrap()
            .get("mem.completed_share")
            .unwrap();
        assert_eq!(
            completed.get("value").unwrap().as_f64(),
            Some(1.0),
            "{workload}"
        );
    }
}

#[test]
fn unknown_workload_and_bad_flags_are_refused_without_a_result() {
    for args in [
        &["--workload", "nope", "--trace", "0"][..],
        &["--workload", "matmul_1c", "--trace", "2"][..],
        &["--workload", "matmul_1c", "--all"][..],
        &["--frobnicate"][..],
    ] {
        let (ok, stdout) = benchmark(args);
        assert!(!ok, "{args:?} should fail");
        assert!(!stdout.contains("\"correct\""), "{args:?} printed a result");
    }
}

#[test]
fn run_all_then_compare_against_itself_is_ok_and_a_regression_is_worse() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let out = dir.join("set-a.json");
    let (ok, stdout) = benchmark(&[
        "run",
        "--all",
        "--seed",
        "3",
        "--seconds",
        "0",
        "--quick",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert!(ok, "{stdout}");
    let text = std::fs::read_to_string(&out).unwrap();
    let set = parse_json(&text).unwrap();
    assert_eq!(set.get("claim"), Some(&JsonValue::Null));
    assert_eq!(
        set.get("workloads").unwrap().as_array().unwrap().len(),
        WORKLOADS.len()
    );

    // The observed twin simulates the same machine: equal cycles, equal digest.
    let reference = |name: &str| {
        let docs = set.get("workloads").unwrap().as_array().unwrap();
        let doc = docs
            .iter()
            .find(|d| d.get("workload").unwrap().as_str() == Some(name))
            .unwrap();
        doc.get("reference").unwrap().clone()
    };
    assert_eq!(reference("matmul_128c"), reference("matmul_128c_observed"));

    let spec = spec_path();
    let same = benchmark(&[
        "compare",
        out.to_str().unwrap(),
        out.to_str().unwrap(),
        "--spec",
        spec.to_str().unwrap(),
    ]);
    assert!(same.0, "{}", same.1);
    assert!(same.1.contains(", 0 worse"), "{}", same.1);

    // Same seed, one more simulated cycle: an exact metric moved.
    let cycles = set.get("workloads").unwrap().as_array().unwrap()[0]
        .get("metrics")
        .unwrap()
        .get("sim_cycles")
        .unwrap()
        .get("value")
        .unwrap()
        .as_f64()
        .unwrap();
    let tampered = dir.join("set-b.json");
    let needle = format!("\"value\": {cycles:.1}");
    assert!(text.contains(&needle), "no {needle} in the result set");
    std::fs::write(
        &tampered,
        text.replacen(&needle, &format!("\"value\": {:.1}", cycles + 1.0), 1),
    )
    .unwrap();
    let moved = benchmark(&[
        "compare",
        out.to_str().unwrap(),
        tampered.to_str().unwrap(),
        "--spec",
        spec.to_str().unwrap(),
    ]);
    assert!(!moved.0, "{}", moved.1);
    assert!(moved.1.contains("sim_cycles"), "{}", moved.1);
}
