//! Self-test of the benchmark: every workload, shrunk to a few simulated
//! milliseconds, emits every metric `BENCHMARK.json` names, with its unit,
//! and passes its own correctness checks.

use std::path::Path;
use std::process::Command;

use apc_analysis::export::JsonValue;

const WORKLOADS: [&str; 3] = ["cluster-pa32", "fanout-twotier", "lowload-sweep"];

fn benchmark_json() -> JsonValue {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    JsonValue::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    let bench = benchmark_json();
    let field = |m: &JsonValue, key: &str| {
        m.get(key)
            .and_then(JsonValue::as_str)
            .unwrap_or_else(|| panic!("{section} entry lacks `{key}`"))
            .to_owned()
    };
    bench
        .get(section)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{section}`"))
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

/// Runs one shrunk workload and returns its result line.
fn run(workload: &str, trace: &str) -> JsonValue {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "0"])
        .args(["--trace", trace, "--smoke"])
        .output()
        .expect("the benchmark runs");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    JsonValue::parse(last).expect("the result line is JSON")
}

fn assert_emits(section: &str, trace: &str) {
    let metrics = declared(section);
    assert!(!metrics.is_empty());
    for workload in WORKLOADS {
        let result = run(workload, trace);
        assert_eq!(
            result.get("correct"),
            Some(&JsonValue::Bool(true)),
            "{workload}"
        );
        assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));
        assert!(result.get("attempted").and_then(JsonValue::as_u64) >= Some(1));
        let JsonValue::Object(emitted) = result.get("metrics").expect("metrics") else {
            panic!("{workload}: metrics is not an object");
        };
        let names: Vec<&str> = emitted.iter().map(|(k, _)| k.as_str()).collect();
        let expected: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, expected, "{workload}: metric names");
        for ((name, unit), (_, value)) in metrics.iter().zip(emitted) {
            assert_eq!(
                value.get("unit").and_then(JsonValue::as_str),
                Some(unit.as_str()),
                "{workload}: unit of {name}"
            );
            let v = value.get("value").and_then(JsonValue::as_f64);
            assert!(v.is_some_and(f64::is_finite), "{workload}: value of {name}");
            if section == "end_to_end" {
                assert!(v.is_some_and(|v| v > 0.0), "{workload}: {name} is 0");
            }
        }
    }
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    assert_emits("end_to_end", "0");
}

#[test]
fn every_workload_emits_every_per_layer_metric() {
    assert_emits("per_layer", "1");
}
