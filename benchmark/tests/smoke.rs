//! Runs the built benchmark at smoke scale, untraced and traced, and holds
//! its output to `BENCHMARK.json`: the same workload and metric names, the
//! same units, every check passing, and a trace file that validates.

use std::process::Command;

use sim_core::json::{self, Value};

/// `(name, unit)` of every entry of `BENCHMARK.json`'s list `key`.
fn declared(spec: &Value, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap_or_default().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs every workload at smoke scale and returns the final JSON line.
fn smoke(trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--smoke", "--seed", "3", "--trace", trace])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    json::parse(stdout.lines().last().expect("a result line")).expect("the result line is JSON")
}

#[test]
fn smoke_runs_report_exactly_the_declared_names() {
    let spec = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let workloads: Vec<String> = declared(&spec, "workloads").into_iter().map(|(n, _)| n).collect();
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let result = smoke(trace);
        assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "trace {trace}");
        assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
        let Some(Value::Object(metrics)) = result.get("metrics") else {
            panic!("no metrics object");
        };
        let printed: Vec<(String, String)> = metrics
            .iter()
            .map(|(name, m)| {
                (name.clone(), m.get("unit").and_then(Value::as_str).unwrap().to_string())
            })
            .collect();
        let expected: Vec<(String, String)> = workloads
            .iter()
            .flat_map(|w| {
                declared(&spec, list).into_iter().map(move |(n, u)| (format!("{w}.{n}"), u))
            })
            .collect();
        assert_eq!(printed, expected, "trace {trace}");
        for (name, _) in &printed {
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad metric name {name}"
            );
        }
    }
    for w in &workloads {
        let path = format!("{}/trace/{w}.json", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        json::validate(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    }
}

#[test]
fn timed_runs_refuse_a_debug_build() {
    if !cfg!(debug_assertions) {
        return;
    }
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", "rnn_chains", "--seconds", "1"])
        .output()
        .expect("the benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "a refused run prints no result");
}
