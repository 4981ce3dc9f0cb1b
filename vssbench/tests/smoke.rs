//! Runs the real binary in `--smoke` mode (tiny frames, a one-second budget)
//! and checks the output contract: the result line's keys, every metric that
//! `BENCHMARK.json` names, valid names, passing correctness gates, and that
//! each workload stresses the layer it was chosen for and bypasses the ones
//! it claims to.

use serde::json::Value;
use std::path::Path;
use std::process::Command;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    serde::json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn names(json: &Value, key: &str) -> Vec<String> {
    json.get(key)
        .and_then(Value::as_array)
        .expect("array")
        .iter()
        .map(|item| {
            item.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> Value {
    // The benchmark writes its scratch stores under the working directory.
    let cwd = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let output = Command::new(env!("CARGO_BIN_EXE_vssbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "15",
            "--trace",
            trace,
            "--smoke",
        ])
        .current_dir(cwd)
        .output()
        .expect("vssbench runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = serde::json::parse(last).expect("the last line is JSON");
    let keys: Vec<&str> = result
        .as_object()
        .expect("object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        ["attempted", "correct", "failed", "metrics"],
        "{workload}"
    );
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{workload} --trace {trace}:\n{stdout}"
    );
    assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(
        !cwd.join(".bench_scratch").exists(),
        "{workload} left its scratch directory behind"
    );
    result
}

fn value(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

fn assert_reports(result: &Value, expected: &[String], workload: &str) {
    let reported: Vec<&String> = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics")
        .keys()
        .collect();
    let mut sorted: Vec<&String> = expected.iter().collect();
    sorted.sort();
    assert_eq!(
        reported, sorted,
        "{workload} must report exactly the metrics BENCHMARK.json names"
    );
    for name in reported {
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "metric name {name} is outside [A-Za-z0-9_.-]+"
        );
        let metric = result.get("metrics").unwrap().get(name).unwrap();
        assert!(
            metric.get("unit").and_then(Value::as_str).is_some(),
            "{name} has no unit"
        );
        assert!(value(result, name).is_finite(), "{name} is not a number");
    }
}

// One test, sequential runs: the workloads time themselves and a two-core box
// cannot run four of them side by side.
#[test]
fn smoke_output_meets_the_contract() {
    let spec = benchmark_json();
    let end_to_end = names(&spec, "end_to_end");
    let per_layer = names(&spec, "per_layer");
    for workload in names(&spec, "workloads") {
        let measured = run(&workload, "0");
        assert_reports(&measured, &end_to_end, &workload);
        for name in &end_to_end {
            assert!(
                value(&measured, name) > 0.0,
                "{workload}: end-to-end metric {name} must never be 0"
            );
        }
        let traced = run(&workload, "1");
        assert_reports(&traced, &per_layer, &workload);
        assert!(
            value(&traced, "codec.encode_h264.ns_per_pixel") > 0.0,
            "probes run in every traced run"
        );
        match workload.as_str() {
            "transcode_scan" => {
                assert_eq!(value(&traced, "core.cache.hit_frac"), 0.0);
                assert_eq!(value(&traced, "core.cache.admit_frac"), 0.0);
                assert_eq!(
                    value(&traced, "net.mux.streams_opened"),
                    0.0,
                    "no network in an in-process workload"
                );
                assert!(value(&traced, "codec.encode.busy_share") > 0.1);
            }
            "cached_clips" => {
                assert!(value(&traced, "core.cache.hit_frac") > 0.5);
                assert!(value(&traced, "solver.plan.candidates_per_read") > 1.0);
            }
            "ingest_dedup" => {
                assert!(
                    value(&traced, "catalog.wal.fsyncs_per_gop") >= 1.0,
                    "default flush policy: an fsync per GOP"
                );
                assert!(value(&traced, "catalog.open.records_replayed") > 0.0);
                assert_eq!(value(&traced, "core.cache.hit_frac"), 0.0);
            }
            "service_mixed" => {
                assert!(value(&traced, "net.mux.streams_opened") > 0.0);
                assert!(value(&traced, "bench.gen.late_p90_ms") < 5.0);
                assert!(value(&traced, "live.hub.published_gops") > 0.0);
                assert_eq!(value(&traced, "live.sub.gaps"), 0.0);
            }
            other => panic!("unexpected workload {other}"),
        }
    }
}

#[test]
fn refuses_a_bad_command_line_without_a_result_line() {
    let output = Command::new(env!("CARGO_BIN_EXE_vssbench"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("vssbench runs");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
