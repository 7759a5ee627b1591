//! The benchmark's own checks, at miniature scale: every metric named in
//! BENCHMARK.json is emitted with its unit, and a corrupted oracle is
//! counted as failures and fails the run.

use serde::Json;
use std::process::Command;

const WORKLOADS: [&str; 2] = ["lifecycle-durable", "serve-wire"];

struct Run {
    code: i32,
    result: Json,
    stderr: String,
}

fn run(workload: &str, trace: &str, extra: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", trace, "--tiny"])
        .args(extra)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let last = stdout.lines().last().expect("a result line");
    Run {
        code: out.status.code().expect("exit code"),
        result: serde_json::from_str(last).expect("the last line is JSON"),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of BENCHMARK.json.
fn declared(bench: &Json, section: &str) -> Vec<(String, String)> {
    bench
        .get(section)
        .and_then(Json::as_arr)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect("name and unit");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn emitted(result: &Json) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect();
    out.sort();
    out
}

fn count(result: &Json, key: &str) -> f64 {
    result.get(key).and_then(Json::as_f64).expect(key)
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let bench = benchmark_json();
    let names: Vec<&str> = bench
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    assert_eq!(names, WORKLOADS);
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let mut want = declared(&bench, section);
        want.sort();
        for workload in WORKLOADS {
            let r = run(workload, trace, &[]);
            assert_eq!(r.code, 0, "{workload} trace {trace}: {}", r.stderr);
            assert_eq!(r.result.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(count(&r.result, "failed"), 0.0);
            assert!(count(&r.result, "attempted") >= 1.0);
            assert_eq!(emitted(&r.result), want, "{workload} trace {trace}");
        }
    }
}

#[test]
fn a_corrupted_oracle_is_counted_and_fails_the_run() {
    for workload in WORKLOADS {
        let r = run(workload, "0", &["--corrupt-oracle"]);
        assert_ne!(r.code, 0, "{workload} passed with a corrupted oracle");
        assert_eq!(r.result.get("correct").and_then(Json::as_bool), Some(false));
        assert!(
            count(&r.result, "failed") >= 2.0,
            "{workload}: {}",
            r.stderr
        );
        let digest_miss = ["wrong image", "!= expected"]
            .iter()
            .any(|m| r.stderr.contains(m));
        let range_miss = r.stderr.contains("bytes differ");
        assert!(
            digest_miss,
            "{workload}: digest miss not reported: {}",
            r.stderr
        );
        assert!(
            range_miss,
            "{workload}: range miss not reported: {}",
            r.stderr
        );
    }
}
