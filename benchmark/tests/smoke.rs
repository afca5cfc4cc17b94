//! Runs the real binary in `--smoke` mode (1 s phases) and checks what
//! it prints against `BENCHMARK.json`: the contract every later change
//! is judged by must not drift from the program that measures it.

use std::path::PathBuf;
use std::process::Command;

use rqfa_benchmark::json::Json;

const BIN: &str = env!("CARGO_BIN_EXE_rqfa-benchmark");

fn spec() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(spec: &Json, member: &str) -> Vec<String> {
    spec.get(member)
        .expect("member present")
        .elements()
        .iter()
        .map(|entry| {
            entry
                .get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

fn keys(object: &Json) -> Vec<String> {
    match object {
        Json::Obj(pairs) => pairs.iter().map(|(key, _)| key.clone()).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

fn value(result: &Json, metric: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(metric)?.get("value")?.as_f64())
        .unwrap_or_else(|| panic!("no value for {metric}"))
}

/// One workload run in this test's own child process; the parsed last
/// line of its output.
fn run_one(workload: &str, seed: &str, traced: &str) -> Json {
    let output = Command::new(BIN)
        .args([
            "--workload",
            workload,
            "--seed",
            seed,
            "--trace",
            traced,
            "--smoke",
        ])
        .output()
        .expect("benchmark runs");
    assert!(
        output.status.success(),
        "{workload} --trace {traced} failed"
    );
    let text = String::from_utf8(output.stdout).expect("utf-8 output");
    Json::parse(text.lines().last().expect("a result line")).expect("result parses")
}

#[test]
fn printed_names_are_the_spec_names_and_stages_sum() {
    let spec = spec();
    let workloads = names(&spec, "workloads");
    let end_to_end = names(&spec, "end_to_end");
    let per_layer = names(&spec, "per_layer");
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    for name in workloads.iter().chain(&end_to_end).chain(&per_layer) {
        assert!(
            !name.is_empty()
                && name.len() <= 64
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad name {name:?}"
        );
    }

    let out =
        std::env::temp_dir().join(format!("rqfa-benchmark-smoke-{}.json", std::process::id()));
    let status = Command::new(BIN)
        .args(["--smoke", "--out"])
        .arg(&out)
        .status()
        .expect("benchmark runs");
    let saved = std::fs::read_to_string(&out).expect("results saved");
    let _ = std::fs::remove_file(&out);
    assert!(status.success(), "a workload failed its correctness check");
    let saved = Json::parse(&saved).expect("saved results parse");
    let results = saved.get("workloads").expect("results by workload");

    assert_eq!(keys(results), workloads);
    for workload in &workloads {
        let plain = results
            .get(workload)
            .and_then(|w| w.get("end_to_end"))
            .expect("untraced run");
        let traced = results
            .get(workload)
            .and_then(|w| w.get("per_layer"))
            .expect("traced run");
        assert_eq!(
            keys(plain.get("metrics").expect("metrics")),
            end_to_end,
            "{workload}"
        );
        assert_eq!(
            keys(traced.get("metrics").expect("metrics")),
            per_layer,
            "{workload}"
        );
        assert_eq!(value(traced, "shard.stage_sum_mismatch"), 0.0, "{workload}");
        for metric in &end_to_end {
            assert!(
                value(plain, metric) > 0.0,
                "{workload} {metric} must never read 0"
            );
        }
    }
}

#[test]
fn equal_seeds_give_equal_inputs() {
    let digest = |seed: &str| value(&run_one("local_scan", seed, "1"), "client.input_digest");
    let first = digest("5");
    assert_eq!(first, digest("5"));
    assert_ne!(first, digest("6"));
}

#[test]
fn refuses_what_it_does_not_know() {
    let output = Command::new(BIN)
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("benchmark runs");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
