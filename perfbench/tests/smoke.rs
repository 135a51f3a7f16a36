//! Runs every workload at small scale, untraced and traced, and checks
//! the result line against `BENCHMARK.json`: every metric named there,
//! with its unit, no failed operation, and a traced composition that
//! equals the service's output.

use std::path::PathBuf;
use std::process::Command;

use serde_json::Value;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

fn benchmark_json() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric of one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(list)
        .and_then(Value::as_array)
        .expect("metric list present")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs one workload on the small bed; returns stdout and the parsed
/// result line.
fn run(workload: &str, trace: bool) -> (String, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1.5",
            "--bed",
            "small",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} exited with {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("output has a result line");
    let result: Value = serde_json::from_str(last).expect("the last line is JSON");
    (stdout, result)
}

fn check(workload: &str, trace: bool, report_names: &[&str]) {
    let (stdout, result) = run(workload, trace);
    let keys: Vec<&str> = result
        .as_object()
        .expect("result is an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{stdout}");
    assert_eq!(
        result.get("failed").and_then(Value::as_u64),
        Some(0),
        "{stdout}"
    );
    assert!(result.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);

    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object");
    let list = declared(if trace { "per_layer" } else { "end_to_end" });
    assert_eq!(metrics.len(), list.len(), "exactly the declared metrics");
    for (name, unit) in &list {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: {name} missing"));
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        let v = m
            .get("value")
            .and_then(Value::as_f64)
            .expect("numeric value");
        assert!(v.is_finite(), "{workload}: {name} = {v}");
        if !trace {
            assert!(v > 0.0, "{workload}: end-to-end {name} = {v}");
        }
    }
    // The report lines above the result name every metric of the
    // workload, each with a unit.
    for name in report_names {
        let line = stdout
            .lines()
            .find(|l| l.split_whitespace().next() == Some(name))
            .unwrap_or_else(|| panic!("{workload}: report line for {name} missing\n{stdout}"));
        assert!(
            line.split_whitespace().count() >= 3,
            "{name} has a value and a unit: {line}"
        );
    }
    if trace {
        let compared = stdout
            .lines()
            .find_map(|l| l.strip_prefix("# traced composition vs service: "))
            .expect("traced comparison line");
        assert!(
            compared.ends_with(", 0 mismatches"),
            "{workload}: {compared}"
        );
        assert!(
            !compared.starts_with("0 compared"),
            "{workload}: {compared}"
        );
    }
}

const TRACED_COMMON: [&str; 8] = [
    "error_rate",
    "trace.overhead_ms",
    "cache.evictions",
    "query.features.text",
    "query.features.titles",
    "query.features.expansions",
    "trace.traced_p50_ms",
    "trace.untraced_p50_ms",
];

#[test]
fn sqe_c_warm() {
    let names = ["error_rate", "latency_p99_ms", "latency.run_p50_ms"];
    check("sqe_c_warm", false, &names);
    let mut names = TRACED_COMMON.to_vec();
    names.push("combine.stitch_us.p50");
    check("sqe_c_warm", true, &names);
}

#[test]
fn sqe_c_sharded_longtail() {
    let names = ["error_rate", "latency_p99_ms", "throughput.run_qps"];
    check("sqe_c_sharded_longtail", false, &names);
    let mut names = TRACED_COMMON.to_vec();
    names.extend([
        "combine.stitch_us.p50",
        "shard.resolve_ms.p50",
        "shard.gather_us.p50",
        "shard.score_ms.p50",
        "shard.score_slowest_ms.p50",
        "shard.merge_ms.p50",
        "shard.hits_merged",
        "expand.build_ms.ts.p99",
    ]);
    check("sqe_c_sharded_longtail", true, &names);
}

#[test]
fn open_loop_ladder() {
    let names = [
        "error_rate",
        "latency.due_p50_ms",
        "open_p99_ms.low",
        "full_answer_share.over",
        "goodput_qps.over",
        "sustainable_qps",
    ];
    check("open_loop_ladder", false, &names);
    let mut traced = TRACED_COMMON.to_vec();
    traced.extend([
        "entitylink.link_ms.p50",
        "entitylink.entities_per_query",
        "admission.queue_wait_ms.p50",
        "admission.queue_wait_ms.p99",
        "admission.shed_rate.budget_exhausted",
        "admission.shed_rate.rate_limited",
        "admission.shed_rate.queue_delay",
        "ladder.rung_share.0",
        "ladder.rung_share.1",
        "ladder.rung_share.2",
        "ladder.estimate_ratio",
        "gen.lag_ms.p99",
    ]);
    check("open_loop_ladder", true, &traced);
}

#[test]
fn ingest_restart() {
    let names = [
        "error_rate",
        "ingest_docs_per_s",
        "seal_p50_ms",
        "restart_ms",
    ];
    check("ingest_restart", false, &names);
    let mut names = TRACED_COMMON.to_vec();
    names.extend([
        "ingest.add_us.p50",
        "ingest.add_us.p99",
        "ingest.seal_ms.p50",
        "ingest.merges",
        "ingest.invalidations",
        "ingest.segments_per_query",
        "ingest.read_p99_during_seal_ms",
        "store.encode_ms",
        "store.decode_ms",
        "store.bytes",
    ]);
    check("ingest_restart", true, &names);
}
