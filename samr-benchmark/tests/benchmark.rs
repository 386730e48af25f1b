//! Smoke-scale end-to-end run of the benchmark binary: the declared
//! metrics, the output checks, the traced replay and the digest pins.

use serde::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_samr-benchmark");

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let bytes = std::fs::read(&path).expect("BENCHMARK.json at the repository root");
    serde_json::value_from_slice(&bytes).expect("BENCHMARK.json parses")
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Seq(items)) => items,
        other => panic!("`{key}` is not a list: {other:?}"),
    }
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("`{key}` is not a string: {other:?}"),
    }
}

fn number(v: &Value) -> f64 {
    match *v {
        Value::F64(x) => x,
        Value::U64(n) => n as f64,
        Value::I64(n) => n as f64,
        ref other => panic!("not a number: {other:?}"),
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// `(workload, per_layer?, name, unit)` for every declared metric.
fn declared(spec: &Value) -> Vec<(bool, String, String)> {
    let mut out = Vec::new();
    for (key, per_layer) in [("end_to_end", false), ("per_layer", true)] {
        for m in list(spec, key) {
            out.push((per_layer, text(m, "name").into(), text(m, "unit").into()));
        }
    }
    out
}

#[test]
fn benchmark_json_declares_valid_names_and_bounds() {
    let spec = benchmark_json();
    let workloads = list(&spec, "workloads");
    let e2e = list(&spec, "end_to_end");
    let layers = list(&spec, "per_layer");
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&e2e.len()));
    assert!((1..=128).contains(&layers.len()));
    let mut names: Vec<&str> = Vec::new();
    for w in workloads {
        names.push(text(w, "name"));
        assert!(text(w, "why").len() <= 200);
    }
    for m in e2e.iter().chain(layers) {
        names.push(text(m, "name"));
        assert!(["lower", "higher"].contains(&text(m, "better")));
    }
    for m in e2e {
        let bound = number(m.get("bound").expect("end-to-end metrics carry a bound"));
        assert!(bound > 0.0, "{}: bound {bound}", text(m, "name"));
    }
    assert!(
        e2e.iter().any(|m| text(m, "name") == "setup_s"),
        "setup_s is declared"
    );
    for n in &names {
        assert!(is_name(n), "bad name {n:?}");
    }
    let mut unique = names.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "names are used once");
}

/// Parent before child, children inside their parent, siblings
/// disjoint.
fn assert_span_tree(trace: &Value) {
    let spans = list(trace, "spans");
    assert!(!spans.is_empty());
    let field = |s: &Value, k: &str| s.get(k).filter(|v| **v != Value::Null).map(number);
    let mut sibling_end: Vec<f64> = vec![0.0; spans.len()];
    let mut root_end = 0.0;
    for (i, s) in spans.iter().enumerate() {
        let (start, end) = (field(s, "start_ns").unwrap(), field(s, "end_ns").unwrap());
        assert!(end >= start, "span {i} ends before it starts");
        let last = match field(s, "parent") {
            None => &mut root_end,
            Some(p) => {
                let p = p as usize;
                assert!(p < i, "span {i} has a later parent");
                let parent = &spans[p];
                assert!(field(parent, "start_ns").unwrap() <= start);
                assert!(field(parent, "end_ns").unwrap() >= end);
                &mut sibling_end[p]
            }
        };
        assert!(start >= *last, "span {i} overlaps a sibling");
        *last = end;
    }
}

#[test]
fn smoke_run_reports_every_declared_metric_and_a_clean_trace() {
    let spec = benchmark_json();
    let dir = scratch("smoke");
    let report_path = dir.join("benchmark.json");
    let out = Command::new(BIN)
        .args([
            "run", "--scale", "smoke", "--reps", "2", "--trace", "1", "--out",
        ])
        .arg(&report_path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "smoke run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = serde_json::value_from_slice(&std::fs::read(&report_path).unwrap()).unwrap();
    let provenance = report.get("provenance").unwrap();
    for key in ["git_describe", "cpu_model", "batch_isa", "rustc"] {
        assert!(!text(provenance, key).is_empty());
    }
    for key in ["cpus_online", "available_parallelism", "threads", "seed"] {
        assert!(number(provenance.get(key).unwrap()) >= 1.0, "{key}");
    }
    for w in list(&spec, "workloads") {
        let name = text(w, "name");
        let entry = report.get("workloads").unwrap().get(name).unwrap();
        assert_eq!(number(entry.get("fail_rate").unwrap()), 0.0, "{name}");
        for (per_layer, metric, unit) in declared(&spec) {
            let section = if per_layer { "per_layer" } else { "end_to_end" };
            let m = entry
                .get(section)
                .and_then(|s| s.get(&metric))
                .unwrap_or_else(|| panic!("{name}: {metric} missing"));
            assert_eq!(text(m, "unit"), unit, "{name}: {metric}");
            assert!(number(m.get("median").unwrap()).is_finite());
        }
        let layer = |k: &str| {
            number(
                entry
                    .get("per_layer")
                    .unwrap()
                    .get(k)
                    .unwrap()
                    .get("median")
                    .unwrap(),
            )
        };
        assert!(
            layer("unattributed_s") <= 0.05 * layer("traced_wall_s"),
            "{name}: too much unattributed time"
        );
        let trace_file = dir.join(format!("trace-{name}.json"));
        let trace = serde_json::value_from_slice(&std::fs::read(&trace_file).unwrap()).unwrap();
        assert_span_tree(&trace);
    }
    // A report compared with itself has no regression.
    let compare = Command::new(BIN)
        .arg("compare")
        .args([&report_path, &report_path])
        .output()
        .unwrap();
    assert!(compare.status.success());
}

#[test]
fn a_tampered_digest_fails_every_repetition() {
    let dir = scratch("tampered");
    let digests = dir.join("digests.json");
    std::fs::write(
        &digests,
        r#"{"workloads": {"paper@smoke": {"2004":
            {"campaign.csv": "0000000000000000", "campaign.pareto.json": "0000000000000000"}}}}"#,
    )
    .unwrap();
    let out = Command::new(BIN)
        .args([
            "run",
            "--workload",
            "paper",
            "--scale",
            "smoke",
            "--reps",
            "2",
            "--seed",
            "2004",
        ])
        .arg("--digests")
        .arg(&digests)
        .arg("--out")
        .arg(dir.join("benchmark.json"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap();
    let result = serde_json::value_from_slice(last.as_bytes()).unwrap();
    assert_eq!(result.get("correct"), Some(&Value::Bool(false)));
    assert_eq!(number(result.get("failed").unwrap()), 2.0);
    assert_eq!(number(result.get("attempted").unwrap()), 2.0);
    let report =
        serde_json::value_from_slice(&std::fs::read(dir.join("benchmark.json")).unwrap()).unwrap();
    let paper = report.get("workloads").unwrap().get("paper").unwrap();
    assert_eq!(number(paper.get("fail_rate").unwrap()), 1.0);
}
