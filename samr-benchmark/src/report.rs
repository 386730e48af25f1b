//! Statistics, the `BENCHMARK.json` metric definitions, the report
//! written by `run`, and the verdicts of `compare`.

use serde::Value;
use std::path::{Path, PathBuf};

/// Summary statistics of one metric's samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Stats {
    /// Median.
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Every sample, in measurement order.
    pub values: Vec<f64>,
}

impl Stats {
    /// Statistics of a non-empty sample.
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "statistics of an empty sample");
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        let (q1, q3) = quartiles(&sorted);
        Self {
            median,
            min: sorted[0],
            max: sorted[n - 1],
            q1,
            q3,
            values: values.to_vec(),
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs().max(f64::MIN_POSITIVE)
    }
}

/// First and third quartiles of sorted data, by the method of Python's
/// `statistics.quantiles(data, n=4)` (the default "exclusive" method).
fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let ld = sorted.len();
    if ld == 1 {
        return (sorted[0], sorted[0]);
    }
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (sorted[j - 1] * (n as f64 - delta) + sorted[j] * delta) / n as f64
    };
    (cut(1), cut(3))
}

/// One metric declared in `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Tolerated worsening as a share of the baseline median
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The workloads and metrics `BENCHMARK.json` declares.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchSpec {
    /// Seconds one run measures each workload for.
    pub run_seconds: f64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<MetricDef>,
    /// Per-layer metrics.
    pub per_layer: Vec<MetricDef>,
}

/// `BENCHMARK.json` at the root of the checkout this benchmark lives in.
pub fn default_spec_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .join("BENCHMARK.json")
}

fn str_field(v: &Value, key: &str) -> Result<String, String> {
    match v.get(key) {
        Some(Value::Str(s)) => Ok(s.clone()),
        _ => Err(format!("missing string field `{key}`")),
    }
}

/// A JSON number as `f64`.
pub fn num(v: &Value) -> Option<f64> {
    match *v {
        Value::F64(x) => Some(x),
        Value::U64(n) => Some(n as f64),
        Value::I64(n) => Some(n as f64),
        _ => None,
    }
}

fn seq<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    match v.get(key) {
        Some(Value::Seq(items)) => Ok(items),
        _ => Err(format!("missing list field `{key}`")),
    }
}

impl BenchSpec {
    /// Parse `BENCHMARK.json` text.
    pub fn parse(text: &str) -> Result<Self, String> {
        let v = serde_json::value_from_slice(text.as_bytes()).map_err(|e| e.to_string())?;
        let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
            seq(&v, key)?
                .iter()
                .map(|m| {
                    Ok(MetricDef {
                        name: str_field(m, "name")?,
                        unit: str_field(m, "unit")?,
                        better: str_field(m, "better")?,
                        bound: m.get("bound").and_then(num),
                    })
                })
                .collect()
        };
        Ok(Self {
            run_seconds: v
                .get("run_seconds")
                .and_then(num)
                .ok_or("missing number field `run_seconds`")?,
            workloads: seq(&v, "workloads")?
                .iter()
                .map(|w| str_field(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// Read and parse a `BENCHMARK.json` file.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// A metric value with its unit, as measured in one run.
#[derive(Clone, Debug)]
pub struct Measured {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Samples (one per repetition; one value for per-layer metrics).
    pub stats: Stats,
}

/// Everything one workload's run produced.
#[derive(Clone, Debug, Default)]
pub struct WorkloadReport {
    /// Workload name.
    pub name: String,
    /// The campaign seeds of every repetition.
    pub seeds: Vec<u64>,
    /// Repetitions and traced-run children started.
    pub attempted: usize,
    /// Of those, the ones that failed a check.
    pub failed: usize,
    /// Why each failure failed.
    pub failures: Vec<String>,
    /// End-to-end metrics over the timed repetitions.
    pub end_to_end: Vec<Measured>,
    /// Per-layer metrics from the traced run.
    pub per_layer: Vec<Measured>,
    /// Each layer's share of the traced wall time.
    pub layer_share: Vec<(String, f64)>,
    /// Per campaign seed, the (`campaign.csv`, `campaign.pareto.json`)
    /// digests every repetition agreed on.
    pub digests: Vec<(u64, (String, String))>,
}

impl WorkloadReport {
    /// Failed repetitions over attempted repetitions.
    pub fn fail_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

fn stats_value(m: &Measured) -> Value {
    let s = &m.stats;
    Value::Map(vec![
        ("unit".into(), Value::Str(m.unit.clone())),
        ("median".into(), Value::F64(s.median)),
        ("min".into(), Value::F64(s.min)),
        ("max".into(), Value::F64(s.max)),
        ("q1".into(), Value::F64(s.q1)),
        ("q3".into(), Value::F64(s.q3)),
        ("n".into(), Value::U64(s.values.len() as u64)),
        (
            "values".into(),
            Value::Seq(s.values.iter().map(|&x| Value::F64(x)).collect()),
        ),
    ])
}

/// The report `run` writes: provenance plus one entry per workload.
pub fn report_value(provenance: Value, workloads: &[WorkloadReport]) -> Value {
    let metrics = |ms: &[Measured]| {
        Value::Map(
            ms.iter()
                .map(|m| (m.name.clone(), stats_value(m)))
                .collect(),
        )
    };
    let entries = workloads
        .iter()
        .map(|w| {
            let mut entry = vec![
                (
                    "seeds".into(),
                    Value::Seq(w.seeds.iter().map(|&s| Value::U64(s)).collect()),
                ),
                ("attempted".into(), Value::U64(w.attempted as u64)),
                ("failed".into(), Value::U64(w.failed as u64)),
                ("fail_rate".into(), Value::F64(w.fail_rate())),
                (
                    "failures".into(),
                    Value::Seq(w.failures.iter().map(|f| Value::Str(f.clone())).collect()),
                ),
                ("end_to_end".into(), metrics(&w.end_to_end)),
                ("per_layer".into(), metrics(&w.per_layer)),
                (
                    "layer_share".into(),
                    Value::Map(
                        w.layer_share
                            .iter()
                            .map(|(l, s)| (l.clone(), Value::F64(*s)))
                            .collect(),
                    ),
                ),
            ];
            let digests = w
                .digests
                .iter()
                .map(|(seed, (csv, pareto))| {
                    (
                        seed.to_string(),
                        Value::Map(vec![
                            ("campaign.csv".into(), Value::Str(csv.clone())),
                            ("campaign.pareto.json".into(), Value::Str(pareto.clone())),
                        ]),
                    )
                })
                .collect();
            entry.push(("digests".into(), Value::Map(digests)));
            (w.name.clone(), Value::Map(entry))
        })
        .collect();
    Value::Map(vec![
        ("schema".into(), Value::Str("samr-benchmark/1".into())),
        ("provenance".into(), provenance),
        ("workloads".into(), Value::Map(entries)),
    ])
}

/// Serialize a JSON value.
pub struct Json<'a>(pub &'a Value);

impl serde::Serialize for Json<'_> {
    fn serialize(&self) -> Value {
        self.0.clone()
    }
}

/// A `compare` verdict for one (workload, metric) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Better than the baseline by more than the bound.
    Improved,
    /// Within the bound of the baseline.
    Unchanged,
    /// Worse than the baseline by more than the bound.
    Regressed,
    /// A run-to-run spread wider than the bound hides any change.
    Unresolved,
}

/// Judge a change against a baseline for a metric whose
/// worsening is tolerated up to `bound` (a share of the baseline
/// median). When either side's spread exceeds the bound the pair is
/// unresolved, unless every change sample beats every base sample.
pub fn verdict(base: &Stats, change: &Stats, lower_is_better: bool, bound: f64) -> Verdict {
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    // Positive = worse.
    let worse_by = sign * (change.median - base.median) / base.median.abs().max(f64::MIN_POSITIVE);
    if base.spread() > bound || change.spread() > bound {
        let (base_best, change_worst) = if lower_is_better {
            (base.min, change.max)
        } else {
            (base.max, change.min)
        };
        return if sign * (change_worst - base_best) < 0.0 {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// One row of a comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// Baseline median.
    pub base: f64,
    /// Change median.
    pub change: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compare two reports metric by metric over the workloads both hold.
/// Returns the rows and whether the change fails (a regression, or a
/// higher fail rate on any workload). Reports of different scales or
/// run lengths do not compare.
pub fn compare(spec: &BenchSpec, base: &Value, change: &Value) -> Result<(Vec<Row>, bool), String> {
    for key in ["scale", "seconds"] {
        let of = |r: &Value| r.get("provenance").and_then(|p| p.get(key)).cloned();
        if of(base) != of(change) {
            return Err(format!("the reports were run with different `{key}`"));
        }
    }
    let workloads = |r: &Value| -> Result<Vec<(String, Value)>, String> {
        match r.get("workloads") {
            Some(Value::Map(w)) => Ok(w.clone()),
            _ => Err("report has no `workloads`".into()),
        }
    };
    let samples = |w: &Value, metric: &str| -> Option<Stats> {
        let values: Vec<f64> = match w.get("end_to_end")?.get(metric)?.get("values")? {
            Value::Seq(v) => v.iter().filter_map(num).collect(),
            _ => return None,
        };
        (!values.is_empty()).then(|| Stats::of(&values))
    };
    let fail_rate = |w: &Value| w.get("fail_rate").and_then(num).unwrap_or(1.0);
    let change_workloads = workloads(change)?;
    let mut rows = Vec::new();
    let mut failing = false;
    for (name, b) in workloads(base)? {
        let Some((_, c)) = change_workloads.iter().find(|(n, _)| *n == name) else {
            continue;
        };
        if fail_rate(c) > fail_rate(&b) {
            failing = true;
        }
        for def in &spec.end_to_end {
            let (Some(bs), Some(cs)) = (samples(&b, &def.name), samples(c, &def.name)) else {
                return Err(format!("{name}: `{}` missing from a report", def.name));
            };
            let v = verdict(&bs, &cs, def.better == "lower", def.bound.unwrap_or(0.0));
            failing |= v == Verdict::Regressed;
            rows.push(Row {
                workload: name.clone(),
                metric: def.name.clone(),
                base: bs.median,
                change: cs.median,
                verdict: v,
            });
        }
    }
    Ok((rows, failing))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s = Stats::of(&(1..=10).map(f64::from).collect::<Vec<_>>());
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Stats::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        assert_eq!(s.values, vec![3.0, 1.0, 2.0]);
        assert_eq!(Stats::of(&[4.0]).spread(), 0.0);
    }

    fn stats(v: &[f64]) -> Stats {
        Stats::of(v)
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = stats(&[10.0, 10.1, 9.9, 10.0, 10.05]);
        let same = stats(&[10.02, 9.95, 10.1, 10.0, 9.98]);
        let slower = stats(&[11.5, 11.6, 11.4, 11.5, 11.55]);
        let faster = stats(&[8.5, 8.6, 8.4, 8.5, 8.55]);
        assert_eq!(verdict(&base, &same, true, 0.1), Verdict::Unchanged);
        assert_eq!(verdict(&base, &slower, true, 0.1), Verdict::Regressed);
        assert_eq!(verdict(&base, &faster, true, 0.1), Verdict::Improved);
        // Higher-is-better flips the direction.
        assert_eq!(verdict(&base, &slower, false, 0.1), Verdict::Improved);
        // A spread wider than the bound is unresolved unless every change
        // sample beats every base sample; a noisy slowdown is never a
        // verdict of its own.
        let noisy = stats(&[8.0, 12.0, 10.0, 9.0, 11.0]);
        assert_eq!(verdict(&base, &noisy, true, 0.1), Verdict::Unresolved);
        let noisy_but_slower = stats(&[12.0, 16.0, 14.0, 13.0, 15.0]);
        assert_eq!(
            verdict(&base, &noisy_but_slower, true, 0.1),
            Verdict::Unresolved
        );
        let noisy_but_faster = stats(&[5.0, 9.0, 7.0, 6.0, 8.0]);
        assert_eq!(
            verdict(&base, &noisy_but_faster, true, 0.1),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&base, &noisy_but_slower, false, 0.1),
            Verdict::Improved
        );
    }

    fn report(workload: &str, campaign: &[f64], fail_rate: f64) -> Value {
        let m = Measured {
            name: "campaign_s".into(),
            unit: "s".into(),
            stats: Stats::of(campaign),
        };
        let w = WorkloadReport {
            name: workload.into(),
            attempted: 10,
            failed: (fail_rate * 10.0) as usize,
            end_to_end: vec![m],
            ..WorkloadReport::default()
        };
        report_value(Value::Null, &[w])
    }

    fn spec() -> BenchSpec {
        BenchSpec::parse(
            r#"{"command": [], "paths": [], "run_seconds": 1,
                "workloads": [{"name": "paper", "why": "w"}],
                "end_to_end": [{"name": "campaign_s", "unit": "s", "better": "lower", "bound": 0.1}],
                "per_layer": [{"name": "partition.s", "unit": "s", "better": "lower"}]}"#,
        )
        .unwrap()
    }

    #[test]
    fn compare_reports_each_pair_and_fails_on_regressions() {
        let spec = spec();
        assert_eq!(spec.end_to_end[0].bound, Some(0.1));
        assert_eq!(spec.per_layer[0].bound, None);
        let base = report("paper", &[10.0, 10.1, 9.9], 0.0);
        // A report round-trips through its JSON text.
        let text = serde_json::to_string(&Json(&base)).unwrap();
        let base = serde_json::value_from_slice(text.as_bytes()).unwrap();
        let (rows, failing) =
            compare(&spec, &base, &report("paper", &[10.0, 10.2, 9.8], 0.0)).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].verdict, Verdict::Unchanged);
        assert!(!failing);
        let (rows, failing) =
            compare(&spec, &base, &report("paper", &[12.0, 12.1, 11.9], 0.0)).unwrap();
        assert_eq!(rows[0].verdict, Verdict::Regressed);
        assert!(failing);
        // An unchanged time with more failures still fails.
        let (_, failing) =
            compare(&spec, &base, &report("paper", &[10.0, 10.1, 9.9], 0.1)).unwrap();
        assert!(failing);
        // Workloads only one side holds are skipped.
        let (rows, _) = compare(&spec, &base, &report("sweep", &[1.0], 0.0)).unwrap();
        assert!(rows.is_empty());
        // Runs of different lengths do not compare.
        let w = WorkloadReport::default();
        let longer = report_value(Value::Map(vec![("seconds".into(), Value::F64(50.0))]), &[w]);
        assert!(compare(&spec, &base, &longer).is_err());
    }
}
