//! Wall-clock benchmark harness with machine-readable JSON reports.
//!
//! This harness is the *measured* perf surface of the repo: each suite
//! produces a [`BenchReport`] — schema `samr-bench/1` — that `samr bench` writes to
//! `BENCH_<suite>.json` at the repo root, and `samr bench --check`
//! compares a fresh run against a checked-in baseline, failing on
//! regressions beyond a tolerance. Timing is plain wall clock: a
//! calibration pass sizes the iteration count to a fixed measurement
//! budget, a warmup run precedes it, and `std::hint::black_box` keeps
//! the optimizer from deleting the measured work.

use serde::{Deserialize, Serialize};
use std::time::Instant;

/// The report schema identifier; bump when the JSON shape changes.
pub const SCHEMA: &str = "samr-bench/1";

/// One benchmark measurement.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BenchRecord {
    /// Benchmark name, unique within its suite.
    pub name: String,
    /// Timed iterations (after warmup).
    pub iters: u64,
    /// Mean wall-clock nanoseconds per iteration.
    pub ns_per_op: f64,
    /// Units of work per second (`None` when the bench has no natural
    /// element count).
    pub throughput: Option<f64>,
    /// What `throughput` counts (e.g. `"keys/s"`, `"cells/s"`).
    pub throughput_units: Option<String>,
}

/// A whole suite's measurements plus provenance.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct BenchReport {
    /// Always [`SCHEMA`].
    pub schema: String,
    /// Suite name (`kernels`, `partition`, `campaign`).
    pub suite: String,
    /// The measurement budget the suite ran under ([`BenchBudget::name`]:
    /// `full`, `quick` or `custom`). Numbers from different budgets are
    /// not comparable — `--check` refuses a budget mismatch unless
    /// explicitly overridden.
    pub budget: String,
    /// `git describe --always --dirty` of the measured tree, or
    /// `"unknown"` outside a git checkout.
    pub git_describe: String,
    /// Rayon pool width during the run.
    pub threads: usize,
    /// The measurements, in suite order.
    pub benches: Vec<BenchRecord>,
}

// Hand-written (the derive errors on missing fields): baselines pinned
// before the budget was recorded deserialize as `full` — exactly what
// they were, since only full-budget numbers were ever checked in.
impl serde::Deserialize for BenchReport {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Self {
            schema: serde::field(v, "schema")?,
            suite: serde::field(v, "suite")?,
            budget: match v.get("budget") {
                Some(b) => serde::Deserialize::deserialize(b)
                    .map_err(|e| serde::Error(format!("field `budget`: {e}")))?,
                None => "full".to_string(),
            },
            git_describe: serde::field(v, "git_describe")?,
            threads: serde::field(v, "threads")?,
            benches: serde::field(v, "benches")?,
        })
    }
}

impl BenchReport {
    /// An empty report for `suite` under `budget`, stamped with the
    /// current provenance.
    pub fn new(suite: &str, budget: BenchBudget) -> Self {
        Self {
            schema: SCHEMA.to_string(),
            suite: suite.to_string(),
            budget: budget.name().to_string(),
            git_describe: git_describe(),
            threads: rayon::current_num_threads(),
            benches: Vec::new(),
        }
    }

    /// Look up a measurement by name.
    pub fn get(&self, name: &str) -> Option<&BenchRecord> {
        self.benches.iter().find(|b| b.name == name)
    }
}

/// `git describe --always --dirty`, or `"unknown"` when git or the
/// repository is unavailable (reports must never fail on provenance).
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Measurement budget: how long the timed loop should run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BenchBudget {
    /// Target wall-clock nanoseconds for the timed loop.
    pub target_ns: u64,
    /// Iteration-count ceiling (cheap kernels would otherwise spin for
    /// millions of iterations without improving the estimate).
    pub max_iters: u64,
}

impl BenchBudget {
    /// The default budget: ~200 ms per bench.
    pub fn default_budget() -> Self {
        Self {
            target_ns: 200_000_000,
            max_iters: 1_000_000,
        }
    }

    /// The `--quick` budget: ~20 ms per bench — CI smoke, not numbers
    /// worth pinning.
    pub fn quick() -> Self {
        Self {
            target_ns: 20_000_000,
            max_iters: 100_000,
        }
    }

    /// The budget's report name: `full` and `quick` for the two
    /// standard budgets, `custom` for anything else. Reports record
    /// this so a check can refuse to compare numbers measured under
    /// different budgets.
    pub fn name(&self) -> &'static str {
        if *self == Self::default_budget() {
            "full"
        } else if *self == Self::quick() {
            "quick"
        } else {
            "custom"
        }
    }
}

/// The optimized-over-baseline speedup `base / current`, or `None` when
/// either timing is non-positive or non-finite — a degenerate
/// measurement must not print as a `inf x` or `NaN x` speedup.
pub fn speedup(base: &BenchRecord, current: &BenchRecord) -> Option<f64> {
    let (b, c) = (base.ns_per_op, current.ns_per_op);
    (b.is_finite() && c.is_finite() && b > 0.0 && c > 0.0).then(|| b / c)
}

/// Time `f` under `budget` and record it as `name`.
///
/// One calibration call sizes the iteration count so the timed loop
/// lands near the budget; a warmup of `iters/10 + 1` runs precedes the
/// measurement. `f`'s return value is fed through
/// [`std::hint::black_box`] so computing it cannot be optimized away —
/// return the kernel's result (an accumulator, a length), not `()`.
/// `elements` is the work per iteration for throughput accounting,
/// e.g. `Some((65536.0, "keys/s"))`.
pub fn bench_fn<R>(
    name: &str,
    budget: BenchBudget,
    elements: Option<(f64, &str)>,
    mut f: impl FnMut() -> R,
) -> BenchRecord {
    // Calibrate: one run, floor the estimate at 1ns to bound the count.
    let t0 = Instant::now();
    std::hint::black_box(f());
    let once_ns = (t0.elapsed().as_nanos() as u64).max(1);
    let iters = (budget.target_ns / once_ns).clamp(1, budget.max_iters);
    for _ in 0..iters / 10 + 1 {
        std::hint::black_box(f());
    }
    let t1 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    let elapsed = t1.elapsed().as_nanos() as f64;
    let ns_per_op = elapsed / iters as f64;
    let (throughput, throughput_units) = match elements {
        Some((n, units)) => (Some(n * 1e9 / ns_per_op), Some(units.to_string())),
        None => (None, None),
    };
    BenchRecord {
        name: name.to_string(),
        iters,
        ns_per_op,
        throughput,
        throughput_units,
    }
}

/// One baseline-versus-current discrepancy found by [`compare`].
#[derive(Clone, Debug, PartialEq)]
pub enum Regression {
    /// The bench got slower than the baseline by more than the
    /// tolerance.
    Slower {
        /// Benchmark name.
        name: String,
        /// Baseline ns/op.
        baseline_ns: f64,
        /// Current ns/op.
        current_ns: f64,
        /// `current / baseline`.
        ratio: f64,
    },
    /// The baseline has a bench the current run lacks — a silently
    /// dropped measurement must fail the check too.
    Missing {
        /// Benchmark name present only in the baseline.
        name: String,
    },
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Regression::Slower {
                name,
                baseline_ns,
                current_ns,
                ratio,
            } => write!(
                f,
                "{name}: {current_ns:.0} ns/op vs baseline {baseline_ns:.0} ns/op ({ratio:.2}x)"
            ),
            Regression::Missing { name } => {
                write!(f, "{name}: present in baseline but not measured")
            }
        }
    }
}

/// Compare `current` against `baseline`: every baseline bench must be
/// present and no more than `tolerance_pct` percent slower. Returns the
/// violations (empty = check passed). Benches only in `current` are new
/// and pass by construction.
pub fn compare(
    current: &BenchReport,
    baseline: &BenchReport,
    tolerance_pct: f64,
) -> Vec<Regression> {
    let mut out = Vec::new();
    let allowed = 1.0 + tolerance_pct / 100.0;
    for base in &baseline.benches {
        match current.get(&base.name) {
            None => out.push(Regression::Missing {
                name: base.name.clone(),
            }),
            Some(cur) if cur.ns_per_op > base.ns_per_op * allowed => {
                out.push(Regression::Slower {
                    name: base.name.clone(),
                    baseline_ns: base.ns_per_op,
                    current_ns: cur.ns_per_op,
                    ratio: cur.ns_per_op / base.ns_per_op,
                });
            }
            Some(_) => {}
        }
    }
    out
}

/// Structural validation of a parsed report: the schema tag, suite
/// name, and per-record sanity (used by `--check` before comparing, so
/// a clobbered baseline file fails loudly instead of vacuously
/// passing).
pub fn validate(report: &BenchReport) -> Result<(), String> {
    if report.schema != SCHEMA {
        return Err(format!(
            "schema '{}' is not the supported '{SCHEMA}'",
            report.schema
        ));
    }
    if report.suite.is_empty() {
        return Err("empty suite name".into());
    }
    if report.budget.is_empty() {
        return Err(format!("suite '{}' has an empty budget tag", report.suite));
    }
    if report.benches.is_empty() {
        return Err(format!("suite '{}' has no benches", report.suite));
    }
    for b in &report.benches {
        if b.name.is_empty() {
            return Err(format!("suite '{}' has an unnamed bench", report.suite));
        }
        if b.iters == 0 || !b.ns_per_op.is_finite() || b.ns_per_op <= 0.0 {
            return Err(format!("bench '{}' has degenerate timing", b.name));
        }
        if b.throughput.is_some() != b.throughput_units.is_some() {
            return Err(format!(
                "bench '{}' has throughput without units (or vice versa)",
                b.name
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(name: &str, ns: f64) -> BenchRecord {
        BenchRecord {
            name: name.into(),
            iters: 100,
            ns_per_op: ns,
            throughput: None,
            throughput_units: None,
        }
    }

    fn report(benches: Vec<BenchRecord>) -> BenchReport {
        BenchReport {
            schema: SCHEMA.into(),
            suite: "kernels".into(),
            budget: "full".into(),
            git_describe: "test".into(),
            threads: 1,
            benches,
        }
    }

    #[test]
    fn bench_fn_measures_and_reports_throughput() {
        let r = bench_fn(
            "sum_1k",
            BenchBudget::quick(),
            Some((1000.0, "adds/s")),
            || (0..1000u64).sum::<u64>(),
        );
        assert_eq!(r.name, "sum_1k");
        assert!(r.iters >= 1);
        assert!(r.ns_per_op > 0.0);
        assert!(r.throughput.unwrap() > 0.0);
        assert_eq!(r.throughput_units.as_deref(), Some("adds/s"));
    }

    #[test]
    fn report_roundtrips_through_json() {
        let mut rep = report(vec![record("a", 10.0)]);
        rep.benches[0].throughput = Some(1e9);
        rep.benches[0].throughput_units = Some("keys/s".into());
        let json = serde_json::to_string_pretty(&rep).unwrap();
        let back: BenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rep);
        assert!(validate(&back).is_ok());
    }

    #[test]
    fn compare_flags_slowdowns_and_missing_benches() {
        let base = report(vec![
            record("a", 100.0),
            record("b", 100.0),
            record("c", 100.0),
        ]);
        let cur = report(vec![record("a", 105.0), record("b", 200.0)]);
        let regs = compare(&cur, &base, 10.0);
        assert_eq!(regs.len(), 2);
        assert!(matches!(&regs[0], Regression::Slower { name, ratio, .. }
            if name == "b" && (*ratio - 2.0).abs() < 1e-9));
        assert!(matches!(&regs[1], Regression::Missing { name } if name == "c"));
        // Within tolerance, and benches new in `cur`, pass.
        let cur2 = report(vec![
            record("a", 109.0),
            record("b", 100.0),
            record("c", 90.0),
            record("d", 1.0),
        ]);
        assert!(compare(&cur2, &base, 10.0).is_empty());
    }

    #[test]
    fn budget_names_tag_reports_and_default_on_legacy_baselines() {
        assert_eq!(BenchBudget::default_budget().name(), "full");
        assert_eq!(BenchBudget::quick().name(), "quick");
        let odd = BenchBudget {
            target_ns: 1,
            max_iters: 1,
        };
        assert_eq!(odd.name(), "custom");
        assert_eq!(
            BenchReport::new("kernels", BenchBudget::quick()).budget,
            "quick"
        );
        // A baseline pinned before the budget field existed parses as
        // full budget — which is what every checked-in baseline was.
        let legacy = format!(
            "{{\"schema\": \"{SCHEMA}\", \"suite\": \"kernels\", \
             \"git_describe\": \"test\", \"threads\": 1, \"benches\": []}}"
        );
        let back: BenchReport = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.budget, "full");
        // And a recorded budget roundtrips.
        let mut rep = report(vec![record("a", 10.0)]);
        rep.budget = "quick".into();
        let json = serde_json::to_string(&rep).unwrap();
        let back: BenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rep);
    }

    #[test]
    fn speedup_guards_degenerate_timings() {
        let base = record("a", 100.0);
        let fast = record("a", 25.0);
        assert_eq!(speedup(&base, &fast), Some(4.0));
        let zero = record("a", 0.0);
        assert_eq!(speedup(&base, &zero), None);
        assert_eq!(speedup(&zero, &fast), None);
        let nan = record("a", f64::NAN);
        assert_eq!(speedup(&base, &nan), None);
        assert_eq!(speedup(&nan, &base), None);
    }

    #[test]
    fn validate_rejects_malformed_reports() {
        assert!(validate(&report(vec![record("a", 1.0)])).is_ok());
        let mut bad = report(vec![record("a", 1.0)]);
        bad.schema = "other/9".into();
        assert!(validate(&bad).is_err());
        let mut no_budget = report(vec![record("a", 1.0)]);
        no_budget.budget = String::new();
        assert!(validate(&no_budget).is_err());
        assert!(validate(&report(vec![])).is_err());
        let mut nan = report(vec![record("a", f64::NAN)]);
        nan.benches[0].ns_per_op = f64::NAN;
        assert!(validate(&nan).is_err());
        let mut units = report(vec![record("a", 1.0)]);
        units.benches[0].throughput = Some(1.0);
        assert!(validate(&units).is_err());
    }
}
