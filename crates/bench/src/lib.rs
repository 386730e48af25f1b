//! # samr-bench — benchmark harness support
//!
//! The JSON harness ([`harness`] + [`suites`], driven by `samr bench`):
//! fixed wall-clock suites that emit machine-readable
//! `BENCH_<suite>.json` reports and support baseline regression checks.
//! The crate body hosts the cached benchmark traces the suites (and the
//! `ablations` example) share.

#![warn(missing_docs)]

pub mod harness;
pub mod suites;

use samr_apps::{AppKind, TraceGenConfig};
use samr_engine::cached_trace;
use samr_grid::GridHierarchy;
use samr_trace::HierarchyTrace;
use std::sync::Arc;

/// The benchmark trace configuration: the reduced experiment config (the
/// full paper config is run by the examples; benches favour wall-clock).
pub fn bench_config() -> TraceGenConfig {
    samr_engine::configs::reduced()
}

/// Cached 2-D trace for benchmarking (the paper's kernels). The 2-D view
/// is extracted from the engine store once per application and then
/// shared — bench setup must not clone whole traces per invocation.
pub fn bench_trace(kind: AppKind) -> Arc<HierarchyTrace<2>> {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    static CACHE: OnceLock<Mutex<HashMap<&'static str, Arc<HierarchyTrace<2>>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(t) = cache.lock().unwrap().get(kind.name()) {
        return Arc::clone(t);
    }
    let trace = cached_trace(kind, &bench_config());
    let t2 = Arc::new(
        trace
            .as_2d()
            .expect("bench kernels are the paper's 2-D applications")
            .clone(),
    );
    Arc::clone(cache.lock().unwrap().entry(kind.name()).or_insert(t2))
}

/// A representative mid-run hierarchy (deep, many patches) of an
/// application — the unit input for partitioner and model benches.
pub fn representative_hierarchy(kind: AppKind) -> GridHierarchy<2> {
    let trace = bench_trace(kind);
    // Pick the snapshot with the most patches: the hardest instance.
    trace
        .snapshots
        .iter()
        .max_by_key(|s| {
            s.hierarchy
                .levels
                .iter()
                .map(|l| l.patch_count())
                .sum::<usize>()
        })
        .expect("non-empty trace")
        .hierarchy
        .clone()
}
