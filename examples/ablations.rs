//! The design-choice ablations DESIGN.md §6 calls out, one line each, on
//! the reduced-config traces:
//!
//! - **ABL1** — β_m denominator `|H_t|` vs `|H_{t-1}|` (§4.4): correlation
//!   against measured migration under each choice;
//! - **ABL2** — the §4.2 absolute-importance grid-size weighting of
//!   Trade-off 2 on/off: how much the request signal tracks grid-size
//!   peaks;
//! - **ablation_sfc** — fully vs partially ordered SFC in the hybrid: the
//!   migration inflation the paper suspects ("perhaps due to the
//!   partially ordered space-filling curve", §5.2);
//! - **ablation_cluster_eff** — Berger–Rigoutsos efficiency threshold:
//!   patch count and β_c aggressiveness.
//!
//! `cargo run --release --example ablations`

use samr::apps::{generate_trace, AppKind};
use samr::engine::{cached_trace, configs};
use samr::grid::ClusterOptions;
use samr::model::model::{BetaMDenominatorConfig, ModelConfig};
use samr::model::ModelPipeline;
use samr::partition::{HybridParams, HybridPartitioner, Partitioner};
use samr::sim::metrics::pearson;
use samr::sim::{default_window, simulate_policy_source_stats, SimConfig, SimResult, StaticPolicy};
use samr::trace::{HierarchyTrace, MemorySource};

/// Simulate a trace under one partitioner on the default machine.
fn simulate(trace: &HierarchyTrace<2>, p: &(dyn Partitioner<2> + Sync)) -> SimResult {
    let source = &mut MemorySource::new(trace);
    let cfg = SimConfig::default();
    simulate_policy_source_stats(source, &mut StaticPolicy::new(p), &cfg, default_window())
        .expect("generated traces are never empty")
        .0
}

/// ABL1: the β_m denominator.
fn bm_denominator() {
    let trace = cached_trace(AppKind::Sc2d, &configs::reduced());
    let trace = trace.as_2d().expect("SC2D is 2-D");
    let sim = simulate(trace, &HybridPartitioner::default());
    let measured: Vec<f64> = sim.steps.iter().skip(1).map(|s| s.rel_migration).collect();
    let paper = ModelPipeline::new().run(trace);
    let ablated = ModelPipeline::with_config(ModelConfig {
        denominator: BetaMDenominatorConfig::Previous,
        ..ModelConfig::default()
    })
    .run(trace);
    let bm_cur: Vec<f64> = paper.iter().skip(1).map(|s| s.beta_m).collect();
    let bm_prev: Vec<f64> = ablated.iter().skip(1).map(|s| s.beta_m).collect();
    let (r_cur, r_prev) = (pearson(&bm_cur, &measured), pearson(&bm_prev, &measured));
    println!(
        "ABL1 (SC2D): β_m vs measured migration — |H_t| denominator r={r_cur:.3}, |H_t-1| denominator r={r_prev:.3}"
    );
}

/// ABL2: the absolute-importance grid-size weighting.
fn importance() {
    let trace = cached_trace(AppKind::Sc2d, &configs::reduced());
    let trace = trace.as_2d().expect("SC2D is 2-D");
    let weighted = ModelPipeline::new().run(trace);
    let unweighted = ModelPipeline::with_config(ModelConfig {
        weight_by_grid_size: false,
        ..ModelConfig::default()
    })
    .run(trace);
    // The weighted request must track grid size; the unweighted one must
    // not.
    let points: Vec<f64> = trace
        .snapshots
        .iter()
        .map(|s| s.hierarchy.total_points() as f64)
        .collect();
    let req_w: Vec<f64> = weighted.iter().map(|s| s.tradeoff2.request).collect();
    let req_u: Vec<f64> = unweighted.iter().map(|s| s.tradeoff2.request).collect();
    let (rw, ru) = (pearson(&req_w, &points), pearson(&req_u, &points));
    println!(
        "ABL2 (SC2D): Trade-off 2 request vs grid size — weighted r={rw:.3}, unweighted r={ru:.3}"
    );
}

/// Fully vs partially ordered SFC in the hybrid partitioner.
fn sfc_ordering() {
    let trace = cached_trace(AppKind::Bl2d, &configs::reduced());
    let trace = trace.as_2d().expect("BL2D is 2-D");
    // The hybrid's default is the partial ordering.
    let partial = simulate(trace, &HybridPartitioner::default());
    let full = simulate(
        trace,
        &HybridPartitioner::new(HybridParams {
            full_order: true,
            ..HybridParams::default()
        }),
    );
    let mig =
        |r: &SimResult| r.steps.iter().map(|s| s.rel_migration).sum::<f64>() / r.steps.len() as f64;
    let (mp, mf) = (mig(&partial), mig(&full));
    println!(
        "ablation_sfc (BL2D): mean relative migration — partial order {mp:.3}, full order {mf:.3}"
    );
}

/// Berger–Rigoutsos efficiency threshold.
fn cluster_efficiency() {
    let mut cfg_lo = configs::reduced();
    cfg_lo.cluster = ClusterOptions {
        min_efficiency: 0.5,
        ..ClusterOptions::paper_defaults()
    };
    cfg_lo.steps = 12;
    let mut cfg_hi = cfg_lo.clone();
    cfg_hi.cluster.min_efficiency = 0.9;
    let stats = |t: &HierarchyTrace<2>| {
        let patches: usize = t
            .snapshots
            .iter()
            .map(|s| {
                s.hierarchy
                    .levels
                    .iter()
                    .map(|l| l.patch_count())
                    .sum::<usize>()
            })
            .sum();
        let bc: f64 = t
            .snapshots
            .iter()
            .map(|s| samr::model::tradeoff1::beta_c(&s.hierarchy, 16))
            .sum::<f64>()
            / t.len() as f64;
        (patches, bc)
    };
    let (p_lo, bc_lo) = stats(&generate_trace(AppKind::Sc2d, &cfg_lo));
    let (p_hi, bc_hi) = stats(&generate_trace(AppKind::Sc2d, &cfg_hi));
    println!(
        "ablation_cluster_eff (SC2D, 12 steps): eff 0.5 -> {p_lo} patches, mean β_c {bc_lo:.3}; eff 0.9 -> {p_hi} patches, mean β_c {bc_hi:.3}"
    );
}

fn main() {
    bm_denominator();
    importance();
    sfc_ordering();
    cluster_efficiency();
}
