//! Cross-crate integration: the full trace → model / trace → partition →
//! simulate pipeline holds its invariants for every application kernel —
//! 2-D and 3-D — and every partitioner family.

use samr::apps::{generate_trace, AppKind, TraceGenConfig};
use samr::engine::cached_trace;
use samr::model::ModelPipeline;
use samr::partition::{
    validate_partition, DomainSfcPartitioner, HybridPartitioner, Partitioner, PatchPartitioner,
};
use samr::sim::comm::comm_accounting;
use samr::sim::{
    default_window, simulate_policy_source_stats, MetricScratch, SimConfig, SimResult, StaticPolicy,
};
use samr::trace::{HierarchyTrace, MemorySource, SnapshotSource};
use std::sync::Arc;

/// Run a snapshot stream through one partitioner at `window`.
fn simulate<const D: usize>(
    source: &mut dyn SnapshotSource<D>,
    p: &(dyn Partitioner<D> + Sync),
    cfg: &SimConfig,
    window: usize,
) -> SimResult {
    let mut policy = StaticPolicy::new(p);
    simulate_policy_source_stats(source, &mut policy, cfg, window)
        .unwrap()
        .0
}

/// Run an in-memory trace through one partitioner at the default window.
fn run_trace<const D: usize>(
    trace: &HierarchyTrace<D>,
    p: &(dyn Partitioner<D> + Sync),
    cfg: &SimConfig,
) -> SimResult {
    simulate(&mut MemorySource::new(trace), p, cfg, default_window())
}

fn partitioners<const D: usize>() -> Vec<Box<dyn Partitioner<D> + Sync>> {
    vec![
        Box::new(DomainSfcPartitioner::default()),
        Box::new(PatchPartitioner::default()),
        Box::new(HybridPartitioner::default()),
    ]
}

/// Cached 2-D trace of one of the paper's kernels.
fn trace2(kind: AppKind, cfg: &TraceGenConfig) -> Arc<HierarchyTrace<2>> {
    let t = cached_trace(kind, cfg);
    Arc::new(t.as_2d().expect("paper app").clone())
}

fn cfg_3d() -> TraceGenConfig {
    TraceGenConfig {
        base_cells: 16,
        steps: 6,
        ..TraceGenConfig::smoke()
    }
}

/// Cached 3-D trace of the advecting-sphere workload.
fn trace3() -> Arc<HierarchyTrace<3>> {
    let t = cached_trace(AppKind::Sp3d, &cfg_3d());
    Arc::new(t.as_3d().expect("SP3D is 3-D").clone())
}

#[test]
fn every_app_produces_valid_hierarchies() {
    let cfg = TraceGenConfig::smoke();
    for kind in AppKind::ALL {
        let trace = trace2(kind, &cfg);
        assert_eq!(trace.len(), cfg.steps as usize, "{}", kind.name());
        for snap in &trace.snapshots {
            snap.hierarchy
                .validate(cfg.min_block)
                .unwrap_or_else(|e| panic!("{} step {}: {e}", kind.name(), snap.step));
            assert!(snap.hierarchy.depth() <= cfg.max_levels);
        }
    }
    // The 3-D workload obeys the same structural invariants.
    let cfg = cfg_3d();
    let trace = trace3();
    assert_eq!(trace.len(), cfg.steps as usize);
    for snap in &trace.snapshots {
        snap.hierarchy
            .validate(cfg.min_block)
            .unwrap_or_else(|e| panic!("SP3D step {}: {e}", snap.step));
        assert!(snap.hierarchy.depth() <= cfg.max_levels);
    }
}

#[test]
fn every_partitioner_tiles_every_snapshot() {
    let cfg = TraceGenConfig::smoke();
    for kind in AppKind::ALL {
        let trace = trace2(kind, &cfg);
        for p in partitioners::<2>() {
            for nprocs in [3, 16] {
                for snap in trace.snapshots.iter().step_by(3) {
                    let part = p.partition(&snap.hierarchy, nprocs);
                    validate_partition(&snap.hierarchy, &part).unwrap_or_else(|e| {
                        panic!(
                            "{} {} nprocs={nprocs} step {}: {e}",
                            kind.name(),
                            p.name(),
                            snap.step
                        )
                    });
                }
            }
        }
    }
}

#[test]
fn every_partitioner_tiles_every_3d_snapshot() {
    let trace = trace3();
    for p in partitioners::<3>() {
        for nprocs in [3, 8] {
            for snap in trace.snapshots.iter().step_by(2) {
                let part = p.partition(&snap.hierarchy, nprocs);
                validate_partition(&snap.hierarchy, &part).unwrap_or_else(|e| {
                    panic!("SP3D {} nprocs={nprocs} step {}: {e}", p.name(), snap.step)
                });
            }
        }
    }
}

#[test]
fn simulation_is_deterministic_across_thread_counts() {
    // The simulator parallelizes over snapshots; results must not depend
    // on scheduling. Run twice and compare bit-for-bit.
    let trace = trace2(AppKind::Sc2d, &TraceGenConfig::smoke());
    let cfg = SimConfig {
        nprocs: 8,
        ..SimConfig::default()
    };
    let p = HybridPartitioner::default();
    let a = run_trace(&trace, &p, &cfg);
    let b = run_trace(&trace, &p, &cfg);
    assert_eq!(a, b);
}

#[test]
fn simulation_runs_end_to_end_in_3d() {
    let trace = trace3();
    let cfg = SimConfig {
        nprocs: 8,
        ..SimConfig::default()
    };
    for p in partitioners::<3>() {
        let res = run_trace(&*trace, p.as_ref(), &cfg);
        assert_eq!(res.steps.len(), trace.len());
        assert!(res.total_time > 0.0, "{}", p.name());
        let total_mig: u64 = res.steps.iter().map(|s| s.migration_cells).sum();
        assert!(
            total_mig > 0,
            "{}: a moving shell must migrate data",
            p.name()
        );
        for s in &res.steps {
            assert!(s.load_imbalance >= 1.0 - 1e-12);
            assert!(s.rel_comm >= 0.0);
            assert!((0.0..=2.0).contains(&s.rel_migration));
        }
        // Determinism holds in 3-D too.
        assert_eq!(res, run_trace(&*trace, p.as_ref(), &cfg));
    }
}

#[test]
fn trace_generation_is_reproducible() {
    let cfg = TraceGenConfig::smoke();
    let a = generate_trace(AppKind::Rm2d, &cfg);
    let b = generate_trace(AppKind::Rm2d, &cfg);
    assert_eq!(a, b);
    // A different seed genuinely changes the trace.
    let c = generate_trace(
        AppKind::Rm2d,
        &TraceGenConfig {
            seed: cfg.seed + 1,
            ..cfg
        },
    );
    assert_ne!(a, c);
}

#[test]
fn model_runs_on_every_trace_and_is_pure() {
    let cfg = TraceGenConfig::smoke();
    for kind in AppKind::ALL {
        let trace = trace2(kind, &cfg);
        let p = ModelPipeline::new();
        let a = p.run(&trace);
        let b = p.run(&trace);
        assert_eq!(a, b, "{}", kind.name());
        assert_eq!(a.len(), trace.len());
    }
    // The model consumes 3-D hierarchies with the same invariants.
    let trace = trace3();
    let states = ModelPipeline::new().run(&trace);
    assert_eq!(states.len(), trace.len());
    for s in &states {
        assert!((0.0..=1.0).contains(&s.beta_l));
        assert!((0.0..=1.0).contains(&s.beta_c));
        assert!((0.0..=1.0).contains(&s.beta_m));
    }
}

#[test]
fn streamed_pipeline_matches_batch_for_every_app() {
    // End to end: generator step-stream → windowed simulation and
    // incremental model fold must equal the batch pipeline bit for bit,
    // for every application of either dimension.
    use samr::apps::trace_source_any;
    use samr::trace::AnySnapshotSource;

    let cfg2 = TraceGenConfig::smoke();
    let cfg = |kind: AppKind| {
        if kind.dim() == 3 {
            cfg_3d()
        } else {
            cfg2.clone()
        }
    };
    for kind in AppKind::EVERY {
        let cfg = cfg(kind);
        let sim_cfg = SimConfig {
            nprocs: 4,
            ..SimConfig::default()
        };
        match trace_source_any(kind, &cfg) {
            AnySnapshotSource::D2(mut src) => {
                let t = trace2(kind, &cfg);
                let p = HybridPartitioner::default();
                let streamed = simulate(src.as_mut(), &p, &sim_cfg, 3);
                assert_eq!(streamed, run_trace(&t, &p, &sim_cfg), "{}", kind.name());
                let mut model_src = samr::apps::trace_source(kind, &cfg);
                let states = ModelPipeline::new()
                    .run_source::<2>(&mut model_src)
                    .unwrap();
                assert_eq!(states, ModelPipeline::new().run(&t), "{}", kind.name());
            }
            AnySnapshotSource::D3(mut src) => {
                let t = trace3();
                let p = HybridPartitioner::default();
                let streamed = simulate(src.as_mut(), &p, &sim_cfg, 3);
                assert_eq!(streamed, run_trace(&t, &p, &sim_cfg), "{}", kind.name());
            }
        }
    }
}

#[test]
fn domain_based_never_pays_inter_level_comm() {
    let cfg = TraceGenConfig::smoke();
    let p = DomainSfcPartitioner::default();
    let mut scratch = MetricScratch::default();
    for kind in AppKind::ALL {
        let trace = trace2(kind, &cfg);
        for snap in trace.snapshots.iter().step_by(4) {
            let part = p.partition(&snap.hierarchy, 8);
            assert_eq!(
                comm_accounting(&snap.hierarchy, &part, 1, &mut scratch).inter,
                0,
                "{} step {}",
                kind.name(),
                snap.step
            );
        }
    }
    // The defining domain-based property is dimension-independent.
    let trace = trace3();
    let mut scratch = MetricScratch::default();
    for snap in trace.snapshots.iter().step_by(2) {
        let part = p.partition(&snap.hierarchy, 8);
        assert_eq!(
            comm_accounting(&snap.hierarchy, &part, 1, &mut scratch).inter,
            0
        );
    }
}

#[test]
fn workload_conservation_across_partitions() {
    // Whatever the partitioner, per-processor loads sum to the hierarchy
    // workload — no cells lost or duplicated.
    let cfg = TraceGenConfig::smoke();
    let trace = trace2(AppKind::Tp2d, &cfg);
    for p in partitioners::<2>() {
        for snap in trace.snapshots.iter().step_by(3) {
            let part = p.partition(&snap.hierarchy, 7);
            let loads = part.loads(snap.hierarchy.ratio);
            assert_eq!(
                loads.iter().sum::<u64>(),
                snap.hierarchy.workload(),
                "{} step {}",
                p.name(),
                snap.step
            );
        }
    }
    let trace = trace3();
    for p in partitioners::<3>() {
        for snap in trace.snapshots.iter().step_by(2) {
            let part = p.partition(&snap.hierarchy, 7);
            assert_eq!(
                part.loads(snap.hierarchy.ratio).iter().sum::<u64>(),
                snap.hierarchy.workload(),
                "{}",
                p.name()
            );
        }
    }
}
