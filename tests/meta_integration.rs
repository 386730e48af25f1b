//! META1 integration: dynamic selection versus static choices, end to
//! end on real application traces.

use samr::apps::{AppKind, TraceGenConfig};
use samr::engine::cached_trace;
use samr::meta::{compare_on_trace, MetaPartitioner};
use samr::partition::{validate_partition, Partitioner};
use samr::sim::{MachineModel, SimConfig};

#[test]
fn meta_partitions_are_valid_on_real_traces() {
    let trace = cached_trace(AppKind::Sc2d, &TraceGenConfig::smoke());
    let trace = trace.as_2d().expect("SC2D is 2-D");
    let meta = MetaPartitioner::new();
    for snap in &trace.snapshots {
        let part = meta.partition(&snap.hierarchy, 8);
        assert_eq!(validate_partition(&snap.hierarchy, &part), Ok(()));
    }
    assert_eq!(meta.decisions().len(), trace.len());
}

#[test]
fn meta_beats_the_worst_static_choice_everywhere() {
    // The cost of a wrong static choice is what the meta-partitioner
    // eliminates: on every app it must beat the worst static partitioner.
    let cfg = TraceGenConfig::smoke();
    let sim_cfg = SimConfig {
        nprocs: 8,
        ..SimConfig::default()
    };
    for kind in AppKind::ALL {
        let trace = cached_trace(kind, &cfg);
        let res = compare_on_trace(trace.as_2d().expect("paper app"), &sim_cfg).unwrap();
        assert!(
            res.meta_vs_worst() < 1.0,
            "{}: meta {:.0} vs worst static {:.0}",
            kind.name(),
            res.meta_run.total_time,
            res.worst_static().total_time
        );
    }
}

#[test]
fn meta_stays_close_to_the_oracle_static_choice() {
    // The oracle (best-in-hindsight) static choice is a strong baseline;
    // the dynamic selection must stay within 35 % of it on every app.
    let cfg = TraceGenConfig::smoke();
    let sim_cfg = SimConfig {
        nprocs: 8,
        ..SimConfig::default()
    };
    for kind in AppKind::ALL {
        let trace = cached_trace(kind, &cfg);
        let res = compare_on_trace(trace.as_2d().expect("paper app"), &sim_cfg).unwrap();
        assert!(
            res.meta_vs_best() < 1.35,
            "{}: meta {:.0} vs best static {:.0}",
            kind.name(),
            res.meta_run.total_time,
            res.best_static().total_time
        );
    }
}

#[test]
fn machine_and_application_change_the_static_winner() {
    // The PAC argument (§3): the best partitioner P depends on the
    // application A *and* the computer C. A deep, strongly localized
    // hierarchy on a compute-bound machine with a fast interconnect is
    // the §3.1 worst case for domain-based cuts (intractable imbalance),
    // so a balance-first family must win there — while on the real
    // application traces with a balanced machine, the domain-based
    // family wins (communication dominates). Hence: no static choice is
    // universally best.
    use samr::geom::Rect2;
    use samr::grid::GridHierarchy;
    use samr::trace::{HierarchyTrace, Snapshot, TraceMeta};

    // Deep localized pyramid on a small base grid, static over 8 steps.
    let meta_info = TraceMeta {
        app: "SYNTH-DEEP".into(),
        description: "deep localized refinement pyramid".into(),
        base_domain: Rect2::from_extents(16, 16),
        ratio: 2,
        max_levels: 4,
        regrid_interval: 4,
        min_block: 2,
        seed: 0,
    };
    let mut trace = HierarchyTrace::new(meta_info);
    for i in 0..8u32 {
        trace.push(Snapshot {
            step: i,
            time: i as f64,
            hierarchy: GridHierarchy::from_level_rects(
                Rect2::from_extents(16, 16),
                2,
                &[
                    vec![],
                    vec![Rect2::from_coords(0, 0, 11, 11)],
                    vec![Rect2::from_coords(0, 0, 15, 15)],
                    vec![Rect2::from_coords(0, 0, 23, 23)],
                ],
            ),
        });
    }
    // Compute-bound machine with a fast interconnect.
    let fast_net = MachineModel {
        cell_update: 10.0,
        cell_transfer: 0.2,
        message_latency: 1.0,
        migration_transfer: 0.1,
        partition_unit: 1.0,
    };
    let deep_res = compare_on_trace(
        &trace,
        &SimConfig {
            nprocs: 16,
            machine: fast_net,
            ..SimConfig::default()
        },
    )
    .unwrap();
    let deep_winner = deep_res.best_static().name.clone();
    assert!(
        deep_winner.starts_with("patch"),
        "deep localized + fast network should favour per-level balancing, got {deep_winner}"
    );

    // A real application trace on the balanced default machine.
    let app_trace = cached_trace(AppKind::Sc2d, &TraceGenConfig::smoke());
    let app_res = compare_on_trace(
        app_trace.as_2d().expect("SC2D is 2-D"),
        &SimConfig {
            nprocs: 8,
            ..SimConfig::default()
        },
    )
    .unwrap();
    let app_winner = app_res.best_static().name.clone();
    assert_ne!(
        deep_winner, app_winner,
        "the static winner must depend on (A, C)"
    );
}

/// The PC2D phase-change configuration: a 32² base with four levels
/// regridding every step, so the mid-run flip from spread refinement to
/// a corner point singularity lands in the trace immediately. Small
/// enough to simulate in milliseconds, deep enough that a domain cut
/// cannot balance the singular regime.
fn phase_change_config() -> TraceGenConfig {
    TraceGenConfig {
        steps: 24,
        base_cells: 32,
        max_levels: 4,
        ratio: 2,
        regrid_interval: 1,
        min_block: 2,
        flag_buffer: 1,
        nesting_buffer: 1,
        cluster: samr::grid::ClusterOptions::paper_defaults(),
        ref_resolution: 64,
        seed: 2004,
    }
}

#[test]
fn adaptive_policy_beats_every_static_choice_on_the_phase_change() {
    // The reason the policy layer exists: on PC2D the best partitioner
    // changes mid-run, so an adaptive policy that switches must beat
    // the best static assignment. A failure means the policy stopped
    // switching or stopped paying off.
    use samr::engine::{PartitionerSpec, PolicySpec};
    use samr::trace::MemorySource;

    let trace = samr::apps::generate_trace(AppKind::Pc2d, &phase_change_config());
    // Computation-dominated: load imbalance, not communication, decides
    // the execution time, so the singular regime punishes domain cuts.
    let sim = SimConfig {
        nprocs: 16,
        machine: MachineModel::slow_cpu(),
        ..SimConfig::default()
    };
    let part = |name: &str| PartitionerSpec::parse(name).expect("registry name");
    let run = |partitioner: &PartitionerSpec, policy: &PolicySpec| {
        let mut source = MemorySource::new(&trace);
        let (res, stats) = policy
            .simulate_source::<2>(partitioner, &mut source, &sim)
            .expect("in-memory sources never fail");
        (res.total_time, stats.switches())
    };
    let best_static = ["domain-sfc", "patch", "hybrid"]
        .iter()
        .map(|n| run(&part(n), &PolicySpec::Static).0)
        .fold(f64::INFINITY, f64::min);
    let balance = PolicySpec::parse("adaptive:balance").expect("policy name");
    let (adaptive_time, switches) = run(&part("domain-sfc"), &balance);
    assert!(switches >= 1, "adaptive policy never switched on PC2D");
    assert!(
        adaptive_time < best_static,
        "adaptive ({adaptive_time:.0}) no longer beats the best static ({best_static:.0})"
    );
}
