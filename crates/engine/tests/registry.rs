//! Partitioner-registry contract: every named preset round-trips
//! through `parse`, the slugs scenarios derive from the registry stay
//! unique and file-safe across the full registry × machine axis — the
//! invariant distributed campaign artifacts depend on, since shard
//! merges address scenarios by slug-named files —, every static preset
//! reports a configured name of its own, partitions independently of
//! call order, and simulates identically at every streaming window.

use samr_apps::{AppKind, TraceGenConfig};
use samr_engine::{cached_trace, PartitionerSpec, Scenario};
use samr_grid::GridHierarchy;
use samr_sim::{
    default_window, simulate_policy_source_stats, MachineModel, SimConfig, SimResult, StaticPolicy,
};
use samr_trace::{HierarchyTrace, MemorySource};
use std::collections::HashSet;

/// Characters that are safe in artifact file names on every platform
/// the campaign artifacts are expected to travel across.
fn file_safe(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
}

#[test]
fn every_registry_name_parses_back_to_an_equal_spec() {
    for (name, spec) in PartitionerSpec::registry() {
        let parsed = PartitionerSpec::parse(name)
            .unwrap_or_else(|e| panic!("registry name '{name}' failed to parse: {e}"));
        assert_eq!(parsed, spec, "'{name}' parsed to a different spec");
        // And the round-trip survives serialization, as campaign specs
        // shipped to shard workers must.
        let json = serde_json::to_string(&parsed).unwrap();
        let back: PartitionerSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec, "'{name}' changed across JSON");
    }
}

#[test]
fn registry_slugs_are_unique_and_file_safe() {
    let registry = PartitionerSpec::registry();
    let mut slugs = HashSet::new();
    for (name, spec) in &registry {
        let slug = spec.slug();
        assert!(
            file_safe(&slug),
            "slug '{slug}' of '{name}' is not file-safe"
        );
        assert!(
            slugs.insert(slug.clone()),
            "slug '{slug}' of '{name}' collides with another registry entry"
        );
    }
    assert_eq!(slugs.len(), registry.len());
}

#[test]
fn every_static_preset_has_a_distinct_configured_name() {
    // Results and switch events report the configured name; two presets
    // sharing one would be indistinguishable in every artifact.
    let mut names: Vec<(String, &str)> = Vec::new();
    for (slug, spec) in PartitionerSpec::registry() {
        if let PartitionerSpec::Static(choice) = spec {
            let name = choice.name();
            assert_eq!(name, spec.name(&MachineModel::default()), "{slug}");
            if let Some((_, other)) = names.iter().find(|(n, _)| *n == name) {
                panic!("'{slug}' and '{other}' share the configured name {name}");
            }
            names.push((name, slug));
        }
    }
    assert_eq!(
        names.iter().find(|(_, slug)| *slug == "hybrid").unwrap().0,
        "hybrid-nf(Morton,partial,u2,bi2)",
        "the default configuration keeps its name"
    );
}

#[test]
fn scenario_slugs_are_unique_across_the_registry_machine_axis() {
    // The full registry × machine-preset product: every combination must
    // slug to a distinct, file-safe artifact name, or sharded campaign
    // artifacts would silently overwrite each other.
    let mut slugs = HashSet::new();
    let mut n = 0;
    for (pname, partitioner) in PartitionerSpec::registry() {
        for (mname, machine) in MachineModel::registry() {
            let scenario = Scenario::new(
                AppKind::Tp2d,
                TraceGenConfig::smoke(),
                partitioner,
                SimConfig {
                    nprocs: 16,
                    machine,
                    ..SimConfig::default()
                },
            );
            let slug = scenario.slug();
            assert!(
                file_safe(&slug),
                "scenario slug '{slug}' ({pname} × {mname}) is not file-safe"
            );
            assert!(
                slugs.insert(slug.clone()),
                "scenario slug '{slug}' ({pname} × {mname}) collides"
            );
            n += 1;
        }
    }
    assert_eq!(slugs.len(), n);
    assert_eq!(
        n,
        PartitionerSpec::registry().len() * MachineModel::registry().len()
    );
}

/// The static driver's result for `spec` over `trace` at each window.
fn at_windows<const D: usize>(
    spec: &PartitionerSpec,
    trace: &HierarchyTrace<D>,
    cfg: &SimConfig,
    windows: &[usize],
) -> Vec<SimResult> {
    let partitioner = spec.build::<D>(&cfg.machine);
    windows
        .iter()
        .map(|&window| {
            let source = &mut MemorySource::new(trace);
            let mut policy = StaticPolicy::new(partitioner.as_ref());
            simulate_policy_source_stats(source, &mut policy, cfg, window)
                .unwrap()
                .0
        })
        .collect()
}

#[test]
fn every_static_preset_is_window_invariant_in_2d_and_3d() {
    // Window > 1 pre-partitions each window in one parallel map; window
    // 1 partitions each snapshot on demand, in step order. Every static
    // preset must give the same result either way.
    let tp2d = cached_trace(AppKind::Tp2d, &TraceGenConfig::smoke());
    let sp3d = cached_trace(
        AppKind::Sp3d,
        &TraceGenConfig {
            base_cells: 16,
            steps: 6,
            ..TraceGenConfig::smoke()
        },
    );
    let cfg = SimConfig {
        nprocs: 8,
        ..SimConfig::default()
    };
    let windows = [1, 3, default_window()];
    for (name, spec) in PartitionerSpec::registry() {
        if spec.stateful() {
            continue;
        }
        let runs2 = at_windows(&spec, tp2d.as_2d().expect("TP2D is 2-D"), &cfg, &windows);
        let runs3 = at_windows(&spec, sp3d.as_3d().expect("SP3D is 3-D"), &cfg, &windows);
        for (w, (r2, r3)) in windows.iter().zip(runs2.iter().zip(&runs3)) {
            assert_eq!(r2, &runs2[0], "{name}: TP2D at window {w}");
            assert_eq!(r3, &runs3[0], "{name}: SP3D at window {w}");
        }
    }
}

/// One instance of `spec` partitions `a`, `b`, then `a` again: both
/// partitions of `a` must equal a fresh instance's, so nothing one call
/// leaves behind reaches the next.
fn assert_call_order_free<const D: usize>(
    name: &str,
    spec: &PartitionerSpec,
    a: &GridHierarchy<D>,
    b: &GridHierarchy<D>,
    nprocs: usize,
) {
    let machine = MachineModel::default();
    let fresh = spec.build::<D>(&machine).partition(a, nprocs);
    let p = spec.build::<D>(&machine);
    assert_eq!(p.partition(a, nprocs), fresh, "{name}: first call");
    p.partition(b, nprocs);
    assert_eq!(p.partition(a, nprocs), fresh, "{name}: after another");
}

#[test]
fn every_static_preset_partitions_independently_of_call_order() {
    // Two snapshots of different shape per dimension: the last, deepest
    // TP2D snapshot and the first; SP3D's last and first.
    let tp2d = cached_trace(AppKind::Tp2d, &TraceGenConfig::smoke());
    let sp3d = cached_trace(
        AppKind::Sp3d,
        &TraceGenConfig {
            base_cells: 16,
            steps: 6,
            ..TraceGenConfig::smoke()
        },
    );
    let (t2, t3) = (tp2d.as_2d().unwrap(), sp3d.as_3d().unwrap());
    let ends = |n: usize| [n - 1, 0];
    let [a2, b2] = ends(t2.len()).map(|i| &t2.snapshots[i].hierarchy);
    let [a3, b3] = ends(t3.len()).map(|i| &t3.snapshots[i].hierarchy);
    assert_ne!(a2, b2);
    assert_ne!(a3, b3);
    for (name, spec) in PartitionerSpec::registry() {
        if spec.stateful() {
            continue;
        }
        for nprocs in [3, 16] {
            assert_call_order_free(name, &spec, a2, b2, nprocs);
            assert_call_order_free(name, &spec, a3, b3, nprocs);
        }
    }
}
