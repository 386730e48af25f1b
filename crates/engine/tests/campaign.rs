//! Campaign engine integration: expansion, artifacts and — the load-
//! bearing property — bit-level determinism of campaign artifacts across
//! repeated runs and across thread counts.

use samr_apps::{AppKind, TraceGenConfig};
use samr_engine::{Campaign, CampaignSpec, PartitionerSpec, PolicySpec, Scenario};

fn two_by_two() -> CampaignSpec {
    CampaignSpec::new(TraceGenConfig::smoke())
        .apps([AppKind::Tp2d, AppKind::Sc2d])
        .partitioners([
            PartitionerSpec::parse("hybrid").unwrap(),
            PartitionerSpec::parse("domain-sfc").unwrap(),
        ])
        .nprocs([8])
}

/// All scenario CSVs of one campaign run, concatenated in scenario
/// order with their slugs (the exact bytes `Campaign::run_to_dir`
/// writes).
fn campaign_csv_bytes(spec: &CampaignSpec) -> String {
    Campaign::run(spec)
        .iter()
        .map(|o| format!("# {}\n{}", o.scenario.slug(), o.to_csv()))
        .collect()
}

#[test]
fn campaign_csv_is_byte_identical_across_runs_and_thread_counts() {
    let spec = two_by_two();
    let baseline = campaign_csv_bytes(&spec);
    assert!(!baseline.is_empty());

    // Same process, second run: cache hits everywhere, same bytes.
    assert_eq!(baseline, campaign_csv_bytes(&spec), "second run differed");

    // Forced single-threaded and oversubscribed pools: partitioning and
    // scenario sweeps must not let scheduling order leak into results.
    for threads in [1usize, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        let bytes = pool.install(|| campaign_csv_bytes(&spec));
        assert_eq!(
            baseline, bytes,
            "thread count {threads} changed the artifacts"
        );
    }
}

#[test]
fn expansion_count_matches_axes_product() {
    let spec = two_by_two().nprocs([4, 8, 16]).ghost_widths([1, 2]);
    assert_eq!(spec.len(), 2 * 2 * 3 * 2);
    assert_eq!(Campaign::run(&spec).len(), spec.len());
}

#[test]
fn scenarios_roundtrip_through_json_inside_a_campaign() {
    for scenario in two_by_two().scenarios() {
        let json = serde_json::to_string(&scenario).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(scenario, back);
        assert_eq!(scenario.slug(), back.slug());
    }
}

#[test]
fn run_to_dir_writes_one_csv_and_one_json_per_scenario() {
    let dir = std::env::temp_dir().join(format!(
        "samr-engine-test-{}-{}",
        std::process::id(),
        "artifacts"
    ));
    let spec = two_by_two();
    let (digests, paths) = Campaign::run_to_dir(&spec, &dir).expect("write artifacts");
    let outcomes = Campaign::run(&spec);
    assert_eq!(outcomes.len(), spec.len());
    // Two artifacts per scenario plus the campaign CSV, the manifest
    // and the Pareto front.
    assert_eq!(paths.len(), 2 * outcomes.len() + 3);
    // One digest line per scenario, kept when its artifacts were written.
    assert_eq!(digests.len(), outcomes.len());
    for (outcome, digest) in outcomes.iter().zip(&digests) {
        assert_eq!(*digest, outcome.digest());
        let slug = outcome.scenario.slug();
        let csv = std::fs::read_to_string(dir.join(format!("{slug}.csv"))).unwrap();
        assert_eq!(csv, outcome.to_csv());
        let json = std::fs::read_to_string(dir.join(format!("{slug}.json"))).unwrap();
        let summary: samr_engine::ScenarioSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(summary.scenario, outcome.scenario);
    }
    // The canonical campaign CSV is the per-scenario CSVs concatenated
    // in plan order under `# <slug>` headers…
    let campaign_csv = std::fs::read_to_string(dir.join("campaign.csv")).unwrap();
    assert_eq!(campaign_csv, campaign_csv_bytes(&spec));
    // …and the audit manifest records the plan and the spec.
    let manifest = std::fs::read_to_string(dir.join("campaign.manifest.json")).unwrap();
    let manifest: samr_engine::CampaignManifest = serde_json::from_str(&manifest).unwrap();
    assert_eq!(manifest.scenario_count, outcomes.len());
    assert_eq!(manifest.shards, 1);
    assert_eq!(manifest.spec, spec);
    assert_eq!(
        manifest.plan_hash,
        samr_engine::CampaignPlan::new(&spec, 1, samr_engine::ShardStrategy).plan_hash
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Golden-file regression: the exact bytes this campaign produced at the
/// seed (pre-dimension-generic) configuration are checked in; the
/// dimension-generic refactor must keep every 2-D artifact byte-identical.
/// Regenerate the file only for a *deliberate* output change (run the
/// campaign and overwrite `tests/golden/campaign_smoke.csv`).
#[test]
fn campaign_csv_matches_pre_refactor_golden_bytes() {
    let got = campaign_csv_bytes(&two_by_two());
    let want = include_str!("golden/campaign_smoke.csv");
    assert!(
        got == want,
        "2-D campaign output drifted from the checked-in golden artifact"
    );
}

#[test]
fn mixed_dimension_campaign_runs_end_to_end_with_artifacts() {
    // Acceptance: a campaign with dim-3 scenarios runs trace → model →
    // partition → simulate and emits per-scenario CSV/JSON artifacts.
    let spec = CampaignSpec::new(TraceGenConfig {
        base_cells: 16,
        steps: 4,
        ..TraceGenConfig::smoke()
    })
    .apps([AppKind::Tp2d, AppKind::Sp3d])
    .partitioners([
        PartitionerSpec::parse("hybrid").unwrap(),
        PartitionerSpec::parse("domain-sfc").unwrap(),
    ])
    .nprocs([4]);
    assert_eq!(spec.dims, vec![2, 3]);
    let dir = std::env::temp_dir().join(format!("samr-engine-test-{}-mixed", std::process::id()));
    let (digests, paths) = Campaign::run_to_dir(&spec, &dir).expect("write artifacts");
    assert_eq!(digests.len(), 4);
    let outcomes = Campaign::run(&spec);
    let dims: Vec<usize> = outcomes.iter().map(|o| o.scenario.dim).collect();
    assert_eq!(dims, vec![2, 2, 3, 3]);
    let names: Vec<String> = paths
        .iter()
        .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    assert!(
        names.contains(&"sp3d_hybrid_p4_g1_d3.csv".to_string()),
        "{names:?}"
    );
    assert!(names.contains(&"sp3d_domain-sfc_p4_g1_d3.json".to_string()));
    for o in &outcomes {
        assert!(o.sim.total_time > 0.0);
        assert_eq!(o.to_csv().lines().count(), o.model.len() + 1);
    }
    // 3-D campaigns are deterministic too: the in-memory run writes
    // the bytes the on-disk run wrote.
    for o in &outcomes {
        let slug = o.scenario.slug();
        let csv = std::fs::read_to_string(dir.join(format!("{slug}.csv"))).unwrap();
        assert_eq!(csv, o.to_csv());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A source wrapper that counts every snapshot handed out, so a test can
/// prove the driver consumed the whole stream while the driver's own
/// residency stats bound how many were ever live at once.
struct CountingSource<S> {
    inner: S,
    yielded: std::sync::Arc<std::sync::atomic::AtomicUsize>,
}

impl<const D: usize, S: samr_trace::SnapshotSource<D>> samr_trace::SnapshotSource<D>
    for CountingSource<S>
{
    fn meta(&self) -> &samr_trace::TraceMeta<D> {
        self.inner.meta()
    }

    fn next_snapshot(
        &mut self,
    ) -> Result<Option<samr_trace::Snapshot<D>>, samr_trace::io::TraceIoError> {
        let snap = self.inner.next_snapshot()?;
        if snap.is_some() {
            self.yielded
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        Ok(snap)
    }
}

#[test]
fn windowed_driver_bounds_live_snapshots_at_the_window() {
    use samr_sim::{simulate_policy_source_stats, SimConfig, StaticPolicy};
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    let trace = samr_engine::cached_trace(AppKind::Tp2d, &TraceGenConfig::smoke());
    let trace = trace.as_2d().expect("TP2D is 2-D");
    let cfg = SimConfig {
        nprocs: 8,
        ..SimConfig::default()
    };

    // The scenario driver's result for a spec, from an in-memory source.
    let engine = |spec: &PartitionerSpec| {
        let source = &mut samr_trace::MemorySource::new(trace);
        PolicySpec::Static
            .simulate_source::<2>(spec, source, &cfg)
            .unwrap()
            .0
    };

    // Static partitioner, several windows: the count of live snapshots
    // never exceeds the window plus the one carried predecessor, while
    // the whole stream is consumed and the output matches the scenario
    // driver bit for bit.
    let static_spec = PartitionerSpec::parse("hybrid").unwrap();
    let expected = engine(&static_spec);
    for window in [2usize, 4, 7] {
        let yielded = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mut source = CountingSource {
            inner: samr_trace::MemorySource::new(trace),
            yielded: Arc::clone(&yielded),
        };
        let partitioner = static_spec.build::<2>(&cfg.machine);
        let mut policy = StaticPolicy::new(partitioner.as_ref());
        let (result, stats) =
            simulate_policy_source_stats(&mut source, &mut policy, &cfg, window).unwrap();
        assert_eq!(yielded.load(Ordering::Relaxed), trace.len());
        assert_eq!(stats.snapshots, trace.len());
        assert!(
            stats.peak_resident <= window + 1,
            "window {window}: {} snapshots were live",
            stats.peak_resident
        );
        assert_eq!(result, expected, "window {window} changed the metrics");
    }

    // Stateful selector: window 1, at most the current pair live.
    let meta_spec = PartitionerSpec::parse("meta").unwrap();
    assert_eq!(meta_spec.window(), 1);
    let yielded = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let mut source = CountingSource {
        inner: samr_trace::MemorySource::new(trace),
        yielded: Arc::clone(&yielded),
    };
    let partitioner = meta_spec.build::<2>(&cfg.machine);
    let mut policy = StaticPolicy::new(partitioner.as_ref());
    let (result, stats) = simulate_policy_source_stats(&mut source, &mut policy, &cfg, 1).unwrap();
    assert_eq!(yielded.load(Ordering::Relaxed), trace.len());
    assert!(stats.peak_resident <= 2, "{}", stats.peak_resident);
    // And the counted sequential run equals the scenario driver's run.
    assert_eq!(result.steps, engine(&meta_spec).steps);
}

#[test]
fn spilled_traces_produce_byte_identical_campaigns() {
    // A fresh trace key (seed unused anywhere else in this process) under
    // a zero byte budget is forced onto the disk-spill path; re-running
    // with the budget restored admits the same trace to memory. Both
    // paths must produce byte-identical campaign artifacts.
    let spec = two_by_two().apps([AppKind::Tp2d]);
    let spec = CampaignSpec {
        trace: TraceGenConfig {
            seed: 424242,
            ..TraceGenConfig::smoke()
        },
        ..spec
    };
    let before = samr_engine::store::trace_cache_budget();
    samr_engine::set_trace_cache_budget(0);
    let spilled = campaign_csv_bytes(&spec);
    samr_engine::set_trace_cache_budget(before);
    let admitted = campaign_csv_bytes(&spec);
    assert!(!spilled.is_empty());
    assert!(
        spilled == admitted,
        "disk-spilled and memory-admitted campaigns diverged"
    );
}

/// The policies axis is a first-class campaign dimension: it multiplies
/// the expansion, tags adaptive slugs with `_a<preset>`, round-trips
/// through the spec JSON, and leaves every default-policy artifact —
/// spec bytes, plan hash, scenario slugs — exactly as it was before the
/// axis existed.
#[test]
fn policies_axis_expands_tags_and_roundtrips() {
    let adaptive = PolicySpec::parse("adaptive:balance").unwrap();
    let spec = two_by_two().policies([PolicySpec::Static, adaptive]);
    assert_eq!(spec.len(), 2 * two_by_two().len());

    let scenarios = spec.scenarios();
    let static_slugs: Vec<String> = scenarios
        .iter()
        .filter(|s| s.policy == PolicySpec::Static)
        .map(Scenario::slug)
        .collect();
    let adaptive_slugs: Vec<String> = scenarios
        .iter()
        .filter(|s| s.policy == adaptive)
        .map(Scenario::slug)
        .collect();
    // Static scenarios keep their pre-policy slugs; adaptive ones are
    // tagged, so every slug in the doubled campaign stays unique.
    let before: Vec<String> = two_by_two()
        .scenarios()
        .iter()
        .map(Scenario::slug)
        .collect();
    assert_eq!(static_slugs, before);
    assert!(adaptive_slugs.iter().all(|s| s.ends_with("_abalance")));

    // The spec with a non-default axis round-trips through JSON; the
    // default axis serializes to the exact pre-policy bytes (no
    // "policies" key), so plan hashes of existing campaigns are stable.
    let json = serde_json::to_string(&spec).unwrap();
    assert!(json.contains("\"policies\""));
    let back: CampaignSpec = serde_json::from_str(&json).unwrap();
    assert_eq!(back, spec);
    let default_json = serde_json::to_string(&two_by_two()).unwrap();
    assert!(!default_json.contains("policies"));
}

/// An adaptive-policy scenario runs end-to-end inside a campaign and
/// reports its switch accounting in the summary JSON, which a static
/// summary omits entirely.
#[test]
fn adaptive_policies_run_inside_campaigns() {
    let spec = CampaignSpec::new(TraceGenConfig::smoke())
        .apps([AppKind::Bl2d])
        .partitioners([PartitionerSpec::parse("domain-sfc").unwrap()])
        .policies([
            PolicySpec::Static,
            PolicySpec::parse("adaptive:eager").unwrap(),
        ])
        .nprocs([8]);
    let outcomes = Campaign::run(&spec);
    assert_eq!(outcomes.len(), 2);
    for o in &outcomes {
        assert!(o.sim.total_time > 0.0);
        assert_eq!(o.sim.steps.len(), o.model.len());
        let json = serde_json::to_string(&o.summary()).unwrap();
        let has_switch_fields = json.contains("\"switches\"");
        assert_eq!(has_switch_fields, o.scenario.policy != PolicySpec::Static);
        let back: samr_engine::ScenarioSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back.switches, o.stats.switches());
    }
}

#[test]
fn dynamic_selectors_run_inside_campaigns() {
    let spec = CampaignSpec::new(TraceGenConfig::smoke())
        .apps([AppKind::Bl2d])
        .partitioners([PartitionerSpec::Meta, PartitionerSpec::OctantMeta])
        .nprocs([8]);
    let outcomes = Campaign::run(&spec);
    assert_eq!(outcomes.len(), 2);
    for o in &outcomes {
        assert!(o.sim.total_time > 0.0);
        assert_eq!(o.sim.steps.len(), o.model.len());
    }
}
