//! The benchmark workloads: campaign specs built from the workload
//! name, a seed and the scale.
//!
//! Every campaign is cold (trace generation included). Each workload
//! has a full-size campaign ([`Scale::Full`]) — the one the project runs
//! — and a timed one ([`Scale::Bench`]) scaled down from it so that a
//! run of `run_seconds` holds several repetitions. The scaling keeps
//! each full-size campaign's axes and hierarchy and balances how its
//! layers shrink: the PDE kernels integrate to a fixed physical end
//! time, so their cost goes with the cube of the reference resolution,
//! while regridding, partitioning, accounting and writes go with the
//! step count and the scenario count. `README.md` compares the traced
//! layer shares of both scales.
//!
//! How much a campaign costs depends on its seed — how far each
//! application's solution refines, where the 3-D shell travels — by
//! up to 30% from one seed to the next. A timed repetition therefore runs
//! one campaign for each of several seeds derived from the run's seed
//! ([`seeds`]), so that this input dependence averages out inside the
//! repetition instead of spreading runs with different seeds apart. The
//! program under test only ever receives the generated
//! [`CampaignSpec`]s.

use samr_apps::{AppKind, TraceGenConfig};
use samr_engine::{configs, CampaignSpec, PartitionerSpec, PolicySpec};
use samr_sim::MachineModel;

/// How large a workload's campaigns are.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Scale {
    /// A fraction of a second per campaign, with the bench axes: for
    /// tests.
    Smoke,
    /// The timed benchmark.
    #[default]
    Bench,
    /// The full-size campaigns the bench scale is cut from, one campaign
    /// per repetition: for checking the bench scale's layer profile.
    Full,
}

impl Scale {
    /// Parse `smoke`, `bench` or `full`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "smoke" => Ok(Scale::Smoke),
            "bench" => Ok(Scale::Bench),
            "full" => Ok(Scale::Full),
            other => Err(format!("unknown scale '{other}' (smoke, bench, full)")),
        }
    }

    /// The name `parse` reads.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Bench => "bench",
            Scale::Full => "full",
        }
    }
}

/// The full-size value of an axis, or the bench one (also the smoke
/// scale's).
fn pick<T>(scale: Scale, full: T, bench: T) -> T {
    if scale == Scale::Full {
        full
    } else {
        bench
    }
}

/// Campaigns per timed repetition: more for the workloads whose cost
/// varies more with the seed.
fn campaigns_per_rep(name: &str, scale: Scale) -> u64 {
    match (scale, name) {
        (Scale::Full, _) => 1,
        (_, "sp3d") => 3,
        _ => 2,
    }
}

/// The seeds of one repetition of a workload: `seed` itself, then seeds
/// a fixed stride apart (runs with nearby seeds share none).
pub fn seeds(name: &str, seed: u64, scale: Scale) -> Vec<u64> {
    (0..campaigns_per_rep(name, scale))
        .map(|i| seed.wrapping_add(i * 7919))
        .collect()
}

/// The campaign spec of a workload at `seed` and `scale`.
pub fn spec(name: &str, seed: u64, scale: Scale) -> Result<CampaignSpec, String> {
    let parse = |names: &[&str]| -> Vec<PartitionerSpec> {
        names
            .iter()
            .map(|n| PartitionerSpec::parse(n).expect("registry name"))
            .collect()
    };
    let trace = |full: TraceGenConfig, bench: TraceGenConfig| TraceGenConfig {
        seed,
        ..match scale {
            Scale::Smoke => TraceGenConfig {
                steps: 4,
                ..TraceGenConfig::smoke()
            },
            _ => pick(scale, full, bench),
        }
    };
    let four_apps = [AppKind::Tp2d, AppKind::Bl2d, AppKind::Sc2d, AppKind::Rm2d];
    let spec = match name {
        // The paper's §5.1 campaign: its hierarchy (64² base, 5 levels)
        // over its 192² reference solutions, 100 steps. The bench scale
        // keeps the hierarchy and cuts the steps and the kernels' cost by
        // the same factor, (74/192)³ ≈ 6/100, so the kernels keep their
        // share.
        "paper" => CampaignSpec::new(trace(
            TraceGenConfig::paper(),
            TraceGenConfig {
                steps: 6,
                ref_resolution: 74,
                ..TraceGenConfig::paper()
            },
        ))
        .apps(four_apps)
        .dims([2])
        .partitioners(parse(&["domain-sfc", "patch", "hybrid"]))
        .nprocs([16, 64]),
        // Many scenarios per trace: every static registry partitioner on
        // several machines and processor counts, over the engine's
        // reduced hierarchy (48² base, 4 levels, 96² reference). The
        // bench scale drops 16 processors and the slow-cpu machine but
        // keeps 256 processors and two machines; 12 steps keep the
        // per-scenario artifact writes a small share, and the 50²
        // reference keeps trace generation near its full-size share.
        "sweep" => {
            let statics: Vec<PartitionerSpec> = PartitionerSpec::registry()
                .into_iter()
                .map(|(_, s)| s)
                .filter(|s| !s.stateful())
                .collect();
            CampaignSpec::new(trace(
                configs::reduced(),
                TraceGenConfig {
                    steps: 12,
                    ref_resolution: 50,
                    ..configs::reduced()
                },
            ))
            .apps(four_apps)
            .dims([2])
            .partitioners(statics)
            .nprocs(pick(scale, vec![16, 64, 256], vec![64, 256]))
            .machines(pick(
                scale,
                vec![
                    MachineModel::default(),
                    MachineModel::slow_network(),
                    MachineModel::slow_cpu(),
                ],
                vec![MachineModel::default(), MachineModel::slow_network()],
            ))
        }
        // The 3-D workload: an analytic indicator, so the time goes to
        // 3-D regridding, partitioning and accounting (32³ base, 3
        // levels, 40 steps). The bench scale (24³ base, 16 steps) keeps
        // regridding and partitioning the two largest layers; shorter
        // traces sample the shell's path too coarsely, and their cost
        // swings with the seed.
        "sp3d" => CampaignSpec::new(TraceGenConfig {
            base_cells: match scale {
                Scale::Smoke => 16,
                Scale::Bench => 24,
                Scale::Full => 32,
            },
            ..trace(
                TraceGenConfig {
                    steps: 40,
                    ..TraceGenConfig::smoke()
                },
                TraceGenConfig {
                    steps: 16,
                    ..TraceGenConfig::smoke()
                },
            )
        })
        .apps([AppKind::Sp3d])
        .dims([3])
        .partitioners(parse(&["domain-sfc", "patch", "hybrid"]))
        .nprocs([16, 64]),
        // Stateful selectors and adaptive policies: the strictly
        // sequential window-1 driver, over the reduced hierarchy. The
        // bench scale drops 16 processors and the slow-cpu machine.
        "adaptive" => CampaignSpec::new(trace(
            configs::reduced(),
            TraceGenConfig {
                steps: 14,
                ref_resolution: 48,
                ..configs::reduced()
            },
        ))
        .apps([
            AppKind::Tp2d,
            AppKind::Bl2d,
            AppKind::Sc2d,
            AppKind::Rm2d,
            AppKind::Pc2d,
        ])
        .dims([2])
        .partitioners(parse(&["domain-sfc", "hybrid", "meta", "octant-meta"]))
        .policies(
            [
                "static",
                "adaptive:balance",
                "adaptive:eager",
                "adaptive:patient",
            ]
            .map(|p| PolicySpec::parse(p).expect("registry name")),
        )
        .nprocs(pick(scale, vec![16, 64, 256], vec![64, 256]))
        .machines(pick(
            scale,
            vec![MachineModel::default(), MachineModel::slow_cpu()],
            vec![MachineModel::default()],
        )),
        other => return Err(format!("unknown workload '{other}'")),
    };
    Ok(spec)
}

/// The distinct applications of a spec, in plan order.
pub fn apps(spec: &CampaignSpec) -> Vec<AppKind> {
    let mut out: Vec<AppKind> = Vec::new();
    for s in spec.scenarios() {
        if !out.contains(&s.app) {
            out.push(s.app);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const NAMES: [&str; 4] = ["paper", "sweep", "sp3d", "adaptive"];

    #[test]
    fn scenario_counts_match_the_documented_axes() {
        let count = |name, scale| spec(name, 2004, scale).unwrap().len();
        assert_eq!(count("paper", Scale::Full), 4 * 3 * 2);
        assert_eq!(count("sweep", Scale::Full), 4 * 11 * 3 * 3);
        assert_eq!(count("sp3d", Scale::Full), 3 * 2);
        assert_eq!(count("adaptive", Scale::Full), 5 * 4 * 4 * 3 * 2);
        assert_eq!(count("paper", Scale::Bench), 4 * 3 * 2);
        assert_eq!(count("sweep", Scale::Bench), 4 * 11 * 2 * 2);
        assert_eq!(count("sp3d", Scale::Bench), 3 * 2);
        assert_eq!(count("adaptive", Scale::Bench), 5 * 4 * 4 * 2);
        for name in NAMES {
            assert_eq!(
                count(name, Scale::Smoke),
                count(name, Scale::Bench),
                "{name}: smoke scale keeps the bench axes"
            );
        }
    }

    #[test]
    fn the_full_scale_is_the_documented_campaign() {
        assert_eq!(
            spec("paper", 2004, Scale::Full).unwrap().trace,
            TraceGenConfig::paper()
        );
        let sp3d = spec("sp3d", 2004, Scale::Full).unwrap().trace;
        assert_eq!((sp3d.base_cells, sp3d.max_levels, sp3d.steps), (32, 3, 40));
        for name in ["sweep", "adaptive"] {
            let t = spec(name, 2004, Scale::Full).unwrap().trace;
            assert_eq!(t, configs::reduced(), "{name}");
        }
    }

    #[test]
    fn repetition_seeds_start_at_the_seed_and_never_collide() {
        for name in NAMES {
            assert_eq!(seeds(name, 2004, Scale::Bench)[0], 2004);
            assert_eq!(seeds(name, 2004, Scale::Full), vec![2004]);
            let mut all: Vec<u64> = (1..=10)
                .flat_map(|s| seeds(name, s, Scale::Bench))
                .collect();
            let n = all.len();
            all.sort();
            all.dedup();
            assert_eq!(all.len(), n, "{name}");
        }
    }

    #[test]
    fn the_seed_reaches_the_trace_config() {
        for name in NAMES {
            for scale in [Scale::Smoke, Scale::Bench, Scale::Full] {
                assert_eq!(spec(name, 99, scale).unwrap().trace.seed, 99);
            }
        }
        assert!(spec("nope", 1, Scale::Bench).is_err());
        assert_eq!(Scale::parse("full"), Ok(Scale::Full));
        assert!(Scale::parse("huge").is_err());
    }
}
