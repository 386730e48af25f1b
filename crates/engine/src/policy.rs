//! The repartitioning-policy registry: how a scenario's partitioner is
//! *driven over time*.
//!
//! A [`PolicySpec`] is the serializable description of a
//! [`samr_sim::policy::PartitionPolicy`]: either the static policy
//! (one partitioner for the whole run — exactly the engine's historical
//! behavior) or an adaptive policy preset
//! ([`samr_meta::AdaptiveConfig`]) that watches observed per-snapshot
//! imbalance and communication and switches between the scenario's own
//! partitioner and a balance-first fallback mid-run, paying each
//! switch's migration bill. Campaigns sweep policies as a first-class
//! axis ([`crate::CampaignSpec::policies`]), orthogonal to the
//! partitioner axis: `partitioners × policies` asks, for every
//! partitioner, whether *adapting away from it* under pressure beats
//! staying put.

use crate::spec::PartitionerSpec;
use samr_meta::{adaptive_presets, AdaptiveConfig, AdaptivePolicy};
use samr_sim::{
    simulate_policy_source_stats, MachineModel, PartitionPolicy, SimConfig, SimResult,
    StaticPolicy, StreamStats,
};
use samr_trace::io::TraceIoError;
use samr_trace::SnapshotSource;
use serde::{Deserialize, Serialize};

/// A named, serializable repartitioning-policy specification.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum PolicySpec {
    /// One partitioner for the whole run (the engine's historical
    /// behavior; the default policy axis is `[Static]`).
    Static,
    /// Adaptive repartitioning: run the scenario's partitioner until
    /// observed metrics cross the config's hysteresis thresholds, then
    /// switch to the balanced fallback (and back), charging each
    /// switch's full migration volume.
    Adaptive(AdaptiveConfig),
}

impl PolicySpec {
    /// Every name [`PolicySpec::parse`] accepts, with the spec it
    /// produces: `static` plus one `adaptive:NAME` entry per
    /// [`adaptive_presets`] preset.
    pub fn registry() -> Vec<(String, PolicySpec)> {
        let mut out = vec![("static".to_string(), Self::Static)];
        for (name, cfg) in adaptive_presets() {
            out.push((format!("adaptive:{name}"), Self::Adaptive(cfg)));
        }
        out
    }

    /// Parse a spec from its registry name (`static`,
    /// `adaptive:balance`, `adaptive:eager`, `adaptive:patient`; bare
    /// `adaptive` is the default preset).
    pub fn parse(name: &str) -> Result<Self, String> {
        let canonical = match name {
            "adaptive" => "adaptive:balance",
            other => other,
        };
        Self::registry()
            .into_iter()
            .find(|(n, _)| n == canonical)
            .map(|(_, s)| s)
            .ok_or_else(|| {
                let names: Vec<String> = Self::registry().into_iter().map(|(n, _)| n).collect();
                format!(
                    "unknown policy '{name}' (expected one of {})",
                    names.join(", ")
                )
            })
    }

    /// The registry name of the policy (`adaptive:custom` for an
    /// adaptive config that matches no preset).
    pub fn name(&self) -> String {
        if let Some((name, _)) = Self::registry().into_iter().find(|(_, s)| s == self) {
            return name;
        }
        match self {
            Self::Static => "static".to_string(),
            Self::Adaptive(_) => "adaptive:custom".to_string(),
        }
    }

    /// The scenario-slug suffix this policy appends: empty for the
    /// static policy (historical slugs stay byte-identical), `_aNAME`
    /// for adaptive presets (`_abalance`, `_aeager`, …) — file-safe by
    /// construction.
    pub fn slug_suffix(&self) -> String {
        match self {
            Self::Static => String::new(),
            Self::Adaptive(_) => {
                let name = self.name();
                let preset = name.strip_prefix("adaptive:").unwrap_or("custom");
                format!("_a{preset}")
            }
        }
    }

    /// `true` for the static policy — the only policy whose scenarios
    /// may simulate snapshot-parallel inside the streaming window.
    pub fn is_static(&self) -> bool {
        matches!(self, Self::Static)
    }

    /// The policy driving `partitioner`, built for `machine` (the
    /// meta-partitioner reads it): the static policy owns the built
    /// partitioner, an adaptive policy runs it as its local mode.
    pub fn build<const D: usize>(
        &self,
        partitioner: &PartitionerSpec,
        machine: &MachineModel,
    ) -> Box<dyn PartitionPolicy<D> + Send> {
        let local = partitioner.build::<D>(machine);
        match self {
            Self::Static => Box::new(StaticPolicy::owning(local)),
            Self::Adaptive(acfg) => Box::new(AdaptivePolicy::<D>::new(local, *acfg)),
        }
    }

    /// The streaming window this policy runs `partitioner` at: the
    /// static policy runs at [`PartitionerSpec::window`] (windowed
    /// snapshot-parallel for static partitioners, strictly sequential
    /// for stateful selectors); adaptive policies always run
    /// sequentially at window 1, because a pending switch must see every
    /// snapshot's observed metrics before the next is partitioned.
    pub fn window(&self, partitioner: &PartitionerSpec) -> usize {
        match self {
            Self::Static => partitioner.window(),
            Self::Adaptive(_) => 1,
        }
    }

    /// Simulate a snapshot stream on one configuration: the scenario's
    /// partitioner driven by this policy at [`window`](Self::window),
    /// with peak residency `O(window)`. Campaigns run scenarios in
    /// cohorts instead ([`crate::Scenario::run_cohort`]); each member's
    /// result equals this one.
    pub fn simulate_source<const D: usize>(
        &self,
        partitioner: &PartitionerSpec,
        source: &mut (dyn SnapshotSource<D> + '_),
        cfg: &SimConfig,
    ) -> Result<(SimResult, StreamStats), TraceIoError> {
        let mut policy = self.build::<D>(partitioner, &cfg.machine);
        simulate_policy_source_stats(source, policy.as_mut(), cfg, self.window(partitioner))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samr_apps::{generate_trace, AppKind, TraceGenConfig};
    use samr_trace::MemorySource;

    #[test]
    fn every_registry_name_parses_to_itself() {
        let registry = PolicySpec::registry();
        assert_eq!(registry[0].0, "static");
        assert_eq!(registry.len(), 1 + adaptive_presets().len());
        for (name, spec) in registry {
            assert_eq!(PolicySpec::parse(&name).unwrap(), spec);
            assert_eq!(spec.name(), name);
            assert!(
                !spec.slug_suffix().contains([':', '/', ' ']),
                "suffix {} is not file-safe",
                spec.slug_suffix()
            );
        }
    }

    #[test]
    fn aliases_and_unknown_names() {
        assert_eq!(
            PolicySpec::parse("adaptive").unwrap(),
            PolicySpec::Adaptive(AdaptiveConfig::balance())
        );
        let err = PolicySpec::parse("sometimes").unwrap_err();
        assert!(
            err.contains("static") && err.contains("adaptive:patient"),
            "{err}"
        );
    }

    #[test]
    fn slug_suffixes_are_stable() {
        assert_eq!(PolicySpec::Static.slug_suffix(), "");
        assert_eq!(
            PolicySpec::Adaptive(AdaptiveConfig::eager()).slug_suffix(),
            "_aeager"
        );
        // A hand-tuned config off the preset registry still slugs.
        let custom = PolicySpec::Adaptive(AdaptiveConfig {
            imbalance_enter: 9.0,
            ..AdaptiveConfig::balance()
        });
        assert_eq!(custom.name(), "adaptive:custom");
        assert_eq!(custom.slug_suffix(), "_acustom");
    }

    #[test]
    fn policies_roundtrip_through_json() {
        for (_, spec) in PolicySpec::registry() {
            let json = serde_json::to_string(&spec).unwrap();
            let back: PolicySpec = serde_json::from_str(&json).unwrap();
            assert_eq!(spec, back, "{json}");
        }
    }

    #[test]
    fn static_policy_simulates_at_the_spec_window() {
        // Static partitioners keep the window-parallel path (more than
        // the current pair resident); stateful selectors run at window 1.
        // Both give the strictly sequential result.
        let trace = generate_trace(AppKind::Tp2d, &TraceGenConfig::smoke());
        assert!(trace.len() > 2);
        let cfg = SimConfig {
            nprocs: 8,
            ..SimConfig::default()
        };
        for name in ["hybrid", "domain-sfc", "meta"] {
            let part = PartitionerSpec::parse(name).unwrap();
            let (res, stats) = PolicySpec::Static
                .simulate_source::<2>(&part, &mut MemorySource::new(&trace), &cfg)
                .unwrap();
            assert_eq!(stats.peak_resident <= 2, part.stateful(), "{name}");
            assert!(stats.switch_events.is_empty());
            let local = part.build::<2>(&cfg.machine);
            let (sequential, _) = simulate_policy_source_stats(
                &mut MemorySource::new(&trace),
                &mut StaticPolicy::new(local.as_ref()),
                &cfg,
                1,
            )
            .unwrap();
            assert_eq!(res, sequential, "{name}");
        }
    }

    #[test]
    fn adaptive_policy_runs_and_reports_stats() {
        let trace = generate_trace(AppKind::Bl2d, &TraceGenConfig::smoke());
        let cfg = SimConfig {
            nprocs: 8,
            ..SimConfig::default()
        };
        let part = PartitionerSpec::parse("domain-sfc").unwrap();
        let spec = PolicySpec::Adaptive(AdaptiveConfig::balance());
        let (res, stats) = spec
            .simulate_source::<2>(&part, &mut MemorySource::new(&trace), &cfg)
            .unwrap();
        assert!(res.total_time > 0.0);
        assert_eq!(stats.snapshots, trace.len());
        assert_eq!(stats.switches(), stats.switch_events.len());
    }
}
