//! The partitioner registry: every partitioner the engine can run, by
//! name.
//!
//! A [`PartitionerSpec`] is the serializable *description* of a
//! partitioner — either a static configured family
//! ([`PartitionerChoice`]) or one of the dynamic selectors (the adaptive
//! meta-partitioner, the octant-approach baseline). The CLI parses specs
//! from names, campaigns sweep over them, and scenario artifacts record
//! them, so one registry replaces the per-consumer match blocks the
//! facade, benches and CLI used to carry. The description is
//! dimension-free: the same spec materializes a 2-D or a 3-D partitioner
//! depending on the hierarchy it is asked to cut.
//!
//! Beyond the default-configured families, the registry names *parameter
//! presets* (`family:preset`, e.g. `domain-sfc:morton`, `hybrid:frac`,
//! `patch:lpt`): the §4 tunables the paper says a meta-partitioner
//! steers — curve, ordering, atomic unit, bi-level grouping, fractional
//! blocking/splitting — so campaigns can sweep *configurations*, not
//! just families. Preset slugs replace `:` with `-` and stay file-safe.

use samr_meta::{MetaPartitioner, OctantMetaPartitioner};
use samr_partition::{
    DomainSfcParams, HybridParams, Partitioner, PartitionerChoice, PatchAssign, PatchParams,
    SfcCurve,
};
use samr_sim::{default_window, MachineModel};
use serde::{Deserialize, Serialize};

/// A named, serializable partitioner specification.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum PartitionerSpec {
    /// A static configured choice (family + parameters).
    Static(PartitionerChoice),
    /// The adaptive meta-partitioner (continuous classification); its
    /// selector thresholds are derived from the scenario's machine model.
    Meta,
    /// The octant-approach baseline (discrete classification).
    OctantMeta,
}

impl PartitionerSpec {
    /// Every name [`PartitionerSpec::parse`] accepts, with the spec it
    /// produces — the registry the CLI help and campaign sweeps use.
    /// Bare family names carry the default configuration;
    /// `family:preset` names carry the named parameter presets (curve,
    /// ordering, atomic unit, bi-level grouping, fractional
    /// blocking/splitting).
    pub fn registry() -> Vec<(&'static str, PartitionerSpec)> {
        let domain = |params: DomainSfcParams| Self::Static(PartitionerChoice::DomainSfc(params));
        let patch = |params: PatchParams| Self::Static(PartitionerChoice::Patch(params));
        let hybrid = |params: HybridParams| Self::Static(PartitionerChoice::Hybrid(params));
        vec![
            ("domain-sfc", Self::Static(PartitionerChoice::domain_sfc())),
            // Morton instead of Hilbert linearization.
            (
                "domain-sfc:morton",
                domain(DomainSfcParams {
                    curve: SfcCurve::Morton,
                    ..DomainSfcParams::default()
                }),
            ),
            // The partially ordered mapping §5.2 suspects of inflating
            // migration.
            (
                "domain-sfc:partial",
                domain(DomainSfcParams {
                    full_order: false,
                    ..DomainSfcParams::default()
                }),
            ),
            // A coarser atomic unit (fewer, heavier units).
            (
                "domain-sfc:u4",
                domain(DomainSfcParams {
                    atomic_unit: 4,
                    ..DomainSfcParams::default()
                }),
            ),
            ("patch", Self::Static(PartitionerChoice::patch())),
            // Longest-processing-time greedy assignment (unstable across
            // regrids, best instantaneous balance).
            (
                "patch:lpt",
                patch(PatchParams {
                    assign: PatchAssign::Lpt,
                    ..PatchParams::default()
                }),
            ),
            // Fractional splitting: pieces bounded at half the ideal
            // per-processor load — the patch-based analogue of
            // fractional blocking.
            (
                "patch:frac",
                patch(PatchParams {
                    split_factor: 0.5,
                    ..PatchParams::default()
                }),
            ),
            ("hybrid", Self::Static(PartitionerChoice::hybrid())),
            // Fractional blocking of the Hue top-up (§4).
            (
                "hybrid:frac",
                hybrid(HybridParams {
                    fractional_blocking: true,
                    ..HybridParams::default()
                }),
            ),
            // Fully ordered Hilbert curve for the Core splits.
            (
                "hybrid:hilbert",
                hybrid(HybridParams {
                    curve: SfcCurve::Hilbert,
                    full_order: true,
                    ..HybridParams::default()
                }),
            ),
            // Single-level bi-levels (per-level Core splits).
            (
                "hybrid:g1",
                hybrid(HybridParams {
                    bilevel_size: 1,
                    ..HybridParams::default()
                }),
            ),
            ("meta", Self::Meta),
            ("octant-meta", Self::OctantMeta),
        ]
    }

    /// Parse a spec from its registry name: a bare family (`domain-sfc`
    /// — alias `domain` —, `patch`, `hybrid`, `meta`, `octant-meta`) or
    /// a named preset (`domain-sfc:morton`, `hybrid:frac`, `patch:lpt`,
    /// …).
    pub fn parse(name: &str) -> Result<Self, String> {
        let canonical = match name {
            "domain" => "domain-sfc",
            other => other,
        };
        Self::registry()
            .into_iter()
            .find(|(n, _)| *n == canonical)
            .map(|(_, s)| s)
            .ok_or_else(|| {
                let names: Vec<&str> = Self::registry().iter().map(|(n, _)| *n).collect();
                format!(
                    "unknown partitioner '{name}' (expected one of {})",
                    names.join(", ")
                )
            })
    }

    /// The stable file-safe slug used in artifact names: the registry
    /// name with `:` folded to `-` (`domain-sfc:morton` →
    /// `domain-sfc-morton`), or the bare family name for configurations
    /// not in the registry.
    pub fn slug(&self) -> String {
        if let Some((name, _)) = Self::registry().into_iter().find(|(_, s)| s == self) {
            return name.replace(':', "-");
        }
        match self {
            Self::Static(c) => match c {
                PartitionerChoice::DomainSfc(_) => "domain-sfc",
                PartitionerChoice::Patch(_) => "patch",
                PartitionerChoice::Hybrid(_) => "hybrid",
            },
            Self::Meta => "meta",
            Self::OctantMeta => "octant-meta",
        }
        .to_string()
    }

    /// Full configured name (as reported in results).
    pub fn name(&self, machine: &MachineModel) -> String {
        self.build::<2>(machine).name()
    }

    /// `true` for dynamic selectors whose decisions depend on invocation
    /// order; their scenarios are simulated sequentially, never
    /// snapshot-parallel.
    pub fn stateful(&self) -> bool {
        matches!(self, Self::Meta | Self::OctantMeta)
    }

    /// Materialize the partitioner for a machine (the machine model is
    /// the system component of the meta-partitioner's PAC triple) at the
    /// requested dimension.
    pub fn build<const D: usize>(
        &self,
        machine: &MachineModel,
    ) -> Box<dyn Partitioner<D> + Send + Sync> {
        match self {
            Self::Static(choice) => choice.boxed::<D>(),
            Self::Meta => Box::new(MetaPartitioner::<D>::for_machine(machine)),
            Self::OctantMeta => Box::new(OctantMetaPartitioner::<D>::new()),
        }
    }

    /// The streaming window this spec simulates under: the
    /// rayon-matched default for static choices, `1` (strictly
    /// sequential) for stateful selectors whose decisions depend on
    /// invocation order.
    pub fn window(&self) -> usize {
        if self.stateful() {
            1
        } else {
            default_window()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registry_name_parses_to_itself() {
        for (name, spec) in PartitionerSpec::registry() {
            assert_eq!(PartitionerSpec::parse(name).unwrap(), spec);
            assert_eq!(spec.slug(), name.replace(':', "-"));
            assert!(
                !spec.slug().contains([':', '/', ' ']),
                "slug {} is not file-safe",
                spec.slug()
            );
        }
    }

    #[test]
    fn registry_entries_are_distinct() {
        // A preset equal to a family default would make slug lookup
        // ambiguous and expand campaigns to duplicate scenarios.
        let registry = PartitionerSpec::registry();
        for (i, (_, a)) in registry.iter().enumerate() {
            for (_, b) in &registry[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn presets_configure_the_advertised_parameters() {
        use samr_partition::SfcCurve;
        match PartitionerSpec::parse("domain-sfc:morton").unwrap() {
            PartitionerSpec::Static(PartitionerChoice::DomainSfc(p)) => {
                assert_eq!(p.curve, SfcCurve::Morton)
            }
            other => panic!("wrong spec {other:?}"),
        }
        match PartitionerSpec::parse("hybrid:frac").unwrap() {
            PartitionerSpec::Static(PartitionerChoice::Hybrid(p)) => {
                assert!(p.fractional_blocking)
            }
            other => panic!("wrong spec {other:?}"),
        }
        match PartitionerSpec::parse("patch:frac").unwrap() {
            PartitionerSpec::Static(PartitionerChoice::Patch(p)) => {
                assert_eq!(p.split_factor, 0.5)
            }
            other => panic!("wrong spec {other:?}"),
        }
        // Presets simulate like any static choice (not stateful).
        assert!(!PartitionerSpec::parse("hybrid:g1").unwrap().stateful());
    }

    #[test]
    fn domain_alias_parses() {
        assert_eq!(
            PartitionerSpec::parse("domain").unwrap(),
            PartitionerSpec::Static(PartitionerChoice::domain_sfc())
        );
    }

    #[test]
    fn unknown_names_are_rejected_with_the_registry() {
        let err = PartitionerSpec::parse("simd").unwrap_err();
        assert!(
            err.contains("hybrid") && err.contains("octant-meta"),
            "{err}"
        );
    }

    #[test]
    fn only_dynamic_selectors_are_stateful() {
        assert!(PartitionerSpec::Meta.stateful());
        assert!(PartitionerSpec::OctantMeta.stateful());
        assert!(!PartitionerSpec::parse("hybrid").unwrap().stateful());
    }

    #[test]
    fn specs_roundtrip_through_json() {
        for (_, spec) in PartitionerSpec::registry() {
            let json = serde_json::to_string(&spec).unwrap();
            let back: PartitionerSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(spec, back, "{json}");
        }
    }

    #[test]
    fn specs_build_partitioners_of_either_dimension() {
        use samr_geom::Box3;
        use samr_grid::GridHierarchy;
        let machine = MachineModel::default();
        let h = GridHierarchy::from_level_rects(
            Box3::from_extents(8, 8, 8),
            2,
            &[vec![], vec![Box3::from_coords(2, 2, 2, 9, 9, 9)]],
        );
        for (_, spec) in PartitionerSpec::registry() {
            let p = spec.build::<3>(&machine);
            let part = p.partition(&h, 4);
            assert_eq!(samr_partition::validate_partition(&h, &part), Ok(()));
        }
    }
}
