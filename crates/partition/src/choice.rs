//! A fully configured, serializable partitioner choice.
//!
//! Every configured partitioner family in one enum — the single registry
//! the meta-partitioner's selector, the campaign engine, the benches and
//! the CLI all share (previously each kept its own ad-hoc match block).
//! The enum is `serde`-serializable so a choice can ride inside a
//! campaign scenario description and round-trip through JSON artifacts.
//! The parameters are dimension-free; the same choice partitions 2-D and
//! 3-D hierarchies (the generic methods pick the instantiation).

use crate::hybrid::{HybridParams, HybridPartitioner};
use crate::patch_part::{PatchParams, PatchPartitioner};
use crate::sfc_part::{DomainSfcParams, DomainSfcPartitioner};
use crate::types::{Partition, PartitionScratch, Partitioner};
use samr_grid::GridHierarchy;
use serde::{Deserialize, Serialize};

/// A fully configured partitioner choice.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum PartitionerChoice {
    /// Domain-based SFC partitioning with the given parameters.
    DomainSfc(DomainSfcParams),
    /// Patch-based LPT partitioning with the given parameters.
    Patch(PatchParams),
    /// Hybrid Hue/Core bi-level partitioning with the given parameters.
    Hybrid(HybridParams),
}

impl PartitionerChoice {
    /// Default-configured choices of the three families, in the paper's
    /// presentation order.
    pub const FAMILIES: [&'static str; 3] = ["domain-based", "patch-based", "hybrid"];

    /// Short family name.
    pub fn family(&self) -> &'static str {
        match self {
            Self::DomainSfc(_) => "domain-based",
            Self::Patch(_) => "patch-based",
            Self::Hybrid(_) => "hybrid",
        }
    }

    /// Full configured name.
    pub fn name(&self) -> String {
        // The name is dimension-independent; instantiate at 2-D.
        Partitioner::<2>::name(&*self.boxed::<2>())
    }

    /// Partition a hierarchy with this choice.
    pub fn partition<const D: usize>(&self, h: &GridHierarchy<D>, nprocs: usize) -> Partition<D> {
        self.boxed::<D>().partition(h, nprocs)
    }

    /// [`partition`](Self::partition) with the intermediates in
    /// `scratch` (see [`Partitioner::partition_with`]).
    pub fn partition_with<const D: usize>(
        &self,
        h: &GridHierarchy<D>,
        nprocs: usize,
        scratch: &mut PartitionScratch<D>,
    ) -> Partition<D> {
        self.boxed::<D>().partition_with(h, nprocs, scratch)
    }

    /// Invocation cost estimate of this choice.
    pub fn cost_estimate<const D: usize>(&self, h: &GridHierarchy<D>) -> f64 {
        self.boxed::<D>().cost_estimate(h)
    }

    /// Materialize the configured partitioner behind a trait object.
    pub fn boxed<const D: usize>(&self) -> Box<dyn Partitioner<D> + Send + Sync> {
        match self {
            Self::DomainSfc(p) => Box::new(DomainSfcPartitioner::new(*p)),
            Self::Patch(p) => Box::new(PatchPartitioner::new(*p)),
            Self::Hybrid(p) => Box::new(HybridPartitioner::new(*p)),
        }
    }

    /// The default-configured domain-based choice.
    pub fn domain_sfc() -> Self {
        Self::DomainSfc(DomainSfcParams::default())
    }

    /// The default-configured patch-based choice.
    pub fn patch() -> Self {
        Self::Patch(PatchParams::default())
    }

    /// The default-configured hybrid choice (the paper's static neutral
    /// set-up).
    pub fn hybrid() -> Self {
        Self::Hybrid(HybridParams::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samr_geom::{Box3, Rect2};

    #[test]
    fn families_are_distinct_and_named() {
        let choices = [
            PartitionerChoice::domain_sfc(),
            PartitionerChoice::patch(),
            PartitionerChoice::hybrid(),
        ];
        for (c, family) in choices.iter().zip(PartitionerChoice::FAMILIES) {
            assert_eq!(c.family(), family);
            assert!(!c.name().is_empty());
        }
    }

    #[test]
    fn distinct_configurations_get_distinct_names() {
        use crate::patch_part::PatchAssign;
        use samr_geom::sfc::SfcCurve;
        // The defaults keep their historical names.
        assert_eq!(
            PartitionerChoice::domain_sfc().name(),
            "domain-sfc(Hilbert,full,u2)"
        );
        assert_eq!(PartitionerChoice::patch().name(), "patch-sfc(split1.0)");
        assert_eq!(
            PartitionerChoice::hybrid().name(),
            "hybrid-nf(Morton,partial,u2,bi2)"
        );
        // One configuration per changed parameter, plus combinations.
        let domain = |set: fn(&mut DomainSfcParams)| {
            let mut p = DomainSfcParams::default();
            set(&mut p);
            PartitionerChoice::DomainSfc(p)
        };
        let patch = |set: fn(&mut PatchParams)| {
            let mut p = PatchParams::default();
            set(&mut p);
            PartitionerChoice::Patch(p)
        };
        let hybrid = |set: fn(&mut HybridParams)| {
            let mut p = HybridParams::default();
            set(&mut p);
            PartitionerChoice::Hybrid(p)
        };
        let choices = [
            domain(|_| {}),
            domain(|p| p.atomic_unit = 4),
            domain(|p| p.curve = SfcCurve::Morton),
            domain(|p| p.full_order = false),
            patch(|_| {}),
            patch(|p| p.split_factor = 0.5),
            patch(|p| p.split_factor = 0.54),
            patch(|p| p.split_factor = 2.0),
            patch(|p| p.min_block = 4),
            patch(|p| p.assign = PatchAssign::Lpt),
            hybrid(|_| {}),
            hybrid(|p| p.hue_blocks_per_proc = 3),
            hybrid(|p| (p.hue_blocks_per_proc, p.fractional_blocking) = (3, true)),
            hybrid(|p| p.fractional_blocking = true),
            hybrid(|p| p.bilevel_size = 1),
            hybrid(|p| p.atomic_unit = 4),
            hybrid(|p| (p.curve, p.full_order) = (SfcCurve::Hilbert, true)),
        ];
        for (i, a) in choices.iter().enumerate() {
            for b in &choices[i + 1..] {
                assert_ne!(a.name(), b.name(), "{a:?} and {b:?}");
            }
        }
    }

    #[test]
    fn choice_partitions_like_the_underlying_partitioner() {
        let h = GridHierarchy::from_level_rects(
            Rect2::from_extents(32, 32),
            2,
            &[vec![], vec![Rect2::from_coords(8, 8, 23, 23)]],
        );
        let choice = PartitionerChoice::hybrid();
        let direct = HybridPartitioner::default().partition(&h, 4);
        assert_eq!(choice.partition(&h, 4), direct);
        let mut scratch = PartitionScratch::default();
        assert_eq!(choice.partition_with(&h, 4, &mut scratch), direct);
        assert_eq!(
            choice.cost_estimate(&h),
            Partitioner::<2>::cost_estimate(&HybridPartitioner::default(), &h)
        );
    }

    #[test]
    fn same_choice_partitions_both_dimensions() {
        let h3 = GridHierarchy::from_level_rects(
            Box3::from_extents(12, 12, 12),
            2,
            &[vec![], vec![Box3::from_coords(4, 4, 4, 11, 11, 11)]],
        );
        for choice in [
            PartitionerChoice::domain_sfc(),
            PartitionerChoice::patch(),
            PartitionerChoice::hybrid(),
        ] {
            let part = choice.partition(&h3, 4);
            assert_eq!(crate::types::validate_partition(&h3, &part), Ok(()));
        }
    }

    #[test]
    fn static_families_select_their_own_configuration() {
        let h = GridHierarchy::base_only(Rect2::from_extents(8, 8), 2);
        let frac = PartitionerChoice::Hybrid(crate::HybridParams {
            fractional_blocking: true,
            ..Default::default()
        });
        for choice in [
            PartitionerChoice::domain_sfc(),
            PartitionerChoice::patch(),
            PartitionerChoice::hybrid(),
            frac,
        ] {
            assert_eq!(choice.boxed::<2>().select(&h, 4), Some(choice));
        }
    }
}
