//! The legacy octant approach and the ArMADA-style relative classifier
//! (§3) — the baselines the paper critiques.
//!
//! The octant approach classifies application/system state along three
//! discrete axes — (I) scattered ↔ localized refinement, (II) computation-
//! ↔ communication-dominated, (III) low ↔ high activity dynamics — and
//! maps the resulting octant onto a partitioning technique. The paper
//! shows the space is inadequate (the time-domination axis cannot be
//! determined without assuming a partitioning — the "circle" — and high
//! activity dynamics does not automatically demand a cheap partitioner).
//! ArMADA implements a relative version using simple box operations; even
//! that reduced execution times, which is the proof of concept the
//! meta-partitioner builds on.

use samr_grid::stats::ActivityDynamics;
use samr_grid::{GridHierarchy, HierarchyStats};
use serde::{Deserialize, Serialize};

/// One axis of the octant cube.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Axis1 {
    /// Refinement concentrated in few compact regions.
    Localized,
    /// Refinement spread over the domain.
    Scattered,
}

/// Time-domination axis (the problematic one, §3.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Axis2 {
    /// Run time dominated by computation.
    ComputationDominated,
    /// Run time dominated by communication.
    CommunicationDominated,
}

/// Activity-dynamics axis.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Axis3 {
    /// The solution changes slowly.
    LowDynamics,
    /// The solution changes quickly.
    HighDynamics,
}

/// A discrete octant classification.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Octant {
    /// Refinement-pattern axis.
    pub pattern: Axis1,
    /// Time-domination axis.
    pub domination: Axis2,
    /// Activity-dynamics axis.
    pub dynamics: Axis3,
}

impl Octant {
    /// Octant index 0..8 (pattern bit 0, domination bit 1, dynamics
    /// bit 2).
    pub fn index(&self) -> u8 {
        u8::from(self.pattern == Axis1::Scattered)
            | (u8::from(self.domination == Axis2::CommunicationDominated) << 1)
            | (u8::from(self.dynamics == Axis3::HighDynamics) << 2)
    }

    /// The partitioner family the published mapping would select for this
    /// octant (Steensland et al.'s characterization: domain-based for
    /// localized/computation-dominated states, patch-based for
    /// communication-dominated scattered states, hybrid otherwise).
    pub fn suggested_family(&self) -> &'static str {
        match (self.pattern, self.domination, self.dynamics) {
            (Axis1::Localized, Axis2::ComputationDominated, _) => "domain-based",
            (Axis1::Scattered, Axis2::CommunicationDominated, _) => "patch-based",
            (_, _, Axis3::HighDynamics) => "hybrid",
            _ => "domain-based",
        }
    }
}

/// ArMADA-style classifier: *relative* to the previous state, using only
/// simple box operations on the hierarchy (volume-to-surface ratios,
/// occupancy, step-to-step change). It deliberately disregards the system
/// component, exactly as ArMADA did.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ArmadaClassifier {
    /// The previous sample's localization.
    prev_localization: Option<f64>,
}

impl ArmadaClassifier {
    /// Start unclassified.
    pub fn new() -> Self {
        Self::default()
    }

    /// Classify the next snapshot. The first call uses absolute
    /// thresholds; later calls move axes relative to the previous sample
    /// (the paper: "the classification is relative to the previous
    /// state").
    pub fn classify<const D: usize>(
        &mut self,
        prev_h: Option<&GridHierarchy<D>>,
        h: &GridHierarchy<D>,
    ) -> Octant {
        let stats = HierarchyStats::compute(h);
        let surface_to_volume = (1..stats.depth())
            .map(|l| stats.surface_to_volume(l))
            .fold(0.0f64, f64::max);
        let dynamics = match prev_h {
            Some(p) => {
                let d = ActivityDynamics::between(p, h);
                if d.size_change > 0.1 || d.structure_change > 0.25 {
                    Axis3::HighDynamics
                } else {
                    Axis3::LowDynamics
                }
            }
            None => Axis3::LowDynamics,
        };
        let localized = match self.prev_localization {
            Some(prev) => stats.localization >= prev,
            None => stats.localization > 0.5,
        };
        let pattern = if localized {
            Axis1::Localized
        } else {
            Axis1::Scattered
        };
        // The (flawed) time-domination axis: ArMADA proxied it with the
        // volume-to-surface ratio of the refined levels.
        let domination = if surface_to_volume > 0.5 {
            Axis2::CommunicationDominated
        } else {
            Axis2::ComputationDominated
        };
        self.prev_localization = Some(stats.localization);
        Octant {
            pattern,
            domination,
            dynamics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samr_geom::Rect2;

    fn r(x0: i64, y0: i64, x1: i64, y1: i64) -> Rect2 {
        Rect2::from_coords(x0, y0, x1, y1)
    }

    fn h(levels: &[Vec<Rect2>]) -> GridHierarchy<2> {
        GridHierarchy::from_level_rects(Rect2::from_extents(32, 32), 2, levels)
    }

    #[test]
    fn octant_index_covers_all_eight() {
        let mut seen = std::collections::HashSet::new();
        for pattern in [Axis1::Localized, Axis1::Scattered] {
            for domination in [Axis2::ComputationDominated, Axis2::CommunicationDominated] {
                for dynamics in [Axis3::LowDynamics, Axis3::HighDynamics] {
                    seen.insert(
                        Octant {
                            pattern,
                            domination,
                            dynamics,
                        }
                        .index(),
                    );
                }
            }
        }
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn mapping_follows_published_rules() {
        let o = Octant {
            pattern: Axis1::Localized,
            domination: Axis2::ComputationDominated,
            dynamics: Axis3::LowDynamics,
        };
        assert_eq!(o.suggested_family(), "domain-based");
        let o = Octant {
            pattern: Axis1::Scattered,
            domination: Axis2::CommunicationDominated,
            dynamics: Axis3::LowDynamics,
        };
        assert_eq!(o.suggested_family(), "patch-based");
        let o = Octant {
            pattern: Axis1::Localized,
            domination: Axis2::CommunicationDominated,
            dynamics: Axis3::HighDynamics,
        };
        assert_eq!(o.suggested_family(), "hybrid");
    }

    #[test]
    fn armada_detects_dynamics() {
        let a = h(&[vec![], vec![r(4, 4, 19, 19)]]);
        let b = h(&[vec![], vec![r(40, 40, 55, 55)]]);
        let mut c = ArmadaClassifier::new();
        let first = c.classify(None, &a);
        assert_eq!(first.dynamics, Axis3::LowDynamics);
        let second = c.classify(Some(&a), &b);
        assert_eq!(second.dynamics, Axis3::HighDynamics);
    }

    #[test]
    fn armada_pattern_is_relative() {
        // A compact blob first, then scattered tiles: the classifier must
        // flip the pattern axis.
        let compact = h(&[vec![], vec![r(20, 20, 43, 43)]]);
        let scattered = h(&[
            vec![],
            vec![
                r(0, 0, 7, 7),
                r(56, 0, 63, 7),
                r(0, 56, 7, 63),
                r(56, 56, 63, 63),
            ],
        ]);
        let mut c = ArmadaClassifier::new();
        c.classify(None, &compact);
        let o = c.classify(Some(&compact), &scattered);
        assert_eq!(o.pattern, Axis1::Scattered);
    }

    #[test]
    fn thin_patches_read_communication_dominated() {
        let thin = h(&[vec![], vec![r(0, 0, 63, 1)]]);
        let mut c = ArmadaClassifier::new();
        let o = c.classify(None, &thin);
        assert_eq!(o.domination, Axis2::CommunicationDominated);
    }
}
