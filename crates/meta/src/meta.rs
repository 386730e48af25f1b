//! The meta-partitioner: a stateful [`Partitioner`] that re-classifies
//! the hierarchy at every invocation and delegates to the selected,
//! configured technique — Figure 2 of the paper as running code. This
//! enables fully dynamic `P(A(t), C(t))` triples: the partitioning
//! technique is a function of the current application state.

use parking_lot::Mutex;
use samr_core::tradeoff1::{beta_c, beta_l, dimension1};
use samr_core::tradeoff2::Tradeoff2State;
use samr_core::tradeoff3::beta_m;
use samr_core::ClassificationPoint;
use samr_grid::GridHierarchy;
use samr_partition::{Partition, Partitioner};

use crate::selector::{PartitionerChoice, Selector, SelectorConfig};

/// Dynamic partitioner selection state.
struct MetaState<const D: usize> {
    prev_hierarchy: Option<GridHierarchy<D>>,
    selector: Selector,
    tradeoff2: Tradeoff2State,
    clock: f64,
    history: Vec<(ClassificationPoint, PartitionerChoice)>,
}

/// The adaptive meta-partitioner.
///
/// Implements [`Partitioner`], so it can be dropped in anywhere a static
/// partitioner is used; internally it runs the `samr-core` model against
/// the previously seen hierarchy, maps the classification point through
/// the [`Selector`], and invokes the chosen configured technique.
///
/// Invocations are assumed to arrive in trace order (the partitioner is
/// stateful by design — that is the whole point); interior mutability
/// keeps the [`Partitioner`] interface intact.
pub struct MetaPartitioner<const D: usize> {
    state: Mutex<MetaState<D>>,
    unit: i64,
}

impl<const D: usize> MetaPartitioner<D> {
    /// Meta-partitioner with default selector thresholds (the balanced
    /// default machine).
    pub fn new() -> Self {
        Self::with_config(SelectorConfig::default())
    }

    /// Meta-partitioner configured for a concrete machine — the system
    /// (C) component of the PAC triple: the selector weighs communication
    /// against computation using the machine's actual cost ratio.
    pub fn for_machine(machine: &samr_sim::MachineModel) -> Self {
        Self::with_config(SelectorConfig {
            comm_cost_ratio: machine.cell_transfer / machine.cell_update.max(1e-12),
            ..SelectorConfig::default()
        })
    }

    /// Meta-partitioner with explicit selector thresholds.
    pub fn with_config(config: SelectorConfig) -> Self {
        Self {
            state: Mutex::new(MetaState {
                prev_hierarchy: None,
                selector: Selector::new(config),
                tradeoff2: Tradeoff2State::new(1.0),
                clock: 0.0,
                history: Vec::new(),
            }),
            unit: 2,
        }
    }

    /// The sequence of `(classification point, choice)` decisions made so
    /// far (for the experiment reports).
    pub fn decisions(&self) -> Vec<(ClassificationPoint, PartitionerChoice)> {
        self.state.lock().history.clone()
    }

    /// Classify a hierarchy against the stored previous one and advance
    /// the internal state. Exposed for the experiment driver.
    pub fn classify_and_select(&self, h: &GridHierarchy<D>, nprocs: usize) -> PartitionerChoice {
        let mut st = self.state.lock();
        let bl = beta_l(h, self.unit, nprocs);
        let bc = beta_c(h, nprocs);
        let bm = match &st.prev_hierarchy {
            Some(prev) => beta_m(prev, h),
            None => 0.0,
        };
        let now = st.clock;
        st.clock += 1.0;
        let t2 = st
            .tradeoff2
            .observe(now, h.total_points(), &[bl, bc, bm], true);
        let point = ClassificationPoint::new(dimension1(bl, bc), t2.d2, bm);
        let choice = st.selector.select(&crate::selector::SelectionInput {
            point,
            beta_l: bl,
            beta_c: bc,
            beta_m: bm,
        });
        st.history.push((point, choice));
        st.prev_hierarchy = Some(h.clone());
        choice
    }
}

impl<const D: usize> Default for MetaPartitioner<D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const D: usize> Partitioner<D> for MetaPartitioner<D> {
    fn name(&self) -> String {
        "meta-partitioner".to_string()
    }

    fn partition(&self, h: &GridHierarchy<D>, nprocs: usize) -> Partition<D> {
        self.classify_and_select(h, nprocs).partition(h, nprocs)
    }

    fn select(&self, h: &GridHierarchy<D>, nprocs: usize) -> Option<PartitionerChoice> {
        Some(self.classify_and_select(h, nprocs))
    }

    fn cost_estimate(&self, h: &GridHierarchy<D>) -> f64 {
        // Classification cost (box intersections, one pass over patches)
        // plus the cost of whatever was selected last.
        let classify = h.levels.iter().map(|l| l.patch_count()).sum::<usize>() as f64 / 20.0;
        let st = self.state.lock();
        let delegated = st
            .history
            .last()
            .map(|(_, c)| c.cost_estimate(h))
            .unwrap_or(0.0);
        classify + delegated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samr_geom::Rect2;
    use samr_partition::validate_partition;

    fn r(x0: i64, y0: i64, x1: i64, y1: i64) -> Rect2 {
        Rect2::from_coords(x0, y0, x1, y1)
    }

    fn h(levels: &[Vec<Rect2>]) -> GridHierarchy<2> {
        GridHierarchy::from_level_rects(Rect2::from_extents(32, 32), 2, levels)
    }

    #[test]
    fn produces_valid_partitions_and_records_decisions() {
        let meta = MetaPartitioner::<2>::new();
        let seq = [
            h(&[vec![], vec![r(0, 0, 15, 15)]]),
            h(&[vec![], vec![r(8, 8, 23, 23)]]),
            h(&[vec![], vec![r(40, 40, 55, 55)]]),
        ];
        for hh in &seq {
            let part = meta.partition(hh, 4);
            assert_eq!(validate_partition(hh, &part), Ok(()));
        }
        let d = meta.decisions();
        assert_eq!(d.len(), 3);
        // First step has no previous hierarchy: d3 = 0.
        assert_eq!(d[0].0.d3, 0.0);
        // The relocated refinement at step 3 must register migration
        // pressure.
        assert!(d[2].0.d3 > 0.1);
    }

    #[test]
    fn migration_pressure_changes_selection() {
        // Deep refinement dominating |H|, jumping across the domain every
        // step: β_m is large and the selector must end up on the
        // migration-aware domain-based choice (patience = 2 requires two
        // consecutive votes).
        let meta = MetaPartitioner::<2>::new();
        let a = h(&[vec![], vec![r(0, 0, 31, 31)], vec![r(0, 0, 31, 31)]]);
        let b = h(&[vec![], vec![r(32, 32, 63, 63)], vec![r(64, 64, 95, 95)]]);
        meta.partition(&a, 4);
        meta.partition(&b, 4);
        meta.partition(&a, 4);
        meta.partition(&b, 4);
        let d = meta.decisions();
        // β_m at the jumping steps is 1 - 1024/3072 ≈ 0.67 >> threshold.
        assert!(d[1].0.d3 > 0.5, "d3 = {}", d[1].0.d3);
        let families: Vec<&str> = d.iter().map(|(_, c)| c.family()).collect();
        assert_eq!(
            *families.last().unwrap(),
            "domain-based",
            "decisions: {families:?}"
        );
    }

    #[test]
    fn select_then_partitioning_the_choice_is_partition() {
        // `select` advances the selector exactly as `partition` does, so
        // a driver that selects and partitions the choice itself sees
        // the decisions and partitions of one that calls `partition`.
        let by_partition = MetaPartitioner::<2>::new();
        let by_select = MetaPartitioner::<2>::new();
        let a = h(&[vec![], vec![r(0, 0, 31, 31)], vec![r(0, 0, 31, 31)]]);
        let b = h(&[vec![], vec![r(32, 32, 63, 63)], vec![r(64, 64, 95, 95)]]);
        for hh in [&a, &b, &a, &b, &b] {
            let choice = by_select.select(hh, 4).expect("meta always selects");
            assert_eq!(choice.partition(hh, 4), by_partition.partition(hh, 4));
            assert_eq!(by_select.cost_estimate(hh), by_partition.cost_estimate(hh));
        }
        assert_eq!(by_select.decisions(), by_partition.decisions());
    }

    #[test]
    fn cost_estimate_includes_delegate() {
        let meta = MetaPartitioner::<2>::new();
        let hh = h(&[vec![], vec![r(0, 0, 15, 15)]]);
        let before = meta.cost_estimate(&hh);
        meta.partition(&hh, 4);
        let after = meta.cost_estimate(&hh);
        assert!(after > before);
    }
}
