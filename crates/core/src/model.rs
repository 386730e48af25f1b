//! The end-to-end model pipeline: trace in, per-step classification out.
//!
//! This is the program of §5.1: "the trace-file is processed by a program
//! implementing our proposed model. This program outputs β_m and β_c for
//! each time-step." It also produces the full classification point
//! (d1, d2, d3) so the locus of Figure 3 (right) can be plotted, and the
//! meta-partitioner can consume the state directly.

use crate::space::{ClassificationPoint, StateCurve};
use crate::tradeoff1::{beta_c, beta_l, dimension1};
use crate::tradeoff2::{Tradeoff2, Tradeoff2State};
use crate::tradeoff3::{beta_m_with, BetaMDenominator};
use samr_grid::GridHierarchy;
use samr_trace::io::TraceIoError;
use samr_trace::{AnySnapshotSource, HierarchyTrace, Snapshot, SnapshotSource};
use serde::{Deserialize, Serialize};

/// Model configuration.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Atomic-unit size for the β_l workload sampling.
    pub unit: i64,
    /// Reference processor count (system parameter) for the β_c cut
    /// surface.
    pub p_ref: usize,
    /// β_m denominator (the paper's choice is `Current`; `Previous` is
    /// ablation ABL1 in `examples/ablations.rs`).
    pub denominator: BetaMDenominator,
    /// Apply the §4.2 absolute-importance grid-size weighting inside
    /// Trade-off 2 (ablation ABL2 in `examples/ablations.rs` turns it
    /// off).
    pub weight_by_grid_size: bool,
    /// Time scale of the invocation-interval normalization (in trace
    /// time units).
    pub interval_scale: f64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        Self {
            unit: 2,
            p_ref: 16,
            denominator: BetaMDenominator::Current,
            weight_by_grid_size: true,
            interval_scale: 1.0,
        }
    }
}

/// The model's output for one coarse time step.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct ModelState {
    /// Coarse step index.
    pub step: u32,
    /// Ab-initio load-imbalance penalty.
    pub beta_l: f64,
    /// Ab-initio worst-case communication penalty.
    pub beta_c: f64,
    /// Data-migration penalty (0 at the first step: no previous
    /// hierarchy).
    pub beta_m: f64,
    /// Trade-off 2 quantities.
    pub tradeoff2: Tradeoff2,
    /// The continuous classification point.
    pub point: ClassificationPoint,
}

/// The incremental form of the model: a fold over consecutive snapshot
/// pairs `(H_{t-1}, H_t)`, carrying only the Trade-off 2 recurrence —
/// never the trace. One [`ModelAccumulator::step`] call per snapshot
/// emits that step's [`ModelState`]; [`ModelPipeline::run`] is a collect
/// over it, and streaming consumers drive it directly to keep peak
/// residency at two snapshots. The meta-partitioner drives
/// [`ModelAccumulator::observe`] with its own step clock and each call's
/// processor count.
#[derive(Clone, Debug)]
pub struct ModelAccumulator {
    config: ModelConfig,
    t2: Tradeoff2State,
}

impl ModelAccumulator {
    /// Start a fold with the given configuration.
    pub fn new(config: ModelConfig) -> Self {
        Self {
            t2: Tradeoff2State::new(config.interval_scale),
            config,
        }
    }

    /// Consume one `(previous hierarchy, current snapshot)` pair and emit
    /// the step's model state: [`observe`](Self::observe) at the
    /// snapshot's step and time and the configured `p_ref`.
    pub fn step<const D: usize>(
        &mut self,
        prev: Option<&GridHierarchy<D>>,
        snap: &Snapshot<D>,
    ) -> ModelState {
        let p_ref = self.config.p_ref;
        self.observe(prev, &snap.hierarchy, snap.step, snap.time, p_ref)
    }

    /// Classify hierarchy `h` at `step` and `time` against `prev` for a
    /// reference processor count `p_ref`, advancing the Trade-off 2
    /// recurrence. `prev` is `None` exactly at the first step, where β_m
    /// is 0 by definition (no previous hierarchy).
    pub fn observe<const D: usize>(
        &mut self,
        prev: Option<&GridHierarchy<D>>,
        h: &GridHierarchy<D>,
        step: u32,
        time: f64,
        p_ref: usize,
    ) -> ModelState {
        let bl = beta_l(h, self.config.unit, p_ref);
        let bc = beta_c(h, p_ref);
        let bm = match prev {
            None => 0.0,
            Some(ph) => beta_m_with(ph, h, self.config.denominator),
        };
        let t2q = self.t2.observe(
            time,
            h.total_points(),
            &[bl, bc, bm],
            self.config.weight_by_grid_size,
        );
        ModelState {
            step,
            beta_l: bl,
            beta_c: bc,
            beta_m: bm,
            tradeoff2: t2q,
            point: ClassificationPoint::new(dimension1(bl, bc), t2q.d2, bm),
        }
    }
}

/// Walks a hierarchy trace and emits one [`ModelState`] per snapshot.
#[derive(Clone, Debug, Default)]
pub struct ModelPipeline {
    /// Configuration used for every step.
    pub config: ModelConfig,
}

impl ModelPipeline {
    /// Pipeline with default (paper) configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pipeline with explicit configuration.
    pub fn with_config(config: ModelConfig) -> Self {
        Self { config }
    }

    /// Run the model over a whole trace — a collect over
    /// [`ModelAccumulator`] with identical output.
    pub fn run<const D: usize>(&self, trace: &HierarchyTrace<D>) -> Vec<ModelState> {
        let mut acc = ModelAccumulator::new(self.config);
        let mut out = Vec::with_capacity(trace.len());
        for (i, snap) in trace.snapshots.iter().enumerate() {
            let prev = (i > 0).then(|| trace.hierarchy(i - 1));
            out.push(acc.step(prev, snap));
        }
        out
    }

    /// Run the model over a snapshot stream, holding at most two
    /// snapshots (the current pair) at any point.
    pub fn run_source<const D: usize>(
        &self,
        source: &mut (dyn SnapshotSource<D> + '_),
    ) -> Result<Vec<ModelState>, TraceIoError> {
        let mut acc = ModelAccumulator::new(self.config);
        let mut out = Vec::with_capacity(source.len_hint().unwrap_or(0));
        let mut prev: Option<Snapshot<D>> = None;
        while let Some(snap) = source.next_snapshot()? {
            out.push(acc.step(prev.as_ref().map(|p| &p.hierarchy), &snap));
            prev = Some(snap);
        }
        Ok(out)
    }

    /// Run the model over a dimension-erased snapshot stream.
    pub fn run_any_source(
        &self,
        source: &mut AnySnapshotSource,
    ) -> Result<Vec<ModelState>, TraceIoError> {
        match source {
            AnySnapshotSource::D2(s) => self.run_source::<2>(s),
            AnySnapshotSource::D3(s) => self.run_source::<3>(s),
        }
    }

    /// Run the model and return the locus curve (Figure 3 right).
    pub fn state_curve<const D: usize>(&self, trace: &HierarchyTrace<D>) -> StateCurve {
        let mut curve = StateCurve::default();
        for s in self.run(trace) {
            curve.push(s.step, s.point);
        }
        curve
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samr_geom::Rect2;
    use samr_grid::GridHierarchy;
    use samr_trace::{Snapshot, TraceMeta};

    fn r(x0: i64, y0: i64, x1: i64, y1: i64) -> Rect2 {
        Rect2::from_coords(x0, y0, x1, y1)
    }

    fn trace_moving() -> HierarchyTrace<2> {
        let meta = TraceMeta {
            app: "SYN".into(),
            description: "moving box".into(),
            base_domain: Rect2::from_extents(32, 32),
            ratio: 2,
            max_levels: 2,
            regrid_interval: 4,
            min_block: 2,
            seed: 0,
        };
        let mut t = HierarchyTrace::new(meta);
        for i in 0..8u32 {
            let off = i as i64 * 4;
            t.push(Snapshot {
                step: i,
                time: i as f64,
                hierarchy: GridHierarchy::from_level_rects(
                    Rect2::from_extents(32, 32),
                    2,
                    &[vec![], vec![r(off, 0, off + 15, 15)]],
                ),
            });
        }
        t
    }

    #[test]
    fn pipeline_emits_one_state_per_snapshot() {
        let trace = trace_moving();
        let states = ModelPipeline::new().run(&trace);
        assert_eq!(states.len(), trace.len());
        assert_eq!(states[0].beta_m, 0.0);
        for s in &states {
            assert!((0.0..=1.0).contains(&s.beta_l));
            assert!((0.0..=1.0).contains(&s.beta_c));
            assert!((0.0..=1.0).contains(&s.beta_m));
            assert!((0.0..=1.0).contains(&s.point.d1));
            assert!((0.0..=1.0).contains(&s.point.d2));
            assert!((0.0..=1.0).contains(&s.point.d3));
        }
    }

    #[test]
    fn moving_box_sustains_beta_m() {
        let trace = trace_moving();
        let states = ModelPipeline::new().run(&trace);
        for s in &states[1..] {
            // Base 1024 cells static, level-1 box 256 cells shifted by 4:
            // overlap 1024 + 12*16 = 1216 of 1280 => β_m = 64/1280 = 0.05
            // at every step.
            assert!(
                (s.beta_m - 0.05).abs() < 1e-9,
                "step {} had β_m {}",
                s.step,
                s.beta_m
            );
        }
    }

    #[test]
    fn d3_equals_beta_m() {
        let trace = trace_moving();
        for s in ModelPipeline::new().run(&trace) {
            assert_eq!(s.point.d3, s.beta_m);
        }
    }

    #[test]
    fn run_source_matches_batch_run() {
        use samr_trace::MemorySource;
        let trace = trace_moving();
        let p = ModelPipeline::new();
        let batch = p.run(&trace);
        let streamed = p
            .run_source::<2>(&mut MemorySource::new(&trace))
            .expect("in-memory source cannot fail");
        assert_eq!(batch, streamed);
    }

    #[test]
    fn run_source_fails_on_a_snapshot_count_the_bytes_do_not_back() {
        use samr_trace::io::{encode_binary, BinarySnapshotReader, TraceIoError};
        let mut bytes = encode_binary(&trace_moving());
        // Magic (8 bytes), dimension byte, metadata length, metadata, count.
        let meta_len = u32::from_le_bytes(bytes[9..13].try_into().unwrap()) as usize;
        bytes[13 + meta_len..17 + meta_len].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut reader = BinarySnapshotReader::<2, _>::new(&bytes[..]).expect("header parses");
        let err = ModelPipeline::new()
            .run_source::<2>(&mut reader)
            .expect_err("the stream ends after 8 snapshots");
        assert!(matches!(err, TraceIoError::Format(_)), "{err:?}");
    }

    #[test]
    fn state_curve_matches_run() {
        let trace = trace_moving();
        let p = ModelPipeline::new();
        let curve = p.state_curve(&trace);
        assert_eq!(curve.len(), trace.len());
        assert!(curve.arc_length() > 0.0);
    }

    #[test]
    fn ablation_denominator_changes_growth_steps() {
        let meta = TraceMeta {
            app: "SYN".into(),
            description: "growing".into(),
            base_domain: Rect2::from_extents(32, 32),
            ratio: 2,
            max_levels: 2,
            regrid_interval: 4,
            min_block: 2,
            seed: 0,
        };
        let mut t = HierarchyTrace::new(meta);
        for (i, size) in [7i64, 31].iter().enumerate() {
            t.push(Snapshot {
                step: i as u32,
                time: i as f64,
                hierarchy: GridHierarchy::from_level_rects(
                    Rect2::from_extents(32, 32),
                    2,
                    &[vec![], vec![r(0, 0, *size, *size)]],
                ),
            });
        }
        let paper = ModelPipeline::new().run(&t);
        let ablated = ModelPipeline::with_config(ModelConfig {
            denominator: BetaMDenominator::Previous,
            ..ModelConfig::default()
        })
        .run(&t);
        assert!(paper[1].beta_m > ablated[1].beta_m);
    }

    #[test]
    fn the_denominator_serializes_by_variant_name() {
        use serde::Value;
        let cfg = ModelConfig::default().serialize();
        assert_eq!(cfg.get("denominator"), Some(&Value::Str("Current".into())));
        let previous = Value::Str("Previous".into());
        assert_eq!(
            BetaMDenominator::deserialize(&previous).unwrap(),
            BetaMDenominator::Previous
        );
    }
}
