//! Trace generation: drive an application through the paper's SAMR
//! configuration and record the hierarchy at every coarse time step.
//!
//! Generation is expressed as a *step iterator* ([`AppSource`], a
//! [`SnapshotSource`]): pulls yield the hierarchy of each coarse step in
//! step order, so a trace can be consumed — or written to disk — with
//! one batch of segments resident (below). The batch `generate_trace*`
//! functions are collects over it.
//!
//! The §5.1.1 set-up is reproduced exactly: 5 levels of factor-2 refinement
//! in space *and* time, regridding every 4 time steps **on each level**,
//! granularity (minimum block dimension) 2, 100 coarse steps. With factor-2
//! time refinement, level `l` takes `2^l` local steps per coarse step, so
//! "every 4 local steps" means level 1 regrids every 2 coarse steps and
//! levels ≥ 2 every coarse step — the hierarchy changes nearly every step,
//! which is what makes the paper's per-step metric series continuous.
//!
//! The regrid machinery (flag → buffer → Berger–Rigoutsos → proper
//! nesting) is dimension-generic: the 2-D kernels feed it their sampled
//! indicator fields, the 3-D advecting-sphere workload ([`crate::sp3d`])
//! feeds it an analytic indicator, and both run the *same* code path.
//!
//! **Segments.** Step 0 and every step whose scheduled level is 1 (every
//! second coarse step on the paper's schedule) are *full regrids*: they
//! rebuild every level above the fixed base grid from the indicator
//! alone. The steps from one full regrid to the next form a *segment*
//! ([`TraceGenConfig::segments`]), whose hierarchies depend on nothing
//! generated before it. [`AppSource`] works in batches of segments: it
//! advances the application through the batch's steps on the caller's
//! thread, capturing one owned frame per step (its time, and what its
//! regrid samples: the thresholds and the indicator), then regrids the
//! batch's segments on the caller's rayon pool, each from the base-only
//! hierarchy, as one parallel map that the pool balances (a worker whose
//! share is empty takes unstarted segments from the back of another's).
//! A batch holds twice the pool width of segments. Inside a pool worker
//! (where `vendor/rayon` runs nested work inline) or on a one-thread
//! pool it holds one segment, and each step regrids as soon as its frame
//! exists, so at most one frame is live. Every segment runs the same
//! regrid on copies of the same inputs, so a trace is byte-identical at
//! every pool width.

use crate::bl2d::Bl2d;
use crate::kernel::{Kernel, Sampler};
use crate::pc2d::Pc2d;
use crate::rm2d::Rm2d;
use crate::sc2d::Sc2d;
use crate::sp3d::Sp3d;
use crate::tp2d::Tp2d;
use rayon::prelude::*;
use samr_geom::{AABox, Box3, Rect2};
use samr_grid::nesting::{clip_to_nesting, shrink_within};
use samr_grid::{cluster_flags, ClusterOptions, FlagField, GridHierarchy, Level};
use samr_trace::io::TraceIoError;
use samr_trace::{
    AnySnapshotSource, AnyTrace, HierarchyTrace, Snapshot, SnapshotSource, TraceMeta,
};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::ops::Range;

/// Which application to run: the paper's four 2-D kernels, or the 3-D
/// advecting-sphere workload.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum AppKind {
    /// 2-D transport benchmark (GrACE).
    Tp2d,
    /// Buckley–Leverett oil–water flow (IPARS).
    Bl2d,
    /// Scalar wave / numerical relativity (Cactus).
    Sc2d,
    /// Richtmyer–Meshkov instability (VTF).
    Rm2d,
    /// Synthetic two-regime phase-change workload (adaptive-policy
    /// stressor).
    Pc2d,
    /// Advecting spherical shell (3-D workload).
    Sp3d,
}

impl AppKind {
    /// The paper's four 2-D applications in the paper's presentation
    /// order (Figures 4–7).
    pub const ALL: [AppKind; 4] = [AppKind::Rm2d, AppKind::Bl2d, AppKind::Sc2d, AppKind::Tp2d];

    /// The 3-D workloads.
    pub const ALL_3D: [AppKind; 1] = [AppKind::Sp3d];

    /// Synthetic workloads built to stress specific machinery rather
    /// than reproduce a paper figure; excluded from the default
    /// campaign axis ([`AppKind::ALL`]).
    pub const SYNTHETIC: [AppKind; 1] = [AppKind::Pc2d];

    /// Every application of either dimension.
    pub const EVERY: [AppKind; 6] = [
        AppKind::Rm2d,
        AppKind::Bl2d,
        AppKind::Sc2d,
        AppKind::Tp2d,
        AppKind::Pc2d,
        AppKind::Sp3d,
    ];

    /// The kernel name.
    pub fn name(self) -> &'static str {
        match self {
            AppKind::Tp2d => "TP2D",
            AppKind::Bl2d => "BL2D",
            AppKind::Sc2d => "SC2D",
            AppKind::Rm2d => "RM2D",
            AppKind::Pc2d => "PC2D",
            AppKind::Sp3d => "SP3D",
        }
    }

    /// The spatial dimension of the application's index space.
    pub fn dim(self) -> usize {
        match self {
            AppKind::Sp3d => 3,
            _ => 2,
        }
    }

    /// Parse a kernel name, case-insensitively ("rm2d", "BL2D", "sp3d",
    /// ...). The single name registry shared by the CLI and the campaign
    /// engine.
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_uppercase().as_str() {
            "TP2D" => Some(AppKind::Tp2d),
            "BL2D" => Some(AppKind::Bl2d),
            "SC2D" => Some(AppKind::Sc2d),
            "RM2D" => Some(AppKind::Rm2d),
            "PC2D" => Some(AppKind::Pc2d),
            "SP3D" => Some(AppKind::Sp3d),
            _ => None,
        }
    }

    /// One-line description of the application scenario.
    pub fn describe(self, cfg: &TraceGenConfig) -> String {
        match self {
            AppKind::Sp3d => Sp3d::new(cfg.steps, cfg.seed).description(),
            _ => make_kernel(self, cfg).description(),
        }
    }
}

/// Configuration for trace generation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceGenConfig {
    /// Number of coarse time steps (paper: 100).
    pub steps: u32,
    /// Base-grid cells along the shorter domain axis (the longer axis is
    /// scaled by the kernel's aspect ratio).
    pub base_cells: i64,
    /// Maximum number of levels including the base (paper: 5).
    pub max_levels: usize,
    /// Space/time refinement factor (paper: 2).
    pub ratio: i64,
    /// Regrid interval in per-level local steps (paper: 4).
    pub regrid_interval: u32,
    /// Minimum block dimension / granularity (paper: 2).
    pub min_block: i64,
    /// Flag-buffer width in cells (standard SAMR safety margin).
    pub flag_buffer: i64,
    /// Proper-nesting buffer in coarse cells.
    pub nesting_buffer: i64,
    /// Berger–Rigoutsos options.
    pub cluster: ClusterOptions,
    /// Kernel reference-grid resolution along the shorter axis.
    pub ref_resolution: i64,
    /// RNG seed (initial-condition phases).
    pub seed: u64,
}

impl TraceGenConfig {
    /// The paper's §5.1.1 configuration.
    pub fn paper() -> Self {
        Self {
            steps: 100,
            base_cells: 64,
            max_levels: 5,
            ratio: 2,
            regrid_interval: 4,
            min_block: 2,
            flag_buffer: 1,
            nesting_buffer: 1,
            cluster: ClusterOptions::paper_defaults(),
            ref_resolution: 192,
            seed: 2004,
        }
    }

    /// A fast configuration for unit/integration tests: small grids, few
    /// steps, three levels. Exercises every code path of the full set-up.
    pub fn smoke() -> Self {
        Self {
            steps: 10,
            base_cells: 32,
            max_levels: 3,
            ratio: 2,
            regrid_interval: 4,
            min_block: 2,
            flag_buffer: 1,
            nesting_buffer: 1,
            cluster: ClusterOptions::paper_defaults(),
            ref_resolution: 48,
            seed: 2004,
        }
    }

    /// Check the fields the generator cannot run outside of, naming the
    /// first one out of range and its bound. A trace has at least one
    /// step: every kernel sizes its time step as `T / steps`, and the
    /// trace holds the snapshots of steps `0 .. steps`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let at_least = [
            ("steps", i64::from(self.steps), 1),
            ("base_cells", self.base_cells, 1),
            ("max_levels", self.max_levels as i64, 1),
            ("ratio", self.ratio, 2),
            ("flag_buffer", self.flag_buffer, 0),
            ("cluster.min_block", self.cluster.min_block, 1),
            ("ref_resolution", self.ref_resolution, MIN_REF_RESOLUTION),
        ];
        if let Some((field, value, min)) = at_least.into_iter().find(|&(_, v, min)| v < min) {
            return Err(ConfigError::new(field, format!(">= {min}"), value));
        }
        let eff = self.cluster.min_efficiency;
        if !(0.0..=1.0).contains(&eff) {
            let bound = "in [0, 1]".to_string();
            return Err(ConfigError::new("cluster.min_efficiency", bound, eff));
        }
        Ok(())
    }

    /// Coarse-step regrid period of level `l >= 1`: level `l` regrids every
    /// `regrid_interval` of its own (factor-`ratio^l`) local steps.
    pub fn regrid_period(&self, l: usize) -> u32 {
        let local_per_coarse = (self.ratio as u32).pow(l as u32);
        (self.regrid_interval / local_per_coarse).max(1)
    }

    /// The lowest level scheduled for regridding at coarse step `t`
    /// (regridding level `l` rebuilds all levels above it too); `None` when
    /// nothing is scheduled.
    pub fn scheduled_level(&self, t: u32) -> Option<usize> {
        (1..self.max_levels).find(|&l| t.is_multiple_of(self.regrid_period(l)))
    }

    /// The trace's segments, in step order: each runs from step 0 or a
    /// full regrid (a step whose scheduled level is 1, which rebuilds
    /// every level above the base grid) to the next. A segment's
    /// hierarchies depend on nothing generated before it.
    pub fn segments(&self) -> Vec<Range<u32>> {
        let starts: Vec<u32> = (0..self.steps)
            .filter(|&t| t == 0 || self.scheduled_level(t) == Some(1))
            .collect();
        let ends = starts.iter().skip(1).copied().chain([self.steps]);
        starts.iter().zip(ends).map(|(&a, b)| a..b).collect()
    }
}

/// The smallest reference grid (cells along the shorter axis) a 2-D
/// kernel runs on.
const MIN_REF_RESOLUTION: i64 = 8;

/// A configuration field outside the range the program runs: a
/// [`TraceGenConfig`] field, or a campaign axis value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError {
    /// The field's name (`cluster.` prefixed for the clusterer options).
    pub field: &'static str,
    /// The range it must lie in, e.g. `>= 1`.
    pub bound: String,
    /// The rejected value, rendered.
    pub value: String,
}

impl ConfigError {
    /// The error for `field` holding `value` outside `bound`.
    pub fn new(field: &'static str, bound: String, value: impl std::fmt::Display) -> Self {
        let value = value.to_string();
        Self {
            field,
            bound,
            value,
        }
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "`{}` = {} is out of range (must be {})",
            self.field, self.value, self.bound
        )
    }
}

impl std::error::Error for ConfigError {}

/// Construct the 2-D kernel for an application kind. Panics for 3-D
/// kinds, which have no reference PDE solver ([`AppKind::Sp3d`] is driven
/// analytically).
pub fn make_kernel(kind: AppKind, cfg: &TraceGenConfig) -> Box<dyn Kernel> {
    match kind {
        AppKind::Tp2d => Box::new(Tp2d::new(cfg.ref_resolution, cfg.steps, cfg.seed)),
        AppKind::Bl2d => Box::new(Bl2d::new(cfg.ref_resolution, cfg.steps, cfg.seed)),
        AppKind::Sc2d => Box::new(Sc2d::new(cfg.ref_resolution, cfg.steps, cfg.seed)),
        AppKind::Rm2d => Box::new(Rm2d::new(cfg.ref_resolution, cfg.steps, cfg.seed)),
        AppKind::Pc2d => Box::new(Pc2d::new(cfg.ref_resolution, cfg.steps, cfg.seed)),
        AppKind::Sp3d => panic!("SP3D is a 3-D workload; use generate_trace_any"),
    }
}

/// What one regrid samples: the lowest level it rebuilds, the step's
/// indicator and the flagging threshold of every parent level.
struct RegridInput<const D: usize> {
    from_level: usize,
    indicator: Sampler<D>,
    /// `thresholds[l]` flags level-`l` cells for level `l + 1`.
    thresholds: Vec<f64>,
}

/// Rebuild levels `input.from_level ..` of `h` from a unit-coordinate
/// indicator — the dimension-generic regrid step.
///
/// For each level `l`, cells of level `l-1` (inside its patches) whose
/// indicator exceeds `thresholds[l-1]` are flagged, buffered, clustered
/// with Berger–Rigoutsos, clipped to the proper-nesting region of the
/// (new) level `l-1`, and refined into level-`l` patches.
fn regrid<const D: usize>(h: &mut GridHierarchy<D>, input: &RegridInput<D>, cfg: &TraceGenConfig) {
    debug_assert!(input.from_level >= 1);
    let indicator = &input.indicator;
    h.levels.truncate(input.from_level);
    for l in input.from_level..cfg.max_levels {
        let parent = l - 1;
        if h.levels.get(parent).is_none_or(|lev| lev.is_empty()) {
            break;
        }
        let parent_domain = h.domain_at_level(parent);
        let extent = parent_domain.extent();
        let thr = input.thresholds[parent];
        let mut flags = FlagField::new(parent_domain);
        for patch in &h.levels[parent].patches {
            // Row-major single pass: the off-axis unit coordinates are
            // fixed along a run, so only u[0] is recomputed per cell —
            // with the exact same `(c + 0.5) / extent` expression as the
            // historical per-cell loop, keeping traces byte-identical.
            flags.mark_rows(&patch.rect, |row, run| {
                let mut u: [f64; D] =
                    std::array::from_fn(|i| (row[i] as f64 + 0.5) / extent[i] as f64);
                for (k, cell) in run.iter_mut().enumerate() {
                    u[0] = ((row[0] + k as i64) as f64 + 0.5) / extent[0] as f64;
                    if indicator(u) > thr {
                        *cell = true;
                    }
                }
            });
        }
        if flags.is_empty() {
            break;
        }
        let flags = flags.buffer(cfg.flag_buffer);
        let candidates = cluster_flags(&flags, &cfg.cluster);
        let nest = shrink_within(
            &h.levels[parent].region(),
            &parent_domain,
            cfg.nesting_buffer,
        );
        let clipped = clip_to_nesting(&candidates, &nest, cfg.min_block);
        if clipped.is_empty() {
            break;
        }
        let fine: Vec<AABox<D>> = clipped.iter().map(|b| b.refine(cfg.ratio)).collect();
        h.levels.push(Level::from_rects(&fine));
    }
}

/// What one step hands its segment: the step's time and, when a regrid
/// is scheduled, what that regrid samples. It borrows nothing from the
/// application, so its segment can regrid on any pool worker after the
/// application has moved on.
struct Frame<const D: usize> {
    step: u32,
    time: f64,
    regrid: Option<RegridInput<D>>,
}

impl<const D: usize> Frame<D> {
    /// Run the step's scheduled regrid on `h`, its segment's hierarchy
    /// so far, and snapshot the result.
    fn apply(&self, h: &mut GridHierarchy<D>, cfg: &TraceGenConfig) -> Snapshot<D> {
        if let Some(input) = &self.regrid {
            regrid(h, input, cfg);
        }
        Snapshot {
            step: self.step,
            time: self.time,
            hierarchy: h.clone(),
        }
    }
}

/// Regrid one segment's frames, in step order, from the base-only
/// hierarchy `base`.
fn regrid_segment<const D: usize>(
    base: &GridHierarchy<D>,
    frames: &[Frame<D>],
    cfg: &TraceGenConfig,
) -> Vec<Snapshot<D>> {
    let mut h = base.clone();
    frames.iter().map(|f| f.apply(&mut h, cfg)).collect()
}

/// The per-step state an application exposes to the step iterator: how
/// to advance one coarse step and how to read the current indicator /
/// thresholds / time. The 2-D PDE kernels and the 3-D analytic workload
/// both fit behind it, so [`AppSource`] is dimension-generic.
trait StepDriver<const D: usize> {
    /// Advance the reference solution by one coarse time step.
    fn advance(&mut self);
    /// The feature indicator at unit coordinates, for the current
    /// time, owned: a regrid samples every flagged cell through it.
    fn sampler(&self) -> Sampler<D>;
    /// Flagging threshold for refinement level `level`.
    fn threshold(&self, level: usize) -> f64;
    /// Current physical time.
    fn time(&self) -> f64;
}

impl StepDriver<2> for Box<dyn Kernel> {
    fn advance(&mut self) {
        self.advance_coarse_step();
    }

    fn sampler(&self) -> Sampler<2> {
        Kernel::sampler(self.as_ref())
    }

    fn threshold(&self, level: usize) -> f64 {
        Kernel::threshold(self.as_ref(), level)
    }

    fn time(&self) -> f64 {
        Kernel::time(self.as_ref())
    }
}

impl StepDriver<3> for Sp3d {
    fn advance(&mut self) {
        self.advance_coarse_step();
    }

    fn sampler(&self) -> Sampler<3> {
        let (app, c) = (*self, self.center());
        Box::new(move |u| app.indicator_around(c, u))
    }

    fn threshold(&self, level: usize) -> f64 {
        Sp3d::threshold(self, level)
    }

    fn time(&self) -> f64 {
        self.time
    }
}

/// An application execution as a pull-based snapshot stream, generated
/// a batch of segments at a time (see the [module docs](self)): the
/// application advances through the batch's steps on the caller's
/// thread, the batch's segments regrid on the caller's rayon pool, and
/// pulls serve the snapshots in step order. Only one batch is resident,
/// so traces can be consumed — or written to disk — without ever
/// materializing. The batch generators ([`generate_trace`] and friends)
/// are collects over this source.
pub struct AppSource<const D: usize> {
    meta: TraceMeta<D>,
    cfg: TraceGenConfig,
    /// The base-only hierarchy every segment regrids from.
    base: GridHierarchy<D>,
    driver: Box<dyn StepDriver<D>>,
    /// The segments not yet generated, in step order.
    segments: std::vec::IntoIter<Range<u32>>,
    /// The current batch's snapshots not yet served, in step order.
    ready: VecDeque<Snapshot<D>>,
}

impl<const D: usize> AppSource<D> {
    fn new(meta: TraceMeta<D>, cfg: &TraceGenConfig, driver: Box<dyn StepDriver<D>>) -> Self {
        Self {
            base: GridHierarchy::base_only(meta.base_domain, cfg.ratio),
            meta,
            cfg: cfg.clone(),
            driver,
            segments: cfg.segments().into_iter(),
            ready: VecDeque::new(),
        }
    }

    /// Advance the application to step `t` (the step after the last one
    /// captured) and capture its frame.
    fn capture(&mut self, t: u32) -> Frame<D> {
        if t > 0 {
            self.driver.advance();
        }
        let driver = &self.driver;
        Frame {
            step: t,
            time: driver.time(),
            regrid: self.cfg.scheduled_level(t).map(|from_level| RegridInput {
                from_level,
                indicator: driver.sampler(),
                thresholds: (0..self.cfg.max_levels - 1)
                    .map(|l| driver.threshold(l))
                    .collect(),
            }),
        }
    }

    /// Generate the next batch of segments into `ready`: capture the
    /// batch's frames in step order, then regrid its segments as one
    /// parallel map, whose results come back in segment order.
    fn next_batch(&mut self) {
        let width = rayon::current_num_threads();
        if width == 1 {
            // Inside a pool worker or on a one-thread pool: one segment,
            // each step regridded as soon as its frame exists.
            let Some(steps) = self.segments.next() else {
                return;
            };
            let mut h = self.base.clone();
            for t in steps {
                let frame = self.capture(t);
                self.ready.push_back(frame.apply(&mut h, &self.cfg));
            }
            return;
        }
        let batch: Vec<Range<u32>> = self.segments.by_ref().take(2 * width).collect();
        let batch: Vec<Vec<Frame<D>>> = batch
            .into_iter()
            .map(|steps| steps.map(|t| self.capture(t)).collect())
            .collect();
        let (base, cfg) = (&self.base, &self.cfg);
        let done: Vec<Vec<Snapshot<D>>> = batch
            .par_iter()
            .map(|frames| regrid_segment(base, frames, cfg))
            .collect();
        self.ready.extend(done.into_iter().flatten());
    }
}

impl<const D: usize> SnapshotSource<D> for AppSource<D> {
    fn meta(&self) -> &TraceMeta<D> {
        &self.meta
    }

    fn next_snapshot(&mut self) -> Result<Option<Snapshot<D>>, TraceIoError> {
        if self.ready.is_empty() {
            self.next_batch();
        }
        Ok(self.ready.pop_front())
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.cfg.steps as usize)
    }
}

/// Panic with the offending field unless `cfg` passes
/// [`TraceGenConfig::validate`].
fn assert_valid(cfg: &TraceGenConfig) {
    if let Err(e) = cfg.validate() {
        panic!("invalid trace config: {e}");
    }
}

/// Open a 2-D application execution as a snapshot stream. Panics for 3-D
/// kinds, and for a config that fails [`TraceGenConfig::validate`];
/// [`trace_source_any`] handles both dimensions.
pub fn trace_source(kind: AppKind, cfg: &TraceGenConfig) -> AppSource<2> {
    assert_eq!(kind.dim(), 2, "{} is not a 2-D application", kind.name());
    assert_valid(cfg);
    let kernel = make_kernel(kind, cfg);
    let (ax, ay) = kernel.aspect();
    let short = cfg.base_cells;
    let base = Rect2::from_extents(short * ax / ay.min(ax), short * ay / ay.min(ax));
    let meta = TraceMeta {
        app: kind.name().to_string(),
        description: kernel.description(),
        base_domain: base,
        ratio: cfg.ratio,
        max_levels: cfg.max_levels,
        regrid_interval: cfg.regrid_interval,
        min_block: cfg.min_block,
        seed: cfg.seed,
    };
    AppSource::new(meta, cfg, Box::new(kernel))
}

/// Open the 3-D advecting-sphere workload as a snapshot stream — the
/// same regrid pipeline as the 2-D kernels, driven by the analytic shell
/// indicator. Panics for a config that fails [`TraceGenConfig::validate`].
pub fn trace_source_3d(kind: AppKind, cfg: &TraceGenConfig) -> AppSource<3> {
    assert_eq!(kind.dim(), 3, "{} is not a 3-D application", kind.name());
    assert_valid(cfg);
    let app = Sp3d::new(cfg.steps, cfg.seed);
    let base = Box3::from_extents(cfg.base_cells, cfg.base_cells, cfg.base_cells);
    let meta = TraceMeta {
        app: kind.name().to_string(),
        description: app.description(),
        base_domain: base,
        ratio: cfg.ratio,
        max_levels: cfg.max_levels,
        regrid_interval: cfg.regrid_interval,
        min_block: cfg.min_block,
        seed: cfg.seed,
    };
    AppSource::new(meta, cfg, Box::new(app))
}

/// Open the trace of any application, 2-D or 3-D, as a dimension-erased
/// snapshot stream.
pub fn trace_source_any(kind: AppKind, cfg: &TraceGenConfig) -> AnySnapshotSource {
    match kind.dim() {
        2 => AnySnapshotSource::D2(Box::new(trace_source(kind, cfg))),
        _ => AnySnapshotSource::D3(Box::new(trace_source_3d(kind, cfg))),
    }
}

/// Run a 2-D application kernel for `cfg.steps` coarse steps and record
/// the hierarchy after each step — the paper's application execution
/// trace. Panics for 3-D kinds; [`generate_trace_any`] handles both. A
/// collect over [`trace_source`]; use the source directly to keep memory
/// bounded.
pub fn generate_trace(kind: AppKind, cfg: &TraceGenConfig) -> HierarchyTrace<2> {
    HierarchyTrace::from_source(trace_source(kind, cfg)).expect("generators never fail")
}

/// Run the 3-D advecting-sphere workload for `cfg.steps` coarse steps —
/// a collect over [`trace_source_3d`].
pub fn generate_trace_3d(kind: AppKind, cfg: &TraceGenConfig) -> HierarchyTrace<3> {
    HierarchyTrace::from_source(trace_source_3d(kind, cfg)).expect("generators never fail")
}

/// Generate the trace of any application, 2-D or 3-D, behind the
/// dimension-erased [`AnyTrace`].
pub fn generate_trace_any(kind: AppKind, cfg: &TraceGenConfig) -> AnyTrace {
    match kind.dim() {
        2 => AnyTrace::D2(generate_trace(kind, cfg)),
        _ => AnyTrace::D3(generate_trace_3d(kind, cfg)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regrid_schedule_matches_paper() {
        let cfg = TraceGenConfig::paper();
        // Level 1: every 4 local steps = every 2 coarse steps.
        assert_eq!(cfg.regrid_period(1), 2);
        // Levels >= 2 take >= 4 local steps per coarse step: every step.
        assert_eq!(cfg.regrid_period(2), 1);
        assert_eq!(cfg.regrid_period(4), 1);
        assert_eq!(cfg.scheduled_level(0), Some(1));
        assert_eq!(cfg.scheduled_level(1), Some(2));
        assert_eq!(cfg.scheduled_level(2), Some(1));
    }

    /// The first step of each of `cfg`'s segments.
    fn segment_starts(cfg: &TraceGenConfig) -> Vec<u32> {
        cfg.segments().iter().map(|s| s.start).collect()
    }

    #[test]
    fn segments_start_at_every_full_regrid() {
        // Level 1 regrids every 2 coarse steps in both configs.
        let paper = TraceGenConfig::paper();
        assert_eq!(
            segment_starts(&paper),
            (0..100).step_by(2).collect::<Vec<_>>()
        );
        assert_eq!(segment_starts(&TraceGenConfig::smoke()), [0, 2, 4, 6, 8]);
        // The segments tile the trace: 5 steps end on a one-step segment.
        let cfg = TraceGenConfig {
            steps: 5,
            ..TraceGenConfig::smoke()
        };
        assert_eq!(cfg.segments(), [0..2, 2..4, 4..5]);
        // Level 1 every 4 coarse steps: segments of 4.
        let cfg = TraceGenConfig {
            regrid_interval: 8,
            ..TraceGenConfig::paper()
        };
        assert_eq!(cfg.segments()[..3], [0..4, 4..8, 8..12]);
    }

    #[test]
    fn one_segment_when_nothing_regrids_level_one_again() {
        // No level above the base: nothing is ever scheduled.
        let flat = TraceGenConfig {
            max_levels: 1,
            ..TraceGenConfig::smoke()
        };
        assert_eq!(segment_starts(&flat), [0]);
        // Level 1's period (32 coarse steps) outlasts the trace.
        let slow = TraceGenConfig {
            regrid_interval: 64,
            ..TraceGenConfig::smoke()
        };
        assert_eq!(slow.regrid_period(1), 32);
        assert_eq!(segment_starts(&slow), [0]);
    }

    #[test]
    fn every_pool_width_generates_the_same_trace() {
        // Segments of 4 steps whose inner steps regrid from levels 2 and
        // 3, and a partial last segment, at one- and multi-segment
        // batches.
        let cfg = TraceGenConfig {
            steps: 11,
            max_levels: 4,
            regrid_interval: 8,
            ..TraceGenConfig::smoke()
        };
        let at = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| generate_trace(AppKind::Bl2d, &cfg))
        };
        let one = at(1);
        assert_eq!(one.len(), 11);
        for threads in [2, 3, 7] {
            assert_eq!(at(threads), one, "{threads} threads");
        }
    }

    #[test]
    fn smoke_trace_has_expected_shape() {
        let cfg = TraceGenConfig::smoke();
        let trace = generate_trace(AppKind::Tp2d, &cfg);
        assert_eq!(trace.len(), cfg.steps as usize);
        // Every snapshot validated on push already; check refinement shows
        // up and the depth limit is respected.
        let max_depth = trace
            .snapshots
            .iter()
            .map(|s| s.hierarchy.depth())
            .max()
            .unwrap();
        assert!(max_depth >= 2, "no refinement generated");
        assert!(max_depth <= cfg.max_levels);
    }

    #[test]
    fn all_kernels_produce_refinement() {
        let cfg = TraceGenConfig::smoke();
        for kind in AppKind::ALL {
            let trace = generate_trace(kind, &cfg);
            let refined_steps = trace
                .snapshots
                .iter()
                .filter(|s| s.hierarchy.depth() >= 2)
                .count();
            assert!(
                refined_steps > trace.len() / 2,
                "{}: refinement in only {refined_steps}/{} steps",
                kind.name(),
                trace.len()
            );
        }
    }

    #[test]
    fn trace_is_deterministic() {
        let cfg = TraceGenConfig::smoke();
        let a = generate_trace(AppKind::Bl2d, &cfg);
        let b = generate_trace(AppKind::Bl2d, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn level1_respects_its_regrid_cadence() {
        let cfg = TraceGenConfig::smoke();
        let trace = generate_trace(AppKind::Sc2d, &cfg);
        // Level 1 is rebuilt at even steps only: at odd steps it must be
        // identical to the previous step.
        for (prev, cur) in trace.pairs() {
            if cur.step % 2 == 1 {
                let a = prev.hierarchy.levels.get(1).map(|l| l.rects());
                let b = cur.hierarchy.levels.get(1).map(|l| l.rects());
                assert_eq!(a, b, "level 1 changed at odd step {}", cur.step);
            }
        }
    }

    #[test]
    fn rm2d_base_grid_is_two_to_one() {
        let cfg = TraceGenConfig::smoke();
        let trace = generate_trace(AppKind::Rm2d, &cfg);
        let e = trace.meta.base_domain.extent();
        assert_eq!(e.x, 2 * e.y);
    }

    #[test]
    fn hierarchies_track_the_moving_solution() {
        // The refined region must move over the run (otherwise the trace
        // carries no migration signal).
        let cfg = TraceGenConfig::smoke();
        let trace = generate_trace(AppKind::Tp2d, &cfg);
        let first = trace
            .snapshots
            .iter()
            .find(|s| s.hierarchy.depth() >= 2)
            .expect("some refinement");
        let last = trace
            .snapshots
            .iter()
            .rev()
            .find(|s| s.hierarchy.depth() >= 2)
            .expect("some refinement");
        assert_ne!(
            first.hierarchy.levels[1].rects(),
            last.hierarchy.levels[1].rects(),
            "refinement never moved"
        );
    }

    #[test]
    fn sp3d_trace_refines_moves_and_validates() {
        let mut cfg = TraceGenConfig::smoke();
        cfg.base_cells = 16; // keep the 3-D smoke run small
        let trace = generate_trace_3d(AppKind::Sp3d, &cfg);
        assert_eq!(trace.len(), cfg.steps as usize);
        let refined_steps = trace
            .snapshots
            .iter()
            .filter(|s| s.hierarchy.depth() >= 2)
            .count();
        assert!(
            refined_steps > trace.len() / 2,
            "SP3D refined only {refined_steps}/{} steps",
            trace.len()
        );
        let first = trace
            .snapshots
            .iter()
            .find(|s| s.hierarchy.depth() >= 2)
            .expect("refinement");
        let last = trace
            .snapshots
            .iter()
            .rev()
            .find(|s| s.hierarchy.depth() >= 2)
            .expect("refinement");
        assert_ne!(
            first.hierarchy.levels[1].rects(),
            last.hierarchy.levels[1].rects(),
            "shell never moved"
        );
        // Deterministic.
        assert_eq!(trace, generate_trace_3d(AppKind::Sp3d, &cfg));
    }

    #[test]
    fn source_and_batch_generators_agree() {
        let cfg = TraceGenConfig::smoke();
        let batch = generate_trace(AppKind::Tp2d, &cfg);
        let mut src = trace_source(AppKind::Tp2d, &cfg);
        assert_eq!(src.len_hint(), Some(cfg.steps as usize));
        let mut n = 0;
        while let Some(s) = src.next_snapshot().unwrap() {
            assert_eq!(s, batch.snapshots[n], "step {n} diverged");
            n += 1;
        }
        assert_eq!(n, batch.len());
        // 3-D too.
        let mut cfg3 = TraceGenConfig::smoke();
        cfg3.base_cells = 16;
        cfg3.steps = 4;
        let batch3 = generate_trace_3d(AppKind::Sp3d, &cfg3);
        let mut src3 = trace_source_3d(AppKind::Sp3d, &cfg3);
        let mut got = Vec::new();
        while let Some(s) = src3.next_snapshot().unwrap() {
            got.push(s);
        }
        assert_eq!(got, batch3.snapshots);
    }

    #[test]
    fn generate_trace_any_dispatches_on_dim() {
        let mut cfg = TraceGenConfig::smoke();
        cfg.base_cells = 16;
        cfg.steps = 3;
        assert_eq!(generate_trace_any(AppKind::Tp2d, &cfg).dim(), 2);
        assert_eq!(generate_trace_any(AppKind::Sp3d, &cfg).dim(), 3);
    }

    #[test]
    fn validate_names_the_first_field_below_its_bound() {
        assert_eq!(TraceGenConfig::paper().validate(), Ok(()));
        assert_eq!(TraceGenConfig::smoke().validate(), Ok(()));
        let bad = |edit: fn(&mut TraceGenConfig)| {
            let mut cfg = TraceGenConfig::smoke();
            edit(&mut cfg);
            cfg.validate().unwrap_err()
        };
        let e = bad(|c| c.steps = 0);
        assert_eq!((e.field, &*e.bound, &*e.value), ("steps", ">= 1", "0"));
        let e = bad(|c| c.ratio = 0);
        assert_eq!((e.field, &*e.bound), ("ratio", ">= 2"));
        let e = bad(|c| c.ref_resolution = 4);
        assert_eq!(
            e.to_string(),
            "`ref_resolution` = 4 is out of range (must be >= 8)"
        );
        assert_eq!(bad(|c| c.base_cells = -3).field, "base_cells");
        assert_eq!(bad(|c| c.max_levels = 0).field, "max_levels");
        assert_eq!(bad(|c| c.flag_buffer = -1).field, "flag_buffer");
        assert_eq!(bad(|c| c.cluster.min_block = 0).field, "cluster.min_block");
        let e = bad(|c| c.cluster.min_efficiency = f64::NAN);
        assert_eq!(
            e.to_string(),
            "`cluster.min_efficiency` = NaN is out of range (must be in [0, 1])"
        );
        // The smallest valid config generates a one-snapshot trace.
        let cfg = TraceGenConfig {
            steps: 1,
            base_cells: 16,
            ref_resolution: MIN_REF_RESOLUTION,
            ..TraceGenConfig::smoke()
        };
        for kind in [AppKind::Rm2d, AppKind::Sp3d] {
            assert_eq!(generate_trace_any(kind, &cfg).len(), 1, "{}", kind.name());
        }
    }

    #[test]
    #[should_panic(expected = "`steps` = 0 is out of range")]
    fn a_zero_step_source_is_refused() {
        let cfg = TraceGenConfig {
            steps: 0,
            ..TraceGenConfig::smoke()
        };
        trace_source_3d(AppKind::Sp3d, &cfg);
    }

    #[test]
    fn app_kind_registry_covers_both_dims() {
        assert_eq!(AppKind::parse("sp3d"), Some(AppKind::Sp3d));
        assert_eq!(AppKind::Sp3d.dim(), 3);
        assert_eq!(AppKind::Rm2d.dim(), 2);
        assert_eq!(
            AppKind::EVERY.len(),
            AppKind::ALL.len() + AppKind::ALL_3D.len() + AppKind::SYNTHETIC.len()
        );
        // The synthetic phase-change stressor is deliberately *not* part
        // of the paper's figure axis.
        assert!(!AppKind::ALL.contains(&AppKind::Pc2d));
        assert_eq!(AppKind::Pc2d.dim(), 2);
        for kind in AppKind::EVERY {
            assert_eq!(AppKind::parse(kind.name()), Some(kind));
            assert!(!kind.describe(&TraceGenConfig::smoke()).is_empty());
        }
    }
}
