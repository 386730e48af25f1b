//! Figure regeneration: the paper's §5.1 validation bundle, assembled
//! from campaign scenario outcomes.
//!
//! One [`ValidationRun`] bundles everything a data figure needs: the
//! model series (β_c, β_m — the red curves of Figures 4–7), the measured
//! series from the partitioned execution simulation (relative
//! communication and migration — the blue curves), the load-imbalance
//! series (Figure 1) and the *shape statistics* the paper's visual
//! comparison corresponds to (correlations, amplitude ratios, peak lags,
//! dominant oscillation periods). The examples and integration tests
//! both consume this type, so both report the same numbers — and both
//! are thin wrappers over the campaign engine rather than hand-wired
//! pipelines.

use crate::scenario::{Scenario, ScenarioOutcome};
use crate::spec::PartitionerSpec;
use samr_apps::{AppKind, TraceGenConfig};
use samr_core::ModelState;
use samr_partition::PartitionerChoice;
use samr_sim::metrics::{dominant_period, peak_lag, pearson};
use samr_sim::{SeriesSummary, SimConfig, SimResult};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Shape statistics comparing a model series against a measured series —
/// the quantitative version of the paper's visual §5.2 assessment.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ShapeStats {
    /// Pearson correlation between model and measurement.
    pub correlation: f64,
    /// `mean(model) / mean(measured)`: > 1 means the model is
    /// "aggressive" (overshoots), < 1 "cautious". `None` when the
    /// measured series is identically zero (degenerate scenarios such
    /// as a single processor): the ratio is undefined there, and an
    /// explicit `None` round-trips through JSON artifacts where a
    /// non-finite float would not.
    pub amplitude_ratio: Option<f64>,
    /// Lag (steps) at which cross-correlation peaks; positive = the model
    /// *leads* the measurement.
    pub model_lead: i64,
    /// Dominant oscillation period of the model series, if any.
    pub model_period: Option<usize>,
    /// Dominant oscillation period of the measured series, if any.
    pub measured_period: Option<usize>,
}

impl ShapeStats {
    /// Compare a model series against a measurement.
    pub fn compare(model: &[f64], measured: &[f64]) -> Self {
        let m_mean = SeriesSummary::of(measured).mean;
        Self {
            correlation: pearson(model, measured),
            amplitude_ratio: (m_mean > 0.0).then(|| SeriesSummary::of(model).mean / m_mean),
            model_lead: peak_lag(model, measured, 4),
            model_period: dominant_period(model),
            measured_period: dominant_period(measured),
        }
    }

    /// The amplitude ratio as a plain float for display and comparison:
    /// an undefined ratio (flat-zero measurement) reads as `+inf`, since
    /// any nonzero model mean overshoots a zero measurement.
    pub fn amplitude(&self) -> f64 {
        self.amplitude_ratio.unwrap_or(f64::INFINITY)
    }
}

/// The two scenarios a validation figure compares: the static neutral
/// hybrid set-up of §5.1.2 and the clean domain-based run.
fn figure_specs() -> [PartitionerSpec; 2] {
    [
        PartitionerSpec::Static(PartitionerChoice::hybrid()),
        PartitionerSpec::Static(PartitionerChoice::domain_sfc()),
    ]
}

/// Everything needed to regenerate one of Figures 4–7 (plus Figure 1's
/// series for BL2D): per-step model and measurement series and their
/// shape statistics.
pub struct ValidationRun {
    /// Which application kernel.
    pub app: AppKind,
    /// Per-step model states (β_l, β_c, β_m, classification points).
    pub model: Arc<Vec<ModelState>>,
    /// Simulation result under the static neutral hybrid set-up (§5.1.2).
    pub sim: SimResult,
    /// Secondary simulation under the clean domain-based SFC partitioner —
    /// the paper's contribution (5), "complementary communication results
    /// for dimension I using the new metric". The domain-based run has no
    /// partial-ordering noise, so it isolates how well β_c tracks the
    /// grid's inherent communication need.
    pub sim_domain: SimResult,
    /// Shape statistics: β_c vs. actual relative communication (left
    /// panel, hybrid partitioner as in the paper's figures).
    pub comm_shape: ShapeStats,
    /// Shape statistics: β_c vs. the domain-based run's communication
    /// (complementary dimension-I results).
    pub comm_shape_domain: ShapeStats,
    /// Shape statistics: β_m vs. actual relative migration (right panel).
    pub migration_shape: ShapeStats,
}

impl ValidationRun {
    /// Run the full §5.1 pipeline for one application through the
    /// campaign engine: the hybrid and domain-based scenarios over the
    /// shared cached trace.
    pub fn execute(app: AppKind, cfg: &TraceGenConfig, sim_cfg: &SimConfig) -> Self {
        let run = |partitioner: PartitionerSpec| {
            Scenario::new(app, cfg.clone(), partitioner, *sim_cfg).run()
        };
        let [hybrid_spec, domain_spec] = figure_specs();
        Self::from_outcomes(run(hybrid_spec), run(domain_spec))
    }

    /// Assemble a figure bundle from the two scenario outcomes a figure
    /// compares (hybrid panel + domain-based complement). Both outcomes
    /// must come from the same application trace.
    pub fn from_outcomes(hybrid: ScenarioOutcome, domain: ScenarioOutcome) -> Self {
        assert_eq!(
            hybrid.scenario.app, domain.scenario.app,
            "figure outcomes must share an application"
        );
        let model = hybrid.model;
        let beta_c: Vec<f64> = model.iter().skip(1).map(|s| s.beta_c).collect();
        let rel_comm_dom: Vec<f64> = domain
            .sim
            .steps
            .iter()
            .skip(1)
            .map(|s| s.rel_comm)
            .collect();
        Self {
            app: hybrid.scenario.app,
            comm_shape: hybrid.comm_shape,
            comm_shape_domain: ShapeStats::compare(&beta_c, &rel_comm_dom),
            migration_shape: hybrid.migration_shape,
            sim: hybrid.sim,
            sim_domain: domain.sim,
            model,
        }
    }

    /// The figure number this run reproduces (paper order: RM2D=4,
    /// BL2D=5, SC2D=6, TP2D=7).
    pub fn figure_number(&self) -> u32 {
        match self.app {
            AppKind::Rm2d => 4,
            AppKind::Bl2d => 5,
            AppKind::Sc2d => 6,
            AppKind::Tp2d => 7,
            AppKind::Pc2d | AppKind::Sp3d => {
                unreachable!("only the paper's four 2-D kernels have figures")
            }
        }
    }

    /// Render the figure data as CSV: one row per step with both panels'
    /// series (plus load imbalance, which Figure 1 uses).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "step,beta_l,beta_c,beta_m,rel_comm,rel_comm_domain,rel_migration,load_imbalance,total_points\n",
        );
        for ((m, s), sd) in self
            .model
            .iter()
            .zip(&self.sim.steps)
            .zip(&self.sim_domain.steps)
        {
            out.push_str(&format!(
                "{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{}\n",
                m.step,
                m.beta_l,
                m.beta_c,
                m.beta_m,
                s.rel_comm,
                sd.rel_comm,
                s.rel_migration,
                s.load_imbalance,
                s.total_points
            ));
        }
        out
    }

    /// One-paragraph textual summary of the shape comparison (printed by
    /// the examples and recorded in EXPERIMENTS.md).
    pub fn summary(&self) -> String {
        format!(
            "Figure {} ({}): comm[hybrid] r={:.3} amp={:.2} lead={}; comm[domain] r={:.3} amp={:.2}; migration r={:.3} amp={:.2} lead={}; periods model/measured comm {:?}/{:?} mig {:?}/{:?}",
            self.figure_number(),
            self.app.name(),
            self.comm_shape.correlation,
            self.comm_shape.amplitude(),
            self.comm_shape.model_lead,
            self.comm_shape_domain.correlation,
            self.comm_shape_domain.amplitude(),
            self.migration_shape.correlation,
            self.migration_shape.amplitude(),
            self.migration_shape.model_lead,
            self.comm_shape.model_period,
            self.comm_shape.measured_period,
            self.migration_shape.model_period,
            self.migration_shape.measured_period,
        )
    }

    /// Regenerate all four validation figures (4–7) as one campaign:
    /// apps × {hybrid, domain-sfc} over the shared cached traces, zipped
    /// into per-figure bundles in paper order.
    pub fn all_figures(cfg: &TraceGenConfig, sim_cfg: &SimConfig) -> Vec<ValidationRun> {
        let spec = crate::campaign::CampaignSpec {
            apps: AppKind::ALL.to_vec(),
            dims: vec![2],
            partitioners: figure_specs().to_vec(),
            nprocs: vec![sim_cfg.nprocs],
            ghost_widths: vec![sim_cfg.ghost_width],
            trace: cfg.clone(),
            machines: vec![sim_cfg.machine],
            reuse_unchanged: sim_cfg.reuse_unchanged,
            policies: vec![crate::policy::PolicySpec::Static],
        };
        let outcomes = crate::campaign::Campaign::run(&spec);
        // Scenario order is app-major with the hybrid spec first.
        outcomes
            .chunks_exact(2)
            .map(|pair| Self::from_outcomes(pair[0].clone(), pair[1].clone()))
            .collect()
    }
}

/// The standard experiment configurations.
pub mod configs {
    use super::*;

    /// The paper's full §5.1.1 configuration.
    pub fn paper() -> TraceGenConfig {
        TraceGenConfig::paper()
    }

    /// Reduced configuration for CI-speed integration tests: the same
    /// pipeline and regrid schedule, smaller grids, 40 steps, 4 levels.
    pub fn reduced() -> TraceGenConfig {
        TraceGenConfig {
            steps: 40,
            base_cells: 48,
            max_levels: 4,
            ref_resolution: 96,
            ..TraceGenConfig::paper()
        }
    }

    /// The paper-faithful simulation configuration (16 processors).
    pub fn sim() -> SimConfig {
        SimConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_stats_of_identical_series_are_perfect() {
        let s: Vec<f64> = (0..32).map(|i| ((i as f64) * 0.7).sin().abs()).collect();
        let stats = ShapeStats::compare(&s, &s);
        assert!((stats.correlation - 1.0).abs() < 1e-9);
        assert!((stats.amplitude() - 1.0).abs() < 1e-9);
        assert_eq!(stats.model_lead, 0);
    }

    #[test]
    fn validation_run_via_campaign_is_consistent() {
        let cfg = TraceGenConfig::smoke();
        let sim_cfg = SimConfig {
            nprocs: 4,
            ..SimConfig::default()
        };
        let run = ValidationRun::execute(AppKind::Tp2d, &cfg, &sim_cfg);
        assert_eq!(run.model.len(), run.sim.steps.len());
        assert_eq!(run.model.len(), run.sim_domain.steps.len());
        assert_eq!(run.figure_number(), 7);
        assert!(run.to_csv().lines().count() == run.model.len() + 1);
    }

    #[test]
    fn all_figures_covers_the_four_apps_in_paper_order() {
        let cfg = TraceGenConfig::smoke();
        let sim_cfg = SimConfig {
            nprocs: 4,
            ..SimConfig::default()
        };
        let runs = ValidationRun::all_figures(&cfg, &sim_cfg);
        let figures: Vec<u32> = runs.iter().map(ValidationRun::figure_number).collect();
        assert_eq!(figures, vec![4, 5, 6, 7]);
    }

    #[test]
    fn reduced_traces_start_a_segment_every_second_step() {
        // Level 1 regrids every 2 of the 40 coarse steps.
        let starts: Vec<u32> = configs::reduced()
            .segments()
            .iter()
            .map(|s| s.start)
            .collect();
        assert_eq!(starts, (0..40).step_by(2).collect::<Vec<_>>());
    }
}
