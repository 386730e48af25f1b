//! QUAL1: the paper's §5.2 qualitative claims, asserted quantitatively.
//!
//! "Examining the plots, it seems that the proposed model generally
//! captures the essence of application behavior, i.e., a larger β_m
//! generally corresponds to a greater amount of data migration and a
//! larger β_c generally corresponds to larger communication amount. The
//! trends are similar, and in case of oscillatory behavior, the model
//! captures the time period of the oscillation. […] β_c reflects a
//! 'worst-case scenario' […] the partitioner could in reality cope
//! relatively easy. […] The penalty β_m, on the other hand, is somewhat
//! cautious in its predictions."
//!
//! Thresholds are calibrated on the reduced configuration (same pipeline
//! and regrid schedule as the paper set-up, smaller grids) with generous
//! margins; the paper-scale numbers live in EXPERIMENTS.md.

use samr::apps::AppKind;
use samr::engine::{configs, ValidationRun};
use samr::sim::metrics::dominant_period;

fn runs() -> Vec<ValidationRun> {
    let cfg = configs::reduced();
    let sim = configs::sim();
    AppKind::ALL
        .iter()
        .map(|&k| ValidationRun::execute(k, &cfg, &sim))
        .collect()
}

#[test]
fn larger_beta_m_means_more_migration() {
    // Positive correlation between β_m and measured relative migration
    // for every application.
    for run in runs() {
        assert!(
            run.migration_shape.correlation > 0.3,
            "{}: migration correlation {:.3} too weak",
            run.app.name(),
            run.migration_shape.correlation
        );
    }
}

#[test]
fn larger_beta_c_means_more_communication() {
    // Positive correlation between β_c and the measured relative
    // communication of the clean domain-based run (the hybrid's partially
    // ordered SFC adds selection noise the ab-initio model cannot see —
    // see EXPERIMENTS.md).
    for run in runs() {
        assert!(
            run.comm_shape_domain.correlation > 0.25,
            "{}: communication correlation {:.3} too weak",
            run.app.name(),
            run.comm_shape_domain.correlation
        );
    }
}

#[test]
fn beta_c_is_aggressive_worst_case() {
    // β_c must bound the measured domain-based communication from above
    // on average ("reflects a worst-case scenario").
    for run in runs() {
        assert!(
            run.comm_shape_domain.amplitude() > 1.0,
            "{}: β_c amplitude ratio {:.2} is not aggressive",
            run.app.name(),
            run.comm_shape_domain.amplitude()
        );
    }
}

#[test]
fn beta_m_is_cautious_for_most_applications() {
    // "The amplitude was generally slightly lower": under the hybrid
    // partitioner (whose partially ordered SFC inflates actual
    // migration), β_m's mean stays below the measurement for at least
    // three of the four kernels.
    let cautious = runs()
        .iter()
        .filter(|r| r.migration_shape.amplitude() < 1.0)
        .count();
    assert!(cautious >= 3, "only {cautious}/4 applications cautious");
}

#[test]
fn bl2d_model_shows_the_pulse_period() {
    // The BL2D injection pulse has a 10-step period; β_m must pick it up
    // (the measured series is noisier at reduced scale, so only the model
    // side is asserted here; the paper-scale run shows 10/10).
    let cfg = configs::reduced();
    let run = ValidationRun::execute(AppKind::Bl2d, &cfg, &configs::sim());
    let beta_m: Vec<f64> = run.model.iter().skip(1).map(|s| s.beta_m).collect();
    let period = dominant_period(&beta_m).expect("β_m should oscillate for BL2D");
    assert!(
        (8..=12).contains(&period),
        "BL2D β_m period {period} not near the 10-step pulse"
    );
}

#[test]
fn penalties_are_well_formed_series() {
    for run in runs() {
        for s in run.model.iter() {
            assert!((0.0..=1.0).contains(&s.beta_l));
            assert!((0.0..=1.0).contains(&s.beta_c));
            assert!((0.0..=1.0).contains(&s.beta_m));
        }
        assert_eq!(run.model.len(), run.sim.steps.len());
        // Measured series are physical.
        for s in &run.sim.steps {
            assert!(s.rel_comm >= 0.0);
            assert!(s.rel_migration >= 0.0);
            assert!(s.load_imbalance >= 1.0 - 1e-9);
        }
    }
}

#[test]
fn model_peaks_do_not_lag_measurements_much() {
    // §5.2: "It seems that β_m peaks one time-step before the relative
    // data migration occasionally" — the model may lead, but it should
    // not systematically trail the measurement.
    for run in runs() {
        assert!(
            run.migration_shape.model_lead >= -1,
            "{}: model lags by {}",
            run.app.name(),
            -run.migration_shape.model_lead
        );
    }
}
