//! Figure 1 + Figure 5 reproduction: BL2D dynamics under a static
//! partitioner.
//!
//! Figure 1 of the paper plots load imbalance and communication amount of
//! the BL2D application over time under a *static* choice of partitioner,
//! to motivate dynamic selection ("with a dynamic selection of P … the
//! total execution time could have been reduced"). Figure 5 superimposes
//! the model penalties on the measured relative communication and data
//! migration. This example prints both: the per-step series as CSV and
//! the oscillation statistics (the BL2D series are strongly periodic —
//! the injection discharge/recharge cycle).

use samr::apps::AppKind;
use samr::engine::{configs, ValidationRun};
use samr::sim::metrics::dominant_period;

fn main() {
    let reduced = std::env::args().any(|a| a == "--reduced");
    let cfg = if reduced {
        configs::reduced()
    } else {
        configs::paper()
    };
    let run = ValidationRun::execute(AppKind::Bl2d, &cfg, &configs::sim());
    print!("{}", run.to_csv());
    eprintln!("{}", run.summary());

    let imb: Vec<f64> = run.sim.steps.iter().map(|s| s.load_imbalance).collect();
    let comm: Vec<f64> = run.sim.steps.iter().map(|s| s.rel_comm).collect();
    eprintln!(
        "Figure 1 series: load imbalance mean {:.3} (min {:.3}, max {:.3}), period {:?}; \
         communication mean {:.3}, period {:?}",
        imb.iter().sum::<f64>() / imb.len() as f64,
        imb.iter().cloned().fold(f64::INFINITY, f64::min),
        imb.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        dominant_period(&imb),
        comm.iter().sum::<f64>() / comm.len() as f64,
        dominant_period(&comm),
    );
    eprintln!(
        "paper expectation (Fig. 1/5): oscillatory behaviour; the model follows the \
         time periods, with matching peaks and valleys"
    );
}
