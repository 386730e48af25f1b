//! Regenerate every data figure of the paper in one campaign.
//!
//! Expands the figure sweep (4 apps × {hybrid, domain-sfc}) through
//! `samr-engine`'s `Campaign`, writes `results/fig{4,5,6,7}_<app>.csv`
//! (both panels of each validation figure plus the Figure-1 series),
//! prints every figure's shape-statistics summary, and finishes with the
//! META1 comparison. Pass `--reduced` for the fast variant.

use samr::apps::AppKind;
use samr::engine::{cached_trace, configs, ValidationRun};
use samr::meta::compare_on_trace;
use samr::sim::SimConfig;
use std::fs;

fn main() {
    let reduced = std::env::args().any(|a| a == "--reduced");
    let cfg = if reduced {
        configs::reduced()
    } else {
        configs::paper()
    };
    let sim_cfg = configs::sim();
    fs::create_dir_all("results").expect("create results dir");

    println!("== Figures 4-7: model vs measurement (one campaign) ==");
    let runs = ValidationRun::all_figures(&cfg, &sim_cfg);
    for run in &runs {
        let path = format!(
            "results/fig{}_{}.csv",
            run.figure_number(),
            run.app.name().to_lowercase()
        );
        fs::write(&path, run.to_csv()).expect("write figure csv");
        println!("{}   [{path}]", run.summary());
    }

    println!("\n== Figure 1: BL2D dynamics under a static P (see fig5_bl2d.csv) ==");
    let bl = runs
        .iter()
        .find(|r| r.app == AppKind::Bl2d)
        .expect("BL2D figure in campaign");
    let imb: Vec<f64> = bl.sim.steps.iter().map(|s| s.load_imbalance).collect();
    println!(
        "load imbalance mean {:.3}, range [{:.3}, {:.3}]",
        imb.iter().sum::<f64>() / imb.len() as f64,
        imb.iter().cloned().fold(f64::INFINITY, f64::min),
        imb.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
    );

    println!("\n== META1: static vs dynamic selection (balanced machine) ==");
    for kind in AppKind::ALL {
        let trace = cached_trace(kind, &cfg);
        let res = compare_on_trace(trace.as_2d().expect("paper app"), &SimConfig::default())
            .expect("generated traces are never empty");
        print!("{:5}:", kind.name());
        for r in &res.static_runs {
            print!("  {}={:.0}", r.name, r.total_time);
        }
        println!(
            "  META={:.0}  (vs best {:.3}, vs worst {:.3})",
            res.meta_run.total_time,
            res.meta_vs_best(),
            res.meta_vs_worst()
        );
    }
}
