//! Figure 4 reproduction: RM2D — model penalties vs. measured behaviour.
//!
//! Runs the paper's §5.1 pipeline for the Richtmyer–Meshkov kernel:
//! generate the 100-step hierarchy trace (5 levels, factor-2 space/time
//! refinement, regrid every 4 steps per level, granularity 2), compute
//! β_c and β_m per step ab initio, partition every snapshot with the
//! static neutral hybrid set-up on 16 processors, simulate the execution,
//! and print both panels of Figure 4 as CSV plus the shape statistics.
//!
//! Run with `--reduced` for a fast (seconds) variant of the same
//! pipeline.

use samr::apps::AppKind;
use samr::engine::{configs, ValidationRun};

fn main() {
    let reduced = std::env::args().any(|a| a == "--reduced");
    let cfg = if reduced {
        configs::reduced()
    } else {
        configs::paper()
    };
    let run = ValidationRun::execute(AppKind::Rm2d, &cfg, &configs::sim());
    print!("{}", run.to_csv());
    eprintln!("{}", run.summary());
    eprintln!(
        "paper expectation (Fig. 4): penalties capture the essence; both series change seemingly randomly"
    );
}
