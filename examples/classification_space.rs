//! Figure 3 (right) reproduction: the continuous partitioner-centric
//! classification space and the state locus.
//!
//! For each of the four applications, runs the model over the trace and
//! prints the locus — the curve of `(d1, d2, d3)` classification points
//! the simulation traces out. Unlike the octant approach's discrete
//! transitions, the locus is a smooth curve; its arc length measures how
//! much the partitioning requirements moved (the motivation for dynamic
//! re-selection), and the octant-transition count shows how coarse the
//! legacy discrete view of the same trajectory would have been.

use samr::apps::AppKind;
use samr::engine::{cached_trace, configs};
use samr::model::ModelPipeline;

fn main() {
    let reduced = std::env::args().any(|a| a == "--reduced");
    let cfg = if reduced {
        configs::reduced()
    } else {
        configs::paper()
    };
    println!("app,step,d1,d2,d3");
    for kind in AppKind::ALL {
        let trace = cached_trace(kind, &cfg);
        let pipeline = ModelPipeline::new();
        let curve = match &*trace {
            samr::trace::AnyTrace::D2(t) => pipeline.state_curve(t),
            samr::trace::AnyTrace::D3(t) => pipeline.state_curve(t),
        };
        for (step, p) in &curve.points {
            println!(
                "{},{},{:.4},{:.4},{:.4}",
                kind.name(),
                step,
                p.d1,
                p.d2,
                p.d3
            );
        }
        eprintln!(
            "{}: locus arc length {:.3} over {} steps; {} octant transitions \
             (the discrete legacy view would have re-selected that many times)",
            kind.name(),
            curve.arc_length(),
            curve.len(),
            curve.octant_transitions(),
        );
    }
}
