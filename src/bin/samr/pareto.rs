//! `samr pareto` — print the trade-off front of a finished campaign
//! directory, and optionally score the same scenarios through the
//! paper's model to report predicted-vs-observed front agreement.
//!
//! ```text
//! samr pareto DIR [--objectives imbalance,comm,migration,overhead] [--predict]
//! ```
//!
//! The front is recomputed from the per-scenario summary artifacts (so
//! `--objectives` can select any axis subset); with the default
//! objective set it is exactly the `campaign.pareto.json` the campaign
//! runner and the shard merger wrote. `--predict` runs the `samr-core`
//! model over each scenario's trace with the scenario's processor
//! count as `p_ref`, builds a *predicted* front over the
//! model-predictable axes (β_l → imbalance, β_c → comm, β_m →
//! migration; the overhead axis has no model analogue and is dropped),
//! and reports per-axis Pearson correlation plus front
//! precision/recall/Jaccard — the predicted-where-the-front-bends
//! result the 2004 paper could not compute.

use crate::{flag_value, has_flag, positionals};
use samr::engine::pareto::{
    compute_front, load_entries, parse_objectives, Objective, ParetoEntry, ParetoFront,
};
use samr::model::{ModelConfig, ModelPipeline, ModelState};
use samr::sim::metrics::pearson;
use samr::trace::AnyTrace;
use std::collections::HashMap;
use std::path::Path;

/// The model-predictable axes: each maps to one per-step penalty.
const PREDICTABLE: [Objective; 3] = [Objective::Imbalance, Objective::Comm, Objective::Migration];

fn print_front(front: &ParetoFront) {
    println!(
        "# plan {} · {} scenarios · objectives: {}",
        front.plan_hash,
        front.scenario_count,
        front.objectives.join(",")
    );
    println!(
        "# front: {} of {} scenarios non-dominated",
        front.front.len(),
        front.scenario_count
    );
    let header: Vec<String> = front
        .objectives
        .iter()
        .map(|o| format!("{o:>12}"))
        .collect();
    println!(
        "{:>4} {:32} {:24} {}",
        "id",
        "slug",
        "partitioner",
        header.join(" ")
    );
    for p in front.front_points() {
        let values: Vec<String> = p.objectives.iter().map(|v| format!("{v:>12.6}")).collect();
        println!(
            "{:>4} {:32} {:24} {}",
            p.id,
            p.slug,
            p.partitioner,
            values.join(" ")
        );
    }
    println!("\n# front ownership by partitioner family");
    for fam in &front.families {
        println!(
            "  {:24} {:>3} of {:>3} scenarios on the front",
            fam.partitioner, fam.on_front, fam.scenarios
        );
    }
    println!("\n# best corner per objective");
    for r in &front.regions {
        println!(
            "  {:12} {:>12.6}  {} ({})",
            r.objective, r.value, r.slug, r.partitioner
        );
    }
}

/// Mean of a model-state series' penalty under one objective.
fn mean_penalty(states: &[ModelState], objective: Objective) -> f64 {
    if states.is_empty() {
        return 0.0;
    }
    let sum: f64 = states
        .iter()
        .map(|s| match objective {
            Objective::Imbalance => s.beta_l,
            Objective::Comm => s.beta_c,
            Objective::Migration => s.beta_m,
            Objective::Overhead => unreachable!("overhead is not model-predictable"),
        })
        .sum();
    sum / states.len() as f64
}

/// Predicted-vs-observed front agreement report.
fn predict(entries: &[ParetoEntry], objectives: &[Objective]) -> Result<(), String> {
    let axes: Vec<Objective> = objectives
        .iter()
        .copied()
        .filter(|o| PREDICTABLE.contains(o))
        .collect();
    if axes.is_empty() {
        return Err("--predict needs at least one model-predictable objective \
             (imbalance, comm or migration); overhead has no model analogue"
            .into());
    }
    let dropped: Vec<&str> = objectives
        .iter()
        .filter(|o| !PREDICTABLE.contains(o))
        .map(|o| o.name())
        .collect();
    if !dropped.is_empty() {
        eprintln!(
            "note: objective(s) {} have no model analogue and are excluded from prediction",
            dropped.join(", ")
        );
    }
    // The model is a function of the trace and its configuration alone —
    // partitioner-independent by design — so predictions differentiate
    // scenarios by (app, trace, p_ref = nprocs). Cache the series per
    // that key: a partitioner sweep re-uses one run per processor count.
    let mut cache: HashMap<String, Vec<ModelState>> = HashMap::new();
    let mut predicted: Vec<Vec<f64>> = Vec::with_capacity(entries.len());
    for e in entries {
        let s = &e.summary.scenario;
        let key = format!(
            "{}:{}:{}",
            s.app.name(),
            s.sim.nprocs,
            serde_json::to_string(&s.trace).map_err(|err| err.to_string())?
        );
        if !cache.contains_key(&key) {
            let pipeline = ModelPipeline::with_config(ModelConfig {
                p_ref: s.sim.nprocs,
                ..ModelConfig::default()
            });
            let trace = samr::engine::cached_trace(s.app, &s.trace);
            let states = match &*trace {
                AnyTrace::D2(t) => pipeline.run(t),
                AnyTrace::D3(t) => pipeline.run(t),
            };
            cache.insert(key.clone(), states);
        }
        let states = &cache[&key];
        predicted.push(axes.iter().map(|o| mean_penalty(states, *o)).collect());
    }
    // Per-axis shape agreement: does the model order scenarios the way
    // the measurements do?
    println!("\n# predicted vs observed (model with p_ref = scenario nprocs)");
    for (i, o) in axes.iter().enumerate() {
        let obs: Vec<f64> = entries.iter().map(|e| o.value(&e.summary)).collect();
        let pred: Vec<f64> = predicted.iter().map(|v| v[i]).collect();
        println!(
            "  {:12} pearson(predicted, observed) = {:+.3}",
            o.name(),
            pearson(&pred, &obs)
        );
    }
    // Front agreement over the predictable axes: observed front from
    // the measurements, predicted front from the penalties, both
    // through the same dominance kernel.
    let observed = compute_front("observed", &axes, entries).map_err(|e| e.to_string())?;
    let observed_ids: Vec<usize> = observed.front.clone();
    let pred_mask = samr::engine::pareto::front_mask(&predicted);
    let predicted_ids: Vec<usize> = entries
        .iter()
        .zip(&pred_mask)
        .filter(|(_, &m)| m)
        .map(|(e, _)| e.id)
        .collect();
    let inter = predicted_ids
        .iter()
        .filter(|id| observed_ids.contains(id))
        .count();
    let union = predicted_ids.len() + observed_ids.len() - inter;
    let ratio = |num: usize, den: usize| {
        if den == 0 {
            1.0
        } else {
            num as f64 / den as f64
        }
    };
    println!(
        "  front agreement over ({}): precision {:.3} ({} of {} predicted), \
         recall {:.3} ({} of {} observed), jaccard {:.3}",
        axes.iter().map(|o| o.name()).collect::<Vec<_>>().join(","),
        ratio(inter, predicted_ids.len()),
        inter,
        predicted_ids.len(),
        ratio(inter, observed_ids.len()),
        inter,
        observed_ids.len(),
        ratio(inter, union),
    );
    println!("  predicted front ids: {predicted_ids:?}");
    println!("  observed  front ids: {observed_ids:?}");
    Ok(())
}

pub fn cmd_pareto(args: &[String]) -> Result<(), String> {
    let dir = match positionals(args, &["--objectives"], &["--predict"])?[..] {
        [dir] => Path::new(dir),
        _ => {
            return Err(
                "expected a campaign directory (run `samr campaign --out DIR` first)".into(),
            )
        }
    };
    let objectives = match flag_value(args, "--objectives") {
        None => Objective::ALL.to_vec(),
        Some(list) => parse_objectives(&list).map_err(|e| e.to_string())?,
    };
    let (plan_hash, entries) = load_entries(dir).map_err(|e| e.to_string())?;
    if entries.is_empty() {
        return Err("the campaign has no scenarios to analyze".into());
    }
    let front = compute_front(&plan_hash, &objectives, &entries).map_err(|e| e.to_string())?;
    print_front(&front);
    if has_flag(args, "--predict") {
        predict(&entries, &objectives)?;
    }
    Ok(())
}
