//! # samr — meta-partitioner reproduction facade
//!
//! This crate re-exports every subsystem of the reproduction of
//! *"A Partitioner-Centric Model for SAMR Partitioning Trade-off
//! Optimization: Part II"* (Steensland & Ray, SAND2003-8725 / ICPP 2004)
//! under one roof, and hosts the cross-crate integration tests in
//! `tests/` and the runnable examples in `examples/`.
//!
//! ## Subsystem map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`geom`] | `samr-geom` | integer boxes, region algebra, space-filling curves |
//! | [`grid`] | `samr-grid` | patches, levels, hierarchies, Berger–Rigoutsos clustering |
//! | [`apps`] | `samr-apps` | the four application kernels (TP2D, BL2D, SC2D, RM2D) |
//! | [`trace`] | `samr-trace` | hierarchy trace format, codecs and snapshot streams |
//! | [`partition`] | `samr-partition` | SFC / patch-based / hybrid partitioners |
//! | [`sim`] | `samr-sim` | trace-driven execution simulator |
//! | [`model`] | `samr-core` | the paper's model: penalties and classification space |
//! | [`meta`] | `samr-meta` | the adaptive meta-partitioner |
//! | [`engine`] | `samr-engine` | scenario descriptions, the partitioner registry, campaign sweeps |
//!
//! ## Quickstart
//!
//! ```
//! use samr::apps::{AppKind, TraceGenConfig};
//! use samr::model::ModelPipeline;
//!
//! // Generate a short BL2D hierarchy trace and compute the paper's
//! // per-step penalties ab initio from the unpartitioned hierarchy.
//! let trace = samr::apps::generate_trace(AppKind::Bl2d, &TraceGenConfig::smoke());
//! let states = ModelPipeline::new().run(&trace);
//! assert_eq!(states.len(), trace.len());
//! for s in &states {
//!     assert!((0.0..=1.0).contains(&s.beta_m));
//! }
//! ```

#![forbid(unsafe_code)]

pub use samr_apps as apps;
pub use samr_core as model;
pub use samr_engine as engine;
pub use samr_geom as geom;
pub use samr_grid as grid;
pub use samr_meta as meta;
pub use samr_partition as partition;
pub use samr_sim as sim;
pub use samr_trace as trace;
