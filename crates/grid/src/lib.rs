//! # samr-grid — SAMR grid hierarchies
//!
//! The dynamic adaptive grid hierarchy is the central object of the paper:
//! the model's penalties are functions of nothing but the *sequence of
//! hierarchies* `H_0, H_1, …` that an application produces as it adapts.
//! This crate provides:
//!
//! - [`Patch`], [`Level`], [`GridHierarchy`]: the Berger–Colella structured
//!   hierarchy — a coarse base grid (level 0) with factor-`r` refined patch
//!   levels overlaid on flagged regions;
//! - [`FlagField`]: refinement flag masks produced by the application error
//!   estimators;
//! - [`cluster`]: the Berger–Rigoutsos point-clustering algorithm that turns
//!   flags into patch boxes (signature trims, hole and inflection splits,
//!   efficiency threshold, minimum block granularity);
//! - [`nesting`]: proper-nesting enforcement between consecutive levels;
//! - [`stats`]: hierarchy statistics — grid points `|H|`, the workload
//!   `W = Σ_l N_l·r^l` that normalizes the paper's grid-relative
//!   communication metric, surface/volume measures, and refinement-pattern
//!   descriptors used by the octant-approach baseline classifier.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod flags;
pub mod hierarchy;
pub mod nesting;
pub mod stats;

pub use cluster::{cluster_flags, ClusterOptions};
pub use flags::FlagField;
pub use hierarchy::{GridHierarchy, HierarchyError, Level, Patch, PatchId};
pub use stats::HierarchyStats;
