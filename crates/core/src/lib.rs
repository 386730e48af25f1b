//! # samr-core — the partitioner-centric classification model
//!
//! This crate is the paper's primary contribution: a model that, **ab
//! initio** — from nothing but the unpartitioned grid hierarchy and a few
//! machine parameters — places the current state of a SAMR application
//! into a *continuous, absolute, partitioner-centric classification
//! space* whose three dimensions are exactly the three universal
//! partitioning trade-offs (§4):
//!
//! 1. **load balance vs. communication** (Trade-off 1, from Part I;
//!    reconstructed here as the pair `β_l`, `β_c`),
//! 2. **partitioning speed vs. overall quality** (Trade-off 2, §4.3),
//! 3. **data migration** (Trade-off 3, §4.4 — the penalty `β_m`, this
//!    paper's headline result).
//!
//! The paper's experimental claim (Figures 4–7) is that `β_m` and `β_c`,
//! computed per step from the trace alone, capture the *shape* of the
//! measured relative data migration and communication of an actual
//! partitioned run. The [`model::ModelPipeline`] reproduces exactly that
//! computation; `samr-sim` provides the measured side.
//!
//! The [`octant`] module implements the older discrete octant approach
//! and an ArMADA-style relative classifier (§3) — the baselines the paper
//! argues are inadequate — so the comparison is reproducible too.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod model;
pub mod octant;
pub mod sampling;
pub mod space;
pub mod tradeoff1;
pub mod tradeoff2;
pub mod tradeoff3;

pub use model::{ModelAccumulator, ModelConfig, ModelPipeline, ModelState};
pub use space::{ClassificationPoint, StateCurve};
pub use tradeoff3::{beta_m, BetaMDenominator};
