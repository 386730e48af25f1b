//! # samr-trace — grid-hierarchy traces
//!
//! The paper's entire validation methodology is *trace-driven* (§5.1.3):
//! an application execution trace captures the state of the SAMR grid
//! hierarchy at every regrid step, **independent of any partitioning**, and
//! is then consumed twice — once by the model (producing `β_m`, `β_c` per
//! step) and once by the partitioner + execution simulator (producing the
//! actual relative migration and communication). This crate is that trace:
//!
//! - [`Snapshot`]: the hierarchy at one coarse time step;
//! - [`HierarchyTrace`]: the full sequence plus run metadata;
//! - [`SnapshotSource`]: the pull-based streaming form — one snapshot
//!   resident at a time in the file readers, one batch of segments in
//!   the generator, so paper-scale sweeps stay in bounded memory from
//!   the generator to the consumers;
//! - [`io`]: JSON-lines (human-inspectable) and compact binary
//!   serialization, each with batch and streaming readers *and* writers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod io;
pub mod source;
pub mod trace;

pub use source::{shared_source, AnySnapshotSource, MemorySource, SnapshotSource};
pub use trace::{AnyTrace, HierarchyTrace, Snapshot, TraceMeta};
