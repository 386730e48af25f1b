//! # samr-partition — SAMR grid-hierarchy partitioners
//!
//! The paper classifies SAMR partitioners as *patch-based*, *domain-based*
//! or *hybrid* (§2.2) and validates its model against hierarchies
//! partitioned by the hybrid Nature+Fable tool in a static "neutral"
//! configuration (§5.1.2). This crate implements all three families from
//! scratch:
//!
//! - [`DomainSfcPartitioner`]: Parashar–Browne-style composite
//!   partitioning — the base domain is linearized with a space-filling
//!   curve (Morton or Hilbert, fully or *partially* ordered), weighted
//!   with the composite workload of all overlaid levels, and cut into
//!   contiguous processor chunks. All levels are cut identically, which
//!   eliminates inter-level communication at the cost of load imbalance
//!   for deep hierarchies;
//! - [`PatchPartitioner`]: SAMRAI-style per-level distribution — each
//!   level's patches are bin-packed (LPT) independently, splitting
//!   oversized patches; good load balance, but parent and child cells land
//!   on different processors (inter-level communication);
//! - [`HybridPartitioner`]: the Nature+Fable scheme — homogeneous
//!   unrefined *Hues* are separated from complex refined *Cores* in a
//!   strictly domain-based fashion; Cores are assigned to processor
//!   groups, clustered into *bi-levels*, and each bi-level is partitioned
//!   within its group; Hues are expert-blocked and distributed to top up
//!   processor loads.
//!
//! All partitioners implement the [`Partitioner`] trait and emit a
//! [`Partition`]: per level, a set of disjoint owner-tagged fragments that
//! tile the level's patches exactly (checked by
//! [`validate_partition`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod choice;
pub mod hybrid;
pub mod patch_part;
pub mod sfc_part;
pub mod types;
pub mod weights;

pub use choice::PartitionerChoice;
pub use hybrid::{HybridParams, HybridPartitioner};
pub use patch_part::{PatchAssign, PatchParams, PatchPartitioner};
pub use samr_geom::sfc::SfcCurve;
pub use sfc_part::{DomainSfcParams, DomainSfcPartitioner};
pub use types::{
    validate_partition, Fragment, LevelPartition, Partition, PartitionScratch, Partitioner, ProcId,
};
