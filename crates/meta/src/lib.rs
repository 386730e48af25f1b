//! # samr-meta — the adaptive meta-partitioner
//!
//! "The goal of the adaptive meta-partitioner is to provide [adaptive
//! run-time management] for parallel SAMR applications": select and
//! configure the most appropriate partitioning technique at run time,
//! based on the current application and system state (Figure 2 of the
//! paper). The classification model of `samr-core` supplies the state as
//! a continuous point `(d1, d2, d3)`; this crate supplies:
//!
//! - [`selector`]: the mapping from classification point to partitioner
//!   selection *and configuration* — coarse-grained family choice plus
//!   fine-grained parameter steering, with hysteresis against thrashing;
//! - [`meta`]: [`SelectingPartitioner`], the one stateful
//!   [`samr_partition::Partitioner`] behind both selectors: it
//!   re-classifies at every invocation and delegates to the selected
//!   technique. [`MetaPartitioner`] classifies through the model fold
//!   ([`meta::ModelClassifier`]);
//! - [`octant_meta`]: [`OctantMetaPartitioner`], the same mechanism
//!   with the §3 octant/ArMADA classifier — the baseline the continuous
//!   selector is compared against;
//! - [`compare`]: the experiment driver comparing every *static*
//!   partitioner choice against the dynamic meta-partitioner on a trace —
//!   the proof-of-concept claim (§1/§3: even simple dynamic selection
//!   reduces execution times) made reproducible;
//! - [`policy`]: adaptive repartitioning policies — the
//!   [`samr_sim::policy::PartitionPolicy`] implementations that switch
//!   the partitioner *mid-run* when observed imbalance or communication
//!   crosses a hysteresis threshold, paying the switch's migration bill.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod meta;
pub mod octant_meta;
pub mod policy;
pub mod selector;

pub use compare::{compare_on_trace, ComparisonResult};
pub use meta::{MetaPartitioner, SelectingPartitioner};
pub use octant_meta::OctantMetaPartitioner;
pub use policy::{adaptive_presets, AdaptiveConfig, AdaptivePolicy};
pub use selector::{PatienceGate, Selector, SelectorConfig};
