//! # samr-sim — trace-driven SAMR execution simulator
//!
//! The paper's measurements come from software "that simulates the
//! execution of the Berger–Colella SAMR algorithm … driven by an
//! application execution trace obtained from a single processor run"
//! (§5.1.3), computing per-regrid-step load balance, communication, data
//! migration and overheads for a chosen partitioner and processor count.
//! This crate is that simulator:
//!
//! - [`comm`]: intra-level ghost-cell communication (per local time step)
//!   and inter-level parent–child transfers, counted exactly from fragment
//!   overlaps;
//! - [`migration`]: grid points whose owner changes between consecutive
//!   partitionings — the numerator of the paper's grid-relative data
//!   migration metric;
//! - [`index`]: the flat grid-bucket fragment index behind the metric
//!   paths, with the all-pairs `naive_*` twins retained as
//!   property-tested oracles;
//! - [`metrics`]: the per-step record ([`StepMetrics`]) with both raw cell
//!   counts and the paper's §4.1 *grid-relative* normalizations;
//! - [`exec`]: a machine model turning cell counts into execution-time
//!   estimates (used by the meta-partitioner experiments);
//! - [`policy`]: partition policies — the runtime owner of the "which
//!   partitioner" decision ([`StaticPolicy`] here; adaptive policies
//!   implement the same [`PartitionPolicy`] contract upstack in
//!   `samr-meta`);
//! - [`stream`]: the simulation driver — a
//!   [`samr_trace::SnapshotSource`] and a cohort of [`PartitionPolicy`]
//!   runs in, per-step metrics out, with peak residency bounded by the
//!   window size (snapshot-parallel within each window; strictly
//!   sequential at window 1 for stateful selectors and switching
//!   policies), one pass partitioning each configuration a snapshot
//!   needs once for every run of the cohort;
//! - [`simulate`]: the simulation configuration and result, and the
//!   per-step metrics the driver derives from one distribution.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod comm;
pub mod exec;
pub mod index;
pub mod metrics;
pub mod migration;
pub mod policy;
pub mod simulate;
pub mod stream;

pub use exec::MachineModel;
pub use index::{FragIndex, MetricScratch};
pub use metrics::{SeriesSummary, StepMetrics};
pub use policy::{PartitionPolicy, PolicySwitch, StaticPolicy, SwitchEvent};
pub use simulate::{SimConfig, SimResult};
pub use stream::{
    default_window, simulate_cohort, simulate_policy_source_stats, CohortMember, StreamStats,
};
