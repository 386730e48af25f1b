//! # samr-engine — the campaign engine
//!
//! The paper's contribution is a *pipeline*: application trace → penalty
//! model → partitioner selection → execution simulation. `samr-engine`
//! wires it once — the examples, the benchmark suites and the `samr`
//! CLI all run through it instead of each hard-coding one
//! (app × partitioner × nprocs) combination — and makes the sweep
//! itself a first-class, composable, statically described artifact:
//!
//! - [`Scenario`]: one fully described pipeline run — application kind,
//!   trace configuration, partitioner specification and simulation
//!   configuration — with serde round-tripping, so a scenario can be
//!   stored, diffed and reproduced from its JSON description alone;
//! - [`PartitionerSpec`]: the registry naming every configured
//!   partitioner family (static choices via
//!   [`samr_partition::PartitionerChoice`], plus the adaptive
//!   meta-partitioner and the octant baseline), shared by the selector,
//!   the benches and the CLI instead of three ad-hoc match blocks;
//! - [`PolicySpec`]: the repartitioning-policy registry — static
//!   assignment versus adaptive mid-run switching
//!   ([`samr_meta::AdaptivePolicy`]) — swept as a first-class campaign
//!   axis orthogonal to the partitioner axis;
//! - [`Campaign`]: the front end over cartesian sweeps (apps ×
//!   partitioners × policies × processor counts × ghost widths ×
//!   machines). The [`plan`] layer expands a [`CampaignSpec`] into a
//!   deterministic, serializable [`CampaignPlan`] (stable scenario IDs,
//!   globally unique artifact slugs, the cohorts of scenarios that share
//!   one simulation, and a shard assignment that keeps each cohort
//!   whole); the [`exec`] layer runs a slice of it in one process — the
//!   whole plan, or one shard ([`ShardExecutor`]); the [`merge`] layer
//!   validates shard manifests and copies their artifacts. A run is
//!   plan → run slice → finish, a merge is validate → copy → finish,
//!   and both finish through [`finish_campaign`], which writes
//!   `campaign.csv`, the manifest and the Pareto front, so a merged
//!   campaign is byte-identical to the unsharded run;
//! - [`ValidationRun`]: the paper's §5.1 figure-regeneration bundle
//!   (Figures 4–7), now assembled from campaign scenario outcomes;
//! - [`store`]: the process-wide trace/model cache, keyed by the **full**
//!   trace configuration (the facade's old cache omitted `max_levels`
//!   and the clustering options from its key, so two configurations
//!   differing only there collided and returned the wrong trace). Its
//!   [`cached_source`] path is the streaming default scenarios run
//!   through: traces are generated straight to disk and served as
//!   bounded-memory snapshot streams whenever the in-memory byte budget
//!   ([`store::trace_cache_budget`]) would be exceeded.
//!
//! *What to run* (the plan) is fixed and serializable, *where it runs*
//! (the whole plan in one process, or one shard per host) is the
//! caller's choice, and the merger proves the pieces reassemble the
//! exact campaign that was planned.
//!
//! ## Example
//!
//! ```
//! use samr_engine::{Campaign, CampaignSpec, PartitionerSpec};
//! use samr_apps::{AppKind, TraceGenConfig};
//!
//! let spec = CampaignSpec::new(TraceGenConfig::smoke())
//!     .apps([AppKind::Bl2d])
//!     .partitioners([PartitionerSpec::parse("hybrid").unwrap()])
//!     .nprocs([4]);
//! let outcomes = Campaign::run(&spec);
//! assert_eq!(outcomes.len(), 1);
//! assert!(outcomes[0].to_csv().lines().count() > 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atomic;
pub mod campaign;
pub mod exec;
pub mod merge;
pub mod pareto;
pub mod plan;
pub mod policy;
pub mod resume;
pub mod scenario;
pub mod spec;
pub mod store;
pub mod validation;

pub use atomic::atomic_write;
pub use campaign::{Campaign, CampaignRun, CampaignSpec};
pub use exec::{build_thread_pool, cohorts, shard_dir_name, ShardExecutor, ShardRun};
pub use merge::{
    find_shard_dirs, finish_campaign, merge_shards, CampaignManifest, MergeError, MergeReport,
    ShardManifest,
};
pub use pareto::{
    compute_front, front_for_dir, parse_objectives, read_front, write_front, Objective,
    ParetoEntry, ParetoError, ParetoFront, ParetoPoint, CAMPAIGN_PARETO,
};
pub use plan::{CampaignPlan, PlannedScenario, ShardStrategy};
pub use policy::PolicySpec;
pub use resume::{Completion, CompletionRecord};
pub use scenario::{Scenario, ScenarioOutcome, ScenarioSummary};
pub use spec::PartitionerSpec;
pub use store::{cached_model, cached_source, cached_trace, set_trace_cache_budget};
pub use validation::{configs, ShapeStats, ValidationRun};
