//! # samr-apps — the paper's four SAMR application kernels
//!
//! §5.1.1 of the paper evaluates the model on four "real-world" SAMR
//! application kernels: a 2-D transport benchmark (TP2D, from the GrACE
//! distribution), the Buckley–Leverett oil–water flow model (BL2D, from
//! IPARS), a scalar wave / numerical relativity kernel (SC2D, from
//! Cactus), and a Richtmyer–Meshkov compressible-turbulence instability
//! (RM2D, from the Caltech VTF). The originals are not available, so this
//! crate implements each kernel *as a real 2-D PDE solver* of the same
//! equation family (see `DESIGN.md` §2 for the substitution argument):
//!
//! - [`tp2d`]: linear transport under a differentially rotating velocity
//!   field (first-order upwind) — quasi-periodic, "seemingly random"
//!   adaptation dynamics;
//! - [`bl2d`]: Buckley–Leverett two-phase flow with a pulsed corner
//!   injector (Godunov upwinding of the convex fractional-flow function) —
//!   an expanding saturation front with strongly oscillatory refinement;
//! - [`sc2d`]: the scalar wave equation (leapfrog) — an expanding,
//!   reflecting, refocusing wave ring with oscillatory refinement;
//! - [`rm2d`]: the compressible Euler equations (Rusanov flux) with a
//!   shock-accelerated perturbed density interface — the fingering
//!   Richtmyer–Meshkov instability with turbulent, random-looking
//!   adaptation.
//!
//! Beyond the paper's four, [`pc2d`] is a *synthetic* two-regime
//! phase-change workload (a spread plateau that collapses into a deeply
//! nested corner singularity mid-run) built to exercise the adaptive
//! repartitioning policy, where no single static partitioner choice is
//! right for the whole run.
//!
//! Each 2-D solver's substep is one serial sweep over row slices: every
//! face flux is computed once and applied to the two cells it
//! separates, and per-cell quantities (RM2D's pressure, velocities and
//! sound speed, BL2D's fractional flow) once per cell. RM2D, the
//! costliest kernel, keeps its rows as structure-of-arrays: one array
//! per derived quantity and per face-flux component, so each of its
//! loops is a plain slice loop that the compiler vectorizes. Its sweep
//! is compiled twice, a baseline entry and an AVX2 entry, and the
//! kernel picks one once from CPUID. Each cell's kinetic energy is
//! carried from one substep's positivity floor to the next substep's
//! pressure, which saves a division per cell. The per-cell stencils
//! the sweeps replaced stay in the tests as bit-identity oracles, and
//! RM2D's runs against both entries. Kernels start no threads: trace
//! generation parallelizes across applications, and an application's
//! regrids across its segments ([`tracegen`]), on the caller's rayon
//! pool, so `--threads` caps it like everything else.
//!
//! Each kernel advances a uniform *reference* solution and exposes a
//! normalized feature indicator; [`tracegen`] samples the indicator at
//! every level's resolution, flags, buffers, clusters (Berger–Rigoutsos)
//! and properly nests patches, producing the trace that both the model and
//! the execution simulator consume — the exact §5.1 set-up: 5 levels of
//! factor-2 space/time refinement, regridding every 4 steps per level,
//! granularity 2, 100 coarse steps.

#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod bl2d;
pub mod kernel;
pub mod numerics;
pub mod pc2d;
pub mod rm2d;
pub mod sc2d;
pub mod sp3d;
pub mod tp2d;
pub mod tracegen;

pub use kernel::Kernel;
pub use samr_trace::{AnyTrace, HierarchyTrace};
pub use sp3d::Sp3d;
pub use tracegen::{
    generate_trace, generate_trace_3d, generate_trace_any, trace_source, trace_source_3d,
    trace_source_any, AppKind, AppSource, ConfigError, TraceGenConfig,
};
