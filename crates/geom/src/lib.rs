//! # samr-geom — integer index-space geometry for SAMR
//!
//! Structured adaptive mesh refinement (SAMR) manipulates *logically
//! rectangular* index boxes: patches of a grid hierarchy are boxes, a
//! partitioner cuts boxes, the data-migration penalty of the paper is a sum
//! of box intersections. This crate provides the exact-arithmetic geometry
//! substrate that everything else builds on, **generic over the spatial
//! dimension** (`D ∈ {2, 3}` in practice — the paper's model is
//! dimension-agnostic and the engine sweeps both):
//!
//! - [`Point`]: `D`-dimensional integer lattice points, with [`Point2`]
//!   and [`Point3`] aliases that deref to named `x`/`y`(/`z`) views so the
//!   2-D call sites read unchanged;
//! - [`AABox`]: non-empty axis-aligned boxes with inclusive bounds, with
//!   refinement/coarsening (the factor-2 space refinement of the paper),
//!   intersection, growth (ghost regions) and splitting; [`Rect2`] is the
//!   2-D alias the original code base was written against;
//! - [`boxops`]: algebra on box lists — subtraction, disjointification,
//!   coalescing and exact union volumes;
//! - [`Region`]: a canonicalized disjoint union of boxes supporting the set
//!   algebra the simulator needs (what part of a ghost region belongs to
//!   which owner, what part of a level is covered by the next one, …);
//! - [`Grid2`]/[`Grid3`] ([`dense::Grid`]): dense buffers over a box domain
//!   (solution fields and refinement flag masks);
//! - [`sfc`]: Morton and Hilbert space-filling curves in 2-D and 3-D used
//!   by the domain-based partitioners.
//!
//! All arithmetic is `i64`/`u64` and exact: the model of the paper is a
//! *deterministic* function of the grid hierarchy, and the reproduction
//! keeps it bit-reproducible across runs, thread counts and — for `D = 2` —
//! across the dimension-generic refactor (the 2-D property tests pin the
//! generic code to the original 2-D outputs).

#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod boxops;
pub mod dense;
pub mod point;
pub mod rect;
pub mod region;
pub mod sfc;

pub use dense::{Grid2, Grid3};
pub use point::{Point, Point2, Point3};
pub use rect::{AABox, Axis, Box3, Rect2};
pub use region::{Region, Region2, Region3};
pub use sfc::{sfc_key, sfc_key_nd, SfcCurve};
