//! Release-only speed floors: each optimized path against the twin it
//! replaced, both timed in one process, so a ratio needs no baseline
//! file.
//!
//! End-to-end timing belongs to `samr-benchmark/`. What an end-to-end
//! run cannot show is how much faster each optimized path is than its
//! retained twin: the scalar SFC references, the all-pairs `naive_*`
//! accounting, the restart-scan `naive_coalesce`. Each test times one
//! pair and asserts
//! that the median of its per-round `twin / optimized` time ratios is
//! at least the pair's floor.
//!
//! A floor keeps half of the gain measured when it was set,
//! `1 + (median - 1) / 2`. A pair whose optimized path measured below
//! 1.10x is a parity pair: its floor is 0.75, which catches only a
//! regression into a clear slowdown. The measured medians and the
//! machine they were measured on are in README.md.
//!
//! The tests time code, so they are `#[ignore]`d and mean something
//! only in a release build:
//!
//! ```text
//! cargo test --release --test speedups -- --ignored --nocapture
//! ```
//!
//! The closures are the ones the measurements were taken with, and
//! `black_box` stays where it is: moving it into a per-element loop
//! changes what the compiler may fold, and with it the ratio.

use samr::apps::AppKind;
use samr::engine::{cached_trace, configs};
use samr::geom::sfc::{self, scalar, BatchIsa, SfcCurve};
use samr::geom::{boxops, Rect2};
use samr::grid::{FlagField, GridHierarchy};
use samr::partition::weights::{composite_unit_weights, sfc_order, split_contiguous};
use samr::partition::{DomainSfcParams, Partitioner, PartitionerChoice, PatchPartitioner};
use samr::sim::comm::{
    comm_accounting, naive_involved_comm_points, naive_per_proc_comm, naive_total_comm,
};
use samr::sim::migration::{migration_accounting, naive_migration_cells, naive_per_proc_migration};
use samr::sim::MetricScratch;
use samr::trace::HierarchyTrace;
use std::hint::black_box;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Timed rounds per pair; each round yields one ratio.
const ROUNDS: usize = 15;
/// How long each side runs per sample.
const SAMPLE: Duration = Duration::from_millis(10);
/// Held while a pair is timed: the test harness runs tests on parallel
/// threads, and two pairs timed at once would share cores and memory
/// bandwidth.
static TIMING: Mutex<()> = Mutex::new(());

/// Seconds per call of `f`, over about [`SAMPLE`] of calls.
fn per_call<R>(f: &mut impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    let mut calls = 0u32;
    loop {
        black_box(f());
        calls += 1;
        let elapsed = start.elapsed();
        if elapsed >= SAMPLE {
            return elapsed.as_secs_f64() / f64::from(calls);
        }
    }
}

/// The `p`-quantile of sorted `xs`, interpolated between neighbours.
fn quantile(xs: &[f64], p: f64) -> f64 {
    let at = (xs.len() - 1) as f64 * p;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (at - lo as f64)
}

/// Time `optimized` against `twin` over [`ROUNDS`] rounds, print the
/// median `twin / optimized` ratio with its quartiles, and assert the
/// median is at least `floor`.
fn assert_speedup<A, B>(
    pair: &str,
    floor: f64,
    mut optimized: impl FnMut() -> A,
    mut twin: impl FnMut() -> B,
) {
    if cfg!(debug_assertions) {
        panic!(
            "{pair}: a speed ratio of unoptimized code means nothing; \
             run `cargo test --release --test speedups -- --ignored`"
        );
    }
    // A pair that failed its floor panicked holding the lock; the lock
    // guards no data, so the next pair may take it anyway.
    let _timing = TIMING.lock().unwrap_or_else(PoisonError::into_inner);
    // One untimed call each: first-touch allocation and lazily grown
    // scratch are not what the pair compares.
    black_box(optimized());
    black_box(twin());
    let mut ratios: Vec<f64> = (0..ROUNDS)
        .map(|round| {
            // Alternate which side goes first, so drift within a round
            // (clock frequency, cache state) favours neither side.
            let (opt, base) = if round % 2 == 0 {
                let opt = per_call(&mut optimized);
                (opt, per_call(&mut twin))
            } else {
                let base = per_call(&mut twin);
                (per_call(&mut optimized), base)
            };
            base / opt
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let (q1, median, q3) = (
        quantile(&ratios, 0.25),
        quantile(&ratios, 0.5),
        quantile(&ratios, 0.75),
    );
    println!("{pair}: {median:.2} [{q1:.2}, {q3:.2}], floor {floor:.2}");
    assert!(
        median >= floor,
        "{pair}: median speedup {median:.2}x [{q1:.2}, {q3:.2}] is below its floor {floor:.2}x"
    );
}

/// 2-D SFC working set: a 256×256 tile, 64 Ki keys.
const SIDE_2D: u64 = 256;
/// 3-D SFC working set: a 32×32×32 tile, 32 Ki keys.
const SIDE_3D: u64 = 32;

fn coords_2d() -> Vec<[u64; 2]> {
    (0..SIDE_2D)
        .flat_map(|y| (0..SIDE_2D).map(move |x| [x, y]))
        .collect()
}

fn coords_3d() -> Vec<[u64; 3]> {
    (0..SIDE_3D)
        .flat_map(|z| (0..SIDE_3D).flat_map(move |y| (0..SIDE_3D).map(move |x| [x, y, z])))
        .collect()
}

/// A batch 2-D Morton kernel against the per-key scalar reference loop
/// it replaced.
fn morton_2d_pair(pair: &str, floor: f64, batch: fn(&[[u64; 2]], &mut Vec<u64>)) {
    let coords2 = coords_2d();
    let mut out_keys: Vec<u64> = Vec::new();
    assert_speedup(
        pair,
        floor,
        || {
            batch(black_box(&coords2), &mut out_keys);
            out_keys.last().copied()
        },
        || {
            let mut acc = 0u64;
            for c in black_box(&coords2[..]) {
                acc = acc.wrapping_add(scalar::morton_key(c[0], c[1]));
            }
            acc
        },
    );
}

/// A batch 3-D Morton kernel against the per-key scalar reference loop
/// it replaced.
fn morton_3d_pair(pair: &str, floor: f64, batch: fn(&[[u64; 3]], &mut Vec<u64>)) {
    let coords3 = coords_3d();
    let mut out_keys: Vec<u64> = Vec::new();
    assert_speedup(
        pair,
        floor,
        || {
            batch(black_box(&coords3), &mut out_keys);
            out_keys.last().copied()
        },
        || {
            let mut acc = 0u64;
            for c in black_box(&coords3[..]) {
                acc = acc.wrapping_add(scalar::morton_key_3d(c[0], c[1], c[2]));
            }
            acc
        },
    );
}

#[test]
#[ignore = "times code: run in release with --ignored"]
fn batch_morton_2d_beats_scalar() {
    morton_2d_pair("morton_2d_batch", 1.38, sfc::morton_keys);
}

#[test]
#[ignore = "times code: run in release with --ignored"]
fn batch_morton_3d_beats_scalar() {
    morton_3d_pair("morton_3d_batch", 2.57, sfc::morton_keys_3d);
}

#[test]
#[ignore = "times code: run in release with --ignored"]
fn avx2_morton_2d_beats_scalar() {
    if !BatchIsa::Avx2.is_available() {
        println!("morton_2d_avx2: skipped, this CPU has no AVX2");
        return;
    }
    morton_2d_pair("morton_2d_avx2", 1.2, |c, out| {
        sfc::morton_keys_with(BatchIsa::Avx2, c, out)
    });
}

#[test]
#[ignore = "times code: run in release with --ignored"]
fn avx2_morton_3d_beats_scalar() {
    if !BatchIsa::Avx2.is_available() {
        println!("morton_3d_avx2: skipped, this CPU has no AVX2");
        return;
    }
    morton_3d_pair("morton_3d_avx2", 1.77, |c, out| {
        sfc::morton_keys_3d_with(BatchIsa::Avx2, c, out)
    });
}

#[test]
#[ignore = "times code: run in release with --ignored"]
fn branchless_hilbert_2d_beats_scalar() {
    let coords2 = coords_2d();
    assert_speedup(
        "hilbert_2d_encode",
        1.24,
        || {
            let mut acc = 0u64;
            for c in black_box(&coords2[..]) {
                acc = acc.wrapping_add(sfc::hilbert_key(8, c[0], c[1]));
            }
            acc
        },
        || {
            let mut acc = 0u64;
            for c in black_box(&coords2[..]) {
                acc = acc.wrapping_add(scalar::hilbert_key(8, c[0], c[1]));
            }
            acc
        },
    );
}

#[test]
#[ignore = "times code: run in release with --ignored"]
fn batch_hilbert_3d_beats_scalar() {
    let coords3 = coords_3d();
    let mut out_keys: Vec<u64> = Vec::new();
    assert_speedup(
        "hilbert_3d_batch",
        1.08,
        || {
            sfc::sfc_keys_nd::<3>(SfcCurve::Hilbert, 5, black_box(&coords3), &mut out_keys);
            out_keys.last().copied()
        },
        || {
            let mut acc = 0u64;
            for c in black_box(&coords3[..]) {
                acc = acc.wrapping_add(scalar::hilbert_key_3d(5, c[0], c[1], c[2]));
            }
            acc
        },
    );
}

#[test]
#[ignore = "times code: run in release with --ignored"]
fn row_major_flag_marking_beats_per_cell_set() {
    // Both sides evaluate the same ring indicator on every cell of a
    // 256² domain, so the pair isolates the marking mechanics.
    let dom = Rect2::from_extents(SIDE_2D as i64, SIDE_2D as i64);
    let extent = dom.extent();
    let indicator = |u: [f64; 2]| {
        let dx = u[0] - 0.5;
        let dy = u[1] - 0.5;
        1.0 - ((dx * dx + dy * dy).sqrt() - 0.33).abs()
    };
    let thr = 0.98;
    assert_speedup(
        "flag_mark_rows",
        1.41,
        || {
            let mut flags = FlagField::new(dom);
            flags.mark_rows(&dom, |row, run| {
                let mut u = [0.0f64; 2];
                u[1] = (row.y as f64 + 0.5) / extent.y as f64;
                for (k, cell) in run.iter_mut().enumerate() {
                    u[0] = ((row.x + k as i64) as f64 + 0.5) / extent.x as f64;
                    if indicator(u) > thr {
                        *cell = true;
                    }
                }
            });
            flags.count()
        },
        || {
            let mut flags = FlagField::new(dom);
            for p in dom.iter_cells() {
                let u = [
                    (p.x as f64 + 0.5) / extent.x as f64,
                    (p.y as f64 + 0.5) / extent.y as f64,
                ];
                if indicator(u) > thr {
                    flags.set(p);
                }
            }
            flags.count()
        },
    );
}

/// Processors the accounting and partition pairs distribute over.
const NPROCS: usize = 16;
/// Ghost width of the communication pairs.
const GHOST: i64 = 1;

/// Index of the reduced-config snapshot with the most patches: the
/// hardest instance for the accounting and partition pairs.
fn hardest(trace: &HierarchyTrace<2>) -> usize {
    trace
        .snapshots
        .iter()
        .enumerate()
        .max_by_key(|(_, s)| {
            s.hierarchy
                .levels
                .iter()
                .map(|l| l.patch_count())
                .sum::<usize>()
        })
        .expect("non-empty trace")
        .0
}

/// The reduced-config snapshot of `kind` with the most patches.
fn representative_hierarchy(kind: AppKind) -> GridHierarchy<2> {
    let trace = cached_trace(kind, &configs::reduced());
    let trace = trace.as_2d().expect("the paper's applications are 2-D");
    trace.snapshots[hardest(trace)].hierarchy.clone()
}

/// The indexed one-pass communication accounting against the three
/// all-pairs walks it replaced, on a patch-partitioned snapshot (the
/// fragment-heavy worst case).
fn comm_pair(pair: &str, floor: f64, kind: AppKind) {
    let h = representative_hierarchy(kind);
    let part = PatchPartitioner::default().partition(&h, NPROCS);
    let mut scratch = MetricScratch::default();
    assert_speedup(
        pair,
        floor,
        || {
            let acc = comm_accounting(black_box(&h), black_box(&part), GHOST, &mut scratch);
            acc.transfer_volume() + acc.involved_points()
        },
        || {
            naive_total_comm(black_box(&h), black_box(&part), GHOST)
                + naive_involved_comm_points(black_box(&h), black_box(&part), GHOST)
                + naive_per_proc_comm(black_box(&h), black_box(&part), GHOST)
                    .iter()
                    .sum::<u64>()
        },
    );
}

#[test]
#[ignore = "times code: run in release with --ignored"]
fn indexed_comm_accounting_beats_all_pairs_on_sc2d() {
    comm_pair("comm_sc2d", 3.6, AppKind::Sc2d);
}

#[test]
#[ignore = "times code: run in release with --ignored"]
fn indexed_comm_accounting_beats_all_pairs_on_rm2d() {
    comm_pair("comm_rm2d", 1.69, AppKind::Rm2d);
}

#[test]
#[ignore = "times code: run in release with --ignored"]
fn indexed_migration_accounting_beats_all_pairs_on_rm2d() {
    // The hardest RM2D snapshot and its predecessor: a regrid-heavy
    // step.
    let trace = cached_trace(AppKind::Rm2d, &configs::reduced());
    let trace = trace.as_2d().expect("RM2D is 2-D");
    let (pi, ci) = match hardest(trace) {
        0 => (0, (trace.snapshots.len() - 1).min(1)),
        i => (i - 1, i),
    };
    let prev_h = &trace.snapshots[pi].hierarchy;
    let cur_h = &trace.snapshots[ci].hierarchy;
    let p = PatchPartitioner::default();
    let prev_part = p.partition(prev_h, NPROCS);
    let cur_part = p.partition(cur_h, NPROCS);
    let mut mscratch = MetricScratch::default();
    assert_speedup(
        "migration_rm2d",
        1.91,
        || {
            migration_accounting(
                black_box(prev_h),
                black_box(&prev_part),
                black_box(cur_h),
                black_box(&cur_part),
                NPROCS,
                &mut mscratch,
            )
        },
        || {
            naive_migration_cells(
                black_box(prev_h),
                black_box(&prev_part),
                black_box(cur_h),
                black_box(&cur_part),
            ) + naive_per_proc_migration(
                black_box(prev_h),
                black_box(&prev_part),
                black_box(cur_h),
                black_box(&cur_part),
                NPROCS,
            )
            .iter()
            .sum::<u64>()
        },
    );
}

#[test]
#[ignore = "times code: run in release with --ignored"]
fn involvement_union_beats_disjointify() {
    // Every fragment's ghost clips — the boxes `comm_accounting` unions
    // for the §4.1 involvement count — in the three default families'
    // partitions of the hardest RM2D snapshot at 256 processors.
    let h = representative_hierarchy(AppKind::Rm2d);
    let mut lists: Vec<Vec<Rect2>> = Vec::new();
    for choice in [
        PartitionerChoice::domain_sfc(),
        PartitionerChoice::patch(),
        PartitionerChoice::hybrid(),
    ] {
        let part = choice.partition(&h, 256);
        for level in &part.levels {
            for f in &level.fragments {
                let clips: Vec<Rect2> = level
                    .fragments
                    .iter()
                    .filter(|g| g.owner != f.owner)
                    .filter_map(|g| g.rect.grow(GHOST).intersect(&f.rect))
                    .collect();
                if !clips.is_empty() {
                    lists.push(clips);
                }
            }
        }
    }
    let (mut pieces, mut next) = (Vec::new(), Vec::new());
    assert_speedup(
        "involvement_union",
        1.72,
        || {
            black_box(&lists)
                .iter()
                .map(|clips| boxops::union_cells_with(clips, &mut pieces, &mut next))
                .sum::<u64>()
        },
        || {
            black_box(&lists)
                .iter()
                .map(|clips| boxops::total_cells(&boxops::disjointify(clips)))
                .sum::<u64>()
        },
    );
}

#[test]
#[ignore = "times code: run in release with --ignored"]
fn incremental_coalesce_beats_the_restart_scan() {
    // Domain-SFC's atomic units on the hardest RM2D snapshot, in curve
    // order, bucketed by owner: the longest bucket is the largest list
    // `proc_regions` coalesces for this snapshot.
    let h = representative_hierarchy(AppKind::Rm2d);
    let params = DomainSfcParams::default();
    let grid = composite_unit_weights(&h, params.atomic_unit);
    let order = sfc_order(&grid, params.curve, params.full_order);
    let owners = split_contiguous(&grid, &order, NPROCS);
    let mut buckets = vec![Vec::new(); NPROCS];
    for (&u, &owner) in order.iter().zip(&owners) {
        buckets[owner as usize].push(grid.unit_rect(&h.base_domain, u));
    }
    let units = buckets
        .into_iter()
        .max_by_key(Vec::len)
        .expect("at least one processor");
    assert_speedup(
        "coalesce_incremental",
        5.02,
        || boxops::coalesce(black_box(&units)).len(),
        || boxops::naive_coalesce(black_box(&units)).len(),
    );
}
