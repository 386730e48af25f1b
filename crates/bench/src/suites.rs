//! The fixed benchmark suites behind `samr bench`.
//!
//! Six suites, one report each:
//!
//! - **kernels** — SFC key generation (2-D/3-D Morton and Hilbert,
//!   encode and decode, optimized public path *and* the retained scalar
//!   references so the speedup is measurable from one binary),
//!   Berger–Rigoutsos clustering on representative flag shapes, and the
//!   flag-field scans (signature, count, bounding box);
//! - **partition** — the partitioner families on the hardest snapshot of
//!   representative application traces;
//! - **sim** — the indexed communication/migration accounting against the
//!   retained all-pairs `_naive` oracles, plus the scratch-reusing
//!   partition path against the fresh-allocation one;
//! - **campaign** — one end-to-end reduced campaign through the engine;
//! - **regrid** — the trace-generation hot path: an end-to-end smoke
//!   trace, row-major flag marking vs the per-cell `set` loop, the
//!   arena-backed clusterer vs fresh allocation, and the tiered batch
//!   SFC kernels (detected tier plus a forced-AVX2 run where the CPU
//!   has it) vs their scalar references;
//! - **adaptive** — the repartitioning-policy layer on the PC2D
//!   phase-change workload: the static partitioner baselines, the
//!   adaptive presets, and a never-switching policy whose gap to the
//!   presets isolates the cost of actually switching. The suite
//!   asserts the quality contract before timing anything: the adaptive
//!   policy's simulated execution time must beat the best static
//!   assignment on this workload.
//!
//! Bench names are stable identifiers: the checked-in `BENCH_*.json`
//! baselines and the CI regression check key on them.

use crate::harness::{bench_fn, BenchBudget, BenchReport};
use crate::{bench_trace, representative_hierarchy};
use samr_apps::{AppKind, TraceGenConfig};
use samr_engine::{Campaign, CampaignSpec};
use samr_geom::sfc::SfcCurve;
use samr_geom::sfc::{self, scalar};
use samr_geom::{Axis, Rect2};
use samr_grid::{cluster_flags, cluster_flags_with, ClusterOptions, ClusterScratch, FlagField};
use samr_partition::{DomainSfcPartitioner, HybridPartitioner, Partitioner, PatchPartitioner};

/// 2-D SFC working set: a 256×256 tile, 64 Ki keys per iteration.
const SIDE_2D: u64 = 256;
const KEYS_2D: f64 = (SIDE_2D * SIDE_2D) as f64;
/// 3-D SFC working set: a 32×32×32 tile, 32 Ki keys per iteration.
const SIDE_3D: u64 = 32;
const KEYS_3D: f64 = (SIDE_3D * SIDE_3D * SIDE_3D) as f64;

/// The wavefront-like flag ring on a 256² grid — the real workload shape
/// of the grid generator.
fn ring_flags() -> FlagField<2> {
    FlagField::from_fn(Rect2::from_extents(256, 256), |p| {
        let dx = p.x as f64 - 127.5;
        let dy = p.y as f64 - 127.5;
        let r = (dx * dx + dy * dy).sqrt();
        (80.0..=92.0).contains(&r)
    })
}

/// Scattered noise flags: the clusterer's worst case (deep recursion).
fn scattered_flags() -> FlagField<2> {
    FlagField::from_fn(Rect2::from_extents(256, 256), |p| {
        (p.x * 7 + p.y * 13) % 29 == 0
    })
}

/// The `kernels` suite.
pub fn kernels_report(budget: BenchBudget) -> BenchReport {
    use std::hint::black_box;
    let mut rep = BenchReport::new("kernels", budget);
    let keys2 = Some((KEYS_2D, "keys/s"));
    let keys3 = Some((KEYS_3D, "keys/s"));

    // SFC inputs live in memory and pass through `black_box` at every
    // call, so neither path can be const-folded against the loop bounds
    // or hoisted out of the timed loop. The `_scalar` twins run the
    // exact pre-PR pattern — one inlined scalar-reference call per
    // element of the same slice — so one run measures the optimized
    // batch kernels against the pre-PR path on the machine it ran on.
    let coords2: Vec<[u64; 2]> = (0..SIDE_2D)
        .flat_map(|y| (0..SIDE_2D).map(move |x| [x, y]))
        .collect();
    let coords3: Vec<[u64; 3]> = (0..SIDE_3D)
        .flat_map(|z| (0..SIDE_3D).flat_map(move |y| (0..SIDE_3D).map(move |x| [x, y, z])))
        .collect();
    // Morton keys of a row-major tile are a permutation of 0..n — a
    // full-coverage, data-dependent decode input.
    let mut keys2d = Vec::new();
    sfc::morton_keys(&coords2, &mut keys2d);
    let mut keys3d = Vec::new();
    sfc::morton_keys_3d(&coords3, &mut keys3d);

    let mut out_keys: Vec<u64> = Vec::new();
    let mut out2: Vec<[u64; 2]> = Vec::new();
    let mut out3: Vec<[u64; 3]> = Vec::new();

    rep.benches
        .push(bench_fn("morton2_encode_64k", budget, keys2, || {
            sfc::morton_keys(black_box(&coords2), &mut out_keys);
            out_keys.last().copied()
        }));
    rep.benches
        .push(bench_fn("morton2_encode_64k_scalar", budget, keys2, || {
            let mut acc = 0u64;
            for c in black_box(&coords2[..]) {
                acc = acc.wrapping_add(scalar::morton_key(c[0], c[1]));
            }
            acc
        }));
    rep.benches
        .push(bench_fn("morton2_decode_64k", budget, keys2, || {
            sfc::morton_decodes(black_box(&keys2d), &mut out2);
            out2.last().copied()
        }));
    rep.benches
        .push(bench_fn("morton2_decode_64k_scalar", budget, keys2, || {
            let mut acc = 0u64;
            for &d in black_box(&keys2d[..]) {
                let (x, y) = scalar::morton_decode(d);
                acc = acc.wrapping_add(x ^ y);
            }
            acc
        }));
    rep.benches
        .push(bench_fn("hilbert2_encode_64k", budget, keys2, || {
            let mut acc = 0u64;
            for c in black_box(&coords2[..]) {
                acc = acc.wrapping_add(sfc::hilbert_key(8, c[0], c[1]));
            }
            acc
        }));
    rep.benches.push(bench_fn(
        "hilbert2_encode_64k_scalar",
        budget,
        keys2,
        || {
            let mut acc = 0u64;
            for c in black_box(&coords2[..]) {
                acc = acc.wrapping_add(scalar::hilbert_key(8, c[0], c[1]));
            }
            acc
        },
    ));
    rep.benches
        .push(bench_fn("hilbert2_decode_64k", budget, keys2, || {
            let mut acc = 0u64;
            for &d in black_box(&keys2d[..]) {
                let (x, y) = sfc::hilbert_decode(8, d);
                acc = acc.wrapping_add(x ^ y);
            }
            acc
        }));
    rep.benches.push(bench_fn(
        "hilbert2_decode_64k_scalar",
        budget,
        keys2,
        || {
            let mut acc = 0u64;
            for &d in black_box(&keys2d[..]) {
                let (x, y) = scalar::hilbert_decode(8, d);
                acc = acc.wrapping_add(x ^ y);
            }
            acc
        },
    ));
    rep.benches
        .push(bench_fn("morton3_encode_32k", budget, keys3, || {
            sfc::morton_keys_3d(black_box(&coords3), &mut out_keys);
            out_keys.last().copied()
        }));
    rep.benches
        .push(bench_fn("morton3_encode_32k_scalar", budget, keys3, || {
            let mut acc = 0u64;
            for c in black_box(&coords3[..]) {
                acc = acc.wrapping_add(scalar::morton_key_3d(c[0], c[1], c[2]));
            }
            acc
        }));
    rep.benches
        .push(bench_fn("morton3_decode_32k", budget, keys3, || {
            sfc::morton_decodes_3d(black_box(&keys3d), &mut out3);
            out3.last().copied()
        }));
    rep.benches
        .push(bench_fn("morton3_decode_32k_scalar", budget, keys3, || {
            let mut acc = 0u64;
            for &d in black_box(&keys3d[..]) {
                let (x, y, z) = scalar::morton_decode_3d(d);
                acc = acc.wrapping_add(x ^ y ^ z);
            }
            acc
        }));
    rep.benches
        .push(bench_fn("hilbert3_encode_32k", budget, keys3, || {
            sfc::sfc_keys_nd::<3>(SfcCurve::Hilbert, 5, black_box(&coords3), &mut out_keys);
            out_keys.last().copied()
        }));
    rep.benches.push(bench_fn(
        "hilbert3_encode_32k_scalar",
        budget,
        keys3,
        || {
            let mut acc = 0u64;
            for c in black_box(&coords3[..]) {
                acc = acc.wrapping_add(scalar::hilbert_key_3d(5, c[0], c[1], c[2]));
            }
            acc
        },
    ));
    rep.benches
        .push(bench_fn("hilbert3_decode_32k", budget, keys3, || {
            let mut acc = 0u64;
            for &d in black_box(&keys3d[..]) {
                let (x, y, z) = sfc::hilbert_decode_3d(5, d);
                acc = acc.wrapping_add(x ^ y ^ z);
            }
            acc
        }));
    rep.benches.push(bench_fn(
        "hilbert3_decode_32k_scalar",
        budget,
        keys3,
        || {
            let mut acc = 0u64;
            for &d in black_box(&keys3d[..]) {
                let (x, y, z) = scalar::hilbert_decode_3d(5, d);
                acc = acc.wrapping_add(x ^ y ^ z);
            }
            acc
        },
    ));

    // Berger–Rigoutsos clustering, fresh-allocation and scratch-reuse.
    let ring = ring_flags();
    let scattered = scattered_flags();
    let opts = ClusterOptions::paper_defaults();
    rep.benches
        .push(bench_fn("cluster_ring_256", budget, None, || {
            cluster_flags(&ring, &opts).len()
        }));
    let mut scratch = ClusterScratch::default();
    rep.benches
        .push(bench_fn("cluster_ring_256_scratch", budget, None, || {
            cluster_flags_with(&ring, &opts, &mut scratch).len()
        }));
    rep.benches
        .push(bench_fn("cluster_scattered_256", budget, None, || {
            cluster_flags(&scattered, &opts).len()
        }));

    // Flag-field scans over the ring (the grid generator's hot queries).
    let cells = Some((KEYS_2D, "cells/s"));
    let dom = ring.domain();
    rep.benches
        .push(bench_fn("signature_x_256", budget, cells, || {
            ring.signature(Axis::X, &dom).len()
        }));
    rep.benches
        .push(bench_fn("signature_y_256", budget, cells, || {
            ring.signature(Axis::Y, &dom).len()
        }));
    rep.benches
        .push(bench_fn("count_in_256", budget, cells, || {
            ring.count_in(&dom)
        }));
    rep.benches
        .push(bench_fn("bounding_box_256", budget, cells, || {
            ring.bounding_box()
        }));
    rep
}

/// The `partition` suite: every family on the hardest snapshot of two
/// representative applications at 16 processors.
pub fn partition_report(budget: BenchBudget) -> BenchReport {
    let mut rep = BenchReport::new("partition", budget);
    const NPROCS: usize = 16;
    for kind in [AppKind::Sc2d, AppKind::Rm2d] {
        let h = representative_hierarchy(kind);
        let cells = Some((h.total_points() as f64, "points/s"));
        let families: [(&str, Box<dyn Partitioner<2> + Sync>); 3] = [
            ("domain_sfc", Box::new(DomainSfcPartitioner::default())),
            ("patch", Box::new(PatchPartitioner::default())),
            ("hybrid", Box::new(HybridPartitioner::default())),
        ];
        for (name, p) in families {
            rep.benches.push(bench_fn(
                &format!("{}_{}_p{}", name, kind.name().to_ascii_lowercase(), NPROCS),
                budget,
                cells,
                || p.partition(&h, NPROCS).levels.len(),
            ));
        }
    }
    rep
}

/// The `sim` suite: the per-step metric accounting the simulator pays on
/// every snapshot, indexed production path vs the retained all-pairs
/// `_naive` oracles, on patch-partitioned representative snapshots (the
/// fragment-heavy worst case), plus the allocation-free partition path.
pub fn sim_report(budget: BenchBudget) -> BenchReport {
    use samr_partition::PartitionScratch;
    use samr_sim::comm::{
        comm_accounting, naive_involved_comm_points, naive_per_proc_comm, naive_total_comm,
    };
    use samr_sim::migration::{
        migration_accounting, naive_migration_cells, naive_per_proc_migration,
    };
    use samr_sim::MetricScratch;
    use std::hint::black_box;

    let mut rep = BenchReport::new("sim", budget);
    const NPROCS: usize = 16;
    const GHOST: i64 = 1;
    let p = PatchPartitioner::default();

    // Communication accounting per snapshot: the indexed one-pass walk
    // vs the three all-pairs walks the pre-PR step metrics performed.
    for kind in [AppKind::Sc2d, AppKind::Rm2d] {
        let h = representative_hierarchy(kind);
        let part = p.partition(&h, NPROCS);
        let points = Some((h.total_points() as f64, "points/s"));
        let kname = kind.name().to_ascii_lowercase();
        let mut scratch = MetricScratch::default();
        rep.benches
            .push(bench_fn(&format!("comm_{kname}"), budget, points, || {
                let acc = comm_accounting(black_box(&h), black_box(&part), GHOST, &mut scratch);
                acc.transfer_volume() + acc.involved_points()
            }));
        rep.benches.push(bench_fn(
            &format!("comm_{kname}_naive"),
            budget,
            points,
            || {
                naive_total_comm(black_box(&h), black_box(&part), GHOST)
                    + naive_involved_comm_points(black_box(&h), black_box(&part), GHOST)
                    + naive_per_proc_comm(black_box(&h), black_box(&part), GHOST)
                        .iter()
                        .sum::<u64>()
            },
        ));
    }

    // Migration accounting between adjacent snapshots around the hardest
    // rm2d instance (a regrid-heavy application).
    let trace = bench_trace(AppKind::Rm2d);
    let hardest = trace
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
        .0;
    let (pi, ci) = if hardest == 0 {
        (0, (trace.snapshots.len() - 1).min(1))
    } else {
        (hardest - 1, hardest)
    };
    let prev_h = &trace.snapshots[pi].hierarchy;
    let cur_h = &trace.snapshots[ci].hierarchy;
    let prev_part = p.partition(prev_h, NPROCS);
    let cur_part = p.partition(cur_h, NPROCS);
    let points = Some((cur_h.total_points() as f64, "points/s"));
    let mut mscratch = MetricScratch::default();
    rep.benches
        .push(bench_fn("migration_rm2d", budget, points, || {
            migration_accounting(
                black_box(prev_h),
                black_box(&prev_part),
                black_box(cur_h),
                black_box(&cur_part),
                NPROCS,
                &mut mscratch,
            )
        }));
    rep.benches
        .push(bench_fn("migration_rm2d_naive", budget, points, || {
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
        }));

    // The scratch-reusing partition path vs the fresh-allocation one
    // (identical output, PartitionScratch reuse contract).
    let h_rm = representative_hierarchy(AppKind::Rm2d);
    let points = Some((h_rm.total_points() as f64, "points/s"));
    let hybrid = HybridPartitioner::default();
    let mut pscratch = PartitionScratch::default();
    rep.benches
        .push(bench_fn("partition_scratch_rm2d", budget, points, || {
            hybrid
                .partition_with(black_box(&h_rm), NPROCS, &mut pscratch)
                .fragment_count()
        }));
    rep.benches.push(bench_fn(
        "partition_scratch_rm2d_naive",
        budget,
        points,
        || hybrid.partition(black_box(&h_rm), NPROCS).fragment_count(),
    ));
    rep
}

/// The `regrid` suite: the trace-generation hot path that PR-level work
/// vectorized — flag marking, clustering, batch SFC keys — each against
/// the pattern it replaced, plus one end-to-end smoke trace so the
/// composite pipeline is tracked as a single number.
pub fn regrid_report(budget: BenchBudget) -> BenchReport {
    use samr_apps::generate_trace;
    use samr_geom::sfc::BatchIsa;
    use std::hint::black_box;

    let mut rep = BenchReport::new("regrid", budget);

    // End-to-end trace generation at the smoke configuration: indicator
    // evaluation, row-major flag marking, buffering, clustering and
    // nesting for every regrid of a 10-step run.
    let smoke_cfg = TraceGenConfig::smoke();
    rep.benches
        .push(bench_fn("tracegen_smoke_tp2d", budget, None, || {
            generate_trace(AppKind::Tp2d, black_box(&smoke_cfg))
                .snapshots
                .len()
        }));

    // Flag marking over a 256² domain with the tracegen indicator shape
    // (unit-coordinate ring). The optimized path is the row-major
    // `mark_rows` single pass; the `_naive` twin is the historical
    // per-cell `set` loop — identical indicator work, so the pair
    // isolates the marking mechanics.
    let dom = Rect2::from_extents(SIDE_2D as i64, SIDE_2D as i64);
    let extent = dom.extent();
    let indicator = |u: [f64; 2]| {
        let dx = u[0] - 0.5;
        let dy = u[1] - 0.5;
        1.0 - ((dx * dx + dy * dy).sqrt() - 0.33).abs()
    };
    let thr = 0.98;
    let cells = Some((KEYS_2D, "cells/s"));
    rep.benches
        .push(bench_fn("flag_mark_ring_256", budget, cells, || {
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
        }));
    rep.benches
        .push(bench_fn("flag_mark_ring_256_naive", budget, cells, || {
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
        }));

    // Berger–Rigoutsos through the scratch arena vs fresh allocation —
    // the regrid loop threads one `ClusterScratch` through every level
    // of every regrid, so the arena delta is paid (or saved) per level.
    let ring = ring_flags();
    let scattered = scattered_flags();
    let opts = ClusterOptions::paper_defaults();
    let mut scratch = ClusterScratch::default();
    rep.benches
        .push(bench_fn("cluster_ring_arena", budget, None, || {
            cluster_flags_with(black_box(&ring), &opts, &mut scratch).len()
        }));
    rep.benches
        .push(bench_fn("cluster_ring_arena_naive", budget, None, || {
            cluster_flags(black_box(&ring), &opts).len()
        }));
    rep.benches
        .push(bench_fn("cluster_scattered_arena", budget, None, || {
            cluster_flags_with(black_box(&scattered), &opts, &mut scratch).len()
        }));
    rep.benches.push(bench_fn(
        "cluster_scattered_arena_naive",
        budget,
        None,
        || cluster_flags(black_box(&scattered), &opts).len(),
    ));

    // Batch SFC encode — the partitioner's unit-ordering pass — through
    // the best detected tier and, where the CPU has it, the forced AVX2
    // tier, each against the per-key scalar-reference loop it replaced.
    let keys2 = Some((KEYS_2D, "keys/s"));
    let keys3 = Some((KEYS_3D, "keys/s"));
    let coords2: Vec<[u64; 2]> = (0..SIDE_2D)
        .flat_map(|y| (0..SIDE_2D).map(move |x| [x, y]))
        .collect();
    let coords3: Vec<[u64; 3]> = (0..SIDE_3D)
        .flat_map(|z| (0..SIDE_3D).flat_map(move |y| (0..SIDE_3D).map(move |x| [x, y, z])))
        .collect();
    let mut out_keys: Vec<u64> = Vec::new();
    rep.benches
        .push(bench_fn("sfc_batch_morton2_64k", budget, keys2, || {
            sfc::morton_keys(black_box(&coords2), &mut out_keys);
            out_keys.last().copied()
        }));
    rep.benches.push(bench_fn(
        "sfc_batch_morton2_64k_scalar",
        budget,
        keys2,
        || {
            let mut acc = 0u64;
            for c in black_box(&coords2[..]) {
                acc = acc.wrapping_add(scalar::morton_key(c[0], c[1]));
            }
            acc
        },
    ));
    rep.benches
        .push(bench_fn("sfc_batch_morton3_32k", budget, keys3, || {
            sfc::morton_keys_3d(black_box(&coords3), &mut out_keys);
            out_keys.last().copied()
        }));
    rep.benches.push(bench_fn(
        "sfc_batch_morton3_32k_scalar",
        budget,
        keys3,
        || {
            let mut acc = 0u64;
            for c in black_box(&coords3[..]) {
                acc = acc.wrapping_add(scalar::morton_key_3d(c[0], c[1], c[2]));
            }
            acc
        },
    ));
    if BatchIsa::Avx2.is_available() {
        rep.benches
            .push(bench_fn("sfc_avx2_morton2_64k", budget, keys2, || {
                sfc::morton_keys_with(BatchIsa::Avx2, black_box(&coords2), &mut out_keys);
                out_keys.last().copied()
            }));
        rep.benches.push(bench_fn(
            "sfc_avx2_morton2_64k_scalar",
            budget,
            keys2,
            || {
                let mut acc = 0u64;
                for c in black_box(&coords2[..]) {
                    acc = acc.wrapping_add(scalar::morton_key(c[0], c[1]));
                }
                acc
            },
        ));
        rep.benches
            .push(bench_fn("sfc_avx2_morton3_32k", budget, keys3, || {
                sfc::morton_keys_3d_with(BatchIsa::Avx2, black_box(&coords3), &mut out_keys);
                out_keys.last().copied()
            }));
        rep.benches.push(bench_fn(
            "sfc_avx2_morton3_32k_scalar",
            budget,
            keys3,
            || {
                let mut acc = 0u64;
                for c in black_box(&coords3[..]) {
                    acc = acc.wrapping_add(scalar::morton_key_3d(c[0], c[1], c[2]));
                }
                acc
            },
        ));
    }
    rep
}

/// The `campaign` suite: one reduced end-to-end campaign (trace
/// generation from the engine cache, windowed simulation, metric fold)
/// — the path `samr campaign` users actually pay for.
pub fn campaign_report(budget: BenchBudget) -> BenchReport {
    let mut rep = BenchReport::new("campaign", budget);
    let spec = CampaignSpec::new(TraceGenConfig::smoke())
        .apps([AppKind::Tp2d, AppKind::Bl2d])
        .nprocs([16]);
    // Prime the engine trace cache so the bench times the campaign
    // machinery, not first-touch trace generation.
    let outcomes = Campaign::run(&spec);
    assert_eq!(outcomes.len(), spec.len());
    rep.benches
        .push(bench_fn("campaign_smoke_2apps", budget, None, || {
            Campaign::run(&spec).len()
        }));
    // Generate the reduced BL2D trace before timing: calibrating on its
    // first-touch generation would size the loop to one iteration.
    let trace = bench_trace(AppKind::Bl2d);
    rep.benches.push(bench_fn(
        "bench_trace_partition_sweep",
        budget,
        None,
        || {
            let p = HybridPartitioner::default();
            let mut acc = 0usize;
            for s in trace.snapshots.iter().step_by(8) {
                acc += p.partition(&s.hierarchy, 16).levels.len();
            }
            acc
        },
    ));
    rep
}

/// The PC2D phase-change configuration the `adaptive` suite runs on: a
/// 32² base with four levels regridding every step, so the mid-run flip
/// from spread refinement to a corner point singularity lands in the
/// trace immediately. Small enough to simulate in milliseconds, deep
/// enough that a domain cut cannot balance the singular regime.
pub fn phase_change_config() -> TraceGenConfig {
    TraceGenConfig {
        steps: 24,
        base_cells: 32,
        max_levels: 4,
        ratio: 2,
        regrid_interval: 1,
        min_block: 2,
        flag_buffer: 1,
        nesting_buffer: 1,
        cluster: ClusterOptions::paper_defaults(),
        ref_resolution: 64,
        seed: 2004,
    }
}

/// The machine the `adaptive` suite simulates: computation-dominated
/// (`slow-cpu`), where load imbalance — not communication — decides the
/// execution time, so the singular regime punishes domain cuts.
fn phase_change_sim() -> samr_sim::SimConfig {
    samr_sim::SimConfig {
        nprocs: 16,
        machine: samr_sim::MachineModel::slow_cpu(),
        ..samr_sim::SimConfig::default()
    }
}

/// The `adaptive` suite.
pub fn adaptive_report(budget: BenchBudget) -> BenchReport {
    use samr_engine::{PartitionerSpec, PolicySpec};
    use samr_trace::MemorySource;

    let mut rep = BenchReport::new("adaptive", budget);
    let cfg = phase_change_config();
    let sim = phase_change_sim();
    // One generation up front: every measured pass replays the in-memory
    // trace, so the benches time the policy driver, not trace generation.
    let trace = samr_apps::generate_trace(AppKind::Pc2d, &cfg);

    let part = |name: &str| PartitionerSpec::parse(name).expect("registry name");
    let policy = |name: &str| PolicySpec::parse(name).expect("policy name");
    let run = |partitioner: &PartitionerSpec, pol: &PolicySpec| {
        let mut source = MemorySource::new(&trace);
        let (res, stats) = pol
            .simulate_source::<2>(partitioner, &mut source, &[sim])
            .expect("in-memory sources never fail");
        (res[0].total_time, stats.switches())
    };

    // Quality gate (the reason this suite exists): on the phase-change
    // workload the adaptive policy must beat the *best* static
    // assignment. A regression here means the policy layer stopped
    // switching, or stopped paying off.
    let statics = ["domain-sfc", "patch", "hybrid"];
    let best_static = statics
        .iter()
        .map(|n| run(&part(n), &PolicySpec::Static).0)
        .fold(f64::INFINITY, f64::min);
    let (adaptive_time, switches) = run(&part("domain-sfc"), &policy("adaptive:balance"));
    assert!(switches >= 1, "adaptive policy never switched on PC2D");
    assert!(
        adaptive_time < best_static,
        "adaptive ({adaptive_time:.0}) no longer beats the best static ({best_static:.0})"
    );

    let steps = trace.len() as f64;
    for name in statics {
        let p = part(name);
        rep.benches.push(bench_fn(
            &format!("adaptive_static_{}", name.replace('-', "_")),
            budget,
            Some((steps, "steps/s")),
            || run(&p, &PolicySpec::Static),
        ));
    }
    for preset in ["balance", "eager", "patient"] {
        let p = part("domain-sfc");
        let pol = policy(&format!("adaptive:{preset}"));
        rep.benches.push(bench_fn(
            &format!("adaptive_policy_{preset}"),
            budget,
            Some((steps, "steps/s")),
            || run(&p, &pol),
        ));
    }
    // The switching-cost twin: a never-switching adaptive policy runs
    // the exact same sequential window-1 policy driver as the presets
    // (the static benches above use the windowed batch driver, so they
    // are not directly comparable), so its gap to
    // `adaptive_policy_balance` isolates what the mid-run switch and the
    // repartitioned regime actually cost.
    {
        let p = part("domain-sfc");
        let pol = PolicySpec::Adaptive(samr_meta::AdaptiveConfig::never());
        rep.benches.push(bench_fn(
            "adaptive_policy_never",
            budget,
            Some((steps, "steps/s")),
            || run(&p, &pol),
        ));
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::validate;

    #[test]
    fn kernels_suite_is_valid_and_has_scalar_references() {
        let rep = kernels_report(BenchBudget {
            target_ns: 1_000_000,
            max_iters: 4,
        });
        validate(&rep).expect("valid kernels report");
        // Every optimized SFC bench has its scalar twin for the
        // speedup comparison.
        for name in [
            "morton2_encode_64k",
            "morton2_decode_64k",
            "hilbert2_encode_64k",
            "hilbert2_decode_64k",
            "morton3_encode_32k",
            "morton3_decode_32k",
            "hilbert3_encode_32k",
            "hilbert3_decode_32k",
        ] {
            assert!(rep.get(name).is_some(), "missing {name}");
            assert!(
                rep.get(&format!("{name}_scalar")).is_some(),
                "missing scalar twin of {name}"
            );
        }
    }

    #[test]
    fn sim_suite_pairs_every_bench_with_its_naive_twin() {
        let rep = sim_report(BenchBudget {
            target_ns: 1_000_000,
            max_iters: 2,
        });
        validate(&rep).expect("valid sim report");
        for name in [
            "comm_sc2d",
            "comm_rm2d",
            "migration_rm2d",
            "partition_scratch_rm2d",
        ] {
            assert!(rep.get(name).is_some(), "missing {name}");
            assert!(
                rep.get(&format!("{name}_naive")).is_some(),
                "missing naive twin of {name}"
            );
        }
    }

    #[test]
    fn regrid_suite_pairs_every_optimized_bench_with_a_twin() {
        let rep = regrid_report(BenchBudget {
            target_ns: 1_000_000,
            max_iters: 2,
        });
        validate(&rep).expect("valid regrid report");
        assert!(rep.get("tracegen_smoke_tp2d").is_some());
        for (name, suffix) in [
            ("flag_mark_ring_256", "_naive"),
            ("cluster_ring_arena", "_naive"),
            ("cluster_scattered_arena", "_naive"),
            ("sfc_batch_morton2_64k", "_scalar"),
            ("sfc_batch_morton3_32k", "_scalar"),
        ] {
            assert!(rep.get(name).is_some(), "missing {name}");
            assert!(
                rep.get(&format!("{name}{suffix}")).is_some(),
                "missing twin of {name}"
            );
        }
        // The forced-AVX2 tier benches travel in pairs too (present only
        // where the CPU executes the tier).
        assert_eq!(
            rep.get("sfc_avx2_morton2_64k").is_some(),
            rep.get("sfc_avx2_morton2_64k_scalar").is_some()
        );
    }

    #[test]
    fn adaptive_suite_is_valid_and_pairs_policies_with_statics() {
        let rep = adaptive_report(BenchBudget {
            target_ns: 1_000_000,
            max_iters: 2,
        });
        validate(&rep).expect("valid adaptive report");
        for name in [
            "adaptive_static_domain_sfc",
            "adaptive_static_patch",
            "adaptive_static_hybrid",
            "adaptive_policy_balance",
            "adaptive_policy_eager",
            "adaptive_policy_patient",
            "adaptive_policy_never",
        ] {
            assert!(rep.get(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn partition_suite_covers_all_families() {
        let rep = partition_report(BenchBudget {
            target_ns: 1_000_000,
            max_iters: 2,
        });
        validate(&rep).expect("valid partition report");
        for fam in ["domain_sfc", "patch", "hybrid"] {
            assert!(
                rep.benches.iter().any(|b| b.name.starts_with(fam)),
                "no {fam} bench"
            );
        }
    }
}
