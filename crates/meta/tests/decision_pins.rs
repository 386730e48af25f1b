//! Pinned digests of every decision both selectors make on two smoke
//! traces. A digest hashes each step's classification and the choice it
//! selected, so a change that moves a classification fails here even
//! where two choices would have cut the hierarchy alike.

use samr_apps::{generate_trace, generate_trace_3d, AppKind, TraceGenConfig};
use samr_meta::{MetaPartitioner, OctantMetaPartitioner};
use samr_partition::Partitioner;
use samr_trace::HierarchyTrace;

const NPROCS: usize = 8;

/// 64-bit FNV-1a.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn tp2d() -> HierarchyTrace<2> {
    generate_trace(AppKind::Tp2d, &TraceGenConfig::smoke())
}

fn sp3d() -> HierarchyTrace<3> {
    let cfg = TraceGenConfig {
        base_cells: 16,
        ..TraceGenConfig::smoke()
    };
    generate_trace_3d(AppKind::Sp3d, &cfg)
}

/// Each step's `(d1, d2, d3)` bits and the selected choice's name.
fn meta_digest<const D: usize>(trace: &HierarchyTrace<D>) -> u64 {
    let meta = MetaPartitioner::<D>::new();
    let mut hash = FNV_OFFSET;
    for snap in &trace.snapshots {
        let choice = meta.select(&snap.hierarchy, NPROCS).expect("meta selects");
        let (point, recorded) = *meta.decisions().last().expect("one decision per call");
        assert_eq!(recorded, choice);
        for d in [point.d1, point.d2, point.d3] {
            fnv1a(&mut hash, &d.to_bits().to_le_bytes());
        }
        fnv1a(&mut hash, choice.name().as_bytes());
    }
    hash
}

/// Each step's octant index and the selected choice's name.
fn octant_digest<const D: usize>(trace: &HierarchyTrace<D>) -> u64 {
    let octant = OctantMetaPartitioner::<D>::new();
    let mut hash = FNV_OFFSET;
    for snap in &trace.snapshots {
        let choice = octant
            .select(&snap.hierarchy, NPROCS)
            .expect("the baseline selects");
        let (o, recorded) = *octant.decisions().last().expect("one decision per call");
        assert_eq!(recorded, choice);
        fnv1a(&mut hash, &[o.index()]);
        fnv1a(&mut hash, choice.name().as_bytes());
    }
    hash
}

#[test]
fn meta_decisions_match_their_pinned_digests() {
    assert_eq!(meta_digest(&tp2d()), 0x147f_3730_d319_945d, "tp2d");
    assert_eq!(meta_digest(&sp3d()), 0x51d9_c086_c556_1365, "sp3d");
}

#[test]
fn octant_decisions_match_their_pinned_digests() {
    assert_eq!(octant_digest(&tp2d()), 0x934f_f0a0_34ae_81b5, "tp2d");
    assert_eq!(octant_digest(&sp3d()), 0x03ba_3142_333e_56e1, "sp3d");
}
