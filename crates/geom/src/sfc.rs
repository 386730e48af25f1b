//! Space-filling curves: Morton (Z-order) and Hilbert, in 2-D and 3-D.
//!
//! Domain-based SAMR partitioners (Parashar–Browne style, and the coarse
//! Core partitioning step of the hybrid partitioner) linearize the base
//! domain with a space-filling curve and cut the 1-D sequence into
//! processor chunks. The paper notes (§5.2) that a *partially ordered* SFC
//! mapping trades ordering quality for speed and may inflate data
//! migration — both full and partial orderings are provided so that this
//! trade-off is reproducible (`ablation_sfc` in `examples/ablations.rs`).
//!
//! The 2-D curves are bit-identical to the historical implementations of
//! the original 2-D code base; the 3-D Hilbert curve uses Skilling's
//! transpose construction ("Programming the Hilbert curve", AIP 2004),
//! which generalizes the quadrant-rotation idea to any dimension.
//!
//! ## One encoder per curve and dimension
//!
//! Morton keys are the magic-mask bit interleave ([`morton_key`],
//! [`morton_key_3d`]); the 2-D Hilbert key is the quadrant-rotation loop
//! ([`hilbert_key`]); the 3-D Hilbert key is Skilling's transpose, packed
//! into the key one bit at a time ([`hilbert_key_3d`]). The decoders
//! invert them: no pipeline stage decodes a key, but the roundtrip and
//! locality tests do.
//!
//! There are no instruction-set tiers. The unit keys a one-CPU benchmark
//! campaign sorts by (seed 2004, bench scale: 55,296 to 224,640 keys per
//! workload) took 0.7–2.5 ms of a 0.45–0.94 s campaign with these
//! encoders. BMI2/AVX2 batch kernels and branchless Hilbert loops saved
//! at most 0.5 ms of that, 0.05% of the campaign.

use serde::{Deserialize, Serialize};

/// Which space-filling curve to use for domain linearization.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum SfcCurve {
    /// Morton / Z-order: bit interleaving. Cheap, moderate locality.
    Morton,
    /// Hilbert curve: better locality (no long jumps), slightly costlier.
    Hilbert,
}

/// Number of bits per axis supported by the `u64` keys in 2-D (32 bits
/// per axis when interleaved).
pub const MAX_ORDER: u32 = 31;

/// Number of bits per axis supported by the `u64` keys in 3-D (21 bits
/// per axis when interleaved).
pub const MAX_ORDER_3D: u32 = 21;

/// The instruction set the SFC encoders run with: always the portable
/// scalar code. Benchmark reports record it as provenance.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BatchIsa {
    /// The portable scalar encoders.
    Scalar,
}

impl BatchIsa {
    /// The instruction set the encoders run with: `Scalar` on every CPU.
    pub fn detect() -> Self {
        BatchIsa::Scalar
    }
}

/// Interleave the low 32 bits of `v` with zeros ("part 1 by 1").
#[inline]
fn part1by1(v: u64) -> u64 {
    let mut x = v & 0xffff_ffff;
    x = (x | (x << 16)) & 0x0000_ffff_0000_ffff;
    x = (x | (x << 8)) & 0x00ff_00ff_00ff_00ff;
    x = (x | (x << 4)) & 0x0f0f_0f0f_0f0f_0f0f;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    x = (x | (x << 1)) & 0x5555_5555_5555_5555;
    x
}

/// Inverse of [`part1by1`]: compact every other bit.
#[inline]
fn compact1by1(v: u64) -> u64 {
    let mut x = v & 0x5555_5555_5555_5555;
    x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    x = (x | (x >> 2)) & 0x0f0f_0f0f_0f0f_0f0f;
    x = (x | (x >> 4)) & 0x00ff_00ff_00ff_00ff;
    x = (x | (x >> 8)) & 0x0000_ffff_0000_ffff;
    x = (x | (x >> 16)) & 0x0000_0000_ffff_ffff;
    x
}

/// Interleave the low 21 bits of `v` with two zeros each ("part 1 by 2").
#[inline]
fn part1by2(v: u64) -> u64 {
    let mut x = v & 0x1f_ffff;
    x = (x | (x << 32)) & 0x001f_0000_0000_ffff;
    x = (x | (x << 16)) & 0x001f_0000_ff00_00ff;
    x = (x | (x << 8)) & 0x100f_00f0_0f00_f00f;
    x = (x | (x << 4)) & 0x10c3_0c30_c30c_30c3;
    x = (x | (x << 2)) & 0x1249_2492_4924_9249;
    x
}

/// Inverse of [`part1by2`]: compact every third bit.
#[inline]
fn compact1by2(v: u64) -> u64 {
    let mut x = v & 0x1249_2492_4924_9249;
    x = (x | (x >> 2)) & 0x10c3_0c30_c30c_30c3;
    x = (x | (x >> 4)) & 0x100f_00f0_0f00_f00f;
    x = (x | (x >> 8)) & 0x001f_0000_ff00_00ff;
    x = (x | (x >> 16)) & 0x001f_0000_0000_ffff;
    x = (x | (x >> 32)) & 0x1f_ffff;
    x
}

/// Morton key of a non-negative cell coordinate pair.
#[inline]
pub fn morton_key(x: u64, y: u64) -> u64 {
    debug_assert!(x < (1 << 32) && y < (1 << 32));
    part1by1(x) | (part1by1(y) << 1)
}

/// Inverse Morton: key back to `(x, y)`.
#[inline]
pub fn morton_decode(key: u64) -> (u64, u64) {
    (compact1by1(key), compact1by1(key >> 1))
}

/// 3-D Morton key of a non-negative cell coordinate triple.
#[inline]
pub fn morton_key_3d(x: u64, y: u64, z: u64) -> u64 {
    debug_assert!(x < (1 << MAX_ORDER_3D) && y < (1 << MAX_ORDER_3D) && z < (1 << MAX_ORDER_3D));
    part1by2(x) | (part1by2(y) << 1) | (part1by2(z) << 2)
}

/// Inverse 3-D Morton: key back to `(x, y, z)`.
#[inline]
pub fn morton_decode_3d(key: u64) -> (u64, u64, u64) {
    (
        compact1by2(key),
        compact1by2(key >> 1),
        compact1by2(key >> 2),
    )
}

/// Hilbert curve distance of the cell `(x, y)` in a `2^order x 2^order`
/// grid: the classic quadrant-rotation construction.
pub fn hilbert_key(order: u32, x: u64, y: u64) -> u64 {
    debug_assert!(order <= MAX_ORDER);
    debug_assert!(x < (1u64 << order) && y < (1u64 << order));
    let n = 1u64 << order;
    let (mut x, mut y) = (x, y);
    let mut d: u64 = 0;
    let mut s: u64 = n / 2;
    while s > 0 {
        let rx = u64::from((x & s) > 0);
        let ry = u64::from((y & s) > 0);
        d += s * s * ((3 * rx) ^ ry);
        // Rotate the quadrant so the sub-square is traversed in
        // canonical orientation on the next iteration.
        if ry == 0 {
            if rx == 1 {
                x = n - 1 - x;
                y = n - 1 - y;
            }
            std::mem::swap(&mut x, &mut y);
        }
        s /= 2;
    }
    d
}

/// Inverse Hilbert: curve distance back to `(x, y)` in a
/// `2^order x 2^order` grid.
pub fn hilbert_decode(order: u32, d: u64) -> (u64, u64) {
    let (mut x, mut y) = (0u64, 0u64);
    let mut t = d;
    let mut s = 1u64;
    while s < (1u64 << order) {
        let rx = 1 & (t / 2);
        let ry = 1 & (t ^ rx);
        // Rotate.
        if ry == 0 {
            if rx == 1 {
                x = s - 1 - x;
                y = s - 1 - y;
            }
            std::mem::swap(&mut x, &mut y);
        }
        x += s * rx;
        y += s * ry;
        t /= 4;
        s *= 2;
    }
    (x, y)
}

/// Skilling's AxesToTranspose: convert coordinates (in place) into the
/// "transpose" form of the Hilbert index, `order` bits per axis.
fn axes_to_transpose<const N: usize>(x: &mut [u64; N], order: u32) {
    let m = 1u64 << (order - 1);
    // Inverse undo.
    let mut q = m;
    while q > 1 {
        let p = q - 1;
        for i in 0..N {
            if x[i] & q != 0 {
                x[0] ^= p;
            } else {
                let t = (x[0] ^ x[i]) & p;
                x[0] ^= t;
                x[i] ^= t;
            }
        }
        q >>= 1;
    }
    // Gray encode.
    for i in 1..N {
        x[i] ^= x[i - 1];
    }
    let mut t = 0u64;
    let mut q = m;
    while q > 1 {
        if x[N - 1] & q != 0 {
            t ^= q - 1;
        }
        q >>= 1;
    }
    for v in x.iter_mut() {
        *v ^= t;
    }
}

/// Skilling's TransposeToAxes: inverse of [`axes_to_transpose`].
fn transpose_to_axes<const N: usize>(x: &mut [u64; N], order: u32) {
    let n = 1u64 << order;
    // Gray decode by H ^ (H/2).
    let mut t = x[N - 1] >> 1;
    for i in (1..N).rev() {
        x[i] ^= x[i - 1];
    }
    x[0] ^= t;
    // Undo excess work.
    let mut q = 2u64;
    while q != n {
        let p = q - 1;
        for i in (0..N).rev() {
            if x[i] & q != 0 {
                x[0] ^= p;
            } else {
                t = (x[0] ^ x[i]) & p;
                x[0] ^= t;
                x[i] ^= t;
            }
        }
        q <<= 1;
    }
}

/// Pack a transpose-form Hilbert index into a single `u64` key, one key
/// bit at a time: bit `b` of axis `i` becomes bit `(b·N + (N-1-i))` of
/// the key (most significant axis bit first).
fn transpose_to_key<const N: usize>(x: &[u64; N], order: u32) -> u64 {
    let mut key = 0u64;
    for b in (0..order).rev() {
        for &v in x.iter() {
            key = (key << 1) | ((v >> b) & 1);
        }
    }
    key
}

/// Unpack a `u64` key into transpose form (inverse of
/// [`transpose_to_key`]), one key bit at a time.
fn key_to_transpose<const N: usize>(key: u64, order: u32) -> [u64; N] {
    let mut x = [0u64; N];
    let total = order * N as u32;
    for bit in 0..total {
        let b = total - 1 - bit; // position in the key, msb first
        let axis = (bit as usize) % N;
        let level = order - 1 - (bit / N as u32);
        x[axis] |= ((key >> b) & 1) << level;
    }
    x
}

/// 3-D Hilbert curve distance of the cell `(x, y, z)` in a `(2^order)^3`
/// grid (Skilling's transpose construction).
pub fn hilbert_key_3d(order: u32, x: u64, y: u64, z: u64) -> u64 {
    debug_assert!((1..=MAX_ORDER_3D).contains(&order));
    debug_assert!(x < (1u64 << order) && y < (1u64 << order) && z < (1u64 << order));
    let mut c = [x, y, z];
    axes_to_transpose(&mut c, order);
    transpose_to_key(&c, order)
}

/// Inverse 3-D Hilbert: curve distance back to `(x, y, z)`.
pub fn hilbert_decode_3d(order: u32, d: u64) -> (u64, u64, u64) {
    debug_assert!((1..=MAX_ORDER_3D).contains(&order));
    let mut c: [u64; 3] = key_to_transpose(d, order);
    transpose_to_axes(&mut c, order);
    (c[0], c[1], c[2])
}

/// SFC key of a non-negative cell coordinate pair under the chosen curve.
/// `order` must satisfy `x, y < 2^order`; Morton ignores `order` beyond
/// the debug assertion.
#[inline]
pub fn sfc_key(curve: SfcCurve, order: u32, x: u64, y: u64) -> u64 {
    match curve {
        SfcCurve::Morton => morton_key(x, y),
        SfcCurve::Hilbert => hilbert_key(order, x, y),
    }
}

/// Dimension-generic SFC key (D ∈ {2, 3}): dispatches to the 2-D curves
/// (bit-identical to the historical implementation) or their 3-D
/// counterparts.
#[inline]
pub fn sfc_key_nd<const D: usize>(curve: SfcCurve, order: u32, c: [u64; D]) -> u64 {
    match D {
        2 => sfc_key(curve, order, c[0], c[1]),
        3 => match curve {
            SfcCurve::Morton => morton_key_3d(c[0], c[1], c[2]),
            SfcCurve::Hilbert => hilbert_key_3d(order.max(1), c[0], c[1], c[2]),
        },
        _ => panic!("sfc_key_nd: unsupported dimension {D}"),
    }
}

/// Smallest `order` such that a `2^order` cube contains `n` cells per
/// side.
pub fn order_for(n: u64) -> u32 {
    let mut order = 0;
    while (1u64 << order) < n {
        order += 1;
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn morton_roundtrip() {
        for x in 0..17u64 {
            for y in 0..17u64 {
                let k = morton_key(x, y);
                assert_eq!(morton_decode(k), (x, y));
            }
        }
    }

    #[test]
    fn morton_first_cells() {
        // Z-order over a 2x2 block: (0,0), (1,0), (0,1), (1,1).
        assert_eq!(morton_key(0, 0), 0);
        assert_eq!(morton_key(1, 0), 1);
        assert_eq!(morton_key(0, 1), 2);
        assert_eq!(morton_key(1, 1), 3);
    }

    #[test]
    fn morton_3d_roundtrip_and_order() {
        assert_eq!(morton_key_3d(0, 0, 0), 0);
        assert_eq!(morton_key_3d(1, 0, 0), 1);
        assert_eq!(morton_key_3d(0, 1, 0), 2);
        assert_eq!(morton_key_3d(0, 0, 1), 4);
        for x in 0..9u64 {
            for y in 0..9u64 {
                for z in 0..9u64 {
                    assert_eq!(morton_decode_3d(morton_key_3d(x, y, z)), (x, y, z));
                }
            }
        }
        // High coordinates still roundtrip (21 bits per axis).
        let big = (1u64 << MAX_ORDER_3D) - 1;
        assert_eq!(morton_decode_3d(morton_key_3d(big, 0, big)), (big, 0, big));
    }

    #[test]
    fn hilbert_is_a_bijection() {
        let order = 4;
        let n = 1u64 << order;
        let mut seen = HashSet::new();
        for x in 0..n {
            for y in 0..n {
                let d = hilbert_key(order, x, y);
                assert!(d < n * n);
                assert!(seen.insert(d), "duplicate key {d} at ({x},{y})");
                assert_eq!(hilbert_decode(order, d), (x, y));
            }
        }
    }

    #[test]
    fn hilbert_consecutive_cells_are_adjacent() {
        // The defining property of the Hilbert curve: consecutive keys map
        // to 4-adjacent cells. Morton does not have it; Hilbert must.
        let order = 5;
        let n = 1u64 << order;
        let mut prev = hilbert_decode(order, 0);
        for d in 1..n * n {
            let cur = hilbert_decode(order, d);
            let dist = (cur.0 as i64 - prev.0 as i64).abs() + (cur.1 as i64 - prev.1 as i64).abs();
            assert_eq!(dist, 1, "jump at d={d}: {prev:?} -> {cur:?}");
            prev = cur;
        }
    }

    #[test]
    fn hilbert_3d_is_a_bijection() {
        let order = 3;
        let n = 1u64 << order;
        let mut seen = HashSet::new();
        for x in 0..n {
            for y in 0..n {
                for z in 0..n {
                    let d = hilbert_key_3d(order, x, y, z);
                    assert!(d < n * n * n);
                    assert!(seen.insert(d), "duplicate key {d} at ({x},{y},{z})");
                    assert_eq!(hilbert_decode_3d(order, d), (x, y, z));
                }
            }
        }
    }

    #[test]
    fn hilbert_3d_consecutive_cells_are_adjacent() {
        let order = 3;
        let n = 1u64 << order;
        let mut prev = hilbert_decode_3d(order, 0);
        for d in 1..n * n * n {
            let cur = hilbert_decode_3d(order, d);
            let dist = (cur.0 as i64 - prev.0 as i64).abs()
                + (cur.1 as i64 - prev.1 as i64).abs()
                + (cur.2 as i64 - prev.2 as i64).abs();
            assert_eq!(dist, 1, "jump at d={d}: {prev:?} -> {cur:?}");
            prev = cur;
        }
    }

    #[test]
    fn morton_has_jumps_hilbert_does_not() {
        // Sanity check that the two curves are genuinely different.
        let order = 3;
        let n = 1u64 << order;
        let mut morton_jumps = 0;
        for d in 1..n * n {
            let a = morton_decode(d - 1);
            let b = morton_decode(d);
            if (b.0 as i64 - a.0 as i64).abs() + (b.1 as i64 - a.1 as i64).abs() > 1 {
                morton_jumps += 1;
            }
        }
        assert!(morton_jumps > 0);
    }

    #[test]
    fn order_for_sizes() {
        assert_eq!(order_for(1), 0);
        assert_eq!(order_for(2), 1);
        assert_eq!(order_for(3), 2);
        assert_eq!(order_for(64), 6);
        assert_eq!(order_for(65), 7);
    }

    #[test]
    fn sfc_key_dispatch() {
        assert_eq!(sfc_key(SfcCurve::Morton, 4, 3, 5), morton_key(3, 5));
        assert_eq!(sfc_key(SfcCurve::Hilbert, 4, 3, 5), hilbert_key(4, 3, 5));
        assert_eq!(
            sfc_key_nd::<2>(SfcCurve::Hilbert, 4, [3, 5]),
            hilbert_key(4, 3, 5)
        );
        assert_eq!(
            sfc_key_nd::<3>(SfcCurve::Morton, 4, [3, 5, 7]),
            morton_key_3d(3, 5, 7)
        );
        assert_eq!(
            sfc_key_nd::<3>(SfcCurve::Hilbert, 4, [3, 5, 7]),
            hilbert_key_3d(4, 3, 5, 7)
        );
    }
}
