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
//! ## Implementation notes
//!
//! Key generation sits on the hot path of every domain-based partitioner
//! (one key per base cell per regrid), so the public functions are the
//! *optimized* implementations: bulk Morton interleaving ([`morton_keys`]
//! and friends, fed by [`sfc_keys_nd`]) dispatches once per batch to the
//! best instruction set the CPU executes ([`BatchIsa`]) — BMI2
//! `pdep`/`pext` parallel-bit instructions first, then four-lane AVX2
//! magic-mask ladders, then the portable scalar loop — so the
//! `#[target_feature]` loop inlines the intrinsics; and the Hilbert
//! loops are branchless: the
//! quadrant reflection `n-1-x` is an XOR with `n-1` for power-of-two `n`,
//! so reflect-and-swap becomes mask arithmetic with no data-dependent
//! branches. The straightforward scalar implementations are retained in
//! [`scalar`] as the reference oracles; property tests assert the
//! optimized paths are **bit-identical** to them for every order and both
//! dimensions.

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

/// Every-other-bit mask: where [`scalar::part1by1`] deposits the bits of
/// a 2-D coordinate.
const MORTON2_MASK: u64 = 0x5555_5555_5555_5555;

/// Every-third-bit mask: where [`scalar::part1by2`] deposits the bits of
/// a 3-D coordinate.
const MORTON3_MASK: u64 = 0x1249_2492_4924_9249;

/// The straightforward scalar implementations, kept as the reference
/// oracles for the optimized public functions (and as the portable
/// fallback for Morton interleaving on CPUs with neither BMI2 nor
/// AVX2).
///
/// Property tests assert the public `morton_*`/`hilbert_*` functions are
/// bit-identical to these across random coordinates and every order.
pub mod scalar {
    use super::{MAX_ORDER, MAX_ORDER_3D};

    /// Interleave the low 32 bits of `v` with zeros ("part 1 by 1").
    #[inline]
    pub(super) fn part1by1(v: u64) -> u64 {
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
    pub(super) fn compact1by1(v: u64) -> u64 {
        let mut x = v & 0x5555_5555_5555_5555;
        x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
        x = (x | (x >> 2)) & 0x0f0f_0f0f_0f0f_0f0f;
        x = (x | (x >> 4)) & 0x00ff_00ff_00ff_00ff;
        x = (x | (x >> 8)) & 0x0000_ffff_0000_ffff;
        x = (x | (x >> 16)) & 0x0000_0000_ffff_ffff;
        x
    }

    /// Interleave the low 21 bits of `v` with two zeros each ("part 1 by
    /// 2").
    #[inline]
    pub(super) fn part1by2(v: u64) -> u64 {
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
    pub(super) fn compact1by2(v: u64) -> u64 {
        let mut x = v & 0x1249_2492_4924_9249;
        x = (x | (x >> 2)) & 0x10c3_0c30_c30c_30c3;
        x = (x | (x >> 4)) & 0x100f_00f0_0f00_f00f;
        x = (x | (x >> 8)) & 0x001f_0000_ff00_00ff;
        x = (x | (x >> 16)) & 0x001f_0000_0000_ffff;
        x = (x | (x >> 32)) & 0x1f_ffff;
        x
    }

    /// Reference Morton key of a non-negative cell coordinate pair.
    #[inline]
    pub fn morton_key(x: u64, y: u64) -> u64 {
        part1by1(x) | (part1by1(y) << 1)
    }

    /// Reference inverse Morton: key back to `(x, y)`.
    #[inline]
    pub fn morton_decode(key: u64) -> (u64, u64) {
        (compact1by1(key), compact1by1(key >> 1))
    }

    /// Reference 3-D Morton key of a non-negative coordinate triple.
    #[inline]
    pub fn morton_key_3d(x: u64, y: u64, z: u64) -> u64 {
        part1by2(x) | (part1by2(y) << 1) | (part1by2(z) << 2)
    }

    /// Reference inverse 3-D Morton: key back to `(x, y, z)`.
    #[inline]
    pub fn morton_decode_3d(key: u64) -> (u64, u64, u64) {
        (
            compact1by2(key),
            compact1by2(key >> 1),
            compact1by2(key >> 2),
        )
    }

    /// Reference Hilbert curve distance of the cell `(x, y)` in a
    /// `2^order x 2^order` grid: the classic branchy quadrant-rotation
    /// construction.
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

    /// Reference inverse Hilbert: curve distance back to `(x, y)` in a
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

    /// Skilling's AxesToTranspose, branchy reference: convert coordinates
    /// (in place) into the "transpose" form of the Hilbert index, `order`
    /// bits per axis. Also the transpose used by the optimized 3-D
    /// encode: the branch-per-bit loop beats the branchless rewrite on
    /// current x86 in this direction (the decode direction is the
    /// opposite — see the private `transpose_to_axes` at module level).
    pub(super) fn axes_to_transpose<const N: usize>(x: &mut [u64; N], order: u32) {
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

    /// Skilling's TransposeToAxes, branchy reference: inverse of
    /// [`axes_to_transpose`].
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

    /// Pack a transpose-form Hilbert index into a single `u64` key, one
    /// key bit at a time: bit `b` of axis `i` becomes bit
    /// `(b·N + (N-1-i))` of the key (most significant axis bit first).
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

    /// Reference 3-D Hilbert curve distance of the cell `(x, y, z)` in a
    /// `(2^order)^3` grid (Skilling's transpose construction).
    pub fn hilbert_key_3d(order: u32, x: u64, y: u64, z: u64) -> u64 {
        debug_assert!((1..=MAX_ORDER_3D).contains(&order));
        debug_assert!(x < (1u64 << order) && y < (1u64 << order) && z < (1u64 << order));
        let mut c = [x, y, z];
        axes_to_transpose(&mut c, order);
        transpose_to_key(&c, order)
    }

    /// Reference inverse 3-D Hilbert: curve distance back to `(x, y, z)`.
    pub fn hilbert_decode_3d(order: u32, d: u64) -> (u64, u64, u64) {
        debug_assert!((1..=MAX_ORDER_3D).contains(&order));
        let mut c: [u64; 3] = key_to_transpose(d, order);
        transpose_to_axes(&mut c, order);
        (c[0], c[1], c[2])
    }
}

/// The instruction-set tier a batch Morton kernel runs with, chosen
/// **once per batch**: `#[target_feature]` code cannot inline into
/// ordinary callers, so a per-key dispatch pays a real function call per
/// key and loses to the inlined scalar pipeline (see the batch-kernel
/// notes below).
///
/// [`BatchIsa::detect`] picks the best tier this CPU executes; the
/// `*_with` kernel variants ([`morton_keys_with`] and friends) accept an
/// explicit tier so the property-test wall can force every available
/// path — including the scalar fallback — through the same entry points
/// and assert them bit-identical.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BatchIsa {
    /// BMI2 `pdep`/`pext`: one parallel-bit-deposit instruction per axis.
    Bmi2,
    /// AVX2: four keys at a time through vectorized magic-mask ladders.
    Avx2,
    /// The portable scalar magic-mask loop (the reference mapping).
    Scalar,
}

impl BatchIsa {
    /// Every tier, best first — the preference order of
    /// [`BatchIsa::detect`].
    pub const ALL: [BatchIsa; 3] = [BatchIsa::Bmi2, BatchIsa::Avx2, BatchIsa::Scalar];

    /// The best tier this CPU executes. Feature detection is cached by
    /// `std` behind an atomic load; the batch kernels pay it once per
    /// batch.
    ///
    /// BMI2 outranks AVX2: two `pdep`s per key beat the four-lane
    /// mask-shift ladder wherever both exist. The AVX2 tier earns its
    /// keep on the cores that ship AVX2 without (fast) BMI2 — there,
    /// four lanes of the five-round ladder beat four scalar pipelines.
    #[inline]
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("bmi2") {
                return BatchIsa::Bmi2;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return BatchIsa::Avx2;
            }
        }
        BatchIsa::Scalar
    }

    /// Does this CPU execute the tier? `Scalar` always does; the SIMD
    /// tiers answer the runtime feature checks. The `*_with` kernels
    /// assert this before dispatching.
    #[inline]
    pub fn is_available(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            BatchIsa::Bmi2 => std::arch::is_x86_feature_detected!("bmi2"),
            #[cfg(target_arch = "x86_64")]
            BatchIsa::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            BatchIsa::Bmi2 | BatchIsa::Avx2 => false,
            BatchIsa::Scalar => true,
        }
    }
}

/// Morton key of a non-negative cell coordinate pair.
///
/// Single keys stay on the scalar magic-mask interleave: it inlines and
/// auto-vectorizes at the call site, while a `pdep` version must live
/// behind a non-inlinable `#[target_feature]` call whose overhead costs
/// more than the two instructions save. The BMI2 win is real in bulk —
/// use [`morton_keys`] for key streams.
#[inline]
pub fn morton_key(x: u64, y: u64) -> u64 {
    debug_assert!(x < (1 << 32) && y < (1 << 32));
    scalar::morton_key(x, y)
}

/// Inverse Morton: key back to `(x, y)`. Single-key scalar path; bulk
/// decoding goes through [`morton_decodes`].
#[inline]
pub fn morton_decode(key: u64) -> (u64, u64) {
    scalar::morton_decode(key)
}

/// 3-D Morton key of a non-negative cell coordinate triple. Single-key
/// scalar path; bulk encoding goes through [`morton_keys_3d`].
#[inline]
pub fn morton_key_3d(x: u64, y: u64, z: u64) -> u64 {
    debug_assert!(x < (1 << MAX_ORDER_3D) && y < (1 << MAX_ORDER_3D) && z < (1 << MAX_ORDER_3D));
    scalar::morton_key_3d(x, y, z)
}

/// Inverse 3-D Morton: key back to `(x, y, z)`. Single-key scalar path;
/// bulk decoding goes through [`morton_decodes_3d`].
#[inline]
pub fn morton_decode_3d(key: u64) -> (u64, u64, u64) {
    scalar::morton_decode_3d(key)
}

// ---------------------------------------------------------------------
// Batch Morton kernels.
//
// `pdep`/`pext` and AVX2 intrinsics carry `#[target_feature]`, so they
// cannot inline into ordinary functions — a per-key dispatch pays a
// real function call per key and loses to the inlined magic-mask
// pipeline. Hoisting the dispatch to whole-slice granularity
// ([`BatchIsa`]) turns the tables: one cached feature check per batch,
// then a loop *compiled with the feature enabled* in which each key is
// two (2-D) or three (3-D) `pdep`s, or four keys ride one vectorized
// mask-shift ladder. These are the kernels the SFC partitioner's
// unit-ordering pass feeds; each tier is bit-identical to mapping its
// scalar reference over the slice (property-tested per available tier
// in `tests/properties.rs`).

/// Fill `out` with the Morton key of every `[x, y]` pair (clears `out`
/// first). Dispatches to the best tier once per batch.
pub fn morton_keys(coords: &[[u64; 2]], out: &mut Vec<u64>) {
    morton_keys_with(BatchIsa::detect(), coords, out);
}

/// [`morton_keys`] through an explicitly chosen tier, which must be
/// available on this CPU (asserted). Identical output for every tier.
pub fn morton_keys_with(isa: BatchIsa, coords: &[[u64; 2]], out: &mut Vec<u64>) {
    assert!(isa.is_available(), "{isa:?} is not available on this CPU");
    out.clear();
    out.reserve(coords.len());
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: availability asserted above.
        BatchIsa::Bmi2 => unsafe { morton_keys_bmi2(coords, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: availability asserted above.
        BatchIsa::Avx2 => unsafe { avx2::morton_keys(coords, out) },
        _ => {
            for c in coords {
                out.push(scalar::morton_key(c[0], c[1]));
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "bmi2")]
unsafe fn morton_keys_bmi2(coords: &[[u64; 2]], out: &mut Vec<u64>) {
    use std::arch::x86_64::_pdep_u64;
    for c in coords {
        out.push(_pdep_u64(c[0], MORTON2_MASK) | _pdep_u64(c[1], MORTON2_MASK << 1));
    }
}

/// Fill `out` with the `(x, y)` decode of every key (clears `out`
/// first). Dispatches to the best tier once per batch.
pub fn morton_decodes(keys: &[u64], out: &mut Vec<[u64; 2]>) {
    morton_decodes_with(BatchIsa::detect(), keys, out);
}

/// [`morton_decodes`] through an explicitly chosen tier, which must be
/// available on this CPU (asserted). Identical output for every tier.
pub fn morton_decodes_with(isa: BatchIsa, keys: &[u64], out: &mut Vec<[u64; 2]>) {
    assert!(isa.is_available(), "{isa:?} is not available on this CPU");
    out.clear();
    out.reserve(keys.len());
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: availability asserted above.
        BatchIsa::Bmi2 => unsafe { morton_decodes_bmi2(keys, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: availability asserted above.
        BatchIsa::Avx2 => unsafe { avx2::morton_decodes(keys, out) },
        _ => {
            for &k in keys {
                let (x, y) = scalar::morton_decode(k);
                out.push([x, y]);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "bmi2")]
unsafe fn morton_decodes_bmi2(keys: &[u64], out: &mut Vec<[u64; 2]>) {
    use std::arch::x86_64::_pext_u64;
    for &k in keys {
        out.push([_pext_u64(k, MORTON2_MASK), _pext_u64(k, MORTON2_MASK << 1)]);
    }
}

/// Fill `out` with the 3-D Morton key of every `[x, y, z]` triple
/// (clears `out` first). Dispatches to the best tier once per batch.
pub fn morton_keys_3d(coords: &[[u64; 3]], out: &mut Vec<u64>) {
    morton_keys_3d_with(BatchIsa::detect(), coords, out);
}

/// [`morton_keys_3d`] through an explicitly chosen tier, which must be
/// available on this CPU (asserted). Identical output for every tier.
pub fn morton_keys_3d_with(isa: BatchIsa, coords: &[[u64; 3]], out: &mut Vec<u64>) {
    assert!(isa.is_available(), "{isa:?} is not available on this CPU");
    out.clear();
    out.reserve(coords.len());
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: availability asserted above.
        BatchIsa::Bmi2 => unsafe { morton_keys_3d_bmi2(coords, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: availability asserted above.
        BatchIsa::Avx2 => unsafe { avx2::morton_keys_3d(coords, out) },
        _ => {
            for c in coords {
                out.push(scalar::morton_key_3d(c[0], c[1], c[2]));
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "bmi2")]
unsafe fn morton_keys_3d_bmi2(coords: &[[u64; 3]], out: &mut Vec<u64>) {
    use std::arch::x86_64::_pdep_u64;
    for c in coords {
        out.push(
            _pdep_u64(c[0], MORTON3_MASK)
                | _pdep_u64(c[1], MORTON3_MASK << 1)
                | _pdep_u64(c[2], MORTON3_MASK << 2),
        );
    }
}

/// Fill `out` with the `(x, y, z)` decode of every key (clears `out`
/// first). Dispatches to the best tier once per batch.
pub fn morton_decodes_3d(keys: &[u64], out: &mut Vec<[u64; 3]>) {
    morton_decodes_3d_with(BatchIsa::detect(), keys, out);
}

/// [`morton_decodes_3d`] through an explicitly chosen tier, which must
/// be available on this CPU (asserted). Identical output for every tier.
pub fn morton_decodes_3d_with(isa: BatchIsa, keys: &[u64], out: &mut Vec<[u64; 3]>) {
    assert!(isa.is_available(), "{isa:?} is not available on this CPU");
    out.clear();
    out.reserve(keys.len());
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: availability asserted above.
        BatchIsa::Bmi2 => unsafe { morton_decodes_3d_bmi2(keys, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: availability asserted above.
        BatchIsa::Avx2 => unsafe { avx2::morton_decodes_3d(keys, out) },
        _ => {
            for &k in keys {
                let (x, y, z) = scalar::morton_decode_3d(k);
                out.push([x, y, z]);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "bmi2")]
unsafe fn morton_decodes_3d_bmi2(keys: &[u64], out: &mut Vec<[u64; 3]>) {
    use std::arch::x86_64::_pext_u64;
    for &k in keys {
        out.push([
            _pext_u64(k, MORTON3_MASK),
            _pext_u64(k, MORTON3_MASK << 1),
            _pext_u64(k, MORTON3_MASK << 2),
        ]);
    }
}

/// The AVX2 batch tier: four 64-bit keys per iteration through the same
/// magic-mask ladders as [`scalar`], vectorized lane-wise. Every kernel
/// resizes `out` (the caller has cleared and reserved it) and finishes
/// the `len % 4` tail with the scalar reference, so the output is
/// bit-identical to the scalar map for every length.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::scalar;
    use std::arch::x86_64::*;

    #[target_feature(enable = "avx2")]
    unsafe fn splat(c: u64) -> __m256i {
        _mm256_set1_epi64x(c as i64)
    }

    /// Lane-wise [`scalar::part1by1`]: interleave the low 32 bits of
    /// each lane with zeros.
    #[target_feature(enable = "avx2")]
    unsafe fn part1by1(v: __m256i) -> __m256i {
        let mut x = _mm256_and_si256(v, splat(0xffff_ffff));
        x = _mm256_and_si256(
            _mm256_or_si256(x, _mm256_slli_epi64::<16>(x)),
            splat(0x0000_ffff_0000_ffff),
        );
        x = _mm256_and_si256(
            _mm256_or_si256(x, _mm256_slli_epi64::<8>(x)),
            splat(0x00ff_00ff_00ff_00ff),
        );
        x = _mm256_and_si256(
            _mm256_or_si256(x, _mm256_slli_epi64::<4>(x)),
            splat(0x0f0f_0f0f_0f0f_0f0f),
        );
        x = _mm256_and_si256(
            _mm256_or_si256(x, _mm256_slli_epi64::<2>(x)),
            splat(0x3333_3333_3333_3333),
        );
        _mm256_and_si256(
            _mm256_or_si256(x, _mm256_slli_epi64::<1>(x)),
            splat(0x5555_5555_5555_5555),
        )
    }

    /// Lane-wise [`scalar::compact1by1`]: inverse of [`part1by1`].
    #[target_feature(enable = "avx2")]
    unsafe fn compact1by1(v: __m256i) -> __m256i {
        let mut x = _mm256_and_si256(v, splat(0x5555_5555_5555_5555));
        x = _mm256_and_si256(
            _mm256_or_si256(x, _mm256_srli_epi64::<1>(x)),
            splat(0x3333_3333_3333_3333),
        );
        x = _mm256_and_si256(
            _mm256_or_si256(x, _mm256_srli_epi64::<2>(x)),
            splat(0x0f0f_0f0f_0f0f_0f0f),
        );
        x = _mm256_and_si256(
            _mm256_or_si256(x, _mm256_srli_epi64::<4>(x)),
            splat(0x00ff_00ff_00ff_00ff),
        );
        x = _mm256_and_si256(
            _mm256_or_si256(x, _mm256_srli_epi64::<8>(x)),
            splat(0x0000_ffff_0000_ffff),
        );
        _mm256_and_si256(
            _mm256_or_si256(x, _mm256_srli_epi64::<16>(x)),
            splat(0xffff_ffff),
        )
    }

    /// Lane-wise [`scalar::part1by2`]: interleave the low 21 bits of
    /// each lane with two zeros each.
    #[target_feature(enable = "avx2")]
    unsafe fn part1by2(v: __m256i) -> __m256i {
        let mut x = _mm256_and_si256(v, splat(0x1f_ffff));
        x = _mm256_and_si256(
            _mm256_or_si256(x, _mm256_slli_epi64::<32>(x)),
            splat(0x001f_0000_0000_ffff),
        );
        x = _mm256_and_si256(
            _mm256_or_si256(x, _mm256_slli_epi64::<16>(x)),
            splat(0x001f_0000_ff00_00ff),
        );
        x = _mm256_and_si256(
            _mm256_or_si256(x, _mm256_slli_epi64::<8>(x)),
            splat(0x100f_00f0_0f00_f00f),
        );
        x = _mm256_and_si256(
            _mm256_or_si256(x, _mm256_slli_epi64::<4>(x)),
            splat(0x10c3_0c30_c30c_30c3),
        );
        _mm256_and_si256(
            _mm256_or_si256(x, _mm256_slli_epi64::<2>(x)),
            splat(0x1249_2492_4924_9249),
        )
    }

    /// Lane-wise [`scalar::compact1by2`]: inverse of [`part1by2`].
    #[target_feature(enable = "avx2")]
    unsafe fn compact1by2(v: __m256i) -> __m256i {
        let mut x = _mm256_and_si256(v, splat(0x1249_2492_4924_9249));
        x = _mm256_and_si256(
            _mm256_or_si256(x, _mm256_srli_epi64::<2>(x)),
            splat(0x10c3_0c30_c30c_30c3),
        );
        x = _mm256_and_si256(
            _mm256_or_si256(x, _mm256_srli_epi64::<4>(x)),
            splat(0x100f_00f0_0f00_f00f),
        );
        x = _mm256_and_si256(
            _mm256_or_si256(x, _mm256_srli_epi64::<8>(x)),
            splat(0x001f_0000_ff00_00ff),
        );
        x = _mm256_and_si256(
            _mm256_or_si256(x, _mm256_srli_epi64::<16>(x)),
            splat(0x001f_0000_0000_ffff),
        );
        _mm256_and_si256(
            _mm256_or_si256(x, _mm256_srli_epi64::<32>(x)),
            splat(0x1f_ffff),
        )
    }

    /// Batch 2-D Morton encode, four `[x, y]` pairs per iteration. The
    /// 64-bit unpacks split x and y lanes but interleave the two source
    /// registers 128-bit-half-wise, so the assembled keys come out as
    /// `[k0 k2 k1 k3]` and a cross-lane permute restores memory order.
    ///
    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn morton_keys(coords: &[[u64; 2]], out: &mut Vec<u64>) {
        let n = coords.len();
        out.resize(n, 0);
        let src = coords.as_ptr().cast::<__m256i>();
        let dst = out.as_mut_ptr();
        let quads = n / 4;
        for q in 0..quads {
            // a = [x0 y0 x1 y1], b = [x2 y2 x3 y3]
            let a = _mm256_loadu_si256(src.add(2 * q));
            let b = _mm256_loadu_si256(src.add(2 * q + 1));
            let xs = _mm256_unpacklo_epi64(a, b); // [x0 x2 x1 x3]
            let ys = _mm256_unpackhi_epi64(a, b); // [y0 y2 y1 y3]
            let key = _mm256_or_si256(part1by1(xs), _mm256_slli_epi64::<1>(part1by1(ys)));
            let key = _mm256_permute4x64_epi64::<0b11_01_10_00>(key);
            _mm256_storeu_si256(dst.add(4 * q).cast(), key);
        }
        for (i, c) in coords.iter().enumerate().skip(4 * quads) {
            *dst.add(i) = scalar::morton_key(c[0], c[1]);
        }
    }

    /// Batch 2-D Morton decode, four keys per iteration; the unpack +
    /// half-select permutes re-interleave the x/y lanes into `[x, y]`
    /// pair (AoS) order.
    ///
    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn morton_decodes(keys: &[u64], out: &mut Vec<[u64; 2]>) {
        let n = keys.len();
        out.resize(n, [0, 0]);
        let src = keys.as_ptr();
        let dst = out.as_mut_ptr().cast::<__m256i>();
        let quads = n / 4;
        for q in 0..quads {
            let k = _mm256_loadu_si256(src.add(4 * q).cast());
            let xs = compact1by1(k);
            let ys = compact1by1(_mm256_srli_epi64::<1>(k));
            let lo = _mm256_unpacklo_epi64(xs, ys); // [x0 y0 x2 y2]
            let hi = _mm256_unpackhi_epi64(xs, ys); // [x1 y1 x3 y3]
            _mm256_storeu_si256(dst.add(2 * q), _mm256_permute2x128_si256::<0x20>(lo, hi));
            _mm256_storeu_si256(
                dst.add(2 * q + 1),
                _mm256_permute2x128_si256::<0x31>(lo, hi),
            );
        }
        for (i, &k) in keys.iter().enumerate().skip(4 * quads) {
            let (x, y) = scalar::morton_decode(k);
            *dst.cast::<[u64; 2]>().add(i) = [x, y];
        }
    }

    /// Batch 3-D Morton encode, four `[x, y, z]` triples per iteration.
    /// The stride-3 AoS layout does not line up with 64-bit unpacks, so
    /// each axis register is gathered with lane inserts; the three
    /// ladders are still four keys wide.
    ///
    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn morton_keys_3d(coords: &[[u64; 3]], out: &mut Vec<u64>) {
        let n = coords.len();
        out.resize(n, 0);
        let dst = out.as_mut_ptr();
        let quads = n / 4;
        for q in 0..quads {
            let c = &coords[4 * q..4 * q + 4];
            let xs = _mm256_set_epi64x(
                c[3][0] as i64,
                c[2][0] as i64,
                c[1][0] as i64,
                c[0][0] as i64,
            );
            let ys = _mm256_set_epi64x(
                c[3][1] as i64,
                c[2][1] as i64,
                c[1][1] as i64,
                c[0][1] as i64,
            );
            let zs = _mm256_set_epi64x(
                c[3][2] as i64,
                c[2][2] as i64,
                c[1][2] as i64,
                c[0][2] as i64,
            );
            let key = _mm256_or_si256(
                part1by2(xs),
                _mm256_or_si256(
                    _mm256_slli_epi64::<1>(part1by2(ys)),
                    _mm256_slli_epi64::<2>(part1by2(zs)),
                ),
            );
            _mm256_storeu_si256(dst.add(4 * q).cast(), key);
        }
        for (i, c) in coords.iter().enumerate().skip(4 * quads) {
            *dst.add(i) = scalar::morton_key_3d(c[0], c[1], c[2]);
        }
    }

    /// Batch 3-D Morton decode, four keys per iteration; the per-axis
    /// results bounce through stack temporaries into the stride-3 AoS
    /// output.
    ///
    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn morton_decodes_3d(keys: &[u64], out: &mut Vec<[u64; 3]>) {
        let n = keys.len();
        out.resize(n, [0, 0, 0]);
        let quads = n / 4;
        for q in 0..quads {
            let k = _mm256_loadu_si256(keys.as_ptr().add(4 * q).cast());
            let (mut xs, mut ys, mut zs) = ([0u64; 4], [0u64; 4], [0u64; 4]);
            _mm256_storeu_si256(xs.as_mut_ptr().cast(), compact1by2(k));
            _mm256_storeu_si256(
                ys.as_mut_ptr().cast(),
                compact1by2(_mm256_srli_epi64::<1>(k)),
            );
            _mm256_storeu_si256(
                zs.as_mut_ptr().cast(),
                compact1by2(_mm256_srli_epi64::<2>(k)),
            );
            for j in 0..4 {
                out[4 * q + j] = [xs[j], ys[j], zs[j]];
            }
        }
        for i in 4 * quads..n {
            let (x, y, z) = scalar::morton_decode_3d(keys[i]);
            out[i] = [x, y, z];
        }
    }
}

/// Hilbert curve distance of the cell `(x, y)` in a `2^order x 2^order`
/// grid (quadrant-rotation construction, branchless inner loop).
///
/// Bit-identical to [`scalar::hilbert_key`]: for power-of-two `n` the
/// reflection `n-1-x` is `x ^ (n-1)`, so the data-dependent
/// reflect-and-swap becomes three XOR-mask steps, and the disjoint
/// per-level contributions `s²·((3·rx)^ry)` are OR-ed into their own bit
/// pair directly.
pub fn hilbert_key(order: u32, x: u64, y: u64) -> u64 {
    debug_assert!(order <= MAX_ORDER);
    debug_assert!(x < (1u64 << order) && y < (1u64 << order));
    let mask = (1u64 << order) - 1;
    let (mut x, mut y) = (x, y);
    let mut d: u64 = 0;
    for i in (0..order).rev() {
        let rx = (x >> i) & 1;
        let ry = (y >> i) & 1;
        d |= ((3 * rx) ^ ry) << (2 * i);
        // ry == 0: reflect both coordinates when rx == 1, then swap.
        let noswap = ry.wrapping_sub(1); // all ones iff ry == 0
        let flip = noswap & 0u64.wrapping_sub(rx) & mask;
        x ^= flip;
        y ^= flip;
        let t = (x ^ y) & noswap;
        x ^= t;
        y ^= t;
    }
    d
}

/// Inverse Hilbert: curve distance back to `(x, y)` in a
/// `2^order x 2^order` grid (branchless; bit-identical to
/// [`scalar::hilbert_decode`]).
pub fn hilbert_decode(order: u32, d: u64) -> (u64, u64) {
    let (mut x, mut y) = (0u64, 0u64);
    let mut mask = 0u64; // (1 << i) - 1, grown incrementally
    let mut t = d;
    for i in 0..order {
        let rx = 1 & (t >> 1);
        let ry = 1 & (t ^ rx);
        // Below level i both coordinates are < 2^i, so the reflection
        // `s-1-x` is an XOR with the level mask.
        let noswap = ry.wrapping_sub(1); // all ones iff ry == 0
        let flip = noswap & 0u64.wrapping_sub(rx) & mask;
        x ^= flip;
        y ^= flip;
        let s = (x ^ y) & noswap;
        x ^= s;
        y ^= s;
        x |= rx << i;
        y |= ry << i;
        mask = (mask << 1) | 1;
        t >>= 2;
    }
    (x, y)
}

/// Skilling's TransposeToAxes with a branchless inner loop: inverse of
/// [`scalar::axes_to_transpose`]. (The encode direction keeps the
/// branchy reference loop — measured faster there; only the decode
/// direction wins from going branchless.)
fn transpose_to_axes<const N: usize>(x: &mut [u64; N], order: u32) {
    // Gray decode by H ^ (H/2).
    let t = x[N - 1] >> 1;
    for i in (1..N).rev() {
        x[i] ^= x[i - 1];
    }
    x[0] ^= t;
    // Undo excess work.
    for b in 1..order {
        let p = (1u64 << b) - 1;
        for i in (0..N).rev() {
            let set = 0u64.wrapping_sub((x[i] >> b) & 1);
            let t = (x[0] ^ x[i]) & p & !set;
            x[0] ^= t | (p & set);
            x[i] ^= t;
        }
    }
}

/// 3-D Hilbert curve distance of the cell `(x, y, z)` in a `(2^order)^3`
/// grid (Skilling's transpose construction).
///
/// The transpose-to-key packing — bit `b` of axis `i` to key bit
/// `b·3 + (2-i)` — is exactly a 3-D Morton interleave of the axes in
/// reverse significance order, so it rides the optimized
/// [`morton_key_3d`] instead of packing 63 key bits one at a time.
pub fn hilbert_key_3d(order: u32, x: u64, y: u64, z: u64) -> u64 {
    debug_assert!((1..=MAX_ORDER_3D).contains(&order));
    debug_assert!(x < (1u64 << order) && y < (1u64 << order) && z < (1u64 << order));
    let mut c = [x, y, z];
    scalar::axes_to_transpose(&mut c, order);
    morton_key_3d(c[2], c[1], c[0])
}

/// Inverse 3-D Hilbert: curve distance back to `(x, y, z)`.
pub fn hilbert_decode_3d(order: u32, d: u64) -> (u64, u64, u64) {
    debug_assert!((1..=MAX_ORDER_3D).contains(&order));
    // Morton de-interleave is the inverse key-to-transpose unpacking;
    // the per-axis masks drop any stray key bits above 3·order exactly
    // as the bit-at-a-time reference does.
    let axis_mask = (1u64 << order) - 1;
    let (t2, t1, t0) = morton_decode_3d(d);
    let mut c = [t0 & axis_mask, t1 & axis_mask, t2 & axis_mask];
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

/// Dimension-generic batch SFC keys: fill `out` with the key of every
/// coordinate tuple under `curve` (clears `out` first). Bit-identical to
/// mapping [`sfc_key_nd`] over the slice; Morton rides the tiered batch
/// kernels ([`morton_keys`] / [`morton_keys_3d`], BMI2 or AVX2 per
/// [`BatchIsa::detect`]) so the partitioner's unit-ordering pass pays
/// one feature dispatch per snapshot instead of one stub call per cell.
pub fn sfc_keys_nd<const D: usize>(
    curve: SfcCurve,
    order: u32,
    coords: &[[u64; D]],
    out: &mut Vec<u64>,
) {
    match D {
        2 => {
            // SAFETY: D == 2, so `[u64; D]` and `[u64; 2]` are the same
            // layout; the slice cast is a no-op reinterpretation.
            let c2: &[[u64; 2]] =
                unsafe { std::slice::from_raw_parts(coords.as_ptr().cast(), coords.len()) };
            match curve {
                SfcCurve::Morton => morton_keys(c2, out),
                SfcCurve::Hilbert => {
                    out.clear();
                    out.reserve(c2.len());
                    for c in c2 {
                        out.push(hilbert_key(order, c[0], c[1]));
                    }
                }
            }
        }
        3 => {
            // SAFETY: D == 3; same no-op slice reinterpretation as above.
            let c3: &[[u64; 3]] =
                unsafe { std::slice::from_raw_parts(coords.as_ptr().cast(), coords.len()) };
            match curve {
                SfcCurve::Morton => morton_keys_3d(c3, out),
                SfcCurve::Hilbert => {
                    // Transpose every tuple (branchy reference loop —
                    // the fast direction for encode), then hand the
                    // whole batch to the tiered Morton kernel for the
                    // key packing. Identical to per-key
                    // [`hilbert_key_3d`], which packs one key at a
                    // time via the scalar Morton interleave.
                    let ord = order.max(1);
                    let transposed: Vec<[u64; 3]> = c3
                        .iter()
                        .map(|&[x, y, z]| {
                            let mut c = [x, y, z];
                            scalar::axes_to_transpose(&mut c, ord);
                            [c[2], c[1], c[0]]
                        })
                        .collect();
                    morton_keys_3d(&transposed, out);
                }
            }
        }
        _ => panic!("sfc_keys_nd: unsupported dimension {D}"),
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
    fn batch_keys_match_per_key_dispatch() {
        let c2: Vec<[u64; 2]> = (0..16).flat_map(|y| (0..16).map(move |x| [x, y])).collect();
        let c3: Vec<[u64; 3]> = (0..8)
            .flat_map(|z| (0..8).flat_map(move |y| (0..8).map(move |x| [x, y, z])))
            .collect();
        let mut out = Vec::new();
        for curve in [SfcCurve::Morton, SfcCurve::Hilbert] {
            sfc_keys_nd::<2>(curve, 4, &c2, &mut out);
            let want: Vec<u64> = c2.iter().map(|&c| sfc_key_nd::<2>(curve, 4, c)).collect();
            assert_eq!(out, want, "2-D {curve:?}");
            sfc_keys_nd::<3>(curve, 3, &c3, &mut out);
            let want: Vec<u64> = c3.iter().map(|&c| sfc_key_nd::<3>(curve, 3, c)).collect();
            assert_eq!(out, want, "3-D {curve:?}");
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

    /// Exhaustive small-domain agreement with the scalar references, on
    /// top of the random-coordinate property tests in
    /// `tests/properties.rs`.
    #[test]
    fn optimized_matches_scalar_exhaustively_small() {
        for x in 0..32u64 {
            for y in 0..32u64 {
                assert_eq!(morton_key(x, y), scalar::morton_key(x, y));
                assert_eq!(hilbert_key(5, x, y), scalar::hilbert_key(5, x, y));
                for z in 0..8u64 {
                    assert_eq!(
                        morton_key_3d(x, y, z),
                        scalar::morton_key_3d(x, y, z),
                        "morton3d({x},{y},{z})"
                    );
                    assert_eq!(
                        hilbert_key_3d(5, x, y, z),
                        scalar::hilbert_key_3d(5, x, y, z),
                        "hilbert3d({x},{y},{z})"
                    );
                }
            }
        }
        for d in 0..1024u64 {
            assert_eq!(morton_decode(d), scalar::morton_decode(d));
            assert_eq!(hilbert_decode(5, d), scalar::hilbert_decode(5, d));
            assert_eq!(morton_decode_3d(d), scalar::morton_decode_3d(d));
            assert_eq!(hilbert_decode_3d(4, d), scalar::hilbert_decode_3d(4, d));
        }
    }
}
