//! 3-D Morton (Z-order) keys.
//!
//! Positions are quantised on a `2^BITS`-per-axis grid inside a bounding
//! cube ([`quantize`] floors) and their bits interleaved into a 63-bit
//! key. Morton order is the cheaper of the two proximity-preserving orders
//! provided (see [`crate::hilbert`] for the Peano–Hilbert order the paper
//! uses); it is also the canonical octree cell order: the top 3 bits of
//! the key select the root octant, and so on down the levels.

use std::ops::Range;

use crate::aabb::Aabb;
use crate::vec3::Vec3;

/// Bits of resolution per axis (3 × 21 = 63 key bits).
pub const BITS: u32 = 21;

/// Largest grid coordinate per axis.
pub const MAX_COORD: u32 = (1 << BITS) - 1;

/// Spreads the low 21 bits of `x` so they occupy every third bit.
#[inline]
#[must_use]
pub fn spread(x: u32) -> u64 {
    let mut v = u64::from(x) & 0x1f_ffff;
    v = (v | v << 32) & 0x001f_0000_0000_ffff;
    v = (v | v << 16) & 0x001f_0000_ff00_00ff;
    v = (v | v << 8) & 0x100f_00f0_0f00_f00f;
    v = (v | v << 4) & 0x10c3_0c30_c30c_30c3;
    v = (v | v << 2) & 0x1249_2492_4924_9249;
    v
}

/// Inverse of [`spread`]: collects every third bit into the low 21 bits.
#[inline]
#[must_use]
pub fn compact(v: u64) -> u32 {
    let mut v = v & 0x1249_2492_4924_9249;
    v = (v ^ (v >> 2)) & 0x10c3_0c30_c30c_30c3;
    v = (v ^ (v >> 4)) & 0x100f_00f0_0f00_f00f;
    v = (v ^ (v >> 8)) & 0x001f_0000_ff00_00ff;
    v = (v ^ (v >> 16)) & 0x001f_0000_0000_ffff;
    v = (v ^ (v >> 32)) & 0x1f_ffff;
    v as u32
}

/// Interleaves three 21-bit grid coordinates into a Morton key
/// (x contributes the least significant bit of each triple).
#[inline]
#[must_use]
pub fn encode(x: u32, y: u32, z: u32) -> u64 {
    spread(x) | spread(y) << 1 | spread(z) << 2
}

/// Splits a Morton key back into grid coordinates.
#[inline]
#[must_use]
pub fn decode(key: u64) -> (u32, u32, u32) {
    (compact(key), compact(key >> 1), compact(key >> 2))
}

/// Quantises a point onto the grid of `2^BITS` cells per axis that cuts
/// the cube with corner `bounds.min` and edge `bounds.edge()`: each
/// coordinate is floored, `⌊(v − lo)/edge · 2^BITS⌋`, so the top `l` bits
/// of a coordinate are exactly its cell at level `l` (`2^l` cells per
/// axis) and a key's prefix `key >> 3·(BITS − l)` is that cell's Morton
/// code. Points outside are clamped, so callers may pass a slightly loose
/// box.
#[inline]
#[must_use]
pub fn quantize(p: Vec3, bounds: &Aabb) -> (u32, u32, u32) {
    let edge = bounds.edge();
    let scale = |v: f64, lo: f64| -> u32 {
        if edge <= 0.0 {
            return 0;
        }
        let t = ((v - lo) / edge * f64::from(1u32 << BITS)).floor();
        t.clamp(0.0, f64::from(MAX_COORD)) as u32
    };
    (
        scale(p.x, bounds.min.x),
        scale(p.y, bounds.min.y),
        scale(p.z, bounds.min.z),
    )
}

/// Morton key of a point inside `bounds`.
#[inline]
#[must_use]
pub fn key(p: Vec3, bounds: &Aabb) -> u64 {
    let (x, y, z) = quantize(p, bounds);
    encode(x, y, z)
}

/// The runs of the sorted `keys[range]` that share one level-`l` cell, as
/// `(cell code, index range)` in key order: one binary search per run.
pub fn cell_runs(
    keys: &[u64],
    range: Range<usize>,
    l: u32,
) -> impl Iterator<Item = (u64, Range<usize>)> + '_ {
    let shift = 3 * (BITS - l);
    let (mut lo, end) = (range.start, range.end);
    std::iter::from_fn(move || {
        let code = *keys[..end].get(lo)? >> shift;
        let hi = lo + keys[lo..end].partition_point(|&k| k >> shift <= code);
        Some((code, std::mem::replace(&mut lo, hi)..hi))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_compact_roundtrip() {
        for x in [0u32, 1, 2, 0x15_5555, MAX_COORD, 123_456, 0x10_0001] {
            assert_eq!(compact(spread(x)), x);
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let cases = [
            (0, 0, 0),
            (MAX_COORD, MAX_COORD, MAX_COORD),
            (1, 2, 3),
            (0x12_3456, 0x0f_edcb, 0x1f_ffff),
        ];
        for (x, y, z) in cases {
            assert_eq!(decode(encode(x, y, z)), (x, y, z));
        }
    }

    #[test]
    fn first_octant_bits_match_octant_index() {
        // the MSB triple of the key is (z,y,x) of the top-level split
        let b = Aabb::cube(Vec3::ZERO, 2.0);
        let p = Vec3::new(0.5, -0.5, 0.5); // upper x, lower y, upper z -> octant 0b101
        let k = key(p, &b);
        let top = (k >> 60) & 0x7;
        assert_eq!(top, 0b101);
    }

    #[test]
    fn ordering_is_monotone_along_x() {
        let b = Aabb::new(Vec3::ZERO, Vec3::ONE);
        let k1 = key(Vec3::new(0.1, 0.0, 0.0), &b);
        let k2 = key(Vec3::new(0.2, 0.0, 0.0), &b);
        let k3 = key(Vec3::new(0.9, 0.0, 0.0), &b);
        assert!(k1 < k2 && k2 < k3);
    }

    #[test]
    fn clamps_outside_points() {
        let b = Aabb::new(Vec3::ZERO, Vec3::ONE);
        let (x, y, z) = quantize(Vec3::new(-5.0, 2.0, 0.5), &b);
        assert_eq!(x, 0);
        assert_eq!(y, MAX_COORD);
        assert!(z > 0 && z < MAX_COORD);
    }

    #[test]
    fn degenerate_box_quantizes_to_zero() {
        let b = Aabb::new(Vec3::ZERO, Vec3::new(0.0, 1.0, 1.0));
        let (x, _, _) = quantize(Vec3::new(0.0, 0.5, 0.5), &b);
        assert_eq!(x, 0);
    }
}
