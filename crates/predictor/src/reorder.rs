//! Level-ordered quantization-code reordering (§5.1.4).
//!
//! Quantization codes produced by interpolation levels with large strides
//! have systematically larger magnitudes than codes from small strides.
//! Flattening the code array in raster order interleaves those populations
//! and produces a "noisy" sequence; the paper's Eq. 3 instead maps every code
//! to a position grouped by its interpolation level, with codes from the
//! coarsest levels (and the anchors) first. The reordered sequence is much
//! smoother, which the byte-level reducers (RRE/RZE) exploit.
//!
//! This module implements the mapping as an explicit permutation: the level
//! of a point is the largest `ℓ ≤ log2(anchor_stride)` such that `2^ℓ`
//! divides all of its coordinates (degenerate axes are ignored), and points
//! are ordered by descending level with raster order inside each level —
//! exactly the grouping Eq. 3 produces.

use crate::error::PredictorError;
use szhi_ndgrid::Dims;

/// The level-ordered permutation for a field shape and anchor stride.
#[derive(Debug, Clone)]
pub struct LevelOrder {
    dims: Dims,
    max_level: u32,
    /// `dest[i]` is the position of raster index `i` in the reordered
    /// sequence.
    dest: Vec<u32>,
    /// Number of points per level, from level `max_level` (anchors) down to 0.
    level_counts: Vec<usize>,
}

/// The interpolation level of a coordinate triple: the largest `ℓ ≤ cap` such
/// that `2^ℓ` divides every coordinate (axes of extent 1 are ignored; the
/// coordinate 0 is divisible by everything).
#[inline]
pub fn level_of(z: usize, y: usize, x: usize, dims: Dims, cap: u32) -> u32 {
    let mut level = cap;
    if dims.nz() > 1 {
        level = level.min(valuation(z, cap));
    }
    if dims.ny() > 1 {
        level = level.min(valuation(y, cap));
    }
    if dims.nx() > 1 {
        level = level.min(valuation(x, cap));
    }
    level
}

#[inline]
fn valuation(c: usize, cap: u32) -> u32 {
    if c == 0 {
        cap
    } else {
        (c.trailing_zeros()).min(cap)
    }
}

impl LevelOrder {
    /// The largest field a permutation can cover: destinations are stored
    /// as `u32`. Callers holding untrusted or user-chosen shapes check
    /// against this before calling [`LevelOrder::new`].
    pub const MAX_POINTS: usize = u32::MAX as usize;

    /// Builds the permutation for `dims` with the given anchor stride (a
    /// power of two).
    ///
    /// # Panics
    /// If `dims` holds more than [`MAX_POINTS`](Self::MAX_POINTS) points.
    pub fn new(dims: Dims, anchor_stride: usize) -> Self {
        assert!(anchor_stride.is_power_of_two() && anchor_stride >= 2);
        assert!(
            dims.len() <= Self::MAX_POINTS,
            "a {dims} field does not fit the permutation's u32 destinations"
        );
        let max_level = anchor_stride.trailing_zeros();
        let levels: Vec<u8> = (0..dims.len())
            .map(|idx| {
                let (z, y, x) = dims.coords(idx);
                level_of(z, y, x, dims, max_level) as u8
            })
            .collect();
        // Count per level (descending) and prefix offsets.
        let mut level_counts = vec![0usize; max_level as usize + 1];
        for &l in &levels {
            level_counts[(max_level - l as u32) as usize] += 1;
        }
        let mut offsets = vec![0usize; max_level as usize + 1];
        let mut acc = 0usize;
        for (i, &c) in level_counts.iter().enumerate() {
            offsets[i] = acc;
            acc += c;
        }
        // Destination index per point: raster order within each level bucket.
        let mut dest = vec![0u32; dims.len()];
        let mut cursor = offsets;
        for (idx, &l) in levels.iter().enumerate() {
            let bucket = (max_level - l as u32) as usize;
            dest[idx] = cursor[bucket] as u32;
            cursor[bucket] += 1;
        }
        LevelOrder {
            dims,
            max_level,
            dest,
            level_counts,
        }
    }

    /// The field shape this permutation was built for.
    pub fn dims(&self) -> Dims {
        self.dims
    }

    /// Number of interpolation levels (excluding the anchor level).
    pub fn max_level(&self) -> u32 {
        self.max_level
    }

    /// Number of codes per level, ordered from the anchor level (index 0)
    /// down to level 0 (finest stride).
    pub fn level_counts(&self) -> &[usize] {
        &self.level_counts
    }

    /// Destination position of raster index `idx` in the reordered sequence
    /// (the paper's `I_{x,y,z}`).
    pub fn destination(&self, idx: usize) -> usize {
        self.dest[idx] as usize
    }

    /// Applies the permutation: `out[dest[i]] = codes[i]`.
    pub fn reorder(&self, codes: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.reorder_into(codes, &mut out);
        out
    }

    /// Like [`reorder`](LevelOrder::reorder), but writes into a reusable
    /// output buffer (cleared and resized in place), so per-chunk callers
    /// avoid one code-array-sized allocation per chunk.
    pub fn reorder_into(&self, codes: &[u8], out: &mut Vec<u8>) {
        assert_eq!(
            codes.len(),
            self.dest.len(),
            "code array does not match the permutation"
        );
        out.clear();
        out.resize(codes.len(), 0);
        for (i, &d) in self.dest.iter().enumerate() {
            out[d as usize] = codes[i];
        }
    }

    /// Inverts the permutation: `out[i] = reordered[dest[i]]`. The input is
    /// untrusted (it comes from a decoded stream payload), so a length
    /// mismatch surfaces as a typed error rather than a panic.
    pub fn restore(&self, reordered: &[u8]) -> Result<Vec<u8>, PredictorError> {
        if reordered.len() != self.dest.len() {
            return Err(PredictorError::Inconsistent(format!(
                "{} reordered codes for a permutation over {} points",
                reordered.len(),
                self.dest.len()
            )));
        }
        let mut out = vec![0u8; reordered.len()];
        for (i, &d) in self.dest.iter().enumerate() {
            out[i] = reordered[d as usize];
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn permutation_is_a_bijection() {
        for dims in [Dims::d3(20, 17, 33), Dims::d2(50, 41), Dims::d1(100)] {
            for stride in [8usize, 16] {
                let order = LevelOrder::new(dims, stride);
                let mut seen = vec![false; dims.len()];
                for i in 0..dims.len() {
                    let d = order.destination(i);
                    assert!(!seen[d], "destination {d} assigned twice");
                    seen[d] = true;
                }
                assert!(seen.iter().all(|&s| s));
            }
        }
    }

    #[test]
    fn reorder_then_restore_is_identity() {
        let dims = Dims::d3(19, 23, 29);
        let order = LevelOrder::new(dims, 16);
        let mut rng = rand::rngs::StdRng::seed_from_u64(103);
        let codes: Vec<u8> = (0..dims.len()).map(|_| rng.gen()).collect();
        let reordered = order.reorder(&codes);
        assert_eq!(order.restore(&reordered).unwrap(), codes);
        assert!(matches!(
            order.restore(&reordered[1..]),
            Err(crate::PredictorError::Inconsistent(_))
        ));
        assert_ne!(
            reordered, codes,
            "permutation should not be the identity on 3D data"
        );
    }

    #[test]
    fn higher_levels_come_first() {
        let dims = Dims::d3(33, 33, 33);
        let order = LevelOrder::new(dims, 16);
        // Mark each point with its level, reorder, and check monotonicity.
        let levels: Vec<u8> = (0..dims.len())
            .map(|idx| {
                let (z, y, x) = dims.coords(idx);
                level_of(z, y, x, dims, 4) as u8
            })
            .collect();
        let reordered = order.reorder(&levels);
        for w in reordered.windows(2) {
            assert!(
                w[0] >= w[1],
                "levels must be non-increasing in the reordered sequence"
            );
        }
        // The first entries are the anchors (level 4).
        assert_eq!(reordered[0], 4);
        assert_eq!(order.level_counts()[0], 3 * 3 * 3);
    }

    #[test]
    fn level_of_handles_degenerate_axes() {
        let d2 = Dims::d2(64, 64);
        // z is always 0 for 2D data and must not drag the level up or down.
        assert_eq!(level_of(0, 32, 32, d2, 4), 4);
        assert_eq!(level_of(0, 32, 8, d2, 4), 3);
        assert_eq!(level_of(0, 1, 32, d2, 4), 0);
        let d1 = Dims::d1(64);
        assert_eq!(level_of(0, 0, 48, d1, 4), 4);
        assert_eq!(level_of(0, 0, 4, d1, 4), 2);
    }

    #[test]
    fn counts_sum_to_total() {
        let dims = Dims::d3(40, 30, 20);
        let order = LevelOrder::new(dims, 8);
        assert_eq!(order.level_counts().iter().sum::<usize>(), dims.len());
        assert_eq!(order.level_counts().len(), 4); // anchors + 3 levels
    }
}
