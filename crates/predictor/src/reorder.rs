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
//! This module computes the mapping as a walk over the lattice, never as a
//! stored table: for level `ℓ` from `log2(anchor_stride)` down to 0, with
//! `s = 2^ℓ`, it visits the `s`-lattice in raster order. Below the anchor
//! level, a row whose `z` and `y` are both multiples of `2s` holds only
//! `x = s, 3s, 5s, …` (its even multiples of `s` belong to a coarser
//! level); every other row holds every multiple of `s`. That is descending
//! level with raster order inside each level — exactly the grouping Eq. 3
//! produces — at no set-up cost and for any field size. Axes of extent 1
//! need no special case: their coordinate is always 0.

use crate::error::PredictorError;
use szhi_ndgrid::Dims;

/// The level-ordered walk for a field shape and anchor stride.
#[derive(Debug, Clone, Copy)]
pub struct LevelOrder {
    dims: Dims,
    max_level: u32,
}

impl LevelOrder {
    /// The level order of `dims` with the given anchor stride (a power of
    /// two, at least 2).
    pub fn new(dims: Dims, anchor_stride: usize) -> Self {
        assert!(anchor_stride.is_power_of_two() && anchor_stride >= 2);
        LevelOrder {
            dims,
            max_level: anchor_stride.trailing_zeros(),
        }
    }

    /// Walks the order as row runs: `visit(start, step, count)` covers the
    /// raster indices `start, start + step, …` (`count` of them), and the
    /// runs arrive in reordered sequence.
    fn walk(&self, mut visit: impl FnMut(usize, usize, usize)) {
        let (ny, nx) = (self.dims.ny(), self.dims.nx());
        for level in (0..=self.max_level).rev() {
            let s = 1usize << level;
            for z in (0..self.dims.nz()).step_by(s) {
                for y in (0..ny).step_by(s) {
                    // `z` and `y` are multiples of `s`; both are multiples
                    // of `2s` exactly when neither has the `s` bit set.
                    let (first, step) = if level < self.max_level && (z | y) & s == 0 {
                        (s, 2 * s)
                    } else {
                        (0, s)
                    };
                    if first < nx {
                        visit((z * ny + y) * nx + first, step, (nx - 1 - first) / step + 1);
                    }
                }
            }
        }
    }

    /// Applies the order: the codes gathered along the walk.
    pub fn reorder(&self, codes: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.reorder_into(codes, &mut out);
        out
    }

    /// Like [`reorder`](LevelOrder::reorder), but writes into a reusable
    /// output buffer (cleared first), so per-chunk callers avoid one
    /// code-array-sized allocation per chunk.
    pub fn reorder_into(&self, codes: &[u8], out: &mut Vec<u8>) {
        assert_eq!(
            codes.len(),
            self.dims.len(),
            "code array does not match the level order"
        );
        out.clear();
        self.walk(|start, step, count| {
            let run = &codes[start..=start + (count - 1) * step];
            if step == 1 {
                out.extend_from_slice(run);
            } else {
                out.extend(run.iter().step_by(step));
            }
        });
    }

    /// Inverts the order: the reordered codes scattered back along the
    /// walk. The input is untrusted (it comes from a decoded stream
    /// payload), so a length mismatch surfaces as a typed error rather than
    /// a panic.
    pub fn restore(&self, reordered: &[u8]) -> Result<Vec<u8>, PredictorError> {
        let mut out = Vec::new();
        self.restore_into(reordered, &mut out)?;
        Ok(out)
    }

    /// Like [`restore`](LevelOrder::restore), but writes into a reusable
    /// output buffer (cleared first), the mirror of
    /// [`reorder_into`](LevelOrder::reorder_into): per-chunk decoders keep
    /// one code plane instead of allocating one per chunk.
    pub fn restore_into(&self, reordered: &[u8], out: &mut Vec<u8>) -> Result<(), PredictorError> {
        if reordered.len() != self.dims.len() {
            return Err(PredictorError::Inconsistent(format!(
                "{} reordered codes for a level order over {} points",
                reordered.len(),
                self.dims.len()
            )));
        }
        crate::zeroed(out, reordered.len());
        let mut rest = reordered;
        self.walk(|start, step, count| {
            let (src, tail) = rest.split_at(count);
            rest = tail;
            let run = &mut out[start..=start + (count - 1) * step];
            if step == 1 {
                run.copy_from_slice(src);
            } else {
                for (dst, &v) in run.iter_mut().step_by(step).zip(src) {
                    *dst = v;
                }
            }
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// The interpolation level of a coordinate triple: the largest `ℓ ≤ cap`
    /// such that `2^ℓ` divides every coordinate (axes of extent 1 are
    /// ignored; the coordinate 0 is divisible by everything).
    fn level_of(z: usize, y: usize, x: usize, dims: Dims, cap: u32) -> u32 {
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

    fn valuation(c: usize, cap: u32) -> u32 {
        if c == 0 {
            cap
        } else {
            (c.trailing_zeros()).min(cap)
        }
    }

    /// The reference order: raster indices stable-sorted by descending
    /// level.
    fn reference_order(dims: Dims, anchor_stride: usize) -> Vec<usize> {
        let cap = anchor_stride.trailing_zeros();
        let mut order: Vec<usize> = (0..dims.len()).collect();
        order.sort_by_key(|&i| {
            let (z, y, x) = dims.coords(i);
            std::cmp::Reverse(level_of(z, y, x, dims, cap))
        });
        order
    }

    /// The walk visits every raster index once, in the reference order;
    /// `reorder` is the reference gather and `restore` inverts it.
    #[test]
    fn permutation_is_a_bijection() {
        let shapes = [
            Dims::d3(20, 17, 33),
            Dims::d3(19, 23, 29),
            Dims::d3(33, 33, 33),
            Dims::d3(44, 64, 64),
            Dims::d3(5, 9, 13),
            Dims::d3(1, 40, 3),
            Dims::d3(17, 1, 5),
            Dims::d3(3, 1, 1),
            Dims::d2(50, 41),
            Dims::d1(100),
        ];
        let mut rng = rand::rngs::StdRng::seed_from_u64(25);
        for dims in shapes {
            let codes: Vec<u8> = (0..dims.len()).map(|_| rng.gen()).collect();
            for stride in [2usize, 4, 8, 16] {
                let order = LevelOrder::new(dims, stride);
                let reference = reference_order(dims, stride);
                let mut walked = Vec::new();
                order.walk(|start, step, count| {
                    walked.extend((0..count).map(|k| start + k * step));
                });
                assert_eq!(walked, reference, "{dims} stride {stride}: walk");
                let reordered = order.reorder(&codes);
                let gathered: Vec<u8> = reference.iter().map(|&i| codes[i]).collect();
                assert_eq!(reordered, gathered, "{dims} stride {stride}: reorder");
                assert_eq!(
                    order.restore(&reordered).unwrap(),
                    codes,
                    "{dims} stride {stride}: restore"
                );
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
}
