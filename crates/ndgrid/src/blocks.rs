//! Thread-block-style tiling of a grid.
//!
//! The interpolation predictors in the cuSZ family process data in
//! overlapping cubic tiles whose corner points lie on the anchor grid: with an
//! anchor stride `S`, a tile spans `S + 1` points per axis (`17³` for
//! cuSZ-Hi's stride 16, `9` per short axis for cuSZ-I's stride 8) and
//! neighbouring tiles share their boundary plane. Tiles at the upper domain
//! boundary are clamped to the field extent, so every point of the field is
//! covered and the boundary planes of interior tiles are covered twice (the
//! predictor treats those shared planes as read-only anchor input for the
//! "upper" tile, which keeps tiles independent and the decomposition
//! embarrassingly parallel).

use crate::{Dims, Region};

/// One tile of a [`BlockGrid`] decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    /// Index of the block in the (bz, by, bx) block lattice.
    pub block_coord: (usize, usize, usize),
    /// The region of the parent grid covered by this block, including its
    /// anchor faces.
    pub region: Region,
}

/// The lattice of overlapping tiles covering a field for a given anchor
/// stride.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockGrid {
    dims: Dims,
    stride: usize,
    nbz: usize,
    nby: usize,
    nbx: usize,
}

fn blocks_along(extent: usize, stride: usize) -> usize {
    if extent <= 1 {
        1
    } else {
        (extent - 1).div_ceil(stride)
    }
}

impl BlockGrid {
    /// Builds the tiling of `dims` with anchor stride `stride` (e.g. 16 for
    /// cuSZ-Hi, 8 for cuSZ-I).
    pub fn new(dims: Dims, stride: usize) -> Self {
        assert!(stride >= 1, "anchor stride must be at least 1");
        BlockGrid {
            dims,
            stride,
            nbz: blocks_along(dims.nz(), stride),
            nby: blocks_along(dims.ny(), stride),
            nbx: blocks_along(dims.nx(), stride),
        }
    }

    /// Total number of blocks.
    pub fn len(&self) -> usize {
        self.nbz * self.nby * self.nbx
    }

    /// True when the tiling contains no blocks (never happens for valid dims).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The block with lattice coordinates `(bz, by, bx)`.
    pub(crate) fn block(&self, bz: usize, by: usize, bx: usize) -> Block {
        assert!(
            bz < self.nbz && by < self.nby && bx < self.nbx,
            "block coordinate out of range"
        );
        let z0 = bz * self.stride;
        let y0 = by * self.stride;
        let x0 = bx * self.stride;
        let nz = if self.dims.nz() == 1 {
            1
        } else {
            (self.stride + 1).min(self.dims.nz() - z0)
        };
        let ny = if self.dims.ny() == 1 {
            1
        } else {
            (self.stride + 1).min(self.dims.ny() - y0)
        };
        let nx = if self.dims.nx() == 1 {
            1
        } else {
            (self.stride + 1).min(self.dims.nx() - x0)
        };
        Block {
            block_coord: (bz, by, bx),
            region: Region::new(z0, y0, x0, nz, ny, nx),
        }
    }

    /// The block with flat index `i` (row-major over the block lattice).
    pub(crate) fn block_at(&self, i: usize) -> Block {
        let bx = i % self.nbx;
        let rest = i / self.nbx;
        let by = rest % self.nby;
        let bz = rest / self.nby;
        self.block(bz, by, bx)
    }

    /// Iterates over every block in row-major lattice order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = Block> + '_ {
        (0..self.len()).map(move |i| self.block_at(i))
    }

    /// Collects every block into a vector (convenient for
    /// `rayon::par_iter` over blocks).
    pub fn to_vec(&self) -> Vec<Block> {
        self.iter().collect()
    }

    /// The coordinates of the anchor points of the field (every point whose
    /// coordinates are all multiples of the stride), in row-major order.
    /// Anchors are stored losslessly by the interpolation compressors. The
    /// iterator builds no vector, so the warm encode path can seed anchors
    /// with no per-chunk heap traffic. (A degenerate axis of extent 1 yields the single
    /// coordinate 0, exactly as `(0..1).step_by(stride)` does, so no special
    /// case is needed.)
    pub fn anchor_coords_iter(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        let stride = self.stride;
        let (nz, ny, nx) = (self.dims.nz(), self.dims.ny(), self.dims.nx());
        (0..nz).step_by(stride).flat_map(move |z| {
            (0..ny)
                .step_by(stride)
                .flat_map(move |y| (0..nx).step_by(stride).map(move |x| (z, y, x)))
        })
    }

    /// Number of anchor points of the field.
    pub fn anchor_count(&self) -> usize {
        let axis = |extent: usize| {
            if extent == 1 {
                1
            } else {
                extent.div_ceil(self.stride)
            }
        };
        axis(self.dims.nz()) * axis(self.dims.ny()) * axis(self.dims.nx())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_counts_cover_field() {
        let bg = BlockGrid::new(Dims::d3(33, 33, 33), 16);
        assert_eq!(bg.len(), 8);
        let bg = BlockGrid::new(Dims::d3(32, 32, 32), 16);
        assert_eq!(bg.len(), 8);
        let bg = BlockGrid::new(Dims::d3(17, 17, 17), 16);
        assert_eq!(bg.len(), 1);
    }

    #[test]
    fn interior_blocks_have_full_extent() {
        let bg = BlockGrid::new(Dims::d3(33, 33, 33), 16);
        let b = bg.block(0, 0, 0);
        assert_eq!((b.region.nz(), b.region.ny(), b.region.nx()), (17, 17, 17));
        let b = bg.block(1, 1, 1);
        assert_eq!(b.region.z0(), 16);
        assert_eq!((b.region.nz(), b.region.ny(), b.region.nx()), (17, 17, 17));
    }

    #[test]
    fn boundary_blocks_are_clamped() {
        let bg = BlockGrid::new(Dims::d3(20, 20, 20), 16);
        let b = bg.block(1, 1, 1);
        assert_eq!(b.region.z0(), 16);
        assert_eq!(b.region.nz(), 4);
    }

    #[test]
    fn every_point_is_covered() {
        let dims = Dims::d3(21, 18, 35);
        let bg = BlockGrid::new(dims, 16);
        let mut covered = vec![false; dims.len()];
        for b in bg.iter() {
            for z in b.region.z_range() {
                for y in b.region.y_range() {
                    for x in b.region.x_range() {
                        covered[dims.index(z, y, x)] = true;
                    }
                }
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn blocks_overlap_only_on_anchor_planes() {
        let dims = Dims::d3(33, 33, 33);
        let bg = BlockGrid::new(dims, 16);
        let mut count = vec![0u8; dims.len()];
        for b in bg.iter() {
            for z in b.region.z_range() {
                for y in b.region.y_range() {
                    for x in b.region.x_range() {
                        count[dims.index(z, y, x)] += 1;
                    }
                }
            }
        }
        for z in 0..33 {
            for y in 0..33 {
                for x in 0..33 {
                    let c = count[dims.index(z, y, x)];
                    let on_shared_plane = z == 16 || y == 16 || x == 16;
                    if on_shared_plane {
                        assert!(c >= 2, "shared plane point counted once");
                    } else {
                        assert_eq!(c, 1, "interior point covered more than once");
                    }
                }
            }
        }
    }

    #[test]
    fn two_d_fields_keep_unit_z() {
        let bg = BlockGrid::new(Dims::d2(40, 40), 16);
        assert_eq!(bg.len(), 9);
        let b = bg.block(0, 2, 2);
        assert_eq!(b.region.nz(), 1);
        assert_eq!(b.region.ny(), 8);
    }

    #[test]
    fn anchor_count_matches_enumeration() {
        for dims in [Dims::d3(33, 20, 17), Dims::d2(100, 90), Dims::d1(50)] {
            for stride in [8, 16] {
                let bg = BlockGrid::new(dims, stride);
                assert_eq!(
                    bg.anchor_coords_iter().count(),
                    bg.anchor_count(),
                    "dims {dims} stride {stride}"
                );
            }
        }
    }

    #[test]
    fn anchors_lie_on_stride_multiples() {
        let bg = BlockGrid::new(Dims::d3(33, 33, 33), 16);
        for (z, y, x) in bg.anchor_coords_iter() {
            assert_eq!(z % 16, 0);
            assert_eq!(y % 16, 0);
            assert_eq!(x % 16, 0);
        }
        assert_eq!(bg.anchor_count(), 27);
    }

    #[test]
    fn block_at_roundtrips_lattice_coords() {
        let bg = BlockGrid::new(Dims::d3(64, 48, 32), 16);
        for i in 0..bg.len() {
            let b = bg.block_at(i);
            let (bz, by, bx) = b.block_coord;
            assert_eq!(bg.block(bz, by, bx), b);
        }
    }
}
