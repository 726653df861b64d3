//! Chunked partitioning of a grid into independent sub-fields.
//!
//! A [`ChunkPlan`] splits a field into **non-overlapping** rectangular
//! chunks of a fixed span per axis, clamped at the upper domain boundary.
//! Unlike the overlapping [`crate::BlockGrid`] tiles (which share their
//! anchor faces and exist *inside* one predictor pass), chunks are
//! completely independent sub-grids: each one is compressed with its own
//! anchors, codes and outliers, which is what makes chunk-parallel
//! compression, streaming ingest and per-chunk random-access decompression
//! possible.
//!
//! The chunk span is normally required to be a multiple of the predictor's
//! anchor stride on every non-degenerate axis (the *chunk-alignment rule*,
//! checked by [`ChunkPlan::is_aligned`]): chunk origins then coincide with
//! the global anchor lattice, so the per-chunk anchor grids of neighbouring
//! chunks line up and the chunked decomposition degrades compression only
//! through the (thin) duplicated anchor planes at chunk boundaries.

use crate::{Dims, Region};

/// A partition of a field into non-overlapping, span-aligned chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkPlan {
    dims: Dims,
    span: [usize; 3],
    ncz: usize,
    ncy: usize,
    ncx: usize,
}

impl ChunkPlan {
    /// Builds the chunk partition of `dims` with span `(z, y, x)`. Spans are
    /// clamped to the field extent, and the span along a degenerate axis
    /// (extent 1) is normalised to 1, so a span larger than the grid yields
    /// a single chunk covering the whole field.
    pub fn new(dims: Dims, span: [usize; 3]) -> Self {
        assert!(
            span.iter().all(|&s| s > 0),
            "chunk span must be non-zero on every axis"
        );
        let clamp = |extent: usize, s: usize| if extent == 1 { 1 } else { s.min(extent) };
        let [sz, sy, sx] = span;
        let span = [
            clamp(dims.nz(), sz),
            clamp(dims.ny(), sy),
            clamp(dims.nx(), sx),
        ];
        let [sz, sy, sx] = span;
        ChunkPlan {
            dims,
            span,
            ncz: dims.nz().div_ceil(sz),
            ncy: dims.ny().div_ceil(sy),
            ncx: dims.nx().div_ceil(sx),
        }
    }

    /// Shape of the underlying field.
    pub fn dims(&self) -> Dims {
        self.dims
    }

    /// The (normalised) chunk span per axis `(z, y, x)`.
    pub fn span(&self) -> [usize; 3] {
        self.span
    }

    /// Total number of chunks.
    pub fn len(&self) -> usize {
        self.ncz * self.ncy * self.ncx
    }

    /// True when the plan contains no chunks (never happens for valid dims).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the span obeys the chunk-alignment rule for the given anchor
    /// stride: a positive multiple of `stride` along every non-degenerate
    /// axis (interior chunks then start and end on the anchor lattice).
    pub fn is_aligned(&self, stride: usize) -> bool {
        assert!(stride >= 1, "anchor stride must be at least 1");
        let extents = [self.dims.nz(), self.dims.ny(), self.dims.nx()];
        self.span
            .iter()
            .zip(extents)
            .all(|(&s, extent)| extent == 1 || s == extent || s % stride == 0)
    }

    /// The chunk with lattice coordinates `(cz, cy, cx)`: a clamped,
    /// non-overlapping region of the parent grid.
    pub(crate) fn chunk(&self, cz: usize, cy: usize, cx: usize) -> Region {
        assert!(
            cz < self.ncz && cy < self.ncy && cx < self.ncx,
            "chunk coordinate out of range"
        );
        let [sz, sy, sx] = self.span;
        let z0 = cz * sz;
        let y0 = cy * sy;
        let x0 = cx * sx;
        Region::new(
            z0,
            y0,
            x0,
            sz.min(self.dims.nz() - z0),
            sy.min(self.dims.ny() - y0),
            sx.min(self.dims.nx() - x0),
        )
    }

    /// The chunk with flat index `i` (row-major over the chunk lattice).
    pub fn chunk_at(&self, i: usize) -> Region {
        let cx = i % self.ncx;
        let rest = i / self.ncx;
        let cy = rest % self.ncy;
        let cz = rest / self.ncy;
        self.chunk(cz, cy, cx)
    }

    /// The shape of chunk `i` viewed as a standalone field, preserving the
    /// parent's rank (a 2D field yields 2D chunks).
    pub fn chunk_dims(&self, i: usize) -> Dims {
        let r = self.chunk_at(i);
        match self.dims.rank() {
            1 => Dims::d1(r.nx()),
            2 => Dims::d2(r.ny(), r.nx()),
            _ => Dims::d3(r.nz(), r.ny(), r.nx()),
        }
    }

    /// The lattice coordinates `(cz, cy, cx)` of the chunk with flat
    /// index `i` (the inverse of the row-major linearisation used by
    /// [`ChunkPlan::chunk_at`]).
    #[cfg(test)]
    fn chunk_coords(&self, i: usize) -> (usize, usize, usize) {
        assert!(i < self.len(), "chunk index out of range");
        let cx = i % self.ncx;
        let rest = i / self.ncx;
        (rest / self.ncy, rest % self.ncy, cx)
    }

    /// Iterates over every chunk in row-major lattice order.
    pub fn iter(&self) -> impl Iterator<Item = Region> + '_ {
        (0..self.len()).map(move |i| self.chunk_at(i))
    }

    /// Chunk-index iteration: yields `(index, region, dims)` for every
    /// chunk in row-major lattice order, `dims` being the chunk viewed as
    /// a standalone field ([`ChunkPlan::chunk_dims`]).
    #[cfg(test)]
    fn iter_indexed(&self) -> impl Iterator<Item = (usize, Region, Dims)> + '_ {
        (0..self.len()).map(move |i| (i, self.chunk_at(i), self.chunk_dims(i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_partition_the_field_exactly() {
        for (dims, span) in [
            (Dims::d3(48, 33, 20), [16, 16, 16]),
            (Dims::d3(17, 17, 17), [16, 16, 16]),
            (Dims::d2(50, 70), [32, 32, 32]),
            (Dims::d1(100), [16, 16, 16]),
            (Dims::d3(5, 6, 7), [64, 64, 64]),
        ] {
            let plan = ChunkPlan::new(dims, span);
            let mut count = vec![0u8; dims.len()];
            for r in plan.iter() {
                for z in r.z_range() {
                    for y in r.y_range() {
                        for x in r.x_range() {
                            count[dims.index(z, y, x)] += 1;
                        }
                    }
                }
            }
            assert!(
                count.iter().all(|&c| c == 1),
                "chunks of {dims} @ {span:?} are not a partition"
            );
        }
    }

    #[test]
    fn span_larger_than_grid_yields_one_chunk() {
        let plan = ChunkPlan::new(Dims::d3(10, 12, 14), [64, 64, 64]);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.chunk_at(0), Region::full(plan.dims()));
        assert_eq!(plan.chunk_dims(0), Dims::d3(10, 12, 14));
    }

    #[test]
    fn degenerate_axes_are_normalised() {
        let plan = ChunkPlan::new(Dims::d2(64, 64), [32, 32, 32]);
        assert_eq!(plan.span(), [1, 32, 32]);
        assert_eq!((plan.ncz, plan.ncy, plan.ncx), (1, 2, 2));
        assert!(plan.is_aligned(16));
    }

    #[test]
    fn alignment_rule_checks_stride_multiples() {
        let dims = Dims::d3(64, 64, 64);
        assert!(ChunkPlan::new(dims, [32, 32, 32]).is_aligned(16));
        assert!(!ChunkPlan::new(dims, [32, 24, 32]).is_aligned(16));
        // A span clamped to the whole extent is always aligned (one chunk).
        assert!(ChunkPlan::new(Dims::d3(10, 10, 10), [64, 64, 64]).is_aligned(16));
    }

    #[test]
    fn chunk_dims_preserve_rank() {
        let plan = ChunkPlan::new(Dims::d2(40, 40), [16, 16, 16]);
        assert_eq!(plan.chunk_dims(0).rank(), 2);
        let plan = ChunkPlan::new(Dims::d1(40), [16, 16, 16]);
        assert_eq!(plan.chunk_dims(0).rank(), 1);
        assert_eq!(plan.chunk_dims(plan.len() - 1), Dims::d1(8));
    }

    #[test]
    fn chunk_at_roundtrips_lattice_coords() {
        let plan = ChunkPlan::new(Dims::d3(48, 40, 33), [16, 16, 16]);
        let mut i = 0;
        for cz in 0..plan.ncz {
            for cy in 0..plan.ncy {
                for cx in 0..plan.ncx {
                    assert_eq!(plan.chunk_at(i), plan.chunk(cz, cy, cx));
                    i += 1;
                }
            }
        }
        assert_eq!(i, plan.len());
    }

    #[test]
    fn indexed_iteration_matches_direct_access() {
        let plan = ChunkPlan::new(Dims::d3(48, 40, 33), [16, 16, 16]);
        let mut seen = 0;
        for (i, region, dims) in plan.iter_indexed() {
            assert_eq!(i, seen);
            assert_eq!(region, plan.chunk_at(i));
            assert_eq!(dims, plan.chunk_dims(i));
            let (cz, cy, cx) = plan.chunk_coords(i);
            assert_eq!(plan.chunk(cz, cy, cx), region);
            seen += 1;
        }
        assert_eq!(seen, plan.len());
    }

    #[test]
    fn interior_chunk_origins_lie_on_the_anchor_lattice() {
        let plan = ChunkPlan::new(Dims::d3(70, 70, 70), [32, 32, 32]);
        assert!(plan.is_aligned(16));
        for r in plan.iter() {
            assert_eq!(r.z0() % 16, 0);
            assert_eq!(r.y0() % 16, 0);
            assert_eq!(r.x0() % 16, 0);
        }
    }
}
