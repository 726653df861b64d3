//! Shapes of scalar fields.
//!
//! A [`Dims`] value describes a 1-, 2- or 3-dimensional grid. Internally the
//! shape is always stored as `(nz, ny, nx)` with missing leading axes set to
//! `1`, so a 2D field of `1800 × 3600` is stored as `(1, 1800, 3600)` and a 1D
//! field of length `n` as `(1, 1, n)`. `x` is the fastest-varying axis.

/// The shape of a scalar field (up to three dimensions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dims {
    nz: usize,
    ny: usize,
    nx: usize,
    rank: u8,
}

impl Dims {
    /// A one-dimensional field of `nx` points.
    pub fn d1(nx: usize) -> Self {
        assert!(nx > 0, "dimensions must be non-zero");
        Dims {
            nz: 1,
            ny: 1,
            nx,
            rank: 1,
        }
    }

    /// A two-dimensional field of `ny × nx` points (`x` fastest).
    pub fn d2(ny: usize, nx: usize) -> Self {
        assert!(ny > 0 && nx > 0, "dimensions must be non-zero");
        Dims {
            nz: 1,
            ny,
            nx,
            rank: 2,
        }
    }

    /// A three-dimensional field of `nz × ny × nx` points (`x` fastest).
    pub fn d3(nz: usize, ny: usize, nx: usize) -> Self {
        assert!(nz > 0 && ny > 0 && nx > 0, "dimensions must be non-zero");
        Dims {
            nz,
            ny,
            nx,
            rank: 3,
        }
    }

    /// Builds a shape from a slice ordered slowest-to-fastest, e.g.
    /// `[512, 512, 512]` for a 512³ cube or `[1800, 3600]` for a 2D field.
    pub fn from_slice(dims: &[usize]) -> Self {
        match dims {
            [nx] => Dims::d1(*nx),
            [ny, nx] => Dims::d2(*ny, *nx),
            [nz, ny, nx] => Dims::d3(*nz, *ny, *nx),
            _ => panic!(
                "Dims::from_slice supports 1..=3 dimensions, got {}",
                dims.len()
            ),
        }
    }

    /// Number of dimensions (1, 2 or 3).
    pub fn rank(&self) -> usize {
        self.rank as usize
    }

    /// Grid extent along `z` (1 for 1D/2D fields).
    pub fn nz(&self) -> usize {
        self.nz
    }

    /// Grid extent along `y` (1 for 1D fields).
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Grid extent along `x` (the fastest-varying axis).
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Total number of grid points.
    pub fn len(&self) -> usize {
        self.nz * self.ny * self.nx
    }

    /// True when the field contains no points. `Dims` constructors reject
    /// zero-sized axes, so this is always `false`; provided for API symmetry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total size in bytes for an `f32` field of this shape.
    pub fn nbytes_f32(&self) -> usize {
        self.len() * std::mem::size_of::<f32>()
    }

    /// Linear index of the point `(z, y, x)`.
    #[inline(always)]
    pub fn index(&self, z: usize, y: usize, x: usize) -> usize {
        debug_assert!(z < self.nz && y < self.ny && x < self.nx);
        (z * self.ny + y) * self.nx + x
    }

    /// Inverse of [`Dims::index`].
    #[inline(always)]
    pub fn coords(&self, idx: usize) -> (usize, usize, usize) {
        debug_assert!(idx < self.len());
        let x = idx % self.nx;
        let rest = idx / self.nx;
        let y = rest % self.ny;
        let z = rest / self.ny;
        (z, y, x)
    }

    /// Extents ordered slowest-to-fastest, with the length equal to the rank.
    pub fn to_vec(&self) -> Vec<usize> {
        match self.rank {
            1 => vec![self.nx],
            2 => vec![self.ny, self.nx],
            _ => vec![self.nz, self.ny, self.nx],
        }
    }

    /// The extent along a logical axis: 0 → z, 1 → y, 2 → x.
    pub fn extent(&self, axis: usize) -> usize {
        match axis {
            0 => self.nz,
            1 => self.ny,
            2 => self.nx,
            _ => panic!("axis must be 0, 1 or 2"),
        }
    }
}

impl std::fmt::Display for Dims {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.rank {
            1 => write!(f, "{}", self.nx),
            2 => write!(f, "{}x{}", self.ny, self.nx),
            _ => write!(f, "{}x{}x{}", self.nz, self.ny, self.nx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn d1_has_unit_leading_axes() {
        let d = Dims::d1(100);
        assert_eq!((d.nz(), d.ny(), d.nx()), (1, 1, 100));
        assert_eq!(d.rank(), 1);
        assert_eq!(d.len(), 100);
    }

    #[test]
    fn d2_layout_is_row_major() {
        let d = Dims::d2(4, 5);
        assert_eq!(d.index(0, 0, 0), 0);
        assert_eq!(d.index(0, 0, 4), 4);
        assert_eq!(d.index(0, 1, 0), 5);
        assert_eq!(d.index(0, 3, 4), 19);
    }

    #[test]
    fn d3_index_roundtrips_with_coords() {
        let d = Dims::d3(3, 4, 5);
        for idx in 0..d.len() {
            let (z, y, x) = d.coords(idx);
            assert_eq!(d.index(z, y, x), idx);
        }
    }

    #[test]
    fn from_slice_matches_constructors() {
        assert_eq!(Dims::from_slice(&[7]), Dims::d1(7));
        assert_eq!(Dims::from_slice(&[3, 7]), Dims::d2(3, 7));
        assert_eq!(Dims::from_slice(&[2, 3, 7]), Dims::d3(2, 3, 7));
    }

    #[test]
    #[should_panic]
    fn zero_axis_is_rejected() {
        let _ = Dims::d3(0, 4, 4);
    }

    #[test]
    fn display_matches_rank() {
        assert_eq!(Dims::d1(9).to_string(), "9");
        assert_eq!(Dims::d2(2, 9).to_string(), "2x9");
        assert_eq!(Dims::d3(1, 2, 9).to_string(), "1x2x9");
    }

    #[test]
    fn nbytes_counts_f32() {
        assert_eq!(Dims::d3(2, 3, 4).nbytes_f32(), 2 * 3 * 4 * 4);
    }

    #[test]
    fn extent_by_axis() {
        let d = Dims::d3(2, 3, 4);
        assert_eq!(d.extent(0), 2);
        assert_eq!(d.extent(1), 3);
        assert_eq!(d.extent(2), 4);
    }
}
