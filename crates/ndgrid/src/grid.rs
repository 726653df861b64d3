//! Owned, contiguous scalar fields.

use crate::{Dims, Region};

/// An owned scalar field over a [`Dims`] shape, stored contiguously in
/// row-major (`z`, `y`, `x`) order with `x` fastest.
///
/// `Grid` is deliberately minimal: predictors and codecs in the workspace
/// operate on the raw slice for speed and use the shape for indexing.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid<T> {
    dims: Dims,
    data: Vec<T>,
}

impl<T: Copy + Default> Grid<T> {
    /// A grid of the given shape filled with `T::default()`.
    pub fn zeros(dims: Dims) -> Self {
        Grid {
            dims,
            data: vec![T::default(); dims.len()],
        }
    }

    /// Wraps an existing buffer. Panics if the buffer length does not match
    /// the shape.
    pub fn from_vec(dims: Dims, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            dims.len(),
            "buffer length {} does not match shape {} ({} points)",
            data.len(),
            dims,
            dims.len()
        );
        Grid { dims, data }
    }

    /// Builds a grid by evaluating `f(z, y, x)` at every point.
    pub fn from_fn(dims: Dims, mut f: impl FnMut(usize, usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(dims.len());
        for z in 0..dims.nz() {
            for y in 0..dims.ny() {
                for x in 0..dims.nx() {
                    data.push(f(z, y, x));
                }
            }
        }
        Grid { dims, data }
    }

    /// The shape of the field.
    pub fn dims(&self) -> Dims {
        self.dims
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the field holds no points (never, given `Dims` invariants).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the underlying buffer.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable view of the underlying buffer.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the grid and returns the underlying buffer.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Value at `(z, y, x)`.
    #[inline(always)]
    pub fn get(&self, z: usize, y: usize, x: usize) -> T {
        self.data[self.dims.index(z, y, x)]
    }

    /// Sets the value at `(z, y, x)`.
    #[inline(always)]
    pub fn set(&mut self, z: usize, y: usize, x: usize, v: T) {
        let i = self.dims.index(z, y, x);
        self.data[i] = v;
    }

    /// Copies the values inside `region` into a new dense buffer, ordered
    /// row-major within the region.
    pub fn extract(&self, region: &Region) -> Vec<T> {
        let mut out = Vec::new();
        self.extract_into(region, &mut out);
        out
    }

    /// Like [`Grid::extract`], but into the caller's buffer: `out` is
    /// cleared and refilled, so a caller extracting a stream of regions
    /// reuses one allocation (grown to the largest region, no further).
    pub fn extract_into(&self, region: &Region, out: &mut Vec<T>) {
        out.clear();
        out.reserve_exact(region.len());
        for z in region.z_range() {
            for y in region.y_range() {
                let row = self.dims.index(z, y, region.x0());
                out.extend_from_slice(&self.data[row..row + region.nx()]);
            }
        }
    }

    /// Writes a dense row-major buffer back into `region`. Inverse of
    /// [`Grid::extract`].
    pub fn insert(&mut self, region: &Region, values: &[T]) {
        assert_eq!(values.len(), region.len(), "region/value size mismatch");
        let mut src = 0;
        for z in region.z_range() {
            for y in region.y_range() {
                let row = self.dims.index(z, y, region.x0());
                // szhi-analyzer: allow(panic-reachability) -- `Region` construction clamps to the grid and the assert above pins `values.len()`, so both slices are in bounds; stream readers only pass regions from the container's own ChunkPlan partition
                self.data[row..row + region.nx()].copy_from_slice(&values[src..src + region.nx()]);
                src += region.nx();
            }
        }
    }

    /// Extracts a 2D slice (fixed `z` plane for 3D data, the whole field for
    /// 2D data) as a dense `ny × nx` buffer — used by the visual-quality
    /// experiment (Figure 9).
    pub fn plane_z(&self, z: usize) -> Vec<T> {
        let start = self.dims.index(z, 0, 0);
        self.data[start..start + self.dims.ny() * self.dims.nx()].to_vec()
    }
}

impl Grid<f32> {
    /// Minimum and maximum finite value of the field (NaN and ±Inf are
    /// skipped). Returns `(0.0, 0.0)` when no finite value exists.
    pub fn min_max(&self) -> (f32, f32) {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for &v in self.data.iter().filter(|v| v.is_finite()) {
            if v < lo {
                lo = v;
            }
            if v > hi {
                hi = v;
            }
        }
        if lo.is_finite() && hi.is_finite() {
            (lo, hi)
        } else {
            (0.0, 0.0)
        }
    }

    /// The value range `max − min`, used by value-range-relative error bounds.
    pub fn value_range(&self) -> f32 {
        let (lo, hi) = self.min_max();
        hi - lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iota(dims: Dims) -> Grid<f32> {
        let mut i = -1.0f32;
        Grid::from_fn(dims, |_, _, _| {
            i += 1.0;
            i
        })
    }

    #[test]
    fn zeros_and_len() {
        let g: Grid<f32> = Grid::zeros(Dims::d3(2, 3, 4));
        assert_eq!(g.len(), 24);
        assert!(g.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_fn_orders_x_fastest() {
        let g = Grid::from_fn(Dims::d2(2, 3), |_, y, x| (y * 3 + x) as f32);
        assert_eq!(g.as_slice(), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut g: Grid<f32> = Grid::zeros(Dims::d3(3, 3, 3));
        g.set(1, 2, 0, 7.5);
        assert_eq!(g.get(1, 2, 0), 7.5);
        assert_eq!(g.as_slice()[Dims::d3(3, 3, 3).index(1, 2, 0)], 7.5);
    }

    #[test]
    fn extract_insert_roundtrip() {
        let g = iota(Dims::d3(4, 5, 6));
        let r = Region::new(1, 2, 3, 2, 2, 3);
        let vals = g.extract(&r);
        assert_eq!(vals.len(), r.len());
        let mut h: Grid<f32> = Grid::zeros(Dims::d3(4, 5, 6));
        h.insert(&r, &vals);
        assert_eq!(h.extract(&r), vals);
    }

    #[test]
    fn planes_have_expected_sizes() {
        let g = iota(Dims::d3(3, 4, 5));
        assert_eq!(g.plane_z(1).len(), 20);
    }

    #[test]
    fn plane_z_matches_manual_slice() {
        let g = iota(Dims::d3(2, 2, 2));
        assert_eq!(g.plane_z(1), vec![4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn min_max_and_range() {
        let g = Grid::from_vec(Dims::d1(4), vec![-1.0f32, 3.5, 0.0, 2.0]);
        assert_eq!(g.min_max(), (-1.0, 3.5));
        assert_eq!(g.value_range(), 4.5);
    }

    #[test]
    fn min_max_skips_non_finite_values() {
        let mixed = vec![-1.0f32, 3.5, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        assert_eq!(Grid::from_vec(Dims::d1(5), mixed).min_max(), (-1.0, 3.5));
        let none = vec![f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        assert_eq!(Grid::from_vec(Dims::d1(3), none).min_max(), (0.0, 0.0));
    }

    #[test]
    #[should_panic]
    fn from_vec_rejects_wrong_length() {
        let _ = Grid::from_vec(Dims::d1(3), vec![1.0f32, 2.0]);
    }
}
