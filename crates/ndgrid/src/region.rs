//! Rectangular sub-regions of a grid.

use crate::Dims;
use std::ops::Range;

/// A rectangular region of a grid: origin `(z0, y0, x0)` and extents
/// `(nz, ny, nx)`. Regions are half-open on every axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    z0: usize,
    y0: usize,
    x0: usize,
    nz: usize,
    ny: usize,
    nx: usize,
}

impl Region {
    /// Creates a region with the given origin and extents.
    pub(crate) fn new(z0: usize, y0: usize, x0: usize, nz: usize, ny: usize, nx: usize) -> Self {
        assert!(
            nz > 0 && ny > 0 && nx > 0,
            "region extents must be non-zero"
        );
        Region {
            z0,
            y0,
            x0,
            nz,
            ny,
            nx,
        }
    }

    /// The region covering an entire field.
    #[cfg(test)]
    pub(crate) fn full(dims: Dims) -> Self {
        Region::new(0, 0, 0, dims.nz(), dims.ny(), dims.nx())
    }

    /// Origin along `z`.
    pub fn z0(&self) -> usize {
        self.z0
    }

    /// Origin along `y`.
    pub fn y0(&self) -> usize {
        self.y0
    }

    /// Origin along `x`.
    pub fn x0(&self) -> usize {
        self.x0
    }

    /// Extent along `z`.
    pub fn nz(&self) -> usize {
        self.nz
    }

    /// Extent along `y`.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Extent along `x`.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Number of points in the region.
    pub fn len(&self) -> usize {
        self.nz * self.ny * self.nx
    }

    /// True when the region is empty (never, given constructor invariants).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Shape of the region viewed as a standalone field.
    pub fn dims(&self) -> Dims {
        Dims::d3(self.nz, self.ny, self.nx)
    }

    /// Half-open `z` coordinate range in the parent grid.
    pub fn z_range(&self) -> Range<usize> {
        self.z0..self.z0 + self.nz
    }

    /// Half-open `y` coordinate range in the parent grid.
    pub fn y_range(&self) -> Range<usize> {
        self.y0..self.y0 + self.ny
    }

    /// Half-open `x` coordinate range in the parent grid.
    pub fn x_range(&self) -> Range<usize> {
        self.x0..self.x0 + self.nx
    }

    /// Whether the region contains the point `(z, y, x)` of the parent grid.
    #[cfg(test)]
    fn contains(&self, z: usize, y: usize, x: usize) -> bool {
        self.z_range().contains(&z) && self.y_range().contains(&y) && self.x_range().contains(&x)
    }

    /// Clamps the region so it fits inside `dims`. Panics if the origin lies
    /// outside the field.
    #[cfg(test)]
    fn clamped(&self, dims: Dims) -> Region {
        assert!(
            self.z0 < dims.nz() && self.y0 < dims.ny() && self.x0 < dims.nx(),
            "region origin outside the field"
        );
        Region {
            z0: self.z0,
            y0: self.y0,
            x0: self.x0,
            nz: self.nz.min(dims.nz() - self.z0),
            ny: self.ny.min(dims.ny() - self.y0),
            nx: self.nx.min(dims.nx() - self.x0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_region_covers_everything() {
        let d = Dims::d3(2, 3, 4);
        let r = Region::full(d);
        assert_eq!(r.len(), d.len());
        assert!(r.contains(1, 2, 3));
    }

    #[test]
    fn ranges_are_half_open() {
        let r = Region::new(1, 2, 3, 2, 2, 2);
        assert_eq!(r.z_range(), 1..3);
        assert!(r.contains(2, 3, 4));
        assert!(!r.contains(3, 3, 4));
    }

    #[test]
    fn clamped_shrinks_to_field() {
        let r = Region::new(1, 1, 1, 10, 10, 10).clamped(Dims::d3(4, 4, 4));
        assert_eq!((r.nz(), r.ny(), r.nx()), (3, 3, 3));
    }

    #[test]
    #[should_panic]
    fn clamped_rejects_out_of_range_origin() {
        let _ = Region::new(5, 0, 0, 1, 1, 1).clamped(Dims::d3(4, 4, 4));
    }

    #[test]
    fn dims_of_region() {
        assert_eq!(Region::new(0, 0, 0, 2, 3, 4).dims(), Dims::d3(2, 3, 4));
    }
}
