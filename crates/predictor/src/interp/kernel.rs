//! Interpolation kernels: step enumeration and point prediction.
//!
//! These are the building blocks shared by the predictor
//! ([`super::InterpPredictor`]) and the auto-tuner
//! ([`crate::autotune`]): the decomposition of one interpolation level into
//! steps of independent target points, and the spline prediction of a single
//! point from its already-known neighbours.

use super::{Scheme, Spline};
use szhi_ndgrid::Dims;

/// One interpolation step: a lattice of target points (`start`, `stride` per
/// axis) that are all predicted from points known *before* the step, plus the
/// axes along which the prediction interpolates.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// `(start, stride)` of target coordinates along `z`.
    pub z: (usize, usize),
    /// `(start, stride)` of target coordinates along `y`.
    pub y: (usize, usize),
    /// `(start, stride)` of target coordinates along `x`.
    pub x: (usize, usize),
    /// Axes to interpolate along (0 = z, 1 = y, 2 = x). Multi-axis steps
    /// average the highest-order per-axis predictions.
    pub interp_axes: &'static [usize],
}

impl Step {
    const fn new(
        z: (usize, usize),
        y: (usize, usize),
        x: (usize, usize),
        interp_axes: &'static [usize],
    ) -> Self {
        Step {
            z,
            y,
            x,
            interp_axes,
        }
    }

    /// The same lattice with every start and stride multiplied by `s`.
    fn scaled(self, s: usize) -> Self {
        let scale = |(start, stride): (usize, usize)| (start * s, stride * s);
        Step {
            z: scale(self.z),
            y: scale(self.y),
            x: scale(self.x),
            ..self
        }
    }

    /// Iterates every target coordinate of the step in raster order: the
    /// one enumeration of a step's lattice (the predictor's sweep and the
    /// auto-tuner's trials both walk it).
    pub fn targets(&self, dims: Dims) -> impl Iterator<Item = (usize, usize, usize)> {
        let (z0, zs) = self.z;
        let (y0, ys) = self.y;
        let (x0, xs) = self.x;
        (z0..dims.nz()).step_by(zs).flat_map(move |z| {
            (y0..dims.ny())
                .step_by(ys)
                .flat_map(move |y| (x0..dims.nx()).step_by(xs).map(move |x| (z, y, x)))
        })
    }
}

/// The dimension-sequence steps of the stride-1 level.
const DIM_SEQUENCE: [Step; 3] = [
    // 1D along x: z and y on the coarse grid, x at odd multiples of s.
    Step::new((0, 2), (0, 2), (1, 2), &[2]),
    // 1D along y: x already refined to the s-grid.
    Step::new((0, 2), (1, 2), (0, 1), &[1]),
    // 1D along z: x and y already refined.
    Step::new((1, 2), (0, 1), (0, 1), &[0]),
];

/// The multi-dimensional steps of the stride-1 level.
const MULTI_DIM: [Step; 7] = [
    // Edge centres: exactly one odd coordinate → 1D interpolation.
    Step::new((0, 2), (0, 2), (1, 2), &[2]),
    Step::new((0, 2), (1, 2), (0, 2), &[1]),
    Step::new((1, 2), (0, 2), (0, 2), &[0]),
    // Face centres: exactly two odd coordinates → averaged 2D.
    Step::new((0, 2), (1, 2), (1, 2), &[1, 2]),
    Step::new((1, 2), (0, 2), (1, 2), &[0, 2]),
    Step::new((1, 2), (1, 2), (0, 2), &[0, 1]),
    // Body centres: all three odd → averaged 3D.
    Step::new((1, 2), (1, 2), (1, 2), &[0, 1, 2]),
];

/// Enumerates the interpolation steps of one level (stride `s`) under the
/// given scheme. Executing the steps in order guarantees every target's
/// neighbours are already known.
pub fn steps(s: usize, scheme: Scheme) -> impl Iterator<Item = Step> {
    let unit: &'static [Step] = match scheme {
        Scheme::DimSequence => &DIM_SEQUENCE,
        Scheme::MultiDim => &MULTI_DIM,
    };
    unit.iter().map(move |step| step.scaled(s))
}

/// Order of a 1D prediction: higher order means more neighbours were usable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Order {
    /// No neighbour available (degenerate axis).
    None,
    /// One-sided copy of the nearest neighbour.
    Copy,
    /// Two-point linear interpolation.
    Linear,
    /// Four-point cubic interpolation.
    Cubic,
}

/// Predicts the value at `coord` by interpolating along a single axis with
/// stride `s`, confined to the block tile and the domain.
fn predict_1d(
    recon: &[f32],
    dims: Dims,
    coord: (usize, usize, usize),
    axis: usize,
    s: usize,
    spline: Spline,
    block_span: [usize; 3],
) -> (f32, Order) {
    let (z, y, x) = coord;
    let c = [z, y, x][axis] as isize;
    let extent = dims.extent(axis) as isize;
    let span = block_span[axis] as isize;
    // Tile bounds along this axis (inclusive).
    let lo = (c / span) * span;
    let hi = (lo + span).min(extent - 1);
    let s = s as isize;

    let value_at = |offset: isize| -> Option<f32> {
        let n = c + offset;
        if n < lo || n > hi {
            return None;
        }
        let (mut zz, mut yy, mut xx) = (z, y, x);
        match axis {
            0 => zz = n as usize,
            1 => yy = n as usize,
            _ => xx = n as usize,
        }
        Some(recon[dims.index(zz, yy, xx)])
    };

    let inner_lo = value_at(-s);
    let inner_hi = value_at(s);
    match (inner_lo, inner_hi) {
        (Some(a), Some(b)) => {
            if spline == Spline::Cubic {
                if let (Some(aa), Some(bb)) = (value_at(-3 * s), value_at(3 * s)) {
                    // Four-point cubic spline through equally spaced samples.
                    let pred = (-aa + 9.0 * a + 9.0 * b - bb) / 16.0;
                    return (pred, Order::Cubic);
                }
            }
            ((a + b) * 0.5, Order::Linear)
        }
        (Some(a), None) => (a, Order::Copy),
        (None, Some(b)) => (b, Order::Copy),
        (None, None) => (0.0, Order::None),
    }
}

/// Predicts the value at `coord` by interpolating along `axes` with stride
/// `s`, averaging only the predictions of the highest available order
/// (§5.1.2: a cubic prediction is never diluted by a linear one).
pub fn predict_point(
    recon: &[f32],
    dims: Dims,
    coord: (usize, usize, usize),
    axes: &[usize],
    s: usize,
    spline: Spline,
    block_span: [usize; 3],
) -> f32 {
    let mut best_order = Order::None;
    let mut preds: [(f32, Order); 3] = [(0.0, Order::None); 3];
    let mut n = 0;
    for &axis in axes {
        if dims.extent(axis) <= 1 {
            continue;
        }
        let (p, o) = predict_1d(recon, dims, coord, axis, s, spline, block_span);
        preds[n] = (p, o);
        n += 1;
        if o > best_order {
            best_order = o;
        }
    }
    if best_order == Order::None {
        return 0.0;
    }
    let mut sum = 0.0f32;
    let mut count = 0usize;
    for &(p, o) in &preds[..n] {
        if o == best_order {
            sum += p;
            count += 1;
        }
    }
    sum / count as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use szhi_ndgrid::Grid;

    /// The shapes the lattice tests run over: a ragged 3-D field, one exact
    /// block, 2-D, 1-D and a field thinner than a block along two axes.
    fn shapes() -> [Dims; 5] {
        [
            Dims::d3(33, 20, 17),
            Dims::d3(16, 16, 16),
            Dims::d2(40, 50),
            Dims::d1(100),
            Dims::d3(5, 3, 70),
        ]
    }

    /// Walks anchors, then every level's steps in sweep order, calling
    /// `visit(step, s, coord, known)` per target with the points known
    /// *before* the target's step, and returns how often each point was
    /// produced (as an anchor or a target).
    fn walk_lattice(
        dims: Dims,
        anchor_stride: usize,
        scheme: Scheme,
        mut visit: impl FnMut(&Step, usize, (usize, usize, usize), &[bool]),
    ) -> Vec<u32> {
        let mut count = vec![0u32; dims.len()];
        let on_anchor_grid =
            |c: usize, extent: usize| extent == 1 || c.is_multiple_of(anchor_stride);
        for (idx, c) in count.iter_mut().enumerate() {
            let (z, y, x) = dims.coords(idx);
            if on_anchor_grid(z, dims.nz())
                && on_anchor_grid(y, dims.ny())
                && on_anchor_grid(x, dims.nx())
            {
                *c += 1;
            }
        }
        let levels = anchor_stride.trailing_zeros() as usize;
        for level in (1..=levels).rev() {
            let s = 1usize << (level - 1);
            for step in steps(s, scheme) {
                let known: Vec<bool> = count.iter().map(|&c| c > 0).collect();
                for coord in step.targets(dims) {
                    visit(&step, s, coord, &known);
                    count[dims.index(coord.0, coord.1, coord.2)] += 1;
                }
            }
        }
        count
    }

    #[test]
    fn every_point_is_covered_exactly_once() {
        for dims in shapes() {
            for scheme in [Scheme::DimSequence, Scheme::MultiDim] {
                for stride in [8usize, 16] {
                    let cov = walk_lattice(dims, stride, scheme, |_, _, _, _| {});
                    for (i, &c) in cov.iter().enumerate() {
                        assert_eq!(
                            c, 1,
                            "point {i} of {dims} covered {c} times (stride {stride}, {scheme:?})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_step_reads_only_points_known_before_it() {
        // The invariant that licenses the fused sweep (predict and commit a
        // target before predicting the next one of the same step): every
        // neighbour `predict_1d` can read — ±s and ±3s along each
        // interpolation axis — was produced by the anchors or an earlier
        // step, so no commit of this step can change a later prediction of
        // it. Checked against the whole domain, which covers every block
        // span (a tile only removes neighbours).
        for dims in shapes() {
            for scheme in [Scheme::DimSequence, Scheme::MultiDim] {
                for stride in [8usize, 16] {
                    walk_lattice(dims, stride, scheme, |step, s, coord, known| {
                        for &axis in step.interp_axes {
                            if dims.extent(axis) <= 1 {
                                continue;
                            }
                            for offset in [-3, -1, 1, 3].map(|k| k * s as isize) {
                                let mut n = [coord.0, coord.1, coord.2];
                                let c = n[axis] as isize + offset;
                                if c < 0 || c >= dims.extent(axis) as isize {
                                    continue;
                                }
                                n[axis] = c as usize;
                                assert!(
                                    known[dims.index(n[0], n[1], n[2])],
                                    "{dims}, stride {stride}, {scheme:?}, level stride {s}: \
                                     target {coord:?} reads {n:?}, which is not known yet"
                                );
                            }
                        }
                    });
                }
            }
        }
    }

    #[test]
    fn linear_prediction_is_exact_on_linear_data() {
        let dims = Dims::d1(65);
        let g = Grid::from_fn(dims, |_, _, x| 3.0 * x as f32 + 1.0);
        for s in [1usize, 2, 4, 8] {
            let pred = predict_point(
                g.as_slice(),
                dims,
                (0, 0, 16),
                &[2],
                s,
                Spline::Linear,
                [64, 64, 64],
            );
            assert!((pred - g.get(0, 0, 16)).abs() < 1e-4, "stride {s}: {pred}");
        }
    }

    #[test]
    fn cubic_prediction_is_exact_on_cubic_data() {
        let dims = Dims::d1(129);
        let g = Grid::from_fn(dims, |_, _, x| {
            let t = x as f32 / 16.0;
            t * t * t - 2.0 * t * t + 0.5 * t + 3.0
        });
        // Interior point with all four neighbours available inside the block.
        let pred = predict_point(
            g.as_slice(),
            dims,
            (0, 0, 64),
            &[2],
            4,
            Spline::Cubic,
            [128, 128, 128],
        );
        assert!(
            (pred - g.get(0, 0, 64)).abs() < 1e-3,
            "cubic not exact: {pred} vs {}",
            g.get(0, 0, 64)
        );
    }

    #[test]
    fn cubic_beats_linear_on_curved_data() {
        let dims = Dims::d1(129);
        let g = Grid::from_fn(dims, |_, _, x| ((x as f32) * 0.1).sin());
        let target = 64;
        let exact = g.get(0, 0, target);
        let lin = predict_point(
            g.as_slice(),
            dims,
            (0, 0, target),
            &[2],
            8,
            Spline::Linear,
            [128, 128, 128],
        );
        let cub = predict_point(
            g.as_slice(),
            dims,
            (0, 0, target),
            &[2],
            8,
            Spline::Cubic,
            [128, 128, 128],
        );
        assert!(
            (cub - exact).abs() < (lin - exact).abs(),
            "cubic {cub} should beat linear {lin} (exact {exact})"
        );
    }

    #[test]
    fn block_confinement_restricts_neighbours() {
        // With a span of 16, the prediction of x=24 at stride 8 may use x=16
        // and x=32 (wait: 32 > hi=32? hi = lo+span = 16+16 = 32, inclusive) but
        // never x=0 or x=48.
        let dims = Dims::d1(64);
        let mut values = vec![0.0f32; 64];
        values[16] = 1.0;
        values[32] = 3.0;
        values[0] = 100.0;
        values[48] = 100.0;
        let pred = predict_point(
            &values,
            dims,
            (0, 0, 24),
            &[2],
            8,
            Spline::Cubic,
            [16, 16, 16],
        );
        // Only the linear neighbours are inside the tile → (1 + 3) / 2.
        assert!(
            (pred - 2.0).abs() < 1e-6,
            "confined prediction should be 2.0, got {pred}"
        );
    }

    #[test]
    fn multidim_averages_only_highest_order() {
        // Along x the point has 4 neighbours (cubic); along y only 2 (linear).
        // The result must equal the pure-x cubic prediction.
        let dims = Dims::d2(3, 65);
        let g = Grid::from_fn(dims, |_, y, x| (x as f32 * 0.17).sin() + y as f32 * 10.0);
        let coord = (0usize, 1usize, 32usize);
        let only_x = predict_point(
            g.as_slice(),
            dims,
            coord,
            &[2],
            1,
            Spline::Cubic,
            [64, 64, 64],
        );
        let joint = predict_point(
            g.as_slice(),
            dims,
            coord,
            &[1, 2],
            1,
            Spline::Cubic,
            [64, 64, 64],
        );
        assert_eq!(only_x, joint);
    }

    #[test]
    fn degenerate_axes_are_skipped() {
        let dims = Dims::d2(4, 4);
        let g = Grid::from_fn(dims, |_, y, x| (y + x) as f32);
        // Interpolating "along z" on 2D data must not panic and falls back to
        // the remaining axes.
        let p = predict_point(
            g.as_slice(),
            dims,
            (0, 1, 1),
            &[0, 1, 2],
            1,
            Spline::Cubic,
            [16, 16, 16],
        );
        assert!(p.is_finite());
    }
}
