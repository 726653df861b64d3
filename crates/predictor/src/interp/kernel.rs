//! Interpolation kernels: step enumeration and the row kernel.
//!
//! These are the building blocks shared by the predictor
//! ([`super::InterpPredictor`]) and the auto-tuner ([`crate::autotune`]):
//! the decomposition of one interpolation level into steps of independent
//! target points, and the row kernel that predicts a step's targets.
//!
//! The kernel works on one z-plane at a time ([`Step::sweep_plane`]): it
//! writes the target plane and reads the planes at ±s and ±3s beside it
//! through a [`Planes`] view, so a caller can hand planes that do not read
//! one another to different threads. A step's targets on a plane come in
//! rows of fixed `y`. Which neighbours a target may read along z and y —
//! the ones at ±s, and for a cubic spline also ±3s, that lie inside its
//! confinement tile and the domain — depends only on the plane and the
//! row, so those two axes are classified once per row. Along x it depends
//! only on the target's offset inside its x tile, so a row splits into a
//! few edge targets and interior runs in which every axis reads a fixed
//! stencil. The kernel predicts up to [`BATCH`] targets of a row into a
//! stack buffer, one run at a time, and then commits them in raster order.
//! Predicting a batch before committing any of it is exact because a
//! step's targets read only points known before the step
//! (`a_step_reads_only_points_known_before_it`).
//!
//! The arithmetic is the per-point reference's, operation for operation:
//! cubic is `(-aa + 9a + 9b - bb) / 16`, linear `(a + b) * 0.5`, and a
//! prediction is `0.0f32` plus the highest-order per-axis predictions in z,
//! y, x order, divided by their count. The per-point reference, which
//! works out the tile bounds and spline order of every neighbour of every
//! point on its own, is kept under `#[cfg(test)]`, and the tests compare
//! the kernel with it bit for bit.

use super::{Scheme, Spline};
use szhi_ndgrid::Dims;

/// Targets predicted per batch: the size of [`Step::sweep_plane`]'s stack buffer.
const BATCH: usize = 64;

/// One interpolation step: a lattice of target points (`start`, `stride` per
/// axis) that are all predicted from points known *before* the step, plus the
/// axes along which the prediction interpolates.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Step {
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

/// What the steps of one level are swept under.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Level {
    /// Shape of the field.
    pub dims: Dims,
    /// The level's stride `s`.
    pub s: usize,
    /// The level's spline.
    pub spline: Spline,
    /// Confinement tile per axis `(z, y, x)`: a target reads only
    /// neighbours in its own span-aligned tile.
    pub span: [usize; 3],
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
    /// enumeration the reference sweep walks.
    #[cfg(test)]
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

    /// How many targets the step has in a field of shape `dims`.
    pub(crate) fn count(&self, dims: Dims) -> usize {
        let along = |(start, stride): (usize, usize), extent: usize| {
            extent.saturating_sub(start).div_ceil(stride)
        };
        along(self.z, dims.nz()) * along(self.y, dims.ny()) * along(self.x, dims.nx())
    }

    /// Predicts every target of the step and passes it to `commit(index,
    /// prediction, slot)` in raster order, `slot` being the target's entry
    /// of `recon`: the step's planes one after another, each through
    /// [`Step::sweep_plane`]. This is the serial step order, which the
    /// tuner's trials sum their errors in.
    pub(crate) fn sweep(
        &self,
        level: &Level,
        recon: &mut [f32],
        commit: &mut impl FnMut(usize, f32, &mut f32),
    ) {
        let plane = level.dims.ny() * level.dims.nx();
        for z in (self.z.0..level.dims.nz()).step_by(self.z.1) {
            let mut planes = Planes::split(recon, plane, z, level.s);
            self.sweep_plane(level, z, &mut planes, &mut |i, pred, slot| {
                commit(z * plane + i, pred, slot)
            });
        }
    }

    /// Predicts the step's targets on plane `z`, which must lie on the
    /// step's z lattice, and passes each to `commit(index in the plane,
    /// prediction, slot)` in raster order, `slot` being the target's entry
    /// of `planes.own`. Row by row, up to [`BATCH`] targets are predicted
    /// before the first of them is committed.
    pub(crate) fn sweep_plane(
        &self,
        level: &Level,
        z: usize,
        planes: &mut Planes<'_>,
        commit: &mut impl FnMut(usize, f32, &mut f32),
    ) {
        let Level {
            dims,
            s,
            spline,
            span,
        } = *level;
        let (x0, xs) = self.x;
        if x0 >= dims.nx() {
            return;
        }
        let targets = (dims.nx() - x0).div_ceil(xs);
        // An axis contributes when the step interpolates along it and the
        // field has more than one point along it.
        let along = |axis: usize| self.interp_axes.contains(&axis) && dims.extent(axis) > 1;
        let stencil = |axis: usize, c: usize| {
            if along(axis) {
                Stencil::classify(c, s, tile(c, span[axis], dims.extent(axis)), spline)
            } else {
                Stencil::None
            }
        };
        let along_x = along(2);
        let z_stencil = stencil(0, z);
        let mut batch = [0.0f32; BATCH];
        for y in (self.y.0..dims.ny()).step_by(self.y.1) {
            let row = Row {
                first: y * dims.nx() + x0,
                x: self.x,
                z: z_stencil,
                y: (stencil(1, y), s * dims.nx()),
                along_x,
            };
            for k0 in (0..targets).step_by(BATCH) {
                let preds = &mut batch[..BATCH.min(targets - k0)];
                row.predict(level, planes, k0, preds);
                let first = row.first + k0 * xs;
                for (k, &pred) in preds.iter().enumerate() {
                    let idx = first + k * xs;
                    commit(idx, pred, &mut planes.own[idx]);
                }
            }
        }
    }
}

/// The value planes one z-plane's targets touch: their own plane, which
/// the sweep commits into, and the planes at z − 3s, z − s, z + s and
/// z + 3s, which it only reads (empty where the field has none).
pub(crate) struct Planes<'a> {
    /// The target plane.
    pub own: &'a mut [f32],
    /// The planes at z − 3s, z − s, z + s and z + 3s.
    pub z: [&'a [f32]; 4],
}

impl<'a> Planes<'a> {
    /// The view of plane `z` whose neighbour planes `plane(z')` returns
    /// (`None` where there is none).
    pub(crate) fn new(
        own: &'a mut [f32],
        z: usize,
        s: usize,
        plane: impl Fn(usize) -> Option<&'a [f32]>,
    ) -> Self {
        let at = |zz: Option<usize>| zz.and_then(&plane).unwrap_or(&[]);
        Planes {
            own,
            z: [
                at(z.checked_sub(3 * s)),
                at(z.checked_sub(s)),
                at(Some(z + s)),
                at(Some(z + 3 * s)),
            ],
        }
    }

    /// The view of plane `z` of `recon`, whose planes are `len` values
    /// long, split off with `split_at_mut`.
    pub(crate) fn split(recon: &'a mut [f32], len: usize, z: usize, s: usize) -> Self {
        let (below, rest) = recon.split_at_mut(z * len);
        let (own, above) = rest.split_at_mut(len);
        let (below, above): (&'a [f32], &'a [f32]) = (below, above);
        Planes::new(own, z, s, |zz| {
            if zz < z {
                below.get(zz * len..(zz + 1) * len)
            } else {
                above.get((zz - z - 1) * len..(zz - z) * len)
            }
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
pub(crate) fn steps(s: usize, scheme: Scheme) -> impl Iterator<Item = Step> + Clone {
    let unit: &'static [Step] = match scheme {
        Scheme::DimSequence => &DIM_SEQUENCE,
        Scheme::MultiDim => &MULTI_DIM,
    };
    unit.iter().map(move |step| step.scaled(s))
}

/// The bounds `(lo, hi)`, both inclusive, of the tile holding coordinate
/// `c` on an axis of the given extent: tiles start at multiples of `span`
/// and include the first point of the next tile.
fn tile(c: usize, span: usize, extent: usize) -> (usize, usize) {
    let lo = c / span * span;
    (lo, (lo + span).min(extent - 1))
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

/// The neighbours one axis of a prediction reads, at ±s and ±3s from the
/// target along that axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stencil {
    /// The axis does not contribute: the step does not interpolate along
    /// it, or neither neighbour at ±s is in the tile.
    None,
    /// A copy of the neighbour at −s.
    Below,
    /// A copy of the neighbour at +s.
    Above,
    /// The linear interpolation of the neighbours at ±s.
    Linear,
    /// The cubic interpolation of the neighbours at ±s and ±3s.
    Cubic,
}

impl Stencil {
    /// The stencil of a target at coordinate `c` whose tile spans
    /// `lo..=hi` on this axis.
    fn classify(c: usize, s: usize, (lo, hi): (usize, usize), spline: Spline) -> Self {
        match (c >= lo + s, c + s <= hi) {
            (true, true) if spline == Spline::Cubic && c >= lo + 3 * s && c + 3 * s <= hi => {
                Stencil::Cubic
            }
            (true, true) => Stencil::Linear,
            (true, false) => Stencil::Below,
            (false, true) => Stencil::Above,
            (false, false) => Stencil::None,
        }
    }

    fn order(self) -> Order {
        match self {
            Stencil::None => Order::None,
            Stencil::Below | Stencil::Above => Order::Copy,
            Stencil::Linear => Order::Linear,
            Stencil::Cubic => Order::Cubic,
        }
    }
}

/// One row of a step: the targets at a fixed `(z, y)`, whose z and y
/// stencils are classified once.
#[derive(Debug, Clone, Copy)]
struct Row {
    /// Index of the row's first target in its plane.
    first: usize,
    /// `(start, stride)` of the targets along x.
    x: (usize, usize),
    /// The z stencil, which reads the neighbour planes.
    z: Stencil,
    /// The y stencil, with the index distance of the neighbour at `s`.
    y: (Stencil, usize),
    /// Whether the prediction interpolates along x.
    along_x: bool,
}

impl Row {
    /// Predicts the row's targets `k0, k0 + 1, …` into `out` (at most
    /// [`BATCH`] of them), one run of equal x stencils at a time.
    fn predict(&self, level: &Level, planes: &Planes<'_>, k0: usize, out: &mut [f32]) {
        let (x0, xs) = self.x;
        let first = self.first + k0 * xs;
        let (z, y) = (self.z, self.y);
        if !self.along_x {
            return Blend::new(z, [y, (Stencil::None, 0)]).predict(planes, first, xs, out);
        }
        // Classify x target by target, stepping the tile along instead of
        // dividing for every target.
        let (span, nx) = (level.span[2], level.dims.nx());
        let mut stencils = [Stencil::None; BATCH];
        let mut x = x0 + k0 * xs;
        let (mut lo, mut hi) = tile(x, span, nx);
        for stencil in &mut stencils[..out.len()] {
            if x >= lo + span {
                (lo, hi) = tile(x, span, nx);
            }
            *stencil = Stencil::classify(x, level.s, (lo, hi), level.spline);
            x += xs;
        }
        let mut k = 0;
        for run in stencils[..out.len()].chunk_by(|a, b| a == b) {
            let end = k + run.len();
            Blend::new(z, [y, (run[0], level.s)]).predict(
                planes,
                first + k * xs,
                xs,
                &mut out[k..end],
            );
            k = end;
        }
    }
}

/// The per-axis predictions a target averages: those of the highest order
/// available, in z, y, x order (§5.1.2: a cubic prediction is never diluted
/// by a linear one).
#[derive(Debug, Clone, Copy)]
struct Blend {
    order: Order,
    /// The z stencil when the z axis is averaged, else [`Stencil::None`].
    z: Stencil,
    /// Index distance in the plane from the target to each averaged y or x
    /// neighbour at +s, negated for [`Stencil::Below`].
    terms: [isize; 2],
    /// How many entries of `terms` are used.
    n: usize,
}

impl Blend {
    /// The blend of the z stencil and the `(stencil, index distance)` of
    /// the y and x axes.
    fn new(z: Stencil, yx: [(Stencil, usize); 2]) -> Self {
        let order = yx
            .iter()
            .map(|&(stencil, _)| stencil.order())
            .fold(z.order(), Ord::max);
        let mut blend = Blend {
            order,
            z: Stencil::None,
            terms: [0; 2],
            n: 0,
        };
        if order == Order::None {
            return blend;
        }
        if z.order() == order {
            blend.z = z;
        }
        for (stencil, d) in yx {
            if stencil.order() == order {
                let d = d as isize;
                blend.terms[blend.n] = if stencil == Stencil::Below { -d } else { d };
                blend.n += 1;
            }
        }
        blend
    }

    /// Predicts the targets `first, first + step, …` of the plane into
    /// `out`.
    fn predict(&self, planes: &Planes<'_>, first: usize, step: usize, out: &mut [f32]) {
        let terms = &self.terms[..self.n];
        let (r, [z3, z1, z_1, z_3]) = (&*planes.own, planes.z);
        let along_z = self.z != Stencil::None;
        match self.order {
            Order::None => out.fill(0.0),
            Order::Copy => {
                let near = if self.z == Stencil::Below { z1 } else { z_1 };
                let z = along_z.then_some(|i: usize| near[i]);
                average(out, first, step, z, terms, |i, d| {
                    r[i.wrapping_add_signed(d)]
                })
            }
            Order::Linear => {
                let z = along_z.then_some(|i: usize| (z1[i] + z_1[i]) * 0.5);
                average(out, first, step, z, terms, |i, d| {
                    let d = d.unsigned_abs();
                    (r[i - d] + r[i + d]) * 0.5
                })
            }
            Order::Cubic => {
                let z = along_z
                    .then_some(|i: usize| (-z3[i] + 9.0 * z1[i] + 9.0 * z_1[i] - z_3[i]) / 16.0);
                average(out, first, step, z, terms, |i, d| {
                    let d = d.unsigned_abs();
                    (-r[i - 3 * d] + 9.0 * r[i - d] + 9.0 * r[i + d] - r[i + 3 * d]) / 16.0
                })
            }
        }
    }
}

/// Writes, for every target `i = first + k·step`, the mean of the z term
/// `z(i)`, when the z axis is averaged, and of `term(i, d)` over `terms`
/// into `out[k]`, summed in that order from `0.0`.
#[inline(always)]
fn average(
    out: &mut [f32],
    first: usize,
    step: usize,
    z: Option<impl Fn(usize) -> f32>,
    terms: &[isize],
    term: impl Fn(usize, isize) -> f32,
) {
    let count = (terms.len() + usize::from(z.is_some())) as f32;
    let in_plane = |sum: f32, i: usize| terms.iter().fold(sum, |sum, &d| sum + term(i, d));
    match z {
        Some(z) => mean(out, first, step, count, |i| in_plane(0.0 + z(i), i)),
        None => mean(out, first, step, count, |i| in_plane(0.0, i)),
    }
}

/// Writes `sum(first + k·step) / count` into every `out[k]`.
#[inline(always)]
fn mean(out: &mut [f32], first: usize, step: usize, count: f32, sum: impl Fn(usize) -> f32) {
    for (k, pred) in out.iter_mut().enumerate() {
        *pred = sum(first + k * step) / count;
    }
}

/// Predicts the value at `coord` by interpolating along a single axis with
/// stride `s`, confined to the block tile and the domain.
#[cfg(test)]
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
/// (§5.1.2: a cubic prediction is never diluted by a linear one). The
/// per-point reference of the row kernel.
#[cfg(test)]
pub(crate) fn predict_point(
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

/// The per-point reference of [`Step::sweep`]: predicts each target with
/// [`predict_point`] and commits it before predicting the next.
#[cfg(test)]
pub(crate) fn sweep_reference(
    step: &Step,
    level: &Level,
    recon: &mut [f32],
    commit: &mut impl FnMut(usize, f32, &mut f32),
) {
    let dims = level.dims;
    for (z, y, x) in step.targets(dims) {
        let pred = predict_point(
            recon,
            dims,
            (z, y, x),
            step.interp_axes,
            level.s,
            level.spline,
            level.span,
        );
        let idx = dims.index(z, y, x);
        commit(idx, pred, &mut recon[idx]);
    }
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
        // The invariant that licenses the row kernel (predict a batch of a
        // step's targets, then commit them): every neighbour a prediction
        // can read — ±s and ±3s along each interpolation axis — was
        // produced by the anchors or an earlier step, so no commit of this
        // step can change another prediction of it. Checked against the
        // whole domain, which covers every block span (a tile only removes
        // neighbours).
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
