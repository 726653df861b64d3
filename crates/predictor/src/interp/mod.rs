//! Spline-interpolation-based lossy decomposition.
//!
//! This module implements the data predictor at the heart of cuSZ-I and
//! cuSZ-Hi (§3.2, §5.1). The field is predicted hierarchically from a sparse,
//! losslessly stored anchor grid: at each level `ℓ` (stride `s = 2^(ℓ-1)`),
//! points on the `s`-grid that are not on the `2s`-grid are predicted by
//! spline interpolation from already-reconstructed points, the prediction
//! error is quantized to a one-byte code, and the reconstructed value is fed
//! into the next (finer) level.
//!
//! Two interpolation *schemes* are supported (§5.1.2): the dimension-sequence
//! scheme of cuSZ-I (1D interpolation along x, then y, then z at every level)
//! and the multi-dimensional scheme of cuSZ-Hi (edge centres by 1D, face
//! centres by averaged 2D, body centres by averaged 3D interpolation, using
//! only the predictions of the highest available spline order). Two *splines*
//! are supported: linear and cubic.
//!
//! The per-thread-block tiling of the GPU implementation appears here as the
//! *block confinement span*: predictions may only use neighbours inside the
//! same tile, which reproduces the block-boundary behaviour (and therefore
//! the compression-ratio differences) of the 33×9×9 cuSZ-I partition versus
//! the 17³ cuSZ-Hi partition studied in the paper's ablation (Table 5).
//!
//! Both directions are one sweep over level → phase → z-plane → step →
//! row, driven by one row kernel (`kernel.rs`): classify the row's
//! neighbour availability once, predict a batch of its targets into a
//! stack buffer, then commit them in raster order — quantize (or
//! dequantize) each and store its reconstruction. Compression runs in the
//! value plane itself: a commit quantizes the original value in its slot
//! and overwrites it with the reconstruction.
//!
//! A level runs in two phases over the z-planes of its stride `s`, as the
//! paper predicts all targets of a level step at once (§5.1): phase A
//! holds the steps whose targets lie on the planes at even multiples of
//! `s` (multi-dimensional edge-x, edge-y and face-yx; dimension-sequence
//! x and y), phase B the steps on the planes at odd multiples (edge-z,
//! face-zx, face-zy and body; dimension-sequence z). A phase-A target
//! reads only its own plane. A phase-B target reads its own plane and the
//! planes at ±s and ±3s, which are even multiples that phase A has
//! finished and phase B never writes. So within a phase the planes are
//! independent, and the commit order is per plane: every step of the
//! phase on one plane, then the next plane. Every prediction still sees
//! exactly the values the serial step order gives it. A large phase
//! spreads its planes over the worker pool when the caller is not already
//! running a pool part (`FAN_OUT_TARGETS`); callers that hold several
//! chunks split the field into chunks and run one sweep per chunk, which is
//! how the paper parallelises across thread blocks (§5.1.1).

mod kernel;

pub(crate) use kernel::steps;
pub(crate) use kernel::Level;
use kernel::Planes;

use crate::error::PredictorError;
use crate::quantize::{Outlier, Quantizer, OUTLIER_CODE, ZERO_CODE};
use rayon::prelude::*;
use std::sync::{Mutex, PoisonError};
use szhi_ndgrid::{BlockGrid, Dims, Grid};

/// The targets a phase must have before its planes are spread over the
/// worker pool. A 64³ chunk's stride-1 level has 98,304 in phase A and
/// 131,072 in phase B, seven eighths of the chunk between them, and each
/// phase takes a few milliseconds, far more than a pool dispatch; a 32³
/// chunk's phases (12,288 and 16,384 targets) stay on the calling thread.
const FAN_OUT_TARGETS: usize = 65_536;

/// Whether a phase of `targets` targets on `planes` z-planes spreads its
/// planes over the pool: it is large, the pool has more than one thread,
/// and the caller is not already running a pool part.
fn fans_out(planes: usize, targets: usize) -> bool {
    planes > 1
        && targets >= FAN_OUT_TARGETS
        && rayon::current_num_threads() > 1
        && rayon::current_thread_index().is_none()
}

/// Interpolation spline order (§5.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Spline {
    /// Two-point linear interpolation.
    Linear,
    /// Four-point cubic interpolation (falls back to linear near block and
    /// domain boundaries).
    Cubic,
}

/// Interpolation scheme (§5.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// cuSZ-I style: one-dimensional interpolation along each axis in
    /// sequence (x, then y, then z).
    DimSequence,
    /// cuSZ-Hi style: isotropic multi-dimensional interpolation
    /// (1D → 2D → 3D within each level), averaging the highest-order
    /// predictions.
    MultiDim,
}

/// Per-level interpolation configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelConfig {
    /// Which scheme to use at this level.
    pub scheme: Scheme,
    /// Which spline to use at this level.
    pub spline: Spline,
}

/// Full configuration of the interpolation predictor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterpConfig {
    /// Stride of the losslessly stored anchor grid (16 for cuSZ-Hi, 8 for
    /// cuSZ-I). Must be a power of two.
    pub anchor_stride: usize,
    /// Block confinement span per axis `(z, y, x)`: interpolation neighbours
    /// must lie in the same span-aligned tile as the target.
    pub block_span: [usize; 3],
    /// Per-level configuration, indexed by `level − 1` (level 1 has stride 1).
    pub levels: Vec<LevelConfig>,
}

impl InterpConfig {
    /// The cuSZ-Hi configuration: anchor stride 16, isotropic 17³ tiles, four
    /// levels of multi-dimensional cubic interpolation (§5.1.1).
    pub fn cusz_hi() -> Self {
        InterpConfig {
            anchor_stride: 16,
            block_span: [16, 16, 16],
            levels: vec![
                LevelConfig {
                    scheme: Scheme::MultiDim,
                    spline: Spline::Cubic
                };
                4
            ],
        }
    }

    /// The cuSZ-I configuration: anchor stride 8, anisotropic 33×9×9 tiles,
    /// three levels of dimension-sequence cubic interpolation (§3.2).
    pub fn cusz_i() -> Self {
        InterpConfig {
            anchor_stride: 8,
            block_span: [8, 8, 32],
            levels: vec![
                LevelConfig {
                    scheme: Scheme::DimSequence,
                    spline: Spline::Cubic
                };
                3
            ],
        }
    }

    /// An intermediate configuration used by the ablation study (Table 5):
    /// cuSZ-Hi's partition and anchor stride, but cuSZ-I's dimension-sequence
    /// interpolation.
    pub fn cusz_hi_partition_only() -> Self {
        InterpConfig {
            anchor_stride: 16,
            block_span: [16, 16, 16],
            levels: vec![
                LevelConfig {
                    scheme: Scheme::DimSequence,
                    spline: Spline::Cubic
                };
                4
            ],
        }
    }

    /// Number of interpolation levels (`log2(anchor_stride)`).
    pub(crate) fn num_levels(&self) -> usize {
        self.anchor_stride.trailing_zeros() as usize
    }

    /// Validates the configuration's structural invariants.
    pub fn validate(&self) -> Result<(), PredictorError> {
        if !(self.anchor_stride.is_power_of_two() && self.anchor_stride >= 2) {
            return Err(PredictorError::InvalidConfig(format!(
                "anchor stride {} is not a power of two ≥ 2",
                self.anchor_stride
            )));
        }
        if self.levels.len() != self.num_levels() {
            return Err(PredictorError::InvalidConfig(format!(
                "expected {} level configs for anchor stride {}, got {}",
                self.num_levels(),
                self.anchor_stride,
                self.levels.len()
            )));
        }
        if self.block_span.iter().any(|&s| s < self.anchor_stride) {
            return Err(PredictorError::InvalidConfig(format!(
                "block span {:?} smaller than anchor stride {}",
                self.block_span, self.anchor_stride
            )));
        }
        Ok(())
    }
}

/// Output of the interpolation lossy decomposition.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InterpOutput {
    /// Losslessly stored anchor values, in row-major anchor-lattice order.
    pub anchors: Vec<f32>,
    /// One quantization code per point (same layout as the field); anchors
    /// carry `ZERO_CODE`, outliers carry `OUTLIER_CODE`.
    pub codes: Vec<u8>,
    /// Points whose prediction error exceeded the one-byte code range,
    /// stored exactly, ordered by index.
    pub outliers: Vec<Outlier>,
}

impl InterpOutput {
    /// Fraction of points stored as outliers.
    #[cfg(test)]
    fn outlier_fraction(&self) -> f64 {
        if self.codes.is_empty() {
            0.0
        } else {
            self.outliers.len() as f64 / self.codes.len() as f64
        }
    }
}

/// Reusable working buffer for [`InterpPredictor::compress_into`]: the
/// value plane the borrowed field is copied into and compressed in place,
/// so repeated compressions of same-shaped fields reuse one allocation
/// instead of growing the heap per call.
#[derive(Debug, Default)]
pub struct CompressScratch {
    plane: Vec<f32>,
}

/// The code array a sweep hands out beside the value planes, one z-plane
/// at a time: written by a compression, read by a reconstruction.
trait CodePlanes {
    /// What a commit gets of its plane's codes, behind a `&mut`.
    type Plane: ?Sized;
    /// One plane of codes as the sweep holds it.
    type Item<'b>: Send
    where
        Self: 'b;
    /// The planes of `len` codes each, in z order.
    fn planes(&mut self, len: usize) -> impl Iterator<Item = Self::Item<'_>>;
    /// The commit's view of a plane.
    fn plane<'a, 'b>(item: &'a mut Self::Item<'b>) -> &'a mut Self::Plane
    where
        Self: 'b;
}

impl CodePlanes for &mut [u8] {
    type Plane = [u8];
    type Item<'b>
        = &'b mut [u8]
    where
        Self: 'b;
    fn planes(&mut self, len: usize) -> impl Iterator<Item = &mut [u8]> {
        self.chunks_mut(len)
    }
    fn plane<'a, 'b>(item: &'a mut &'b mut [u8]) -> &'a mut [u8]
    where
        Self: 'b,
    {
        item
    }
}

impl<'c> CodePlanes for &'c [u8] {
    type Plane = &'c [u8];
    type Item<'b>
        = &'c [u8]
    where
        Self: 'b;
    fn planes(&mut self, len: usize) -> impl Iterator<Item = &'c [u8]> {
        self.chunks(len)
    }
    fn plane<'a, 'b>(item: &'a mut &'c [u8]) -> &'a mut &'c [u8]
    where
        Self: 'b,
    {
        item
    }
}

/// The interpolation predictor.
#[derive(Debug, Clone)]
pub struct InterpPredictor {
    cfg: InterpConfig,
}

impl InterpPredictor {
    /// Creates a predictor with the given configuration, rejecting
    /// structurally invalid configurations with a typed error.
    pub fn new(cfg: InterpConfig) -> Result<Self, PredictorError> {
        cfg.validate()?;
        Ok(InterpPredictor { cfg })
    }

    /// Runs the lossy decomposition of `data` under the absolute error bound
    /// `eb`, returning anchors, quantization codes and outliers.
    pub fn compress(&self, data: &Grid<f32>, eb: f64) -> InterpOutput {
        let mut scratch = CompressScratch::default();
        let mut out = InterpOutput::default();
        self.compress_into(data, eb, &mut scratch, &mut out);
        out
    }

    /// Like [`compress`](InterpPredictor::compress), but reuses the caller's
    /// buffers: `data` is copied into the value plane in `scratch` and
    /// compressed there by [`compress_in_place`](InterpPredictor::compress_in_place),
    /// and the output vectors in `out` are cleared and refilled in place,
    /// so a caller encoding a stream of same-shaped chunks performs no
    /// steady-state heap growth in the predictor stage.
    pub fn compress_into(
        &self,
        data: &Grid<f32>,
        eb: f64,
        scratch: &mut CompressScratch,
        out: &mut InterpOutput,
    ) {
        scratch.plane.clear();
        scratch.plane.extend_from_slice(data.as_slice());
        let mut values = Grid::from_vec(data.dims(), std::mem::take(&mut scratch.plane));
        self.compress_in_place(&mut values, eb, out);
        scratch.plane = values.into_vec();
    }

    /// The one compression sweep: decomposes `values` under the absolute
    /// error bound `eb` into `out` (its vectors cleared and refilled in
    /// place), overwriting each value with its reconstruction as the sweep
    /// commits it. Anchors are read from the plane and keep their values.
    /// A commit reads its point's original value from its own slot before
    /// it overwrites it, and every prediction reads only points committed
    /// before its step (the `Step` contract), so the input needs no
    /// second plane. On return `values` holds the field a decompression
    /// of `out` reconstructs.
    pub fn compress_in_place(&self, values: &mut Grid<f32>, eb: f64, out: &mut InterpOutput) {
        let dims = values.dims();
        let quantizer = Quantizer::new(eb);
        let block_grid = BlockGrid::new(dims, self.cfg.anchor_stride);
        let plane = values.as_mut_slice();

        let codes = &mut out.codes;
        codes.clear();
        codes.resize(dims.len(), ZERO_CODE);

        // Anchors are stored losslessly and seed the reconstruction as they
        // stand in the plane.
        let anchors = &mut out.anchors;
        anchors.clear();
        // szhi-analyzer: allow(steady-alloc) -- reserve on the caller-reused output buffer is a no-op once its capacity is retained after the first chunk; runtime-verified by tests/steady_state_alloc.rs
        anchors.reserve(block_grid.anchor_count());
        anchors.extend(
            block_grid
                .anchor_coords_iter()
                .map(|(z, y, x)| plane[dims.index(z, y, x)]),
        );

        self.sweep(dims, plane, codes.as_mut_slice(), |i, pred, slot, codes| {
            let (code, value) = quantizer.quantize(*slot, pred);
            codes[i] = code;
            *slot = value;
        });

        // An outlier's slot keeps its exact value, and no later commit
        // touches it, so the records are read off the finished planes in
        // index order.
        let outliers = &mut out.outliers;
        outliers.clear();
        const BLOCK: usize = 64;
        for (b, block) in codes.chunks(BLOCK).enumerate() {
            if block.contains(&OUTLIER_CODE) {
                let first = b * BLOCK;
                let at = (block.iter().enumerate()).filter(|&(_, &c)| c == OUTLIER_CODE);
                outliers.extend(at.map(|(k, _)| Outlier {
                    index: (first + k) as u64,
                    value: plane[first + k],
                }));
            }
        }
    }

    /// Reconstructs the field from an [`InterpOutput`] under the same
    /// configuration and error bound used for compression.
    ///
    /// The output is untrusted (it usually comes from a parsed stream):
    /// a code array that does not match the field shape, a wrong anchor
    /// count, or outlier records that do not pair one to one with the
    /// outlier codes all surface as [`PredictorError::Inconsistent`].
    pub fn decompress(
        &self,
        dims: Dims,
        eb: f64,
        output: &InterpOutput,
    ) -> Result<Grid<f32>, PredictorError> {
        let mut recon = Vec::new();
        self.decompress_into(dims, eb, output, &mut recon)?;
        Ok(Grid::from_vec(dims, recon))
    }

    /// Like [`decompress`](InterpPredictor::decompress), but reconstructs
    /// into the caller's buffer: `recon` is cleared and refilled with the
    /// `dims.len()` values in raster order, so a caller decoding a stream of
    /// chunks reuses one reconstruction plane instead of allocating one per
    /// chunk. Nothing of the buffer's previous contents survives; on an
    /// error its contents are unspecified.
    pub fn decompress_into(
        &self,
        dims: Dims,
        eb: f64,
        output: &InterpOutput,
        recon: &mut Vec<f32>,
    ) -> Result<(), PredictorError> {
        if output.codes.len() != dims.len() {
            return Err(PredictorError::Inconsistent(format!(
                "{} quantization codes for a {dims} field of {} points",
                output.codes.len(),
                dims.len()
            )));
        }
        let quantizer = Quantizer::new(eb);
        let block_grid = BlockGrid::new(dims, self.cfg.anchor_stride);

        let anchor_count = block_grid.anchor_count();
        if anchor_count != output.anchors.len() {
            return Err(PredictorError::Inconsistent(format!(
                "{} anchors supplied, the {dims} field needs {anchor_count}",
                output.anchors.len()
            )));
        }

        // Outliers are scattered into place before the sweep, whose
        // OUTLIER_CODE commit then keeps the stored value. That is exact
        // because no prediction reads a target before its own step commits
        // it. Strictly increasing indices, each at an OUTLIER_CODE, as many
        // records as OUTLIER_CODEs: together a one-to-one pairing of
        // records and outlier codes, anchors included.
        crate::zeroed(recon, dims.len());
        let mut prev = None;
        for o in &output.outliers {
            let idx = usize::try_from(o.index).ok().filter(|&i| i < dims.len());
            match idx {
                // `None < Some(_)`, so the first record is always in order.
                // szhi-analyzer: allow(panic-reachability) -- `i < dims.len()`, the length of `recon` and, checked above, of `codes`
                Some(i) if prev < Some(o.index) && output.codes[i] == OUTLIER_CODE => {
                    recon[i] = o.value; // szhi-analyzer: allow(panic-reachability) -- the same `i`
                }
                _ => {
                    return Err(PredictorError::Inconsistent(format!(
                        "the outlier record of point {} is out of order, outside the {dims} \
                         field, or at a point not coded as an outlier",
                        o.index
                    )))
                }
            }
            prev = Some(o.index);
        }
        let outlier_codes = output.codes.iter().filter(|&&c| c == OUTLIER_CODE).count();
        if outlier_codes != output.outliers.len() {
            return Err(PredictorError::Inconsistent(format!(
                "{outlier_codes} points are coded as outliers but {} outlier records are stored",
                output.outliers.len()
            )));
        }

        for ((z, y, x), &v) in block_grid.anchor_coords_iter().zip(&output.anchors) {
            // szhi-analyzer: allow(panic-reachability) -- anchor coordinates lie inside `dims`, and `recon` holds `dims.len()` points
            recon[dims.index(z, y, x)] = v;
        }

        // szhi-analyzer: allow(panic-reachability) -- the checks above make `recon`, `codes` and the sweep's index space all `dims.len()` long; the row kernel is pinned to its reference by differential tests
        self.sweep(
            dims,
            recon,
            output.codes.as_slice(),
            |i, pred, slot, codes| {
                // szhi-analyzer: allow(panic-reachability) -- `i` indexes the target's plane, and the code plane is as long as the value plane
                if codes[i] != OUTLIER_CODE {
                    *slot = quantizer.reconstruct(codes[i], pred); // szhi-analyzer: allow(panic-reachability) -- the same `i`
                }
            },
        );
        Ok(())
    }

    /// The one traversal behind both directions: level by level, phase A
    /// and then phase B (see the module docs), each phase plane by plane,
    /// each plane step by step through the row kernel, which predicts a
    /// batch of a row's targets from the plane and its neighbours. Then
    /// `commit(index in the plane, prediction, slot, codes)` stores each
    /// point's reconstructed value in its `recon` slot (quantizing the
    /// original value the slot holds on the way in, dequantizing on the way
    /// out, or keeping the outlier value scattered there beforehand), in
    /// raster order within the plane; `codes` is the plane's part of the
    /// code array. Predicting ahead of the commits is exact because a
    /// step's targets read only points known before the step (the [`Step`]
    /// contract), so no commit can change another prediction of the same
    /// step.
    ///
    /// A phase runs its planes on the calling thread, with views split off
    /// by `split_at_mut`, unless it has at least [`FAN_OUT_TARGETS`] targets
    /// on two or more planes, the pool has more than one thread, and the
    /// caller is not itself running a pool part (a chunk of a parallel
    /// drive). Then each plane is one pool part behind a lock of its own,
    /// the pool's threads claim the planes in turn, and the planes they
    /// read are shared. Either way every commit sees the same values, so the
    /// output does not depend on the thread count.
    fn sweep<C: CodePlanes>(
        &self,
        dims: Dims,
        recon: &mut [f32],
        mut codes: C,
        commit: impl Fn(usize, f32, &mut f32, &mut C::Plane) + Sync,
    ) {
        let len = dims.ny() * dims.nx();
        for (level, scheme) in self.levels(dims) {
            let s = level.s;
            for z0 in [0, s] {
                let phase = steps(s, scheme).filter(move |step| step.z.0 == z0);
                let planes = dims.nz().saturating_sub(z0).div_ceil(2 * s);
                let targets: usize = phase.clone().map(|step| step.count(dims)).sum();
                let fan_out = fans_out(planes, targets);
                let run = |z: usize, view: &mut Planes<'_>, codes: &mut C::Plane| {
                    for step in phase.clone() {
                        step.sweep_plane(&level, z, view, &mut |i, pred, slot| {
                            commit(i, pred, slot, codes)
                        });
                    }
                };
                if !fan_out {
                    let code_planes = codes.planes(len).enumerate().skip(z0).step_by(2 * s);
                    for (z, mut code_plane) in code_planes {
                        let codes = C::plane(&mut code_plane);
                        run(z, &mut Planes::split(recon, len, z, s), codes);
                    }
                    continue;
                }
                // szhi-analyzer: allow(steady-alloc) -- one entry per z-plane, only when a large phase fans out: never at one thread or inside a pool part
                let mut shared: Vec<&[f32]> = Vec::with_capacity(dims.nz());
                // szhi-analyzer: allow(steady-alloc) -- one lock per target plane, under the same condition
                let mut tasks = Vec::with_capacity(planes);
                let all = recon.chunks_mut(len).zip(codes.planes(len)).enumerate();
                for (z, (values, code_plane)) in all {
                    if z >= z0 && (z - z0) % (2 * s) == 0 {
                        shared.push(&[]);
                        tasks.push(Mutex::new((z, values, code_plane)));
                    } else {
                        shared.push(values);
                    }
                }
                // One plane per part: a thread that starts late, or is
                // descheduled, leaves its planes to the others. Each lock is
                // taken once, by the thread that claimed its plane; a panic
                // there is rethrown by the pool.
                tasks.par_iter().with_max_len(1).for_each(|task| {
                    let mut task = task.lock().unwrap_or_else(PoisonError::into_inner);
                    let (z, own, code_plane) = &mut *task;
                    let mut view = Planes::new(own, *z, s, |zz| shared.get(zz).copied());
                    run(*z, &mut view, C::plane(code_plane));
                });
            }
        }
    }

    /// The levels from the coarsest to stride 1, each with its scheme.
    fn levels(&self, dims: Dims) -> impl Iterator<Item = (Level, Scheme)> + '_ {
        (1..=self.cfg.num_levels()).rev().map(move |level| {
            let lc = self.cfg.levels[level - 1];
            let geometry = Level {
                dims,
                s: 1 << (level - 1),
                spline: lc.spline,
                span: self.cfg.block_span,
            };
            (geometry, lc.scheme)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::kernel::Step;
    use super::*;
    use szhi_ndgrid::Dims;

    fn smooth_field(dims: Dims) -> Grid<f32> {
        Grid::from_fn(dims, |z, y, x| {
            let (fz, fy, fx) = (z as f32 * 0.045, y as f32 * 0.06, x as f32 * 0.03);
            10.0 * ((fx).sin() + (fy).cos() + (fz + fx * 0.5).sin())
        })
    }

    fn check_bound(orig: &Grid<f32>, recon: &Grid<f32>, eb: f64) {
        for (i, (a, b)) in orig.as_slice().iter().zip(recon.as_slice()).enumerate() {
            assert!(
                ((*a as f64) - (*b as f64)).abs() <= eb + 1e-12,
                "bound violated at {i}: {a} vs {b} (eb {eb})"
            );
        }
    }

    /// Runs a compression sweep, with `step_sweep` driving each step, and
    /// returns every `(index, prediction bits)` pair `commit` receives.
    fn commits(
        p: &InterpPredictor,
        data: &Grid<f32>,
        step_sweep: impl Fn(&Step, &Level, &mut [f32], &mut dyn FnMut(usize, f32, &mut f32)),
    ) -> Vec<(usize, u32)> {
        let quantizer = Quantizer::new(1e-3);
        let mut recon = data.as_slice().to_vec();
        let mut seen = Vec::new();
        let mut commit = |idx: usize, pred: f32, slot: &mut f32| {
            seen.push((idx, pred.to_bits()));
            *slot = quantizer.quantize(data.as_slice()[idx], pred).1;
        };
        for (level, scheme) in p.levels(data.dims()) {
            for step in steps(level.s, scheme) {
                step_sweep(&step, &level, &mut recon, &mut commit);
            }
        }
        seen
    }

    /// The shapes of `reorder.rs` (ragged, exact, unit axes, 2-D, 1-D),
    /// and rows longer than one batch.
    fn shapes() -> [Dims; 11] {
        [
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
            Dims::d2(9, 333),
        ]
    }

    /// cuSZ-Hi's and cuSZ-I's partitions, and a span that is not a power of
    /// two, each with every rotation of the four (scheme, spline) pairs over
    /// its levels — the per-level configurations per-chunk tuning picks.
    fn predictors() -> Vec<InterpPredictor> {
        let partitions = [
            (16usize, [16, 16, 16]), // cuSZ-Hi
            (8, [8, 8, 32]),         // cuSZ-I
            (16, [16, 32, 24]),      // a span that is not a power of two
        ];
        let mut out = Vec::new();
        for (anchor_stride, block_span) in partitions {
            // Every level takes a different (scheme, spline) pair, and each
            // rotation moves them one level along.
            for rotation in 0..4 {
                let levels = (0..anchor_stride.trailing_zeros() as usize)
                    .map(|l| crate::autotune::candidates()[(l + rotation) % 4])
                    .collect();
                out.push(
                    InterpPredictor::new(InterpConfig {
                        anchor_stride,
                        block_span,
                        levels,
                    })
                    .unwrap(),
                );
            }
        }
        out
    }

    #[test]
    fn row_kernel_matches_the_per_point_reference() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(27);
        for dims in shapes() {
            let random = Grid::from_fn(dims, |_, _, _| rng.gen_range(-1.0f32..1.0));
            for data in [smooth_field(dims), random] {
                for p in predictors() {
                    let kernel = commits(&p, &data, |step, level, recon, commit| {
                        step.sweep(level, recon, &mut |i, pred, slot| commit(i, pred, slot))
                    });
                    let reference = commits(&p, &data, |step, level, recon, commit| {
                        kernel::sweep_reference(step, level, recon, &mut |i, pred, slot| {
                            commit(i, pred, slot)
                        })
                    });
                    assert!(
                        kernel == reference,
                        "{dims}, {:?}: the row kernel's commits differ from the reference",
                        &p.cfg
                    );
                }
            }
        }
    }

    /// The serial, borrowed compression the phased in-place sweep
    /// replaced, kept as its reference: level by level, step by step in
    /// order, each target predicted by the per-point reference
    /// ([`kernel::sweep_reference`]) from a zero-filled reconstruction plane
    /// of its own, the input untouched, and each outlier record pushed as
    /// the sweep meets it and sorted at the end. Returns the output and the
    /// reconstruction.
    fn compress_reference(
        p: &InterpPredictor,
        data: &Grid<f32>,
        eb: f64,
    ) -> (InterpOutput, Vec<f32>) {
        let dims = data.dims();
        let quantizer = Quantizer::new(eb);
        let block_grid = BlockGrid::new(dims, p.cfg.anchor_stride);
        let mut recon = vec![0.0f32; dims.len()];
        let mut out = InterpOutput {
            codes: vec![ZERO_CODE; dims.len()],
            ..InterpOutput::default()
        };
        for (z, y, x) in block_grid.anchor_coords_iter() {
            let idx = dims.index(z, y, x);
            out.anchors.push(data.as_slice()[idx]);
            recon[idx] = data.as_slice()[idx];
        }
        let (codes, outliers) = (&mut out.codes, &mut out.outliers);
        let mut commit = |idx: usize, pred: f32, slot: &mut f32| {
            let (code, value) = quantizer.quantize(data.as_slice()[idx], pred);
            codes[idx] = code;
            if code == OUTLIER_CODE {
                outliers.push(Outlier {
                    index: idx as u64,
                    value,
                });
            }
            *slot = value;
        };
        for (level, scheme) in p.levels(dims) {
            for step in steps(level.s, scheme) {
                kernel::sweep_reference(&step, &level, &mut recon, &mut commit);
            }
        }
        out.outliers.sort_by_key(|o| o.index);
        (out, recon)
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    fn outlier_bits(out: &InterpOutput) -> Vec<(u64, u32)> {
        (out.outliers.iter())
            .map(|o| (o.index, o.value.to_bits()))
            .collect()
    }

    #[test]
    fn in_place_compression_matches_the_borrowed_reference() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(44);
        let mut out = InterpOutput::default();
        for dims in shapes() {
            let smooth = smooth_field(dims);
            let random = Grid::from_fn(dims, |_, _, _| rng.gen_range(-1.0f32..1.0));
            // NaN, ±Inf and spikes among smooth values make outliers; values
            // near 3e7, where f32 steps are 2, fail the quantizer's f32
            // verify at any bound below 1.
            let special = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e4, 3.0e7];
            let non_finite = Grid::from_vec(
                dims,
                (smooth.as_slice().iter().enumerate())
                    .map(|(i, &v)| match i % 23 {
                        3 | 11 => special[(i / 23) % special.len()],
                        _ => v,
                    })
                    .collect(),
            );
            let huge = Grid::from_fn(dims, |z, y, x| 3.0e7 + (z * 7 + y * 3 + x) as f32);
            for data in [smooth, random, non_finite, huge] {
                for p in predictors() {
                    for eb in [1e-1, 1e-3] {
                        let (expect, recon) = compress_reference(&p, &data, eb);
                        let mut values = data.clone();
                        p.compress_in_place(&mut values, eb, &mut out);
                        let what = format!("{dims}, eb {eb}, {:?}", &p.cfg);
                        assert_eq!(out.codes, expect.codes, "{what}: codes");
                        assert_eq!(bits(&out.anchors), bits(&expect.anchors), "{what}");
                        assert_eq!(outlier_bits(&out), outlier_bits(&expect), "{what}");
                        assert_eq!(bits(values.as_slice()), bits(&recon), "{what}: plane");
                        // `compress_into` copies the field into the same sweep.
                        let into = p.compress(&data, eb);
                        assert_eq!(into.codes, expect.codes, "{what}: compress_into");
                        assert_eq!(outlier_bits(&into), outlier_bits(&expect), "{what}");
                    }
                }
            }
        }
    }

    /// Holds the process-wide thread-count override for a test and clears
    /// it on drop, also when the test fails.
    fn threads(n: usize) -> impl Drop {
        static OVERRIDE: std::sync::Mutex<()> = std::sync::Mutex::new(());
        struct Reset(Option<std::sync::MutexGuard<'static, ()>>);
        impl Drop for Reset {
            fn drop(&mut self) {
                rayon::set_num_threads(0);
                self.0.take();
            }
        }
        let guard = OVERRIDE.lock().unwrap_or_else(PoisonError::into_inner);
        rayon::set_num_threads(n);
        Reset(Some(guard))
    }

    /// Spikes every 97 points among smooth values: outlier records.
    fn spiky_field(dims: Dims) -> Grid<f32> {
        let g = smooth_field(dims);
        Grid::from_vec(
            dims,
            (g.as_slice().iter().enumerate())
                .map(|(i, &v)| if i % 97 == 5 { v + 1e4 } else { v })
                .collect(),
        )
    }

    #[test]
    fn phased_sweep_matches_the_per_point_reference_at_every_thread_count() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(45);
        // `shapes()` holds 44×64×64; a 64³ chunk fans out both phases of
        // its stride-1 level.
        let mut all = shapes().to_vec();
        all.push(Dims::d3(64, 64, 64));
        let fields: Vec<Grid<f32>> = (all.iter())
            .flat_map(|&dims| {
                let random = Grid::from_fn(dims, |_, _, _| rng.gen_range(-1.0f32..1.0));
                [spiky_field(dims), random]
            })
            .collect();
        let expected: Vec<Vec<(InterpOutput, Vec<f32>)>> = (fields.iter())
            .map(|data| {
                (predictors().iter())
                    .map(|p| compress_reference(p, data, 1e-3))
                    .collect()
            })
            .collect();
        let mut out = InterpOutput::default();
        let mut recon = Vec::new();
        for n in [1, 2, 4] {
            let _threads = threads(n);
            for (data, expected) in fields.iter().zip(&expected) {
                let dims = data.dims();
                for (p, (expect, plane)) in predictors().iter().zip(expected) {
                    let what = format!("{n} threads, {dims}, {:?}", &p.cfg);
                    let mut values = data.clone();
                    p.compress_in_place(&mut values, 1e-3, &mut out);
                    assert_eq!(out.codes, expect.codes, "{what}: codes");
                    assert_eq!(bits(&out.anchors), bits(&expect.anchors), "{what}");
                    assert_eq!(outlier_bits(&out), outlier_bits(expect), "{what}");
                    assert_eq!(bits(values.as_slice()), bits(plane), "{what}: plane");
                    p.decompress_into(dims, 1e-3, &out, &mut recon).unwrap();
                    assert_eq!(bits(&recon), bits(plane), "{what}: reconstruction");
                }
            }
        }
    }

    /// Whether any commit of a compression sweep of `dims` ran in a pool
    /// part: a sweep that fans out commits every plane of its large phases
    /// in one, whichever thread claims it.
    fn sweep_fans_out(p: &InterpPredictor, dims: Dims) -> bool {
        let in_part = std::sync::atomic::AtomicBool::new(false);
        let mut recon = smooth_field(dims).into_vec();
        let mut codes = vec![ZERO_CODE; dims.len()];
        p.sweep(dims, &mut recon, codes.as_mut_slice(), |_, _, _, _| {
            if rayon::current_thread_index().is_some() {
                in_part.store(true, std::sync::atomic::Ordering::Relaxed);
            }
        });
        in_part.into_inner()
    }

    #[test]
    fn only_large_phases_of_an_outer_drive_fan_out() {
        let p = InterpPredictor::new(InterpConfig::cusz_hi()).unwrap();
        let (large, ragged) = (Dims::d3(64, 64, 64), Dims::d3(44, 64, 64));
        // A 64³ chunk's stride-1 phases; 32³'s (and a 64³ chunk's stride-2
        // ones); the monolithic 48×40×36 field of
        // `one_level_of_parallelism.rs`, whose phase B has 34,560.
        let (a, b) = (98_304, 131_072);
        let small = [(16, 12_288), (16, 16_384), (24, 34_560)];
        {
            let _threads = threads(1);
            assert!(!sweep_fans_out(&p, large), "one thread configured");
            assert!(!fans_out(32, b));
        }
        let _threads = threads(2);
        assert!(sweep_fans_out(&p, large), "a 64³ chunk's level 1");
        assert!(sweep_fans_out(&p, ragged), "a ragged 44×64×64 chunk");
        assert!(fans_out(32, a) && fans_out(32, b) && fans_out(22, 67_584));
        assert!(!sweep_fans_out(&p, Dims::d3(32, 32, 32)), "32³");
        assert!(small
            .iter()
            .all(|&(planes, targets)| !fans_out(planes, targets)));
        assert!(!sweep_fans_out(&p, Dims::d2(1024, 1024)), "2-D");
        assert!(!fans_out(1, 1 << 20), "one plane");
        // Inside a pool part (a chunk of a parallel drive) nothing fans out.
        let nested: Vec<bool> = (0..2).into_par_iter().map(|_| fans_out(32, b)).collect();
        assert_eq!(nested, [false, false], "a sweep inside a pool part");
    }

    #[test]
    fn cusz_hi_roundtrip_3d() {
        let g = smooth_field(Dims::d3(40, 37, 50));
        for eb in [1e-1, 1e-2, 1e-3] {
            let p = InterpPredictor::new(InterpConfig::cusz_hi()).unwrap();
            let out = p.compress(&g, eb);
            let recon = p.decompress(g.dims(), eb, &out).unwrap();
            check_bound(&g, &recon, eb);
        }
    }

    #[test]
    fn cusz_i_roundtrip_3d() {
        let g = smooth_field(Dims::d3(33, 40, 41));
        let p = InterpPredictor::new(InterpConfig::cusz_i()).unwrap();
        let out = p.compress(&g, 1e-2);
        let recon = p.decompress(g.dims(), 1e-2, &out).unwrap();
        check_bound(&g, &recon, 1e-2);
    }

    #[test]
    fn roundtrip_2d_and_1d() {
        let g2 = smooth_field(Dims::d2(70, 85));
        let p = InterpPredictor::new(InterpConfig::cusz_hi()).unwrap();
        let out = p.compress(&g2, 1e-3);
        check_bound(&g2, &p.decompress(g2.dims(), 1e-3, &out).unwrap(), 1e-3);

        let g1 = smooth_field(Dims::d1(300));
        let out = p.compress(&g1, 1e-3);
        check_bound(&g1, &p.decompress(g1.dims(), 1e-3, &out).unwrap(), 1e-3);
    }

    #[test]
    fn roundtrip_awkward_shapes() {
        // Shapes that are not multiples of the anchor stride, smaller than a
        // block, and with unit axes.
        for dims in [
            Dims::d3(17, 17, 17),
            Dims::d3(5, 9, 13),
            Dims::d3(1, 40, 3),
            Dims::d2(15, 16),
        ] {
            let g = smooth_field(dims);
            let p = InterpPredictor::new(InterpConfig::cusz_hi()).unwrap();
            let out = p.compress(&g, 1e-3);
            let recon = p.decompress(dims, 1e-3, &out).unwrap();
            check_bound(&g, &recon, 1e-3);
        }
    }

    /// One reconstruction buffer, reused dirty from chunk to chunk and
    /// shrinking, must give each chunk exactly what a fresh `decompress`
    /// gives: no value of an earlier, larger chunk may survive.
    #[test]
    fn decompress_into_a_dirty_buffer_matches_decompress() {
        let p = InterpPredictor::new(InterpConfig::cusz_hi()).unwrap();
        let mut recon = vec![f32::NAN; 64 * 64 * 64 + 7];
        for dims in [Dims::d3(64, 64, 64), Dims::d3(44, 64, 64), Dims::d2(60, 90)] {
            let out = p.compress(&spiky_field(dims), 1e-3);
            assert!(!out.outliers.is_empty(), "{dims}: no outliers");
            let fresh = p.decompress(dims, 1e-3, &out).unwrap();
            p.decompress_into(dims, 1e-3, &out, &mut recon).unwrap();
            assert_eq!(recon.len(), dims.len(), "{dims}");
            assert!(
                recon
                    .iter()
                    .map(|v| v.to_bits())
                    .eq(fresh.as_slice().iter().map(|v| v.to_bits())),
                "{dims}: a reused buffer reconstructs differently"
            );
        }
    }

    #[test]
    fn smooth_fields_yield_concentrated_codes() {
        let g = smooth_field(Dims::d3(64, 64, 64));
        let p = InterpPredictor::new(InterpConfig::cusz_hi()).unwrap();
        let out = p.compress(&g, 1e-2);
        assert!(
            out.outlier_fraction() < 0.005,
            "too many outliers: {}",
            out.outlier_fraction()
        );
        let near = out
            .codes
            .iter()
            .filter(|&&c| (c as i32 - ZERO_CODE as i32).abs() <= 2)
            .count();
        assert!(
            near as f64 > 0.9 * out.codes.len() as f64,
            "codes not concentrated near zero error"
        );
    }

    #[test]
    fn multidim_beats_dimsequence_on_isotropic_data() {
        // On smoothly varying isotropic data the multi-dimensional scheme
        // should produce a lower total prediction error (more codes at the
        // centre) than the 1D dimension-sequence scheme — the §5.1.2 claim.
        let g = smooth_field(Dims::d3(48, 48, 48));
        let eb = 1e-3;
        let mut md_cfg = InterpConfig::cusz_hi();
        let mut ds_cfg = InterpConfig::cusz_hi();
        for l in md_cfg.levels.iter_mut() {
            l.scheme = Scheme::MultiDim;
        }
        for l in ds_cfg.levels.iter_mut() {
            l.scheme = Scheme::DimSequence;
        }
        let exact = |cfg: InterpConfig| {
            let p = InterpPredictor::new(cfg).unwrap();
            let out = p.compress(&g, eb);
            out.codes.iter().filter(|&&c| c == ZERO_CODE).count()
        };
        let md_exact = exact(md_cfg);
        let ds_exact = exact(ds_cfg);
        assert!(
            md_exact as f64 >= 0.95 * ds_exact as f64,
            "multi-dim scheme should not be much worse than dim-sequence: {md_exact} vs {ds_exact}"
        );
    }

    #[test]
    fn anchors_are_stored_exactly() {
        let g = smooth_field(Dims::d3(33, 33, 33));
        let p = InterpPredictor::new(InterpConfig::cusz_hi()).unwrap();
        let out = p.compress(&g, 1e-1);
        let recon = p.decompress(g.dims(), 1e-1, &out).unwrap();
        for z in (0..33).step_by(16) {
            for y in (0..33).step_by(16) {
                for x in (0..33).step_by(16) {
                    assert_eq!(
                        recon.get(z, y, x),
                        g.get(z, y, x),
                        "anchor ({z},{y},{x}) not exact"
                    );
                }
            }
        }
        assert_eq!(out.anchors.len(), 27);
    }

    #[test]
    fn rough_data_respects_bound() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(101);
        let dims = Dims::d3(24, 24, 24);
        let g = Grid::from_fn(dims, |_, _, _| rng.gen_range(-100.0f32..100.0));
        let eb = 1e-3;
        let p = InterpPredictor::new(InterpConfig::cusz_hi()).unwrap();
        let out = p.compress(&g, eb);
        let recon = p.decompress(dims, eb, &out).unwrap();
        check_bound(&g, &recon, eb);
        assert!(
            out.outlier_fraction() > 0.1,
            "white noise must produce many outliers"
        );
    }

    #[test]
    fn invalid_config_is_rejected_with_typed_error() {
        // Non-power-of-two stride.
        let cfg = InterpConfig {
            anchor_stride: 12,
            block_span: [12, 12, 12],
            levels: vec![
                LevelConfig {
                    scheme: Scheme::MultiDim,
                    spline: Spline::Cubic
                };
                3
            ],
        };
        assert!(matches!(
            InterpPredictor::new(cfg),
            Err(PredictorError::InvalidConfig(_))
        ));
        // Wrong level count.
        let mut cfg = InterpConfig::cusz_hi();
        cfg.levels.pop();
        assert!(matches!(
            InterpPredictor::new(cfg),
            Err(PredictorError::InvalidConfig(_))
        ));
        // Block span below the anchor stride.
        let mut cfg = InterpConfig::cusz_hi();
        cfg.block_span = [8, 16, 16];
        assert!(matches!(
            cfg.validate(),
            Err(PredictorError::InvalidConfig(_))
        ));
    }

    #[test]
    fn inconsistent_decompression_input_yields_typed_errors() {
        let g = smooth_field(Dims::d3(20, 22, 24));
        let p = InterpPredictor::new(InterpConfig::cusz_hi()).unwrap();
        let out = p.compress(&g, 1e-3);

        // Code array shorter than the field.
        let mut short = out.clone();
        short.codes.pop();
        assert!(matches!(
            p.decompress(g.dims(), 1e-3, &short),
            Err(PredictorError::Inconsistent(_))
        ));

        // Wrong anchor count.
        let mut fewer = out.clone();
        fewer.anchors.pop();
        assert!(matches!(
            p.decompress(g.dims(), 1e-3, &fewer),
            Err(PredictorError::Inconsistent(_))
        ));

        // An outlier code with its record removed. Force one outlier by
        // marking a non-anchor point directly.
        let mut orphan = out.clone();
        orphan.codes[1] = OUTLIER_CODE;
        orphan.outliers.retain(|o| o.index != 1);
        assert!(matches!(
            p.decompress(g.dims(), 1e-3, &orphan),
            Err(PredictorError::Inconsistent(_))
        ));

        // The same at an anchor position (index 0 = the (0,0,0) anchor):
        // the sweep never visits anchors, so this exercises the dedicated
        // anchor-side completeness check.
        let mut anchor_orphan = out.clone();
        anchor_orphan.codes[0] = OUTLIER_CODE;
        anchor_orphan.outliers.retain(|o| o.index != 0);
        assert!(matches!(
            p.decompress(g.dims(), 1e-3, &anchor_orphan),
            Err(PredictorError::Inconsistent(_))
        ));
    }
}
