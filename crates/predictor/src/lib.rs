//! Lossy decomposition substrate: predictors, quantization, reordering and
//! auto-tuning.
//!
//! Error-bounded lossy compressors of the cuSZ family all follow the same
//! two-phase design the paper formalises in Eq. 2: a *lossy decomposition*
//! turns the floating-point field into an integer array of quantized
//! prediction errors (plus a small lossless side channel), and a *lossless
//! encoder* shrinks that integer array. This crate implements the first
//! phase for every compressor in the workspace:
//!
//! * `quantize` — the error-bounded linear quantizer with one-byte codes
//!   and an outlier side channel (§5.2.1);
//! * `interp` — the spline-interpolation predictor: the cuSZ-I
//!   configuration (anchor stride 8, dimension-sequence interpolation) and
//!   the cuSZ-Hi configuration (anchor stride 16, multi-dimensional
//!   interpolation, §5.1.1–§5.1.2);
//! * `reorder` — the level-ordered quantization-code mapping (§5.1.4,
//!   Eq. 3);
//! * [`autotune`] — the sampled, workload-balanced interpolation auto-tuner
//!   (§5.1.3).
//!
//! The dual-quantization Lorenzo predictor of the cuSZ-L and FZ-GPU
//! baselines lives with its only callers, in `szhi-baselines`. Callers
//! parallelise over chunks; below a chunk, only the interpolation sweep's
//! large phases spread their z-planes over the worker pool, and only when
//! the caller is not itself running a pool part.
#![forbid(unsafe_code)]

pub mod autotune;
mod error;
mod interp;
mod quantize;
mod reorder;

pub use error::PredictorError;
pub use interp::{
    CompressScratch, InterpConfig, InterpOutput, InterpPredictor, LevelConfig, Scheme, Spline,
};
pub use quantize::Outlier;
pub use reorder::LevelOrder;

/// Makes `buf` hold `n` zeros. A buffer with the room is cleared in place;
/// one without gets fresh zeroed memory, which neither copies the old
/// contents nor writes zeros over pages the allocator already hands out
/// zeroed, so the allocating `decompress` and `restore` pay one
/// `vec![0; n]` each.
pub(crate) fn zeroed<T: Copy + Default>(buf: &mut Vec<T>, n: usize) {
    if buf.capacity() < n {
        *buf = vec![T::default(); n];
    } else {
        buf.clear();
        buf.resize(n, T::default());
    }
}
