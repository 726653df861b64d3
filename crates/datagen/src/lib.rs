//! Synthetic scientific dataset generators.
//!
//! The cuSZ-Hi paper evaluates on six SDRBench datasets (CESM-ATM, JHTDB,
//! Miranda, Nyx, QMCPack, RTM). Those datasets are multi-gigabyte downloads
//! that are not available in this environment, so this crate provides
//! synthetic stand-ins: for each dataset family a generator produces fields
//! with the same dimensionality and the same *compression-relevant*
//! character — spectral content, smoothness, interfaces, dynamic range — so
//! that the relative behaviour of the compressors (who wins, by roughly what
//! factor, where the crossovers fall) matches the paper. Each family's
//! recipe is documented on its [`DatasetKind`] variant.
//!
//! All generators are deterministic functions of `(dims, seed)` so every
//! experiment is reproducible, and they are parallelised over `z`-planes with
//! Rayon because the evaluation harness generates hundreds of megabytes of
//! input per run.
#![forbid(unsafe_code)]

mod field;
mod noise;

pub use field::DatasetKind;

use szhi_ndgrid::{Dims, Grid};

/// A field whose low-`x` half is a smooth trigonometric ramp and whose
/// high-`x` half is deterministic full-range hash noise — the canonical
/// workload for per-chunk lossless-pipeline selection: anchor-aligned
/// chunks of the smooth half prefer the CR pipeline while the noisy half's
/// near-uniform quantization codes prefer TP. Deterministic in `dims`
/// alone; shared by the golden corpus and the per-chunk tuning tests so
/// the workload cannot silently diverge between them.
pub fn mixed_smooth_noisy(dims: Dims) -> Grid<f32> {
    Grid::from_fn(dims, |z, y, x| {
        if x < dims.nx() / 2 {
            ((x + y) as f32 * 0.09).sin() * 0.5 + z as f32 * 0.01
        } else {
            // A cheap deterministic coordinate hash driving ±0.5 noise.
            let mut h = (z * 73_856_093) ^ (y * 19_349_663) ^ (x * 83_492_791);
            h ^= h >> 13;
            h = h.wrapping_mul(0x5bd1_e995);
            h ^= h >> 15;
            ((h & 0xFFFF) as f32 / 65_535.0) - 0.5
        }
    })
}

/// All six dataset families in the order the paper's tables use.
pub fn all_kinds() -> [DatasetKind; 6] {
    [
        DatasetKind::CesmAtm,
        DatasetKind::Jhtdb,
        DatasetKind::Miranda,
        DatasetKind::Nyx,
        DatasetKind::Qmcpack,
        DatasetKind::Rtm,
    ]
}
