//! Per-chunk interpolation-configuration tuning.
//!
//! The global auto-tuner (`szhi_predictor::autotune`) picks one per-level
//! (scheme, spline) configuration for the whole field from a 0.2 % block
//! sample. Fields are rarely homogeneous, though: a turbulent region wants
//! different splines than a laminar one. This module runs the same sampled
//! scoring — the identical candidate set
//! ([`szhi_predictor::autotune::candidates`]) and trial-error metric —
//! **per chunk**, so every chunk of a v5 container can carry the
//! configuration that predicts *its* data best.
//!
//! Tuning a chunk is a pure function of `(chunk, base)`, so per-chunk
//! configurations are byte-reproducible at any worker-thread count.

use szhi_ndgrid::Grid;
use szhi_predictor::autotune;
use szhi_predictor::InterpConfig;

/// Scores the per-level interpolation candidates on a sampled subset of
/// `chunk`'s blocks and returns the winning configuration. The anchor
/// stride and block span of `base` are preserved — only the per-level
/// scheme/spline selections change, which is exactly what the v5
/// container's config dictionary records.
///
/// ```
/// use szhi_ndgrid::{Dims, Grid};
/// use szhi_predictor::InterpConfig;
///
/// let chunk = Grid::from_fn(Dims::d3(32, 32, 32), |z, y, x| {
///     ((x + y) as f32 * 0.07).sin() + z as f32 * 0.01
/// });
/// let tuned = szhi_tuner::tune_chunk_interp(&chunk, &InterpConfig::cusz_hi());
/// assert_eq!(tuned.anchor_stride, 16);
/// assert_eq!(tuned.levels.len(), 4);
/// tuned.validate().unwrap();
/// ```
pub fn tune_chunk_interp(chunk: &Grid<f32>, base: &InterpConfig) -> InterpConfig {
    autotune::tune(chunk, base).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use szhi_ndgrid::Dims;
    use szhi_predictor::Spline;

    #[test]
    fn smooth_chunks_prefer_cubic_at_the_finest_level() {
        let chunk = Grid::from_fn(Dims::d3(48, 48, 48), |z, y, x| {
            let (fz, fy, fx) = (z as f32 * 0.05, y as f32 * 0.045, x as f32 * 0.035);
            (fx + fy * 0.7).sin() * 5.0 + (fz - fx * 0.2).cos() * 3.0
        });
        let tuned = tune_chunk_interp(&chunk, &InterpConfig::cusz_hi());
        assert_eq!(tuned.levels[0].spline, Spline::Cubic);
        tuned.validate().unwrap();
    }

    #[test]
    fn different_chunks_of_one_field_can_tune_differently() {
        // A smooth chunk and a hash-noise chunk: the tuner must at least
        // produce valid configurations for both, and the scoring must see
        // genuinely different errors (the configs may or may not differ —
        // the *option* to differ is what the v5 container records).
        let smooth = Grid::from_fn(Dims::d3(32, 32, 32), |z, y, x| {
            ((x + y) as f32 * 0.09).sin() * 0.5 + z as f32 * 0.01
        });
        let noisy = Grid::from_fn(Dims::d3(32, 32, 32), |z, y, x| {
            let mut h = (z * 73_856_093) ^ (y * 19_349_663) ^ (x * 83_492_791);
            h ^= h >> 13;
            h = h.wrapping_mul(0x5bd1_e995);
            h ^= h >> 15;
            ((h & 0xFFFF) as f32 / 65_535.0) - 0.5
        });
        let base = InterpConfig::cusz_hi();
        let (cfg_s, rep_s) = autotune::tune(&smooth, &base);
        let (cfg_n, rep_n) = autotune::tune(&noisy, &base);
        cfg_s.validate().unwrap();
        cfg_n.validate().unwrap();
        assert!(rep_s.sampled_blocks >= 1 && rep_n.sampled_blocks >= 1);
        // The noisy chunk's level-1 trial errors dwarf the smooth chunk's.
        let best = |errs: &[f64; 4]| errs.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(best(&rep_n.errors[0]) > best(&rep_s.errors[0]) * 10.0);
    }

    #[test]
    fn tuning_is_deterministic() {
        let chunk = Grid::from_fn(Dims::d3(32, 32, 32), |z, y, x| {
            ((x * 3 + y * 2 + z) as f32 * 0.11).sin()
        });
        let base = InterpConfig::cusz_hi();
        let a = tune_chunk_interp(&chunk, &base);
        let b = tune_chunk_interp(&chunk, &base);
        assert_eq!(a, b);
    }
}
