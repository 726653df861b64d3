//! Workload-balanced interpolation auto-tuning (§5.1.3).
//!
//! cuSZ-Hi selects the interpolation scheme and spline **per level** by
//! running trial interpolations on a small sample of data blocks (about 0.2 %
//! of the field) and keeping, for every level, the configuration with the
//! smallest aggregated prediction error. The GPU implementation balances the
//! trial workload across thread blocks by hand; here the trials of one field
//! or chunk run in order on the calling thread (the sample is 0.2 % of the
//! points), and chunks tune side by side on the worker pool.
//!
//! The trials use the original values (not reconstructed ones) as the known
//! grid — the standard approximation also used by QoZ — which makes every
//! (block, level, configuration) trial independent of the others. A trial
//! runs the predictor's own row kernel over the block, so it predicts every
//! target exactly as compression would from the same known values; only
//! its commit differs, summing `|prediction − value|` instead of storing.
//!
//! A trial whose stencils reach a non-finite value sums to NaN. Candidates
//! are compared with `f64::total_cmp`, which ranks such a sum after every
//! finite one, so tuning a field that holds NaN or ±Inf still picks a
//! configuration.

use crate::interp::{steps, InterpConfig, Level, LevelConfig, Scheme, Spline};
#[cfg(test)]
use szhi_ndgrid::Dims;
use szhi_ndgrid::{BlockGrid, Grid};

/// Fraction of the field sampled for the trials (the paper's 0.2 %).
pub(crate) const SAMPLE_FRACTION: f64 = 0.002;

/// The candidate (scheme, spline) pairs evaluated per level.
pub(crate) fn candidates() -> [LevelConfig; 4] {
    [
        LevelConfig {
            scheme: Scheme::MultiDim,
            spline: Spline::Cubic,
        },
        LevelConfig {
            scheme: Scheme::MultiDim,
            spline: Spline::Linear,
        },
        LevelConfig {
            scheme: Scheme::DimSequence,
            spline: Spline::Cubic,
        },
        LevelConfig {
            scheme: Scheme::DimSequence,
            spline: Spline::Linear,
        },
    ]
}

/// The outcome of auto-tuning: one configuration per level plus the measured
/// trial errors (exposed for the ablation/bench harness).
#[derive(Debug, Clone)]
pub struct TuneResult {
    /// Selected configuration per level (index 0 = level 1).
    pub levels: Vec<LevelConfig>,
    /// Aggregated absolute trial error per level and candidate,
    /// `errors[level-1][candidate]`.
    pub errors: Vec<[f64; 4]>,
    /// Number of blocks sampled.
    pub sampled_blocks: usize,
}

/// Tunes the per-level interpolation configuration of `base` for `data`.
///
/// The returned configuration keeps the anchor stride and block span of
/// `base` and replaces its per-level scheme/spline selections.
pub fn tune(data: &Grid<f32>, base: &InterpConfig) -> (InterpConfig, TuneResult) {
    base.validate()
        .expect("auto-tuning requires a structurally valid base configuration");
    let dims = data.dims();
    let block_grid = BlockGrid::new(dims, base.anchor_stride);
    let blocks = block_grid.to_vec();

    // Uniformly sample ~SAMPLE_FRACTION of the volume, at least one block.
    let n_samples =
        ((blocks.len() as f64 * SAMPLE_FRACTION).ceil() as usize).clamp(1, blocks.len());
    let stride = (blocks.len() / n_samples).max(1);
    let sampled = blocks.iter().step_by(stride).take(n_samples);
    let sampled_blocks = sampled.len();

    let num_levels = base.num_levels();
    let cands = candidates();

    // One trial per (block, level, candidate), summed in that order.
    let mut errors = vec![[0.0f64; 4]; num_levels];
    for block in sampled {
        let mut sub_grid = Grid::from_vec(block.region.dims(), data.extract(&block.region));
        for level in 1..=num_levels {
            let s = 1usize << (level - 1);
            for (ci, cand) in cands.iter().enumerate() {
                errors[level - 1][ci] += trial_error(&mut sub_grid, s, cand.scheme, cand.spline);
            }
        }
    }

    // A NaN sum ranks last (see the module docs); `min_by` keeps the first
    // of equal minima.
    let levels: Vec<LevelConfig> = errors
        .iter()
        .map(|errs| {
            let best = errs
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap_or(0);
            cands[best]
        })
        .collect();

    let tuned = InterpConfig {
        anchor_stride: base.anchor_stride,
        block_span: base.block_span,
        levels: levels.clone(),
    };
    (
        tuned,
        TuneResult {
            levels,
            errors,
            sampled_blocks,
        },
    )
}

/// Aggregated absolute prediction error of one trial: interpolate every
/// target of level stride `s` inside `block` from the original values,
/// with the predictor's row kernel confined to the block. The commit only
/// reads its slot, so `block` keeps the original values throughout.
fn trial_error(block: &mut Grid<f32>, s: usize, scheme: Scheme, spline: Spline) -> f64 {
    let dims = block.dims();
    let level = Level {
        dims,
        s,
        spline,
        span: [dims.nz(), dims.ny(), dims.nx()],
    };
    let mut err = 0.0f64;
    for step in steps(s, scheme) {
        step.sweep(&level, block.as_mut_slice(), &mut |_, pred, value| {
            err += (pred as f64 - *value as f64).abs();
        });
    }
    err
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth_field(dims: Dims) -> Grid<f32> {
        Grid::from_fn(dims, |z, y, x| {
            let (fz, fy, fx) = (z as f32 * 0.05, y as f32 * 0.045, x as f32 * 0.035);
            (fx + fy * 0.7).sin() * 5.0 + (fz - fx * 0.2).cos() * 3.0
        })
    }

    #[test]
    fn tuning_returns_one_config_per_level() {
        let g = smooth_field(Dims::d3(48, 48, 48));
        let (cfg, result) = tune(&g, &InterpConfig::cusz_hi());
        assert_eq!(cfg.levels.len(), 4);
        assert_eq!(result.errors.len(), 4);
        assert!(result.sampled_blocks >= 1);
        cfg.validate().unwrap();
    }

    #[test]
    fn tuning_prefers_cubic_on_smooth_data() {
        let g = smooth_field(Dims::d3(64, 64, 64));
        let (cfg, _) = tune(&g, &InterpConfig::cusz_hi());
        // The finest levels should pick cubic splines on smooth trigonometric
        // data; level 1 has by far the most points so check it specifically.
        assert_eq!(
            cfg.levels[0].spline,
            Spline::Cubic,
            "level 1 should prefer cubic on smooth data"
        );
    }

    #[test]
    fn tuning_prefers_linear_on_noise() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(107);
        let dims = Dims::d3(48, 48, 48);
        let g = Grid::from_fn(dims, |_, _, _| rng.gen_range(-1.0f32..1.0));
        let (_, result) = tune(&g, &InterpConfig::cusz_hi());
        // On white noise no spline helps; the tuner must still make a valid
        // choice and the cubic error must not be dramatically *better*.
        for errs in &result.errors {
            assert!(errs.iter().all(|e| e.is_finite() && *e >= 0.0));
        }
    }

    /// `tune`'s trial errors, bit for bit, as the per-point predictor
    /// computed them before the row kernel replaced it: a field's tuned
    /// configuration cannot move with the kernel.
    #[test]
    fn trial_errors_are_pinned() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(107);
        let noise = Grid::from_fn(Dims::d3(48, 48, 48), |_, _, _| rng.gen_range(-1.0f32..1.0));
        let check = |g: Grid<f32>, base: InterpConfig, pinned: &[[u64; 4]]| {
            let (_, result) = tune(&g, &base);
            let bits: Vec<[u64; 4]> = result.errors.iter().map(|e| e.map(f64::to_bits)).collect();
            assert_eq!(bits, pinned, "{}", g.dims());
        };
        check(
            noise,
            InterpConfig::cusz_hi(),
            &[
                [
                    0x40a2e8b3cc253a00,
                    0x40a20d6527478fa0,
                    0x40a37a8b79264000,
                    0x40a2e9c199c60000,
                ],
                [
                    0x407549d91d692000,
                    0x40747a0784751000,
                    0x4075e9db78c80000,
                    0x40758650e3b00000,
                ],
                [
                    0x404e5c483b580000,
                    0x404e5c483b580000,
                    0x404f1a8b0b800000,
                    0x404f1a8b0b800000,
                ],
                [
                    0x402208d4c2000000,
                    0x402208d4c2000000,
                    0x402385b1bc000000,
                    0x402385b1bc000000,
                ],
            ],
        );
        check(
            smooth_field(Dims::d3(40, 40, 40)),
            InterpConfig::cusz_i(),
            &[
                [
                    0x3fd8182c00000000,
                    0x3ff0b76300000000,
                    0x3fe638b300000000,
                    0x3ff6492100000000,
                ],
                [
                    0x3fe5b3b180000000,
                    0x3fe5b3b180000000,
                    0x3febfe7100000000,
                    0x3febfe7100000000,
                ],
                [
                    0x3fe0da8280000000,
                    0x3fe0da8280000000,
                    0x3fe4bada80000000,
                    0x3fe4bada80000000,
                ],
            ],
        );
        check(
            smooth_field(Dims::d2(100, 90)),
            InterpConfig::cusz_hi(),
            &[
                [
                    0x3fac69a800000000,
                    0x3fd2bb1c00000000,
                    0x3fb1c3ac00000000,
                    0x3fd1fd7a00000000,
                ],
                [
                    0x3fc125a600000000,
                    0x3fd4232700000000,
                    0x3fc34ad800000000,
                    0x3fd3657600000000,
                ],
                [
                    0x3fd6f28b00000000,
                    0x3fd6f28b00000000,
                    0x3fd6348100000000,
                    0x3fd6348100000000,
                ],
                [
                    0x3fdc92da00000000,
                    0x3fdc92da00000000,
                    0x3fdbd37600000000,
                    0x3fdbd37600000000,
                ],
            ],
        );
    }

    #[test]
    fn sample_count_tracks_fraction() {
        let g = smooth_field(Dims::d3(96, 96, 96));
        let (_, result) = tune(&g, &InterpConfig::cusz_hi());
        let total_blocks = BlockGrid::new(g.dims(), 16).len();
        assert!(result.sampled_blocks <= total_blocks);
        assert!(result.sampled_blocks >= 1);
    }

    #[test]
    fn trial_error_is_zero_on_linear_ramps_with_linear_spline() {
        let dims = Dims::d3(17, 17, 17);
        let mut g = Grid::from_fn(dims, |z, y, x| (2 * x + 3 * y + z) as f32);
        let err = trial_error(&mut g, 1, Scheme::MultiDim, Spline::Linear);
        assert!(
            err < 1e-2,
            "linear interpolation must reproduce a linear ramp, err {err}"
        );
    }

    #[test]
    fn tuning_respects_base_partition() {
        let g = smooth_field(Dims::d3(40, 40, 40));
        let base = InterpConfig::cusz_i();
        let (cfg, _) = tune(&g, &base);
        assert_eq!(cfg.anchor_stride, 8);
        assert_eq!(cfg.block_span, base.block_span);
        assert_eq!(cfg.levels.len(), 3);
    }
}
