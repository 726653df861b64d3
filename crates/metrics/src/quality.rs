//! Distortion metrics between an original and a reconstructed field.

use rayon::prelude::*;
use szhi_ndgrid::Grid;

/// Point-wise distortion statistics of a reconstruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityReport {
    /// Mean squared error.
    pub mse: f64,
    /// Peak signal-to-noise ratio in dB, computed against the value range of
    /// the original data (the convention used by Z-checker and the paper).
    pub psnr: f64,
    /// Root-mean-square error normalised by the value range.
    pub nrmse: f64,
    /// Maximum absolute point-wise error.
    pub max_abs_error: f64,
    /// Value range (max − min) of the original data.
    pub value_range: f64,
    /// Number of points compared.
    pub points: usize,
}

impl QualityReport {
    /// Computes all distortion metrics between `original` and `restored`.
    ///
    /// Panics if the two fields have different shapes.
    pub fn compare(original: &Grid<f32>, restored: &Grid<f32>) -> Self {
        assert_eq!(original.dims(), restored.dims(), "field shapes differ");
        Self::compare_slices(
            original.as_slice(),
            restored.as_slice(),
            original.value_range() as f64,
        )
    }

    /// Computes distortion metrics between two raw buffers given the value
    /// range of the original data.
    pub(crate) fn compare_slices(original: &[f32], restored: &[f32], value_range: f64) -> Self {
        assert_eq!(original.len(), restored.len(), "buffer lengths differ");
        assert!(!original.is_empty(), "cannot compare empty buffers");
        const BLOCK: usize = 1 << 16;
        let partials: Vec<(f64, f64)> = (0..original.len().div_ceil(BLOCK))
            .into_par_iter()
            .map(|b| {
                let span = b * BLOCK..original.len().min((b + 1) * BLOCK);
                let mut sq = 0.0f64;
                let mut mx = 0.0f64;
                for (x, y) in original[span.clone()].iter().zip(&restored[span]) {
                    let d = (*x as f64) - (*y as f64);
                    sq += d * d;
                    mx = mx.max(d.abs());
                }
                (sq, mx)
            })
            .collect();
        // Folded in block order, so the sums do not depend on how the
        // blocks were spread over threads.
        let (sum_sq, max_err) = partials
            .iter()
            .fold((0.0f64, 0.0f64), |l, r| (l.0 + r.0, l.1.max(r.1)));
        let n = original.len() as f64;
        let mse = sum_sq / n;
        let rmse = mse.sqrt();
        let psnr = if mse == 0.0 {
            f64::INFINITY
        } else if value_range == 0.0 {
            0.0
        } else {
            20.0 * (value_range / rmse).log10()
        };
        let nrmse = if value_range == 0.0 {
            0.0
        } else {
            rmse / value_range
        };
        QualityReport {
            mse,
            psnr,
            nrmse,
            max_abs_error: max_err,
            value_range,
            points: original.len(),
        }
    }
}

/// Returns `Ok(())` when every reconstructed point is within `bound` of the
/// original, otherwise the index and magnitude of the worst violation.
pub fn verify_error_bound(
    original: &[f32],
    restored: &[f32],
    bound: f64,
) -> Result<(), (usize, f64)> {
    assert_eq!(original.len(), restored.len());
    let mut worst: Option<(usize, f64)> = None;
    for (i, (a, b)) in original.iter().zip(restored.iter()).enumerate() {
        let err = ((*a as f64) - (*b as f64)).abs();
        if err > bound && worst.is_none_or(|(_, w)| err > w) {
            worst = Some((i, err));
        }
    }
    match worst {
        None => Ok(()),
        Some(v) => Err(v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use szhi_ndgrid::Dims;

    #[test]
    fn identical_fields_have_infinite_psnr() {
        let g = Grid::from_fn(Dims::d3(8, 8, 8), |z, y, x| (z + y + x) as f32);
        let q = QualityReport::compare(&g, &g);
        assert_eq!(q.mse, 0.0);
        assert!(q.psnr.is_infinite());
        assert_eq!(q.max_abs_error, 0.0);
    }

    #[test]
    fn constant_offset_gives_expected_mse() {
        let a = Grid::from_vec(Dims::d1(4), vec![0.0f32, 1.0, 2.0, 3.0]);
        let b = Grid::from_vec(Dims::d1(4), vec![0.5f32, 1.5, 2.5, 3.5]);
        let q = QualityReport::compare(&a, &b);
        assert!((q.mse - 0.25).abs() < 1e-12);
        assert!((q.max_abs_error - 0.5).abs() < 1e-12);
        // range = 3, rmse = 0.5 → psnr = 20 log10(6) ≈ 15.563 dB
        assert!((q.psnr - 20.0 * 6.0f64.log10()).abs() < 1e-9);
        assert!((q.nrmse - 0.5 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn psnr_decreases_with_noise() {
        let a = Grid::from_fn(Dims::d2(64, 64), |_, y, x| ((y * x) as f32).sin());
        let mut small = a.clone();
        let mut large = a.clone();
        for (i, v) in small.as_mut_slice().iter_mut().enumerate() {
            *v += if i % 2 == 0 { 1e-3 } else { -1e-3 };
        }
        for (i, v) in large.as_mut_slice().iter_mut().enumerate() {
            *v += if i % 2 == 0 { 1e-1 } else { -1e-1 };
        }
        let q_small = QualityReport::compare(&a, &small);
        let q_large = QualityReport::compare(&a, &large);
        assert!(q_small.psnr > q_large.psnr + 30.0);
    }

    #[test]
    fn metrics_are_bit_identical_across_thread_counts() {
        struct ResetThreads;
        impl Drop for ResetThreads {
            fn drop(&mut self) {
                rayon::set_num_threads(0);
            }
        }
        let _reset = ResetThreads;
        // Five full 64 Ki blocks and a ragged tail.
        let n = 5 * (1 << 16) + 1234;
        let a: Vec<f32> = (0..n).map(|i| (i as f32 * 1e-3).sin() * 100.0).collect();
        let b: Vec<f32> = a
            .iter()
            .enumerate()
            .map(|(i, v)| v + ((i * 7919 % 1013) as f32 - 506.0) * 1e-4)
            .collect();
        let bits = |threads: usize| {
            rayon::set_num_threads(threads);
            let q = QualityReport::compare_slices(&a, &b, 200.0);
            [q.mse, q.psnr, q.max_abs_error].map(f64::to_bits)
        };
        let one = bits(1);
        for threads in [2, 4] {
            assert_eq!(bits(threads), one, "metrics moved at {threads} threads");
        }
    }

    #[test]
    fn verify_error_bound_finds_worst_violation() {
        let a = [0.0f32, 0.0, 0.0];
        let b = [0.05f32, 0.3, 0.2];
        assert!(verify_error_bound(&a, &b, 0.5).is_ok());
        let (idx, err) = verify_error_bound(&a, &b, 0.1).unwrap_err();
        assert_eq!(idx, 1);
        assert!((err - 0.3).abs() < 1e-6);
    }

    #[test]
    #[should_panic]
    fn mismatched_shapes_panic() {
        let a = Grid::<f32>::zeros(Dims::d1(4));
        let b = Grid::<f32>::zeros(Dims::d1(5));
        let _ = QualityReport::compare(&a, &b);
    }
}
