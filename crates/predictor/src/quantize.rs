//! Error-bounded linear quantization with one-byte codes.
//!
//! §5.2.1 of the paper: interpolation predictors produce prediction errors so
//! concentrated around zero that a single byte per code suffices — the code
//! space is centred at 128 (the "top-1 symbol" of §5.2.3) and the rare values
//! that do not fit are stored losslessly in an outlier side channel.

/// The code value reserved for outliers (points whose exact value is stored
/// in the side channel).
pub(crate) const OUTLIER_CODE: u8 = 0;

/// The code value meaning "prediction error quantized to zero" — the centre
/// of the code space.
pub(crate) const ZERO_CODE: u8 = 128;

/// One losslessly stored point: its linear index in the field and its exact
/// value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outlier {
    /// Linear (row-major) index of the point.
    pub index: u64,
    /// Exact original value.
    pub value: f32,
}

/// An error-bounded linear quantizer with one-byte codes.
///
/// For a prediction `pred` and an original value `v`, the quantization code
/// is `round((v − pred) / (2ε)) + 128`; the reconstructed value
/// `pred + (code − 128)·2ε` is then guaranteed to be within `ε` of `v`
/// whenever the code fits in `1..=255` — otherwise the point is an outlier
/// and its value is kept exactly.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Quantizer {
    eb: f64,
    two_eb: f64,
}

impl Quantizer {
    /// Creates a quantizer for the absolute error bound `eb` (must be
    /// positive and finite).
    pub(crate) fn new(eb: f64) -> Self {
        assert!(
            eb.is_finite() && eb > 0.0,
            "error bound must be positive and finite, got {eb}"
        );
        Quantizer {
            eb,
            two_eb: 2.0 * eb,
        }
    }

    /// Quantizes `value` against `pred`.
    ///
    /// Returns `(code, reconstructed)`. When `code` is [`OUTLIER_CODE`] the
    /// reconstructed value equals `value` exactly and the caller must record
    /// the outlier.
    #[inline]
    pub(crate) fn quantize(&self, value: f32, pred: f32) -> (u8, f32) {
        let diff = value as f64 - pred as f64;
        let q = (diff / self.two_eb).round();
        if q.abs() <= 127.0 {
            let recon = (pred as f64 + q * self.two_eb) as f32;
            // Rounding through f32 can push the reconstruction outside the
            // bound for extreme magnitudes; verify and fall back to an
            // outlier so the bound is unconditional.
            if ((recon as f64) - (value as f64)).abs() <= self.eb {
                return ((q as i32 + ZERO_CODE as i32) as u8, recon);
            }
        }
        (OUTLIER_CODE, value)
    }

    /// Reconstructs a value from a non-outlier `code` and the prediction.
    #[inline]
    pub(crate) fn reconstruct(&self, code: u8, pred: f32) -> f32 {
        debug_assert_ne!(code, OUTLIER_CODE, "outlier codes carry no offset");
        (pred as f64 + (code as i32 - ZERO_CODE as i32) as f64 * self.two_eb) as f32
    }

    /// Converts a value-range-relative error bound into the absolute bound
    /// used by the compressors (the paper's `eb · (max − min)` convention).
    #[cfg(test)]
    fn absolute_from_relative(rel_eb: f64, value_range: f64) -> f64 {
        let abs = rel_eb * value_range;
        if abs > 0.0 {
            abs
        } else {
            // Constant fields: any positive bound preserves them exactly.
            rel_eb.max(f64::MIN_POSITIVE)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn exact_prediction_gives_center_code() {
        let q = Quantizer::new(1e-3);
        let (code, recon) = q.quantize(5.0, 5.0);
        assert_eq!(code, ZERO_CODE);
        assert_eq!(recon, 5.0);
    }

    #[test]
    fn small_errors_are_bounded_and_reversible() {
        let q = Quantizer::new(1e-2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(89);
        for _ in 0..10_000 {
            let pred: f32 = rng.gen_range(-100.0..100.0);
            let value = pred + rng.gen_range(-2.0f32..2.0);
            let (code, recon) = q.quantize(value, pred);
            assert!(
                (recon as f64 - value as f64).abs() <= 1e-2 + 1e-12,
                "bound violated: value {value} recon {recon}"
            );
            if code != OUTLIER_CODE {
                assert_eq!(q.reconstruct(code, pred), recon);
            }
        }
    }

    #[test]
    fn large_errors_become_outliers() {
        let q = Quantizer::new(1e-3);
        let (code, recon) = q.quantize(10.0, 0.0);
        assert_eq!(code, OUTLIER_CODE);
        assert_eq!(recon, 10.0);
    }

    #[test]
    fn code_is_symmetric_around_center() {
        let q = Quantizer::new(0.5);
        let (plus, _) = q.quantize(1.0, 0.0); // diff=1.0 → q=+1
        let (minus, _) = q.quantize(-1.0, 0.0);
        assert_eq!(plus, ZERO_CODE + 1);
        assert_eq!(minus, ZERO_CODE - 1);
    }

    #[test]
    fn boundary_codes_still_respect_bound() {
        let q = Quantizer::new(1e-3);
        // diff right at the edge of the representable range: 127 * 2eb
        let pred = 0.0f32;
        let value = (127.0 * 2.0 * 1e-3) as f32;
        let (code, recon) = q.quantize(value, pred);
        assert_ne!(code, OUTLIER_CODE);
        assert!((recon as f64 - value as f64).abs() <= 1e-3);
        // One step further must be an outlier or still bounded.
        let value2 = (128.6 * 2.0 * 1e-3) as f32;
        let (code2, recon2) = q.quantize(value2, pred);
        assert!(code2 == OUTLIER_CODE || (recon2 as f64 - value2 as f64).abs() <= 1e-3);
    }

    #[test]
    fn relative_bound_conversion() {
        assert_eq!(Quantizer::absolute_from_relative(1e-2, 100.0), 1.0);
        // Constant field (range 0) still yields a usable positive bound.
        assert!(Quantizer::absolute_from_relative(1e-2, 0.0) > 0.0);
    }

    #[test]
    #[should_panic]
    fn zero_bound_is_rejected() {
        let _ = Quantizer::new(0.0);
    }
}
