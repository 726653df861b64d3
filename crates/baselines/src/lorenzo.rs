//! Dual-quantization Lorenzo prediction.
//!
//! The Lorenzo predictor estimates each point from its already-processed
//! neighbours in the lower corner of the local cube (1st-order Lorenzo
//! extrapolation). cuSZ and FZ-GPU use the *dual-quantization* variant:
//! values are first pre-quantized to integers (`round(v / 2ε)`), and the
//! Lorenzo differences are then computed exactly in the integer domain, so no
//! prediction-error feedback loops can violate the bound. This module is the
//! lossy decomposition used by the cuSZ-L and FZ-GPU baselines.

use rayon::prelude::*;
use szhi_core::SzhiError;
use szhi_ndgrid::{Dims, Grid};

/// Default quantization-code radius (matching cuSZ's 1024-bin default).
pub(crate) const DEFAULT_RADIUS: u32 = 512;

/// Output of the Lorenzo lossy decomposition.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LorenzoOutput {
    /// One code per point, centred at the radius; code 0 marks an outlier.
    pub codes: Vec<u16>,
    /// Pre-quantized integer values of the outlier points, in raster order.
    pub outliers: Vec<(u64, i64)>,
    /// The code-space radius used.
    pub radius: u32,
}

/// `round(v / 2ε)`, or `None` when it is not finite or rounds outside
/// `i64`, where the cast would saturate (or turn NaN into 0) and break the
/// bound.
#[inline]
fn prequant(v: f32, two_eb: f64) -> Option<i64> {
    const LIMIT: f64 = 9_223_372_036_854_775_808.0; // 2^63
    let q = (v as f64 / two_eb).round();
    (-LIMIT..LIMIT).contains(&q).then_some(q as i64)
}

/// The Lorenzo prediction of point `(z, y, x)` from `q`, or `None` when
/// the neighbour sum leaves `i64` (only on values no finite field at a
/// sane bound produces, such as a crafted outlier record).
#[inline]
fn lorenzo_pred(q: &[i64], dims: Dims, z: usize, y: usize, x: usize) -> Option<i64> {
    let at = |z: isize, y: isize, x: isize| -> i64 {
        if z < 0 || y < 0 || x < 0 {
            0
        } else {
            q[dims.index(z as usize, y as usize, x as usize)]
        }
    };
    let (zi, yi, xi) = (z as isize, y as isize, x as isize);
    match dims.rank() {
        1 => Some(at(zi, yi, xi - 1)),
        2 => at(zi, yi - 1, xi)
            .checked_add(at(zi, yi, xi - 1))?
            .checked_sub(at(zi, yi - 1, xi - 1)),
        _ => at(zi - 1, yi, xi)
            .checked_add(at(zi, yi - 1, xi))?
            .checked_add(at(zi, yi, xi - 1))?
            .checked_sub(at(zi - 1, yi - 1, xi))?
            .checked_sub(at(zi - 1, yi, xi - 1))?
            .checked_sub(at(zi, yi - 1, xi - 1))?
            .checked_add(at(zi - 1, yi - 1, xi - 1)),
    }
}

/// Compresses `data` into Lorenzo quantization codes for the absolute error
/// bound `eb`. A value whose `v / 2ε` is not finite or rounds outside `i64`
/// cannot be pre-quantized and is [`SzhiError::InvalidInput`].
pub fn compress(data: &Grid<f32>, eb: f64, radius: u32) -> Result<LorenzoOutput, SzhiError> {
    assert!(eb > 0.0 && radius >= 2);
    let dims = data.dims();
    let two_eb = 2.0 * eb;
    // Phase 1: pre-quantization (parallel).
    let values = data.as_slice();
    let q: Vec<i64> = (0..values.len())
        .into_par_iter()
        .map(|idx| prequant(values[idx], two_eb).ok_or(idx))
        .collect::<Result<_, usize>>()
        .map_err(|idx| {
            let (z, y, x) = dims.coords(idx);
            SzhiError::InvalidInput(format!(
                "value {} at point ({z}, {y}, {x}) cannot be pre-quantized at absolute bound \
                 {eb:e}: v / 2eb is not finite or lies outside the i64 range",
                values[idx]
            ))
        })?;
    // Phase 2: Lorenzo differences in the integer domain. The prediction uses
    // the exact pre-quantized neighbours, so every point is independent.
    let max_code = (2 * radius - 1) as i64;
    let codes: Vec<u16> = (0..dims.len())
        .into_par_iter()
        .map(|idx| {
            let (z, y, x) = dims.coords(idx);
            // A prediction or difference past `i64` makes an outlier too.
            lorenzo_pred(&q, dims, z, y, x)
                .and_then(|pred| q[idx].checked_sub(pred))
                .and_then(|delta| delta.checked_add(radius as i64))
                .filter(|code| (1..=max_code).contains(code))
                .map_or(0, |code| code as u16)
        })
        .collect();
    let outliers: Vec<(u64, i64)> = codes
        .iter()
        .enumerate()
        .filter(|(_, &c)| c == 0)
        .map(|(idx, _)| (idx as u64, q[idx]))
        .collect();
    Ok(LorenzoOutput {
        codes,
        outliers,
        radius,
    })
}

/// Reconstructs the field from a [`LorenzoOutput`]. A code count that is
/// not the shape's point count, outlier records that are missing, out of
/// raster order or surplus, or a value past `i64` is
/// [`SzhiError::InvalidStream`].
pub(crate) fn decompress(out: &LorenzoOutput, dims: Dims, eb: f64) -> Result<Grid<f32>, SzhiError> {
    if out.codes.len() != dims.len() {
        return Err(SzhiError::InvalidStream(format!(
            "{} Lorenzo codes for a field of {} points",
            out.codes.len(),
            dims.len()
        )));
    }
    let two_eb = 2.0 * eb;
    let radius = out.radius as i64;
    let mut q = vec![0i64; dims.len()];
    let mut outlier_iter = out.outliers.iter();
    // The prediction of point i only uses neighbours with smaller raster
    // index, so a sequential raster sweep reconstructs the exact integers.
    for idx in 0..dims.len() {
        let (z, y, x) = dims.coords(idx);
        let code = out.codes[idx];
        if code == 0 {
            match outlier_iter.next() {
                Some(&(oidx, value)) if oidx == idx as u64 => q[idx] = value,
                _ => {
                    return Err(SzhiError::InvalidStream(format!(
                        "outlier record for point {idx} missing or out of order"
                    )))
                }
            }
        } else {
            q[idx] = lorenzo_pred(&q, dims, z, y, x)
                .and_then(|pred| pred.checked_add(code as i64 - radius))
                .ok_or_else(|| {
                    SzhiError::InvalidStream(format!("Lorenzo value at point {idx} overflows"))
                })?;
        }
    }
    if outlier_iter.next().is_some() {
        return Err(SzhiError::InvalidStream(
            "more outlier records than outlier codes".into(),
        ));
    }
    let values: Vec<f32> = q
        .par_iter()
        .map(|&qi| (qi as f64 * two_eb) as f32)
        .collect();
    Ok(Grid::from_vec(dims, values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use szhi_ndgrid::Dims;

    fn smooth_field(dims: Dims) -> Grid<f32> {
        Grid::from_fn(dims, |z, y, x| {
            ((x as f32 * 0.11).sin() + (y as f32 * 0.07).cos() + (z as f32 * 0.05).sin()) * 10.0
        })
    }

    fn check_bound(orig: &Grid<f32>, recon: &Grid<f32>, eb: f64) {
        // Dual quantization guarantees |v − q·2ε| ≤ ε in real arithmetic; the
        // final cast of q·2ε to f32 can add at most one half-ulp of the
        // reconstructed magnitude (the same guarantee cuSZ provides).
        for (a, b) in orig.as_slice().iter().zip(recon.as_slice()) {
            let slack = (a.abs() as f64) * f32::EPSILON as f64;
            assert!(
                ((*a as f64) - (*b as f64)).abs() <= eb + slack + 1e-12,
                "bound violated: {a} vs {b} (eb {eb})"
            );
        }
    }

    #[test]
    fn roundtrip_3d_within_bound() {
        let g = smooth_field(Dims::d3(20, 24, 28));
        for eb in [1e-1, 1e-2, 1e-3] {
            let out = compress(&g, eb, DEFAULT_RADIUS).unwrap();
            let recon = decompress(&out, g.dims(), eb).unwrap();
            check_bound(&g, &recon, eb);
        }
    }

    #[test]
    fn roundtrip_2d_and_1d() {
        let g2 = smooth_field(Dims::d2(50, 60));
        let out = compress(&g2, 1e-3, DEFAULT_RADIUS).unwrap();
        check_bound(&g2, &decompress(&out, g2.dims(), 1e-3).unwrap(), 1e-3);

        let g1 = smooth_field(Dims::d1(500));
        let out = compress(&g1, 1e-3, DEFAULT_RADIUS).unwrap();
        check_bound(&g1, &decompress(&out, g1.dims(), 1e-3).unwrap(), 1e-3);
    }

    #[test]
    fn smooth_fields_have_few_outliers_and_concentrated_codes() {
        let g = smooth_field(Dims::d3(32, 32, 32));
        let out = compress(&g, 1e-2, DEFAULT_RADIUS).unwrap();
        let outlier_fraction = out.outliers.len() as f64 / out.codes.len() as f64;
        assert!(
            outlier_fraction < 0.01,
            "outlier fraction {outlier_fraction}"
        );
        let near_center = out
            .codes
            .iter()
            .filter(|&&c| (c as i32 - DEFAULT_RADIUS as i32).abs() <= 2)
            .count();
        assert!(
            near_center as f64 > 0.8 * out.codes.len() as f64,
            "codes not concentrated"
        );
    }

    #[test]
    fn rough_data_still_respects_bound() {
        // White noise: predictions are bad, many large codes/outliers, but the
        // bound must hold regardless.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(97);
        let dims = Dims::d3(16, 16, 16);
        let g = Grid::from_fn(dims, |_, _, _| rng.gen_range(-1000.0f32..1000.0));
        let eb = 1e-4;
        let out = compress(&g, eb, DEFAULT_RADIUS).unwrap();
        let recon = decompress(&out, dims, eb).unwrap();
        check_bound(&g, &recon, eb);
    }

    #[test]
    fn constant_field_produces_center_codes_only() {
        let dims = Dims::d3(8, 8, 8);
        let g = Grid::from_vec(dims, vec![3.75f32; dims.len()]);
        let out = compress(&g, 1e-3, DEFAULT_RADIUS).unwrap();
        // Only the very first point (predicted from nothing) can exceed the
        // code range; every other Lorenzo difference is exactly zero.
        assert!(out.outliers.len() <= 1);
        assert!(out
            .codes
            .iter()
            .skip(1)
            .all(|&c| c == DEFAULT_RADIUS as u16));
    }

    #[test]
    fn large_magnitude_values_are_preserved() {
        // Nyx-like magnitudes (1e9 .. 1e11) with a large absolute bound.
        let dims = Dims::d3(8, 8, 8);
        let g = Grid::from_fn(dims, |z, y, x| 1.0e9 * (1.0 + 0.1 * (z + y + x) as f32));
        let eb = 1.0e6;
        let out = compress(&g, eb, DEFAULT_RADIUS).unwrap();
        let recon = decompress(&out, dims, eb).unwrap();
        check_bound(&g, &recon, eb);
    }
}
