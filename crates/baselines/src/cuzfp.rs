//! cuZFP: a fixed-rate block-transform compressor.
//!
//! ZFP partitions the field into 4³ blocks, aligns each block to a common
//! exponent, decorrelates it with an integer orthogonal transform and encodes
//! the coefficients bit plane by bit plane, truncated to a fixed number of
//! bits per value. It therefore offers a *fixed rate* rather than a bounded
//! point-wise error, which is why the paper excludes it from the
//! fixed-error-bound comparison (Table 4) and sweeps its rate in the
//! rate-distortion study (Figure 8).
//!
//! This re-implementation keeps the structure (block floating point →
//! integer decorrelating transform → most-significant-first bit-plane coding
//! with a fixed per-block budget) but uses an exactly invertible Haar-style
//! integer lifting instead of ZFP's proprietary lifting constants. The
//! crate doc tabulates this and the other baselines' substitutions.

use crate::stream::{read_header, write_header};
use crate::Compressor;
use rayon::prelude::*;
use szhi_codec::bitio::{put_u64, BitReader, WordWriter};
use szhi_core::{ErrorBound, SzhiError};
use szhi_ndgrid::{Dims, Grid};

const MAGIC: &[u8; 4] = b"ZFP1";
/// Block edge length.
const EDGE: usize = 4;
/// Precision of the block-floating-point integers (bits of magnitude).
const PRECISION: i32 = 24;

/// The cuZFP baseline compressor (fixed rate).
#[derive(Debug, Clone, Copy)]
pub struct CuZfp {
    /// Compressed bits per value.
    rate: f64,
}

impl Default for CuZfp {
    fn default() -> Self {
        CuZfp { rate: 8.0 }
    }
}

impl CuZfp {
    /// Creates a compressor with the given rate in bits per value.
    pub fn with_rate(rate: f64) -> Self {
        assert!(
            (1.0..=32.0).contains(&rate),
            "rate must be within 1..=32 bits/value"
        );
        CuZfp { rate }
    }
}

/// Exactly invertible Haar-style lifting on a group of four integers.
#[inline]
fn fwd_lift(v: &mut [i64; 4]) {
    let d0 = v[0] - v[1];
    let s0 = v[1] + (d0 >> 1);
    let d1 = v[2] - v[3];
    let s1 = v[3] + (d1 >> 1);
    let dd = s0 - s1;
    let ss = s1 + (dd >> 1);
    *v = [ss, dd, d0, d1];
}

#[inline]
fn inv_lift(v: &mut [i64; 4]) {
    let [ss, dd, d0, d1] = *v;
    let s1 = ss - (dd >> 1);
    let s0 = s1 + dd;
    let x3 = s1 - (d1 >> 1);
    let x2 = x3 + d1;
    let x1 = s0 - (d0 >> 1);
    let x0 = x1 + d0;
    *v = [x0, x1, x2, x3];
}

/// Mask used for the two's-complement ↔ negabinary conversion (as in ZFP).
/// Negabinary is used instead of sign-magnitude or zig-zag because zeroing
/// its low digits perturbs the value by at most the sum of those digit
/// weights — truncating bit planes never flips the sign of a coefficient.
const NB_MASK: u64 = 0xaaaa_aaaa_aaaa_aaaa;

#[inline]
fn int_to_negabinary(v: i64) -> u64 {
    ((v as u64).wrapping_add(NB_MASK)) ^ NB_MASK
}

#[inline]
fn negabinary_to_int(u: u64) -> i64 {
    ((u ^ NB_MASK).wrapping_sub(NB_MASK)) as i64
}

/// Geometry of the block lattice for a field shape.
struct BlockLattice {
    dims: Dims,
    nbz: usize,
    nby: usize,
    nbx: usize,
    /// Number of values per block (4, 16 or 64 depending on rank).
    block_values: usize,
}

impl BlockLattice {
    fn new(dims: Dims) -> Self {
        let nb = |extent: usize| extent.div_ceil(EDGE);
        let rank = dims.rank();
        let block_values = EDGE.pow(rank as u32);
        BlockLattice {
            dims,
            nbz: if rank >= 3 { nb(dims.nz()) } else { 1 },
            nby: if rank >= 2 { nb(dims.ny()) } else { 1 },
            nbx: nb(dims.nx()),
            block_values,
        }
    }

    fn len(&self) -> usize {
        self.nbz * self.nby * self.nbx
    }

    fn origin(&self, b: usize) -> (usize, usize, usize) {
        let bx = b % self.nbx;
        let rest = b / self.nbx;
        let by = rest % self.nby;
        let bz = rest / self.nby;
        (bz * EDGE, by * EDGE, bx * EDGE)
    }

    /// Gathers the block values, clamping coordinates at the domain boundary
    /// (edge replication for partial blocks).
    fn gather(&self, data: &[f32], b: usize) -> Vec<f32> {
        let (z0, y0, x0) = self.origin(b);
        let rank = self.dims.rank();
        let mut out = Vec::with_capacity(self.block_values);
        let zr = if rank >= 3 { EDGE } else { 1 };
        let yr = if rank >= 2 { EDGE } else { 1 };
        for dz in 0..zr {
            let z = (z0 + dz).min(self.dims.nz() - 1);
            for dy in 0..yr {
                let y = (y0 + dy).min(self.dims.ny() - 1);
                for dx in 0..EDGE {
                    let x = (x0 + dx).min(self.dims.nx() - 1);
                    out.push(data[self.dims.index(z, y, x)]);
                }
            }
        }
        out
    }

    /// Scatters decoded block values back, ignoring padded positions.
    fn scatter(&self, data: &mut [f32], b: usize, values: &[f32]) {
        let (z0, y0, x0) = self.origin(b);
        let rank = self.dims.rank();
        let zr = if rank >= 3 { EDGE } else { 1 };
        let yr = if rank >= 2 { EDGE } else { 1 };
        let mut i = 0;
        for dz in 0..zr {
            for dy in 0..yr {
                for dx in 0..EDGE {
                    let (z, y, x) = (z0 + dz, y0 + dy, x0 + dx);
                    if z < self.dims.nz() && y < self.dims.ny() && x < self.dims.nx() {
                        data[self.dims.index(z, y, x)] = values[i];
                    }
                    i += 1;
                }
            }
        }
    }
}

/// Applies the lifting along every axis of a block of `n` values (4, 16 or 64).
fn transform(block: &mut [i64], forward: bool) {
    let n = block.len();
    let lift = |group: &mut [i64; 4]| {
        if forward {
            fwd_lift(group)
        } else {
            inv_lift(group)
        }
    };
    // Along x: contiguous groups of 4.
    let along_x = |block: &mut [i64]| {
        for chunk in block.chunks_exact_mut(EDGE) {
            let mut g = [chunk[0], chunk[1], chunk[2], chunk[3]];
            lift(&mut g);
            chunk.copy_from_slice(&g);
        }
    };
    // Along y (stride 4) and z (stride 16) for higher ranks.
    let along_stride = |block: &mut [i64], stride: usize| {
        let groups = block.len() / (EDGE * stride);
        for outer in 0..groups {
            for inner in 0..stride {
                let base = outer * EDGE * stride + inner;
                let mut g = [
                    block[base],
                    block[base + stride],
                    block[base + 2 * stride],
                    block[base + 3 * stride],
                ];
                lift(&mut g);
                block[base] = g[0];
                block[base + stride] = g[1];
                block[base + 2 * stride] = g[2];
                block[base + 3 * stride] = g[3];
            }
        }
    };
    if forward {
        along_x(block);
        if n >= 16 {
            along_stride(block, EDGE);
        }
        if n >= 64 {
            along_stride(block, EDGE * EDGE);
        }
    } else {
        if n >= 64 {
            along_stride(block, EDGE * EDGE);
        }
        if n >= 16 {
            along_stride(block, EDGE);
        }
        along_x(block);
    }
}

/// Encodes one block into exactly `budget_bits` bits.
fn encode_block(values: &[f32], budget_bits: usize, bw: &mut WordWriter) {
    let n = values.len();
    let start_bits = bw.bit_len();
    // Common exponent of the block.
    let max_abs = values.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    if max_abs == 0.0 || !max_abs.is_finite() {
        // All-zero (or non-finite-free) block: a single flag, then padding.
        bw.put(0, 9);
        pad_to(bw, start_bits + budget_bits);
        return;
    }
    let emax = max_abs.log2().floor() as i32;
    bw.put((emax + 256) as u32 + 1, 9); // +1 so 0 means "empty block"
    let scale = 2f64.powi(PRECISION - 1 - emax);
    let mut q: Vec<i64> = values
        .iter()
        .map(|&v| (v as f64 * scale).round() as i64)
        .collect();
    transform(&mut q, true);
    let zz: Vec<u64> = q.iter().map(|&v| int_to_negabinary(v)).collect();
    // Highest occupied bit plane.
    let top = zz.iter().fold(0u32, |m, &v| m.max(64 - v.leading_zeros()));
    bw.put(top, 6);
    let mut remaining = budget_bits.saturating_sub(bw.bit_len() - start_bits);
    let mut plane = top;
    while plane > 0 && remaining >= n {
        plane -= 1;
        for &v in &zz {
            bw.put(((v >> plane) & 1) as u32, 1);
        }
        remaining -= n;
    }
    pad_to(bw, start_bits + budget_bits);
}

fn pad_to(bw: &mut WordWriter, target_bits: usize) {
    while bw.bit_len() < target_bits {
        let chunk = (target_bits - bw.bit_len()).min(32) as u32;
        bw.put(0, chunk);
    }
}

/// Decodes one block of `n` values from exactly `budget_bits` bits.
fn decode_block(
    br: &mut BitReader<'_>,
    n: usize,
    budget_bits: usize,
) -> Result<Vec<f32>, SzhiError> {
    let start = br.bits_consumed();
    let tag = br.get_bits(9).map_err(SzhiError::from)?;
    if tag == 0 {
        skip_to(br, start + budget_bits)?;
        return Ok(vec![0.0f32; n]);
    }
    let emax = tag as i32 - 1 - 256;
    let top = br.get_bits(6).map_err(SzhiError::from)? as u32;
    let mut zz = vec![0u64; n];
    let mut consumed = br.bits_consumed() - start;
    let mut plane = top;
    while plane > 0 && consumed + n <= budget_bits {
        plane -= 1;
        for value in zz.iter_mut() {
            if br.get_bit().map_err(SzhiError::from)? {
                *value |= 1 << plane;
            }
        }
        consumed += n;
    }
    skip_to(br, start + budget_bits)?;
    let mut q: Vec<i64> = zz.iter().map(|&v| negabinary_to_int(v)).collect();
    transform(&mut q, false);
    let scale = 2f64.powi(PRECISION - 1 - emax);
    Ok(q.iter().map(|&v| (v as f64 / scale) as f32).collect())
}

fn skip_to(br: &mut BitReader<'_>, target: usize) -> Result<(), SzhiError> {
    while br.bits_consumed() < target {
        let chunk = (target - br.bits_consumed()).min(32) as u32;
        br.get_bits(chunk).map_err(SzhiError::from)?;
    }
    Ok(())
}

impl Compressor for CuZfp {
    fn name(&self) -> &'static str {
        "cuZFP"
    }

    fn supports_error_bound(&self) -> bool {
        false
    }

    /// Compresses at the configured fixed rate. The error-bound argument is
    /// ignored (cuZFP does not support a fixed-error-bound mode — §6.2.1).
    fn compress(&self, data: &Grid<f32>, _eb: ErrorBound) -> Result<Vec<u8>, SzhiError> {
        if data.is_empty() {
            return Err(SzhiError::InvalidInput("empty field".into()));
        }
        let dims = data.dims();
        let lattice = BlockLattice::new(dims);
        let budget_bits = (self.rate * lattice.block_values as f64).ceil() as usize;
        // Blocks are encoded independently and in parallel, then concatenated
        // (every block occupies exactly `budget_bits` bits).
        let chunks: Vec<Vec<u8>> = (0..lattice.len())
            .into_par_iter()
            .map(|b| {
                let values = lattice.gather(data.as_slice(), b);
                let mut bw = WordWriter::with_capacity_bits(budget_bits + 16);
                encode_block(&values, budget_bits, &mut bw);
                bw.finish()
            })
            .collect();

        let mut bytes = Vec::new();
        write_header(&mut bytes, MAGIC, dims, 0.0);
        put_u64(&mut bytes, budget_bits as u64);
        // Re-pack the per-block byte chunks into one contiguous bit stream.
        let mut bw = WordWriter::with_capacity_bits(budget_bits * lattice.len());
        for chunk in &chunks {
            let mut br = BitReader::new(chunk);
            let mut remaining = budget_bits;
            while remaining > 0 {
                let take = remaining.min(32) as u32;
                let v = br.get_bits(take).map_err(SzhiError::from)?;
                bw.put(v as u32, take);
                remaining -= take as usize;
            }
        }
        let payload = bw.finish();
        put_u64(&mut bytes, payload.len() as u64);
        bytes.extend_from_slice(&payload);
        Ok(bytes)
    }

    fn decompress(&self, bytes: &[u8]) -> Result<Grid<f32>, SzhiError> {
        let (mut cur, dims, _eb) = read_header(bytes, MAGIC, "cuZFP")?;
        let budget_bits = cur.get_u64().map_err(SzhiError::from)? as usize;
        let payload_len = cur.get_u64().map_err(SzhiError::from)? as usize;
        let payload = cur.take(payload_len).map_err(SzhiError::from)?;
        let lattice = BlockLattice::new(dims);
        let mut out = vec![0.0f32; dims.len()];
        let mut br = BitReader::new(payload);
        for b in 0..lattice.len() {
            let values = decode_block(&mut br, lattice.block_values, budget_bits)?;
            lattice.scatter(&mut out, b, &values);
        }
        Ok(Grid::from_vec(dims, out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use szhi_datagen::DatasetKind;
    use szhi_metrics::QualityReport;

    #[test]
    fn lifting_is_exactly_invertible() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(109);
        for _ in 0..1000 {
            let orig: [i64; 4] = [
                rng.gen_range(-1_000_000i64..1_000_000),
                rng.gen_range(-1_000_000i64..1_000_000),
                rng.gen_range(-1_000_000i64..1_000_000),
                rng.gen_range(-1_000_000i64..1_000_000),
            ];
            let mut v = orig;
            fwd_lift(&mut v);
            inv_lift(&mut v);
            assert_eq!(v, orig);
        }
    }

    #[test]
    fn transform_roundtrips_all_ranks() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(113);
        for n in [4usize, 16, 64] {
            let orig: Vec<i64> = (0..n)
                .map(|_| rng.gen_range(-100_000i64..100_000))
                .collect();
            let mut v = orig.clone();
            transform(&mut v, true);
            transform(&mut v, false);
            assert_eq!(v, orig, "rank with {n} values");
        }
    }

    #[test]
    fn compressed_size_matches_rate() {
        let g = DatasetKind::Miranda.generate(Dims::d3(32, 32, 32), 3);
        for rate in [4.0f64, 8.0, 16.0] {
            let c = CuZfp::with_rate(rate);
            let bytes = c.compress(&g, ErrorBound::Relative(1e-3)).unwrap();
            let bits_per_value = bytes.len() as f64 * 8.0 / g.len() as f64;
            assert!(
                bits_per_value < rate * 1.1 + 0.2,
                "rate {rate}: got {bits_per_value} bits/value"
            );
            let recon = c.decompress(&bytes).unwrap();
            assert_eq!(recon.dims(), g.dims());
        }
    }

    #[test]
    fn higher_rates_give_higher_psnr() {
        let g = DatasetKind::Rtm.generate(Dims::d3(36, 36, 20), 5);
        let mut psnrs = Vec::new();
        for rate in [2.0f64, 8.0, 16.0] {
            let c = CuZfp::with_rate(rate);
            let recon = c
                .decompress(&c.compress(&g, ErrorBound::Relative(1e-3)).unwrap())
                .unwrap();
            psnrs.push(QualityReport::compare(&g, &recon).psnr);
        }
        assert!(
            psnrs[0] < psnrs[1] && psnrs[1] < psnrs[2],
            "PSNR must grow with rate: {psnrs:?}"
        );
    }

    #[test]
    fn reconstruction_quality_is_reasonable_at_16_bits() {
        let g = DatasetKind::Miranda.generate(Dims::d3(32, 32, 32), 7);
        let c = CuZfp::with_rate(16.0);
        let recon = c
            .decompress(&c.compress(&g, ErrorBound::Relative(1e-3)).unwrap())
            .unwrap();
        let q = QualityReport::compare(&g, &recon);
        assert!(q.psnr > 60.0, "16-bit cuZFP PSNR only {:.1} dB", q.psnr);
    }

    #[test]
    fn two_d_and_one_d_fields_roundtrip() {
        let g2 = DatasetKind::CesmAtm.generate(Dims::d2(50, 66), 1);
        let c = CuZfp::with_rate(12.0);
        let recon = c
            .decompress(&c.compress(&g2, ErrorBound::Relative(1e-3)).unwrap())
            .unwrap();
        assert_eq!(recon.dims(), g2.dims());
        let q = QualityReport::compare(&g2, &recon);
        assert!(q.psnr > 40.0, "2D PSNR only {:.1}", q.psnr);

        let g1 = Grid::from_fn(Dims::d1(1000), |_, _, x| (x as f32 * 0.01).sin());
        let recon = c
            .decompress(&c.compress(&g1, ErrorBound::Relative(1e-3)).unwrap())
            .unwrap();
        assert_eq!(recon.dims(), g1.dims());
    }

    #[test]
    fn does_not_claim_error_bound_support() {
        assert!(!CuZfp::default().supports_error_bound());
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(CuZfp::default().decompress(b"zz").is_err());
    }

    use szhi_ndgrid::Dims;
    use szhi_ndgrid::Grid;
}
