//! FZ-GPU: Lorenzo prediction with bit-shuffle and de-duplication encoding.
//!
//! FZ-GPU derives from cuSZ but replaces the Huffman stage with a
//! throughput-oriented lossless pair: the 16-bit quantization codes are
//! bit-shuffled (so the mostly-zero high bit planes become long runs) and the
//! resulting stream is de-duplicated by zero-block elimination — the
//! `P1 → LE2` (bit-shuffle + dictionary) pipeline of Figure 2.

use crate::lorenzo::{self, LorenzoOutput, DEFAULT_RADIUS};
use crate::stream::{
    byte_planes_to_codes, codes_to_byte_planes, read_header, read_int_outliers, write_header,
    write_int_outliers,
};
use crate::Compressor;
use szhi_codec::bitio::put_u64;
use szhi_codec::components::{Bit, Rze};
use szhi_core::{ErrorBound, SzhiError};
use szhi_ndgrid::Grid;

const MAGIC: &[u8; 4] = b"FZG1";

#[inline]
fn zigzag16(v: i32) -> u16 {
    (((v << 1) ^ (v >> 31)) & 0xffff) as u16
}

#[inline]
fn unzigzag16(v: u16) -> i32 {
    ((v >> 1) as i32) ^ -((v & 1) as i32)
}

/// The FZ-GPU baseline compressor, at cuSZ's default code radius.
#[derive(Debug, Clone, Copy, Default)]
pub struct FzGpu;

impl Compressor for FzGpu {
    fn name(&self) -> &'static str {
        "FZ-GPU"
    }

    fn compress(&self, data: &Grid<f32>, eb: ErrorBound) -> Result<Vec<u8>, SzhiError> {
        if data.is_empty() {
            return Err(SzhiError::InvalidInput("empty field".into()));
        }
        let abs_eb = eb.absolute(data.value_range() as f64);
        let out = lorenzo::compress(data, abs_eb, DEFAULT_RADIUS)?;
        // Re-bias the codes with a zig-zag map so "no error" becomes 0 and
        // small ± errors become small magnitudes: the high byte plane and the
        // upper bit planes of the low bytes are then almost entirely zero and
        // collapse in the de-duplication stage.
        let rebased: Vec<u16> = out
            .codes
            .iter()
            .map(|&c| zigzag16(c as i32 - DEFAULT_RADIUS as i32))
            .collect();
        let planes = codes_to_byte_planes(&rebased);
        let shuffled = Bit::<1>.encode_bytes(&planes);
        let dedup = Rze::<8>.encode_bytes(&shuffled);

        let mut bytes = Vec::new();
        write_header(&mut bytes, MAGIC, data.dims(), abs_eb);
        put_u64(&mut bytes, DEFAULT_RADIUS as u64);
        write_int_outliers(&mut bytes, &out.outliers);
        put_u64(&mut bytes, dedup.len() as u64);
        bytes.extend_from_slice(&dedup);
        Ok(bytes)
    }

    fn decompress(&self, bytes: &[u8]) -> Result<Grid<f32>, SzhiError> {
        let (mut cur, dims, abs_eb) = read_header(bytes, MAGIC, "FZ-GPU")?;
        let radius = cur.get_u64().map_err(SzhiError::from)? as u32;
        let outliers = read_int_outliers(&mut cur)?;
        let enc_len = cur.get_u64().map_err(SzhiError::from)? as usize;
        let encoded = cur.take(enc_len).map_err(SzhiError::from)?;
        // Two code bytes per point: the de-duplicated planes can claim no more.
        let shuffled = Rze::<8>.decode_bytes(encoded, dims.len().saturating_mul(2))?;
        let planes = Bit::<1>.decode_bytes(&shuffled)?;
        let rebased = byte_planes_to_codes(&planes, dims.len())?;
        let codes = rebased
            .iter()
            .map(|&c| {
                unzigzag16(c)
                    .checked_add_unsigned(radius)
                    .and_then(|code| u16::try_from(code).ok())
                    .ok_or_else(|| {
                        SzhiError::InvalidStream(format!("FZ-GPU code {c} at radius {radius}"))
                    })
            })
            .collect::<Result<Vec<u16>, _>>()?;
        let output = LorenzoOutput {
            codes,
            outliers,
            radius,
        };
        lorenzo::decompress(&output, dims, abs_eb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use szhi_datagen::DatasetKind;
    use szhi_ndgrid::Dims;

    fn check_bound(orig: &Grid<f32>, recon: &Grid<f32>, abs_eb: f64) {
        for (a, b) in orig.as_slice().iter().zip(recon.as_slice()) {
            let slack = (a.abs() as f64) * f32::EPSILON as f64;
            assert!(
                ((*a as f64) - (*b as f64)).abs() <= abs_eb + slack + 1e-12,
                "{a} vs {b}"
            );
        }
    }

    #[test]
    fn roundtrip_within_bound() {
        let c = FzGpu;
        for kind in [DatasetKind::Miranda, DatasetKind::Qmcpack] {
            let g = kind.generate(Dims::d3(30, 34, 38), 3);
            let rel = 1e-3;
            let bytes = c.compress(&g, ErrorBound::Relative(rel)).unwrap();
            let recon = c.decompress(&bytes).unwrap();
            check_bound(&g, &recon, rel * g.value_range() as f64);
        }
    }

    #[test]
    fn smooth_data_compresses() {
        let g = DatasetKind::Rtm.generate(Dims::d3(48, 48, 30), 2);
        let bytes = FzGpu.compress(&g, ErrorBound::Relative(1e-2)).unwrap();
        let ratio = g.dims().nbytes_f32() as f64 / bytes.len() as f64;
        assert!(ratio > 3.0, "FZ-GPU ratio only {ratio:.2}");
    }

    #[test]
    fn rejects_garbage() {
        assert!(FzGpu.decompress(b"xx").is_err());
    }
}
