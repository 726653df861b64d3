//! cuSZ-L: the Lorenzo-predictor mode of cuSZ.
//!
//! Dual-quantization Lorenzo extrapolation (the original cuSZ decomposition)
//! followed by Huffman encoding of the quantization codes — the
//! `P1 → LE1` pipeline of Figure 2. The 16-bit codes are serialised as two
//! byte planes before Huffman coding so the (almost constant) high bytes
//! collapse.

use crate::lorenzo::{self, LorenzoOutput, DEFAULT_RADIUS};
use crate::stream::{
    byte_planes_to_codes, codes_to_byte_planes, read_header, read_int_outliers, write_header,
    write_int_outliers,
};
use crate::Compressor;
use szhi_codec::bitio::put_u64;
use szhi_codec::huffman;
use szhi_core::{ErrorBound, SzhiError};
use szhi_ndgrid::Grid;

const MAGIC: &[u8; 4] = b"CZL1";

/// The cuSZ-L baseline compressor, at cuSZ's default code radius.
#[derive(Debug, Clone, Copy, Default)]
pub struct CuszL;

impl Compressor for CuszL {
    fn name(&self) -> &'static str {
        "cuSZ-L"
    }

    fn compress(&self, data: &Grid<f32>, eb: ErrorBound) -> Result<Vec<u8>, SzhiError> {
        if data.is_empty() {
            return Err(SzhiError::InvalidInput("empty field".into()));
        }
        let abs_eb = eb.absolute(data.value_range() as f64);
        let out = lorenzo::compress(data, abs_eb, DEFAULT_RADIUS)?;
        let mut bytes = Vec::new();
        write_header(&mut bytes, MAGIC, data.dims(), abs_eb);
        put_u64(&mut bytes, DEFAULT_RADIUS as u64);
        write_int_outliers(&mut bytes, &out.outliers);
        let planes = codes_to_byte_planes(&out.codes);
        let encoded = huffman::encode(&planes);
        put_u64(&mut bytes, encoded.len() as u64);
        bytes.extend_from_slice(&encoded);
        Ok(bytes)
    }

    fn decompress(&self, bytes: &[u8]) -> Result<Grid<f32>, SzhiError> {
        let (mut cur, dims, abs_eb) = read_header(bytes, MAGIC, "cuSZ-L")?;
        let radius = cur.get_u64().map_err(SzhiError::from)? as u32;
        let outliers = read_int_outliers(&mut cur)?;
        let enc_len = cur.get_u64().map_err(SzhiError::from)? as usize;
        let encoded = cur.take(enc_len).map_err(SzhiError::from)?;
        let planes = huffman::decode(encoded)?;
        let codes = byte_planes_to_codes(&planes, dims.len())?;
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
        let c = CuszL;
        for kind in [DatasetKind::Miranda, DatasetKind::CesmAtm] {
            let dims = if kind == DatasetKind::CesmAtm {
                Dims::d2(60, 80)
            } else {
                Dims::d3(32, 32, 32)
            };
            let g = kind.generate(dims, 3);
            let rel = 1e-3;
            let bytes = c.compress(&g, ErrorBound::Relative(rel)).unwrap();
            let recon = c.decompress(&bytes).unwrap();
            check_bound(&g, &recon, rel * g.value_range() as f64);
        }
    }

    #[test]
    fn compresses_smooth_data() {
        let g = DatasetKind::Miranda.generate(Dims::d3(48, 48, 48), 7);
        let c = CuszL;
        let bytes = c.compress(&g, ErrorBound::Relative(1e-2)).unwrap();
        let ratio = g.dims().nbytes_f32() as f64 / bytes.len() as f64;
        assert!(ratio > 3.0, "cuSZ-L ratio only {ratio:.2}");
    }

    #[test]
    fn rejects_foreign_streams() {
        let c = CuszL;
        assert!(c.decompress(b"garbage").is_err());
        let g = DatasetKind::Nyx.generate(Dims::d3(16, 16, 16), 1);
        let bytes = c.compress(&g, ErrorBound::Relative(1e-2)).unwrap();
        assert!(c.decompress(&bytes[..bytes.len() / 2]).is_err());
    }
}
