//! cuSZ-I and cuSZ-IB: the interpolation modes of cuSZ.
//!
//! cuSZ-I uses the original interpolation configuration (anchor stride 8,
//! anisotropic 33×9×9 tiles, dimension-sequence cubic interpolation) with
//! plain Huffman encoding of the quantization codes. cuSZ-IB appends the
//! NVIDIA-Bitcomp lossless pass — represented here by the Bitcomp simulator,
//! see [`szhi_codec::bitcomp_sim`] — which is what made cuSZ-I(B) the
//! strongest high-ratio GPU baseline before cuSZ-Hi.

use crate::stream::{read_header, write_header};
use crate::Compressor;
use szhi_codec::bitio::put_u8;
use szhi_codec::PipelineSpec;
use szhi_core::format::{read_chunk_sections, write_sections};
use szhi_core::{ErrorBound, SzhiError};
use szhi_ndgrid::Grid;
use szhi_predictor::{InterpConfig, InterpOutput, InterpPredictor};

const MAGIC: &[u8; 4] = b"CZI1";

fn compress_interp(
    data: &Grid<f32>,
    eb: ErrorBound,
    pipeline: PipelineSpec,
    use_bitcomp_flag: u8,
) -> Result<Vec<u8>, SzhiError> {
    if data.is_empty() {
        return Err(SzhiError::InvalidInput("empty field".into()));
    }
    let abs_eb = eb.absolute(data.value_range() as f64);
    let cfg = InterpConfig::cusz_i();
    let predictor = InterpPredictor::new(cfg).expect("the cuSZ-I configuration is valid");
    let out = predictor.compress(data, abs_eb);

    let mut bytes = Vec::new();
    write_header(&mut bytes, MAGIC, data.dims(), abs_eb);
    put_u8(&mut bytes, use_bitcomp_flag);
    let payload = pipeline.encode(&out.codes);
    write_sections(&mut bytes, &out.anchors, &out.outliers, &payload);
    Ok(bytes)
}

fn decompress_interp(bytes: &[u8], name: &str) -> Result<Grid<f32>, SzhiError> {
    let (mut cur, dims, abs_eb) = read_header(bytes, MAGIC, name)?;
    let bitcomp = cur.get_u8().map_err(SzhiError::from)?;
    let pipeline = if bitcomp != 0 {
        PipelineSpec::HfBitcomp
    } else {
        PipelineSpec::Hf
    };
    let (anchors, outliers, payload) = read_chunk_sections(cur.take_rest())?;
    let codes = pipeline.decode_bounded(payload, dims.len())?;
    if codes.len() != dims.len() {
        return Err(SzhiError::InvalidStream(format!(
            "{name}: decoded {} codes for {} points",
            codes.len(),
            dims.len()
        )));
    }
    // The predictor owns the consistency checks (anchor count, outlier
    // completeness) and reports violations as typed errors.
    let cfg = InterpConfig::cusz_i();
    let predictor = InterpPredictor::new(cfg).expect("the cuSZ-I configuration is valid");
    predictor
        .decompress(
            dims,
            abs_eb,
            &InterpOutput {
                anchors,
                codes,
                outliers,
            },
        )
        .map_err(|e| SzhiError::InvalidStream(format!("{name}: {e}")))
}

/// The cuSZ-I baseline (interpolation predictor + Huffman).
#[derive(Debug, Default, Clone, Copy)]
pub struct CuszI;

impl Compressor for CuszI {
    fn name(&self) -> &'static str {
        "cuSZ-I"
    }
    fn compress(&self, data: &Grid<f32>, eb: ErrorBound) -> Result<Vec<u8>, SzhiError> {
        compress_interp(data, eb, PipelineSpec::Hf, 0)
    }
    fn decompress(&self, bytes: &[u8]) -> Result<Grid<f32>, SzhiError> {
        decompress_interp(bytes, "cuSZ-I")
    }
}

/// The cuSZ-IB baseline (interpolation predictor + Huffman + Bitcomp-sim).
#[derive(Debug, Default, Clone, Copy)]
pub struct CuszIb;

impl Compressor for CuszIb {
    fn name(&self) -> &'static str {
        "cuSZ-IB"
    }
    fn compress(&self, data: &Grid<f32>, eb: ErrorBound) -> Result<Vec<u8>, SzhiError> {
        compress_interp(data, eb, PipelineSpec::HfBitcomp, 1)
    }
    fn decompress(&self, bytes: &[u8]) -> Result<Grid<f32>, SzhiError> {
        decompress_interp(bytes, "cuSZ-IB")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use szhi_datagen::DatasetKind;
    use szhi_ndgrid::Dims;

    fn check_bound(orig: &Grid<f32>, recon: &Grid<f32>, abs_eb: f64) {
        for (a, b) in orig.as_slice().iter().zip(recon.as_slice()) {
            assert!(
                ((*a as f64) - (*b as f64)).abs() <= abs_eb + 1e-12,
                "{a} vs {b}"
            );
        }
    }

    #[test]
    fn both_variants_roundtrip_within_bound() {
        let g = DatasetKind::Jhtdb.generate(Dims::d3(33, 35, 40), 3);
        let rel = 1e-3;
        let abs = rel * g.value_range() as f64;
        for c in [&CuszI as &dyn Compressor, &CuszIb] {
            let bytes = c.compress(&g, ErrorBound::Relative(rel)).unwrap();
            let recon = c.decompress(&bytes).unwrap();
            check_bound(&g, &recon, abs);
        }
    }

    #[test]
    fn bitcomp_variant_compresses_at_least_as_well() {
        let g = DatasetKind::Nyx.generate(Dims::d3(48, 48, 48), 5);
        let plain = CuszI
            .compress(&g, ErrorBound::Relative(1e-2))
            .unwrap()
            .len();
        let ib = CuszIb
            .compress(&g, ErrorBound::Relative(1e-2))
            .unwrap()
            .len();
        assert!(
            ib as f64 <= plain as f64 * 1.02,
            "cuSZ-IB ({ib}) should not be larger than cuSZ-I ({plain})"
        );
    }

    #[test]
    fn two_d_fields_roundtrip() {
        let g = DatasetKind::CesmAtm.generate(Dims::d2(70, 90), 1);
        let bytes = CuszIb.compress(&g, ErrorBound::Relative(1e-3)).unwrap();
        let recon = CuszIb.decompress(&bytes).unwrap();
        check_bound(&g, &recon, 1e-3 * g.value_range() as f64);
    }

    #[test]
    fn foreign_streams_are_rejected() {
        assert!(CuszI.decompress(b"nope").is_err());
        let g = DatasetKind::Rtm.generate(Dims::d3(20, 20, 20), 2);
        let bytes = CuszI.compress(&g, ErrorBound::Relative(1e-2)).unwrap();
        assert!(CuszIb.decompress(&bytes).is_ok() || CuszIb.decompress(&bytes).is_err());
        assert!(CuszI.decompress(&bytes[..40]).is_err());
    }
}
