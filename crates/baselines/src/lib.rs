//! Baseline GPU scientific lossy compressors, re-implemented from scratch.
//!
//! The paper's evaluation (§6.1.2) compares cuSZ-Hi against five baselines:
//! cuSZ in its Lorenzo (`cuSZ-L`), interpolation (`cuSZ-I`) and
//! interpolation-plus-Bitcomp (`cuSZ-IB`) modes, cuSZp2, FZ-GPU and cuZFP.
//! None of these is available here (they are CUDA code bases, one of them
//! proprietary), so this crate re-implements each compressor's algorithm on
//! the same substrates the rest of the workspace uses:
//!
//! | Baseline | Lossy decomposition | Lossless encoding |
//! |---|---|---|
//! | [`CuszL`]  | dual-quant Lorenzo               | Huffman over byte-planes |
//! | [`CuszI`]  | cuSZ-I interpolation (stride 8)  | Huffman |
//! | [`CuszIb`] | cuSZ-I interpolation (stride 8)  | Huffman + Bitcomp-sim |
//! | [`Cuszp2`] | 1D block offset prediction       | per-block fixed-length packing |
//! | [`FzGpu`]  | dual-quant Lorenzo               | bit-shuffle + zero elimination |
//! | [`CuZfp`]  | block orthogonal transform       | bit-plane truncation (fixed rate) |
//!
//! [`CuszL`] and [`FzGpu`] share the dual-quantization Lorenzo predictor in
//! `lorenzo`.
//!
//! All baselines implement the common [`Compressor`] trait so the experiment
//! harness can sweep over them uniformly; the two cuSZ-Hi modes are wrapped
//! behind the same trait as [`SzhiCr`] and [`SzhiTp`].
#![forbid(unsafe_code)]

mod cusz_i;
mod cusz_l;
mod cuszp2;
mod cuzfp;
mod fzgpu;
mod lorenzo;
mod stream;

pub use cusz_i::{CuszI, CuszIb};
pub use cusz_l::CuszL;
pub use cuszp2::Cuszp2;
pub use cuzfp::CuZfp;
pub use fzgpu::FzGpu;

use szhi_core::{ErrorBound, PipelineMode, SzhiConfig, SzhiError};
use szhi_ndgrid::Grid;

/// A scientific error-bounded lossy compressor with a bytes-in/bytes-out
/// interface, as used by every experiment in the harness.
pub trait Compressor: Send + Sync {
    /// Display name matching the paper's tables (e.g. `"cuSZ-L"`).
    fn name(&self) -> &'static str;

    /// Whether the compressor honours a point-wise error bound. `false` only
    /// for the fixed-rate cuZFP, which the paper excludes from the
    /// fixed-error-bound comparison (Table 4).
    fn supports_error_bound(&self) -> bool {
        true
    }

    /// Compresses `data` under the given error bound.
    fn compress(&self, data: &Grid<f32>, eb: ErrorBound) -> Result<Vec<u8>, SzhiError>;

    /// Decompresses a stream produced by this compressor's [`Compressor::compress`].
    fn decompress(&self, bytes: &[u8]) -> Result<Grid<f32>, SzhiError>;
}

/// cuSZ-Hi in CR (compression-ratio-preferred) mode, behind the baseline
/// trait for uniform benchmarking.
#[derive(Debug, Default, Clone, Copy)]
pub struct SzhiCr;

impl Compressor for SzhiCr {
    fn name(&self) -> &'static str {
        "cuSZ-Hi-CR"
    }
    fn compress(&self, data: &Grid<f32>, eb: ErrorBound) -> Result<Vec<u8>, SzhiError> {
        szhi_core::compress(data, &SzhiConfig::new(eb).with_mode(PipelineMode::Cr))
    }
    fn decompress(&self, bytes: &[u8]) -> Result<Grid<f32>, SzhiError> {
        szhi_core::decompress(bytes)
    }
}

/// cuSZ-Hi in TP (throughput-preferred) mode, behind the baseline trait.
#[derive(Debug, Default, Clone, Copy)]
pub struct SzhiTp;

impl Compressor for SzhiTp {
    fn name(&self) -> &'static str {
        "cuSZ-Hi-TP"
    }
    fn compress(&self, data: &Grid<f32>, eb: ErrorBound) -> Result<Vec<u8>, SzhiError> {
        szhi_core::compress(data, &SzhiConfig::new(eb).with_mode(PipelineMode::Tp))
    }
    fn decompress(&self, bytes: &[u8]) -> Result<Grid<f32>, SzhiError> {
        szhi_core::decompress(bytes)
    }
}

/// Every error-bounded compressor of the paper's Table 4, in row order:
/// the two cuSZ-Hi modes followed by the baselines.
pub fn table4_compressors() -> Vec<Box<dyn Compressor>> {
    vec![
        Box::new(SzhiCr),
        Box::new(SzhiTp),
        Box::new(CuszL),
        Box::new(CuszI),
        Box::new(CuszIb),
        Box::new(Cuszp2),
        Box::new(FzGpu),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use szhi_datagen::DatasetKind;
    use szhi_ndgrid::Dims;

    #[test]
    fn wrapper_modes_roundtrip() {
        let g = DatasetKind::Miranda.generate(Dims::d3(33, 33, 33), 5);
        for c in [&SzhiCr as &dyn Compressor, &SzhiTp] {
            let bytes = c.compress(&g, ErrorBound::Relative(1e-3)).unwrap();
            let recon = c.decompress(&bytes).unwrap();
            assert_eq!(recon.dims(), g.dims());
        }
    }

    #[test]
    fn table4_set_has_seven_entries_with_unique_names() {
        let set = table4_compressors();
        assert_eq!(set.len(), 7);
        let names: std::collections::HashSet<_> = set.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), 7);
        assert!(set.iter().all(|c| c.supports_error_bound()));
    }

    #[test]
    fn counts_past_the_stream_end_are_typed_errors() {
        // A count read from the stream, far above the bytes present, must
        // fail before it sizes an allocation: cuSZ-I's anchor count sits
        // behind the 37-byte header and the flag byte, cuSZ-L's outlier
        // count behind the header and the radius.
        let g = DatasetKind::Nyx.generate(Dims::d3(16, 16, 16), 1);
        for (c, at) in [(&CuszI as &dyn Compressor, 38), (&CuszL, 45)] {
            let mut bytes = c.compress(&g, ErrorBound::Relative(1e-2)).unwrap();
            bytes[at..at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
            assert!(
                matches!(c.decompress(&bytes), Err(SzhiError::InvalidStream(_))),
                "{}: a count past the stream end was not a typed error",
                c.name()
            );
        }
    }

    #[test]
    fn inconsistent_outlier_records_are_typed_errors() {
        // cuSZ-L and FZ-GPU streams: the common header (37 bytes), the
        // radius, then the outlier count and its 16-byte records.
        const COUNT_AT: usize = 45;
        let g = DatasetKind::Nyx.generate(Dims::d3(16, 16, 16), 1);
        for c in [&CuszL as &dyn Compressor, &FzGpu] {
            let bytes = c.compress(&g, ErrorBound::Relative(1e-4)).unwrap();
            let n = u64::from_le_bytes(bytes[COUNT_AT..COUNT_AT + 8].try_into().unwrap()) as usize;
            assert!(n >= 2, "{}: {n} outliers", c.name());
            let records = COUNT_AT + 8..COUNT_AT + 8 + 16 * n;

            let mut cut = bytes[..COUNT_AT].to_vec();
            cut.extend_from_slice(&0u64.to_le_bytes());
            cut.extend_from_slice(&bytes[records.end..]);
            let mut swapped = bytes.clone();
            for k in records.start..records.start + 16 {
                swapped.swap(k, k + 16);
            }

            for (what, stream) in [("cut", cut), ("swapped", swapped)] {
                assert!(
                    matches!(c.decompress(&stream), Err(SzhiError::InvalidStream(_))),
                    "{}: {what} records",
                    c.name()
                );
            }
        }
        let mut out = lorenzo::compress(&g, 1e-4, lorenzo::DEFAULT_RADIUS).unwrap();
        out.outliers.push((u64::MAX, 0));
        assert!(matches!(
            lorenzo::decompress(&out, g.dims(), 1e-4),
            Err(SzhiError::InvalidStream(_))
        ));
        out.codes.pop();
        assert!(matches!(
            lorenzo::decompress(&out, g.dims(), 1e-4),
            Err(SzhiError::InvalidStream(_))
        ));
    }

    #[test]
    fn values_that_cannot_be_prequantized_are_typed_errors() {
        // `round(v / 2eb)` past the i64 range would saturate, and NaN would
        // cast to 0: either decodes far outside the bound. A field with
        // 3e30 at every 97th point, one with a NaN point and one with
        // infinite points are rejected at compress time, naming the first
        // such point.
        let g = DatasetKind::Nyx.generate(Dims::d3(16, 16, 16), 1);
        let with = |f: &dyn Fn(usize, f32) -> f32| {
            let values = g.as_slice().iter().enumerate().map(|(i, &v)| f(i, v));
            Grid::from_vec(g.dims(), values.collect())
        };
        let fields = [
            (
                with(&|i, v| if i % 97 == 0 { 3e30 } else { v }),
                "(0, 0, 0)",
            ),
            (
                with(&|i, v| if i == 1000 { f32::NAN } else { v }),
                "(3, 14, 8)",
            ),
            (
                with(&|i, v| match i {
                    300 => f32::INFINITY,
                    301 => f32::NEG_INFINITY,
                    _ => v,
                }),
                "(1, 2, 12)",
            ),
        ];
        for (field, point) in &fields {
            for c in [&CuszL as &dyn Compressor, &FzGpu] {
                let result = c.compress(field, ErrorBound::Absolute(1e-3));
                assert!(
                    matches!(&result, Err(SzhiError::InvalidInput(msg)) if msg.contains(point)),
                    "{}: {result:?}",
                    c.name()
                );
            }
        }
    }

    #[test]
    fn values_past_i64_are_typed_errors() {
        // A cuSZ-L outlier record holding `i64::MAX` overflows the next
        // point's prediction, and an FZ-GPU radius of `0x7fff_ffff`
        // overflows the code it re-centres; both fields sit right behind
        // the 37-byte header (radius, then outlier count and records).
        const RADIUS_AT: usize = 37;
        const FIRST_VALUE_AT: usize = RADIUS_AT + 8 + 8 + 8;
        let g = DatasetKind::Nyx.generate(Dims::d3(16, 16, 16), 1);
        let mut cusz_l = CuszL.compress(&g, ErrorBound::Relative(1e-4)).unwrap();
        cusz_l[FIRST_VALUE_AT..FIRST_VALUE_AT + 8].copy_from_slice(&i64::MAX.to_le_bytes());
        let mut fz_gpu = FzGpu.compress(&g, ErrorBound::Relative(1e-4)).unwrap();
        fz_gpu[RADIUS_AT..RADIUS_AT + 8].copy_from_slice(&0x7fff_ffffu64.to_le_bytes());
        for (c, stream) in [(&CuszL as &dyn Compressor, cusz_l), (&FzGpu, fz_gpu)] {
            assert!(
                matches!(c.decompress(&stream), Err(SzhiError::InvalidStream(_))),
                "{}",
                c.name()
            );
        }
    }
}
