//! Golden-stream compatibility corpus builders.
//!
//! One shared deterministic field is pinned under `tests/golden/` in
//! every container version the workspace has ever shipped (v1 monolithic
//! through v5 tuned), with the field and each stream's `inspect`
//! rendering. The root `tests/golden_streams.rs` suite holds the codebase
//! to the corpus: every version the library still **writes** (v1, v4, v5 —
//! [`BUILT`]) must re-encode byte-exactly, and **every** version must keep
//! decoding to the pinned field within the recorded bound. The v2 and v3
//! streams are frozen: the library reads them but can no longer write
//! them, so `golden-gen` never touches them. Builders must stay
//! deterministic — fixed field, fixed span, absolute bound, no whole-field
//! auto-tuning — and any intentional change to an encoder's output is made
//! visible by regenerating the corpus in the same commit.

use std::path::PathBuf;
use szhi_core::{compress, ErrorBound, ModeTuning, StreamSink, SzhiConfig, SzhiError};
use szhi_ndgrid::{Dims, Grid};

/// Absolute error bound every golden stream is encoded under (recorded
/// in `tests/golden/README.md` and asserted by the decode checks).
pub const GOLDEN_ABS_EB: f64 = 2e-3;

/// Chunk span of the chunked golden streams: 16³ turns the golden field
/// into a 2×2×2 plan whose low-x chunks are smooth and high-x chunks
/// noisy, so per-chunk tuning exercises both production pipelines.
pub(crate) const GOLDEN_SPAN: [usize; 3] = [16, 16, 16];

/// Shape of the golden field.
pub fn golden_dims() -> Dims {
    Dims::d3(24, 20, 32)
}

/// The shared corpus field: deterministic in its dims alone (half
/// smooth ramp, half hash noise — see
/// [`szhi_datagen::mixed_smooth_noisy`]).
pub fn golden_field() -> Grid<f32> {
    szhi_datagen::mixed_smooth_noisy(golden_dims())
}

/// Every container version with a pinned golden stream, oldest first.
pub fn versions() -> [u8; 5] {
    [1, 2, 3, 4, 5]
}

/// The versions the library still writes, and [`build`] therefore builds;
/// the rest of [`versions`] is frozen in the corpus.
pub const BUILT: [u8; 3] = [1, 4, 5];

/// The corpus directory, `tests/golden/` at the workspace root.
pub fn corpus_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden"))
}

/// Reads the pinned stream of one container version from the corpus.
pub fn pinned(version: u8) -> std::io::Result<Vec<u8>> {
    std::fs::read(corpus_dir().join(format!("v{version}.szhi")))
}

fn base() -> SzhiConfig {
    SzhiConfig::new(ErrorBound::Absolute(GOLDEN_ABS_EB)).with_auto_tune(false)
}

/// Builds the golden stream of one of the [`BUILT`] container versions
/// from `field`, the way it was produced when it shipped: v1 by the
/// monolithic engine, v4 by a [`StreamSink`] with estimator-guided mode
/// tuning, and v5 by the same sink with per-chunk interpolation tuning on
/// top. (The frozen v2 was a global-mode chunked stream, v3 the chunked
/// engine with per-chunk CR/TP selection.)
pub fn build(version: u8, field: &Grid<f32>) -> Result<Vec<u8>, SzhiError> {
    match version {
        1 => compress(field, &base()),
        4 => sink_stream(
            field,
            &base()
                .with_chunk_span(GOLDEN_SPAN)
                .with_mode_tuning(ModeTuning::estimated()),
        ),
        5 => sink_stream(
            field,
            &base()
                .with_chunk_span(GOLDEN_SPAN)
                .with_mode_tuning(ModeTuning::estimated())
                .with_chunk_interp_tuning(true),
        ),
        v => Err(SzhiError::InvalidInput(format!(
            "no golden builder for container version {v}"
        ))),
    }
}

fn sink_stream(field: &Grid<f32>, cfg: &SzhiConfig) -> Result<Vec<u8>, SzhiError> {
    let mut sink = StreamSink::new(Vec::new(), field.dims(), cfg)?;
    while let Some(region) = sink.next_chunk_region() {
        let dims = sink.plan().chunk_dims(sink.next_index());
        sink.push_chunk(&Grid::from_vec(dims, field.extract(&region)))?;
    }
    sink.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use szhi_core::{decompress, stream_version};

    #[test]
    fn builders_are_deterministic_and_version_correct() {
        let field = golden_field();
        for v in BUILT {
            let a = build(v, &field).unwrap();
            let b = build(v, &field).unwrap();
            assert_eq!(a, b, "v{v} builder must be deterministic");
            assert_eq!(stream_version(&a).unwrap(), v, "v{v} builder version");
        }
        for v in [2, 3, 6] {
            assert!(build(v, &field).is_err(), "v{v} has no builder");
        }
    }

    #[test]
    fn every_golden_version_decodes_within_the_recorded_bound() {
        let field = golden_field();
        for v in versions() {
            // Frozen versions come from the corpus, the rest are rebuilt.
            let bytes = if BUILT.contains(&v) {
                build(v, &field).unwrap()
            } else {
                pinned(v).unwrap()
            };
            assert_eq!(stream_version(&bytes).unwrap(), v);
            let restored = decompress(&bytes).unwrap();
            assert_eq!(restored.dims(), field.dims());
            for (a, b) in field.as_slice().iter().zip(restored.as_slice()) {
                assert!(
                    ((*a as f64) - (*b as f64)).abs() <= GOLDEN_ABS_EB,
                    "v{v} violates the golden bound"
                );
            }
        }
    }
}
