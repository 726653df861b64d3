//! Golden-stream compatibility suite.
//!
//! The pinned assets under `tests/golden/` (see its README) lock down
//! three surfaces at once:
//!
//! 1. **written-version byte-exactness** — re-encoding the pinned field
//!    with today's encoders must reproduce `v1.szhi`, `v4.szhi` and
//!    `v5.szhi` (every version the library still writes) bit for bit, so
//!    no change to the predictor, the tuner, any lossless stage or the
//!    container framing can alter a shipped container unnoticed;
//! 2. **historical decode compatibility** — every container version ever
//!    shipped (v1–v5, the frozen v2 and v3 included) must keep decoding to
//!    the pinned field within the recorded bound, and every read path
//!    (seekable `StreamSource`, forward-only `ForwardSource`, whole and
//!    chunk by chunk) must give the value bits of in-memory `decompress`
//!    and `decompress_chunk`;
//! 3. **inspect stability** — the `szhi-cli inspect` rendering of each
//!    stream is pinned text, so the metadata surface cannot drift.
//!
//! Regenerate the corpus (`cargo run -p szhi-cli --bin golden-gen`) only
//! for an intentional format or encoder change, in the same commit.

use szhi::prelude::*;
use szhi_cli::golden::{self, GOLDEN_ABS_EB};

fn pinned(name: &str) -> Vec<u8> {
    let path = golden::corpus_dir().join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

fn pinned_field() -> Grid<f32> {
    let bytes = pinned("field.f32");
    Grid::from_vec(
        golden::golden_dims(),
        bytes
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect(),
    )
}

fn assert_within_bound(version: u8, field: &Grid<f32>, restored: &Grid<f32>) {
    assert_eq!(restored.dims(), field.dims(), "v{version} dims");
    for (a, b) in field.as_slice().iter().zip(restored.as_slice()) {
        assert!(
            ((*a as f64) - (*b as f64)).abs() <= GOLDEN_ABS_EB,
            "v{version} decode violates the recorded bound"
        );
    }
}

#[test]
fn the_pinned_field_is_the_generator_field() {
    // The corpus is self-consistent: the checked-in field is exactly what
    // the deterministic generator produces, so "decodes to the pinned
    // field" and "decodes to the generator field" are the same statement.
    assert_eq!(pinned_field().as_slice(), golden::golden_field().as_slice());
}

#[test]
fn current_version_reencodes_byte_exactly() {
    let field = pinned_field();
    for v in golden::BUILT {
        let rebuilt = golden::build(v, &field).expect("golden build");
        assert_eq!(
            rebuilt,
            pinned(&format!("v{v}.szhi")),
            "the v{v} encoder no longer reproduces the pinned stream — if this change \
             is intentional, regenerate the corpus with `cargo run -p szhi-cli --bin \
             golden-gen` in the same commit"
        );
    }
}

#[test]
fn every_historical_version_decodes_within_the_recorded_bound() {
    let field = pinned_field();
    for v in golden::versions() {
        let bytes = pinned(&format!("v{v}.szhi"));
        assert_eq!(szhi::core::stream_version(&bytes).unwrap(), v);
        assert_within_bound(v, &field, &decompress(&bytes).unwrap());
    }
}

fn bits(values: &Grid<f32>) -> Vec<u32> {
    values.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn chunked_versions_decode_through_every_streaming_read_path() {
    let field = pinned_field();
    for v in [2u8, 3, 4, 5] {
        let bytes = pinned(&format!("v{v}.szhi"));
        let whole = decompress(&bytes).unwrap();
        assert_within_bound(v, &field, &whole);
        // Seekable bounded-memory source, and the forward-only source over
        // a plain `Read` (no `Seek`): the same value bits as `decompress`.
        let mut source = StreamSource::from_bytes(&bytes).unwrap();
        assert_eq!(
            bits(&source.read_all().unwrap()),
            bits(&whole),
            "v{v} seekable"
        );
        let mut forward = ForwardSource::new(&bytes[..]).unwrap();
        assert_eq!(
            bits(&forward.read_all().unwrap()),
            bits(&whole),
            "v{v} forward"
        );
        // Chunk by chunk, both against `decompress_chunk`.
        let mut forward = ForwardSource::new(&bytes[..]).unwrap();
        for i in 0..source.chunk_count() {
            let (region, want) = szhi::core::decompress_chunk(&bytes, i).unwrap();
            for (got_region, got) in
                [source.read_chunk(i), forward.read_chunk(i)].map(Result::unwrap)
            {
                assert_eq!(got_region, region, "v{v} chunk {i}");
                assert_eq!(bits(&got), bits(&want), "v{v} chunk {i}");
            }
        }
    }
}

#[test]
fn inspect_renderings_are_pinned() {
    for v in golden::versions() {
        let bytes = pinned(&format!("v{v}.szhi"));
        let report = szhi_cli::inspect::render(&bytes).unwrap();
        let want = String::from_utf8(pinned(&format!("v{v}.inspect.txt"))).unwrap();
        assert_eq!(
            report, want,
            "`inspect` output for v{v} drifted from the pinned rendering — if \
             intentional, regenerate the corpus with golden-gen in the same commit"
        );
    }
}
