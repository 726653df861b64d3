//! The `decode.crc` span fires on the in-memory read path, and
//! `decode.chunk` on every container.
//!
//! Every reader verifies a chunk through the one `verify` step, so
//! `decompress` of an N-chunk archive records exactly N `decode.crc` spans
//! and `decompress_chunk` exactly one — the in-memory path used to compare
//! checksums without the span. A monolithic (v1) stream decodes through
//! the same chunk-decode step as one chunk without a checksum: one
//! `decode.chunk` and no `decode.crc`. The metric registry is
//! process-global, so this file holds a single test: nothing else in the
//! process decodes.

use szhi_core::{compress, compress_chunked, decompress, decompress_chunk, ErrorBound, SzhiConfig};
use szhi_datagen::DatasetKind;
use szhi_ndgrid::Dims;
use szhi_telemetry::Snapshot;

/// The number of `span` records `work` adds to the registry.
fn spans_during(span: &str, work: impl FnOnce()) -> u64 {
    let before = Snapshot::capture();
    work();
    let delta = Snapshot::capture().delta(&before);
    delta.histogram(span).map_or(0, |h| h.count)
}

fn crc_spans_during(work: impl FnOnce()) -> u64 {
    spans_during("decode.crc", work)
}

#[test]
fn decode_crc_fires_once_per_chunk_on_the_in_memory_path() {
    let field = DatasetKind::Miranda.generate(Dims::d3(32, 32, 48), 5);
    let cfg = SzhiConfig::new(ErrorBound::Absolute(1e-3)).with_auto_tune(false);
    let archive = compress_chunked(&field, &cfg, [16, 16, 16]).unwrap();
    assert_eq!(szhi_core::stream_version(&archive).unwrap(), 4);
    let n = szhi_core::chunk_count(&archive).unwrap() as u64;
    assert_eq!(n, 2 * 2 * 3);

    szhi_telemetry::set_stats_enabled(true);
    assert_eq!(crc_spans_during(|| drop(decompress(&archive).unwrap())), n);
    assert_eq!(
        crc_spans_during(|| drop(decompress_chunk(&archive, 5).unwrap())),
        1
    );

    let v1 = compress(&field, &cfg).unwrap();
    assert_eq!(szhi_core::stream_version(&v1).unwrap(), 1);
    assert_eq!(
        spans_during("decode.chunk", || drop(decompress(&v1).unwrap())),
        1
    );
    assert_eq!(crc_spans_during(|| drop(decompress(&v1).unwrap())), 0);
}
