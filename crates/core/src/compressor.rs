//! The end-to-end cuSZ-Hi compression and decompression pipelines.
//!
//! Both batch engines run the one per-chunk encode chain of
//! [`crate::stream`] (predict → reorder → lossless stages → frame), and
//! [`decompress`] reads every container back through its one chunk-decode
//! step (lossless stages → restore → reconstruct):
//!
//! * the **monolithic** engine treats the whole grid as a one-chunk plan —
//!   global pipeline mode, no per-chunk tuning — and frames the body with
//!   the v1 header; [`decompress`] reads it as a one-chunk index. The chunk
//!   never leaves the calling thread, so only the planes of its large
//!   interpolation levels spread over the pool; set a chunk span to use
//!   cores for the rest;
//! * the **chunked** engine ([`compress_chunked`]) splits the grid into
//!   independent anchor-aligned chunks ([`szhi_ndgrid::ChunkPlan`]) and
//!   hands the whole field to a [`StreamSink`] over a `Vec`, which encodes
//!   the chunks in parallel and writes them in plan order, so the batch
//!   output (a v4 container; v5 with per-chunk interpolation tuning) is
//!   byte-identical to pushing the same chunks one at a time. Chunks
//!   decompress independently too — [`decompress`] decodes them in
//!   parallel straight from the byte slice into the output, and
//!   [`decompress_chunk`] random-accesses a single chunk without touching
//!   the rest of the stream.
//!
//! Chunked streams are byte-identical regardless of the worker-thread count:
//! every chunk is a pure function of (its sub-field, the config), and the
//! container assembles them in chunk order.

use crate::config::{ErrorBound, ModeTuning, SzhiConfig};
use crate::error::SzhiError;
use crate::format::{
    locate_table, monolithic_index, read_chunk_table, stream_version, write_header, StreamIndex,
    VERSION,
};
use crate::stream::{checked_plan, ChunkEncoder, EncodeScratch, StreamSink};
use rayon::prelude::*;
use std::io::Cursor;
use std::sync::{Mutex, PoisonError};
use szhi_ndgrid::{ChunkPlan, Grid, Region};
use szhi_predictor::autotune;

/// Statistics of one compression run, returned by
/// [`StreamSink::finish_with_stats`](crate::StreamSink::finish_with_stats).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressionStats {
    /// Uncompressed input size in bytes.
    pub original_bytes: usize,
    /// Compressed output size in bytes.
    pub compressed_bytes: usize,
    /// Compression ratio (`original / compressed`).
    pub compression_ratio: f64,
    /// Absolute error bound used.
    pub abs_eb: f64,
    /// Number of losslessly stored anchors.
    pub anchors: usize,
    /// Number of outlier points.
    pub outliers: usize,
    /// Size in bytes of the pipeline-encoded quantization codes.
    pub encoded_codes_bytes: usize,
}

/// Compresses `data` under `cfg`, returning the self-describing byte
/// stream. With `cfg.chunk_span` set this produces a trailered (v4) or
/// tuned (v5) container, otherwise a monolithic (v1) stream.
pub fn compress(data: &Grid<f32>, cfg: &SzhiConfig) -> Result<Vec<u8>, SzhiError> {
    compress_with_stats(data, cfg).map(|(bytes, _)| bytes)
}

/// Compresses `data` under `cfg`, returning the stream and its statistics.
pub(crate) fn compress_with_stats(
    data: &Grid<f32>,
    cfg: &SzhiConfig,
) -> Result<(Vec<u8>, CompressionStats), SzhiError> {
    if let Some(span) = cfg.chunk_span {
        return compress_chunked_with_stats(data, cfg, span);
    }
    // The monolithic engine is the chunk chain over a one-chunk plan: one
    // global pipeline, the (auto-tuned) header configuration.
    let dims = data.dims();
    let cfg = SzhiConfig {
        mode_tuning: ModeTuning::Global,
        chunk_interp_tuning: false,
        ..resolve(data, cfg)?
    };
    let whole = ChunkPlan::new(dims, [dims.nz(), dims.ny(), dims.nx()]);
    let enc = ChunkEncoder::new(whole, &cfg)?;
    // A local scratch, not the encode threads' retained one: its buffers
    // are field-sized here and must not outlive the encode.
    let mut body = Vec::new();
    let meta = {
        let mut scratch = EncodeScratch::default();
        scratch.plane.extend_from_slice(data.as_slice());
        enc.encode_into(0, &mut scratch, &mut body)?
    };
    let mut bytes = Vec::with_capacity(64 + body.len());
    write_header(&mut bytes, enc.header(), VERSION);
    bytes.extend_from_slice(&body);
    let stats = CompressionStats {
        original_bytes: dims.nbytes_f32(),
        compressed_bytes: bytes.len(),
        compression_ratio: dims.nbytes_f32() as f64 / bytes.len() as f64,
        abs_eb: enc.header().abs_eb,
        anchors: meta.anchors,
        outliers: meta.outliers,
        encoded_codes_bytes: meta.payload_bytes,
    };
    Ok((bytes, stats))
}

/// Compresses `data` into a trailered (v4, or tuned v5) container with the
/// given chunk span, regardless of `cfg.chunk_span`.
pub fn compress_chunked(
    data: &Grid<f32>,
    cfg: &SzhiConfig,
    span: [usize; 3],
) -> Result<Vec<u8>, SzhiError> {
    compress_chunked_with_stats(data, cfg, span).map(|(bytes, _)| bytes)
}

/// Compresses `data` into a trailered (v4, or tuned v5) container,
/// returning the stream and its aggregated statistics.
///
/// The error bound is resolved and the interpolation configuration is
/// auto-tuned **once, globally**, then every chunk is compressed as an
/// independent sub-field (its own anchors, codes and outliers) in parallel
/// and written by a [`StreamSink`] over a `Vec` in plan order — so the
/// output is byte-identical to pushing the same chunks through a sink one
/// at a time. With [`ModeTuning::PerChunk`] each chunk's lossless pipeline is
/// selected independently and recorded in the chunk table. The span must
/// obey the chunk-alignment rule: a positive multiple of the anchor stride
/// along every non-degenerate axis (spans larger than the grid are clamped
/// to one whole-field chunk).
pub(crate) fn compress_chunked_with_stats(
    data: &Grid<f32>,
    cfg: &SzhiConfig,
    span: [usize; 3],
) -> Result<(Vec<u8>, CompressionStats), SzhiError> {
    // An invalid span must fail before auto-tuning samples the whole field.
    let n = checked_plan(data.dims(), span, &cfg.interp)?.len();
    let cfg = resolve(data, cfg)?.with_chunk_span(span);
    let mut sink = StreamSink::new(Vec::new(), data.dims(), &cfg)?;
    sink.push_range(data, 0..n, |_| Ok(()))?;
    sink.finish_with_stats()
}

/// Resolves a configuration against the field it will compress: the error
/// bound becomes absolute and the interpolation configuration the
/// (optionally auto-tuned) one, with auto-tuning switched off — the form
/// the chunk encoder takes.
fn resolve(data: &Grid<f32>, cfg: &SzhiConfig) -> Result<SzhiConfig, SzhiError> {
    if data.is_empty() {
        return Err(SzhiError::InvalidInput(
            "cannot compress an empty field".into(),
        ));
    }
    cfg.interp
        .validate()
        .map_err(|e| SzhiError::InvalidInput(e.to_string()))?;
    let abs_eb = cfg.error_bound.absolute(data.value_range() as f64);
    if !(abs_eb.is_finite() && abs_eb > 0.0) {
        return Err(SzhiError::InvalidInput(format!(
            "invalid error bound {abs_eb}"
        )));
    }
    // Optionally auto-tune the interpolation configuration on a 0.2 %
    // sample (§5.1.3). For chunked streams the tuning runs once on the
    // whole field, so every chunk shares one configuration.
    let interp = if cfg.auto_tune {
        autotune::tune(data, &cfg.interp).0
    } else {
        cfg.interp.clone()
    };
    Ok(SzhiConfig {
        error_bound: ErrorBound::Absolute(abs_eb),
        auto_tune: false,
        interp,
        ..cfg.clone()
    })
}

/// Decompresses a stream produced by [`compress`], [`compress_chunked`] or
/// a [`StreamSink`] (every container version — v1 monolithic, v2 chunked,
/// v3 streamed, v4 trailered, v5 tuned — is self-describing; chunk-bearing
/// containers decompress their chunks in parallel, with v3+ chunks verified
/// against their checksums first and v5 chunks decoded with their own
/// per-chunk predictor configuration).
///
/// Every stream decodes through the one chunk-decode step; a v1 stream is
/// a single chunk covering the whole field. A one-chunk stream decodes on
/// the calling thread, so the planes of its large levels spread over the
/// pool. A multi-chunk stream decodes into the output: each worker
/// reconstructs a chunk into its own reused scratch and copies it into the
/// field, so the decode holds the field plus one chunk per worker. A
/// corrupt stream reports its lowest-index failing chunk, at every thread
/// count.
pub fn decompress(bytes: &[u8]) -> Result<Grid<f32>, SzhiError> {
    let index = if stream_version(bytes)? == VERSION {
        monolithic_index(bytes)?
    } else {
        locate_table(&mut Cursor::new(bytes))?
    };
    if index.chunk_count() == 1 {
        let body = index.table.entry_slice(bytes, 0)?.1;
        return StreamIndex::decode(&index, 0, body).map(|(_, field)| field);
    }
    // Allocated only once the header and the table are validated. A chunk's
    // insert, one copy under the lock, is far shorter than its decode.
    let out = Mutex::new(Grid::zeros(index.dims()));
    let decoded: Vec<Result<(), SzhiError>> = (0..index.chunk_count())
        .into_par_iter()
        .with_max_len(1)
        .map(|i| index.decode_slice_into(bytes, i, &out))
        .collect();
    decoded.into_iter().collect::<Result<(), _>>()?;
    Ok(out.into_inner().unwrap_or_else(PoisonError::into_inner))
}

/// Randomly accesses one chunk of a chunked (v2), streamed (v3),
/// trailered (v4) or tuned (v5) container: decompresses only chunk
/// `index`, returning the region of the original field it covers and the
/// reconstructed sub-field. Only the header and chunk table are parsed
/// besides the chunk body itself; a v3+ chunk is verified against its
/// CRC32 before decoding.
///
/// ```
/// use szhi_core::{compress, decompress_chunk, ErrorBound, SzhiConfig};
/// use szhi_ndgrid::{Dims, Grid};
///
/// let field = Grid::from_fn(Dims::d3(40, 32, 32), |z, y, x| {
///     (x as f32 * 0.1).sin() + (y + z) as f32 * 0.02
/// });
/// let cfg = SzhiConfig::new(ErrorBound::Relative(1e-3)).with_chunk_span([32, 32, 32]);
/// let bytes = compress(&field, &cfg).unwrap();
/// let (region, sub) = decompress_chunk(&bytes, 1).unwrap();
/// assert_eq!(sub.len(), region.len());
/// assert_eq!(region.z0(), 32); // the second chunk along z
/// ```
pub fn decompress_chunk(bytes: &[u8], index: usize) -> Result<(Region, Grid<f32>), SzhiError> {
    let stream = locate_table(&mut Cursor::new(bytes))?;
    stream.entry(index)?;
    StreamIndex::decode(&stream, index, stream.table.entry_slice(bytes, index)?.1)
}

/// Number of chunks of any chunk-bearing container (v2 chunked, v3
/// streamed, v4 trailered, v5 tuned).
pub fn chunk_count(bytes: &[u8]) -> Result<usize, SzhiError> {
    let (_, table) = read_chunk_table(bytes)?;
    Ok(table.entries.len())
}

/// The mode name the paper uses for a configuration (`cuSZ-Hi-CR` /
/// `cuSZ-Hi-TP`).
#[cfg(test)]
fn mode_label(mode: crate::PipelineMode) -> String {
    format!("cuSZ-Hi-{}", mode.name())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ErrorBound, PipelineMode, SzhiConfig};
    use crate::format::legacy::recontain;
    use crate::format::{VERSION_CHUNKED, VERSION_STREAMED, VERSION_TRAILERED};
    use szhi_datagen::DatasetKind;
    use szhi_metrics::QualityReport;
    use szhi_ndgrid::Dims;

    fn check_bound(orig: &Grid<f32>, recon: &Grid<f32>, abs_eb: f64) {
        for (i, (a, b)) in orig.as_slice().iter().zip(recon.as_slice()).enumerate() {
            assert!(
                ((*a as f64) - (*b as f64)).abs() <= abs_eb + 1e-12,
                "bound violated at {i}: {a} vs {b} (eb {abs_eb})"
            );
        }
    }

    #[test]
    fn inconsistent_but_parseable_streams_error_instead_of_panicking() {
        // Streams that pass header parsing but violate the predictor's
        // invariants must surface as typed errors, not asserts: a corrupted
        // block_span, a wrong anchor count, and an outlier code with no
        // outlier record.
        let g = DatasetKind::Nyx.generate(Dims::d3(20, 22, 24), 13);
        let cfg = SzhiConfig::new(ErrorBound::Relative(1e-3));
        let bytes = compress(&g, &cfg).unwrap();

        // Corrupt one low byte of the 3×u16 block_span field (stream offsets
        // 42/44/46: magic 4 + ver 1 + rank 1 + dims 24 + eb 8 + pid 1
        // + reorder 1 + stride 2).
        for offset in [42usize, 44, 46] {
            let mut corrupt = bytes.clone();
            corrupt[offset] = 1;
            corrupt[offset + 1] = 0;
            assert!(
                matches!(decompress(&corrupt), Err(SzhiError::InvalidStream(_))),
                "corrupt block_span at {offset} did not yield a typed error"
            );
        }

        // Re-serialise with one anchor dropped.
        let (header, anchors, outliers, payload) = crate::format::read_stream(&bytes).unwrap();
        let fewer = crate::format::legacy::write_v1(&header, &anchors[1..], &outliers, payload);
        assert!(
            matches!(decompress(&fewer), Err(SzhiError::InvalidStream(_))),
            "anchor count mismatch did not yield a typed error"
        );

        // Re-serialise with the outlier records dropped while their codes
        // remain. (Skip if this field produced no outliers.)
        if !outliers.is_empty() {
            let no_records = crate::format::legacy::write_v1(&header, &anchors, &[], payload);
            assert!(
                matches!(decompress(&no_records), Err(SzhiError::InvalidStream(_))),
                "missing outlier records did not yield a typed error"
            );
        }

        // Re-serialise with one outlier record stored twice: the duplicate
        // pairs with no outlier code of its own.
        assert!(!outliers.is_empty(), "the field must produce outliers");
        let mut duplicated = outliers.clone();
        duplicated.insert(0, duplicated[0]);
        let duplicated = crate::format::legacy::write_v1(&header, &anchors, &duplicated, payload);
        assert!(
            matches!(decompress(&duplicated), Err(SzhiError::InvalidStream(_))),
            "a duplicated outlier record did not yield a typed error"
        );

        // Re-serialise with an extra record at a point whose code is not
        // the outlier code (index 0 is an anchor, coded as zero error).
        let mut misplaced = outliers.clone();
        misplaced.insert(
            0,
            szhi_predictor::Outlier {
                index: 0,
                value: 1.0,
            },
        );
        let misplaced = crate::format::legacy::write_v1(&header, &anchors, &misplaced, payload);
        assert!(
            matches!(decompress(&misplaced), Err(SzhiError::InvalidStream(_))),
            "an outlier record at a non-outlier code did not yield a typed error"
        );
    }

    #[test]
    fn roundtrip_all_dataset_families_cr_mode() {
        for kind in szhi_datagen::all_kinds() {
            let dims = if kind == DatasetKind::CesmAtm {
                Dims::d2(60, 90)
            } else {
                Dims::d3(33, 30, 35)
            };
            let g = kind.generate(dims, 5);
            let cfg = SzhiConfig::new(ErrorBound::Relative(1e-3));
            let (bytes, stats) = compress_with_stats(&g, &cfg).unwrap();
            let recon = decompress(&bytes).unwrap();
            assert_eq!(recon.dims(), dims);
            check_bound(&g, &recon, stats.abs_eb);
            assert!(
                stats.compression_ratio > 1.0,
                "{kind}: no compression achieved"
            );
        }
    }

    #[test]
    fn roundtrip_tp_mode() {
        let g = DatasetKind::Miranda.generate(Dims::d3(40, 48, 48), 3);
        let cfg = SzhiConfig::new(ErrorBound::Relative(1e-3)).with_mode(PipelineMode::Tp);
        let (bytes, stats) = compress_with_stats(&g, &cfg).unwrap();
        let recon = decompress(&bytes).unwrap();
        check_bound(&g, &recon, stats.abs_eb);
    }

    #[test]
    fn absolute_bound_is_honoured() {
        let g = DatasetKind::Jhtdb.generate(Dims::d3(32, 32, 32), 11);
        let cfg = SzhiConfig::new(ErrorBound::Absolute(0.05));
        let bytes = compress(&g, &cfg).unwrap();
        let recon = decompress(&bytes).unwrap();
        check_bound(&g, &recon, 0.05);
    }

    #[test]
    fn looser_bounds_compress_better() {
        let g = DatasetKind::Nyx.generate(Dims::d3(48, 48, 48), 7);
        let mut ratios = Vec::new();
        for eb in [1e-2, 1e-3, 1e-4] {
            let cfg = SzhiConfig::new(ErrorBound::Relative(eb));
            let (_, stats) = compress_with_stats(&g, &cfg).unwrap();
            ratios.push(stats.compression_ratio);
        }
        assert!(
            ratios[0] > ratios[1] && ratios[1] > ratios[2],
            "compression ratio must decrease with tighter bounds: {ratios:?}"
        );
    }

    #[test]
    fn psnr_improves_with_tighter_bounds() {
        let g = DatasetKind::Rtm.generate(Dims::d3(40, 40, 24), 13);
        let mut psnrs = Vec::new();
        for eb in [1e-2, 1e-3] {
            let cfg = SzhiConfig::new(ErrorBound::Relative(eb));
            let bytes = compress(&g, &cfg).unwrap();
            let recon = decompress(&bytes).unwrap();
            psnrs.push(QualityReport::compare(&g, &recon).psnr);
        }
        assert!(
            psnrs[1] > psnrs[0] + 10.0,
            "PSNR should rise sharply with a 10x tighter bound: {psnrs:?}"
        );
    }

    #[test]
    fn stats_are_consistent() {
        let g = DatasetKind::Miranda.generate(Dims::d3(33, 33, 33), 1);
        let cfg = SzhiConfig::new(ErrorBound::Relative(1e-3));
        let (bytes, stats) = compress_with_stats(&g, &cfg).unwrap();
        assert_eq!(stats.compressed_bytes, bytes.len());
        assert_eq!(stats.original_bytes, 33 * 33 * 33 * 4);
        assert!(stats.encoded_codes_bytes < stats.compressed_bytes);
        assert_eq!(stats.anchors, 27);
    }

    #[test]
    fn disabling_reorder_and_autotune_still_roundtrips() {
        // Writers always reorder, but the format carries the flag: a v1
        // stream whose CR codes are in raster order decodes too.
        let g = DatasetKind::Qmcpack.generate(Dims::d3(30, 35, 35), 9);
        let abs_eb = ErrorBound::Relative(1e-3).absolute(g.value_range() as f64);
        let interp = szhi_predictor::InterpConfig::cusz_hi();
        let out = szhi_predictor::InterpPredictor::new(interp.clone())
            .unwrap()
            .compress(&g, abs_eb);
        let header = crate::format::Header {
            dims: g.dims(),
            abs_eb,
            pipeline: szhi_codec::PipelineSpec::CR,
            reorder: false,
            interp,
        };
        let payload = header.pipeline.encode(&out.codes);
        let bytes = crate::format::legacy::write_v1(&header, &out.anchors, &out.outliers, &payload);
        check_bound(&g, &decompress(&bytes).unwrap(), abs_eb);
    }

    #[test]
    fn mode_labels_match_paper() {
        assert_eq!(mode_label(PipelineMode::Cr), "cuSZ-Hi-CR");
        assert_eq!(mode_label(PipelineMode::Tp), "cuSZ-Hi-TP");
    }

    #[test]
    fn constant_field_compresses_enormously() {
        let dims = Dims::d3(32, 32, 32);
        let g = Grid::from_vec(dims, vec![4.25f32; dims.len()]);
        let cfg = SzhiConfig::new(ErrorBound::Relative(1e-3));
        let (bytes, stats) = compress_with_stats(&g, &cfg).unwrap();
        let recon = decompress(&bytes).unwrap();
        assert_eq!(recon.as_slice(), g.as_slice());
        assert!(
            stats.compression_ratio > 50.0,
            "constant field ratio only {}",
            stats.compression_ratio
        );
        assert!(bytes.len() < dims.nbytes_f32());
    }

    #[test]
    fn garbage_input_is_rejected() {
        assert!(decompress(&[]).is_err());
        assert!(decompress(b"not a szhi stream at all").is_err());
        let g = DatasetKind::Nyx.generate(Dims::d3(20, 20, 20), 2);
        let bytes = compress(&g, &SzhiConfig::new(ErrorBound::Relative(1e-2))).unwrap();
        // Truncations anywhere must error, never panic.
        for cut in [5usize, 50, bytes.len() / 2, bytes.len() - 3] {
            assert!(
                decompress(&bytes[..cut]).is_err(),
                "cut at {cut} not detected"
            );
        }
    }

    // -----------------------------------------------------------------
    // Chunked engine
    // -----------------------------------------------------------------

    #[test]
    fn chunked_roundtrip_matches_bound_on_all_dataset_families() {
        for kind in szhi_datagen::all_kinds() {
            let dims = if kind == DatasetKind::CesmAtm {
                Dims::d2(60, 90)
            } else {
                Dims::d3(40, 33, 35)
            };
            let g = kind.generate(dims, 5);
            let cfg = SzhiConfig::new(ErrorBound::Relative(1e-3)).with_chunk_span([32, 32, 32]);
            let (bytes, stats) = compress_with_stats(&g, &cfg).unwrap();
            assert_eq!(stream_version(&bytes).unwrap(), VERSION_TRAILERED);
            let recon = decompress(&bytes).unwrap();
            assert_eq!(recon.dims(), dims);
            check_bound(&g, &recon, stats.abs_eb);
            assert!(stats.compression_ratio > 1.0, "{kind}: no compression");
        }
    }

    #[test]
    fn chunked_and_monolithic_reconstructions_honour_the_same_bound() {
        let g = DatasetKind::Nyx.generate(Dims::d3(48, 40, 36), 11);
        let cfg = SzhiConfig::new(ErrorBound::Relative(1e-3));
        let (mono, stats) = compress_with_stats(&g, &cfg).unwrap();
        let chunked = compress_chunked(&g, &cfg, [16, 16, 16]).unwrap();
        check_bound(&g, &decompress(&mono).unwrap(), stats.abs_eb);
        check_bound(&g, &decompress(&chunked).unwrap(), stats.abs_eb);
        // More chunks cost boundary anchors; the overhead must stay small.
        assert!(chunked.len() < mono.len() * 2);
    }

    #[test]
    fn every_chunk_decompresses_independently() {
        let g = DatasetKind::Rtm.generate(Dims::d3(40, 40, 24), 13);
        let cfg = SzhiConfig::new(ErrorBound::Relative(1e-3));
        let bytes = compress_chunked(&g, &cfg, [16, 16, 16]).unwrap();
        let n = chunk_count(&bytes).unwrap();
        assert_eq!(n, 3 * 3 * 2);
        let abs_eb = ErrorBound::Relative(1e-3).absolute(g.value_range() as f64);
        let mut covered = vec![false; g.dims().len()];
        for i in 0..n {
            let (region, sub) = decompress_chunk(&bytes, i).unwrap();
            assert_eq!(sub.len(), region.len());
            for ((z, y, x), (expect, got)) in region
                .z_range()
                .flat_map(|z| {
                    region
                        .y_range()
                        .flat_map(move |y| region.x_range().map(move |x| (z, y, x)))
                })
                .zip(
                    g.extract(&region)
                        .into_iter()
                        .zip(sub.as_slice().iter().copied()),
                )
            {
                assert!(
                    ((expect as f64) - (got as f64)).abs() <= abs_eb + 1e-12,
                    "chunk {i} bound violated at ({z},{y},{x})"
                );
                covered[g.dims().index(z, y, x)] = true;
            }
        }
        assert!(covered.iter().all(|&c| c), "chunks did not cover the field");
        assert!(decompress_chunk(&bytes, n).is_err());
    }

    #[test]
    fn misaligned_chunk_span_is_rejected_with_typed_error() {
        let g = DatasetKind::Nyx.generate(Dims::d3(40, 40, 40), 1);
        let cfg = SzhiConfig::new(ErrorBound::Relative(1e-3));
        assert!(matches!(
            compress_chunked(&g, &cfg, [12, 16, 16]),
            Err(SzhiError::InvalidInput(_))
        ));
        assert!(matches!(
            compress_chunked(&g, &cfg, [0, 16, 16]),
            Err(SzhiError::InvalidInput(_))
        ));
        // A span larger than the field clamps to one whole-field chunk.
        let bytes = compress_chunked(&g, &cfg, [512, 512, 512]).unwrap();
        assert_eq!(chunk_count(&bytes).unwrap(), 1);
    }

    #[test]
    fn legacy_v2_streams_remain_readable() {
        // A v2 stream (no mode bytes, no checksums) carrying a v3 stream's
        // bodies must decompress to the same field, support random access,
        // and report the same chunk count.
        let g = DatasetKind::Miranda.generate(Dims::d3(40, 36, 33), 7);
        let cfg = SzhiConfig::new(ErrorBound::Relative(1e-3)).with_chunk_span([16, 16, 16]);
        let v3 = recontain(&compress(&g, &cfg).unwrap(), VERSION_STREAMED);
        let v2 = recontain(&v3, VERSION_CHUNKED);
        assert_eq!(stream_version(&v2).unwrap(), VERSION_CHUNKED);
        assert_eq!(chunk_count(&v2).unwrap(), chunk_count(&v3).unwrap());
        assert_eq!(
            decompress(&v2).unwrap().as_slice(),
            decompress(&v3).unwrap().as_slice()
        );
        let (r2, s2) = decompress_chunk(&v2, 3).unwrap();
        let (r3, s3) = decompress_chunk(&v3, 3).unwrap();
        assert_eq!(r2, r3);
        assert_eq!(s2.as_slice(), s3.as_slice());
    }

    #[test]
    fn corrupted_v3_chunks_are_rejected_by_checksum_before_decoding() {
        // Byte flips anywhere in the data area must surface as the typed
        // ChunkChecksum error from `decompress` — the codec never sees the
        // corrupt bytes. (Byte-flip fuzz over the *whole* stream, header
        // included, lives in `chunked_stream_byte_flips_never_panic`.)
        let g = DatasetKind::Qmcpack.generate(Dims::d3(20, 20, 20), 3);
        let cfg = SzhiConfig::new(ErrorBound::Relative(1e-2)).with_chunk_span([16, 16, 16]);
        let bytes = recontain(&compress(&g, &cfg).unwrap(), VERSION_STREAMED);
        let (_, table) = read_chunk_table(&bytes).unwrap();
        let data_start = table.data_start;
        for pos in (data_start..bytes.len()).step_by(7) {
            for flip in [0x01u8, 0x80] {
                let mut corrupt = bytes.clone();
                corrupt[pos] ^= flip;
                assert!(
                    matches!(decompress(&corrupt), Err(SzhiError::ChunkChecksum { .. })),
                    "data-area flip at {pos} xor {flip:#x} not caught by the checksum"
                );
            }
        }
    }

    #[test]
    fn trailered_v4_streams_decompress_and_random_access_like_v3() {
        // A v4 container carrying the same chunk bodies as a v3 stream must
        // decompress bit-identically through `decompress`, report the same
        // chunk count, and support the same random access.
        let g = DatasetKind::Miranda.generate(Dims::d3(40, 36, 33), 7);
        let cfg = SzhiConfig::new(ErrorBound::Relative(1e-3)).with_chunk_span([16, 16, 16]);
        let v4 = compress(&g, &cfg).unwrap();
        let v3 = recontain(&v4, VERSION_STREAMED);
        assert_eq!(stream_version(&v4).unwrap(), VERSION_TRAILERED);
        assert_eq!(chunk_count(&v4).unwrap(), chunk_count(&v3).unwrap());
        assert_eq!(
            decompress(&v4).unwrap().as_slice(),
            decompress(&v3).unwrap().as_slice()
        );
        let (r3, s3) = decompress_chunk(&v3, 3).unwrap();
        let (r4, s4) = decompress_chunk(&v4, 3).unwrap();
        assert_eq!(r3, r4);
        assert_eq!(s3.as_slice(), s4.as_slice());
    }

    #[test]
    fn corrupted_v4_streams_error_with_the_right_typed_error_per_region() {
        // Through top-level `decompress`: data-area flips are caught by the
        // owning chunk's CRC32, chunk-table flips by the trailer's table
        // CRC32, and trailer flips by the trailer validation — each with
        // its own typed error, before any decoder sees corrupt bytes.
        let g = DatasetKind::Qmcpack.generate(Dims::d3(20, 20, 20), 3);
        let cfg = SzhiConfig::new(ErrorBound::Relative(1e-2)).with_chunk_span([16, 16, 16]);
        let bytes = compress(&g, &cfg).unwrap();
        let (_, t4) = read_chunk_table(&bytes).unwrap();
        let data_start = t4.data_start;
        let data_len: usize = t4.entries.iter().map(|e| e.len).sum();
        let table_start = data_start + data_len;
        let trailer_start = bytes.len() - crate::format::TRAILER_SIZE;
        for pos in (data_start..table_start).step_by(7) {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x80;
            assert!(
                matches!(decompress(&corrupt), Err(SzhiError::ChunkChecksum { .. })),
                "data flip at {pos} not caught by the chunk checksum"
            );
        }
        for pos in (table_start..trailer_start).step_by(3) {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x80;
            assert!(
                matches!(decompress(&corrupt), Err(SzhiError::TableChecksum { .. })),
                "table flip at {pos} not caught by the table checksum"
            );
        }
        let mut corrupt = bytes.clone();
        corrupt[trailer_start] ^= 0x80; // low byte of table_offset
        assert!(matches!(
            decompress(&corrupt),
            Err(SzhiError::TrailerCorrupt(_))
        ));

        // Two corrupt chunks: every decode reports the first in plan order,
        // whichever worker fails first.
        let mut corrupt = bytes.clone();
        for i in [2usize, 5] {
            let entry = &t4.entries[i];
            corrupt[data_start + entry.offset + entry.len / 2] ^= 0x80;
        }
        for threads in [1usize, 2, 4] {
            rayon::set_num_threads(threads);
            let result = decompress(&corrupt);
            rayon::set_num_threads(0);
            assert!(
                matches!(result, Err(SzhiError::ChunkChecksum { index: 2, .. })),
                "at {threads} threads: {result:?}"
            );
        }
        let read = crate::StreamSource::from_bytes(&corrupt)
            .unwrap()
            .read_all();
        assert!(
            matches!(read, Err(SzhiError::ChunkChecksum { index: 2, .. })),
            "read_all: {read:?}"
        );

        // The full 3-mask byte-flip fuzz through `decompress`: typed errors
        // only, never a panic, mirroring the v2/v3 suites.
        for pos in 0..bytes.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut corrupt = bytes.clone();
                corrupt[pos] ^= flip;
                let result = std::panic::catch_unwind(|| {
                    let _ = decompress(&corrupt);
                });
                assert!(
                    result.is_ok(),
                    "decompress panicked with v4 byte {pos} xor {flip:#x}"
                );
            }
        }
        // Truncations anywhere must error, never panic.
        for cut in [5usize, 60, bytes.len() / 2, bytes.len() - 3] {
            assert!(decompress(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn chunked_stream_byte_flips_never_panic() {
        let g = DatasetKind::Qmcpack.generate(Dims::d3(20, 20, 20), 2);
        let cfg = SzhiConfig::new(ErrorBound::Relative(1e-2)).with_chunk_span([16, 16, 16]);
        let bytes = compress(&g, &cfg).unwrap();
        for pos in 0..bytes.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut corrupt = bytes.clone();
                corrupt[pos] ^= flip;
                let result = std::panic::catch_unwind(|| {
                    let _ = decompress(&corrupt);
                });
                assert!(
                    result.is_ok(),
                    "decompress panicked with byte {pos} xor {flip:#x}"
                );
            }
        }
        // Truncations anywhere must error, never panic.
        for cut in [5usize, 60, bytes.len() / 2, bytes.len() - 3] {
            assert!(decompress(&bytes[..cut]).is_err());
        }
    }
}
