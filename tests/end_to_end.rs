//! Cross-crate integration tests: every compressor in the workspace, on every
//! dataset family, honours its error bound and reproduces the paper's
//! qualitative orderings.

use szhi::baselines::{table4_compressors, Compressor, CuZfp, SzhiCr, SzhiTp};
use szhi::prelude::*;

fn small_dims(kind: DatasetKind) -> Dims {
    if kind == DatasetKind::CesmAtm {
        Dims::d2(48, 72)
    } else {
        Dims::d3(33, 34, 36)
    }
}

/// Checks `|orig − recon| ≤ ε` with a small, derived slack.
///
/// The szhi compressor itself needs no slack: its quantizer
/// (`crates/predictor/src/quantize.rs`) verifies the `f32`-rounded
/// reconstruction against the bound at compression time and demotes any
/// violating point to an exactly-stored outlier, so its bound holds
/// unconditionally. The slack is for the *dual-quantization baselines*
/// (cuSZ-L, cuSZp2, FZ-GPU), which prequantize `q = round(v / 2ε)` and
/// reconstruct `q·2ε` by a single `f64 → f32` cast without that check:
///
/// - In `f64`, `|v − q·2ε| ≤ ε` exactly (the rounding step's contract).
/// - The final cast to `f32` adds at most half an ulp of the reconstructed
///   magnitude: `|q·2ε| · 2⁻²⁴`. For `|v| ≥ ε` we have `|q·2ε| ≤ |v| + ε
///   ≤ 2|v|`, so the cast error is at most `2|v|·2⁻²⁴ = |a|·f32::EPSILON`
///   — exactly the per-point term below.
/// - For `|v| < ε` the prequantization gives `q = round(v/2ε) = 0` (since
///   `|v/2ε| < 0.5`), the reconstruction is exactly `0.0`, and the cast
///   introduces no error at all. The residual absolute term `1e-12` only
///   absorbs `f64` arithmetic noise — the rounding of `abs_eb = rel·range`
///   and of `q·2ε` itself, both ≤ a few `f64` ulps (≲2⁻⁵² relative) of
///   quantities no larger than ~10³ in these datasets, i.e. ≲1e-13.
///
/// The slack is therefore a strict measurement-error allowance, not a
/// loosening of the compressors' contract.
fn assert_bound(orig: &Grid<f32>, recon: &Grid<f32>, abs_eb: f64, label: &str) {
    for (i, (a, b)) in orig.as_slice().iter().zip(recon.as_slice()).enumerate() {
        let slack = (a.abs() as f64) * f32::EPSILON as f64;
        assert!(
            ((*a as f64) - (*b as f64)).abs() <= abs_eb + slack + 1e-12,
            "{label}: bound violated at point {i}: {a} vs {b} (eb {abs_eb})"
        );
    }
}

#[test]
fn every_error_bounded_compressor_honours_its_bound_on_every_dataset() {
    for kind in szhi::datagen::all_kinds() {
        let data = kind.generate(small_dims(kind), 3);
        for rel_eb in [1e-2, 1e-3] {
            let abs_eb = rel_eb * data.value_range() as f64;
            for c in table4_compressors() {
                let bytes = c
                    .compress(&data, ErrorBound::Relative(rel_eb))
                    .unwrap_or_else(|e| panic!("{} failed on {kind}: {e}", c.name()));
                let recon = c.decompress(&bytes).unwrap();
                assert_eq!(recon.dims(), data.dims(), "{} changed the shape", c.name());
                assert_bound(
                    &data,
                    &recon,
                    abs_eb,
                    &format!("{} on {kind} at {rel_eb:e}", c.name()),
                );
            }
        }
    }
}

#[test]
fn cusz_hi_cr_wins_on_smooth_3d_data() {
    // The headline claim (Table 4): on smooth 3D fields at moderate bounds the
    // cuSZ-Hi modes compress better than every baseline.
    for kind in [DatasetKind::Miranda, DatasetKind::Nyx, DatasetKind::Rtm] {
        let data = kind.generate(kind.default_dims(), 3);
        let eb = ErrorBound::Relative(1e-2);
        let mut sizes: Vec<(String, usize)> = Vec::new();
        for c in table4_compressors() {
            let bytes = c.compress(&data, eb).unwrap();
            sizes.push((c.name().to_string(), bytes.len()));
        }
        let best_hi = sizes
            .iter()
            .filter(|(n, _)| n.starts_with("cuSZ-Hi"))
            .map(|(_, s)| *s)
            .min()
            .unwrap();
        let best_baseline = sizes
            .iter()
            .filter(|(n, _)| !n.starts_with("cuSZ-Hi"))
            .map(|(_, s)| *s)
            .min()
            .unwrap();
        assert!(
            best_hi < best_baseline,
            "{kind}: best cuSZ-Hi size {best_hi} not better than best baseline {best_baseline}: {sizes:?}"
        );
    }
}

#[test]
fn interpolation_beats_lorenzo_and_offset_prediction() {
    // §4: interpolation-based decomposition should out-compress Lorenzo
    // (cuSZ-L) and offset prediction (cuSZp2) at the same bound.
    let data = DatasetKind::Miranda.generate(DatasetKind::Miranda.default_dims(), 5);
    let eb = ErrorBound::Relative(1e-3);
    let sizes: std::collections::HashMap<String, usize> = table4_compressors()
        .iter()
        .map(|c| (c.name().to_string(), c.compress(&data, eb).unwrap().len()))
        .collect();
    assert!(
        sizes["cuSZ-I"] < sizes["cuSZ-L"],
        "cuSZ-I should beat cuSZ-L: {sizes:?}"
    );
    assert!(
        sizes["cuSZ-I"] < sizes["cuSZp2"],
        "cuSZ-I should beat cuSZp2: {sizes:?}"
    );
    assert!(
        sizes["cuSZ-Hi-CR"] <= sizes["cuSZ-IB"],
        "cuSZ-Hi-CR should beat cuSZ-IB: {sizes:?}"
    );
}

#[test]
fn compression_is_deterministic() {
    let data = DatasetKind::Qmcpack.generate(Dims::d3(30, 32, 34), 8);
    for c in [&SzhiCr as &dyn Compressor, &SzhiTp] {
        let a = c.compress(&data, ErrorBound::Relative(1e-3)).unwrap();
        let b = c.compress(&data, ErrorBound::Relative(1e-3)).unwrap();
        assert_eq!(a, b, "{} is not deterministic", c.name());
    }
}

#[test]
fn cuzfp_rate_controls_size_and_quality() {
    let data = DatasetKind::Miranda.generate(Dims::d3(32, 48, 48), 2);
    let mut last_size = 0usize;
    let mut last_psnr = 0.0f64;
    for rate in [2.0, 8.0, 16.0] {
        let c = CuZfp::with_rate(rate);
        let bytes = c.compress(&data, ErrorBound::Relative(1e-3)).unwrap();
        let recon = c.decompress(&bytes).unwrap();
        let q = QualityReport::compare(&data, &recon);
        assert!(
            bytes.len() > data.dims().nbytes_f32() * rate as usize / 32 / 2,
            "size far below the configured rate"
        );
        assert!(
            bytes.len() > last_size,
            "compressed size must grow with the rate"
        );
        assert!(q.psnr > last_psnr, "PSNR must increase with rate");
        last_size = bytes.len();
        last_psnr = q.psnr;
    }
}

#[test]
fn chunked_streams_are_bit_identical_across_thread_counts() {
    // The acceptance contract of the chunked engine: for a fixed
    // seed/config, chunked compression at 1 thread and at N threads
    // produces byte-identical streams, and each chunk decompresses
    // independently through the chunk-table offsets.
    let data = DatasetKind::Miranda.generate(Dims::d3(70, 66, 50), 9);
    let cfg = SzhiConfig::new(ErrorBound::Relative(1e-3)).with_chunk_span([32, 32, 32]);
    let abs_eb = ErrorBound::Relative(1e-3).absolute(data.value_range() as f64);

    rayon::set_num_threads(1);
    let single = compress(&data, &cfg).unwrap();
    rayon::set_num_threads(4);
    let multi = compress(&data, &cfg).unwrap();
    let decompressed_multi = decompress(&multi).unwrap();
    rayon::set_num_threads(0);
    assert_eq!(
        single, multi,
        "chunked streams must be byte-identical at 1 and 4 threads"
    );
    assert_bound(&data, &decompressed_multi, abs_eb, "chunked 4-thread");

    // Random access: every chunk individually, straight off the table.
    let n = szhi::core::chunk_count(&single).unwrap();
    assert_eq!(n, 3 * 3 * 2);
    for i in 0..n {
        let (region, sub) = szhi::core::decompress_chunk(&single, i).unwrap();
        let expect = data.extract(&region);
        for (e, g) in expect.iter().zip(sub.as_slice()) {
            assert!(
                ((*e as f64) - (*g as f64)).abs() <= abs_eb + 1e-12,
                "chunk {i} violated the bound"
            );
        }
    }
}

#[test]
fn streaming_writer_matches_the_batch_engine_at_every_thread_count() {
    // The acceptance contract of the streaming engine: pushing a field
    // chunk by chunk through `StreamSink` — a serial run — produces the
    // same bytes as the batch `compress` (which encodes the chunks in
    // parallel and drives the same sink), and both are byte-identical at
    // 1, 4 and the default number of worker threads.
    let data = DatasetKind::Miranda.generate(Dims::d3(70, 66, 50), 9);
    let abs_eb = 2e-3;
    let cfg = SzhiConfig::new(ErrorBound::Absolute(abs_eb))
        .with_auto_tune(false)
        .with_chunk_span([32, 32, 32]);

    let mut pushed = Vec::new();
    let mut batch = Vec::new();
    for threads in [1usize, 4, 0] {
        rayon::set_num_threads(threads);
        let mut sink = StreamSink::new(Vec::new(), data.dims(), &cfg).unwrap();
        while let Some(region) = sink.next_chunk_region() {
            let dims = sink.plan().chunk_dims(sink.next_index());
            let chunk = Grid::from_vec(dims, data.extract(&region));
            sink.push_chunk(&chunk).unwrap();
        }
        pushed.push(sink.finish().unwrap());
        batch.push(compress(&data, &cfg).unwrap());
    }
    rayon::set_num_threads(0);

    for (p, b) in pushed.iter().zip(&batch) {
        assert_eq!(p, &pushed[0], "streamed output must not depend on threads");
        assert_eq!(
            b, &pushed[0],
            "streamed and batch outputs must be identical"
        );
    }

    // The stream decodes lazily within the bound, and a corrupted chunk
    // body is rejected by its CRC32 with the typed error.
    let mut reader = StreamSource::from_bytes(&pushed[0]).unwrap();
    for chunk in reader.chunks() {
        let (region, sub) = chunk.unwrap();
        for (a, b) in data.extract(&region).iter().zip(sub.as_slice()) {
            assert!(((*a as f64) - (*b as f64)).abs() <= abs_eb + 1e-12);
        }
    }
    let mut corrupt = pushed[0].clone();
    let first_body = corrupt.len() / 2; // the data area dwarfs the framing
    corrupt[first_body] ^= 0x40;
    assert!(matches!(
        decompress(&corrupt),
        Err(szhi::core::SzhiError::ChunkChecksum { .. })
    ));
}

/// An `io::Write` wrapper around a `File` that tracks delivery: the total
/// bytes received (shared, so a test can read it while the sink owns the
/// writer) and the largest single `write` call. Every byte the sink hands
/// over goes straight to disk, so `total` is also the file length.
struct PeakTrackingFile {
    file: std::fs::File,
    total: std::rc::Rc<std::cell::Cell<u64>>,
    max_write: usize,
}

impl std::io::Write for PeakTrackingFile {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.file.write_all(buf)?;
        self.total.set(self.total.get() + buf.len() as u64);
        self.max_write = self.max_write.max(buf.len());
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.file.flush()
    }
}

#[test]
fn stream_sink_to_a_file_roundtrips_bit_identically_with_bounded_buffering() {
    // The v4 acceptance contract: a field streamed through StreamSink<File>
    // round-trips via StreamSource bit-identically to in-memory decompress
    // of the same bytes — and the peak-tracking Write wrapper demonstrates
    // the sink never buffers more than one encoded chunk plus the table.
    use szhi::core::{StreamSink, StreamSource, TRAILER_SIZE};

    let data = DatasetKind::Miranda.generate(Dims::d3(70, 66, 50), 9);
    let abs_eb = 2e-3;
    let cfg = SzhiConfig::new(ErrorBound::Absolute(abs_eb))
        .with_auto_tune(false)
        .with_chunk_span([32, 32, 32])
        .with_mode_tuning(ModeTuning::PerChunk);

    let path = std::env::temp_dir().join(format!("szhi_sink_test_{}.szhi", std::process::id()));
    let total = std::rc::Rc::default();
    let out = PeakTrackingFile {
        file: std::fs::File::create(&path).unwrap(),
        total: std::rc::Rc::clone(&total),
        max_write: 0,
    };
    let mut sink = StreamSink::new(out, data.dims(), &cfg).unwrap();
    let n_chunks = sink.plan().len();
    let mut max_encoded = 0usize;
    // The header goes out when the sink is made; then every chunk body.
    let mut expected = total.get();
    while let Some(region) = sink.next_chunk_region() {
        let dims = sink.plan().chunk_dims(sink.next_index());
        let chunk = Grid::from_vec(dims, data.extract(&region));
        let receipt = sink.push_chunk(&chunk).unwrap();
        max_encoded = max_encoded.max(receipt.compressed_bytes);
        // Every chunk body reaches the backing file the moment it is
        // pushed: the sink retains no body bytes at all.
        expected += receipt.compressed_bytes as u64;
        assert_eq!(
            total.get(),
            expected,
            "the sink buffered a chunk body instead of writing it through"
        );
    }
    let (out, stats) = sink.finish_with_stats().unwrap();
    assert_eq!(total.get(), stats.compressed_bytes as u64);
    // The largest single hand-over is one encoded chunk body or the final
    // table-plus-trailer tail — the sink's memory high-water, O(chunk +
    // table), never O(stream).
    let tail_len = n_chunks * 21 + TRAILER_SIZE;
    assert!(
        out.max_write <= max_encoded.max(tail_len),
        "largest write {} exceeds one chunk ({max_encoded}) / the table tail ({tail_len})",
        out.max_write
    );
    drop(out);

    // Round-trip through the seek-based source straight off the file…
    let file = std::io::BufReader::new(std::fs::File::open(&path).unwrap());
    let mut source = StreamSource::new(file).unwrap();
    assert_eq!(source.chunk_count(), n_chunks);
    let from_file = source.read_all().unwrap();
    // …and bit-identically to in-memory decompress of the same bytes.
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(bytes.len(), stats.compressed_bytes);
    let in_memory = decompress(&bytes).unwrap();
    assert_eq!(
        from_file.as_slice(),
        in_memory.as_slice(),
        "StreamSource and decompress disagree on the same stream"
    );
    assert_bound(&data, &in_memory, abs_eb, "v4 sink roundtrip");
    std::fs::remove_file(&path).ok();
}

#[test]
fn estimated_orchestration_is_byte_identical_across_thread_counts() {
    // The determinism contract of the cost-model orchestrator: estimation
    // samples deterministically and per-chunk interp tuning is a pure
    // function of the chunk, so the full v5 stream — estimator-guided
    // pipeline choices, config dictionary, chunk bodies — is byte-identical
    // at 1 and 4 worker threads.
    let data = szhi::datagen::mixed_smooth_noisy(Dims::d3(32, 32, 64));
    let cfg = SzhiConfig::new(ErrorBound::Absolute(2e-3))
        .with_auto_tune(false)
        .with_chunk_span([32, 32, 32])
        .with_mode_tuning(ModeTuning::estimated())
        .with_chunk_interp_tuning(true);

    rayon::set_num_threads(1);
    let single = compress(&data, &cfg).unwrap();
    // 2 and 4 exercise the persistent worker pool (including a mid-process
    // resize); 0 restores the default (SZHI_NUM_THREADS / machine) count.
    for threads in [2usize, 4, 0] {
        rayon::set_num_threads(threads);
        let multi = compress(&data, &cfg).unwrap();
        assert_eq!(
            single, multi,
            "estimated v5 streams must be byte-identical at 1 and {threads} threads"
        );
    }
    rayon::set_num_threads(0);
    assert_eq!(
        szhi::core::stream_version(&single).unwrap(),
        szhi::core::VERSION_TUNED
    );
    let recon = decompress(&single).unwrap();
    assert_bound(&data, &recon, 2e-3, "estimated v5 roundtrip");
}

#[test]
fn per_chunk_mode_selection_improves_mixed_fields() {
    // A field with a smooth half and a noisy half: tuning the lossless
    // pipeline per chunk must compress strictly better than either global
    // mode, and the chunk table must record a genuine mix of modes.
    let data = szhi::datagen::mixed_smooth_noisy(Dims::d3(32, 32, 64));
    let base = SzhiConfig::new(ErrorBound::Absolute(2e-3))
        .with_auto_tune(false)
        .with_chunk_span([32, 32, 32]);
    let cr = compress(&data, &base.clone().with_mode(PipelineMode::Cr)).unwrap();
    let tp = compress(&data, &base.clone().with_mode(PipelineMode::Tp)).unwrap();
    let tuned = compress(&data, &base.with_mode_tuning(ModeTuning::PerChunk)).unwrap();
    assert!(
        tuned.len() < cr.len() && tuned.len() < tp.len(),
        "per-chunk ({}) must beat global CR ({}) and TP ({})",
        tuned.len(),
        cr.len(),
        tp.len()
    );
    let reader = StreamSource::from_bytes(&tuned).unwrap();
    let distinct: std::collections::HashSet<u8> = (0..reader.chunk_count())
        .map(|i| reader.index().chunk_pipeline(i).unwrap().id())
        .collect();
    assert!(distinct.len() > 1, "expected chunks to use different modes");
    let recon = decompress(&tuned).unwrap();
    assert_bound(&data, &recon, 2e-3, "per-chunk tuned");
}

#[test]
fn streams_are_rejected_by_other_decompressors() {
    // Feeding one compressor's stream into another must error, never panic or
    // silently produce garbage data of the right shape.
    let data = DatasetKind::Nyx.generate(Dims::d3(20, 20, 20), 1);
    let compressors = table4_compressors();
    let streams: Vec<(String, Vec<u8>)> = compressors
        .iter()
        .map(|c| {
            (
                c.name().to_string(),
                c.compress(&data, ErrorBound::Relative(1e-2)).unwrap(),
            )
        })
        .collect();
    for c in &compressors {
        for (src, bytes) in &streams {
            // Variants that intentionally share a stream format can decode
            // each other: the two cuSZ-Hi modes (self-describing pipeline id)
            // and cuSZ-I / cuSZ-IB (a flag byte selects the Bitcomp pass).
            if src == c.name()
                || (src.starts_with("cuSZ-Hi") && c.name().starts_with("cuSZ-Hi"))
                || (src.starts_with("cuSZ-I") && c.name().starts_with("cuSZ-I"))
            {
                continue;
            }
            assert!(
                c.decompress(bytes).is_err(),
                "{} accepted a stream produced by {src}",
                c.name()
            );
        }
    }
}

#[test]
fn a_nan_survives_interpolation_tuning_exactly() {
    // A trial whose stencil reaches the NaN sums to NaN; the tuners must
    // still pick a configuration, and the NaN is stored as an outlier.
    let dims = Dims::d3(32, 32, 32);
    let mut data = DatasetKind::Miranda.generate(dims, 3);
    data.set(1, 1, 1, f32::NAN);
    let bound = ErrorBound::Relative(1e-3);
    let abs_eb = bound.absolute(data.value_range() as f64);
    let tuned_globally = SzhiConfig::new(bound);
    let tuned_per_chunk = SzhiConfig::new(bound)
        .with_auto_tune(false)
        .with_chunk_span([16, 16, 16])
        .with_chunk_interp_tuning(true);
    for (label, cfg) in [
        ("global auto-tune", tuned_globally),
        ("per-chunk tuning", tuned_per_chunk),
    ] {
        let restored = decompress(&compress(&data, &cfg).unwrap()).unwrap();
        assert!(restored.get(1, 1, 1).is_nan(), "{label}: the NaN is lost");
        for (i, (a, b)) in data.as_slice().iter().zip(restored.as_slice()).enumerate() {
            if i != dims.index(1, 1, 1) {
                assert!(
                    ((*a as f64) - (*b as f64)).abs() <= abs_eb + 1e-12,
                    "{label}: bound violated at point {i}: {a} vs {b}"
                );
            }
        }
    }
}
