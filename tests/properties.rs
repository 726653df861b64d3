//! Property-based tests of the workspace's core invariants:
//! error-bound preservation of the compressors, losslessness of every codec
//! pipeline, and bijectivity of the reordering permutation.

use proptest::prelude::*;
use szhi::codec::PipelineSpec;
use szhi::ndgrid::{Dims, Grid};
use szhi::predictor::{InterpConfig, InterpPredictor, LevelOrder};
use szhi::prelude::*;

/// Strategy: a small 3D field with smooth structure plus bounded noise.
fn field_strategy() -> impl Strategy<Value = (Grid<f32>, f64)> {
    (
        2usize..20,
        2usize..20,
        2usize..24,
        0.0f32..10.0,
        0.01f32..2.0,
        proptest::collection::vec(-1.0f32..1.0, 1..64),
        1e-4f64..1e-1,
    )
        .prop_map(|(nz, ny, nx, offset, amp, noise, rel_eb)| {
            let dims = Dims::d3(nz, ny, nx);
            let grid = Grid::from_fn(dims, |z, y, x| {
                let idx = (z * 7 + y * 3 + x) % noise.len();
                offset
                    + amp * ((x as f32) * 0.21).sin()
                    + amp * 0.5 * ((y as f32) * 0.13 + (z as f32) * 0.07).cos()
                    + amp * 0.1 * noise[idx]
            });
            (grid, rel_eb)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The fundamental contract of Eq. 1: every reconstructed point is within
    /// the absolute bound, for arbitrary shapes, bounds and (mildly noisy)
    /// fields, in both pipeline modes.
    #[test]
    fn szhi_always_honours_the_error_bound((data, rel_eb) in field_strategy(), cr_mode in any::<bool>()) {
        let mode = if cr_mode { PipelineMode::Cr } else { PipelineMode::Tp };
        let cfg = SzhiConfig::new(ErrorBound::Relative(rel_eb)).with_mode(mode);
        let abs_eb = ErrorBound::Relative(rel_eb).absolute(data.value_range() as f64);
        let bytes = compress(&data, &cfg).unwrap();
        let recon = decompress(&bytes).unwrap();
        prop_assert_eq!(recon.dims(), data.dims());
        for (a, b) in data.as_slice().iter().zip(recon.as_slice()) {
            prop_assert!(((*a as f64) - (*b as f64)).abs() <= abs_eb + 1e-12,
                "violated: {} vs {} (eb {})", a, b, abs_eb);
        }
    }

    /// Every named lossless pipeline is exactly lossless on arbitrary bytes.
    #[test]
    fn all_pipelines_are_lossless(data in proptest::collection::vec(any::<u8>(), 0..6000), id in 0u8..18) {
        let spec = PipelineSpec::from_id(id).unwrap();
        let encoded = spec.encode(&data);
        let decoded = spec.decode_bounded(&encoded, data.len()).unwrap();
        prop_assert_eq!(decoded, data);
    }

    /// restore ∘ reorder along the level walk is the identity for
    /// arbitrary shapes and strides.
    #[test]
    fn reorder_restore_roundtrip(nz in 1usize..24, ny in 1usize..24, nx in 1usize..24, stride_pow in 1u32..5) {
        let dims = Dims::d3(nz, ny, nx);
        let stride = 1usize << stride_pow;
        let order = LevelOrder::new(dims, stride);
        let codes: Vec<u8> = (0..dims.len()).map(|i| (i * 37 % 251) as u8).collect();
        let reordered = order.reorder(&codes);
        prop_assert_eq!(order.restore(&reordered).unwrap(), codes);
    }

    /// Chunked and monolithic compression of the same field both decompress
    /// within the error bound, for arbitrary shapes and chunk spans —
    /// including spans larger than the grid (which clamp to one chunk).
    #[test]
    fn chunked_and_monolithic_both_honour_the_bound(
        (data, rel_eb) in field_strategy(),
        cz in 1usize..4, cy in 1usize..4, cx in 1usize..4,
    ) {
        // The chunk-alignment rule: spans are multiples of the anchor
        // stride (16), from 16 up to 48 — the 2..24-point grids of the
        // strategy make spans larger than the field the common case.
        let span = [16 * cz, 16 * cy, 16 * cx];
        let cfg = SzhiConfig::new(ErrorBound::Relative(rel_eb));
        let abs_eb = ErrorBound::Relative(rel_eb).absolute(data.value_range() as f64);
        let mono = compress(&data, &cfg).unwrap();
        let chunked = compress(&data, &cfg.clone().with_chunk_span(span)).unwrap();
        for (label, bytes) in [("monolithic", &mono), ("chunked", &chunked)] {
            let recon = decompress(bytes).unwrap();
            prop_assert_eq!(recon.dims(), data.dims());
            for (a, b) in data.as_slice().iter().zip(recon.as_slice()) {
                prop_assert!(((*a as f64) - (*b as f64)).abs() <= abs_eb + 1e-12,
                    "{} violated: {} vs {} (eb {})", label, a, b, abs_eb);
            }
        }
    }

    /// Pushing chunks one at a time through the streaming writer
    /// (`StreamSink`) produces exactly the bytes of the batch chunked engine,
    /// for arbitrary shapes, spans, bounds and mode-tuning policies — and the
    /// stream decompresses within the bound.
    #[test]
    fn streaming_writer_equals_batch_engine(
        (data, rel_eb) in field_strategy(),
        cz in 1usize..4, cy in 1usize..4, cx in 1usize..4,
        per_chunk in any::<bool>(),
    ) {
        let span = [16 * cz, 16 * cy, 16 * cx];
        // Streaming needs an absolute bound; derive one from the field so
        // magnitudes stay comparable to the other properties.
        let abs_eb = ErrorBound::Relative(rel_eb).absolute(data.value_range() as f64);
        let tuning = if per_chunk { ModeTuning::PerChunk } else { ModeTuning::Global };
        let cfg = SzhiConfig::new(ErrorBound::Absolute(abs_eb))
            .with_auto_tune(false)
            .with_chunk_span(span)
            .with_mode_tuning(tuning);
        let batch = compress(&data, &cfg).unwrap();

        let mut sink = StreamSink::new(Vec::new(), data.dims(), &cfg).unwrap();
        while let Some(region) = sink.next_chunk_region() {
            let dims = sink.plan().chunk_dims(sink.next_index());
            let chunk = Grid::from_vec(dims, data.extract(&region));
            sink.push_chunk(&chunk).unwrap();
        }
        let streamed = sink.finish().unwrap();
        prop_assert_eq!(&streamed, &batch);

        let recon = decompress(&streamed).unwrap();
        prop_assert_eq!(recon.dims(), data.dims());
        for (a, b) in data.as_slice().iter().zip(recon.as_slice()) {
            prop_assert!(((*a as f64) - (*b as f64)).abs() <= abs_eb + 1e-12,
                "violated: {} vs {} (eb {})", a, b, abs_eb);
        }
    }

    /// Streaming a field through the io-backed v4 sink produces a container
    /// that `StreamSource` and in-memory `decompress` decode bit-identically
    /// — for arbitrary shapes, spans, bounds and mode-tuning policies — and
    /// the result honours the bound.
    #[test]
    fn trailered_sink_source_and_decompress_agree(
        (data, rel_eb) in field_strategy(),
        cz in 1usize..4, cy in 1usize..4, cx in 1usize..4,
        per_chunk in any::<bool>(),
    ) {
        use szhi::core::{StreamSink, StreamSource};

        let span = [16 * cz, 16 * cy, 16 * cx];
        let abs_eb = ErrorBound::Relative(rel_eb).absolute(data.value_range() as f64);
        let tuning = if per_chunk { ModeTuning::PerChunk } else { ModeTuning::Global };
        let cfg = SzhiConfig::new(ErrorBound::Absolute(abs_eb))
            .with_auto_tune(false)
            .with_chunk_span(span)
            .with_mode_tuning(tuning);

        let mut sink = StreamSink::new(Vec::new(), data.dims(), &cfg).unwrap();
        while let Some(region) = sink.next_chunk_region() {
            let dims = sink.plan().chunk_dims(sink.next_index());
            let chunk = Grid::from_vec(dims, data.extract(&region));
            sink.push_chunk(&chunk).unwrap();
        }
        let v4 = sink.finish().unwrap();

        let in_memory = decompress(&v4).unwrap();
        let mut source = StreamSource::from_bytes(&v4).unwrap();
        let from_source = source.read_all().unwrap();
        prop_assert_eq!(in_memory.as_slice(), from_source.as_slice());

        for (a, b) in data.as_slice().iter().zip(in_memory.as_slice()) {
            prop_assert!(((*a as f64) - (*b as f64)).abs() <= abs_eb + 1e-12,
                "violated: {} vs {} (eb {})", a, b, abs_eb);
        }
    }

    /// Estimator-guided orchestration honours the error bound and tracks
    /// the exhaustive per-chunk trial encode: over arbitrary mixed
    /// smooth/noisy fields, `ModeTuning::Estimated` over the full fig6
    /// candidate list produces a stream within the stated tolerance of
    /// `ModeTuning::Exhaustive` over the same list — 5% plus a 32-byte
    /// per-chunk allowance for the tiny payloads these small fields
    /// produce — and never larger than the global default stream.
    #[test]
    fn estimated_orchestration_honours_the_bound_and_tracks_exhaustive(
        (data, rel_eb) in field_strategy(),
        cz in 1usize..3, cy in 1usize..3, cx in 1usize..3,
        noise_amp in 0.0f32..2.0,
    ) {
        // Sharpen the smooth/noisy contrast: overlay hash noise on the
        // high-x half so chunks genuinely differ in character.
        let dims = data.dims();
        let data = Grid::from_fn(dims, |z, y, x| {
            let base = data.get(z, y, x);
            if x >= dims.nx() / 2 {
                let mut h = (z * 73_856_093) ^ (y * 19_349_663) ^ (x * 83_492_791);
                h ^= h >> 13;
                h = h.wrapping_mul(0x5bd1_e995);
                h ^= h >> 15;
                base + noise_amp * (((h & 0xFFFF) as f32 / 65_535.0) - 0.5)
            } else {
                base
            }
        });
        let span = [16 * cz, 16 * cy, 16 * cx];
        let abs_eb = ErrorBound::Relative(rel_eb).absolute(data.value_range() as f64);
        let base = SzhiConfig::new(ErrorBound::Absolute(abs_eb))
            .with_auto_tune(false)
            .with_chunk_span(span);
        let global = compress(&data, &base).unwrap();
        let estimated = compress(
            &data,
            &base.clone().with_mode_tuning(ModeTuning::estimated()),
        )
        .unwrap();
        let exhaustive = compress(
            &data,
            &base.clone().with_mode_tuning(ModeTuning::exhaustive()),
        )
        .unwrap();

        // (1) The estimator-guided stream always honours the bound.
        let recon = decompress(&estimated).unwrap();
        prop_assert_eq!(recon.dims(), data.dims());
        for (a, b) in data.as_slice().iter().zip(recon.as_slice()) {
            prop_assert!(((*a as f64) - (*b as f64)).abs() <= abs_eb + 1e-12,
                "violated: {} vs {} (eb {})", a, b, abs_eb);
        }

        // (2) Within the stated tolerance of the exhaustive trial encode,
        // and never worse than the global default.
        let n_chunks = szhi::core::chunk_count(&estimated).unwrap();
        let tolerance = exhaustive.len() as f64 * 1.05 + 32.0 * n_chunks as f64;
        prop_assert!(
            (estimated.len() as f64) <= tolerance,
            "estimated {} vs exhaustive {} over {} chunks",
            estimated.len(), exhaustive.len(), n_chunks
        );
        prop_assert!(estimated.len() <= global.len(),
            "estimated {} worse than global default {}", estimated.len(), global.len());
    }

    /// Per-chunk interpolation tuning (the v5 container) round-trips for
    /// arbitrary shapes, spans and bounds: the batch engine, the streaming
    /// writer and the io-backed sink agree byte-for-byte, every reader
    /// reconstructs the same values, and the bound holds.
    #[test]
    fn tuned_v5_streams_roundtrip_and_honour_the_bound(
        (data, rel_eb) in field_strategy(),
        cz in 1usize..4, cy in 1usize..4, cx in 1usize..4,
        estimated in any::<bool>(),
    ) {
        use szhi::core::{StreamSink, StreamSource};

        let span = [16 * cz, 16 * cy, 16 * cx];
        let abs_eb = ErrorBound::Relative(rel_eb).absolute(data.value_range() as f64);
        let tuning = if estimated { ModeTuning::estimated() } else { ModeTuning::PerChunk };
        let cfg = SzhiConfig::new(ErrorBound::Absolute(abs_eb))
            .with_auto_tune(false)
            .with_chunk_span(span)
            .with_mode_tuning(tuning)
            .with_chunk_interp_tuning(true);

        let batch = compress(&data, &cfg).unwrap();
        prop_assert_eq!(szhi::core::stream_version(&batch).unwrap(), szhi::core::VERSION_TUNED);

        let mut sink = StreamSink::new(Vec::new(), data.dims(), &cfg).unwrap();
        while let Some(region) = sink.next_chunk_region() {
            let dims = sink.plan().chunk_dims(sink.next_index());
            let chunk = Grid::from_vec(dims, data.extract(&region));
            sink.push_chunk(&chunk).unwrap();
        }
        prop_assert_eq!(&sink.finish().unwrap(), &batch);

        let in_memory = decompress(&batch).unwrap();
        let mut source = StreamSource::from_bytes(&batch).unwrap();
        prop_assert_eq!(in_memory.as_slice(), source.read_all().unwrap().as_slice());
        for (a, b) in data.as_slice().iter().zip(in_memory.as_slice()) {
            prop_assert!(((*a as f64) - (*b as f64)).abs() <= abs_eb + 1e-12,
                "violated: {} vs {} (eb {})", a, b, abs_eb);
        }
    }

    /// The interpolation predictor round-trips exactly (code-for-code) through
    /// its own decompressor for arbitrary small fields.
    #[test]
    fn interp_predictor_reconstruction_matches_quantized_values((data, rel_eb) in field_strategy()) {
        let abs_eb = ErrorBound::Relative(rel_eb).absolute(data.value_range() as f64);
        let p = InterpPredictor::new(InterpConfig::cusz_hi()).unwrap();
        let out = p.compress(&data, abs_eb);
        let recon = p.decompress(data.dims(), abs_eb, &out).unwrap();
        // Compressing the reconstruction again must give zero error codes
        // everywhere (the reconstruction is a fixed point of the predictor).
        let out2 = p.compress(&recon, abs_eb);
        let recon2 = p.decompress(data.dims(), abs_eb, &out2).unwrap();
        for (a, b) in recon.as_slice().iter().zip(recon2.as_slice()) {
            prop_assert!(((*a as f64) - (*b as f64)).abs() <= abs_eb + 1e-12);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The forward-only source is indistinguishable from the seekable
    /// source and the in-memory decoder on arbitrary shapes, spans and
    /// tuning policies — for every container version the encoder can
    /// emit (v4 trailered, v5 tuned), written serially or by the batch
    /// engine. (Leading-table v2/v3 streams, which the library only reads,
    /// are covered by the golden corpus.)
    #[test]
    fn forward_only_decoding_matches_every_other_read_path(
        (data, rel_eb) in field_strategy(),
        cz in 1usize..4, cy in 1usize..4, cx in 1usize..4,
        per_chunk in any::<bool>(),
        tune_interp in any::<bool>(),
        serial in any::<bool>(),
    ) {
        use szhi::core::compress_chunked;

        let span = [16 * cz, 16 * cy, 16 * cx];
        let abs_eb = ErrorBound::Relative(rel_eb).absolute(data.value_range() as f64);
        let tuning = if per_chunk { ModeTuning::PerChunk } else { ModeTuning::Global };
        let cfg = SzhiConfig::new(ErrorBound::Absolute(abs_eb))
            .with_auto_tune(false)
            .with_chunk_span(span)
            .with_mode_tuning(tuning)
            .with_chunk_interp_tuning(tune_interp);

        let bytes = if serial {
            // The sink, pushed one chunk at a time.
            let mut sink = StreamSink::new(Vec::new(), data.dims(), &cfg).unwrap();
            while let Some(region) = sink.next_chunk_region() {
                let chunk = Grid::from_vec(region.dims(), data.extract(&region));
                sink.push_chunk(&chunk).unwrap();
            }
            sink.finish().unwrap()
        } else {
            // The batch chunked engine over the same sink.
            compress_chunked(&data, &cfg, span).unwrap()
        };

        let in_memory = decompress(&bytes).unwrap();
        let mut seekable = StreamSource::from_bytes(&bytes).unwrap();
        let mut forward = ForwardSource::new(&bytes[..]).unwrap();
        prop_assert_eq!(forward.chunk_count(), seekable.chunk_count());
        prop_assert_eq!(in_memory.as_slice(), seekable.read_all().unwrap().as_slice());
        prop_assert_eq!(in_memory.as_slice(), forward.read_all().unwrap().as_slice());
        for (a, b) in data.as_slice().iter().zip(in_memory.as_slice()) {
            prop_assert!(((*a as f64) - (*b as f64)).abs() <= abs_eb + 1e-12,
                "violated: {} vs {} (eb {})", a, b, abs_eb);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// N concurrent compress jobs over the shared pool, joined in reverse
    /// (shuffled) completion order, each produce archives byte-identical
    /// to a serial sink run of the same field — concurrency can reorder
    /// completions but never bytes.
    #[test]
    fn concurrent_jobs_are_byte_identical_to_serial(
        (data, rel_eb) in field_strategy(),
        n_jobs in 2usize..5,
        tuning in 0usize..3,
    ) {
        let span = [16, 16, 16];
        let abs_eb = ErrorBound::Relative(rel_eb).absolute(data.value_range() as f64);
        // The third choice writes a tuned (v5) container, whose config
        // dictionary is interned in write order.
        let mode_tuning = [ModeTuning::Global, ModeTuning::PerChunk, ModeTuning::estimated()];
        let cfg = SzhiConfig::new(ErrorBound::Absolute(abs_eb))
            .with_auto_tune(false)
            .with_chunk_span(span)
            .with_mode_tuning(mode_tuning[tuning].clone())
            .with_chunk_interp_tuning(tuning == 2);

        // Each job gets its own deterministic variant of the field.
        let fields: Vec<Grid<f32>> = (0..n_jobs)
            .map(|j| {
                let offset = j as f32 * 0.125;
                Grid::from_vec(
                    data.dims(),
                    data.as_slice().iter().map(|v| v + offset).collect(),
                )
            })
            .collect();

        let service = JobService::new();
        let handles: Vec<_> = fields
            .iter()
            .map(|f| service.compress(f.clone(), &cfg, Vec::new()).unwrap())
            .collect();
        // Join newest-first so completion order differs from spawn order.
        let mut outputs: Vec<(usize, Vec<u8>)> = handles
            .into_iter()
            .enumerate()
            .rev()
            .map(|(j, h)| (j, h.join().unwrap().0))
            .collect();
        outputs.sort_by_key(|&(j, _)| j);

        for ((j, bytes), f) in outputs.iter().zip(&fields) {
            let mut sink = StreamSink::new(Vec::new(), f.dims(), &cfg).unwrap();
            while let Some(region) = sink.next_chunk_region() {
                let chunk = Grid::from_vec(region.dims(), f.extract(&region));
                sink.push_chunk(&chunk).unwrap();
            }
            let serial = sink.finish().unwrap();
            prop_assert_eq!(bytes, &serial, "job {} diverged from serial", j);
        }
    }
}
