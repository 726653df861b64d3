//! Steady-state allocation behaviour of the chunk encode and decode chains.
//!
//! The encode hot path threads reusable scratch buffers (the chunk's value
//! plane, which the predictor compresses in place, its quantization output,
//! the level-reordered code array, the framed body) through every per-chunk
//! stage, so once those buffers are warm, compressing another chunk of the
//! same shape performs no heap growth in the decomposition chain at all —
//! and a full sink push allocates only the lossless pipeline's own working
//! set, never another field-sized buffer. A streaming push holds one value
//! plane, and the parallel encode one per worker. The predictor's row kernel predicts into a stack
//! batch, so a warm decompression allocates nothing beyond the grid it
//! returns, and its `_into` form, with the code plane restored into a
//! reused buffer too, nothing at all. A whole-field `decompress` writes
//! each chunk into the output as it is decoded, so its peak is the output
//! plus a few chunks per worker. A lossless reducer checks a stream's
//! claimed output against its bound before it expands anything, so a
//! crafted stream costs no more memory than itself, and the Huffman
//! decoder allocates its output and one decode table, after checking the
//! symbol count its header claims. The CLI writes a decoded field to a stream through a fixed
//! buffer, never as a second field-sized byte copy, and to a file through
//! one band buffer reused across chunks. Each property is pinned
//! down with a counting global allocator.
// A `GlobalAlloc` impl is unsafe by trait contract; it is the one
// `unsafe` the workspace allows outside `vendor/`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use szhi::prelude::*;

/// Counts cumulative allocated bytes, live bytes and the live peak on top
/// of the system allocator.
struct CountingAlloc;

static TOTAL_ALLOCATED: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Cumulative bytes allocated by this thread alone: the test harness's
    /// own threads allocate while a test measures.
    static THREAD_ALLOCATED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Adds `bytes` to the cumulative counts, global and this thread's.
fn count_allocated(bytes: usize) {
    TOTAL_ALLOCATED.fetch_add(bytes, Ordering::Relaxed);
    // `try_with`: a thread's last frees and allocations can outlive its
    // locals.
    let _ = THREAD_ALLOCATED.try_with(|c| c.set(c.get() + bytes));
}

/// Adds `bytes` to the live count and raises the peak to match.
fn grow_live(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: delegates every operation to `System` unchanged; the added
// bookkeeping is relaxed atomic arithmetic and a const-initialised
// thread-local cell, with no further allocator reentry.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            count_allocated(layout.size());
            grow_live(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            let old_size = layout.size();
            count_allocated(new_size.saturating_sub(old_size));
            if new_size >= old_size {
                grow_live(new_size - old_size);
            } else {
                LIVE.fetch_sub(old_size - new_size, Ordering::Relaxed);
            }
        }
        new_ptr
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocated() -> usize {
    TOTAL_ALLOCATED.load(Ordering::Relaxed)
}

fn allocated_by_this_thread() -> usize {
    THREAD_ALLOCATED.with(std::cell::Cell::get)
}

/// Restarts the peak at the live bytes of this moment and returns them.
fn reset_peak() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

fn peak() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// The counter and the thread-count override are process-wide, so the
/// tests must not overlap: each holds this lock for its whole body.
static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn one_at_a_time() -> std::sync::MutexGuard<'static, ()> {
    // A poisoned lock only means the other test failed; run regardless.
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn warm_scratch_decomposition_performs_zero_heap_growth() {
    use szhi_predictor::{CompressScratch, InterpConfig, InterpOutput, InterpPredictor};

    let _serial = one_at_a_time();
    rayon::set_num_threads(1);
    let dims = Dims::d3(32, 32, 32);
    let data = DatasetKind::Miranda.generate(dims, 7);
    let predictor = InterpPredictor::new(InterpConfig::cusz_hi()).unwrap();
    let order = szhi_predictor::LevelOrder::new(dims, InterpConfig::cusz_hi().anchor_stride);

    let mut scratch = CompressScratch::default();
    let mut output = InterpOutput::default();
    let mut reordered = Vec::new();
    // Warm-up: sizes every buffer of the chain.
    predictor.compress_into(&data, 2e-3, &mut scratch, &mut output);
    order.reorder_into(&output.codes, &mut reordered);

    let before = allocated();
    let rounds = 16usize;
    for _ in 0..rounds {
        predictor.compress_into(&data, 2e-3, &mut scratch, &mut output);
        order.reorder_into(&output.codes, &mut reordered);
    }
    let per_round = (allocated() - before) / rounds;
    rayon::set_num_threads(0);

    // Zero is the target; a small allowance covers allocator-internal noise
    // (e.g. the outlier sort's temp for a handful of outliers). Anything
    // buffer-sized means a scratch field is being reallocated per call.
    assert!(
        per_round < 4096,
        "warm-scratch decomposition allocates {per_round} B per round — a \
         scratch buffer is not being reused"
    );
}

#[test]
fn warm_decompression_allocates_only_the_returned_grid() {
    use szhi_predictor::{InterpConfig, InterpOutput, InterpPredictor, LevelOrder};

    let _serial = one_at_a_time();
    let dims = Dims::d3(32, 32, 32);
    let data = DatasetKind::Miranda.generate(dims, 7);
    let predictor = InterpPredictor::new(InterpConfig::cusz_hi()).unwrap();
    let output = predictor.compress(&data, 2e-3);
    // Warm-up.
    drop(predictor.decompress(dims, 2e-3, &output).unwrap());

    let before = allocated();
    let rounds = 16usize;
    for _ in 0..rounds {
        std::hint::black_box(predictor.decompress(dims, 2e-3, &output).unwrap());
    }
    let per_round = (allocated() - before) / rounds;

    // The reconstruction plane is the returned grid; anything beyond it
    // and allocator noise means the kernel stages predictions on the heap.
    let grid = dims.nbytes_f32();
    assert!(
        per_round <= grid + 4096,
        "warm decompression allocates {per_round} B per round for a {grid} B grid"
    );

    // The `_into` forms restore and reconstruct into the caller's planes,
    // so a warm round allocates nothing of its own.
    let order = LevelOrder::new(dims, InterpConfig::cusz_hi().anchor_stride);
    let reordered = order.reorder(&output.codes);
    let mut restored = InterpOutput {
        anchors: output.anchors.clone(),
        codes: Vec::new(),
        outliers: output.outliers.clone(),
    };
    let mut recon = Vec::new();
    order.restore_into(&reordered, &mut restored.codes).unwrap();
    predictor
        .decompress_into(dims, 2e-3, &restored, &mut recon)
        .unwrap();

    let before = allocated();
    for _ in 0..rounds {
        order.restore_into(&reordered, &mut restored.codes).unwrap();
        predictor
            .decompress_into(dims, 2e-3, &restored, &mut recon)
            .unwrap();
    }
    let per_round = (allocated() - before) / rounds;
    assert!(
        per_round < 4096,
        "a warm restore_into + decompress_into round allocates {per_round} B"
    );
    let fresh = predictor.decompress(dims, 2e-3, &output).unwrap();
    assert!(recon
        .iter()
        .map(|v| v.to_bits())
        .eq(fresh.as_slice().iter().map(|v| v.to_bits())));
}

#[test]
fn decompress_holds_the_output_plus_one_chunk_per_worker() {
    let _serial = one_at_a_time();
    let dims = Dims::d3(128, 128, 64); // 32 chunks of 32³
    let span = [32usize, 32, 32];
    let data = DatasetKind::Miranda.generate(dims, 11);
    let cfg = SzhiConfig::new(ErrorBound::Absolute(2e-3))
        .with_auto_tune(false)
        .with_chunk_span(span);
    let bytes = szhi::core::compress(&data, &cfg).unwrap();
    assert!(szhi::core::chunk_count(&bytes).unwrap() >= 32);
    let output = dims.nbytes_f32();
    let chunk = Dims::d3(span[0], span[1], span[2]).nbytes_f32();

    for threads in [1usize, 2] {
        rayon::set_num_threads(threads);
        let start = reset_peak();
        let recon = szhi::core::decompress(&bytes).unwrap();
        let above = peak() - start;
        rayon::set_num_threads(0);
        for (a, b) in data.as_slice().iter().zip(recon.as_slice()) {
            assert!(((*a as f64) - (*b as f64)).abs() <= 2e-3 + 1e-12);
        }
        drop(recon);
        // The output, and per worker one chunk's transient planes (codes,
        // reconstruction, lossless stage buffers); holding every decoded
        // chunk as well as the output is about twice the output.
        let budget = output + threads * 4 * chunk + 256 * 1024;
        assert!(
            above <= budget,
            "at {threads} threads decompress peaked {above} B above its start \
             for a {output} B output (budget {budget} B)"
        );
    }
}

#[test]
fn steady_state_sink_pushes_allocate_no_field_sized_buffers() {
    use szhi::core::StreamSink;

    let _serial = one_at_a_time();
    // Sequential encoding: the measurement must see one encode chain, not
    // a worker pool's interleaved allocations.
    rayon::set_num_threads(1);

    let dims = Dims::d3(384, 32, 32); // 12 chunks of 32³
    let data = DatasetKind::Miranda.generate(dims, 11);
    let cfg = SzhiConfig::new(ErrorBound::Absolute(2e-3))
        .with_auto_tune(false)
        .with_chunk_span([32, 32, 32]);

    // Pre-extract every chunk so the loop below allocates nothing of its
    // own, and pre-size the output so writes never grow it.
    let out: Vec<u8> = Vec::with_capacity(dims.nbytes_f32());
    let mut sink = StreamSink::new(out, dims, &cfg).unwrap();
    let chunks: Vec<Grid<f32>> = (0..sink.plan().len())
        .map(|i| {
            let region = sink.plan().chunk_at(i);
            Grid::from_vec(sink.plan().chunk_dims(i), data.extract(&region))
        })
        .collect();
    let chunk_raw_bytes = sink.plan().chunk_dims(0).nbytes_f32();
    assert!(chunks.len() >= 12, "need enough chunks to measure");

    // Warm-up: the first few pushes size the scratch buffers.
    let warmup = 3usize;
    for chunk in &chunks[..warmup] {
        sink.push_chunk(chunk).unwrap();
    }
    let before = allocated();
    for chunk in &chunks[warmup..] {
        sink.push_chunk(chunk).unwrap();
    }
    let steady = chunks.len() - warmup;
    let per_chunk = (allocated() - before) / steady;

    // What remains per steady-state push is the lossless pipeline's own
    // transient working set (a few code-array multiples). Before scratch
    // reuse, every push also allocated the f32 reconstruction plane, the
    // code array, the level permutation and the reorder output — roughly
    // `3 × chunk_raw_bytes` on top, which this bound catches.
    assert!(
        per_chunk < 8 * chunk_raw_bytes,
        "steady-state push allocates {per_chunk} B per chunk (chunk raw \
         size {chunk_raw_bytes} B) — field-sized buffers are being \
         reallocated instead of reused"
    );

    // The measured stream is still a correct one.
    let bytes = sink.finish().unwrap();
    rayon::set_num_threads(0);
    let recon = szhi::core::decompress(&bytes).unwrap();
    for (a, b) in data.as_slice().iter().zip(recon.as_slice()) {
        assert!(((*a as f64) - (*b as f64)).abs() <= 2e-3 + 1e-12);
    }
}

/// `cli-file`'s field kind and bound (1e-3 of the value range) over three
/// 64³ chunks, and the sizes of a chunk's f32 value plane and code plane.
fn rtm_chunks() -> (Grid<f32>, SzhiConfig, usize, usize) {
    let dims = Dims::d3(192, 64, 64);
    let data = DatasetKind::Rtm.generate(dims, 11);
    let cfg = SzhiConfig::new(ErrorBound::Absolute(1e-3 * data.value_range() as f64))
        .with_auto_tune(false)
        .with_chunk_span([64, 64, 64]);
    let points = 64 * 64 * 64;
    (data, cfg, 4 * points, points)
}

/// Runs `op` with the thread count set to `threads`, and clears it after.
fn with_threads<T>(threads: usize, op: impl FnOnce() -> T) -> T {
    rayon::set_num_threads(threads);
    let out = op();
    rayon::set_num_threads(0);
    out
}

#[test]
fn a_warm_streaming_push_holds_one_value_plane() {
    use szhi::core::{StreamSink, SzhiError};

    let _serial = one_at_a_time();
    let (data, cfg, plane, code_plane) = rtm_chunks();
    let dims = data.dims();
    // Each push's peak counts from before the sink exists, so it covers
    // what the sink holds as well as what the push allocates. Returns
    // (peak above that start, body bytes) per push.
    let push_all = |caller_holds_the_chunk: bool| {
        let mut peaks = Vec::with_capacity(3);
        let out: Vec<u8> = Vec::with_capacity(dims.nbytes_f32());
        let start = LIVE.load(Ordering::Relaxed);
        let mut sink = StreamSink::new(out, dims, &cfg).unwrap();
        while !sink.is_complete() {
            reset_peak();
            let receipt = if caller_holds_the_chunk {
                let region = sink.next_chunk_region().unwrap();
                let chunk = Grid::from_vec(region.dims(), data.extract(&region));
                sink.push_chunk(&chunk)
            } else {
                sink.push_chunk_with(|region, plane| {
                    data.extract_into(region, plane);
                    Ok::<_, SzhiError>(())
                })
            };
            peaks.push((peak() - start, receipt.unwrap().compressed_bytes));
        }
        peaks
    };
    // At two threads the chunk's large levels spread their planes over the
    // pool, which must cost no second plane: the budget is the same.
    for threads in [1usize, 2] {
        let in_plane = with_threads(threads, || push_all(false));
        let caller_held = with_threads(threads, || push_all(true));

        // The sink holds one value plane, the chunk's code plane and its
        // level-ordered copy, and a body buffer as large as the largest body
        // so far; while a push writes, the chosen payload the body is framed
        // from is live too. The rest is the lossless stages' own buffers.
        let mut largest = 0;
        for (i, (&(above, body), &(held, _))) in in_plane.iter().zip(&caller_held).enumerate() {
            largest = body.max(largest);
            let budget = plane + 2 * code_plane + 2 * largest + 256 * 1024;
            if i == 0 {
                continue; // the first push sizes the sink's buffers
            }
            assert!(
                above <= budget,
                "at {threads} threads warm push {i} peaked {above} B above the sink's start \
                 (budget {budget} B)"
            );
            // A caller that reads each chunk into a grid of its own, as the
            // CLI once did, holds a second plane, and the budget notices it.
            assert!(
                held > budget,
                "at {threads} threads warm push {i} of a caller-held chunk peaked only \
                 {held} B (budget {budget} B)"
            );
        }
    }
}

#[test]
fn a_chunk_read_holds_its_grid_and_one_chunk_of_scratch() {
    use szhi::core::StreamSource;

    let _serial = one_at_a_time();
    let (data, cfg, plane, code_plane) = rtm_chunks();
    let bytes = with_threads(1, || {
        szhi::core::compress_chunked(&data, &cfg, [64, 64, 64]).unwrap()
    });
    let mut source = StreamSource::from_bytes(&bytes).unwrap();
    // Warm-up, at both thread counts: the pool's workers and every
    // first-use buffer exist before anything is measured.
    for threads in [1usize, 2] {
        with_threads(threads, || drop(source.read_chunk(0).unwrap()));
    }
    for threads in [1usize, 2] {
        for i in 0..source.chunk_count() {
            let start = reset_peak();
            let (_, grid) = with_threads(threads, || source.read_chunk(i).unwrap());
            let above = peak() - start;
            drop(grid);
            // The returned grid, the body (bounded by the archive), the
            // decoded and the restored code planes, and the lossless stages'
            // buffers: at two threads the chunk's large levels run on the
            // pool with no further plane.
            let budget = plane + 2 * code_plane + 2 * bytes.len() + 256 * 1024;
            assert!(
                above <= budget,
                "at {threads} threads reading chunk {i} peaked {above} B (budget {budget} B)"
            );
        }
    }
}

#[test]
fn a_warm_chunked_encode_holds_one_value_plane_per_worker() {
    let _serial = one_at_a_time();
    let (data, cfg, plane, code_plane) = rtm_chunks();
    for threads in [1usize, 2] {
        rayon::set_num_threads(threads);
        // Warm-up: sizes the workers' encode scratch.
        drop(szhi::core::compress_chunked(&data, &cfg, [64, 64, 64]).unwrap());
        let start = reset_peak();
        let bytes = szhi::core::compress_chunked(&data, &cfg, [64, 64, 64]).unwrap();
        let above = peak() - start;
        rayon::set_num_threads(0);
        // Per worker one chunk's value plane and code planes (a worker the
        // warm-up left idle sizes its scratch here), the archive, and the
        // lossless stages' buffers.
        let budget = threads * (plane + 2 * code_plane) + bytes.len() + 256 * 1024;
        assert!(
            above <= budget,
            "at {threads} threads compress_chunked peaked {above} B above its start \
             (budget {budget} B, archive {} B)",
            bytes.len()
        );
    }
}

#[test]
fn huffman_decode_allocates_its_output_and_one_table() {
    use szhi::codec::huffman;
    use szhi_predictor::{InterpConfig, InterpPredictor, LevelOrder};

    let _serial = one_at_a_time();
    // The CR pipeline's first stage sees a chunk's level-ordered codes.
    let dims = Dims::d3(64, 64, 64);
    let data = DatasetKind::Miranda.generate(dims, 7);
    let config = InterpConfig::cusz_hi();
    let order = LevelOrder::new(dims, config.anchor_stride);
    let output = InterpPredictor::new(config).unwrap().compress(&data, 2e-3);
    let mut codes = Vec::new();
    order.reorder_into(&output.codes, &mut codes);
    let stream = huffman::encode(&codes);
    let n = codes.len();
    // Warm-up.
    drop(huffman::decode_limited(&stream, n).unwrap());

    let before = allocated();
    let decoded = huffman::decode_limited(&stream, n).unwrap();
    let spent = allocated() - before;
    assert_eq!(decoded, codes);
    assert!(
        spent <= n + 64 * 1024,
        "a warm decode of {n} symbols allocated {spent} B"
    );

    // Claims past the caller's bound, or past one symbol per payload bit,
    // fail on the header alone.
    let payload_bits = 8 * (stream.len() - 8 - 192);
    for (claim, bound) in [(1u64 << 40, n), (payload_bits as u64 + 1, usize::MAX)] {
        let mut crafted = stream.clone();
        crafted[..8].copy_from_slice(&claim.to_le_bytes());
        let before = allocated();
        let result = huffman::decode_limited(&crafted, bound);
        let spent = allocated() - before;
        assert!(result.is_err(), "a claim of {claim} symbols decoded");
        assert!(
            spent < 4096,
            "a claim of {claim} symbols allocated {spent} B before failing"
        );
    }
}

#[test]
fn writing_a_field_to_a_stream_allocates_no_second_copy() {
    let _serial = one_at_a_time();
    // `szhi-cli decode … -` and `--chunk` write decoded values this way.
    let values = vec![0.25f32; 1 << 20];
    let before = allocated();
    szhi_cli::raw::write_all(std::io::sink(), &values).unwrap();
    let spent = allocated() - before;
    assert!(
        spent <= 64 * 1024 + 4096,
        "writing a {} B field allocated {spent} B",
        4 * values.len()
    );
}

#[test]
fn writing_a_field_by_bands_allocates_one_band_buffer() {
    use szhi_ndgrid::ChunkPlan;

    let _serial = one_at_a_time();
    // `szhi-cli decode <archive> <file>` writes each chunk this way. Bands
    // of up to 218 rows of 300 values reach 261 KiB, near the 256 KiB cap.
    let dims = Dims::d3(4, 256, 300);
    let field = Grid::from_fn(dims, |z, y, x| (z * 100_000 + y * 300 + x) as f32);
    let chunks = ChunkPlan::new(dims, [2, 256, 256])
        .iter()
        .map(|region| {
            let values = field.extract(&region);
            (region, values)
        })
        .collect::<Vec<_>>();
    let path = std::env::temp_dir().join(format!("szhi-alloc-bands-{}.f32", std::process::id()));
    let mut out = std::fs::File::options()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(&path)
        .unwrap();
    szhi_cli::raw::presize(&out, dims).unwrap();
    let mut band = Vec::new();
    // The band alone is 261,600 B of the 262,144 B budget, so only this
    // thread's allocations count: the harness's threads allocate up to
    // ~1.5 KiB meanwhile.
    let before = allocated_by_this_thread();
    for (region, values) in &chunks {
        szhi_cli::raw::write_region_bands(&mut out, dims, region, values, &mut band).unwrap();
    }
    let spent = allocated_by_this_thread() - before;
    drop(out);
    let written = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert!(written == szhi_cli::raw::to_bytes(field.as_slice()));
    assert!(
        spent <= 256 * 1024,
        "writing {} chunks by bands allocated {spent} B",
        chunks.len()
    );
}

/// A reducer stream with the given header lengths and sections.
fn reducer_stream(orig_len: usize, bitmap_len: usize, sections: [&[u8]; 3]) -> Vec<u8> {
    let mut s = Vec::new();
    for len in [orig_len, bitmap_len]
        .into_iter()
        .chain(sections.map(<[u8]>::len))
    {
        s.extend_from_slice(&(len as u64).to_le_bytes());
    }
    sections.iter().for_each(|part| s.extend_from_slice(part));
    s
}

#[test]
fn crafted_reducer_streams_fail_before_expanding() {
    use szhi::codec::{PipelineSpec, Stage, StageSpec};

    let _serial = one_at_a_time();
    // 256 KiB of second-level bitmap stand for a 2 MiB bitmap and so for
    // 16 Mi symbols: one kept symbol, and every bitmap byte after the
    // second a repeat (RRE) or a zero (RZE).
    let bm_bitmap_len = 256 * 1024;
    let mut bm_bitmap = vec![0u8; bm_bitmap_len];
    bm_bitmap[0] = 0b11;
    let n_sym = 64 * bm_bitmap_len;
    let rre4 = reducer_stream(4 * n_sym, n_sym / 8, [&bm_bitmap, &[1, 0], &[1, 2, 3, 4]]);
    // The same sections under a small claimed length: only the bitmap
    // length gives it away.
    let rre4_wide_bitmap = reducer_stream(4096, n_sym / 8, [&bm_bitmap, &[1, 0], &[1, 2, 3, 4]]);
    let zeros = vec![0u8; bm_bitmap_len];
    let rze1 = reducer_stream(n_sym, n_sym / 8, [&zeros, &[], &[]]);
    let rre1 = reducer_stream(n_sym, n_sym / 8, [&bm_bitmap, &[1, 0], &[1]]);
    // CLOG1: a claimed length, then blocks of width 0 (six zero bits stand
    // for 256 zero symbols).
    let mut clog1 = ((256 * 8 * bm_bitmap_len / 6) as u64)
        .to_le_bytes()
        .to_vec();
    clog1.extend_from_slice(&zeros);

    type Decode<'a> = Box<dyn Fn() -> Result<Vec<u8>, szhi::codec::CodecError> + 'a>;
    let cases: Vec<(&str, usize, Decode)> = vec![
        (
            "RRE4",
            rre4.len(),
            Box::new(|| StageSpec::Rre4.decode_limited(&rre4, 4096)),
        ),
        (
            "RRE4, wide bitmap",
            rre4_wide_bitmap.len(),
            Box::new(|| StageSpec::Rre4.decode_limited(&rre4_wide_bitmap, 4096)),
        ),
        (
            "RZE1",
            rze1.len(),
            Box::new(|| StageSpec::Rze1.decode_limited(&rze1, 4096)),
        ),
        (
            "CLOG1",
            clog1.len(),
            Box::new(|| StageSpec::Clog1.decode_limited(&clog1, 4096)),
        ),
        (
            "TP pipeline over RRE1",
            rre1.len(),
            Box::new(|| PipelineSpec::TP.decode_bounded(&rre1, 4096)),
        ),
    ];
    for (what, input_len, decode) in cases {
        let before = allocated();
        let result = decode();
        let spent = allocated() - before;
        assert!(result.is_err(), "{what}: a crafted stream decoded");
        assert!(
            spent < 2 * input_len + 64 * 1024,
            "{what}: allocated {spent} B for a {input_len} B stream before failing"
        );
    }
}
