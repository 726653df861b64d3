//! One level of parallelism: chunks, then the planes of a chunk's large
//! levels when the caller is not already a pool part.
//!
//! A driver that holds several chunks at once (`compress_chunked`,
//! `decompress`, the job service) spreads them over the pool, and each
//! chunk's sweep then stays on its worker. Anything that handles *one*
//! small chunk — pushing it to a sink, reading it back, random access, and
//! the monolithic engine on a small field — runs wholly on the calling
//! thread: the `pool.tasks` counter does not move, even with four threads
//! configured and the call coming from a thread that is not a pool worker
//! (where the pool would accept a dispatch). A 64³ chunk pushed or read
//! from such a thread, and a 64³ monolithic field decoded by `decompress`
//! (one chunk, decoded on the calling thread), spreads the planes of its
//! stride-1 level over the pool. And since a chunk is a pure function of its sub-field and the
//! configuration, the bytes are those of a 1-thread run either way.
//!
//! The thread count and the telemetry switch are process-global, so this
//! file holds a single test.

use std::io::Cursor;
use szhi_core::{
    compress, compress_chunked, decompress, decompress_chunk, ErrorBound, ModeTuning, StreamSink,
    StreamSource, SzhiConfig,
};
use szhi_datagen::DatasetKind;
use szhi_ndgrid::{Dims, Grid};
use szhi_telemetry::Snapshot;

const SPAN: [usize; 3] = [16, 16, 16];

/// Runs `op` and returns its result with the number of parts the worker
/// pool executed meanwhile.
fn pool_tasks<T>(op: impl FnOnce() -> T) -> (T, u64) {
    let before = Snapshot::capture();
    let out = op();
    let delta = Snapshot::capture().delta(&before);
    (out, delta.counter("pool.tasks").unwrap_or(0))
}

fn push_all(field: &Grid<f32>, cfg: &SzhiConfig) -> Vec<u8> {
    let mut sink = StreamSink::new(Vec::new(), field.dims(), cfg).unwrap();
    while let Some(region) = sink.next_chunk_region() {
        let chunk = Grid::from_vec(region.dims(), field.extract(&region));
        sink.push_chunk(&chunk).unwrap();
    }
    sink.finish().unwrap()
}

#[test]
fn only_multi_chunk_drivers_dispatch_to_the_pool() {
    let field = DatasetKind::Miranda.generate(Dims::d3(48, 40, 36), 42);
    let plain = SzhiConfig::new(ErrorBound::Absolute(2e-3))
        .with_auto_tune(false)
        .with_chunk_span(SPAN);
    // Every per-chunk tuner on: interpolation trials and estimator-guided
    // pipeline selection run inside each chunk's encode.
    let tuned = plain
        .clone()
        .with_chunk_interp_tuning(true)
        .with_mode_tuning(ModeTuning::estimated());
    // Monolithic, with the whole-field auto-tuner on (the default).
    let mono = SzhiConfig::new(ErrorBound::Relative(1e-3));

    rayon::set_num_threads(1);
    let serial: Vec<Vec<u8>> = [&plain, &tuned]
        .iter()
        .map(|cfg| push_all(&field, cfg))
        .collect();
    let serial_mono = compress(&field, &mono).unwrap();

    rayon::set_num_threads(4);
    szhi_telemetry::set_stats_enabled(true);

    for (cfg, want) in [&plain, &tuned].into_iter().zip(&serial) {
        let (bytes, tasks) = pool_tasks(|| push_all(&field, cfg));
        assert_eq!(
            tasks, 0,
            "StreamSink::new/push_chunk dispatched to the pool"
        );
        assert_eq!(&bytes, want, "pushed bytes moved with the thread count");

        let (n_chunks, tasks) = pool_tasks(|| {
            let mut source = StreamSource::new(Cursor::new(&bytes)).unwrap();
            for i in 0..source.chunk_count() {
                let (region, sub) = source.read_chunk(i).unwrap();
                let (region_ra, sub_ra) = decompress_chunk(&bytes, i).unwrap();
                assert_eq!(region, region_ra);
                assert_eq!(sub.as_slice(), sub_ra.as_slice());
            }
            source.chunk_count()
        });
        assert!(n_chunks >= 4);
        assert_eq!(
            tasks, 0,
            "read_chunk/decompress_chunk dispatched to the pool"
        );

        let (batch, tasks) = pool_tasks(|| compress_chunked(&field, cfg, SPAN).unwrap());
        assert!(
            tasks > 0,
            "compress_chunked must spread chunks over the pool"
        );
        assert_eq!(&batch, want, "batch bytes moved with the thread count");
        let (_, tasks) = pool_tasks(|| decompress(&batch).unwrap());
        assert!(tasks > 0, "decompress must spread chunks over the pool");
    }

    // One 64³ chunk and a ragged one: their stride-1 levels fan out.
    let large = DatasetKind::Miranda.generate(Dims::d3(108, 64, 64), 42);
    let large_cfg = plain.clone().with_chunk_span([64, 64, 64]);
    rayon::set_num_threads(1);
    let large_serial = push_all(&large, &large_cfg);
    rayon::set_num_threads(4);
    let (bytes, tasks) = pool_tasks(|| push_all(&large, &large_cfg));
    assert!(tasks > 0, "a 64³ push must spread its planes over the pool");
    assert_eq!(
        bytes, large_serial,
        "pushed 64³ bytes moved with the thread count"
    );
    let (_, tasks) = pool_tasks(|| {
        let mut source = StreamSource::new(Cursor::new(&bytes)).unwrap();
        let (_, sub) = source.read_chunk(1).unwrap();
        let (_, sub_ra) = decompress_chunk(&bytes, 1).unwrap();
        assert_eq!(sub.as_slice(), sub_ra.as_slice());
    });
    assert!(tasks > 0, "a 64³ read must spread its planes over the pool");

    let ((bytes, restored), tasks) = pool_tasks(|| {
        let bytes = compress(&field, &mono).unwrap();
        let restored = decompress(&bytes).unwrap();
        (bytes, restored)
    });
    assert_eq!(
        tasks, 0,
        "monolithic compress/decompress dispatched to the pool"
    );
    assert_eq!(
        bytes, serial_mono,
        "monolithic bytes moved with the thread count"
    );
    assert_eq!(restored.dims(), field.dims());

    let bits = |g: &Grid<f32>| g.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let cube = DatasetKind::Miranda.generate(Dims::d3(64, 64, 64), 42);
    let cube_cfg = SzhiConfig::new(ErrorBound::Absolute(2e-3)).with_auto_tune(false);
    rayon::set_num_threads(1);
    let v1 = compress(&cube, &cube_cfg).unwrap();
    let serial = decompress(&v1).unwrap();
    rayon::set_num_threads(2);
    let (restored, tasks) = pool_tasks(|| decompress(&v1).unwrap());
    assert!(
        tasks > 0,
        "a 64³ v1 decode must spread its planes over the pool"
    );
    assert_eq!(
        bits(&restored),
        bits(&serial),
        "the v1 decode moved with the thread count"
    );

    szhi_telemetry::set_stats_enabled(false);
    rayon::set_num_threads(0);
}
