//! The concurrent job service: many simultaneous compress / decompress
//! jobs multiplexed over the shared persistent worker pool, each with
//! per-job progress reporting and cooperative cancellation.
//!
//! A *job* is one whole-archive operation — compress a field into a
//! [`StreamSink`], or decompress a stream through a [`StreamSource`] —
//! running on its own coordinator thread. The coordinator of a compress
//! job hands its sink the field one small window of chunks at a time (so
//! several jobs interleave fairly on the workspace's shared worker pool);
//! the sink encodes each window across the pool and writes it in plan
//! order, which keeps every job's output **byte-identical to a serial
//! run**: chunk encoding is a pure function of (chunk, configuration), and
//! the container assembles chunks in plan order regardless of who encoded
//! them when.
//!
//! Progress is observable while the job runs ([`JobHandle::progress`]),
//! and a job can be cancelled cooperatively ([`JobHandle::cancel`]): the
//! coordinator notices before every chunk write (a decompress job before
//! every chunk insert), **poisons** a compress job's sink —
//! the half-written stream has no table or trailer and must never be
//! finalized — and returns the typed [`SzhiError::Cancelled`].
//!
//! ```
//! use szhi_core::{jobs::JobService, ErrorBound, SzhiConfig};
//! use szhi_ndgrid::{Dims, Grid};
//!
//! let field = Grid::from_fn(Dims::d3(32, 32, 32), |z, y, x| {
//!     ((x + y) as f32 * 0.1).sin() + z as f32 * 0.02
//! });
//! let cfg = SzhiConfig::new(ErrorBound::Absolute(1e-3))
//!     .with_auto_tune(false)
//!     .with_chunk_span([16, 16, 16]);
//! let service = JobService::new();
//! // Several jobs can run at once; each returns a handle immediately.
//! let job = service.compress(field, &cfg, Vec::new()).unwrap();
//! let (bytes, stats) = job.join().unwrap();
//! assert_eq!(stats.compressed_bytes, bytes.len());
//! ```

use crate::compressor::CompressionStats;
use crate::config::SzhiConfig;
use crate::error::SzhiError;
use crate::stream::{StreamSink, StreamSource};
use std::io::{Read, Seek, Write};
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use szhi_codec::bitio::decode_capacity;
use szhi_ndgrid::Grid;
use szhi_telemetry::Snapshot;

/// The coarse stage a job is in, stored by the job itself as it enters
/// each step: [`JobPhase::Tuning`] for configuration resolution and chunk
/// planning, then [`JobPhase::Encoding`] and [`JobPhase::Flushing`] (compress
/// jobs) or [`JobPhase::Decoding`] (decompress jobs), and
/// [`JobPhase::Done`] only once the job has succeeded. A job that errors or
/// is cancelled keeps the phase it was last in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum JobPhase {
    /// The job exists but its coordinator has not entered a step yet.
    Starting = 0,
    /// Resolving configuration: header validation, chunk plan.
    Tuning = 1,
    /// The windowed parallel encode (compress jobs).
    Encoding = 2,
    /// Finalizing the container: table, trailer, flush (compress jobs).
    Flushing = 3,
    /// The sequential fetch-verify-decode loop (decompress jobs).
    Decoding = 4,
    /// The job succeeded; its result is ready.
    Done = 5,
}

impl JobPhase {
    fn from_u8(v: u8) -> JobPhase {
        match v {
            1 => JobPhase::Tuning,
            2 => JobPhase::Encoding,
            3 => JobPhase::Flushing,
            4 => JobPhase::Decoding,
            5 => JobPhase::Done,
            _ => JobPhase::Starting,
        }
    }
}

/// A snapshot of a job's progress: chunks completed out of chunks total,
/// plus the coarse phase the job is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobProgress {
    /// Chunks fully processed so far.
    pub done: usize,
    /// Total chunks the job will process.
    pub total: usize,
    /// The stage the job is in (see [`JobPhase`]).
    pub phase: JobPhase,
}

/// The state a job's coordinator thread and its [`JobHandle`] share.
#[derive(Debug)]
struct JobState {
    done: AtomicUsize,
    total: usize,
    cancelled: AtomicBool,
    phase: AtomicU8,
    telemetry: Mutex<Option<Snapshot>>,
}

impl JobState {
    fn new(total: usize, phase: JobPhase) -> JobState {
        JobState {
            done: AtomicUsize::new(0),
            total,
            cancelled: AtomicBool::new(false),
            phase: AtomicU8::new(phase as u8),
            telemetry: Mutex::new(None),
        }
    }

    fn enter(&self, phase: JobPhase) {
        self.phase.store(phase as u8, Ordering::Relaxed);
    }
}

/// A handle to one running job: observe progress, request cancellation,
/// and join for the result. Dropping the handle detaches the job — it
/// runs to completion (or cancellation) unobserved.
#[derive(Debug)]
pub struct JobHandle<T> {
    state: Arc<JobState>,
    thread: std::thread::JoinHandle<Result<T, SzhiError>>,
}

impl<T> JobHandle<T> {
    /// A snapshot of the job's progress, safe to poll from any thread.
    pub fn progress(&self) -> JobProgress {
        JobProgress {
            done: self.state.done.load(Ordering::Relaxed),
            total: self.state.total,
            phase: JobPhase::from_u8(self.state.phase.load(Ordering::Relaxed)),
        }
    }

    /// The telemetry delta recorded over this job's run — every counter,
    /// histogram and span as captured right before the coordinator
    /// started minus right after it finished. `None` until the job
    /// finishes. The metric registry is global, so jobs running
    /// concurrently with this one contribute to its delta too; for an
    /// isolated reading run one job at a time.
    pub fn telemetry(&self) -> Option<Snapshot> {
        self.state
            .telemetry
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Requests cooperative cancellation. The job notices before its next
    /// chunk write (or decode):
    /// a compress job poisons its sink (the partial stream must be
    /// discarded) and [`JobHandle::join`] returns
    /// [`SzhiError::Cancelled`]. Cancelling a job that already finished
    /// has no effect.
    pub fn cancel(&self) {
        self.state.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether the job's coordinator thread has finished (successfully or
    /// not) — `join` will not block once this is true.
    pub fn is_finished(&self) -> bool {
        self.thread.is_finished()
    }

    /// Blocks until the job completes and returns its result.
    pub fn join(self) -> Result<T, SzhiError> {
        match self.thread.join() {
            Ok(result) => result,
            // A panic on the coordinator is a bug, not an operational
            // error: propagate it instead of laundering it into a typed
            // error the caller might retry.
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
}

/// Spawns compress / decompress jobs that run concurrently over the
/// shared worker pool. The service itself is stateless — it exists to
/// give the job API an explicit home and keep call sites readable — so
/// it is `Copy` and free to construct.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobService;

impl JobService {
    /// Creates a job service.
    pub fn new() -> JobService {
        JobService
    }

    /// Spawns a job compressing `field` under `cfg` into `out` as a
    /// trailered (v4, or tuned v5) container — the [`StreamSink`] rules
    /// apply: absolute error bound, auto-tune disabled. Configuration
    /// errors surface here, on the caller's thread, before any job
    /// spawns. On success the handle joins to the backing writer and the
    /// aggregated compression statistics.
    pub fn compress<W>(
        &self,
        field: Grid<f32>,
        cfg: &SzhiConfig,
        out: W,
    ) -> Result<JobHandle<(W, CompressionStats)>, SzhiError>
    where
        W: Write + Send + 'static,
    {
        crate::telemetry::JOBS_STARTED.bump(1);
        let sink = {
            // Sink construction is the job's tuning step: configuration
            // resolution and chunk planning. It runs here on the caller's
            // thread, so config errors surface synchronously and the job
            // starts in its tuning phase.
            let _span = crate::telemetry::JOB_TUNE.enter();
            StreamSink::new(out, field.dims(), cfg)?
        };
        let state = Arc::new(JobState::new(sink.plan().len(), JobPhase::Tuning));
        let shared = Arc::clone(&state);
        let thread =
            std::thread::spawn(move || run_job(&shared, |state| run_compress(field, sink, state)));
        Ok(JobHandle { state, thread })
    }

    /// Spawns a job decompressing the stream behind `reader` (any chunked
    /// container, v2–v5) into the full field. Header and chunk-table
    /// errors surface here, on the caller's thread, before any job
    /// spawns.
    pub fn decompress<R>(&self, reader: R) -> Result<JobHandle<Grid<f32>>, SzhiError>
    where
        R: Read + Seek + Send + 'static,
    {
        crate::telemetry::JOBS_STARTED.bump(1);
        let source = StreamSource::new(reader)?;
        // The output buffer is allocated here and filled by the job. A
        // large block allocated on the short-lived coordinator would land
        // in that thread's malloc arena, which can keep it resident after
        // the caller frees it; which arena a coordinator gets depends on
        // thread timing, and so would the process's resident peak. The cap
        // bounds what a corrupt header can reserve before the job runs.
        let out = Vec::with_capacity(decode_capacity(source.index().dims().len()));
        let state = Arc::new(JobState::new(source.chunk_count(), JobPhase::Starting));
        let shared = Arc::clone(&state);
        let thread = std::thread::spawn(move || {
            run_job(&shared, |state| run_decompress(source, out, state))
        });
        Ok(JobHandle { state, thread })
    }
}

/// Runs a job body on the coordinator thread with the shared job
/// plumbing: the per-job telemetry delta, the final phase and the job
/// lifecycle counters.
fn run_job<T, F>(state: &JobState, body: F) -> Result<T, SzhiError>
where
    F: FnOnce(&JobState) -> Result<T, SzhiError>,
{
    let before = Snapshot::capture();
    let result = body(state);
    let delta = Snapshot::capture().delta(&before);
    *state
        .telemetry
        .lock()
        .unwrap_or_else(PoisonError::into_inner) = Some(delta);
    match &result {
        Ok(_) => {
            state.enter(JobPhase::Done);
            crate::telemetry::JOBS_COMPLETED.bump(1);
        }
        Err(SzhiError::Cancelled) => crate::telemetry::JOBS_CANCELLED.bump(1),
        Err(_) => crate::telemetry::JOBS_FAILED.bump(1),
    }
    result
}

/// The coordinator of a compress job: pushes the field to the sink one
/// window of chunks at a time; before every chunk write the sink's hook
/// records progress and checks for cancellation, which poisons the sink.
fn run_compress<W: Write>(
    field: Grid<f32>,
    mut sink: StreamSink<W>,
    state: &JobState,
) -> Result<(W, CompressionStats), SzhiError> {
    let n = sink.plan().len();
    // A window of one chunk per worker keeps several concurrent jobs
    // interleaving fairly on the shared workers.
    let window = rayon::current_num_threads().max(1);
    {
        state.enter(JobPhase::Encoding);
        let _span = crate::telemetry::JOB_ENCODE.enter();
        for start in (0..n).step_by(window) {
            // szhi-analyzer: allow(panic-reachability) -- trusted-encode boundary: the job encodes its caller's in-memory field over the sink's own plan, not archive bytes
            sink.push_range(&field, start..n.min(start + window), |i| {
                state.done.store(i, Ordering::Relaxed);
                if state.cancelled.load(Ordering::Relaxed) {
                    Err(SzhiError::Cancelled)
                } else {
                    Ok(())
                }
            })?;
        }
        state.done.store(n, Ordering::Relaxed);
    }
    state.enter(JobPhase::Flushing);
    let _span = crate::telemetry::JOB_FLUSH.enter();
    sink.finish_with_stats()
}

/// The coordinator of a decompress job: fills `out`, the buffer the
/// submitting thread allocated, with zeros, then drains the source into it
/// one chunk at a time on this job's own thread (reads from one seekable
/// source are inherently serial, and only a chunk's large levels, those of
/// a 64³ chunk, dispatch their planes to the pool, so concurrent
/// decompress jobs of smaller chunks run side by side instead of queueing
/// on the shared workers); before every chunk insert the drain's hook
/// records progress and checks for cancellation.
fn run_decompress<R: Read + Seek>(
    mut source: StreamSource<R>,
    mut out: Vec<f32>,
    state: &JobState,
) -> Result<Grid<f32>, SzhiError> {
    state.enter(JobPhase::Decoding);
    let _span = crate::telemetry::JOB_DECODE.enter();
    let dims = source.index().dims();
    out.resize(dims.len(), 0.0);
    let mut out = Grid::from_vec(dims, out);
    source.drain_into(&mut out, |i| {
        state.done.store(i, Ordering::Relaxed);
        if state.cancelled.load(Ordering::Relaxed) {
            Err(SzhiError::Cancelled)
        } else {
            Ok(())
        }
    })?;
    state.done.store(source.chunk_count(), Ordering::Relaxed);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressor::decompress;
    use crate::config::ErrorBound;
    use std::sync::mpsc;
    use szhi_datagen::DatasetKind;
    use szhi_ndgrid::Dims;

    fn job_cfg() -> SzhiConfig {
        SzhiConfig::new(ErrorBound::Absolute(2e-3))
            .with_auto_tune(false)
            .with_chunk_span([16, 16, 16])
    }

    /// Serial reference bytes: the same field through a plain sink.
    fn serial_bytes(field: &Grid<f32>, cfg: &SzhiConfig) -> Vec<u8> {
        let mut sink = StreamSink::new(Vec::new(), field.dims(), cfg).unwrap();
        while let Some(region) = sink.next_chunk_region() {
            let dims = sink.plan().chunk_dims(sink.next_index());
            sink.push_chunk(&Grid::from_vec(dims, field.extract(&region)))
                .unwrap();
        }
        sink.finish().unwrap()
    }

    #[test]
    fn concurrent_jobs_match_serial_runs_byte_for_byte() {
        let cfg = job_cfg();
        let fields: Vec<Grid<f32>> = (0..4)
            .map(|seed| DatasetKind::Miranda.generate(Dims::d3(32, 32, 32), 100 + seed))
            .collect();
        let expected: Vec<Vec<u8>> = fields.iter().map(|f| serial_bytes(f, &cfg)).collect();

        let service = JobService::new();
        let handles: Vec<JobHandle<(Vec<u8>, CompressionStats)>> = fields
            .iter()
            .map(|f| service.compress(f.clone(), &cfg, Vec::new()).unwrap())
            .collect();
        // Join in reverse submission order: completion order must not
        // matter for the bytes.
        for (handle, want) in handles.into_iter().rev().zip(expected.iter().rev()) {
            let (bytes, stats) = handle.join().unwrap();
            assert_eq!(&bytes, want, "a concurrent job diverged from serial");
            assert_eq!(stats.compressed_bytes, bytes.len());
        }
    }

    #[test]
    fn progress_reaches_total_and_decompress_jobs_roundtrip() {
        let cfg = job_cfg();
        let field = DatasetKind::Nyx.generate(Dims::d3(32, 32, 32), 7);
        let service = JobService::new();
        let job = service.compress(field.clone(), &cfg, Vec::new()).unwrap();
        let (bytes, _) = job.join().unwrap();

        let job = service
            .decompress(std::io::Cursor::new(bytes.clone()))
            .unwrap();
        let restored = job.join().unwrap();
        assert_eq!(
            restored.as_slice(),
            decompress(&bytes).unwrap().as_slice(),
            "a decompress job diverged from decompress"
        );

        // A fresh handle reports sane, monotonically meaningful progress.
        let job = service.compress(field, &cfg, Vec::new()).unwrap();
        let total = job.progress().total;
        assert_eq!(total, 8);
        let (_, stats) = job.join().unwrap();
        assert!(stats.compressed_bytes > 0);
    }

    /// A writer that lets its first write pass (the header, on the
    /// caller's thread), then reports that it blocks and blocks its second
    /// write (the coordinator's first chunk body) until the paired sender
    /// is released or dropped — pinning a job at a deterministic point so
    /// a test can act on it mid-flight without racing. The bytes it takes
    /// stay readable after the job drops it.
    #[derive(Debug)]
    struct GatedWriter {
        ungated: usize,
        gate: Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>,
        bytes: Arc<Mutex<Vec<u8>>>,
    }

    /// A [`GatedWriter`], the receiver its block is reported on and the
    /// sender that releases it.
    fn gated_writer() -> (GatedWriter, mpsc::Receiver<()>, mpsc::Sender<()>) {
        let (blocked_tx, blocked) = mpsc::channel();
        let (release, gate) = mpsc::channel();
        let out = GatedWriter {
            ungated: 1,
            gate: Some((blocked_tx, gate)),
            bytes: Arc::default(),
        };
        (out, blocked, release)
    }

    impl Write for GatedWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.ungated > 0 {
                self.ungated -= 1;
            } else if let Some((blocked, gate)) = self.gate.take() {
                let _ = blocked.send(());
                let _ = gate.recv();
            }
            self.bytes.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn cancellation_is_cooperative_and_poisons_the_sink() {
        // The test cancels only once the coordinator reports it is pinned
        // inside chunk 0's body write, then releases it: the coordinator
        // finishes that write, sees the flag before chunk 1's, poisons the
        // sink and reports Cancelled. On the two-chunk field one window
        // covers the whole plan at ≥ 2 threads, so only a check before
        // every chunk write — not one between windows — stops it there.
        for (dims, total) in [(Dims::d3(32, 32, 32), 8), (Dims::d3(16, 16, 32), 2)] {
            let field = DatasetKind::Rtm.generate(dims, 3);
            let (out, blocked, release) = gated_writer();
            let bytes = Arc::clone(&out.bytes);
            let job = JobService::new().compress(field, &job_cfg(), out).unwrap();
            assert_eq!(job.progress().total, total);
            blocked.recv().unwrap();
            job.cancel();
            drop(release);
            while !job.is_finished() {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            assert_eq!(job.progress().done, 1, "{dims}: stopped after chunk 0");
            let result = job.join().map(|(_, stats)| stats);
            assert!(
                matches!(result, Err(SzhiError::Cancelled)),
                "{dims}: expected SzhiError::Cancelled, got {result:?}"
            );
            // The poisoned sink never wrote a table or trailer: the partial
            // stream does not parse.
            assert!(decompress(&bytes.lock().unwrap()).is_err(), "{dims}");
        }
    }

    #[test]
    fn phase_indicator_is_observable_mid_job_and_settles_on_done() {
        // Pin the coordinator on its first chunk-body write: the job is
        // provably mid-encode while we poll the phase.
        let field = DatasetKind::Miranda.generate(Dims::d3(32, 32, 32), 11);
        let (out, _blocked, release) = gated_writer();
        let bytes = Arc::clone(&out.bytes);
        let service = JobService::new();
        let job = service.compress(field.clone(), &job_cfg(), out).unwrap();
        // The caller-thread tuning step already ran, so the phase starts
        // at Tuning and moves to Encoding when the coordinator enters the
        // encode span. It cannot reach Flushing: the gate holds the first
        // body write back.
        let mut spins = 0usize;
        loop {
            let phase = job.progress().phase;
            assert!(
                phase == JobPhase::Tuning || phase == JobPhase::Encoding,
                "unexpected phase while gated: {phase:?}"
            );
            if phase == JobPhase::Encoding {
                break;
            }
            spins += 1;
            assert!(spins < 20_000, "job never reached the encode phase");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let gated = job.progress();
        assert!(gated.done < gated.total);
        drop(release);
        while !job.is_finished() {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let end = job.progress();
        assert_eq!(end.phase, JobPhase::Done);
        assert_eq!(end.done, end.total);
        // The per-job telemetry delta exists once the job is done.
        assert!(
            job.telemetry().is_some(),
            "finished job has a telemetry delta"
        );
        job.join().unwrap();

        // A decompress job reports Decoding on the way to Done.
        let stream = bytes.lock().unwrap().clone();
        let job = service.decompress(std::io::Cursor::new(stream)).unwrap();
        let mut saw_decoding = false;
        while !job.is_finished() {
            let phase = job.progress().phase;
            assert!(
                phase == JobPhase::Starting
                    || phase == JobPhase::Decoding
                    || phase == JobPhase::Done,
                "unexpected decompress phase: {phase:?}"
            );
            saw_decoding |= phase == JobPhase::Decoding;
            std::thread::yield_now();
        }
        // The decode loop may finish between polls; Done is the one
        // guaranteed observation.
        let _ = saw_decoding;
        assert_eq!(job.progress().phase, JobPhase::Done);
        let restored = job.join().unwrap();
        assert_eq!(restored.dims(), field.dims());
    }

    /// A reader that blocks its first read on any thread but the one that
    /// created it until the paired sender is released — the caller's
    /// thread opens the stream freely, and the job's coordinator is pinned
    /// before it can decode a chunk.
    #[derive(Debug)]
    struct GatedReader {
        inner: std::io::Cursor<Vec<u8>>,
        owner: std::thread::ThreadId,
        gate: Option<std::sync::mpsc::Receiver<()>>,
    }

    impl Read for GatedReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if std::thread::current().id() != self.owner {
                if let Some(gate) = self.gate.take() {
                    let _ = gate.recv();
                }
            }
            self.inner.read(buf)
        }
    }

    impl Seek for GatedReader {
        fn seek(&mut self, pos: std::io::SeekFrom) -> std::io::Result<u64> {
            self.inner.seek(pos)
        }
    }

    #[test]
    fn a_cancelled_decompress_job_keeps_its_decoding_phase() {
        // Regression: the phase used to be inferred from the `job.decode`
        // span, whose guard dropped on the cancellation return and so
        // reported Done for a job that never produced a result.
        let field = DatasetKind::Nyx.generate(Dims::d3(32, 32, 32), 17);
        let bytes = serial_bytes(&field, &job_cfg());
        let (release, gate) = std::sync::mpsc::channel::<()>();
        let reader = GatedReader {
            inner: std::io::Cursor::new(bytes),
            owner: std::thread::current().id(),
            gate: Some(gate),
        };
        let job = JobService::new().decompress(reader).unwrap();
        job.cancel();
        drop(release);
        while !job.is_finished() {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(job.progress().phase, JobPhase::Decoding);
        assert!(matches!(job.join(), Err(SzhiError::Cancelled)));
    }

    #[test]
    fn per_job_telemetry_delta_counts_this_jobs_chunks() {
        // Stats must be on for counters to record; the flag is global and
        // sticky, which is fine — no test in this binary asserts that
        // metrics stay silent.
        szhi_telemetry::set_stats_enabled(true);
        let field = DatasetKind::Nyx.generate(Dims::d3(32, 32, 32), 21);
        let service = JobService::new();
        let job = service.compress(field, &job_cfg(), Vec::new()).unwrap();
        while !job.is_finished() {
            std::thread::yield_now();
        }
        let delta = job.telemetry().expect("finished job has a delta");
        // 32³ at span 16 → 8 chunks. Concurrent tests may add to the
        // global registry, so the delta is a floor, not an equality.
        assert!(
            delta.counter("io.sink.chunks").unwrap_or(0) >= 8,
            "delta records the job's sink pushes: {delta:?}"
        );
        assert!(delta.counter("io.sink.bytes").unwrap_or(0) > 0);
        let (bytes, stats) = job.join().unwrap();
        assert_eq!(stats.compressed_bytes, bytes.len());
    }

    #[test]
    fn cancelled_sinks_refuse_further_pushes() {
        // The poisoned-on-cancel contract at the sink level: after
        // poison(), pushes and finish fail with the poisoning error.
        let field = DatasetKind::Qmcpack.generate(Dims::d3(16, 16, 16), 1);
        let cfg = job_cfg();
        let mut sink = StreamSink::new(Vec::new(), field.dims(), &cfg).unwrap();
        assert!(!sink.is_poisoned());
        sink.poison();
        assert!(sink.is_poisoned());
        let region = sink.plan().chunk_at(0);
        let sub = Grid::from_vec(sink.plan().chunk_dims(0), field.extract(&region));
        assert!(matches!(
            sink.push_chunk(&sub),
            Err(SzhiError::InvalidInput(msg)) if msg.contains("poisoned")
        ));
        assert!(matches!(
            sink.finish(),
            Err(SzhiError::InvalidInput(msg)) if msg.contains("poisoned")
        ));
    }
}
