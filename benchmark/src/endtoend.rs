//! The untraced timing pass: each workload's encode, decode and random
//! chunk read through its own front door, every output checked.

use crate::workloads::{Case, PathKind, Workload};
use std::io::{Cursor, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use szhi_core::{
    compress_chunked, decompress, decompress_chunk, CompressionStats, ForwardSource, JobHandle,
    JobService, StreamSource, SzhiConfig, SzhiError,
};
use szhi_ndgrid::Grid;
use szhi_predictor::InterpConfig;

/// Where the run happens: worker threads for the parallel phases, the
/// `szhi-cli` binary, and a scratch directory inside the checkout.
#[derive(Debug, Clone)]
pub struct Env {
    pub threads: usize,
    pub cli: PathBuf,
    pub work: PathBuf,
    /// Seed of the generated fields and of the random-read order.
    pub seed: u64,
}

/// Operations attempted and failed. An operation is one timed encode,
/// decode, job batch, CLI invocation or random read, or one cross-check of
/// their outputs; a failure is reported on stderr and counted, never fatal,
/// so one bad operation cannot hide the rest of the run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("szhi-benchmark: FAILED: {}", what());
        }
    }
}

/// Seconds a timed body took, and what it produced.
pub type Timed<T> = Result<(f64, T), String>;

fn timed<T>(body: impl FnOnce() -> Result<T, String>) -> Timed<T> {
    let start = Instant::now();
    let out = body()?;
    Ok((start.elapsed().as_secs_f64(), out))
}

fn typed(e: SzhiError) -> String {
    format!("typed error: {e}")
}

/// One workload's front door. Every method times only the operation
/// itself; reading results back for checking happens outside the clock.
pub trait FrontDoor {
    /// Compresses every field; one archive per field.
    fn encode(&mut self, threads: usize) -> Timed<Vec<Vec<u8>>>;
    /// Decompresses every archive; one field per archive.
    fn decode(&mut self, threads: usize, archives: &[Vec<u8>]) -> Timed<Vec<Grid<f32>>>;
    /// Opens one archive afresh and reconstructs one chunk.
    fn read_chunk(&mut self, archives: &[Vec<u8>], field: usize, chunk: usize) -> Timed<Vec<f32>>;
    /// What a user pays before the first timed operation, beyond having the
    /// data: a warm-up encode and decode (and, for the CLI, writing the input
    /// files). Returns the peak resident set of the children that did the
    /// work, in KiB, when children did it.
    fn set_up(&mut self, threads: usize) -> Result<Option<u64>, String> {
        let (_, archives) = self.encode(threads)?;
        self.decode(threads, &archives)?;
        Ok(None)
    }
}

pub fn front_door<'a>(
    workload: &'a Workload,
    fields: &'a [Grid<f32>],
    env: &'a Env,
) -> Box<dyn FrontDoor + 'a> {
    match workload.path {
        PathKind::Lib => Box::new(LibDoor {
            cases: &workload.cases,
            fields,
        }),
        PathKind::Jobs => Box::new(JobsDoor {
            configs: workload
                .cases
                .iter()
                .zip(fields)
                .map(|(c, f)| c.stream_config(c.abs_eb(f), &InterpConfig::cusz_hi()))
                .collect(),
            fields,
        }),
        PathKind::Cli => Box::new(CliDoor {
            env,
            cases: &workload.cases,
            fields,
            files: CaseFiles::all(&env.work, fields.len()),
        }),
    }
}

// ---------------------------------------------------------------------------
// The library path
// ---------------------------------------------------------------------------

struct LibDoor<'a> {
    cases: &'a [Case],
    fields: &'a [Grid<f32>],
}

impl FrontDoor for LibDoor<'_> {
    fn encode(&mut self, threads: usize) -> Timed<Vec<Vec<u8>>> {
        rayon::set_num_threads(threads);
        timed(|| {
            self.cases
                .iter()
                .zip(self.fields)
                .map(|(c, f)| compress_chunked(f, &c.lib_config(), c.span).map_err(typed))
                .collect()
        })
    }

    fn decode(&mut self, threads: usize, archives: &[Vec<u8>]) -> Timed<Vec<Grid<f32>>> {
        rayon::set_num_threads(threads);
        timed(|| {
            archives
                .iter()
                .map(|a| decompress(a).map_err(typed))
                .collect()
        })
    }

    fn read_chunk(&mut self, archives: &[Vec<u8>], field: usize, chunk: usize) -> Timed<Vec<f32>> {
        timed(|| {
            decompress_chunk(&archives[field], chunk)
                .map(|(_, sub)| sub.into_vec())
                .map_err(typed)
        })
    }
}

// ---------------------------------------------------------------------------
// The job-service path
// ---------------------------------------------------------------------------

/// A closed batch of jobs driven from one generator thread.
#[derive(Debug)]
pub struct Batch<T> {
    pub wall_s: f64,
    /// How long each `JobService` call took to return its handle.
    pub submit_ms: Vec<f64>,
    /// Submit to finished, per job.
    pub latency_ms: Vec<f64>,
    pub outputs: Vec<T>,
}

type Submit<'a, T> = Box<dyn FnOnce() -> Result<JobHandle<T>, SzhiError> + 'a>;

/// Submits the jobs all at once (`concurrent`) or one after the other, and
/// joins each as soon as it finishes.
fn drive<T>(submits: Vec<Submit<'_, T>>, concurrent: bool) -> Result<Batch<T>, String> {
    let n = submits.len();
    let mut batch = Batch {
        wall_s: 0.0,
        submit_ms: Vec::with_capacity(n),
        latency_ms: vec![0.0; n],
        outputs: Vec::with_capacity(n),
    };
    let mut outputs: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut running: Vec<(usize, Instant, JobHandle<T>)> = Vec::new();
    let start = Instant::now();
    let mut submits = submits.into_iter().enumerate();
    loop {
        while concurrent || running.is_empty() {
            let Some((i, submit)) = submits.next() else {
                break;
            };
            let t0 = Instant::now();
            let handle = submit().map_err(typed)?;
            batch.submit_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            running.push((i, t0, handle));
        }
        if running.is_empty() {
            break;
        }
        let mut still = Vec::with_capacity(running.len());
        for (i, t0, handle) in running {
            if handle.is_finished() {
                batch.latency_ms[i] = t0.elapsed().as_secs_f64() * 1e3;
                outputs[i] = Some(handle.join().map_err(typed)?);
            } else {
                still.push((i, t0, handle));
            }
        }
        running = still;
        if !running.is_empty() {
            // The generator thread only waits; it must not compete with
            // the workers for a core.
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    batch.wall_s = start.elapsed().as_secs_f64();
    batch.outputs = outputs.into_iter().flatten().collect();
    Ok(batch)
}

/// Compresses `fields` as one batch of `JobService` jobs over in-memory
/// sinks. With `threads == 1` the jobs run one after the other, so exactly
/// one coordinator thread computes at a time: the single-threaded baseline
/// of the same problem through the same interface.
pub fn compress_jobs(
    fields: &[Grid<f32>],
    configs: &[SzhiConfig],
    threads: usize,
) -> Result<Batch<(Vec<u8>, CompressionStats)>, String> {
    rayon::set_num_threads(threads);
    // `JobService::compress` takes its field by value; the copies are made
    // before the clock starts.
    let owned: Vec<Grid<f32>> = fields.to_vec();
    let service = JobService::new();
    let submits = owned
        .into_iter()
        .zip(configs)
        .map(|(field, cfg)| Box::new(move || service.compress(field, cfg, Vec::new())) as Submit<_>)
        .collect();
    drive(submits, threads > 1)
}

fn decompress_jobs(archives: &[Vec<u8>], threads: usize) -> Result<Batch<Grid<f32>>, String> {
    rayon::set_num_threads(threads);
    let service = JobService::new();
    let submits = archives
        .iter()
        .map(|a| Cursor::new(a.clone()))
        .map(|reader| Box::new(move || service.decompress(reader)) as Submit<_>)
        .collect();
    drive(submits, threads > 1)
}

struct JobsDoor<'a> {
    configs: Vec<SzhiConfig>,
    fields: &'a [Grid<f32>],
}

impl FrontDoor for JobsDoor<'_> {
    fn encode(&mut self, threads: usize) -> Timed<Vec<Vec<u8>>> {
        let batch = compress_jobs(self.fields, &self.configs, threads)?;
        let archives = batch.outputs.into_iter().map(|(bytes, _)| bytes).collect();
        Ok((batch.wall_s, archives))
    }

    fn decode(&mut self, threads: usize, archives: &[Vec<u8>]) -> Timed<Vec<Grid<f32>>> {
        let batch = decompress_jobs(archives, threads)?;
        Ok((batch.wall_s, batch.outputs))
    }

    fn read_chunk(&mut self, archives: &[Vec<u8>], field: usize, chunk: usize) -> Timed<Vec<f32>> {
        timed(|| {
            let mut source = StreamSource::from_bytes(&archives[field]).map_err(typed)?;
            let (_, sub) = source.read_chunk(chunk).map_err(typed)?;
            Ok(sub.into_vec())
        })
    }
}

// ---------------------------------------------------------------------------
// The command-line path
// ---------------------------------------------------------------------------

/// Runs one `szhi-cli` child to completion and returns its wall time. With
/// `watch` the child's `VmHWM` is polled while it runs and its last reading
/// returned, in KiB — kept out of the timed runs so the poller never shares
/// a core with a measured child.
pub fn run_cli(
    env: &Env,
    args: &[String],
    threads: usize,
    stdin: Option<&[u8]>,
    expect_code: i32,
    watch: bool,
) -> Timed<u64> {
    let mut cmd = Command::new(&env.cli);
    cmd.args(args)
        .env("SZHI_NUM_THREADS", threads.to_string())
        .stdin(if stdin.is_some() {
            Stdio::piped()
        } else {
            Stdio::null()
        })
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    let start = Instant::now();
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", env.cli.display()))?;
    if let Some(bytes) = stdin {
        let mut pipe = child.stdin.take().expect("stdin was requested as a pipe");
        // A child that exits early closes the pipe; its exit code below
        // tells the real story.
        let _ = pipe.write_all(bytes);
    }
    let mut peak_kib = 0u64;
    if watch {
        let status_path = format!("/proc/{}/status", child.id());
        while child.try_wait().map_err(|e| e.to_string())?.is_none() {
            if let Some(kib) = read_vm_hwm_kib(Path::new(&status_path)) {
                peak_kib = peak_kib.max(kib);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let out = child.wait_with_output().map_err(|e| e.to_string())?;
    let secs = start.elapsed().as_secs_f64();
    if out.status.code() != Some(expect_code) {
        return Err(format!(
            "szhi-cli {} exited with {:?}: {}",
            args.join(" "),
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok((secs, peak_kib))
}

fn read_vm_hwm_kib(status: &Path) -> Option<u64> {
    let text = std::fs::read_to_string(status).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process so far, in KiB.
fn own_peak_rss_kib() -> u64 {
    read_vm_hwm_kib(Path::new("/proc/self/status")).unwrap_or(0)
}

/// The files one case lives in under the work directory.
#[derive(Debug, Clone)]
pub struct CaseFiles {
    pub input: String,
    pub archive: String,
    pub decoded: String,
    pub chunk: String,
}

impl CaseFiles {
    /// The files of `n` cases under `dir`.
    pub fn all(dir: &Path, n: usize) -> Vec<CaseFiles> {
        let path = |name: &str, i: usize| dir.join(format!("{name}{i}")).display().to_string();
        (0..n)
            .map(|i| CaseFiles {
                input: path("in.f32.", i),
                archive: path("out.szhi.", i),
                decoded: path("back.f32.", i),
                chunk: path("chunk.f32.", i),
            })
            .collect()
    }

    pub fn encode_args(&self, case: &Case) -> Vec<String> {
        let mut args = vec![
            "encode".to_string(),
            self.input.clone(),
            self.archive.clone(),
        ];
        args.extend(case.cli_encode_options());
        args
    }

    pub fn decode_args(&self) -> Vec<String> {
        vec![
            "decode".to_string(),
            self.archive.clone(),
            self.decoded.clone(),
        ]
    }
}

/// Writes each field to its input file, as raw little-endian f32.
pub fn write_inputs(files: &[CaseFiles], fields: &[Grid<f32>]) -> Result<(), String> {
    for (f, field) in files.iter().zip(fields) {
        std::fs::write(&f.input, szhi_cli::raw::to_bytes(field.as_slice()))
            .map_err(|e| format!("cannot write {}: {e}", f.input))?;
    }
    Ok(())
}

struct CliDoor<'a> {
    env: &'a Env,
    cases: &'a [Case],
    fields: &'a [Grid<f32>],
    files: Vec<CaseFiles>,
}

impl FrontDoor for CliDoor<'_> {
    /// Writes the input files and warms up with one watched encode and
    /// decode per field, which is where the children's peak resident set is
    /// read.
    fn set_up(&mut self, threads: usize) -> Result<Option<u64>, String> {
        write_inputs(&self.files, self.fields)?;
        let mut peak_kib = 0;
        for (case, f) in self.cases.iter().zip(&self.files) {
            let (_, enc) = run_cli(self.env, &f.encode_args(case), threads, None, 0, true)?;
            let (_, dec) = run_cli(self.env, &f.decode_args(), threads, None, 0, true)?;
            peak_kib = peak_kib.max(enc).max(dec);
        }
        Ok(Some(peak_kib))
    }

    fn encode(&mut self, threads: usize) -> Timed<Vec<Vec<u8>>> {
        let mut secs = 0.0;
        for (case, f) in self.cases.iter().zip(&self.files) {
            secs += run_cli(self.env, &f.encode_args(case), threads, None, 0, false)?.0;
        }
        let archives = self
            .files
            .iter()
            .map(|f| std::fs::read(&f.archive).map_err(|e| format!("{}: {e}", f.archive)))
            .collect::<Result<_, _>>()?;
        Ok((secs, archives))
    }

    /// Decodes the archives the last `encode` left on disk, which the
    /// caller has already checked against `_archives` byte for byte.
    fn decode(&mut self, threads: usize, _archives: &[Vec<u8>]) -> Timed<Vec<Grid<f32>>> {
        let mut secs = 0.0;
        for f in &self.files {
            secs += run_cli(self.env, &f.decode_args(), threads, None, 0, false)?.0;
        }
        let fields = self
            .files
            .iter()
            .zip(self.cases)
            .map(|(f, case)| szhi_cli::raw::read_field(Path::new(&f.decoded), case.dims))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        Ok((secs, fields))
    }

    fn read_chunk(&mut self, _archives: &[Vec<u8>], field: usize, chunk: usize) -> Timed<Vec<f32>> {
        let f = &self.files[field];
        let mut args = vec!["decode".to_string(), f.archive.clone(), f.chunk.clone()];
        args.extend(["--chunk".to_string(), chunk.to_string()]);
        let (secs, _) = run_cli(self.env, &args, self.env.threads, None, 0, false)?;
        let dims = self.cases[field].plan().chunk_dims(chunk);
        let sub =
            szhi_cli::raw::read_field(Path::new(&f.chunk), dims).map_err(|e| e.to_string())?;
        Ok((secs, sub.into_vec()))
    }
}

// ---------------------------------------------------------------------------
// Set-up, reference outputs and the timed rounds
// ---------------------------------------------------------------------------

/// One set-up of a workload.
#[derive(Debug)]
pub struct SetUp {
    pub fields: Vec<Grid<f32>>,
    pub secs: f64,
    pub generate_ms: f64,
    /// Peak resident set of the children that did the work, if any did.
    pub child_peak_kib: Option<u64>,
}

/// What a user pays before the first timed operation: generate the fields,
/// then the front door's own set-up (the CLI's input files, one warm-up
/// encode and decode).
pub fn set_up(workload: &Workload, env: &Env) -> Result<SetUp, String> {
    let start = Instant::now();
    rayon::set_num_threads(env.threads);
    let fields: Vec<Grid<f32>> = workload
        .cases
        .iter()
        .map(|c| c.generate(env.seed))
        .collect();
    let generate_ms = start.elapsed().as_secs_f64() * 1e3;
    let child_peak_kib = front_door(workload, &fields, env).set_up(env.threads)?;
    Ok(SetUp {
        fields,
        secs: start.elapsed().as_secs_f64(),
        generate_ms,
        child_peak_kib,
    })
}

/// The first encode and decode of a run, which every later operation must
/// reproduce exactly, and their quality against the input.
#[derive(Debug)]
pub struct Reference {
    pub archives: Vec<Vec<u8>>,
    pub decoded: Vec<Grid<f32>>,
    pub psnr_db: f64,
    /// Wall time of the quality and bound checks.
    pub verify_ms: f64,
}

/// Encodes and decodes once at `env.threads` and checks the result: the
/// bound holds at every point, and `decompress`, `StreamSource` and
/// `ForwardSource` reconstruct the same values from the same archive.
pub fn establish_reference(
    door: &mut dyn FrontDoor,
    workload: &Workload,
    fields: &[Grid<f32>],
    env: &Env,
    tally: &mut Tally,
) -> Result<Reference, String> {
    let (_, archives) = door.encode(env.threads)?;
    let (_, decoded) = door.decode(env.threads, &archives)?;
    rayon::set_num_threads(env.threads);
    let start = Instant::now();
    let mut sq_err_db = Vec::new();
    for ((case, field), back) in workload.cases.iter().zip(fields).zip(&decoded) {
        let same_shape = back.dims() == field.dims();
        tally.check(same_shape, || {
            format!("{}: decoded shape differs", case.kind)
        });
        if !same_shape {
            continue;
        }
        let bound = case.abs_eb(field) + 1e-12;
        let held = szhi_metrics::verify_error_bound(field.as_slice(), back.as_slice(), bound);
        tally.check(held.is_ok(), || {
            format!("{}: bound {bound:e} violated at {held:?}", case.kind)
        });
        let quality = szhi_metrics::QualityReport::compare(field, back);
        sq_err_db.push((quality.psnr, field.len() as f64));
    }
    // One figure per workload: the point-weighted mean of the fields' PSNR.
    let points: f64 = sq_err_db.iter().map(|(_, n)| n).sum();
    let psnr_db = sq_err_db.iter().map(|(p, n)| p * n).sum::<f64>() / points;
    let verify_ms = start.elapsed().as_secs_f64() * 1e3;

    for ((case, archive), back) in workload.cases.iter().zip(&archives).zip(&decoded) {
        tally.check(decompress(archive).is_ok_and(|g| g == *back), || {
            format!("{}: decompress disagrees with the front door", case.kind)
        });
        let seek = StreamSource::from_bytes(archive).and_then(|mut s| s.read_all());
        tally.check(seek.is_ok_and(|g| g == *back), || {
            format!("{}: StreamSource disagrees with decompress", case.kind)
        });
        let forward = ForwardSource::new(&archive[..]).and_then(|mut s| s.read_all());
        tally.check(forward.is_ok_and(|g| g == *back), || {
            format!("{}: ForwardSource disagrees with decompress", case.kind)
        });
    }
    Ok(Reference {
        archives,
        decoded,
        psnr_db,
        verify_ms,
    })
}

/// splitmix64: the seeded source of the random-read order.
#[derive(Debug)]
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Wall times of the timed phases, one sample per operation.
#[derive(Debug, Default)]
pub struct Samples {
    pub encode_1t_s: Vec<f64>,
    pub decode_1t_s: Vec<f64>,
    pub encode_s: Vec<f64>,
    pub decode_s: Vec<f64>,
    /// Every random read: which chunk it hit (an index into the workload's
    /// chunks, all fields counted through), and its latency.
    pub reads: Vec<(usize, f64)>,
    /// This process's peak resident set once every operation has run once,
    /// in KiB. Taken then, not at the end: what the work needs, without
    /// what the allocator keeps of the set-ups repeated later.
    pub first_round_peak_kib: u64,
    /// The set-ups repeated between rounds.
    pub setup_s: Vec<f64>,
    pub child_peak_kib: Option<u64>,
}

impl Samples {
    pub fn read_ms(&self) -> Vec<f64> {
        self.reads.iter().map(|&(_, ms)| ms).collect()
    }

    /// The latency of reading one chunk picked uniformly at random: the
    /// best time seen for each chunk, averaged over the chunks. (The best
    /// of all reads would only ever report the cheapest, ragged chunk.)
    pub fn read_latency_ms(&self) -> f64 {
        let chunks = self.reads.iter().map(|&(c, _)| c + 1).max().unwrap_or(0);
        let mut best = vec![f64::INFINITY; chunks];
        for &(chunk, ms) in &self.reads {
            best[chunk] = best[chunk].min(ms);
        }
        let seen: Vec<f64> = best.into_iter().filter(|b| b.is_finite()).collect();
        seen.iter().sum::<f64>() / seen.len() as f64
    }
}

/// How much to measure. The counts are fixed, never stretched by a clock:
/// a timing's value is the best of its samples, and a faster build must not
/// get more draws for it than a slower one.
#[derive(Debug, Clone, Copy)]
pub struct Pace {
    pub rounds: usize,
    /// Repeat the set-up after every so many rounds, so that `setup_s`
    /// samples the whole run like every other timing.
    pub set_up_every: Option<usize>,
}

/// Every chunk is read this many times over a run, and often enough for
/// 200 reads in all: the p95 then has ten samples beyond it.
fn visits_per_chunk(chunks: usize) -> usize {
    200usize.div_ceil(chunks).max(3)
}

/// The timed rounds. Each round interleaves the four phases — encode and
/// decode at one thread, then at `env.threads` — and its share of the random
/// chunk reads, so every phase samples the whole run and sees the same
/// machine drift. The reads walk a seeded shuffle of every chunk of every
/// archive, again and again, so each chunk is read several times, the visits
/// far apart.
pub fn measure(
    door: &mut dyn FrontDoor,
    workload: &Workload,
    reference: &Reference,
    env: &Env,
    pace: Pace,
    tally: &mut Tally,
) -> Samples {
    let mut samples = Samples::default();
    let mut rng = Rng(env.seed);
    let chunks: Vec<(usize, usize)> = workload
        .cases
        .iter()
        .enumerate()
        .flat_map(|(field, case)| (0..case.plan().len()).map(move |chunk| (field, chunk)))
        .collect();
    let mut order: Vec<usize> = (0..chunks.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    let reads = chunks.len() * visits_per_chunk(chunks.len());
    let mut next_read = 0;
    for round in 1..=pace.rounds {
        for threads in [1, env.threads] {
            let (enc, dec) = if threads == 1 {
                (&mut samples.encode_1t_s, &mut samples.decode_1t_s)
            } else {
                (&mut samples.encode_s, &mut samples.decode_s)
            };
            match door.encode(threads) {
                Ok((secs, archives)) => {
                    enc.push(secs);
                    // The reference was written at `env.threads`, so this
                    // also checks bytes across thread counts.
                    tally.check(archives == reference.archives, || {
                        format!("encode at {threads} threads wrote different bytes")
                    });
                }
                Err(e) => tally.check(false, || format!("encode at {threads} threads: {e}")),
            }
            match door.decode(threads, &reference.archives) {
                Ok((secs, decoded)) => {
                    dec.push(secs);
                    tally.check(decoded == reference.decoded, || {
                        format!("decode at {threads} threads gave different values")
                    });
                }
                Err(e) => tally.check(false, || format!("decode at {threads} threads: {e}")),
            }
        }
        rayon::set_num_threads(env.threads);
        // This round's share of the reads; the last round takes what is left.
        let until = reads * round / pace.rounds;
        while next_read < until {
            let target = order[next_read % order.len()];
            next_read += 1;
            let (field, chunk) = chunks[target];
            let case = &workload.cases[field];
            match door.read_chunk(&reference.archives, field, chunk) {
                Ok((secs, values)) => {
                    samples.reads.push((target, secs * 1e3));
                    let region = case.plan().chunk_at(chunk);
                    let expect = reference.decoded[field].extract(&region);
                    tally.check(values == expect, || {
                        format!("random read of {} chunk {chunk} differs", case.kind)
                    });
                }
                Err(e) => tally.check(false, || format!("random read: {e}")),
            }
        }
        if round == 1 {
            samples.first_round_peak_kib = own_peak_rss_kib();
        }
        if pace.set_up_every.is_some_and(|every| round % every == 0) {
            match set_up(workload, env) {
                Ok(again) => {
                    samples.setup_s.push(again.secs);
                    samples.child_peak_kib = samples.child_peak_kib.max(again.child_peak_kib);
                }
                Err(e) => tally.check(false, || format!("set-up: {e}")),
            }
        }
    }
    samples
}
