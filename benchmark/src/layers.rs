//! The traced run: the workload's work re-done chunk by chunk through each
//! crate's public functions, a span around every call.
//!
//! Spans under `chunk.encode` and `chunk.decode` are calls the workload's own
//! path makes; the rest are what-if measurements on the workload's data (the
//! CR pipeline stage by stage, the tuner where the workload does not use it,
//! the CLI over an in-memory workload's field), so every layer metric is a
//! measurement on every workload. Everything here runs at one thread unless
//! a metric says otherwise.

use crate::endtoend::{
    compress_jobs, run_cli, write_inputs, CaseFiles, Env, Reference, Samples, Tally,
};
use crate::stats::{median, p95};
use crate::trace::Recorder;
use crate::workloads::{Case, PathKind, Tuning, Workload};
use rayon::prelude::*;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};
use szhi_codec::checksum::crc32;
use szhi_codec::{PipelineSpec, Stage};
use szhi_core::format::{read_chunk_sections, read_chunk_table, write_sections};
use szhi_core::{compress_chunked, ForwardSource, StreamSink, StreamSource};
use szhi_ndgrid::{Dims, Grid};
use szhi_predictor::{
    autotune, CompressScratch, InterpConfig, InterpOutput, InterpPredictor, LevelOrder,
};
use szhi_tuner::{select_pipeline, tune_chunk_interp, SelectParams, Selection};

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The CR pipeline's stages, in encode order, as metric stems.
const CR_STAGES: [&str; 4] = ["hf", "rre4", "tcms8", "rze1"];
const CR_ENCODE_SPANS: [&str; 4] = [
    "codec.cr.hf.encode",
    "codec.cr.rre4.encode",
    "codec.cr.tcms8.encode",
    "codec.cr.rze1.encode",
];
const CR_DECODE_SPANS: [&str; 4] = [
    "codec.cr.hf.decode",
    "codec.cr.rre4.decode",
    "codec.cr.tcms8.decode",
    "codec.cr.rze1.decode",
];

/// Exhaustive trial-encoding over the Fig. 6 set is eighteen encodes a
/// chunk; the regret is taken on this many evenly spaced chunks per field.
const REGRET_CHUNKS: usize = 8;

/// Counts taken beside the spans, summed over the workload's fields.
#[derive(Debug, Default)]
struct Counts {
    chunks: u64,
    points: u64,
    outliers: u64,
    code_histogram: Vec<u64>,
    chosen_bytes: u64,
    cr_stage_bytes: [u64; 4],
    tp_bytes: u64,
    crc_bytes: u64,
    trials: u64,
    estimated_bytes: f64,
    estimated_actual_bytes: u64,
    regret_chosen_bytes: u64,
    regret_best_bytes: u64,
    container_overhead_bytes: u64,
}

fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The CR pipeline stage by stage — the live Table-5 view: what each stage
/// of the orchestration costs and buys. Returns every stage's output.
fn cr_staged(
    rec: &mut Recorder,
    counts: &mut Counts,
    cr: &[Box<dyn Stage>],
    codes: &[u8],
) -> Vec<Vec<u8>> {
    let mut outputs: Vec<Vec<u8>> = Vec::with_capacity(cr.len());
    for (k, stage) in cr.iter().enumerate() {
        let input = outputs.last().map_or(codes, Vec::as_slice);
        let encoded = rec.time(CR_ENCODE_SPANS[k], || stage.encode(input));
        counts.cr_stage_bytes[k] += encoded.len() as u64;
        outputs.push(encoded);
    }
    outputs
}

fn select(
    rec: &mut Recorder,
    counts: &mut Counts,
    candidates: &[PipelineSpec],
    codes: &[u8],
) -> Result<Selection, String> {
    let selection = rec
        .time("tuner.select", || {
            select_pipeline(candidates, codes, &SelectParams::default())
        })
        .map_err(text)?;
    counts.trials += selection.trial_encoded as u64;
    let winner = selection.pipeline;
    if let Some((_, estimate)) = selection.estimates.iter().find(|(p, _)| *p == winner) {
        counts.estimated_bytes += estimate.max(0.0);
        counts.estimated_actual_bytes += selection.payload.len() as u64;
    }
    Ok(selection)
}

/// Re-does one field's encode and decode chunk by chunk.
///
/// Per chunk, the calls the workload's own path makes run under a
/// `chunk.encode` and a `chunk.decode` span, in the path's order; the
/// what-if measurements follow under `chunk.what_if`. The encode replay
/// must reproduce the archive's chunk bodies byte for byte, and the decode
/// replay — fed the archive's own chunk bodies — its decoded values, so the
/// spans provably time the real work.
#[allow(clippy::too_many_arguments)]
fn replay_case(
    rec: &mut Recorder,
    counts: &mut Counts,
    case: &Case,
    field: &Grid<f32>,
    archive: &[u8],
    decoded: &Grid<f32>,
    first_chunk: usize,
    tally: &mut Tally,
) -> Result<InterpConfig, String> {
    let plan = case.plan();
    let cr: Vec<Box<dyn Stage>> = PipelineSpec::CR
        .stages()
        .iter()
        .map(|s| s.build())
        .collect();
    for (stage, stem) in cr.iter().zip(CR_STAGES) {
        assert_eq!(stage.name().to_lowercase(), stem, "CR stage list changed");
    }
    let tp = PipelineSpec::TP.build();
    let candidates = Tuning::Estimated.candidates();

    rec.chunk = None;
    let mut copy = field.as_slice().to_vec(); // pages touched before the clock starts
    rec.time("mem.copy", || {
        copy.copy_from_slice(black_box(field.as_slice()));
        black_box(&mut copy);
    });
    drop(copy);

    // On the library path when the case auto-tunes; a what-if otherwise.
    let base = InterpConfig::cusz_hi();
    let abs_eb = case.abs_eb(field);
    let tuned = rec.time("predictor.autotune", || autotune::tune(field, &base).0);
    let interp = if case.auto_tune { tuned } else { base };

    let (header, table) = read_chunk_table(archive).map_err(text)?;
    tally.check(table.entries.len() == plan.len(), || {
        format!(
            "{}: archive and plan disagree on the chunk count",
            case.kind
        )
    });
    let bodies: usize = table.entries.iter().map(|e| e.len).sum();
    counts.container_overhead_bytes += (archive.len() - bodies) as u64;

    let mut orders: Vec<(Dims, LevelOrder)> = Vec::new();
    let mut scratch = CompressScratch::default();
    let mut out = InterpOutput::default();
    let mut reordered = Vec::new();
    let mut body = Vec::new();
    let mut rebuilt = Grid::zeros(case.dims);
    let regret_stride = plan.len().div_ceil(REGRET_CHUNKS);
    let mut replay_matches = true;

    for i in 0..plan.len() {
        rec.chunk = Some(first_chunk + i);
        let region = plan.chunk_at(i);
        let dims = plan.chunk_dims(i);
        let n = dims.len();

        // --- encode, as the workload's path does it -----------------------
        let encode = rec.enter("chunk.encode");
        let chunk = rec.time("ndgrid.extract", || {
            Grid::from_vec(dims, field.extract(&region))
        });
        let chunk_interp = if case.chunk_interp {
            rec.time("tuner.interp_tune", || tune_chunk_interp(&chunk, &interp))
        } else {
            interp.clone()
        };
        let predictor = rec
            .time("predictor.new", || InterpPredictor::new(chunk_interp))
            .map_err(text)?;
        rec.time("predictor.compress", || {
            predictor.compress_into(&chunk, abs_eb, &mut scratch, &mut out)
        });
        // The encoder builds one permutation per chunk shape up front, not
        // one per chunk, so building it is outside the spans.
        if !orders.iter().any(|(d, _)| *d == dims) {
            orders.push((dims, LevelOrder::new(dims, interp.anchor_stride)));
        }
        let order = &orders
            .iter()
            .find(|(d, _)| *d == dims)
            .expect("just added")
            .1;
        rec.time("predictor.reorder", || {
            order.reorder_into(&out.codes, &mut reordered)
        });
        let codes: &[u8] = &reordered;
        // The entropy step the policy runs: one encode, the two trial
        // encodes of per-chunk mode, or the estimator-guided selection.
        let (mut cr_outputs, mut tp_payload, mut selection, mut payload) = (None, None, None, None);
        match case.tuning {
            Tuning::Global => {
                let cr_whole = PipelineSpec::CR.build();
                payload = Some(rec.time("codec.encode", || cr_whole.encode(codes)));
            }
            Tuning::PerChunk => {
                cr_outputs = Some(cr_staged(rec, counts, &cr, codes));
                tp_payload = Some(rec.time("codec.tp.encode", || tp.encode(codes)));
            }
            Tuning::Estimated => selection = Some(select(rec, counts, &candidates, codes)?),
        }
        rec.exit(encode);

        // --- whatever of the encode side the path did not run -------------
        let what_if = rec.enter("chunk.what_if");
        if !case.chunk_interp {
            black_box(rec.time("tuner.interp_tune", || tune_chunk_interp(&chunk, &interp)));
        }
        let cr_outputs = match cr_outputs {
            Some(outputs) => outputs,
            None => cr_staged(rec, counts, &cr, codes),
        };
        let tp_payload = match tp_payload {
            Some(p) => p,
            None => rec.time("codec.tp.encode", || tp.encode(codes)),
        };
        counts.tp_bytes += tp_payload.len() as u64;
        let selection = match selection {
            Some(s) => s,
            None => select(rec, counts, &candidates, codes)?,
        };
        let cr_bytes = cr_outputs.last().map_or(0, Vec::len);
        let pipeline = match case.tuning {
            Tuning::Global => PipelineSpec::CR,
            Tuning::PerChunk if tp_payload.len() < cr_bytes => PipelineSpec::TP,
            Tuning::PerChunk => PipelineSpec::CR,
            Tuning::Estimated => selection.pipeline,
        };
        let payload = match payload {
            Some(p) => p,
            None => {
                let chosen = pipeline.build();
                rec.time("codec.encode", || chosen.encode(codes))
            }
        };
        counts.chosen_bytes += payload.len() as u64;
        rec.exit(what_if);

        if i % regret_stride == 0 {
            let (_, best) = PipelineSpec::try_encode_select(&candidates, codes).map_err(text)?;
            counts.regret_chosen_bytes += payload.len() as u64;
            counts.regret_best_bytes += best.len() as u64;
        }
        counts.chunks += 1;
        counts.points += n as u64;
        counts.outliers += out.outliers.len() as u64;
        counts.code_histogram.resize(256, 0);
        for &c in &out.codes {
            counts.code_histogram[c as usize] += 1;
        }
        body.clear();
        write_sections(&mut body, &out.anchors, &out.outliers, &payload);
        let stored = table.chunk_slice(archive, i);
        replay_matches &= table.entries[i].pipeline == pipeline && stored == body.as_slice();

        // --- decode, from the archive's own bytes -------------------------
        let stored_pipeline = table.entries[i].pipeline.build();
        let decode_predictor =
            InterpPredictor::new(table.chunk_interp(&header, i)).map_err(text)?;
        let decode = rec.enter("chunk.decode");
        let checksum = rec.time("codec.crc32", || crc32(stored));
        counts.crc_bytes += stored.len() as u64;
        replay_matches &= table.entries[i].checksum.is_none_or(|c| c == checksum);
        let (anchors, outliers, stored_payload) = read_chunk_sections(stored).map_err(text)?;
        let decoded_codes = rec
            .time("codec.decode", || {
                stored_pipeline.decode_bounded(&stored_payload, n)
            })
            .map_err(text)?;
        // The readers rebuild the permutation for every chunk.
        let decode_order = rec.time("predictor.level_order_new", || {
            LevelOrder::new(dims, header.interp.anchor_stride)
        });
        let restored = rec
            .time("predictor.restore", || decode_order.restore(&decoded_codes))
            .map_err(text)?;
        let output = InterpOutput {
            anchors,
            codes: restored,
            outliers,
        };
        let sub = rec
            .time("predictor.decompress", || {
                decode_predictor.decompress(dims, header.abs_eb, &output)
            })
            .map_err(text)?;
        rec.time("ndgrid.insert", || rebuilt.insert(&region, sub.as_slice()));
        rec.exit(decode);

        // --- the decode side of the stage-by-stage view -------------------
        let what_if = rec.enter("chunk.what_if");
        for k in (0..cr.len()).rev() {
            let staged = rec
                .time(CR_DECODE_SPANS[k], || cr[k].decode(&cr_outputs[k]))
                .map_err(text)?;
            let expect = if k == 0 { codes } else { &cr_outputs[k - 1] };
            replay_matches &= staged == expect;
        }
        let tp_codes = rec
            .time("codec.tp.decode", || tp.decode_bounded(&tp_payload, n))
            .map_err(text)?;
        replay_matches &= tp_codes == codes;
        rec.exit(what_if);
    }
    rec.chunk = None;
    tally.check(replay_matches, || {
        format!(
            "{}: the layer replay does not reproduce the archive",
            case.kind
        )
    });
    tally.check(rebuilt == *decoded, || {
        format!("{}: the layer replay decodes different values", case.kind)
    });
    Ok(interp)
}

/// The streaming writer and the two streaming readers over one field:
/// `StreamSink` chunk by chunk, then `StreamSource` and `ForwardSource`
/// over the bytes it wrote.
fn stream_case(
    rec: &mut Recorder,
    case: &Case,
    field: &Grid<f32>,
    interp: &InterpConfig,
    decoded: &Grid<f32>,
    tally: &mut Tally,
) -> Result<(), String> {
    let cfg = case.stream_config(case.abs_eb(field), interp);
    let mut sink = rec
        .time("core.sink_new", || {
            StreamSink::new(Vec::new(), case.dims, &cfg)
        })
        .map_err(text)?;
    while let Some(region) = sink.next_chunk_region() {
        let dims = sink.plan().chunk_dims(sink.next_index());
        let chunk = Grid::from_vec(dims, field.extract(&region));
        rec.time("core.sink_push", || sink.push_chunk(&chunk))
            .map_err(text)?;
    }
    let bytes = rec
        .time("core.sink_finish", || sink.finish())
        .map_err(text)?;

    let mut source = rec
        .time("core.source_open", || StreamSource::from_bytes(&bytes))
        .map_err(text)?;
    let mut seekable = Grid::zeros(case.dims);
    for i in 0..source.chunk_count() {
        let (region, sub) = rec
            .time("core.source_read", || source.read_chunk(i))
            .map_err(text)?;
        seekable.insert(&region, sub.as_slice());
    }
    tally.check(seekable == *decoded, || {
        format!("{}: StreamSink + StreamSource decode differs", case.kind)
    });
    drop(seekable);
    let forward = rec
        .time("core.forward_decode", || {
            ForwardSource::new(&bytes[..]).and_then(|mut s| s.read_all())
        })
        .map_err(text)?;
    tally.check(forward == *decoded, || {
        format!("{}: StreamSink + ForwardSource decode differs", case.kind)
    });
    Ok(())
}

/// The `szhi-cli` layer over the workload's fields as files: the pieces of
/// `raw.rs` in-process, then whole subprocesses, each beside the same
/// command run in-process through `szhi_cli::run`.
///
/// 2-D fields are left out: `szhi-cli encode` rejects them today (`raw.rs`
/// hands the sink 1×ny×nx chunks where its plan expects ny×nx).
fn cli_layer(
    rec: &mut Recorder,
    workload: &Workload,
    fields: &[Grid<f32>],
    reference: &Reference,
    env: &Env,
    tally: &mut Tally,
) -> Result<(), String> {
    let files = CaseFiles::all(&env.work, fields.len());
    write_inputs(&files, fields)?;
    let volumes = || {
        let cases = workload.cases.iter().zip(&files).zip(&reference.decoded);
        cases.filter(|((case, _), _)| case.dims.rank() == 3)
    };
    for _ in 0..5 {
        // `--help` is a usage error by design: exit code 2.
        rec.time("cli.startup", || {
            run_cli(env, &["--help".to_string()], 1, None, 2, false)
        })?;
    }

    for ((case, f), back) in volumes() {
        let input = Path::new(&f.input);
        let range = rec
            .time("cli.minmax", || szhi_cli::raw::min_max(input, case.dims))
            .map_err(text)?;
        black_box(range);
        let plan = case.plan();
        let mut file = szhi_cli::raw::open_field(input, case.dims).map_err(text)?;
        for region in plan.iter() {
            let chunk = rec
                .time("cli.read_regions", || {
                    szhi_cli::raw::read_region(&mut file, case.dims, &region)
                })
                .map_err(text)?;
            black_box(chunk);
        }
        let mut out = std::fs::File::create(&f.decoded).map_err(text)?;
        szhi_cli::raw::presize(&out, case.dims).map_err(text)?;
        for region in plan.iter() {
            let values = back.extract(&region);
            rec.time("cli.write_regions", || {
                szhi_cli::raw::write_region(&mut out, case.dims, &region, &values)
            })
            .map_err(text)?;
        }
    }

    rayon::set_num_threads(env.threads);
    for ((case, f), back) in volumes() {
        let encode = f.encode_args(case);
        let decode = f.decode_args();
        rec.time("cli.encode", || {
            run_cli(env, &encode, env.threads, None, 0, false)
        })?;
        rec.time("cli.decode", || {
            run_cli(env, &decode, env.threads, None, 0, false)
        })?;
        let code = rec.time("cli.encode_in_process", || szhi_cli::run(&encode));
        tally.check(code == 0, || "in-process szhi-cli encode".to_string());
        let code = rec.time("cli.decode_in_process", || szhi_cli::run(&decode));
        tally.check(code == 0, || "in-process szhi-cli decode".to_string());
        let inspect = ["inspect".to_string(), f.archive.clone()];
        rec.time("cli.inspect", || run_cli(env, &inspect, 1, None, 0, false))?;
        let archive = std::fs::read(&f.archive).map_err(text)?;
        let pipe = ["decode".to_string(), "-".to_string(), f.decoded.clone()];
        rec.time("cli.pipe_decode", || {
            run_cli(env, &pipe, env.threads, Some(&archive), 0, false)
        })?;
        let piped = szhi_cli::raw::read_field(Path::new(&f.decoded), case.dims);
        tally.check(piped.is_ok_and(|g| g == *back), || {
            format!("{}: szhi-cli decode off a pipe differs", case.kind)
        });
    }
    Ok(())
}

/// The job service over the workload's fields as one closed batch, beside
/// the same fields through `compress_chunked` back to back; both at
/// `env.threads`, alternated three times, the fastest of each compared.
fn jobs_layer(
    workload: &Workload,
    fields: &[Grid<f32>],
    interps: &[InterpConfig],
    env: &Env,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let configs: Vec<_> = workload
        .cases
        .iter()
        .zip(fields)
        .zip(interps)
        .map(|((c, f), interp)| c.stream_config(c.abs_eb(f), interp))
        .collect();
    let (mut batch_s, mut serial_s) = (Vec::new(), Vec::new());
    let (mut submit_ms, mut latency_ms) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let batch = compress_jobs(fields, &configs, env.threads)?;
        batch_s.push(batch.wall_s);
        submit_ms.extend(batch.submit_ms);
        latency_ms.extend(batch.latency_ms);
        rayon::set_num_threads(env.threads);
        let start = Instant::now();
        for ((case, field), cfg) in workload.cases.iter().zip(fields).zip(&configs) {
            let done = compress_chunked(field, cfg, case.span);
            tally.check(done.is_ok(), || format!("{}: compress_chunked", case.kind));
        }
        serial_s.push(start.elapsed().as_secs_f64());
    }
    let max_latency = latency_ms.iter().copied().fold(0.0, f64::max);
    Ok(vec![
        metric("jobs.submit_ms", median(&submit_ms), "ms"),
        metric("jobs.latency_p50_ms", median(&latency_ms), "ms"),
        metric("jobs.latency_max_ms", max_latency, "ms"),
        metric(
            "jobs.overhead_share",
            fastest(&batch_s) / fastest(&serial_s) - 1.0,
            "ratio",
        ),
    ])
}

/// Cost of handing the pool nothing to do: an empty `par_iter` over four
/// items per worker, in microseconds per dispatch.
fn pool_dispatch_us(threads: usize) -> f64 {
    rayon::set_num_threads(threads);
    let items = 4 * threads;
    let rounds = 2000;
    let start = Instant::now();
    for _ in 0..rounds {
        (0..items).into_par_iter().for_each(|i| {
            black_box(i);
        });
    }
    start.elapsed().as_secs_f64() * 1e6 / rounds as f64
}

/// One-thread encodes with `szhi-telemetry` stats and trace on against
/// off, paired and order-alternated; the fastest of each, as a ratio, minus
/// one.
fn telemetry_overhead_share(workload: &Workload, fields: &[Grid<f32>], tally: &mut Tally) -> f64 {
    rayon::set_num_threads(1);
    let mut encode_s = |on: bool| {
        szhi_telemetry::set_stats_enabled(on);
        szhi_telemetry::set_trace_enabled(on);
        let start = Instant::now();
        for (case, field) in workload.cases.iter().zip(fields) {
            let done = compress_chunked(field, &case.lib_config(), case.span);
            tally.check(done.is_ok(), || format!("{}: compress_chunked", case.kind));
        }
        start.elapsed().as_secs_f64()
    };
    let (mut on_s, mut off_s) = (Vec::new(), Vec::new());
    for pair in 0..3 {
        for on in [pair % 2 == 0, pair % 2 != 0] {
            let secs = encode_s(on);
            if on { &mut on_s } else { &mut off_s }.push(secs);
        }
    }
    szhi_telemetry::set_stats_enabled(false);
    szhi_telemetry::set_trace_enabled(false);
    szhi_telemetry::reset();
    fastest(&on_s) / fastest(&off_s) - 1.0
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn fastest(secs: &[f64]) -> f64 {
    secs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Shannon entropy of a histogram, in bits per symbol.
fn entropy_bits(histogram: &[u64]) -> f64 {
    let total: u64 = histogram.iter().sum();
    histogram
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / total as f64;
            -p * p.log2()
        })
        .sum()
}

/// What the untraced pass measured, for the metrics derived from it.
#[derive(Debug, Clone, Copy)]
pub struct Untraced {
    pub encode_1t_s: f64,
    pub decode_1t_s: f64,
    pub encode_s: f64,
    pub decode_s: f64,
    pub generate_ms: f64,
}

impl Untraced {
    /// The best sample of each phase, as the end-to-end metrics report, and
    /// what the spans, which keep their fastest pass, are set against.
    pub fn new(samples: &Samples, generate_ms: f64) -> Untraced {
        Untraced {
            encode_1t_s: fastest(&samples.encode_1t_s),
            decode_1t_s: fastest(&samples.decode_1t_s),
            encode_s: fastest(&samples.encode_s),
            decode_s: fastest(&samples.decode_s),
            generate_ms,
        }
    }
}

/// One pass over every field of the workload: the chunk-by-chunk replay,
/// then the streaming writer and readers.
fn replay_pass(
    workload: &Workload,
    fields: &[Grid<f32>],
    reference: &Reference,
    tally: &mut Tally,
) -> Result<(Recorder, Counts, Vec<InterpConfig>), String> {
    let mut rec = Recorder::new();
    let mut counts = Counts::default();
    let mut interps = Vec::new();
    let mut first_chunk = 0;
    let whole = rec.enter("replay");
    for (i, (case, field)) in workload.cases.iter().zip(fields).enumerate() {
        let interp = replay_case(
            &mut rec,
            &mut counts,
            case,
            field,
            &reference.archives[i],
            &reference.decoded[i],
            first_chunk,
            tally,
        )?;
        stream_case(&mut rec, case, field, &interp, &reference.decoded[i], tally)?;
        interps.push(interp);
        first_chunk += case.plan().len();
    }
    rec.exit(whole);
    Ok((rec, counts, interps))
}

/// The traced run over one workload: every per-layer metric, and the
/// recorder holding the spans they were summed from. The replay is made
/// again and again until `replay_budget` is spent, and every span keeps its
/// fastest pass.
#[allow(clippy::too_many_arguments)]
pub fn trace(
    workload: &Workload,
    fields: &[Grid<f32>],
    reference: &Reference,
    samples: &Samples,
    untraced: Untraced,
    env: &Env,
    replay_budget: Duration,
    tally: &mut Tally,
) -> Result<(Vec<Metric>, Recorder), String> {
    rayon::set_num_threads(1);
    let start = Instant::now();
    let (mut rec, counts, interps) = replay_pass(workload, fields, reference, tally)?;
    while start.elapsed() < replay_budget {
        rec.keep_fastest(&replay_pass(workload, fields, reference, tally)?.0);
    }
    rec.compact();
    cli_layer(&mut rec, workload, fields, reference, env, tally)?;
    let jobs = jobs_layer(workload, fields, &interps, env, tally)?;
    let dispatch_us = pool_dispatch_us(env.threads);
    let telemetry_share = telemetry_overhead_share(workload, fields, tally);

    let raw_mib = workload.raw_bytes() as f64 / (1024.0 * 1024.0);
    let mibps = |mib: f64, ms: f64| mib / (ms / 1e3);
    let ms = |name: &str| rec.sum_ms(name);
    let mut out = vec![
        metric("ndgrid.chunks", counts.chunks as f64, "count"),
        metric("ndgrid.extract_ms", ms("ndgrid.extract"), "ms"),
        metric("ndgrid.insert_ms", ms("ndgrid.insert"), "ms"),
        metric("predictor.autotune_ms", ms("predictor.autotune"), "ms"),
        metric("predictor.new_us", ms("predictor.new") * 1e3, "us"),
        metric("predictor.compress_ms", ms("predictor.compress"), "ms"),
        metric(
            "predictor.compress_mibps",
            mibps(raw_mib, ms("predictor.compress")),
            "MiB/s",
        ),
        metric("predictor.decompress_ms", ms("predictor.decompress"), "ms"),
        metric(
            "predictor.decompress_mibps",
            mibps(raw_mib, ms("predictor.decompress")),
            "MiB/s",
        ),
        metric(
            "predictor.level_order_new_ms",
            ms("predictor.level_order_new"),
            "ms",
        ),
        metric("predictor.reorder_ms", ms("predictor.reorder"), "ms"),
        metric("predictor.restore_ms", ms("predictor.restore"), "ms"),
        metric(
            "predictor.outlier_share",
            counts.outliers as f64 / counts.points as f64,
            "share",
        ),
        metric(
            "predictor.top_code_share",
            counts.code_histogram.iter().copied().max().unwrap_or(0) as f64 / counts.points as f64,
            "share",
        ),
        metric(
            "predictor.code_entropy_bits",
            entropy_bits(&counts.code_histogram),
            "bits",
        ),
        metric("codec.encode_ms", ms("codec.encode"), "ms"),
        metric("codec.decode_ms", ms("codec.decode"), "ms"),
        metric("codec.out_bytes", counts.chosen_bytes as f64, "bytes"),
    ];
    for k in 0..CR_STAGES.len() {
        let stem = format!("codec.cr.{}", CR_STAGES[k]);
        out.push(metric(
            format!("{stem}.encode_ms"),
            ms(CR_ENCODE_SPANS[k]),
            "ms",
        ));
        out.push(metric(
            format!("{stem}.decode_ms"),
            ms(CR_DECODE_SPANS[k]),
            "ms",
        ));
        out.push(metric(
            format!("{stem}.out_bytes"),
            counts.cr_stage_bytes[k] as f64,
            "bytes",
        ));
    }
    let crc_mib = counts.crc_bytes as f64 / (1024.0 * 1024.0);
    // What the layer calls on the workload's own path add up to, against
    // what the same work took untraced.
    let autotune_on_path = if workload.cases.iter().any(|c| c.auto_tune) {
        ms("predictor.autotune")
    } else {
        0.0
    };
    // A CLI operation also starts a process and moves the field through
    // `raw.rs`; those are layer calls on its path too.
    let (cli_encode, cli_decode) = if workload.path == PathKind::Cli {
        let startup = median(&rec.durations_ms("cli.startup"));
        (
            startup + ms("cli.minmax") + ms("cli.read_regions"),
            startup + ms("cli.write_regions"),
        )
    } else {
        (0.0, 0.0)
    };
    let encode_attributed =
        rec.children_ms("chunk.encode") + ms("codec.crc32") + autotune_on_path + cli_encode;
    let decode_attributed = rec.children_ms("chunk.decode") + cli_decode;
    let replay_ms = ms("chunk.encode") + ms("chunk.decode") + autotune_on_path;
    let untraced_ms = (untraced.encode_1t_s + untraced.decode_1t_s) * 1e3;
    out.extend([
        metric("codec.tp.encode_ms", ms("codec.tp.encode"), "ms"),
        metric("codec.tp.decode_ms", ms("codec.tp.decode"), "ms"),
        metric("codec.tp.out_bytes", counts.tp_bytes as f64, "bytes"),
        metric("codec.crc32_ms", ms("codec.crc32"), "ms"),
        metric(
            "codec.crc32_mibps",
            mibps(crc_mib, ms("codec.crc32")),
            "MiB/s",
        ),
        metric("tuner.select_ms", ms("tuner.select"), "ms"),
        metric("tuner.interp_tune_ms", ms("tuner.interp_tune"), "ms"),
        metric(
            "tuner.trials",
            counts.trials as f64 / counts.chunks as f64,
            "count",
        ),
        metric(
            "tuner.estimate_over_actual",
            counts.estimated_bytes / counts.estimated_actual_bytes as f64,
            "x",
        ),
        metric(
            "tuner.regret_share",
            counts.regret_chosen_bytes as f64 / counts.regret_best_bytes as f64 - 1.0,
            "share",
        ),
        metric("core.sink_new_ms", ms("core.sink_new"), "ms"),
        metric("core.sink_push_ms", ms("core.sink_push"), "ms"),
        metric("core.sink_finish_ms", ms("core.sink_finish"), "ms"),
        metric("core.source_open_ms", ms("core.source_open"), "ms"),
        metric("core.source_read_ms", ms("core.source_read"), "ms"),
        metric("core.forward_decode_ms", ms("core.forward_decode"), "ms"),
        metric(
            "core.container_overhead_bytes",
            counts.container_overhead_bytes as f64,
            "bytes",
        ),
        metric("core.random_read_p95_ms", p95(&samples.read_ms()), "ms"),
        metric(
            "core.encode_unattributed_share",
            1.0 - encode_attributed / (untraced.encode_1t_s * 1e3),
            "ratio",
        ),
        metric(
            "core.decode_unattributed_share",
            1.0 - decode_attributed / (untraced.decode_1t_s * 1e3),
            "ratio",
        ),
    ]);
    out.extend(jobs);
    let encode_speedup = untraced.encode_1t_s / untraced.encode_s;
    let decode_speedup = untraced.decode_1t_s / untraced.decode_s;
    out.extend([
        metric("rayon.dispatch_us", dispatch_us, "us"),
        metric("rayon.encode_speedup", encode_speedup, "ratio"),
        metric("rayon.decode_speedup", decode_speedup, "ratio"),
        metric(
            "rayon.parallel_efficiency",
            (encode_speedup + decode_speedup) / 2.0 / env.threads as f64,
            "ratio",
        ),
        metric(
            "cli.startup_ms",
            median(&rec.durations_ms("cli.startup")),
            "ms",
        ),
        metric("cli.minmax_ms", ms("cli.minmax"), "ms"),
        metric("cli.read_regions_ms", ms("cli.read_regions"), "ms"),
        metric("cli.write_regions_ms", ms("cli.write_regions"), "ms"),
        metric("cli.inspect_ms", ms("cli.inspect"), "ms"),
        metric("cli.pipe_decode_ms", ms("cli.pipe_decode"), "ms"),
        metric(
            "cli.encode_over_lib",
            ms("cli.encode") / ms("cli.encode_in_process"),
            "ratio",
        ),
        metric(
            "cli.decode_over_lib",
            ms("cli.decode") / ms("cli.decode_in_process"),
            "ratio",
        ),
        metric("telemetry.enabled_overhead_share", telemetry_share, "ratio"),
        metric("mem.copy_mibps", mibps(raw_mib, ms("mem.copy")), "MiB/s"),
        metric("datagen.generate_ms", untraced.generate_ms, "ms"),
        metric("metrics.verify_ms", reference.verify_ms, "ms"),
        metric(
            "harness.trace_overhead_share",
            replay_ms / untraced_ms - 1.0,
            "ratio",
        ),
    ]);
    Ok((out, rec))
}
