//! Chunked vs monolithic compression throughput.
//!
//! Measures the wall-clock speedup of the chunk-parallel engine over the
//! monolithic pipeline on a large 3D field: the monolithic (v1) path, the
//! chunked (v4) path pinned to one worker thread, and the chunked path at
//! the configured thread count. The headline number is the last row's
//! speedup over chunked-at-1-thread — with ≥ 4 hardware threads on a
//! ≥ 256³ field it should exceed 1.5×.
//!
//! A second section measures **orchestration** on a mixed smooth/noisy
//! field: compressed size and tuning wall-time for every mode-tuning
//! policy — both global modes, `ModeTuning::PerChunk` over {CR, TP},
//! exhaustive trial-encoding over the fig6 catalogue, and the
//! estimator-guided `ModeTuning::Estimated` — plus per-chunk interpolation
//! tuning (the v5 container), with mode and config histograms straight
//! from the chunk table. Headline criteria: the estimated stream stays
//! within 1.05× of the exhaustive one at measurably lower tuning time.
//!
//! A third section measures the **bounded-memory v4 sink**: the same field
//! streamed chunk-by-chunk through `StreamSink` into a byte-counting
//! `io::Write` (bodies leave immediately), reporting throughput and the
//! sink's buffering high-water next to the compressed stream size.
//!
//! Run with `cargo run -p szhi-bench --release --bin chunked_throughput`.
//! `--scale <f>` (or `SZHI_SCALE`) scales the 256³ default field;
//! `SZHI_NUM_THREADS` caps the multi-threaded row. `--json <path>` also
//! writes the measurements as a machine-readable JSON report (one array of
//! flat objects per section) for CI trend tracking.

use std::collections::BTreeMap;
use szhi_bench::{fmt_ms, print_table, SEED};
use szhi_core::{
    compress, compress_with_stats, decompress, ErrorBound, ModeTuning, PipelineMode, StreamSink,
    StreamSource, SzhiConfig,
};
use szhi_datagen::DatasetKind;
use szhi_metrics::Stopwatch;
use szhi_ndgrid::{Dims, Grid};

/// Accumulates the benchmark's measurements as a JSON report: one array of
/// flat objects per section, written out when `--json <path>` is given.
#[derive(Default)]
struct JsonReport {
    sections: Vec<(&'static str, Vec<String>)>,
}

impl JsonReport {
    /// Appends one pre-serialised JSON object to a section (created on
    /// first use, in insertion order).
    fn push(&mut self, section: &'static str, object: String) {
        match self.sections.iter_mut().find(|(name, _)| *name == section) {
            Some((_, objects)) => objects.push(object),
            None => self.sections.push((section, vec![object])),
        }
    }

    /// Serialises the report and writes it to `path`.
    fn write(&self, path: &str, dims: Dims) -> std::io::Result<()> {
        let mut out = String::from("{\n  \"bench\": \"chunked_throughput\",\n");
        out.push_str(&format!("  \"dims\": \"{dims}\",\n  \"sections\": {{\n"));
        let sections: Vec<String> = self
            .sections
            .iter()
            .map(|(name, objects)| {
                format!(
                    "    \"{name}\": [\n      {}\n    ]",
                    objects.join(",\n      ")
                )
            })
            .collect();
        out.push_str(&sections.join(",\n"));
        out.push_str("\n  }\n}\n");
        std::fs::write(path, out)
    }
}

/// Formats a float as a JSON number (`null` for non-finite values, which
/// bare JSON cannot represent).
fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        "null".into()
    }
}

/// Extracts the `--json <path>` argument, if present.
fn json_path_from_args() -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--json" {
            return args.next();
        }
    }
    None
}

fn measure(data: &Grid<f32>, cfg: &SzhiConfig, threads: usize) -> (f64, f64, f64, f64) {
    rayon::set_num_threads(threads);
    let bytes_in = data.dims().nbytes_f32();
    let sw = Stopwatch::start();
    let (bytes, stats) = compress_with_stats(data, cfg).expect("compression failed");
    let comp = sw.finish(bytes_in);
    let sw = Stopwatch::start();
    let recon = decompress(&bytes).expect("decompression failed");
    let decomp = sw.finish(bytes_in);
    assert_eq!(recon.dims(), data.dims());
    rayon::set_num_threads(0);
    (
        comp.elapsed.as_secs_f64(),
        decomp.elapsed.as_secs_f64(),
        comp.gibps,
        stats.compression_ratio,
    )
}

fn main() {
    let scale = szhi_bench::scale_from_args();
    let json_path = json_path_from_args();
    let mut report = JsonReport::default();
    let n = ((256.0 * scale).round() as usize).max(64);
    let dims = Dims::d3(n, n, n);
    let threads = rayon::current_num_threads().max(1);
    eprintln!(
        "# generating a {dims} Miranda-like field ({} MiB), {threads} worker threads",
        dims.nbytes_f32() >> 20
    );
    let data = DatasetKind::Miranda.generate(dims, SEED);

    let base = SzhiConfig::new(ErrorBound::Relative(1e-3));
    let chunked = base.clone().with_chunk_span(SzhiConfig::DEFAULT_CHUNK_SPAN);

    let mb = dims.nbytes_f32() as f64 / 1e6;
    let throughput_entry = |report: &mut JsonReport,
                            engine: &str,
                            threads: usize,
                            comp_s: f64,
                            decomp_s: f64,
                            ratio: f64| {
        report.push(
            "throughput",
            format!(
                "{{\"engine\": \"{engine}\", \"threads\": {threads}, \
                 \"comp_mb_s\": {}, \"decomp_mb_s\": {}, \"ratio\": {}}}",
                jnum(mb / comp_s),
                jnum(mb / decomp_s),
                jnum(ratio)
            ),
        );
    };

    let mut rows = Vec::new();
    let (mono_c, mono_d, mono_gibps, mono_ratio) = measure(&data, &base, threads);
    throughput_entry(
        &mut report,
        "monolithic_v1",
        threads,
        mono_c,
        mono_d,
        mono_ratio,
    );
    rows.push(vec![
        "monolithic (v1)".into(),
        threads.to_string(),
        fmt_ms(std::time::Duration::from_secs_f64(mono_c)),
        fmt_ms(std::time::Duration::from_secs_f64(mono_d)),
        format!("{mono_gibps:.3}"),
        format!("{mono_ratio:.2}"),
        String::from("1.00"),
    ]);
    let (one_c, one_d, one_gibps, one_ratio) = measure(&data, &chunked, 1);
    throughput_entry(
        &mut report,
        "chunked_v4_1_thread",
        1,
        one_c,
        one_d,
        one_ratio,
    );
    rows.push(vec![
        "chunked (v4)".into(),
        "1".into(),
        fmt_ms(std::time::Duration::from_secs_f64(one_c)),
        fmt_ms(std::time::Duration::from_secs_f64(one_d)),
        format!("{one_gibps:.3}"),
        format!("{one_ratio:.2}"),
        String::from("1.00"),
    ]);
    let (multi_c, multi_d, multi_gibps, multi_ratio) = measure(&data, &chunked, threads);
    throughput_entry(
        &mut report,
        "chunked_v4",
        threads,
        multi_c,
        multi_d,
        multi_ratio,
    );
    let speedup = one_c / multi_c;
    rows.push(vec![
        "chunked (v4)".into(),
        threads.to_string(),
        fmt_ms(std::time::Duration::from_secs_f64(multi_c)),
        fmt_ms(std::time::Duration::from_secs_f64(multi_d)),
        format!("{multi_gibps:.3}"),
        format!("{multi_ratio:.2}"),
        format!("{speedup:.2}"),
    ]);

    print_table(
        &format!("Chunked vs monolithic throughput on {dims} (chunk span 64³)"),
        &[
            "engine",
            "threads",
            "comp ms",
            "decomp ms",
            "comp GiB/s",
            "ratio",
            "speedup vs chunked@1",
        ],
        &rows,
    );
    println!(
        "\nchunked compression speedup at {threads} threads: {speedup:.2}x \
         (vs monolithic: {:.2}x)",
        mono_c / multi_c
    );
    if threads >= 4 && n >= 256 && speedup <= 1.5 {
        eprintln!("WARNING: expected a wall-clock speedup > 1.5x with >= 4 threads");
    }

    orchestration_section(n, &mut report);
    streaming_sink_section(&data, &mut report);
    telemetry_section(&data, &mut report);

    if let Some(path) = json_path {
        report.write(&path, dims).expect("writing the JSON report");
        eprintln!("# JSON report written to {path}");
    }
}

/// An `io::Write` that counts bytes instead of storing them — a stand-in
/// for a file or socket that also reveals the sink's buffering behaviour.
#[derive(Default)]
struct CountingSink {
    total: u64,
    max_write: usize,
}

impl std::io::Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.total += buf.len() as u64;
        self.max_write = self.max_write.max(buf.len());
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Streams the field chunk-by-chunk through the byte-counting v4 sink,
/// reporting throughput and the sink's buffering high-water: its largest
/// resident buffer is one encoded chunk or the table tail, never the
/// compressed stream.
fn streaming_sink_section(data: &Grid<f32>, report: &mut JsonReport) {
    let dims = data.dims();
    let abs_eb = 1e-3 * data.value_range() as f64;
    let cfg = SzhiConfig::new(ErrorBound::Absolute(abs_eb))
        .with_auto_tune(false)
        .with_chunk_span(SzhiConfig::DEFAULT_CHUNK_SPAN);

    let sw = Stopwatch::start();
    let mut sink = StreamSink::new(CountingSink::default(), dims, &cfg).expect("streaming config");
    let mut max_chunk = 0usize;
    while let Some(region) = sink.next_chunk_region() {
        let chunk_dims = sink.plan().chunk_dims(sink.next_index());
        let chunk = Grid::from_vec(chunk_dims, data.extract(&region));
        let receipt = sink.push_chunk(&chunk).expect("push");
        max_chunk = max_chunk.max(receipt.compressed_bytes);
    }
    let (counter, stats) = sink.finish_with_stats().expect("finish");
    let v4_time = sw.finish(dims.nbytes_f32());
    assert_eq!(counter.total, stats.compressed_bytes as u64);
    let high_water = counter.max_write.max(max_chunk);

    let mb = dims.nbytes_f32() as f64 / 1e6;
    report.push(
        "streaming",
        format!(
            "{{\"engine\": \"stream_sink_v4\", \"comp_mb_s\": {}, \"ratio\": {}, \
             \"stream_bytes\": {}, \"high_water_bytes\": {high_water}}}",
            jnum(mb / v4_time.elapsed.as_secs_f64()),
            jnum(dims.nbytes_f32() as f64 / counter.total as f64),
            counter.total,
        ),
    );

    print_table(
        &format!("Bounded-memory streaming on {dims} (chunk span 64³, one thread of work)"),
        &[
            "engine",
            "container",
            "comp ms",
            "GiB/s",
            "stream bytes",
            "buffering high-water",
        ],
        &[vec![
            "StreamSink (io::Write)".into(),
            "v4".into(),
            fmt_ms(v4_time.elapsed),
            format!("{:.3}", v4_time.gibps),
            counter.total.to_string(),
            format!("{high_water} B (largest single write: max chunk {max_chunk} B / table tail)"),
        ]],
    );
    println!(
        "\nv4 sink buffering high-water is {:.1}% of the compressed stream \
         (one chunk + table vs every compressed chunk)",
        100.0 * high_water as f64 / counter.total.max(1) as f64
    );
}

/// The telemetry overhead section — the CI gate behind the "zero
/// overhead while disabled" claim. Three measurements:
///
/// 1. **Gate cost**: the wall time of one disabled span enter/drop pair
///    (the most expensive instrumentation site: one relaxed flags load
///    plus an inert guard; a counter bump is strictly cheaper).
/// 2. **Estimated disabled regression**: gate cost × the number of
///    instrumentation events one chunked encode actually fires (counted
///    from an enabled run), as a percentage of the disabled encode wall
///    time. The acceptance criterion is < 2%.
/// 3. **Enabled-over-disabled ratio**: the same encode with stats and
///    trace fully on, as a sanity bound on the *enabled* cost (lenient
///    threshold — this path is allowed to cost something).
///
/// The section also re-checks the determinism invariant: the bytes with
/// every switch on equal the bytes with every switch off.
fn telemetry_section(data: &Grid<f32>, report: &mut JsonReport) {
    use szhi_telemetry as tm;
    static GATE_SPAN: tm::Span = tm::Span::new("bench.telemetry.gate");
    assert!(
        !tm::stats_enabled() && !tm::trace_enabled(),
        "the disabled-path measurement needs every switch off"
    );

    const EVENTS: u32 = 4_000_000;
    let sw = Stopwatch::start();
    for _ in 0..EVENTS {
        std::hint::black_box(GATE_SPAN.enter());
    }
    let gate_ns = sw.elapsed().as_secs_f64() * 1e9 / EVENTS as f64;

    let dims = data.dims();
    let cfg =
        SzhiConfig::new(ErrorBound::Relative(1e-3)).with_chunk_span(SzhiConfig::DEFAULT_CHUNK_SPAN);
    let run = |data: &Grid<f32>| {
        let sw = Stopwatch::start();
        let bytes = compress(data, &cfg).expect("compression failed");
        (bytes, sw.elapsed().as_secs_f64())
    };
    let (bytes_off, off_a) = run(data);
    let (_, off_b) = run(data);
    let off_secs = off_a.min(off_b);

    tm::set_stats_enabled(true);
    tm::set_trace_enabled(true);
    let before = tm::Snapshot::capture();
    let (bytes_on, on_a) = run(data);
    let delta = tm::Snapshot::capture().delta(&before);
    let (_, on_b) = run(data);
    tm::set_stats_enabled(false);
    tm::set_trace_enabled(false);
    tm::reset();
    let on_secs = on_a.min(on_b);
    assert_eq!(
        bytes_off, bytes_on,
        "telemetry must never change the emitted bytes"
    );

    // Instrumentation events one encode fires: every recorded span is
    // one enter/drop pair; the counter bumps ride along with the sink
    // pushes and pool parts.
    let span_pairs: u64 = delta.histograms.iter().map(|h| h.count).sum();
    let counter_bumps =
        2 * delta.counter("io.sink.chunks").unwrap_or(0) + delta.counter("pool.tasks").unwrap_or(0);
    let events = (span_pairs + counter_bumps) as f64;
    let est_pct = 100.0 * gate_ns * events / (off_secs * 1e9);
    let ratio = on_secs / off_secs.max(1e-9);

    let mb = dims.nbytes_f32() as f64 / 1e6;
    report.push(
        "telemetry",
        format!(
            "{{\"gate_ns_per_event\": {}, \"events_per_encode\": {events}, \
             \"disabled_comp_mb_s\": {}, \"enabled_comp_mb_s\": {}, \
             \"enabled_over_disabled\": {}, \"est_disabled_regression_pct\": {}}}",
            jnum(gate_ns),
            jnum(mb / off_secs),
            jnum(mb / on_secs),
            jnum(ratio),
            jnum(est_pct)
        ),
    );
    print_table(
        &format!("Telemetry overhead on {dims} (chunk span 64³)"),
        &["measurement", "value"],
        &[
            vec![
                "disabled gate cost".into(),
                format!("{gate_ns:.2} ns per event"),
            ],
            vec![
                "events per encode".into(),
                format!("{events:.0} (spans + counter bumps)"),
            ],
            vec![
                "encode, telemetry off".into(),
                format!(
                    "{} ({:.1} MiB/s)",
                    fmt_ms(std::time::Duration::from_secs_f64(off_secs)),
                    mb / off_secs
                ),
            ],
            vec![
                "encode, stats + trace on".into(),
                format!(
                    "{} ({:.1} MiB/s)",
                    fmt_ms(std::time::Duration::from_secs_f64(on_secs)),
                    mb / on_secs
                ),
            ],
            vec![
                "est. disabled regression".into(),
                format!("{est_pct:.4}% (criterion: < 2%)"),
            ],
        ],
    );
    println!(
        "\ntelemetry disabled-path estimate: {est_pct:.4}% of encode wall time \
         ({events:.0} events x {gate_ns:.2} ns); enabled/disabled x{ratio:.3}"
    );
    if est_pct >= 2.0 {
        eprintln!("WARNING: estimated disabled-telemetry overhead reached the 2% budget");
    }
    if ratio > 1.25 {
        eprintln!("WARNING: fully-enabled telemetry cost more than 25% of encode time");
    }
}

/// A compact per-level signature of an interpolation configuration, e.g.
/// `MC-MC-DL-DL` (scheme Multi-dim/Dim-sequence × spline Cubic/Linear).
fn interp_signature(interp: &szhi_predictor::InterpConfig) -> String {
    use szhi_predictor::{Scheme, Spline};
    interp
        .levels
        .iter()
        .map(|lc| {
            let s = match lc.scheme {
                Scheme::MultiDim => 'M',
                Scheme::DimSequence => 'D',
            };
            let p = match lc.spline {
                Spline::Cubic => 'C',
                Spline::Linear => 'L',
            };
            format!("{s}{p}")
        })
        .collect::<Vec<_>>()
        .join("-")
}

/// The orchestration section: tuning wall-time and compression ratio of
/// every mode-tuning policy — global, per-chunk {CR, TP} trial-encode,
/// exhaustive fig6 trial-encode, estimator-guided fig6 — plus the v5
/// per-chunk-interp configuration, with mode and config histograms straight
/// from the chunk table. The headline numbers are the estimated policy's
/// size (≤ 1.05× exhaustive) and tuning time (well below exhaustive).
fn orchestration_section(n: usize, report: &mut JsonReport) {
    let dims = Dims::d3((n / 2).max(32), (n / 2).max(32), n.max(64));
    let data = szhi_datagen::mixed_smooth_noisy(dims);
    // A fixed absolute bound that keeps the noisy half's quantization codes
    // inside the u8 code range (no outlier saturation): the regime where
    // the noisy chunks genuinely prefer the TP pipeline.
    let abs_eb = 2e-3;
    let base = SzhiConfig::new(ErrorBound::Absolute(abs_eb))
        .with_auto_tune(false)
        .with_chunk_span([32, 32, 32]);
    let original = dims.nbytes_f32() as f64;

    let mut rows = Vec::new();
    let mut sizes = BTreeMap::new();
    let mut times = BTreeMap::new();
    for (label, cfg) in [
        ("global CR", base.clone().with_mode(PipelineMode::Cr)),
        ("global TP", base.clone().with_mode(PipelineMode::Tp)),
        (
            "per-chunk {CR,TP}",
            base.clone().with_mode_tuning(ModeTuning::PerChunk),
        ),
        (
            "exhaustive fig6",
            base.clone().with_mode_tuning(ModeTuning::exhaustive()),
        ),
        (
            "estimated fig6",
            base.clone().with_mode_tuning(ModeTuning::estimated()),
        ),
        (
            "estimated + interp (v5)",
            base.clone()
                .with_mode_tuning(ModeTuning::estimated())
                .with_chunk_interp_tuning(true),
        ),
    ] {
        let sw = Stopwatch::start();
        let bytes = compress(&data, &cfg).expect("compression failed");
        let comp = sw.finish(dims.nbytes_f32());
        let reader = StreamSource::from_bytes(&bytes).expect("chunked stream");
        let mut modes: BTreeMap<String, usize> = BTreeMap::new();
        let mut configs: BTreeMap<String, usize> = BTreeMap::new();
        for i in 0..reader.chunk_count() {
            *modes
                .entry(reader.chunk_pipeline(i).name().to_string())
                .or_insert(0) += 1;
            if cfg.chunk_interp_tuning {
                *configs
                    .entry(interp_signature(&reader.chunk_interp(i)))
                    .or_insert(0) += 1;
            }
        }
        let fmt_hist = |h: &BTreeMap<_, usize>| {
            h.iter()
                .map(|(k, count)| format!("{count}×{k}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        sizes.insert(label, bytes.len());
        times.insert(label, comp.elapsed.as_secs_f64());
        report.push(
            "orchestration",
            format!(
                "{{\"policy\": \"{label}\", \"version\": {}, \"ratio\": {}, \
                 \"bytes\": {}, \"comp_mb_s\": {}}}",
                szhi_core::stream_version(&bytes).unwrap(),
                jnum(original / bytes.len() as f64),
                bytes.len(),
                jnum(dims.nbytes_f32() as f64 / 1e6 / comp.elapsed.as_secs_f64())
            ),
        );
        let configs_cell = if cfg.chunk_interp_tuning {
            fmt_hist(&configs)
        } else {
            "(header)".into()
        };
        rows.push(vec![
            label.into(),
            format!("v{}", szhi_core::stream_version(&bytes).unwrap()),
            format!("{:.2}", original / bytes.len() as f64),
            bytes.len().to_string(),
            fmt_ms(comp.elapsed),
            fmt_hist(&modes),
            configs_cell,
        ]);
    }
    print_table(
        &format!("Orchestration policies on a mixed smooth/noisy {dims} field (chunk span 32³)"),
        &[
            "tuning",
            "ver",
            "ratio",
            "bytes",
            "comp ms",
            "chosen modes",
            "chosen configs",
        ],
        &rows,
    );

    let best_global = sizes["global CR"].min(sizes["global TP"]);
    println!(
        "\nper-chunk {{CR,TP}} CR delta: {:+.2}% vs best global mode ({} B -> {} B)",
        100.0 * (best_global as f64 / sizes["per-chunk {CR,TP}"] as f64 - 1.0),
        best_global,
        sizes["per-chunk {CR,TP}"],
    );
    // The acceptance numbers: estimated-vs-exhaustive size (must stay
    // within 1.05x) and tuning wall-time (compression time beyond the
    // untuned global-CR baseline; the estimator must spend measurably
    // less of it than the exhaustive sweep).
    let size_ratio = sizes["estimated fig6"] as f64 / sizes["exhaustive fig6"] as f64;
    let tune_exh = (times["exhaustive fig6"] - times["global CR"]).max(0.0);
    let tune_est = (times["estimated fig6"] - times["global CR"]).max(0.0);
    println!(
        "estimated vs exhaustive over fig6: size x{size_ratio:.4} \
         (criterion: <= 1.05), tuning time {:.0} ms vs {:.0} ms ({:.1}x less)",
        tune_est * 1e3,
        tune_exh * 1e3,
        tune_exh / tune_est.max(1e-9),
    );
    if size_ratio > 1.05 {
        eprintln!("WARNING: estimated stream exceeds 1.05x the exhaustive stream");
    }
    if tune_est >= tune_exh {
        eprintln!("WARNING: estimated tuning was not faster than exhaustive trial-encoding");
    }
}
