//! szhi-benchmark: one workload per process, end to end or traced.
//!
//! `run.sh` builds this and `szhi-cli` and calls
//! `szhi-benchmark --workload NAME --seed N --seconds S --trace 0|1`.
//! The last line of standard output is one JSON object with the run's
//! metrics; README.md defines every metric and workload.

#![forbid(unsafe_code)]

mod endtoend;
mod layers;
mod stats;
mod trace;
mod workloads;

use endtoend::{Env, Pace, Samples, Tally};
use layers::Untraced;
use stats::{summarize, Json, Summary};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use szhi_codec::checksum::crc32;
use szhi_ndgrid::Grid;
use workloads::Workload;

const USAGE: &str = "usage: szhi-benchmark --workload NAME --seed N --seconds S --trace 0|1 \
--cli PATH --work DIR [--quick] [--report FILE] [--trace-out FILE]";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    cli: PathBuf,
    work: PathBuf,
    report: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 22.0,
        trace: false,
        quick: false,
        cli: PathBuf::new(),
        work: PathBuf::new(),
        report: None,
        trace_out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            args.quick = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot read '{value}'");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--cli" => args.cli = PathBuf::from(value),
            "--work" => args.work = PathBuf::from(value),
            "--report" => args.report = Some(PathBuf::from(value)),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if args.workload.is_empty()
        || args.cli.as_os_str().is_empty()
        || args.work.as_os_str().is_empty()
    {
        return Err("--workload, --cli and --work are required".to_string());
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".to_string());
    }
    Ok(args)
}

/// Worker threads of the parallel phases: every core, at most four.
fn parallel_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

/// A timing metric: its value is the best sample (README.md says why), and
/// the quartiles of all samples ride along.
struct Timing {
    name: &'static str,
    unit: &'static str,
    value: f64,
    summary: Summary,
}

/// Throughput of one phase: the workload's raw MiB over each sample's wall
/// seconds.
fn throughput(name: &'static str, raw_bytes: usize, secs: &[f64]) -> Timing {
    let mib = raw_bytes as f64 / (1024.0 * 1024.0);
    let rates: Vec<f64> = secs.iter().map(|s| mib / s).collect();
    let summary = summarize(&rates, true);
    Timing {
        name,
        unit: "MiB/s",
        value: summary.best,
        summary,
    }
}

fn run(args: &Args) -> Result<(), String> {
    let workload = workloads::all(args.quick)
        .into_iter()
        .find(|w| w.name == args.workload)
        .ok_or(format!("unknown workload '{}'", args.workload))?;
    let env = Env {
        threads: parallel_threads(),
        cli: args.cli.clone(),
        seed: args.seed,
        work: args
            .work
            .join(format!("{}-{}", workload.name, std::process::id())),
    };
    std::fs::create_dir_all(&env.work)
        .map_err(|e| format!("cannot create {}: {e}", env.work.display()))?;
    let outcome = run_in(&workload, args, &env);
    // Best effort: a leftover scratch directory must not fail the run.
    let _ = std::fs::remove_dir_all(&env.work);
    outcome
}

fn run_in(workload: &Workload, args: &Args, env: &Env) -> Result<(), String> {
    let mut tally = Tally::default();
    // The first set-up provides the fields; in an untraced run more follow
    // between the rounds (`Pace::set_up_every`).
    let first = endtoend::set_up(workload, env)?;
    let fields: &[Grid<f32>] = &first.fields;
    let mut door = endtoend::front_door(workload, fields, env);

    let reference =
        endtoend::establish_reference(door.as_mut(), workload, fields, env, &mut tally)?;
    let pace = if args.trace || args.quick {
        // The traced run needs the untraced walls and the read latencies
        // only as denominators and for the p95; the smoke test needs only
        // that they come out.
        Pace {
            rounds: 3,
            set_up_every: None,
        }
    } else {
        // Three set-ups in all: this one, and after rounds 4 and 8.
        Pace {
            rounds: 11,
            set_up_every: Some(4),
        }
    };
    let samples = endtoend::measure(door.as_mut(), workload, &reference, env, pace, &mut tally);
    if samples_missing(&samples) {
        return Err("a timed phase never succeeded; nothing to report".to_string());
    }
    drop(door);
    // The process doing the work: the CLI's children, else this one.
    let child_peak_kib = first.child_peak_kib.max(samples.child_peak_kib);
    let peak_rss_kib = child_peak_kib.unwrap_or(samples.first_round_peak_kib);
    let mut setup_s = vec![first.secs];
    setup_s.extend(&samples.setup_s);

    let archive_bytes: usize = reference.archives.iter().map(Vec::len).sum();
    let archive_crc32 = reference
        .archives
        .iter()
        .fold(0u32, |acc, a| acc.rotate_left(1) ^ crc32(a));
    let raw = workload.raw_bytes();

    let mut layer_metrics = Vec::new();
    let mut events = Vec::new();
    if args.trace {
        let untraced = Untraced::new(&samples, first.generate_ms);
        // The replay passes get a third of the run; the untraced rounds
        // before them and the other layers after them take about as much.
        let replay_budget = Duration::from_secs_f64(args.seconds / 3.0);
        let (metrics, recorder) = layers::trace(
            workload,
            fields,
            &reference,
            &samples,
            untraced,
            env,
            replay_budget,
            &mut tally,
        )?;
        for m in &metrics {
            if m.name.ends_with("_unattributed_share") && !(-0.05..=0.20).contains(&m.value) {
                eprintln!(
                    "szhi-benchmark: warning: {} {} = {:.3} is outside [-0.05, 0.20]",
                    workload.name, m.name, m.value
                );
            }
        }
        layer_metrics = metrics;
        events = recorder.events(workload.name);
    }

    // --- output -----------------------------------------------------------
    let correct = tally.failed == 0;
    let mut report_metrics = Vec::new();
    let mut last_line_metrics = Vec::new();
    let mut emit = |name: &str, value: f64, unit: &str, spread: Option<&Summary>| {
        let mut fields = vec![
            ("value".to_string(), Json::Num(value)),
            ("unit".to_string(), Json::str(unit)),
        ];
        last_line_metrics.push((name.to_string(), Json::Obj(fields.clone())));
        match spread {
            Some(s) => {
                println!(
                    "{} {name} {value} {unit} n={} q1={} median={} q3={} best={}",
                    workload.name, s.n, s.q1, s.median, s.q3, s.best
                );
                fields.push(("n".to_string(), Json::Int(s.n as u64)));
                fields.push(("q1".to_string(), Json::Num(s.q1)));
                fields.push(("median".to_string(), Json::Num(s.median)));
                fields.push(("q3".to_string(), Json::Num(s.q3)));
                fields.push(("best".to_string(), Json::Num(s.best)));
            }
            None => println!("{} {name} {value} {unit}", workload.name),
        }
        report_metrics.push((name.to_string(), Json::Obj(fields)));
    };
    if args.trace {
        for m in &layer_metrics {
            emit(&m.name, m.value, m.unit, None);
        }
    } else {
        let setup = summarize(&setup_s, false);
        let timings = [
            throughput("encode_mibps", raw, &samples.encode_s),
            throughput("decode_mibps", raw, &samples.decode_s),
            throughput("encode_mibps_1t", raw, &samples.encode_1t_s),
            throughput("decode_mibps_1t", raw, &samples.decode_1t_s),
            Timing {
                name: "random_chunk_read_ms",
                unit: "ms",
                value: samples.read_latency_ms(),
                summary: summarize(&samples.read_ms(), false),
            },
            Timing {
                name: "setup_s",
                unit: "s",
                value: setup.best,
                summary: setup,
            },
        ];
        for t in &timings {
            emit(t.name, t.value, t.unit, Some(&t.summary));
        }
        emit(
            "compression_ratio",
            raw as f64 / archive_bytes as f64,
            "x",
            None,
        );
        emit("psnr_db", reference.psnr_db, "dB", None);
        emit("peak_rss_mib", peak_rss_kib as f64 / 1024.0, "MiB", None);
        // The tenth end-to-end metric. It goes to the printed lines and the
        // report but not into the result line: it reads 0 on every good run,
        // and a driver that divides by a metric's median cannot take that;
        // `attempted` and `failed` carry it there.
        let failed_share = tally.failed as f64 / tally.attempted as f64;
        println!(
            "{} failed_share {failed_share} ratio attempted={} failed={}",
            workload.name, tally.attempted, tally.failed
        );
        report_metrics.push((
            "failed_share".to_string(),
            Json::obj([
                ("value", Json::Num(failed_share)),
                ("unit", Json::str("ratio")),
            ]),
        ));
    }
    println!("{} archive_crc32 {archive_crc32:08x}", workload.name);

    if let Some(path) = &args.report {
        let field_sizes = workload.cases.iter().map(|c| {
            Json::obj([
                ("dataset", Json::str(c.kind.name())),
                ("dims", Json::str(c.dims.to_string())),
                ("raw_bytes", Json::Int(c.raw_bytes() as u64)),
                ("chunks", Json::Int(c.plan().len() as u64)),
            ])
        });
        let report = Json::obj([
            ("workload", Json::str(workload.name)),
            ("trace", Json::Bool(args.trace)),
            ("seed", Json::Int(args.seed)),
            ("threads", Json::Int(env.threads as u64)),
            ("fields", Json::Arr(field_sizes.collect())),
            ("archive_bytes", Json::Int(archive_bytes as u64)),
            ("archive_crc32", Json::Int(archive_crc32 as u64)),
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Int(tally.attempted)),
            ("failed", Json::Int(tally.failed)),
            ("metrics", Json::Obj(report_metrics)),
        ]);
        std::fs::write(path, format!("{report}\n"))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    if let (true, Some(path)) = (args.trace, &args.trace_out) {
        let doc = Json::obj([("traceEvents", Json::Arr(events))]);
        std::fs::write(path, format!("{doc}\n"))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(tally.attempted)),
        ("failed", Json::Int(tally.failed)),
        ("metrics", Json::Obj(last_line_metrics)),
    ]);
    println!("{result}");
    Ok(())
}

fn samples_missing(samples: &Samples) -> bool {
    [
        &samples.encode_1t_s,
        &samples.decode_1t_s,
        &samples.encode_s,
        &samples.decode_s,
    ]
    .iter()
    .any(|v| v.is_empty())
        || samples.reads.is_empty()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("szhi-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        // A run that printed its result exits 0; `correct` carries the
        // verdict, and the suite driver turns it into an exit code.
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("szhi-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
