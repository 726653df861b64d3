//! End-to-end tests of the `szhi-cli` binary: real files, real pipes,
//! real exit codes. Every test drives the compiled binary through
//! `std::process::Command` (`CARGO_BIN_EXE_szhi-cli`), so the argument
//! surface, the stream layouts on disk and the stderr/exit-code contract
//! are all exercised exactly as a shell user sees them.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use szhi_core::{decompress, stream_version};
use szhi_ndgrid::{Dims, Grid};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_szhi-cli"))
}

fn temp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("szhi-cli-e2e-{}-{tag}", std::process::id()))
}

fn field() -> Grid<f32> {
    szhi_datagen::mixed_smooth_noisy(Dims::d3(24, 20, 32))
}

fn to_bytes(values: &[f32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn to_f32(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect()
}

fn run(args: &[&str]) -> Output {
    bin().args(args).output().expect("cannot run szhi-cli")
}

fn assert_ok(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed: status {:?}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// encode → inspect → decode over real files, bit-compared against the
/// in-memory engine.
#[test]
fn encode_inspect_decode_roundtrip_on_files() {
    let input = temp("rt-in.f32");
    let archive = temp("rt.szhi");
    let output = temp("rt-out.f32");
    let f = field();
    std::fs::write(&input, to_bytes(f.as_slice())).unwrap();

    let out = run(&[
        "encode",
        input.to_str().unwrap(),
        archive.to_str().unwrap(),
        "--dims",
        "24,20,32",
        "--eb",
        "2e-3",
        "--chunk-span",
        "16,16,16",
        "--mode",
        "per-chunk",
    ]);
    assert_ok(&out, "encode");
    assert!(String::from_utf8_lossy(&out.stdout).contains("encoded"));

    // The archive is a well-formed trailered stream the library decodes.
    let bytes = std::fs::read(&archive).unwrap();
    assert_eq!(stream_version(&bytes).unwrap(), 4);
    let restored = decompress(&bytes).unwrap();

    let out = run(&["inspect", archive.to_str().unwrap()]);
    assert_ok(&out, "inspect");
    let report = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(report.contains("v4 (trailered)"));
    assert!(report.contains("pipeline/config usage:"));

    let out = run(&[
        "decode",
        archive.to_str().unwrap(),
        output.to_str().unwrap(),
    ]);
    assert_ok(&out, "decode");
    // Bit-identical to the in-memory decompression of the same archive…
    let decoded = to_f32(&std::fs::read(&output).unwrap());
    assert_eq!(decoded, restored.as_slice());
    // …and within the bound of the original field.
    for (a, b) in f.as_slice().iter().zip(&decoded) {
        assert!(((*a as f64) - (*b as f64)).abs() <= 2e-3);
    }

    for p in [&input, &archive, &output] {
        std::fs::remove_file(p).unwrap();
    }
}

/// `decode - out` reads the archive from a non-seekable stdin pipe to its
/// end, then decodes it like a file.
#[test]
fn decode_reads_from_a_stdin_pipe() {
    let input = temp("pipe-in.f32");
    let archive = temp("pipe.szhi");
    let output = temp("pipe-out.f32");
    let f = field();
    std::fs::write(&input, to_bytes(f.as_slice())).unwrap();
    assert_ok(
        &run(&[
            "encode",
            input.to_str().unwrap(),
            archive.to_str().unwrap(),
            "--dims",
            "24,20,32",
            "--eb",
            "2e-3",
            "--chunk-span",
            "16,16,16",
            "--tune-interp",
        ]),
        "encode",
    );
    let bytes = std::fs::read(&archive).unwrap();
    assert_eq!(stream_version(&bytes).unwrap(), 5, "tuned container");

    let mut child = bin()
        .args(["decode", "-", output.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    use std::io::Write as _;
    child.stdin.take().unwrap().write_all(&bytes).unwrap();
    let out = child.wait_with_output().unwrap();
    assert_ok(&out, "decode from stdin");

    let decoded = to_f32(&std::fs::read(&output).unwrap());
    assert_eq!(decoded, decompress(&bytes).unwrap().as_slice());

    for p in [&input, &archive, &output] {
        std::fs::remove_file(p).unwrap();
    }
}

/// `--chunk i` extracts one chunk via random access, matching the
/// library's `decompress_chunk`.
#[test]
fn decode_single_chunk_matches_random_access() {
    let input = temp("chunk-in.f32");
    let archive = temp("chunk.szhi");
    let output = temp("chunk-out.f32");
    let f = field();
    std::fs::write(&input, to_bytes(f.as_slice())).unwrap();
    assert_ok(
        &run(&[
            "encode",
            input.to_str().unwrap(),
            archive.to_str().unwrap(),
            "--dims",
            "24,20,32",
            "--eb",
            "2e-3",
            "--chunk-span",
            "16,16,16",
        ]),
        "encode",
    );
    let bytes = std::fs::read(&archive).unwrap();
    let (_, want) = szhi_core::decompress_chunk(&bytes, 3).unwrap();

    assert_ok(
        &run(&[
            "decode",
            archive.to_str().unwrap(),
            output.to_str().unwrap(),
            "--chunk",
            "3",
        ]),
        "decode --chunk",
    );
    assert_eq!(to_f32(&std::fs::read(&output).unwrap()), want.as_slice());

    // Out-of-range chunk indices are runtime errors, not panics.
    let out = run(&[
        "decode",
        archive.to_str().unwrap(),
        output.to_str().unwrap(),
        "--chunk",
        "99",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("out of range"));

    for p in [&input, &archive, &output] {
        std::fs::remove_file(p).unwrap();
    }
}

/// `--chunk I` off a stdin pipe decodes chunk `I` and no chunk before it,
/// so a corrupt earlier chunk fails neither input: the pipe writes the
/// bytes the file path writes. Covers a trailered (v4) stream and a
/// leading-table (v3) one.
#[test]
fn a_piped_chunk_decode_skips_a_corrupt_earlier_chunk() {
    let input = szhi_cli::golden::corpus_dir().join("field.f32");
    let v4 = temp("skip-v4.szhi");
    assert_ok(
        &run(&[
            "encode",
            input.to_str().unwrap(),
            v4.to_str().unwrap(),
            "--dims",
            "24,20,32",
            "--eb",
            "2e-3",
            "--chunk-span",
            "16,16,16",
            "--mode",
            "per-chunk",
        ]),
        "encode",
    );
    let v3 = szhi_cli::golden::pinned(3).unwrap();
    let archive = temp("skip-bad.szhi");
    let (file_out, pipe_out) = (temp("skip-file.f32"), temp("skip-pipe.f32"));
    for (mut bytes, want) in [(std::fs::read(&v4).unwrap(), "1"), (v3, "5")] {
        let (_, table) = szhi_core::format::read_chunk_table(&bytes).unwrap();
        let chunk0 = &table.entries[0];
        bytes[table.data_start + chunk0.offset + chunk0.len / 2] ^= 0x5a;
        std::fs::write(&archive, &bytes).unwrap();
        let archive_s = archive.to_str().unwrap();
        assert_ok(
            &run(&[
                "decode",
                archive_s,
                file_out.to_str().unwrap(),
                "--chunk",
                want,
            ]),
            "file decode --chunk",
        );
        let out = bin()
            .args(["decode", "-", pipe_out.to_str().unwrap(), "--chunk", want])
            .stdin(std::fs::File::open(&archive).unwrap())
            .output()
            .unwrap();
        assert_ok(&out, "stdin decode --chunk");
        assert_eq!(
            std::fs::read(&pipe_out).unwrap(),
            std::fs::read(&file_out).unwrap()
        );
    }
    for p in [&v4, &archive, &file_out, &pipe_out] {
        std::fs::remove_file(p).unwrap();
    }
}

/// Bad command lines exit 2 with the usage text; runtime failures exit 1
/// with the stable error prefix.
#[test]
fn exit_codes_and_stderr_shape() {
    for bad in [
        vec!["frobnicate"],
        vec!["encode", "in", "out"],
        vec!["encode", "in", "out", "--dims", "8,8,8", "--eb", "nope"],
        vec!["decode", "only-one"],
        vec!["inspect"],
        vec![],
    ] {
        let out = run(&bad);
        assert_eq!(out.status.code(), Some(2), "args {bad:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("szhi-cli: error:"), "args {bad:?}");
        assert!(stderr.contains("usage:"), "args {bad:?}");
    }

    // Missing input file: well-formed command, runtime failure.
    let out = run(&[
        "encode",
        "/nonexistent/input.f32",
        "/tmp/out.szhi",
        "--dims",
        "8,8,8",
        "--eb",
        "1e-3",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("szhi-cli: error:"));

    // Corrupt archive: typed decode error, not a panic.
    let garbage = temp("garbage.szhi");
    std::fs::write(&garbage, b"definitely not a szhi stream").unwrap();
    for sub in ["decode", "inspect"] {
        let mut args = vec![sub, garbage.to_str().unwrap()];
        if sub == "decode" {
            args.push("/tmp/never-written.f32");
        }
        let out = run(&args);
        assert_eq!(out.status.code(), Some(1), "{sub} on garbage");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("szhi-cli: error:"), "{sub}: {stderr}");
    }
    std::fs::remove_file(&garbage).unwrap();
}

/// Names in `path`'s directory that start with a dot and contain its file
/// name: the temporary siblings a file output is written under.
fn temp_siblings(path: &std::path::Path) -> Vec<String> {
    let name = path.file_name().unwrap().to_str().unwrap();
    std::fs::read_dir(path.parent().unwrap())
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with('.') && n.contains(name))
        .collect()
}

/// A rejected encode leaves the output path as it found it: absent when
/// it was absent, byte-identical when an archive was already there. (The
/// output used to be created, and an existing one truncated, before the
/// chunk span was checked.)
#[test]
fn a_rejected_encode_leaves_the_output_path_untouched() {
    let input = temp("reject-in.f32");
    let archive = temp("reject.szhi");
    std::fs::write(&input, to_bytes(field().as_slice())).unwrap();
    let encode = || {
        run(&[
            "encode",
            input.to_str().unwrap(),
            archive.to_str().unwrap(),
            "--dims",
            "24,20,32",
            "--eb",
            "2e-3",
            "--chunk-span",
            "10,10,10",
        ])
    };
    let out = encode();
    assert_eq!(out.status.code(), Some(1));
    assert!(!archive.exists(), "a rejected encode created the output");

    let previous = b"an archive from an earlier run".to_vec();
    std::fs::write(&archive, &previous).unwrap();
    let out = encode();
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(std::fs::read(&archive).unwrap(), previous);
    assert_eq!(temp_siblings(&archive), Vec::<String>::new());

    for p in [&input, &archive] {
        std::fs::remove_file(p).unwrap();
    }
}

/// A shape whose point count overflows `usize` reads as a tiny field (a
/// 0-byte input "matches" it). The encode must still fail with an error,
/// not abort on a huge allocation or write an archive its own reader
/// rejects, and leave no output or temporary file behind.
#[test]
fn an_encode_of_a_shape_past_the_point_cap_fails_and_leaves_no_file() {
    let input = temp("overflow-in.f32");
    let archive = temp("overflow.szhi");
    std::fs::write(&input, b"").unwrap();
    for dims in ["4294967296,4294967296,1", "1099511627776,1099511627776,1"] {
        for rel in [false, true] {
            let mut args = vec![
                "encode",
                input.to_str().unwrap(),
                archive.to_str().unwrap(),
                "--dims",
                dims,
                "--eb",
                "1e-3",
            ];
            if rel {
                args.push("--rel");
            }
            let out = run(&args);
            assert_eq!(out.status.code(), Some(1), "{dims} rel={rel}: {out:?}");
            assert!(!archive.exists(), "{dims} rel={rel} wrote an archive");
            assert_eq!(temp_siblings(&archive), Vec::<String>::new());
        }
    }
    std::fs::remove_file(&input).unwrap();
}

/// A decode that fails on a corrupt chunk leaves nothing at the output
/// path — not a full-size file whose later chunks are zeros — on both the
/// seekable and the stdin path, and for `--chunk`.
#[test]
fn a_failed_decode_leaves_no_output_file() {
    let input = temp("corrupt-in.f32");
    let archive = temp("corrupt.szhi");
    let output = temp("corrupt-out.f32");
    std::fs::write(&input, to_bytes(field().as_slice())).unwrap();
    assert_ok(
        &run(&[
            "encode",
            input.to_str().unwrap(),
            archive.to_str().unwrap(),
            "--dims",
            "24,20,32",
            "--eb",
            "2e-3",
            "--chunk-span",
            "16,16,16",
        ]),
        "encode",
    );
    let mut bytes = std::fs::read(&archive).unwrap();
    let (_, table) = szhi_core::format::read_chunk_table(&bytes).unwrap();
    let chunk5 = &table.entries[5];
    bytes[table.data_start + chunk5.offset + chunk5.len / 2] ^= 0x5a;
    std::fs::write(&archive, &bytes).unwrap();

    let (archive_s, output_s) = (archive.to_str().unwrap(), output.to_str().unwrap());
    let out = run(&["decode", archive_s, output_s]);
    assert_eq!(out.status.code(), Some(1));
    assert!(!output.exists(), "a failed decode left a file behind");
    let out = run(&["decode", archive_s, output_s, "--chunk", "5"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        !output.exists(),
        "a failed --chunk decode left a file behind"
    );

    let mut child = bin()
        .args(["decode", "-", output_s])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    use std::io::Write as _;
    child.stdin.take().unwrap().write_all(&bytes).unwrap();
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(!output.exists(), "a failed stdin decode left a file behind");
    assert_eq!(temp_siblings(&output), Vec::<String>::new());

    for p in [&input, &archive] {
        std::fs::remove_file(p).unwrap();
    }
}

/// A whole-field decode onto a path that is not a regular file cannot
/// size or read back its output, so it streams the field out in order,
/// from a file input and from stdin alike.
#[cfg(unix)]
#[test]
fn a_full_decode_to_dev_null_succeeds() {
    let input = temp("devnull-in.f32");
    let archive = temp("devnull.szhi");
    std::fs::write(&input, to_bytes(field().as_slice())).unwrap();
    let (input_s, archive_s) = (input.to_str().unwrap(), archive.to_str().unwrap());
    assert_ok(
        &run(&[
            "encode",
            input_s,
            archive_s,
            "--dims",
            "24,20,32",
            "--eb",
            "2e-3",
            "--chunk-span",
            "16,16,16",
        ]),
        "encode",
    );
    assert_ok(&run(&["decode", archive_s, "/dev/null"]), "file decode");
    let out = bin()
        .args(["decode", "-", "/dev/null"])
        .stdin(std::fs::File::open(&archive).unwrap())
        .output()
        .unwrap();
    assert_ok(&out, "stdin decode");
    for p in [&input, &archive] {
        std::fs::remove_file(p).unwrap();
    }
}

/// `encode … -` writes the archive to stdout so a shell pipeline can
/// feed it straight into `decode -`.
#[test]
fn encode_to_stdout_pipes_into_decode() {
    let input = temp("pipeline-in.f32");
    let f = field();
    std::fs::write(&input, to_bytes(f.as_slice())).unwrap();

    let out = run(&[
        "encode",
        input.to_str().unwrap(),
        "-",
        "--dims",
        "24,20,32",
        "--eb",
        "2e-3",
        "--chunk-span",
        "16,16,16",
    ]);
    assert_ok(&out, "encode to stdout");
    let archive = out.stdout;
    assert_eq!(stream_version(&archive).unwrap(), 4);

    let mut child = bin()
        .args(["decode", "-", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    use std::io::Write as _;
    child.stdin.take().unwrap().write_all(&archive).unwrap();
    let out = child.wait_with_output().unwrap();
    assert_ok(&out, "decode from stdin to stdout");
    assert_eq!(
        to_f32(&out.stdout),
        decompress(&archive).unwrap().as_slice()
    );

    std::fs::remove_file(&input).unwrap();
}

/// A 2-D field round-trips like a 3-D one: file → file, `--chunk`, and the
/// `encode … - | decode - -` pipeline all reproduce what the library's
/// batch engine and `decompress` produce, within the bound. (`encode` used
/// to hand the sink 1×ny×nx chunks where the 2-D plan expects ny×nx.)
#[test]
fn two_d_fields_roundtrip_through_files_chunks_and_pipes() {
    use szhi_core::{compress_chunked, decompress_chunk, ErrorBound, SzhiConfig};

    let input = temp("2d-in.f32");
    let archive = temp("2d.szhi");
    let output = temp("2d-out.f32");
    let f = szhi_datagen::DatasetKind::CesmAtm.generate(Dims::d2(64, 96), 3);
    std::fs::write(&input, to_bytes(f.as_slice())).unwrap();
    let encode = |to: &str| {
        run(&[
            "encode",
            input.to_str().unwrap(),
            to,
            "--dims",
            "64,96",
            "--eb",
            "1e-3",
            "--rel",
            "--chunk-span",
            "1,32,32",
        ])
    };
    assert_ok(&encode(archive.to_str().unwrap()), "encode 2-D");

    // The archive is exactly what the batch engine emits for the same
    // resolved configuration.
    let abs_eb = ErrorBound::Relative(1e-3).absolute(f.value_range() as f64);
    let cfg = SzhiConfig::new(ErrorBound::Absolute(abs_eb)).with_auto_tune(false);
    let bytes = std::fs::read(&archive).unwrap();
    assert_eq!(bytes, compress_chunked(&f, &cfg, [1, 32, 32]).unwrap());
    let restored = decompress(&bytes).unwrap();
    for (a, b) in f.as_slice().iter().zip(restored.as_slice()) {
        assert!(((*a as f64) - (*b as f64)).abs() <= abs_eb + 1e-12);
    }

    let decode = |args: &[&str]| {
        assert_ok(&run(args), "decode 2-D");
        to_f32(&std::fs::read(&output).unwrap())
    };
    let (archive_s, output_s) = (archive.to_str().unwrap(), output.to_str().unwrap());
    assert_eq!(
        decode(&["decode", archive_s, output_s]),
        restored.as_slice()
    );
    assert_eq!(
        decode(&["decode", archive_s, output_s, "--chunk", "4"]),
        decompress_chunk(&bytes, 4).unwrap().1.as_slice()
    );

    // The shell pipeline: archive on stdout, decoded off a stdin pipe.
    let piped = encode("-");
    assert_ok(&piped, "encode 2-D to stdout");
    assert_eq!(piped.stdout, bytes);
    let mut child = bin()
        .args(["decode", "-", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    use std::io::Write as _;
    child
        .stdin
        .take()
        .unwrap()
        .write_all(&piped.stdout)
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert_ok(&out, "decode 2-D from stdin to stdout");
    assert_eq!(to_f32(&out.stdout), restored.as_slice());

    for p in [&input, &archive, &output] {
        std::fs::remove_file(p).unwrap();
    }
}

/// A ragged 3-D field, read region by region into the sink's value plane,
/// encodes to exactly the batch engine's archive under the configuration
/// the CLI resolves (`commands::encode_config`): with per-chunk pipeline
/// selection, with per-chunk interpolation tuning (v5), and under a
/// relative bound.
#[test]
fn a_ragged_cli_encode_equals_the_batch_archive() {
    use szhi_cli::args::{parse, Command as Parsed};

    let input = temp("ragged-in.f32");
    let archive = temp("ragged.szhi");
    let f = szhi_datagen::DatasetKind::Rtm.generate(Dims::d3(37, 29, 45), 5);
    std::fs::write(&input, to_bytes(f.as_slice())).unwrap();
    let (input_s, archive_s) = (input.to_str().unwrap(), archive.to_str().unwrap());
    for options in [
        &["--mode", "per-chunk"][..],
        &["--mode", "estimated", "--tune-interp"],
        &["--rel"],
    ] {
        let mut args = vec![
            "encode",
            input_s,
            archive_s,
            "--dims",
            "37,29,45",
            "--eb",
            "1e-3",
            "--chunk-span",
            "16,16,32",
        ];
        args.extend_from_slice(options);
        assert_ok(&run(&args), "ragged encode");
        let argv: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        let Ok(Parsed::Encode(a)) = parse(&argv) else {
            panic!("{args:?} does not parse as an encode")
        };
        let cfg = szhi_cli::commands::encode_config(&a).unwrap();
        let expect = szhi_core::compress_chunked(&f, &cfg, a.chunk_span).unwrap();
        assert!(std::fs::read(&archive).unwrap() == expect, "{options:?}");
    }
    for p in [&input, &archive] {
        std::fs::remove_file(p).unwrap();
    }
}

/// A field in 64³ chunks, one of them ragged, whose stride-1 levels
/// spread their planes over the pool: `--threads 1`, 2 and 4 write the same
/// archive, and decodes under `SZHI_NUM_THREADS` 1 and 4 write the same
/// field.
#[test]
fn large_chunks_encode_and_decode_alike_at_every_thread_count() {
    let input = temp("threads-in.f32");
    let f = szhi_datagen::DatasetKind::Rtm.generate(Dims::d3(108, 64, 64), 9);
    std::fs::write(&input, to_bytes(f.as_slice())).unwrap();
    let input_s = input.to_str().unwrap();
    let mut archives = Vec::new();
    for threads in ["1", "2", "4"] {
        let archive = temp(&format!("threads-{threads}.szhi"));
        let args = [
            "encode",
            input_s,
            archive.to_str().unwrap(),
            "--dims",
            "108,64,64",
            "--eb",
            "1e-3",
            "--rel",
            "--chunk-span",
            "64,64,64",
            "--threads",
            threads,
        ];
        assert_ok(&run(&args), "encode");
        archives.push(std::fs::read(&archive).unwrap());
        std::fs::remove_file(archive).unwrap();
    }
    assert!(
        archives[1] == archives[0],
        "--threads 2 wrote another archive"
    );
    assert!(
        archives[2] == archives[0],
        "--threads 4 wrote another archive"
    );
    let archive = temp("threads.szhi");
    std::fs::write(&archive, &archives[0]).unwrap();
    let mut decoded = Vec::new();
    for threads in ["1", "4"] {
        let out = temp(&format!("threads-{threads}.f32"));
        let status = bin()
            .args(["decode", archive.to_str().unwrap(), out.to_str().unwrap()])
            .env("SZHI_NUM_THREADS", threads)
            .output()
            .expect("cannot run szhi-cli");
        assert_ok(&status, "decode");
        decoded.push(std::fs::read(&out).unwrap());
        std::fs::remove_file(out).unwrap();
    }
    assert!(
        decoded[1] == decoded[0],
        "decodes differ between 1 and 4 threads"
    );
    let expect = decompress(&archives[0]).unwrap();
    assert!(decoded[0] == to_bytes(expect.as_slice()));
    for p in [&input, &archive] {
        std::fs::remove_file(p).unwrap();
    }
}

/// A reader that closes stdout early (`szhi-cli inspect … | head -1`) ends
/// the run quietly with exit code 0 — it used to panic inside `println!`
/// (exit 101, a backtrace on stderr).
#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/v5.szhi");
    let mut child = bin()
        .args(["inspect", golden])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // Close the read end before the child has anything to report: its
    // first write to stdout fails with EPIPE.
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
}

/// The three global telemetry flags on a real encode + decode: the stats
/// summary lands on stderr, the JSON dump and the trace land on disk with
/// the per-chunk stage spans, pool counters and tuner records the
/// observability contract promises — and the archive is byte-identical
/// to one produced with telemetry off.
#[test]
fn telemetry_flags_emit_stats_json_and_trace() {
    let input = temp("tel-in.f32");
    let quiet = temp("tel-quiet.szhi");
    let archive = temp("tel.szhi");
    let output = temp("tel-out.f32");
    let stats_json = temp("tel-stats.json");
    let trace = temp("tel-trace.json");
    std::fs::write(&input, to_bytes(field().as_slice())).unwrap();

    let base = [
        "encode",
        input.to_str().unwrap(),
        quiet.to_str().unwrap(),
        "--dims",
        "24,20,32",
        "--eb",
        "2e-3",
        "--chunk-span",
        "16,16,16",
        "--mode",
        "estimated",
    ];
    assert_ok(&run(&base), "plain encode");

    let mut instrumented = base.to_vec();
    instrumented[2] = archive.to_str().unwrap();
    instrumented.extend([
        "--stats",
        "--stats-json",
        stats_json.to_str().unwrap(),
        "--trace",
        trace.to_str().unwrap(),
    ]);
    let out = run(&instrumented);
    assert_ok(&out, "instrumented encode");
    assert_eq!(
        std::fs::read(&quiet).unwrap(),
        std::fs::read(&archive).unwrap(),
        "telemetry must not change the emitted bytes"
    );

    // The human summary goes to stderr, after the subcommand's output.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("telemetry stats:"));
    assert!(stderr.contains("io.sink.bytes"));
    assert!(stderr.contains("encode.chunk"));

    // The JSON dump carries the per-chunk stage spans and the tuner
    // estimated-vs-actual histograms. (No pool counters: the CLI pushes one
    // chunk at a time and a chunk never leaves its thread.)
    let json = std::fs::read_to_string(&stats_json).unwrap();
    for name in [
        "encode.chunk",
        "encode.predict",
        "encode.entropy",
        "encode.crc",
        "tuner.estimated_bytes",
        "tuner.actual_bytes",
        "tuner.trials",
    ] {
        assert!(json.contains(name), "stats JSON is missing {name}");
    }

    // The trace is Trace Event Format: an event array with complete
    // spans and tuner selection instants.
    let trace_text = std::fs::read_to_string(&trace).unwrap();
    assert!(trace_text.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
    assert!(trace_text.contains("\"ph\":\"X\""));
    assert!(trace_text.contains("\"name\":\"encode.chunk\""));
    assert!(trace_text.contains("\"name\":\"tuner.select\""));

    // Decode with telemetry picks up the decode-side spans too.
    let out = run(&[
        "decode",
        archive.to_str().unwrap(),
        output.to_str().unwrap(),
        "--stats",
    ]);
    assert_ok(&out, "instrumented decode");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("decode.chunk"));
    assert!(stderr.contains("io.source.bytes"));

    for p in [&input, &quiet, &archive, &output, &stats_json, &trace] {
        std::fs::remove_file(p).unwrap();
    }
}
