//! Smoke test of the whole benchmark: `run.sh --quick` twice with one seed.
//!
//! `suite.py` (behind `run.sh`) already fails when a metric declared in
//! BENCHMARK.json is missing for a workload, when an emitted name is
//! undeclared or malformed, or when any operation failed; `compare.py
//! --counts-only` fails when a value that must repeat exactly — the ratio,
//! the PSNR, the archive CRC, every byte and share count — differs between
//! the two runs. This test drives both and checks the files they leave.

use std::path::Path;
use std::process::Command;

fn succeeds(cmd: &mut Command) {
    let status = cmd.status().expect("the command starts");
    assert!(status.success(), "{cmd:?} exited with {status}");
}

#[test]
fn quick_suite_emits_every_declared_metric_and_repeats_exactly() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let runs = [out.join("quick-a"), out.join("quick-b")];
    for dir in &runs {
        succeeds(
            Command::new("bash")
                .arg(here.join("run.sh"))
                .args(["--quick", "--seed", "7", "--out"])
                .arg(dir),
        );
        // Both files parse as JSON, the trace is not empty, all four
        // workloads reported, and no operation failed.
        succeeds(
            Command::new("python3")
                .arg("-c")
                .arg(
                    "import json, sys\n\
             workloads = json.load(open(sys.argv[1] + '/results.json'))['workloads']\n\
             assert len(workloads) == 4\n\
             assert all(w['metrics']['failed_share']['value'] == 0 for w in workloads.values())\n\
             assert json.load(open(sys.argv[1] + '/trace.json'))['traceEvents']",
                )
                .arg(dir),
        );
    }
    succeeds(
        Command::new("python3")
            .arg(here.join("compare.py"))
            .arg("--counts-only")
            .arg(runs[0].join("results.json"))
            .arg(runs[1].join("results.json")),
    );
}
