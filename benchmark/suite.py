#!/usr/bin/env python3
"""The whole benchmark in one go: every workload of BENCHMARK.json, untraced
then traced, each run in its own child process.

Called by run.sh, which builds the two binaries first:

    suite.py --bin szhi-benchmark --cli szhi-cli [--seed N] [--out DIR] [--quick]

Prints one line per workload and metric, writes DIR/results.json (with a
header describing the machine) and DIR/trace.json (Chrome Trace Event
Format), and exits non-zero if a correctness check failed, a run died, or a
metric declared in BENCHMARK.json was not emitted (or one emitted was not
declared).
"""

import argparse
import datetime
import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE, check=True)
        return out.stdout.strip().splitlines()[0]
    except (OSError, subprocess.CalledProcessError, IndexError):
        return "unknown"


def source_sha256():
    """One hash over the sources the numbers depend on, so that compare.py
    can tell two runs of the same code from a before and an after, with or
    without git and whether or not the change is committed."""
    root = HERE.parent
    digest = hashlib.sha256()
    files = [root / name for name in ("BENCHMARK.json", "Cargo.toml", "Cargo.lock")]
    for top in ("src", "crates", "vendor", "benchmark"):
        for f in sorted((root / top).rglob("*")):
            built = {"target", "out", "baseline", "__pycache__"} & set(f.relative_to(root).parts)
            if f.is_file() and f.suffix in (".rs", ".toml", ".lock", ".py", ".sh") and not built:
                files.append(f)
    for f in files:
        digest.update(str(f.relative_to(root)).encode() + b"\0" + f.read_bytes() + b"\0")
    return digest.hexdigest()


def machine():
    """What the numbers were measured on; timings mean nothing without it."""
    cpu = "unknown"
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    base = pathlib.Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return {
        "git_commit": first_line(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_sha256(),
        "rustc": first_line(["rustc", "-V"]),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "caches": caches,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def run_one(args, spec, workload, trace, out):
    """One child run; returns its report, or None after saying what went wrong."""
    report = out / f"report-{workload}-{trace}.json"
    cmd = [
        args.bin, "--cli", args.cli, "--work", str(out / "work"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", "1" if args.quick else str(spec["run_seconds"]),
        "--trace", str(trace), "--report", str(report),
        "--trace-out", str(out / f"trace-{workload}.json"),
    ]  # fmt: skip
    if args.quick:
        cmd.append("--quick")
    child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = child.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    sys.stdout.flush()
    if child.returncode != 0 or not lines:
        print(f"suite: {workload} --trace {trace} exited with {child.returncode}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    ok = True
    for name in sorted(set(want) | set(got)):
        if not NAME.match(name):
            print(f"suite: {workload}: bad metric name {name!r}", file=sys.stderr)
        elif name not in got:
            print(f"suite: {workload}: declared metric {name} was not emitted", file=sys.stderr)
        elif name not in want:
            print(f"suite: {workload}: emitted metric {name} is not declared", file=sys.stderr)
        elif want[name] != got[name]:
            print(f"suite: {workload}: {name} is in {got[name]}, declared {want[name]}", file=sys.stderr)
        else:
            continue
        ok = False
    if not result["correct"]:
        print(f"suite: {workload} --trace {trace}: {result['failed']} of "
              f"{result['attempted']} operations failed", file=sys.stderr)  # fmt: skip
        ok = False
    return json.loads(report.read_text()) if ok else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--bin", required=True, help="the szhi-benchmark binary")
    parser.add_argument("--cli", required=True, help="the szhi-cli binary")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", default=str(HERE / "out"))
    parser.add_argument("--quick", action="store_true",
                        help="32-64-point fields, 3 repetitions: a smoke test, not a measurement")  # fmt: skip
    args = parser.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    results = {
        "header": dict(machine(), seed=args.seed, quick=args.quick,
                       run_seconds=spec["run_seconds"]),  # fmt: skip
        "workloads": {},
    }
    events = []
    failed = False
    for pid, entry in enumerate(spec["workloads"], start=1):
        workload = entry["name"]
        plain = run_one(args, spec, workload, 0, out)
        traced = run_one(args, spec, workload, 1, out)
        if plain is None or traced is None:
            failed = True
            continue
        results["header"]["threads"] = plain["threads"]
        # Over both runs: the traced run's cross-checks are operations too.
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        plain["metrics"]["failed_share"]["value"] = failed / attempted
        results["workloads"][workload] = {
            "fields": plain["fields"],
            "archive_bytes": plain["archive_bytes"],
            "archive_crc32": plain["archive_crc32"],
            "attempted": attempted,
            "failed": failed,
            "metrics": plain["metrics"],
            "layers": traced["metrics"],
        }
        # One process track per workload in the trace viewer.
        events.append({"name": "process_name", "ph": "M", "pid": pid, "tid": 1,
                       "args": {"name": workload}})  # fmt: skip
        trace_file = out / f"trace-{workload}.json"
        for event in json.loads(trace_file.read_text())["traceEvents"]:
            event["pid"] = pid
            events.append(event)
        trace_file.unlink()
        for trace in (0, 1):
            (out / f"report-{workload}-{trace}.json").unlink()

    work = out / "work"
    if work.is_dir() and not any(work.iterdir()):
        work.rmdir()
    (out / "results.json").write_text(json.dumps(results, indent=1) + "\n")
    (out / "trace.json").write_text(json.dumps({"traceEvents": events}) + "\n")
    print(f"suite: wrote {out / 'results.json'} and {out / 'trace.json'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
