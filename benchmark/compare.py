#!/usr/bin/env python3
"""Compare two results.json files of the szhi benchmark, metric by metric.

    compare.py [--counts-only] A/results.json B/results.json

One row per workload and metric: both values (a timing's value is the median
of its samples), how far B moved from A in the metric's good direction, the
bound, and a verdict:

    same        within the bound
    better      B beats A by more than the bound
    worse       B loses to A by more than the bound
    unresolved  moved by more than the bound, but a run's own spread (the
                distance between its quartiles over its median) is wider
                than the bound and the two runs' quartile ranges overlap:
                noise, not a result
    differs     a value that repeats exactly changed (archive_crc32, a byte
                count, a share): a failure between two runs of the same
                source (header `source_sha256`), seed and thread count,
                information once the source has changed

End-to-end metrics are gated: the exit code is 1 if any is worse or
unresolved. A timing's bound is the one BENCHMARK.json declares. The values
that repeat exactly for one seed are held tighter when both runs used the
same seed, where nothing but the code can move them (SAME_SEED below);
between seeds they move with the data and BENCHMARK.json's wider bound
applies. Layer metrics have no bound; they are listed so that a change can
be traced to its layer. With --counts-only nothing but the exact values of
one source tree (and any failed operation) is gated, which is all that two
--quick runs can be held to.
"""

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
# Units of values that repeat exactly for one source tree, seed and thread count.
EXACT_UNITS = {"count", "bytes", "share", "bits", "x", "dB"}
# Bounds between two runs of one seed: (kind, size), `rel` a share of A,
# `abs` in the metric's unit. A failed operation is never within a bound.
SAME_SEED = {
    "compression_ratio": ("rel", 0.001),
    "psnr_db": ("abs", 0.05),
    "failed_share": ("abs", 0.0),
}


def spread(m):
    return (m["q3"] - m["q1"]) / m["median"] if "median" in m else 0.0


def overlap(a, b):
    return "median" in a and "median" in b and a["q1"] <= b["q3"] and b["q1"] <= a["q3"]


def verdict(a, b, better, bound):
    """Move of b from a, positive when good, and what to call it. `bound` is
    None, or a (kind, size) pair as in SAME_SEED."""
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (b["value"] - a["value"])
    move = gain / abs(a["value"]) if a["value"] else gain
    if bound is None:
        return move, "-"
    kind, size = bound
    if abs(gain if kind == "abs" else move) <= size:
        return move, "same"
    if kind == "rel" and max(spread(a), spread(b)) > size and overlap(a, b):
        return move, "unresolved"
    return move, "better" if gain > 0 else "worse"


def main():
    counts_only = "--counts-only" in sys.argv
    paths = [p for p in sys.argv[1:] if p != "--counts-only"]
    if len(paths) != 2:
        sys.exit(__doc__)
    a, b = (json.loads(pathlib.Path(p).read_text()) for p in paths)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    gated = {m["name"]: m for m in spec["end_to_end"]}
    gated["failed_share"] = {"better": "lower"}
    layers = {m["name"]: m for m in spec["per_layer"]}
    ha, hb = a["header"], b["header"]
    same_input = all(ha[k] == hb[k] for k in ("seed", "quick", "threads"))
    same_source = ha.get("source_sha256") == hb.get("source_sha256") is not None
    if not same_input:
        print("note: the runs differ in seed, size or thread count; exact values move with the data")
    elif not same_source:
        print("note: the source changed between the runs; a changed exact value is reported, not gated")

    bad = 0
    print(f"{'workload':18} {'metric':34} {'A':>14} {'B':>14} {'move':>8} {'bound':>8}  verdict")
    for workload, wa in a["workloads"].items():
        wb = b["workloads"].get(workload)
        if wb is None:
            print(f"{workload}: missing from B")
            bad += 1
            continue
        crc_same = wa["archive_crc32"] == wb["archive_crc32"]
        print(f"{workload:18} {'archive_crc32':34} {wa['archive_crc32']:>14} "
              f"{wb['archive_crc32']:>14} {'':>8} {'':>8}  {'same' if crc_same else 'differs'}")  # fmt: skip
        bad += same_input and same_source and not crc_same
        for section, declared in (("metrics", gated), ("layers", layers)):
            for name, ma in wa[section].items():
                mb = wb[section].get(name)
                if mb is None:
                    print(f"{workload:18} {name:34} missing from B")
                    bad += 1
                    continue
                spec_m = declared.get(name, {})
                bound = None
                if name == "failed_share" or (same_input and name in SAME_SEED):
                    bound = SAME_SEED[name]
                elif "bound" in spec_m:
                    bound = ("rel", spec_m["bound"])
                move, word = verdict(ma, mb, spec_m.get("better", "higher"), bound)
                exact_changed = ma["unit"] in EXACT_UNITS and ma["value"] != mb["value"]
                if exact_changed and same_input and (same_source or bound is None):
                    word = "differs"
                shown = "" if bound is None else f"{bound[1]:g}" if bound[0] == "abs" else f"{bound[1]:.2%}"
                print(f"{workload:18} {name:34} {ma['value']:14.6g} {mb['value']:14.6g} "
                      f"{move:+8.2%} {shown:>8}  {word}")  # fmt: skip
                gate = section == "metrics" and (not counts_only or name == "failed_share")
                if word in ("worse", "unresolved") and gate:
                    bad += 1
                if word == "differs" and same_source:
                    bad += 1
    print("result:", "FAIL" if bad else "ok", f"({bad} gated rows off)" if bad else "")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
