#!/usr/bin/env python3
"""Counts the non-test lines of the Rust sources under crates/ and vendor/.

A non-test line is a line of a `.rs` file outside any `tests/` directory
that comes before the file's `#[cfg(test)]` `mod tests` block (every line
of a file that has none). The script prints the count per file, per crate
and in total, so two checkouts can be compared line by line:

    python3 scripts/loc.py                # the checkout holding this script
    python3 scripts/loc.py path/to/repo   # another checkout
"""

import sys
from pathlib import Path

TOP_DIRS = ("crates", "vendor")


def non_test_lines(path):
    """Lines of `path` before its `#[cfg(test)] mod tests` block."""
    lines = path.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        if line.strip() == "#[cfg(test)]":
            following = lines[i + 1].strip() if i + 1 < len(lines) else ""
            if following.startswith("mod tests") or following.startswith("pub mod tests"):
                return i
    return len(lines)


def main(argv):
    if len(argv) > 2:
        sys.exit("usage: loc.py [REPO_ROOT]")
    root = Path(argv[1]) if len(argv) == 2 else Path(__file__).resolve().parent.parent
    per_crate = {}
    total = 0
    for top in TOP_DIRS:
        for path in sorted((root / top).rglob("*.rs")):
            rel = path.relative_to(root)
            if "tests" in rel.parts[:-1] or "target" in rel.parts:
                continue
            n = non_test_lines(path)
            print(f"{n:7d}  {rel.as_posix()}")
            crate = "/".join(rel.parts[:2])
            per_crate[crate] = per_crate.get(crate, 0) + n
            total += n
    print()
    for crate, n in sorted(per_crate.items()):
        print(f"{n:7d}  {crate}")
    print()
    print(f"{total:7d}  total (crates/ + vendor/)")


if __name__ == "__main__":
    main(sys.argv)
