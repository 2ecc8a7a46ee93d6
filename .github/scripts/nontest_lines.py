#!/usr/bin/env python3
"""Prints the workspace's non-test line count, per crate and in total.

    nontest_lines.py [--files]

A file's non-test lines are the lines before its first top-level
`#[cfg(test)]` (one at column 0), or all its lines when it has none.
The count covers every `.rs` file under `crates/*/src`. `--files` also
lists each file's count, largest first. The script prints and never
fails: it is a measure, not a gate.
"""
import os
import sys

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))


def nontest_lines(path):
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("#[cfg(test)]"):
            return i
    return len(lines)


def main():
    crates_dir = os.path.join(ROOT, "crates")
    per_crate, per_file = {}, []
    for crate in sorted(os.listdir(crates_dir)):
        src = os.path.join(crates_dir, crate, "src")
        if not os.path.isdir(src):
            continue
        total = 0
        for dirpath, dirnames, filenames in os.walk(src):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".rs"):
                    path = os.path.join(dirpath, name)
                    n = nontest_lines(path)
                    total += n
                    per_file.append((n, os.path.relpath(path, ROOT)))
        per_crate[crate] = total
    for crate, n in per_crate.items():
        print(f"{crate:<12} {n:>7}")
    print(f"{'total':<12} {sum(per_crate.values()):>7}")
    if "--files" in sys.argv[1:]:
        print()
        for n, path in sorted(per_file, key=lambda e: (-e[0], e[1])):
            print(f"{n:>7}  {path}")


if __name__ == "__main__":
    main()
