#!/usr/bin/env python3
"""Holds a bench target's exact gauges against its committed trajectory.

    gauge_gate.py <target> <at-most|equal> [<name-prefix>]

Compares every gauge in the committed BENCH_<target>.json (repository
root) with the same-named gauge in $MDQ_BENCH_DIR/BENCH_<target>.json
(what `cargo bench -p mdq-bench --bench <target>` just wrote). Gauges
are deterministic counts, never wall time, so the comparison is exact:
`at-most` fails when a measured value rose above the committed one (an
effort counter), `equal` when it differs at all (a forwarded-call
count). With a name prefix only the gauges whose names start with it
are held; a target's other gauges (wall-time ratios) stay free.
"""
import json
import os
import sys


def gauges(path):
    with open(path) as f:
        return {g["name"]: g["value"] for g in json.load(f)["gauges"]}


def main():
    target, mode, *prefix = sys.argv[1:]
    prefix = prefix[0] if prefix else ""
    ok = {"at-most": lambda measured, committed: measured <= committed,
          "equal": lambda measured, committed: measured == committed}[mode]
    name = f"BENCH_{target}.json"
    committed = {n: v for n, v in gauges(name).items() if n.startswith(prefix)}
    measured = gauges(os.path.join(os.environ["MDQ_BENCH_DIR"], name))
    assert committed, f"{name} carries no gauges named {prefix}*"
    bad = {n: (v, measured.get(n)) for n, v in committed.items()
           if n not in measured or not ok(measured[n], v)}
    assert not bad, f"{target} gauges not {mode} (committed, measured): {bad}"
    print(f"{target} OK: {len(committed)} gauges {mode} the committed values")


if __name__ == "__main__":
    main()
