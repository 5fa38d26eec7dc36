#!/usr/bin/env python3
"""Collect result sets and compare them against the benchmark's bounds.

    python3 perfbench/compare.py collect DIR [--seeds 1-10] [--trace 0]
    python3 perfbench/compare.py collect BASE --change CHECKOUT CHANGE   # interleaved pairs
    python3 perfbench/compare.py report DIR            # one set: medians and spread
    python3 perfbench/compare.py report BASE CHANGE    # two sets: the pairwise gate

``collect`` runs the command of ``BENCHMARK.json`` once per workload and
seed, for ``run_seconds`` -- the run length the bounds were set for --
writing each full result to DIR.  With ``--change`` it also runs the
benchmark of a second checkout into a second directory, seed by seed,
alternating which side runs first, so that both sides see the same host
conditions.  ``report`` groups results by
workload, prints each metric's median and quartiles (``statistics.quantiles``,
n=4) and its spread -- the interquartile distance as a share of the median.
Given two sets it adds the change of the median, the number of seeds on
which CHANGE beat BASE, and a verdict per workload and end-to-end metric:

* ``fail``       -- CHANGE is worse than BASE by more than the metric's bound;
* ``unresolved`` -- either side spreads wider than the bound, unless every
  CHANGE run is better than every BASE run;
* ``pass``       -- otherwise.

It exits 1 if any verdict is ``fail`` or any run reported a failed check.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(targets, seeds, trace: int) -> int:
    """Run each (checkout, result dir) target per workload and seed.

    With two targets the order alternates from seed to seed.
    """
    spec = load_spec()
    seconds = spec["run_seconds"]
    status = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for i, seed in enumerate(seeds):
            for root, out in (targets if i % 2 == 0 else targets[::-1]):
                cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                         "--seconds", str(seconds), "--trace", str(trace),
                                         "--out", os.path.abspath(out)]
                proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
                last = proc.stdout.strip().splitlines()[-1:] or ["(no output)"]
                print(f"{root}: {workload} seed {seed}: exit {proc.returncode} {last[0]}",
                      flush=True)
                status = status or proc.returncode
    return status


def load_set(path: str, trace: int) -> dict:
    """{workload: [result, ...]} for the result files in ``path``."""
    out: dict = {}
    for name in sorted(glob.glob(os.path.join(path, f"*-trace{trace}.json"))):
        with open(name) as fh:
            result = json.load(fh)
        out.setdefault(result["workload"], []).append(result)
    return out


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def verdict(base, change, better, bound):
    med_a, *_, spread_a = summary(base)
    med_b, *_, spread_b = summary(change)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (med_b - med_a) / med_a
    if worse > bound:
        return "fail"
    all_better = (max(change) < min(base)) if better == "lower" else (min(change) > max(base))
    if max(spread_a, spread_b) > bound and not all_better:
        return "unresolved"
    return "pass"


def wins(runs, name, better) -> str:
    """Seeds on which the change beat the base, over seeds run on both sides."""
    base = {r["seed"]: r["metrics"][name]["value"] for r in runs[0]}
    change = {r["seed"]: r["metrics"][name]["value"] for r in runs[1]}
    common = sorted(base.keys() & change.keys())
    sign = 1.0 if better == "lower" else -1.0
    return f"{sum(sign * (change[s] - base[s]) < 0 for s in common)}/{len(common)}"


def report(base_dir: str, change_dir: str | None, trace: int) -> int:
    spec = load_spec()
    metrics = spec["end_to_end"] if trace == 0 else spec["per_layer"]
    sets = [load_set(base_dir, trace)] + ([load_set(change_dir, trace)] if change_dir else [])
    status = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = [s.get(workload, []) for s in sets]
        if not all(runs):
            print(f"{workload}: missing from a result set")
            continue
        failed = [sum(r["failed"] for r in side) for side in runs]
        print(f"== {workload}: runs {[len(side) for side in runs]}, failed checks {failed}")
        status = status or int(any(failed))
        for m in metrics:
            name, bound = m["name"], m.get("bound")
            values = [[r["metrics"][name]["value"] for r in side] for side in runs]
            cells = []
            for vals in values:
                med, q1, q3, spread = summary(vals)
                cells.append(f"median {med:.6g} [{q1:.6g}, {q3:.6g}] spread {spread:.3f}")
            line = f"  {name:32s} " + " | ".join(cells)
            if bound is not None:
                line += f"  bound {bound}"
                if change_dir:
                    med_a, med_b = statistics.median(values[0]), statistics.median(values[1])
                    v = verdict(values[0], values[1], m["better"], bound)
                    line += (f"  change {(med_b - med_a) / med_a:+.3f}"
                             f" wins {wins(runs, name, m['better'])} {v}")
                    status = status or int(v == "fail")
                else:
                    spread = summary(values[0])[3]
                    line += "  ok" if spread < bound / 3 else (
                        "  noisy" if spread < bound else "  too noisy")
            print(line)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run the benchmark over seeds into a result set")
    c.add_argument("out")
    c.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    c.add_argument("--change", nargs=2, metavar=("CHECKOUT", "DIR"),
                   help="also run CHECKOUT's benchmark into DIR, interleaved")
    r = sub.add_parser("report", help="summarize one result set or compare two")
    r.add_argument("base")
    r.add_argument("change", nargs="?")
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.cmd == "collect":
        targets = [(ROOT, args.out)] + ([tuple(args.change)] if args.change else [])
        for _, out in targets:
            os.makedirs(out, exist_ok=True)
        return collect(targets, seed_range(args.seeds), args.trace)
    return report(args.base, args.change, args.trace)


if __name__ == "__main__":
    sys.exit(main())
