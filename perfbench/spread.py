#!/usr/bin/env python3
"""Run one workload on several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload NAME --seeds 201-210 --seconds 30 [--trace 0|1]

Runs ``perfbench/run.py`` once per seed, one after another, and prints per
metric the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the quartile spread as a share of the median, next to the metric's bound in
``BENCHMARK.json``.  The last line is the same summary as JSON, in the form
``trajectory.json`` keeps per workload.  Exits 1 if a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True, help="FIRST-LAST")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bounds = {m["name"]: m.get("bound") for m in json.load(fh)["end_to_end"]}

    values = {}
    for seed in args.seeds:
        out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                              "--workload", args.workload, "--seed", str(seed),
                              "--seconds", str(args.seconds), "--trace", str(args.trace)],
                             cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            sys.stderr.write(out.stdout + out.stderr)
            sys.stderr.write(f"spread: seed {seed} failed (exit {out.returncode})\n")
            return 1
        result = json.loads(out.stdout.splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, ([], m["unit"]))[0].append(m["value"])

    summary = {}
    for name, (vals, unit) in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        share = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        limit = f"bound {bound}" if bound is not None else "no bound"
        print(f"{name:40s} median {med:12.6g} {unit:6s} q1 {q1:12.6g} q3 {q3:12.6g} "
              f"spread {share:.3f} ({limit})")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "unit": unit, "runs": len(vals)}
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
