#!/usr/bin/env python3
"""Layered benchmark for kinloc.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/workloads.py): sweep_velocity_default,
sweep_accel_wide, estimate_stream.

Each call sets up SETUP_SAMPLES fresh worker processes (start to ``kinloc``
imported, inputs written, warm-up done) and reports the median of their CPU
time to that point as ``setup_s``; the last of those workers then runs the
workload for S seconds.  Gated times are CPU times divided by the host's
slowness, measured by a fixed reference loop run around them (see
worker.py), because on a shared VM wall time carries the hypervisor's steal
and CPU time the other guests' load; the raw times are printed beside them.
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run and the tracing overhead.  Every output is
checked; a failed check prints ``"correct": false`` and exits 1.  The last
line of standard output is the JSON result; the lines before it name every
metric with its unit and record the machine and the build.  Outputs and
spans go to ``.perfbench/<workload>-<seed>/`` in the checkout.
"""

import argparse
import glob
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep_velocity_default", "sweep_accel_wide", "estimate_stream")
SETUP_SAMPLES = 5
# one numeric thread per worker: the workloads set their own thread count
WORKER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# kill a worker that outlives the run length by this much
GRACE_SECONDS = 60.0


class BenchError(Exception):
    pass


def check_checkout(workload):
    required = [os.path.join("src", "kinloc", "__init__.py")]
    if workload == "sweep_velocity_default":
        required.append(os.path.join("tests", "data", "golden_velocity_sweep.csv"))
    missing = [p for p in required if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        raise BenchError(f"not a kinloc checkout, missing: {', '.join(missing)}")


def start_worker(args, workdir, setup_only):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            env=dict(os.environ, **WORKER_ENV))
    timer = threading.Timer(args.seconds + GRACE_SECONDS, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    word, _, cpu = ready.partition(" ")
    lines = rest.splitlines()
    if word != "READY" or proc.returncode != 0 or not lines or not lines[0].startswith("SLOWNESS "):
        raise BenchError(f"worker failed (exit {proc.returncode}) for {args.workload}")
    return float(cpu) / float(lines[0].split()[1]), setup, lines[-1]


def build_record():
    """Machine and build facts stored with every result."""
    import numpy

    src = sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True))
    digest = hashlib.sha256()
    lines = 0
    for path in src:
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(os.path.relpath(path, ROOT).encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
        commit = out.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "src_lines": lines,
        "src_sha256": digest.hexdigest(),
        "git_commit": commit,
    }


def run(args):
    check_checkout(args.workload)
    workdir = os.path.join(ROOT, ".perfbench", f"{args.workload}-{args.seed}")
    os.makedirs(workdir, exist_ok=True)
    probes = 0 if args.trace else SETUP_SAMPLES - 1
    setups = [start_worker(args, workdir, True)[:2] for _ in range(probes)]
    setup_cpu, setup_wall, out = start_worker(args, workdir, False)
    setups.append((setup_cpu, setup_wall))
    result = json.loads(out)

    metrics = {}
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(c for c, _ in setups), "unit": "s"}
        result["info"]["setup_wall_s"] = (statistics.median(w for _, w in setups), "s")
    for name, (value, unit) in result["metrics"].items():
        metrics[name] = {"value": value, "unit": unit}
    record = dict(build_record(), workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, walls=result["walls"],
                  cpus=result["cpus"], slowness=result["slowness"],
                  setup_samples=setups, failures=result["failures"],
                  info=result.get("info", {}))
    if "spans_file" in result:
        record["spans_file"] = result["spans_file"]

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for name, (value, unit) in result.get("info", {}).items():
        print(f"{name} = {value:.6g} {unit} (not gated)")
    print(f"failed_fraction = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']})")
    for failure in result["failures"]:
        print(f"CHECK FAILED: {failure}")
    print("record " + json.dumps(record, sort_keys=True))
    with open(os.path.join(workdir, f"result-trace{args.trace}.json"), "w") as fh:
        json.dump({"metrics": metrics, "record": record}, fh, indent=1, sort_keys=True)

    correct = not result["failures"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        return run(args)
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
