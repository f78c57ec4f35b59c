"""Benchmark worker: set up one workload in a fresh process, run it for a
fixed time, check its outputs and print one JSON result line.

The worker prints ``READY <cpu seconds>`` once kinloc is imported, the inputs
are written and the warm-up is done: the CPU time the process has used so
far, and the moment the parent times set-up by.  It then prints
``SLOWNESS <ratio>``, the host's slowness measured by a reference loop right
after set-up.  With ``--setup-only`` it exits there.

Each invocation is timed by wall clock and by process CPU time (all
threads).  Without ``--trace`` every invocation is measured untraced, apart
from a probe on the workload's item function (``montecarlo.run_trial`` or
``estim.estimate_all``) that takes the CPU time of each item on its own
thread and, between items, runs the reference loop to sample the host's
slowness; the reference's time is taken out of the invocation's.  With
``--trace`` invocations alternate between untraced and traced; the traced
ones give the per-layer numbers, the difference in CPU time gives the
tracing overhead, and the spans are written to ``<workdir>/spans.npz`` at
the end.
"""

import argparse
import json
import os
import resource
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from spans import SpanTable, Tracer, layer_samples  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_INVOCATIONS = 3
REFERENCE_ITERATIONS = 150
# about the CPU seconds of one reference_rep() on the 2-vCPU VM of the baseline
REFERENCE_NOMINAL_S = 0.005
# program CPU seconds between two reference reps inside an invocation
SAMPLE_EVERY_S = 0.05
# reps around an item that give its slowness
LOCAL_REPS = 4
_REF_POINTS = np.random.default_rng(0).normal(size=(8, 2))
_REF_VALUES = np.random.default_rng(1).normal(size=8)


def _median(values):
    return float(np.median(values)) if len(values) else 0.0


def steal_ticks():
    """(steal, total) CPU ticks of the machine so far, or None where /proc/stat is absent."""
    try:
        with open("/proc/stat") as fh:
            ticks = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks[:8])


def reference_rep():
    """A fixed mix of interpreter work and small numpy calls, like kinloc's stages.

    It calls nothing in kinloc, so no change to the program moves its time;
    only the host's speed does.
    """
    acc = 0.0
    for i in range(REFERENCE_ITERATIONS):
        d = _REF_POINTS - _REF_POINTS[i % 8]
        r = np.hypot(d[:, 0], d[:, 1])
        w = 1.0 / (r + 1.0)
        a = d.T @ (d * w[:, None])
        acc += float(np.linalg.solve(a + np.eye(2), d.T @ (_REF_VALUES * w))[0])
        acc += sum(x * x for x in (1.0, 2.0, 3.0, float(i)))
    return acc


class HostSampler:
    """Runs reference_rep() between two items of an invocation, every
    SAMPLE_EVERY_S of program CPU time, and keeps the CPU and wall time of
    each rep.

    On a shared VM the CPU time of the same work moved by up to 45% between
    runs a minute apart, and within seconds inside a run, as other guests
    came and went.  An invocation's CPU time divided by the slowness of the
    reps run through it stays put.
    """

    def __init__(self, position=lambda: 0):
        self.position = position    # items done so far, recorded with each rep
        self.reset()

    def reset(self):
        self.cpu, self.wall, self.marks = [], [], []
        self._due = time.process_time() + SAMPLE_EVERY_S

    def __call__(self):
        if time.process_time() >= self._due:
            self._rep()
            self._due = time.process_time() + SAMPLE_EVERY_S

    def _rep(self):
        c0, w0 = time.thread_time(), time.perf_counter()
        reference_rep()
        self.cpu.append(time.thread_time() - c0)
        self.wall.append(time.perf_counter() - w0)
        self.marks.append(self.position())

    def sample(self, min_cpu):
        """Run reps until they have taken ``min_cpu`` CPU seconds, at least one."""
        while not self.cpu or sum(self.cpu) < min_cpu:
            self._rep()

    def slowness(self):
        """Mean CPU time of the reps so far, per nominal."""
        return float(np.mean(self.cpu)) / REFERENCE_NOMINAL_S

    def local_slowness(self, n):
        """Slowness around each of the first ``n`` items: the mean of the
        LOCAL_REPS reps nearest to the gap the item ran in."""
        cpu = np.asarray(self.cpu)
        after = np.searchsorted(np.asarray(self.marks), np.arange(n), side="right")
        half = LOCAL_REPS // 2
        lo = np.clip(after - half, 0, max(len(cpu) - LOCAL_REPS, 0))
        hi = np.minimum(lo + LOCAL_REPS, len(cpu))
        total = np.concatenate(([0.0], np.cumsum(cpu)))
        return (total[hi] - total[lo]) / (hi - lo) / REFERENCE_NOMINAL_S


def measure(workload, seconds, trace):
    tracer = Tracer()
    sampler = HostSampler()
    # per-item CPU time, on the thread that runs each item; untraced runs
    # sample the host's slowness between items
    probe = Tracer((workload.item,), clock=time.thread_time, after=None if trace else sampler)
    sampler.position = lambda: len(probe.spans)
    walls = {False: [], True: []}
    cpus = {False: [], True: []}
    chronology = []
    items = {False: 0, True: 0}
    item_cpus, slowness = [], []
    layers, counts, spans, written = {}, [], [], []
    ticks0 = steal_ticks()
    deadline = time.perf_counter() + seconds
    k = 0
    while k < MIN_INVOCATIONS or time.perf_counter() < deadline:
        traced = trace and k % 2 == 1
        active = tracer if traced else probe
        with active:
            sampler.reset()
            cpu0 = time.process_time()
            wall, n = workload.invoke(k)
            cpu = time.process_time() - cpu0 - sum(sampler.cpu)
            wall -= sum(sampler.wall)
        walls[traced].append(wall)
        cpus[traced].append(cpu)
        chronology.append(wall)
        items[traced] += n
        written.append(workload.collect(k))
        if traced:
            table = SpanTable(tracer.spans)
            samples, per_trial, trials = layer_samples(table, workload.threads)
            for name, values in samples.items():
                layers.setdefault(name, []).append(values)
            counts.append(dict(per_trial, spans=len(table) / trials))
            spans.append(table)
        elif not trace:
            sampler.sample(0.0)
            slowness.append(sampler.slowness())
            item_cpu = np.array([s[3] - s[2] for s in probe.spans])
            item_cpus.append(item_cpu / sampler.local_slowness(len(item_cpu)))
        k += 1
    ticks1 = steal_ticks()

    result = {"walls": chronology, "cpus": cpus[False], "slowness": slowness,
              "attempted": items[False] + items[True], "failed": workload.failed_items()}
    if not trace:
        latencies = np.concatenate(item_cpus) * 1e6
        per_invocation = items[False] / len(cpus[False])
        cpu_s = _median(np.array(cpus[False]) / np.array(slowness))
        result["metrics"] = {
            "cpu_s": (cpu_s, "s"),
            "items_per_cpu_s": (per_invocation / cpu_s, "1/s"),
            "item_p50_cpu_us": (float(np.percentile(latencies, 50)), "us"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        # printed, not gated: wall time on a shared VM carries the time the
        # hypervisor gives the vCPU to other guests (steal), which came and
        # went in bursts of minutes and moved run medians by up to 2x
        wall_s = _median(walls[False])
        result["info"] = {"wall_s": (wall_s, "s"),
                          "measured_cpu_s": (_median(cpus[False]), "s"),
                          "host_slowness": (_median(slowness), "ratio"),
                          "items_per_s": (per_invocation / wall_s, "1/s"),
                          "item_p90_cpu_us": (float(np.percentile(latencies, 90)), "us"),
                          "item_p99_cpu_us": (float(np.percentile(latencies, 99)), "us"),
                          "latency_samples": (int(latencies.size), "count")}
        if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
            result["info"]["steal_share"] = ((ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1]),
                                             "ratio")
        return result

    if any(c != counts[0] for c in counts):
        workload.failures.append(f"per-trial call counts differ between traced runs: {counts}")
    pooled = {name: np.concatenate(values) for name, values in layers.items()}

    def us(name):
        return (_median(pooled[name]) * 1e6, "us")

    metrics = {
        "montecarlo.run_trial.self_us": us("montecarlo.run_trial.self"),
        "montecarlo.sample_truth.us": us("montecarlo.sample_truth"),
        "model.synthesize_measurements.us": us("model.synthesize_measurements"),
        "montecarlo.parallel_efficiency": (_median(pooled["montecarlo.parallel_efficiency"]),
                                           "ratio"),
        "estim.estimate_position.us": us("estim.estimate_position"),
        "estim.estimate_velocity.ls.us": us("estim.estimate_velocity.ls"),
        "estim.estimate_velocity.wls.us": us("estim.estimate_velocity.wls"),
        "estim.estimate_acceleration.ls.us": us("estim.estimate_acceleration.ls"),
        "estim.estimate_acceleration.wls.us": us("estim.estimate_acceleration.wls"),
        "estim.estimate_all.us": us("estim.estimate_all"),
        "estim.self_us": us("estim.self"),
        "kernels.position_solve.us": us("_kernels.position_solve"),
        "kernels.system_rows.us": us("_kernels.system_rows"),
        "kernels.wls_solve2.us": us("_kernels.wls_solve2"),
        "kernels.system_rows.calls_per_trial": (counts[0]["_kernels.system_rows"], "count"),
        "kernels.wls_solve2.calls_per_trial": (counts[0]["_kernels.wls_solve2"], "count"),
        "montecarlo.rmse.us": us("montecarlo.rmse"),
        "cli.sweep_csv.us": us("cli.sweep_csv"),
        "svgplot.sweep_figure.us": us("svgplot.sweep_figure"),
        "cli.bytes_written": (_median(written), "bytes"),
        "trace.spans_per_trial": (counts[0]["spans"], "count"),
        "trace.overhead_share": (_median(cpus[True]) / _median(cpus[False]) - 1.0, "ratio"),
    }
    result["metrics"] = metrics
    spans_path = os.path.join(workload.workdir, "spans.npz")
    columns = {}
    for i, table in enumerate(spans):
        names, codes = np.unique(table.names.astype(str), return_inverse=True)
        columns.update({f"{i}.names": names, f"{i}.name": codes, f"{i}.start": table.start,
                        f"{i}.end": table.end, f"{i}.parent": table.parent,
                        f"{i}.trial": table.trial})
    np.savez(spans_path, **columns)
    result["spans_file"] = os.path.relpath(spans_path, os.getcwd())
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](ROOT, args.workdir, args.seed)
    workload.setup()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(f"READY {usage.ru_utime + usage.ru_stime!r}", flush=True)
    sampler = HostSampler()
    sampler.sample(0.1)
    print(f"SLOWNESS {sampler.slowness()!r}", flush=True)
    if args.setup_only:
        return 0
    result = measure(workload, args.seconds, bool(args.trace))
    workload.check()
    result["failures"] = workload.failures
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
