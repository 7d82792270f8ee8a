"""fracreg benchmark: one seeded, single-process, closed-loop workload run.

    python3 perfbench/run.py --workload long_horizon --seed 1 --seconds 36 --trace 0

One client runs the workload's tasks back to back (each starts when the
previous one ends) for `--seconds`, checks every task's outputs, and
prints as its last stdout line one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end metrics, their times scaled to a nominal host speed measured
by a reference kernel timed between the tasks (see hostspeed.py); with
`--trace 1` every task is run twice, bare and traced (alternating which
goes first), and the metrics are the per-layer metrics of the traced
copies.  A record with the environment, the input manifest, the measured
mix, the gate results and every metric (spans too, when traced) is
written to perfbench/out/.

The program is imported from src/ of the checkout this file sits in; the
run exits with status 2 before printing a result when it is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# Cap BLAS threads before numpy is first imported: the history sums are
# single dot products, and a second BLAS thread only adds contention.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(min(BLAS_THREADS, os.cpu_count() or 1))

import tracer  # noqa: E402  (stdlib only)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3
KERNEL_WARMUP_CALLS = 5
WORKLOADS = ("long_horizon", "design_sweep", "config_batch")
#: The end-to-end metrics every untraced run reports, with their units.
END_TO_END = {"norm_tasks_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha(root):
    """HEAD commit read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(np):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_sha": git_sha(ROOT),
        "platform": platform.platform(),
    }


def run_metrics(run, setup, host, traced):
    """End-to-end metrics (END_TO_END) plus the workload-specific ones the record keeps.

    `norm_tasks_per_s` and `setup_s` are scaled to the nominal host by
    the reference kernel's mean time in this run; the raw wall-clock
    figures stay in the record.
    """
    n = len(run.durations)
    busy = sum(run.durations)
    stats = run.stats
    plan_kinds = run.plan["manifest"]["kinds"]
    setup_raw = setup["import_s"] + statistics.median(setup["repeats_s"])
    metrics = {
        "setup_s": (setup_raw * host.scale(), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "tasks_per_s": (mix_rate(run.durations, run.kinds, plan_kinds), "1/s"),
        "task_p50_ms": (1e3 * statistics.median(run.durations), "ms"),
        "setup_raw_s": (setup_raw, "s"),
        "import_s": (setup["import_s"], "s"),
        "setup_repeats_s": (setup["repeats_s"], "s"),
        "ref_kernel_ms": (1e3 * statistics.fmean(host.samples), "ms"),
        "ref_kernel_calls": (len(host.samples), "count"),
        "busy_s": (busy, "s"),
        "failed_frac": (len(run.failures) / max(1, run.attempted), "ratio"),
    }
    if not traced:  # bare and traced copies take turns with no kernel between
        metrics["norm_tasks_per_s"] = (metrics["tasks_per_s"][0] / host.scale(), "1/s")
    # only where at least ten samples lie beyond the 90th percentile
    if n >= 100:
        metrics["task_p90_ms"] = (1e3 * percentile(run.durations, 90), "ms")
    if stats.get("steps"):
        metrics["sim_steps_per_s"] = (stats["steps"] / busy, "1/s")
    if stats.get("verdicts"):
        metrics["verdicts_per_s"] = (stats["verdicts"] / busy, "1/s")
    if "oracle_gap" in stats:
        metrics["oracle_gap"] = (stats["oracle_gap"], "abs")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def mix_rate(durations, kinds, plan_kinds):
    """Tasks per second at the plan's mix of task kinds.

    1 / (mean task time, each kind's mean weighted by its count in the
    plan), so a run that ends part-way through the task list is not
    faster or slower for the kinds it happened to reach.
    """
    by_kind = {}
    for d, kind in zip(durations, kinds):
        by_kind.setdefault(kind, []).append(d)
    weight = sum(plan_kinds[k] for k in by_kind)
    return weight / sum(plan_kinds[k] * statistics.fmean(v) for k, v in by_kind.items())


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(round(q / 100 * len(ordered))) - 1))]


class Run:
    """Timed loop over one workload's plan, with per-task checking."""

    def __init__(self, workload, plan, ref):
        self.workload, self.plan, self.ref = workload, plan, ref
        self.durations = []
        self.kinds = []
        self.failures = []
        self.stats = {}
        self.kind_stats = {}
        self.cli_stats = {"bytes_out": 0, "csv_rows": 0, "exit_mismatch": 0}
        self.attempted = 0

    def execute(self, task, api):
        """Run one task; returns (seconds, outcome or None)."""
        t0 = time.perf_counter()
        try:
            out = self.workload.run(task, api)
        except Exception as exc:  # a task that raises is a failed task, not a crashed run
            dt = time.perf_counter() - t0
            self._record(task, [f"unexpected {type(exc).__name__}: {exc}"], {})
            return dt, None
        return time.perf_counter() - t0, out

    def finish(self, task, out):
        """Check a task's outputs; returns its counts."""
        if out is None:
            return {}
        try:
            fails, stats = self.workload.check(task, out, self.ref)
        except Exception as exc:  # malformed output: a failed task
            fails, stats = [f"check raised {type(exc).__name__}: {exc}"], {}
        self._record(task, fails, stats)
        return stats

    def _record(self, task, fails, stats):
        self.attempted += 1
        for key, value in stats.items():
            if key == "method":
                key, value = "method_" + value.replace("-", "_"), 1
            if key == "oracle_gap":
                self.stats[key] = max(self.stats.get(key, 0.0), value)
            else:
                self.stats[key] = self.stats.get(key, 0) + value
        self.kind_stats[task["kind"]] = self.kind_stats.get(task["kind"], 0) + 1
        if fails:
            self.failures.append({"task": task["id"], "kind": task["kind"], "failures": fails})

    def mix(self):
        """Measured shares of the properties a later claim may depend on."""
        stats = self.stats
        verdicts = stats.get("verdicts", 0)
        sims = {k: stats.get("sims_" + k, 0) for k in ("full", "windowed", "gl_free")}
        n_sims = sum(sims.values())
        return {
            "tasks": self.kind_stats,
            "verdicts": verdicts,
            "newton_grid_share_of_verdicts": stats.get("method_newton_grid", 0) / max(1, verdicts),
            "commensurate_share_of_verdicts": stats.get("method_commensurate", 0) / max(1, verdicts),
            "simulations": n_sims,
            "diverged_share_of_simulations": stats.get("diverged", 0) / max(1, n_sims),
            "full_memory_share_of_simulations": sims["full"] / max(1, n_sims),
            "windowed_share_of_simulations": sims["windowed"] / max(1, n_sims),
            "gl_free_pi_share_of_simulations": sims["gl_free"] / max(1, n_sims),
        }


def timed_loop(run, seconds, api, host):
    """Tasks back to back until `seconds` have passed (at least one task).

    A burst of the reference kernel follows each task.
    """
    tasks = run.plan["tasks"]
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        task = tasks[i % len(tasks)]
        dt, out = run.execute(task, api)
        run.durations.append(dt)
        run.kinds.append(task["kind"])
        run.finish(task, out)
        host.burst(dt)
        i += 1
    return time.perf_counter() - start


def traced_loop(run, seconds, layers, trace):
    """Each task bare and traced, alternating which goes first.

    Per-layer data come from the traced copies; the returned overhead is
    their summed wall time minus that of the bare copies.
    """
    tasks = run.plan["tasks"]
    bare = traced = 0.0
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        task = tasks[i % len(tasks)]
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                trace.task = i
                with layers.patched(trace) as api, trace.span("task", kind=task["kind"]) as rec:
                    _, out = run.execute(task, api)
                dt = rec[tracer.END] - rec[tracer.START]
                traced += dt
                for key, value in run.finish(task, out).items():
                    if key in run.cli_stats:
                        run.cli_stats[key] += value
            else:
                dt, out = run.execute(task, layers.RAW)
                bare += dt
                run.finish(task, out)
            run.durations.append(dt)
            run.kinds.append(task["kind"])
        i += 1
    return traced - bare


def main(argv=None):
    args = parse_args(argv)
    t0 = time.perf_counter()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import numpy as np

        import fracreg
    except ImportError as exc:
        print(f"cannot import the program from {src}: {exc}", file=sys.stderr)
        return 2
    if not Path(fracreg.__file__).resolve().is_relative_to(src.resolve()):
        print(f"fracreg was imported from {fracreg.__file__}, not from {src}", file=sys.stderr)
        return 2
    import gate
    import hostspeed
    import layers
    import workloads
    import_s = time.perf_counter() - t0
    host = hostspeed.HostSpeed()
    for _ in range(KERNEL_WARMUP_CALLS):
        hostspeed.kernel()

    ref = gate.load_reference()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        workload = workloads.make(args.workload, workdir)
        setups, warmup_failures = [], []
        for _ in range(SETUP_REPEATS):
            s0 = time.perf_counter()
            plan = workload.generate(args.seed)
            warm = Run(workload, plan, ref)
            task = workload.warmup(plan)
            _, out = warm.execute(task, layers.RAW)
            setups.append(time.perf_counter() - s0)
            warm.finish(task, out)
            warmup_failures += warm.failures
            host.burst(setups[-1], min_calls=KERNEL_WARMUP_CALLS)
        setup = {"import_s": import_s, "repeats_s": setups}

        run = Run(workload, plan, ref)
        if args.trace:
            trace = tracer.Tracer()
            overhead_s = traced_loop(run, args.seconds, layers, trace)
        else:
            window_s = timed_loop(run, args.seconds, layers.RAW, host)

        gates = gate.check_fingerprint(gate.fingerprint(ref), ref)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = run_metrics(run, setup, host, args.trace)
    mix = run.mix()
    if args.trace:
        layer = layers.layer_metrics(trace.spans, run.cli_stats, overhead_s)
        metrics.update(layer)
        result_metrics = layer
    else:
        metrics["wall_s"] = {"value": window_s, "unit": "s"}
        result_metrics = {name: metrics[name] for name in END_TO_END}
    correct = not run.failures and not warmup_failures and all(ok for _, ok, _ in gates)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(np),
        "manifest": plan["manifest"], "mix": mix,
        "gate": [{"check": name, "ok": ok, "detail": detail} for name, ok, detail in gates],
        "failures": (warmup_failures + run.failures)[:50],
        "metrics": metrics,
        "task_durations_s": run.durations,
        "ref_kernel_s": host.samples,
    }
    if args.trace:
        record["spans"] = trace.spans
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    for name, ok, detail in gates:
        print(f"gate {name}: {'ok' if ok else 'FAILED'} ({detail})")
    for item in (warmup_failures + run.failures)[:10]:
        print(f"task {item['task']} ({item['kind']}) failed: {'; '.join(item['failures'])}")
    print(f"{args.workload}: {run.attempted} tasks, mix {json.dumps(mix)}; record {out_path}")
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
