"""grounddesk benchmark: runs one workload through the real CLI stages, checks
the artifacts, and prints every metric by name and unit.

    python3 gdbench/run.py --workload pipeline_default --seed 0 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports grounddesk from the
checkout's src/ and writes only under .bench_work/ there, which it removes.
With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
traced and untraced iterations alternately and reports the per-layer
metrics.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import is_count, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
MIN_ITERATIONS = 3
# In a traced run iterations go untraced, traced, traced, untraced, so both
# kinds see both variants of a workload that alternates two.
TRACE_PATTERN = (False, True, True, False)
WORKER_TIMEOUT_S = 120
# One BLAS thread per worker: the machine has few cores, and a BLAS call that
# waits on a second, descheduled thread times the scheduler, not the program.
WORKER_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
# About the median time of worker.py's probe loop on the 2-core VM the
# benchmark was tuned on, in the quietest window seen there.  Every reported
# time leaves out the CPU's steal time and is scaled to that speed:
# (seconds - stolen_s) * REF_PROBE_S / probe_s.  On a shared host the speed
# a process gets swings by up to 1.6x over minutes, and the probe, timed in
# the same process between the step's stages, follows that swing.
REF_PROBE_S = 0.002
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("ap_descr", "AP"), ("label_recall", "fraction"))


class StepFailed(RuntimeError):
    pass


def _at_ref_speed(seconds: float, result: dict) -> float:
    return (seconds - result["stolen_s"]) * REF_PROBE_S / result["probe_s"]


def _worker(request: dict) -> tuple[dict, float]:
    """Run one step in a fresh process; returns its result and its wall time
    less the time its probe took."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), json.dumps(request)],
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, cwd=ROOT,
                          env=WORKER_ENV)
    elapsed = time.perf_counter() - t0
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise StepFailed(f"worker exited {proc.returncode} for {request['mode']} step")
    result = json.loads(lines[-1])
    return result, elapsed - result["probe_total_s"]


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Tally:
    """Operations attempted and failed: stage invocations plus output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {name}")

    def stages(self, codes: dict, expected) -> None:
        for stage in expected:
            self.check(f"stage {stage} exits 0", codes.get(stage) == 0)

    def same(self, name: str, values) -> None:
        self.check(name, len(set(values)) <= 1)


def _measure(workload, seed: int, seconds: float, trace: bool, work: str, tally: Tally):
    """Set up SETUP_REPEATS times, then iterate for `seconds`: at least
    MIN_ITERATIONS (one block of TRACE_PATTERN when traced), and no further
    iteration or block that would, at the median iteration time so far, end
    after `seconds`.

    Returns the set-up times and the result of every iteration that ran.
    """
    base = {"workload": workload.name, "seed": seed, "trace": False}
    setup_times = []
    tree = None
    for i in range(SETUP_REPEATS):
        out = os.path.join(work, f"setup{i}")
        result, elapsed = _worker({**base, "mode": "setup", "out": out, "iteration": 0})
        setup_times.append(_at_ref_speed(elapsed, result))
        tally.stages(result["codes"], workload.setup_stages)
        if workload.prebuilt:
            if tree:
                shutil.rmtree(tree, ignore_errors=True)
            tree = out

    iterations, elapsed = [], []
    step = len(TRACE_PATTERN) if trace else 1
    minimum = len(TRACE_PATTERN) if trace else MIN_ITERATIONS
    start = time.perf_counter()
    k = 0
    while True:
        t0 = time.perf_counter()
        traced = trace and TRACE_PATTERN[k % len(TRACE_PATTERN)]
        out = tree or os.path.join(work, f"run{k}")
        try:
            result, _ = _worker({**base, "mode": "run", "out": out, "iteration": k,
                                 "trace": traced})
        except (StepFailed, subprocess.TimeoutExpired) as exc:
            print(f"iteration {k}: {exc}")
            tally.check(f"iteration {k} completes", False)
            result = None
        if result is not None:
            result["wall_ref_s"] = _at_ref_speed(result["wall_s"], result)
            result["variant"] = k % len(workload.variants)
            result["traced"] = traced
            tally.stages(result["codes"], workload.stages)
            for name, ok in result.get("checks", {}).items():
                tally.check(f"{name} (iteration {k})", ok)
            iterations.append(result)
        if not workload.prebuilt:
            shutil.rmtree(out, ignore_errors=True)
        k += 1
        elapsed.append(time.perf_counter() - t0)
        if k >= minimum and k % step == 0:
            ahead = step * statistics.median(elapsed)
            if time.perf_counter() - start + ahead > seconds:
                return setup_times, iterations


def _check_repeats(workload, iterations, tally: Tally) -> None:
    """Iterations at one seed and variant must agree on every deterministic output."""
    done = [r for r in iterations if "checks" in r]
    if not done:
        tally.check("at least one iteration completes", False)
    for v, variant in enumerate(workload.variants):
        alike = [r for r in done if r["variant"] == v]
        tally.same(f"ap_descr repeats {variant}", [r["ap_descr"] for r in alike])
        tally.same(f"label_recall repeats {variant}", [r["label_recall"] for r in alike])
        traced = [r for r in alike if r["traced"]]
        if traced:
            tally.same(f"traced counts repeat {variant}",
                       [json.dumps({m: x for m, x in r["trace"].items() if is_count(m)},
                                   sort_keys=True) for r in traced])
    if not workload.prebuilt:
        tally.same("artifact tree identical across runs at one seed",
                   [r["tree_digest"] for r in done])


def _end_to_end(setup_times, iterations) -> dict:
    walls = [r["wall_ref_s"] for r in iterations]
    first = next((r for r in iterations if "checks" in r and r["variant"] == 0), {})
    return {
        "wall_s": statistics.median(walls) if walls else 0.0,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in iterations) if walls else 0.0,
        "ap_descr": first.get("ap_descr", 0.0),
        "label_recall": first.get("label_recall", 0.0),
    }


def _per_layer(traced, untraced) -> dict:
    """Counts from the first traced iteration, times as medians over all."""
    if not traced:
        return {}
    values = {}
    for name, _unit, _better in per_layer_metrics():
        if name.startswith("trace."):
            continue
        if is_count(name):
            values[name] = traced[0]["trace"][name]
        else:
            values[name] = statistics.median(r["trace"][name] for r in traced)
    untraced_wall = statistics.median(r["wall_ref_s"] for r in untraced) if untraced else 0.0
    values["trace.overhead_s"] = statistics.median(r["wall_ref_s"] for r in traced) - untraced_wall
    values["trace.coverage"] = statistics.median(r["top_level_s"] / r["wall_s"] for r in traced)
    return values


def run(workload, seed: int, seconds: float, trace: bool, work: str) -> dict:
    """One benchmark run; returns the result object the last line prints."""
    tally = Tally()
    setup_times, iterations = _measure(workload, seed, seconds, trace, work, tally)
    _check_repeats(workload, iterations, tally)
    untraced = [r for r in iterations if not r["traced"]]
    if untraced:
        for key, what in (("wall_ref_s", "at reference speed"), ("wall_s", "as measured")):
            walls = [r[key] for r in untraced]
            q1, q3 = _quartiles(walls)
            print(f"wall_s {what}: median {statistics.median(walls):.4f} s, quartiles "
                  f"{q1:.4f} .. {q3:.4f} s, n={len(walls)}")
        print(f"probe_s: median {statistics.median(r['probe_s'] for r in untraced):.6f} s, "
              f"reference {REF_PROBE_S} s; stolen_s: median "
              f"{statistics.median(r['stolen_s'] for r in untraced):.2f} s")
    if trace:
        values = _per_layer([r for r in iterations if r["traced"]], untraced)
        names = [(name, unit) for name, unit, _better in per_layer_metrics()]
    else:
        values = _end_to_end(setup_times, untraced)
        names = END_TO_END
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in names}
    for name, entry in metrics.items():
        print(f"{name}: {entry['value']} {entry['unit']}")
    print(f"failed_frac: {tally.failed / max(tally.attempted, 1)} fraction "
          f"({tally.failed} of {tally.attempted} stage invocations and checks)")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Exit through SystemExit on SIGTERM so subprocess.run kills and reaps the
    # running worker and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "grounddesk", "cli.py")):
        print(f"error: no grounddesk source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    bench_root = os.path.join(ROOT, ".bench_work")
    work = os.path.join(bench_root, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    except (StepFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(bench_root)
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
