"""One benchmark step in a fresh Python process.

    python3 gdbench/worker.py '<request JSON>'

The request names the workload, seed, output directory, iteration number
(which picks the workload's config variant), whether to trace, and the mode:
"setup" (import grounddesk and, for a prebuilt workload, build and train its
tree) or "run" (run the workload's stages once, then check the artifacts).
The last line of standard output is one JSON object with the result.  A
fresh process per step means one step's peak RSS cannot carry into the next.

Each step also measures the machine it ran on, and run.py corrects the
step's times with both figures (DESIGN.md gives the reasons):

- ``stolen_s``: seconds the hypervisor gave this process's CPU to other
  guests while the timed part ran (the steal column of /proc/stat for the
  CPU the step is pinned to).  The timed part is the stages in a "run" step
  and the whole step in a "setup" step.
- ``probe_s``: the median time of a fixed pure-Python loop, run at the
  step's start, before each stage and after the last: how fast the machine
  ran this process during the step.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PROBE_REPS = 4
PROBE_LOOP = 30_000


class Probe:
    """Times a fixed loop that touches no program code, PROBE_REPS times per call."""

    def __init__(self):
        self.times = []

    def __call__(self) -> None:
        for _ in range(PROBE_REPS):
            t0 = time.perf_counter()
            acc = 0
            for i in range(PROBE_LOOP):
                acc += i * i % 7
            self.times.append(time.perf_counter() - t0)

    def fields(self) -> dict:
        return {"probe_s": statistics.median(self.times), "probe_total_s": sum(self.times)}


class StealClock:
    """Steal time of the CPU this process runs on, which it is pinned to."""

    def __init__(self):
        self.prefix = None
        if os.path.exists("/proc/stat"):
            with open("/proc/self/stat", encoding="ascii") as fh:
                cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
            os.sched_setaffinity(0, {cpu})
            self.prefix = f"cpu{cpu} "

    def __call__(self) -> float:
        if self.prefix is None:
            return 0.0
        with open("/proc/stat", encoding="ascii") as fh:
            line = next(line for line in fh if line.startswith(self.prefix))
        return int(line.split()[8]) / os.sysconf("SC_CLK_TCK")


def _import_grounddesk():
    sys.path.insert(0, SRC)
    import grounddesk
    where = os.path.dirname(os.path.abspath(grounddesk.__file__))
    if where != os.path.join(SRC, "grounddesk"):
        raise RuntimeError(f"imported grounddesk from {where}, not from {SRC}")


def _run_stages(cli, config, stages, tracer, probe, steal):
    """Run each stage through cli.run, probing before each and after the
    last; returns the exit codes, the stages that reported themselves up to
    date, and the stages' total wall and steal time."""
    codes, skipped, wall, stolen = {}, [], 0.0, 0.0
    for stage in stages:
        probe()
        buf = io.StringIO()
        span = tracer.span(f"cli.{stage}") if tracer else contextlib.nullcontext()
        s0, t0 = steal(), time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(buf):
                codes[stage] = cli.run(stage, config, workers=1)
        except Exception:  # a stage that raises counts as failed
            traceback.print_exc()
            codes[stage] = -1
        wall += time.perf_counter() - t0
        stolen += steal() - s0
        if f"{stage}: up to date, skipping" in buf.getvalue():
            skipped.append(stage)
        if codes[stage] != 0:
            break
    probe()
    return codes, skipped, wall, stolen


def main(argv) -> int:
    req = json.loads(argv[1])
    steal = StealClock()
    stolen_before = steal()
    probe = Probe()
    probe()
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS, check_outputs, config_overrides, quality

    _import_grounddesk()
    from grounddesk import cli, storage

    workload = WORKLOADS[req["workload"]]
    overrides = config_overrides(workload, req["seed"], req["iteration"])
    config = cli.load_config(None, overrides, output_dir=req["out"])
    if req["mode"] == "setup":
        codes, _, _, _ = _run_stages(cli, config, workload.setup_stages, None, probe, steal)
        print(json.dumps({"codes": codes, "stolen_s": steal() - stolen_before,
                          **probe.fields()}))
        return 0

    ckpt = os.path.join(req["out"], "model.ckpt")
    ckpt_before = storage.sha256_file(ckpt) if workload.prebuilt else None
    tracer, traced_checks = None, {}
    if req["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    codes, skipped, wall, stolen = _run_stages(cli, config, workload.stages, tracer, probe,
                                               steal)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"wall_s": wall, "stolen_s": stolen, "peak_rss_mb": peak_rss_mb, "codes": codes,
              "skipped": skipped}
    if tracer:
        tracer.uninstall()
        result["trace"] = tracer.metrics(len(skipped))
        result["top_level_s"] = tracer.top_level_s
        trained = tracer.stats.get("groundnet.forward.train", [0])[0]
        traced_checks = {"forward_train_calls_match_schedule":
                         trained == tracer.counters["groundnet.train.scheduled"]}
    if all(codes.get(s) == 0 for s in workload.stages):
        result["ckpt_before"] = ckpt_before
        result["ckpt_after"] = storage.sha256_file(ckpt) if workload.prebuilt else None
        result["checks"] = {**check_outputs(workload, req["out"], config, result),
                            **traced_checks}
        result["ap_descr"], result["label_recall"] = quality(workload, req["out"], config)
        if not workload.prebuilt:
            result["tree_digest"] = storage.config_hash(storage.hash_tree(req["out"]))
    print(json.dumps({**result, **probe.fields()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
