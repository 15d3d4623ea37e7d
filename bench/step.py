"""Per-example cost of the groundnet training step, written as JSON.

    python3 bench/step.py [--out BENCH_step.json] [--repeats 5] [--parent DIR]
                          [--set KEY=VALUE ...]

The corpus is the one the `pipeline_default` benchmark workload trains on:
the default config with 5 descriptions per category (800 triplets) and 12
epochs. `--set` overrides config keys on top of that, as the CLI's `--set`
does. The source trees are this checkout's `src/` and, with `--parent DIR`,
the `src/` of another checkout (for example an archive of the parent
commit). The gen, scenes, label and targets stages build the corpus once
per source tree, each in its own temporary directory with that tree's own
`grounddesk`, so each reads example files in the format its own code
writes.

Each repeat then runs one fresh child process per source tree, on that
tree's corpus. The order of the trees alternates from repeat to repeat. A
child runs with one BLAS thread, reads the examples and trains two fresh
models with `groundnet.train`:

- once as is, for `train_s`, the seconds of the whole `train()` call;
- once with `forward`, `loss_and_grad` and `compile_query` timed through
  wrappers on the module globals, which `train` calls. `forward_us` and
  `loss_and_grad_us` are the mean microseconds of one call, one call per
  scheduled example. `accumulate_update_us` is the rest of `train()`'s time
  per example: batch scheduling, the gradient accumulation and the momentum
  update, plus the wrappers' own overhead. `step_us` is the sum of the
  three.

Each column holds the median of its repeats, with the first and third
quartiles when there are two or more, and `peak_rss_mb` is the largest
`ru_maxrss` of its children. With `--parent`, the file also gives
each part's speedup (parent time / this checkout's time), and whether both
trees trained bit-identical parameters. Times compare only within one file:
one machine, measured back to back.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The pipeline_default workload's corpus and schedule (gdbench/workloads.py).
PIPELINE_DEFAULT = {"descriptions.num_descriptions": "5", "train.epochs": "12"}
BUILD_STAGES = ("gen", "scenes", "label", "targets")
PARTS = ("forward_us", "loss_and_grad_us", "accumulate_update_us", "step_us", "train_s")
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


def _import_grounddesk(src: str):
    sys.path.insert(0, src)
    import grounddesk
    where = os.path.dirname(os.path.abspath(grounddesk.__file__))
    if where != os.path.join(os.path.abspath(src), "grounddesk"):
        raise RuntimeError(f"imported grounddesk from {where}, not from {src}")
    return grounddesk


class _Timed:
    """A wrapper that sums the wall time and counts the calls of `fn`."""

    def __init__(self, fn):
        self.fn, self.seconds, self.calls = fn, 0.0, 0

    def __call__(self, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return self.fn(*args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - t0
            self.calls += 1


def build(src: str, tree: str, overrides: list) -> dict:
    """Write the corpus into `tree` with the `grounddesk` of `src`."""
    _import_grounddesk(src)
    from grounddesk import cli

    config = cli.load_config(None, overrides, output_dir=tree)
    for stage in BUILD_STAGES:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(stage, config)
        if code != 0:
            raise RuntimeError(f"building the corpus: stage {stage} exited {code}")
    return {}


def child(src: str, tree: str, overrides: list) -> dict:
    """Measure one source tree on the built corpus; see the module docstring.
    It reads the examples and builds the model and TrainConfig as the CLI's
    train stage does."""
    _import_grounddesk(src)
    from grounddesk import cli, corpus, groundnet, pipeline, scenegen

    config = cli.load_config(None, overrides, output_dir=tree)
    vocab = pipeline.build_vocabulary(corpus.build_entity_pool(config["pool"]))
    features = scenegen.read_features(os.path.join(tree, "features.bin"))
    trip = cli._read_examples(tree, "examples.jsonl", features, vocab)
    det = cli._read_examples(tree, "detection_examples.jsonl", features, vocab)
    train_config = cli._train_config(config)

    def fresh_model():
        return groundnet.GroundingModel(vocab, d_in=config["features"]["dim"],
                                        d_model=config["train"]["d_model"],
                                        seed=config["seed"])

    t0 = time.perf_counter()
    model, _ = groundnet.train(fresh_model(), trip, det, train_config)
    train_s = time.perf_counter() - t0
    digest = hashlib.sha256()
    for name in sorted(model.params):
        digest.update(model.params[name].tobytes())

    timed = {name: _Timed(getattr(groundnet, name))
             for name in ("forward", "loss_and_grad", "compile_query")}
    for name, wrapper in timed.items():
        setattr(groundnet, name, wrapper)
    t0 = time.perf_counter()
    groundnet.train(fresh_model(), trip, det, train_config)
    wrapped_s = time.perf_counter() - t0
    for name, wrapper in timed.items():
        setattr(groundnet, name, wrapper.fn)

    examples = timed["forward"].calls
    if timed["loss_and_grad"].calls != examples:
        raise RuntimeError("train() called forward and loss_and_grad unequally often")
    per_example = {
        "forward_us": timed["forward"].seconds / examples * 1e6,
        "loss_and_grad_us": timed["loss_and_grad"].seconds / examples * 1e6,
        "accumulate_update_us": (wrapped_s - sum(w.seconds for w in timed.values()))
        / examples * 1e6,
    }
    return {**per_example, "step_us": sum(per_example.values()), "train_s": train_s,
            "examples": examples, "params_sha256": digest.hexdigest(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def _run_child(src: str, tree: str, overrides: list, task: str = "measure") -> dict:
    env = {**os.environ, **ONE_THREAD}
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--child",
                           json.dumps({"src": src, "tree": tree, "overrides": overrides,
                                       "task": task})],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"the child for {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _machine() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "cores": os.cpu_count(), "machine": platform.machine(),
            "blas_threads": 1}


def _column(runs: list) -> dict:
    column = {part: statistics.median(run[part] for run in runs) for part in PARTS}
    if len(runs) > 1:
        column["quartiles"] = {part: statistics.quantiles([run[part] for run in runs], n=4)[::2]
                               for part in PARTS}
    column["peak_rss_mb"] = max(run["peak_rss_mb"] for run in runs)
    column["examples"] = runs[0]["examples"]
    digests = {run["params_sha256"] for run in runs}
    if len(digests) != 1:
        raise RuntimeError(f"one source tree trained {len(digests)} different models")
    column["params_sha256"] = digests.pop()
    return column


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_step.json"))
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--parent", help="a checkout whose src/ is measured as the parent column")
    ap.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        req = json.loads(args.child)
        task = build if req["task"] == "build" else child
        print(json.dumps(task(req["src"], req["tree"], req["overrides"])))
        return 0
    if args.repeats < 1:
        ap.error("--repeats must be >= 1")

    values = dict(PIPELINE_DEFAULT)
    for item in args.set:
        key, sep, value = item.partition("=")
        if not sep:
            ap.error(f"--set expects KEY=VALUE, got {item!r}")
        values[key] = value
    overrides = sorted(values.items())
    trees = {"change": os.path.join(ROOT, "src")}
    if args.parent:
        trees["parent"] = os.path.join(os.path.abspath(args.parent), "src")

    with tempfile.TemporaryDirectory(prefix="bench-step-") as tmp:
        corpora = {name: os.path.join(tmp, name) for name in trees}
        for name, src in trees.items():
            _run_child(src, corpora[name], overrides, task="build")
        runs = {name: [] for name in trees}
        for repeat in range(args.repeats):
            order = list(trees) if repeat % 2 == 0 else list(trees)[::-1]
            for name in order:
                runs[name].append(_run_child(trees[name], corpora[name], overrides))
                print(f"repeat {repeat} {name}: step "
                      f"{runs[name][-1]['step_us']:.1f} us", file=sys.stderr)

    columns = {name: _column(r) for name, r in runs.items()}
    result = {"config_overrides": dict(overrides), "repeats": args.repeats,
              "machine": _machine(),
              "units": {"forward_us": "us per example", "loss_and_grad_us": "us per example",
                        "accumulate_update_us": "us per example",
                        "step_us": "us per example", "train_s": "s per train() call",
                        "peak_rss_mb": "MB"},
              "columns": columns}
    if "parent" in columns:
        result["speedup"] = {part: columns["parent"][part] / columns["change"][part]
                             for part in PARTS}
        result["identical_params"] = (columns["parent"]["params_sha256"]
                                      == columns["change"]["params_sha256"])
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps({"step_us": {n: round(c["step_us"], 1) for n, c in columns.items()},
                      **({"speedup": round(result["speedup"]["step_us"], 3)}
                         if "speedup" in result else {})}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
