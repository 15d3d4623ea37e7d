"""Wall time of each pipeline stage and peak RSS of a whole run, written as JSON.

    python3 bench/pipeline.py [--out BENCH_pipeline.json] [--repeats 9] [--parent DIR]
                              [--set KEY=VALUE ...]

The config is the one the `pipeline_default` benchmark workload runs: the
default config with 5 descriptions per category (800 triplets), 12 epochs,
a 300-scene benchmark and eval.score_threshold 0.1. `--set` overrides
config keys on top of that, as the CLI's `--set` does. The source trees are
this checkout's `src/` and, with `--parent DIR`, the `src/` of another
checkout (for example an archive of the parent commit).

Each repeat runs one fresh child process per source tree, alternating the
order of the trees from repeat to repeat. A child runs with one BLAS
thread, imports its tree's `grounddesk` and runs every stage of `grounddesk
all` in-process through `cli.run`, in order, into a new temporary output
directory, timing each stage's call. After the last stage it records
`ru_maxrss` and a digest of `storage.hash_tree` of the output directory.

Each stage's column holds the median of its repeats, with the first and
third quartiles when there are two or more; `total_s` is the sum of the
stages, and `peak_rss_mb` the median of the children's peaks. With
`--parent`, the file also gives each part's speedup (parent time / this
checkout's time) and whether both trees wrote identical artifact trees.
Times compare only within one file: one machine, measured back to back.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

from step import ONE_THREAD, PIPELINE_DEFAULT, ROOT, _import_grounddesk, _machine

# The pipeline_default workload's config (gdbench/workloads.py).
WORKLOAD = {**PIPELINE_DEFAULT, "eval.benchmark_scenes": "300", "eval.score_threshold": "0.1"}
STAGES = ("gen", "scenes", "label", "targets", "train", "eval", "report")
PARTS = tuple(f"{stage}_s" for stage in STAGES) + ("total_s", "peak_rss_mb")


def child(src: str, overrides: list) -> dict:
    """Run every stage with the `grounddesk` of `src`; see the module docstring."""
    _import_grounddesk(src)
    from grounddesk import cli, storage

    if cli.PIPELINE_STAGES != STAGES:
        raise RuntimeError(f"{src} runs the stages {cli.PIPELINE_STAGES}, not {STAGES}")
    with tempfile.TemporaryDirectory(prefix="bench-pipeline-") as tree:
        config = cli.load_config(None, overrides, output_dir=tree)
        times = {}
        for stage in STAGES:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.run(stage, config)
            times[f"{stage}_s"] = time.perf_counter() - t0
            if code != 0:
                raise RuntimeError(f"stage {stage} exited {code}")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        digest = hashlib.sha256(json.dumps(storage.hash_tree(tree), sort_keys=True).encode())
    return {**times, "total_s": sum(times.values()), "peak_rss_mb": peak_rss_mb,
            "tree_sha256": digest.hexdigest()}


def _run_child(src: str, overrides: list) -> dict:
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--child",
                           json.dumps({"src": src, "overrides": overrides})],
                          env={**os.environ, **ONE_THREAD}, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"the child for {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _column(runs: list) -> dict:
    column = {part: statistics.median(run[part] for run in runs) for part in PARTS}
    if len(runs) > 1:
        column["quartiles"] = {part: statistics.quantiles([run[part] for run in runs], n=4)[::2]
                               for part in PARTS}
    digests = {run["tree_sha256"] for run in runs}
    if len(digests) != 1:
        raise RuntimeError(f"one source tree wrote {len(digests)} different artifact trees")
    column["tree_sha256"] = digests.pop()
    return column


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_pipeline.json"))
    ap.add_argument("--repeats", type=int, default=9)
    ap.add_argument("--parent", help="a checkout whose src/ is measured as the parent column")
    ap.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        req = json.loads(args.child)
        print(json.dumps(child(req["src"], req["overrides"])))
        return 0
    if args.repeats < 1:
        ap.error("--repeats must be >= 1")

    values = dict(WORKLOAD)
    for item in args.set:
        key, sep, value = item.partition("=")
        if not sep:
            ap.error(f"--set expects KEY=VALUE, got {item!r}")
        values[key] = value
    overrides = sorted(values.items())
    trees = {"change": os.path.join(ROOT, "src")}
    if args.parent:
        trees["parent"] = os.path.join(os.path.abspath(args.parent), "src")

    runs = {name: [] for name in trees}
    for repeat in range(args.repeats):
        order = list(trees) if repeat % 2 == 0 else list(trees)[::-1]
        for name in order:
            runs[name].append(_run_child(trees[name], overrides))
            print(f"repeat {repeat} {name}: total {runs[name][-1]['total_s']:.3f} s",
                  file=sys.stderr)

    columns = {name: _column(r) for name, r in runs.items()}
    result = {"config_overrides": dict(overrides), "repeats": args.repeats,
              "machine": _machine(),
              "units": {**{f"{stage}_s": "s per stage call" for stage in STAGES},
                        "total_s": "s, the sum of the stages", "peak_rss_mb": "MB"},
              "columns": columns}
    if "parent" in columns:
        result["speedup"] = {part: columns["parent"][part] / columns["change"][part]
                             for part in PARTS if part != "peak_rss_mb"}
        result["identical_tree"] = (columns["parent"]["tree_sha256"]
                                    == columns["change"]["tree_sha256"])
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps({"total_s": {n: round(c["total_s"], 3) for n, c in columns.items()},
                      **({"speedup": round(result["speedup"]["total_s"], 3),
                          "identical_tree": result["identical_tree"]}
                         if "speedup" in result else {})}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
