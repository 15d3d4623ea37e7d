"""The benchmark's own tests.  Run them explicitly from the checkout root:

    python3 -m pytest -q gdbench/selftest.py

They are not named test_*.py, so the repository's test suite does not
collect them.  The tracer tests run a tiny config in-process; the count
tests run every workload twice, traced, and take a few minutes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from tracer import TRACED, Tracer, is_count, per_layer_metrics  # noqa: E402
from workloads import TIMED, WORKLOADS  # noqa: E402

TINY = [("descriptions.num_descriptions", "3"), ("images_per_description", "2"),
        ("train.epochs", "2"), ("eval.benchmark_scenes", "12")]


def _originals():
    """Code object -> traced name, for every function the tracer wraps."""
    import importlib
    out = {}
    for name in TRACED:
        mod_name, _, attr = name.partition(".")
        obj = importlib.import_module(f"grounddesk.{mod_name}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        out[obj.__code__] = name
    return out


def _tiny_traced_run(out_dir):
    """All seven stages of a tiny config, traced in-process, while a profile
    hook counts every call that reaches a traced function's own code."""
    from grounddesk import cli
    from workloads import ALL_STAGES

    codes = _originals()
    seen = {name: 0 for name in TRACED}

    def profile(frame, event, _arg):
        if event == "call":
            name = codes.get(frame.f_code)
            if name:
                seen[name] += 1

    config = cli.load_config(None, TINY, output_dir=str(out_dir))
    tracer = Tracer()
    tracer.install()
    sys.setprofile(profile)
    try:
        for stage in ALL_STAGES:
            with tracer.span(f"cli.{stage}"):
                assert cli.run(stage, config, workers=1) == 0
    finally:
        sys.setprofile(None)
        tracer.uninstall()
    return config, tracer, seen


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(TIMED)
    assert set(TIMED) <= set(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == per_layer_metrics()


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("tiny")
    config, tracer, seen = _tiny_traced_run(out_dir)
    return out_dir, config, tracer, seen


def test_no_call_escapes_the_tracer(tiny_run):
    _out, _config, tracer, seen = tiny_run
    traced_calls = {name: 0 for name in TRACED}
    for span, (calls, _self_s, _total_s) in tracer.stats.items():
        if span.startswith("groundnet.forward."):
            traced_calls["groundnet.forward"] += calls
        elif span in traced_calls:
            traced_calls[span] += calls
    assert traced_calls == seen
    assert all(seen.values())


def test_training_forward_calls_match_the_schedule(tiny_run):
    out_dir, config, tracer, _ = tiny_run
    with open(out_dir / "examples.jsonl", encoding="utf-8") as fh:
        n_triplets = sum(1 for _ in fh)
    t = config["train"]
    assert n_triplets >= t["batch_size"]
    expected = t["epochs"] * math.ceil(n_triplets / t["batch_size"]) * t["batch_size"]
    assert tracer.stats["groundnet.forward.train"][0] == expected
    assert tracer.stats["groundnet.loss_and_grad"][0] == expected
    assert tracer.counters["groundnet.train.scheduled"] == expected
    assert tracer.stats["groundnet.forward.predict"][0] == \
        tracer.stats["groundnet.predict_grouped"][0] >= config["eval"]["benchmark_scenes"]


def test_tracer_restores_every_binding(tiny_run):
    wrappers = [f"{mod_name}.{key}" for mod_name, mod in sys.modules.items()
                if mod_name.startswith("grounddesk")
                for key, value in vars(mod).items()
                if getattr(getattr(value, "__code__", None), "co_name", None) == "traced"]
    assert wrappers == []
    from grounddesk import groundnet, labeling
    assert labeling.BowDetector.detect.__code__.co_name == "detect"
    assert groundnet.Vocabulary.ids.__code__.co_name == "ids"


def _counts(metrics):
    return {name: entry["value"] for name, entry in metrics.items() if is_count(name)}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counts_repeat_across_runs(name, tmp_path):
    results = []
    for i in range(2):
        work = tmp_path / f"run{i}"
        work.mkdir()
        results.append(run.run(WORKLOADS[name], seed=3, seconds=0, trace=True, work=str(work)))
    for result in results:
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m for m, _u, _b in per_layer_metrics()}
    assert _counts(results[0]["metrics"]) == _counts(results[1]["metrics"])
    assert results[0]["metrics"]["trace.coverage"]["value"] > 0.99


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "gdbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "gdbench/run.py", "--workload", "pipeline_default",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
