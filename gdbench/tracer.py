"""In-memory span tracer that wraps grounddesk's public functions from outside.

Each traced function is replaced, in every ``grounddesk`` module namespace
that binds it, by a wrapper that records one span per call.  Spans nest
through an explicit stack, so a span's self time is its duration minus the
durations of the spans it directly encloses.  Spans are aggregated per name
(calls, self seconds, total seconds) instead of being kept one by one, which
keeps memory flat on runs with millions of calls.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager

from workloads import ALL_STAGES

TIMED = ("calls", "self_s")
# Every traced public function, as "module.attribute" under the grounddesk
# package, with the per-span metrics it reports.  evalkit.iou is too cheap
# to time meaningfully, so it reports its calls only.
TRACED = {
    "corpus.generate_descriptions": TIMED,
    "corpus.write_descriptions": TIMED,
    "corpus.read_descriptions": TIMED,
    "langparse.parse": TIMED + ("us_per_call", "distinct_ratio"),
    "scenegen.synthesize_scene": TIMED,
    "scenegen.render_features": TIMED,
    "scenegen.make_benchmark": TIMED,
    "scenegen.write_features": TIMED,
    "scenegen.read_features": TIMED,
    "scenegen.write_scenes": TIMED,
    "scenegen.read_scenes": TIMED,
    "scenegen.word_vector": TIMED + ("distinct_ratio",),
    "seeding.derive_seed": TIMED,
    "labeling.weak_to_strong_label": TIMED,
    "labeling.BowDetector.detect": TIMED,
    "labeling.label_recall": TIMED,
    "targets.assemble_query": TIMED + ("us_per_call",),
    "targets.build_alignment_target": TIMED,
    "targets.build_detection_target": TIMED,
    "targets.example_to_json": TIMED,
    "targets.example_from_json": TIMED,
    "groundnet.train": TIMED,
    "groundnet.forward": TIMED + ("us_per_call",),
    "groundnet.loss_and_grad": TIMED + ("us_per_call",),
    "groundnet.Vocabulary.ids": TIMED,
    "groundnet.predict_grouped": TIMED + ("us_per_call",),
    "groundnet.save_checkpoint": TIMED,
    "groundnet.load_checkpoint": TIMED,
    "pipeline.run_model_on_benchmark": TIMED,
    "evalkit.omnilabel_report": TIMED,
    "evalkit.d3_report": TIMED,
    "evalkit.pooled_average_precision": TIMED,
    "evalkit.average_precision": TIMED,
    "evalkit.iou": ("calls",),
    "evalkit.write_results": TIMED,
    "storage.sha256_file": TIMED + ("bytes",),
    "storage.stage_is_current": TIMED,
    "storage.write_manifest": TIMED,
    "storage.write_json": TIMED,
}
SUFFIX_UNITS = {"calls": ("count", "lower"), "self_s": ("s", "lower"),
                "us_per_call": ("us", "lower"), "distinct_ratio": ("ratio", "higher"),
                "bytes": ("B", "lower")}

# groundnet.forward is reported as two spans, by the span that called it:
# under groundnet.train it is training, anywhere else it is inference.
FORWARD = "groundnet.forward"
FORWARD_TRAIN = "groundnet.forward.train"
FORWARD_PREDICT = "groundnet.forward.predict"

# Ratios reported after the span they belong to.
DERIVED = {
    "labeling.label_recall": ("labeling.kept_ratio", "ratio", "higher"),
    "groundnet.train": ("groundnet.train.examples_per_s", "1/s", "higher"),
    "pipeline.run_model_on_benchmark": ("pipeline.labels_per_s", "1/s", "higher"),
}


def is_count(metric: str) -> bool:
    """Counts and ratios of counts: these must repeat exactly at one seed."""
    return metric.endswith((".calls", "_ratio", ".bytes", ".stages_skipped"))


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric, in report order."""
    out = [(f"cli.{stage}_s", "s", "lower") for stage in ALL_STAGES]
    out.append(("cli.stages_skipped", "count", "higher"))
    for name, suffixes in TRACED.items():
        for span in ((FORWARD_TRAIN, FORWARD_PREDICT) if name == FORWARD else (name,)):
            out.extend((f"{span}.{suffix}", *SUFFIX_UNITS[suffix]) for suffix in suffixes)
        if name in DERIVED:
            out.append(DERIVED[name])
    out.append(("trace.overhead_s", "s", "lower"))
    out.append(("trace.coverage", "ratio", "higher"))
    return out


_HOOKED = {"langparse.parse", "scenegen.word_vector", "storage.sha256_file",
           "labeling.weak_to_strong_label", "labeling.BowDetector.detect",
           "groundnet.train", "pipeline.run_model_on_benchmark"}


def _after_call(tracer, name, args, result):
    """Counters that derived metrics need, taken from arguments and results."""
    if name == "langparse.parse":
        tracer.distinct[name].add(args[0])
    elif name == "scenegen.word_vector":
        tracer.distinct[name].add(args)
    elif name == "storage.sha256_file":
        tracer.counters["storage.sha256_file.bytes"] += os.path.getsize(args[0])
    elif name == "labeling.weak_to_strong_label":
        tracer.counters["labeling.assignments"] += len(result.assignments)
    elif name == "labeling.BowDetector.detect":
        tracer.counters["labeling.detections"] += len(result)
    elif name == "groundnet.train":
        trip, det, config = args[1], args[2], args[3]
        n_source = len(det) if config.detection_mix_ratio >= 1.0 else len(trip)
        batches = max(1, math.ceil(n_source / config.batch_size))
        tracer.counters["groundnet.train.scheduled"] += config.epochs * batches * config.batch_size
    elif name == "pipeline.run_model_on_benchmark":
        bench = args[1]
        tracer.counters["pipeline.labels"] += (len(bench.scenes) * len(bench.category_labels)
                                               + len(bench.description_labels))


class Tracer:
    """Aggregated spans: name -> [calls, self seconds, total seconds]."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.counters: Counter = Counter()
        self.distinct = {name: set() for name in ("langparse.parse", "scenegen.word_vector")}
        self.top_level_s = 0.0
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    def _close(self, frame, duration):
        self._stack.pop()
        st = self.stats.get(frame[0])
        if st is None:
            st = self.stats[frame[0]] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += duration - frame[1]
        st[2] += duration
        if self._stack:
            self._stack[-1][1] += duration
        else:
            self.top_level_s += duration

    @contextmanager
    def span(self, name):
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, time.perf_counter() - t0)

    def _wrapper(self, name, fn):
        stack = self._stack
        close = self._close
        clock = time.perf_counter
        hook = name in _HOOKED
        split = name == FORWARD

        def traced(*args, **kwargs):
            span = name
            if split:
                under_train = stack and stack[-1][0] == "groundnet.train"
                span = FORWARD_TRAIN if under_train else FORWARD_PREDICT
            frame = [span, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(frame, clock() - t0)
            if hook:
                _after_call(self, name, args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Patch every traced function wherever a grounddesk module binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "grounddesk" or n.startswith("grounddesk."))]
        for name in TRACED:
            mod_name, _, attr = name.partition(".")
            module = importlib.import_module(f"grounddesk.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, original, self._wrapper(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrapper(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def metrics(self, stages_skipped: int) -> dict:
        """Per-layer values by metric name; functions never called read 0."""
        def stat(span, i):
            st = self.stats.get(span)
            return st[i] if st else 0

        def ratio(num, den):
            return num / den if den else 0.0

        out = {f"cli.{stage}_s": stat(f"cli.{stage}", 2) for stage in ALL_STAGES}
        out["cli.stages_skipped"] = stages_skipped
        for metric, _unit, _better in per_layer_metrics():
            if metric.startswith(("cli.", "trace.")):
                continue
            span, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = stat(span, 0)
            elif kind == "self_s":
                out[metric] = stat(span, 1)
            elif kind == "us_per_call":
                out[metric] = 1e6 * ratio(stat(span, 2), stat(span, 0))
            elif kind == "distinct_ratio":
                out[metric] = ratio(len(self.distinct[span]), stat(span, 0))
            elif kind == "bytes":
                out[metric] = self.counters[metric]
            elif metric == "groundnet.train.examples_per_s":
                out[metric] = ratio(self.counters["groundnet.train.scheduled"],
                                    stat("groundnet.train", 2))
            elif metric == "pipeline.labels_per_s":
                out[metric] = ratio(self.counters["pipeline.labels"],
                                    stat("pipeline.run_model_on_benchmark", 2))
            elif metric == "labeling.kept_ratio":
                out[metric] = ratio(self.counters["labeling.assignments"],
                                    self.counters["labeling.detections"])
        return out
