import math
from fractions import Fraction

import numpy as np
import pytest

from grounddesk import evalkit
from grounddesk.evalkit import (average_precision, d3_report, harmonic_mean, iou,
                                omnilabel_report, pooled_average_precision)
from grounddesk.scenegen import BenchmarkConfig, make_benchmark


# Brute-force PR integration, independent of the incremental evaluator: the
# prefix matching is recomputed from scratch at every rank and the curve is
# integrated with exact rational arithmetic.

def oracle_iou(a, b):
    ix = min(a[0] + a[2], b[0] + b[2]) - max(a[0], b[0])
    iy = min(a[1] + a[3], b[1] + b[3]) - max(a[1], b[1])
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (a[2] * a[3] + b[2] * b[3] - inter)


def oracle_ap(dets, gts, thr=0.5):
    if not gts:
        return 0.0 if dets else math.nan
    order = sorted(range(len(dets)), key=lambda i: (-dets[i][1], i))
    points = []
    for k in range(1, len(order) + 1):
        taken = set()
        tp = 0
        for i in order[:k]:
            best_j, best_v = None, -1.0
            for j, gt in enumerate(gts):
                if j in taken:
                    continue
                v = oracle_iou(dets[i][0], gt)
                if v >= thr and v > best_v:
                    best_j, best_v = j, v
            if best_j is not None:
                taken.add(best_j)
                tp += 1
        points.append((Fraction(tp, len(gts)), Fraction(tp, k)))
    ap = Fraction(0)
    prev_r = Fraction(0)
    for k, (r, _p) in enumerate(points):
        if r > prev_r:
            ap += (r - prev_r) * max(p for _r, p in points[k:])
            prev_r = r
    return float(ap)


def random_instance(rng, max_dets=20):
    def box():
        w, h = rng.uniform(0.05, 0.4, size=2)
        return (float(rng.uniform(0, 1 - w)), float(rng.uniform(0, 1 - h)),
                float(w), float(h))
    gts = [box() for _ in range(rng.integers(0, 5))]
    dets = []
    for _ in range(rng.integers(0, max_dets + 1)):
        if gts and rng.random() < 0.5:
            gx, gy, gw, gh = gts[int(rng.integers(0, len(gts)))]
            jitter = rng.normal(0, 0.02, size=4)
            cand = (gx + jitter[0], gy + jitter[1],
                    max(0.01, gw + jitter[2]), max(0.01, gh + jitter[3]))
        else:
            cand = box()
        dets.append((cand, float(rng.random())))
    return dets, gts


def test_iou_basics():
    assert iou((0.1, 0.1, 0.3, 0.3), (0.1, 0.1, 0.3, 0.3)) == pytest.approx(1.0)
    assert iou((0.0, 0.0, 0.2, 0.2), (0.5, 0.5, 0.2, 0.2)) == 0.0
    assert iou((0, 0, 0.10, 0.10), (0.05, 0, 0.10, 0.10)) == pytest.approx(1 / 3)
    assert iou((0, 0, 0.10, 0.10), (0.05, 0, 0.15, 0.10)) == pytest.approx(0.25)


def test_perfect_single_detection():
    gt = [(0.1, 0.1, 0.2, 0.2)]
    assert average_precision([((0.1, 0.1, 0.2, 0.2), 0.9)], gt) == 1.0


def test_tp_then_fp_is_still_one():
    gt = [(0.1, 0.1, 0.2, 0.2)]
    dets = [((0.1, 0.1, 0.2, 0.2), 0.9), ((0.6, 0.6, 0.2, 0.2), 0.5)]
    assert average_precision(dets, gt) == 1.0


def test_fp_then_tp_is_half():
    gt = [(0.1, 0.1, 0.2, 0.2)]
    dets = [((0.6, 0.6, 0.2, 0.2), 0.9), ((0.1, 0.1, 0.2, 0.2), 0.5)]
    assert average_precision(dets, gt) == 0.5


def test_empty_cases():
    assert math.isnan(average_precision([], []))
    assert average_precision([((0.1, 0.1, 0.2, 0.2), 0.9)], []) == 0.0
    assert average_precision([], [(0.1, 0.1, 0.2, 0.2)]) == 0.0


def test_ap_matches_bruteforce_oracle():
    rng = np.random.default_rng(0)
    for _ in range(300):
        dets, gts = random_instance(rng)
        got = average_precision(dets, gts, 0.5)
        want = oracle_ap(dets, gts, 0.5)
        if math.isnan(want):
            assert math.isnan(got)
        else:
            assert abs(got - want) < 1e-9


def test_pooled_ap_reduces_to_single_scene():
    rng = np.random.default_rng(1)
    for _ in range(50):
        dets, gts = random_instance(rng)
        single = average_precision(dets, gts, 0.5)
        pooled = pooled_average_precision({0: dets}, {0: gts}, 0.5)
        if math.isnan(single):
            assert math.isnan(pooled)
        else:
            assert pooled == pytest.approx(single)


def test_harmonic_mean_identities():
    assert harmonic_mean(0.0, 0.0) == 0.0
    assert harmonic_mean(30.0, 30.0) == 30.0
    assert harmonic_mean(23.9, 24.7) == pytest.approx(24.3, abs=0.05)
    assert harmonic_mean(30.3, 22.3) == pytest.approx(25.7, abs=0.05)


@pytest.fixture(scope="module")
def small_benchmark(desk20):
    return make_benchmark(desk20, 8, seed=5,
                          config=BenchmarkConfig(fraction_negative=0.5))


def perfect_results(benchmark):
    rows = []
    for label in benchmark.category_labels:
        for scene_id, boxes in label.gt_boxes.items():
            rows.append({"label_id": label.label_id, "scene_id": scene_id,
                         "detections": [{"box": list(b), "score": 0.9} for b in boxes]})
    for label in benchmark.description_labels:
        if label.gt_boxes:
            rows.append({"label_id": label.label_id, "scene_id": label.scene_id,
                         "detections": [{"box": list(b), "score": 0.9}
                                        for b in label.gt_boxes]})
    return rows


def test_perfect_detector_scores_100(small_benchmark):
    report = omnilabel_report(perfect_results(small_benchmark), small_benchmark)
    assert report.AP_categ == pytest.approx(100.0)
    assert report.AP_descr == pytest.approx(100.0)
    assert report.AP == pytest.approx(100.0)
    assert sum(report.bucket_counts) == len(small_benchmark.description_labels)


def test_negative_description_detection_decreases_ap(small_benchmark):
    rows = perfect_results(small_benchmark)
    base = omnilabel_report(rows, small_benchmark).AP_descr
    neg = next(l for l in small_benchmark.description_labels if not l.gt_boxes)
    rows.append({"label_id": neg.label_id, "scene_id": neg.scene_id,
                 "detections": [{"box": [0.1, 0.1, 0.2, 0.2], "score": 0.99}]})
    worse = omnilabel_report(rows, small_benchmark).AP_descr
    assert worse < base


def test_bucket_move_preserves_overall_ap(small_benchmark, monkeypatch):
    rows = perfect_results(small_benchmark)
    before = omnilabel_report(rows, small_benchmark)
    monkeypatch.setattr(evalkit, "LENGTH_BUCKETS", (4, 8))
    after = omnilabel_report(rows, small_benchmark)
    assert after.AP_descr == pytest.approx(before.AP_descr)
    assert sum(after.bucket_counts) == sum(before.bucket_counts)
    assert after.bucket_counts != before.bucket_counts


def test_report_json_marks_nan_as_null(small_benchmark):
    report = omnilabel_report([], small_benchmark)
    payload = report.to_json()
    assert payload["config"]["interpolation"] == "all-point"
    # with no detections at all, negatives are undefined rather than zero
    assert isinstance(payload["bucket_counts"], list)


def test_d3_partition(small_benchmark):
    rows = perfect_results(small_benchmark)
    full, pres, absent = d3_report(rows, small_benchmark)
    # perfect results fire only on ground truth, so a partition is defined
    # exactly when it holds a label with ground truth
    defined_absence = any("without" in l.text.split() and l.gt_boxes
                          for l in small_benchmark.description_labels)
    if defined_absence:
        assert not math.isnan(absent)
    else:
        assert math.isnan(absent)
        assert full == pytest.approx(pres)


def test_d3_hand_computed_mix():
    # two scenes, one plain and one absence description each, hand-scored
    from grounddesk.evalkit import BenchmarkInstance, DescriptionLabel
    box = (0.1, 0.1, 0.2, 0.2)
    far = (0.6, 0.6, 0.2, 0.2)
    labels = (
        DescriptionLabel(0, 0, "a dog", (box,)),
        DescriptionLabel(1, 0, "a dog without dots", (far,)),
    )
    class Scene:
        def __init__(self, scene_id):
            self.scene_id = scene_id
    bench = BenchmarkInstance(scenes=(Scene(0),), features={}, category_labels=(),
                              description_labels=labels)
    rows = [
        {"label_id": 0, "scene_id": 0, "detections": [{"box": list(box), "score": 0.9}]},
        {"label_id": 1, "scene_id": 0, "detections": [{"box": list(box), "score": 0.9},
                                                      {"box": list(far), "score": 0.5}]},
    ]
    full, pres, absent = d3_report(rows, bench)
    assert pres == pytest.approx(100.0)
    assert absent == pytest.approx(50.0)
    assert full == pytest.approx((100.0 + 50.0) / 2)


def test_results_jsonl_roundtrip(tmp_path, small_benchmark):
    rows = perfect_results(small_benchmark)
    path = tmp_path / "results.jsonl"
    evalkit.write_results(path, rows)
    assert evalkit.read_results(path) == rows
