import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from grounddesk import evalkit
from grounddesk.evalkit import (DetectionArrays, Results, as_detection_arrays,
                                average_precision, d3_report, harmonic_mean, iou, iou_array,
                                omnilabel_report, pooled_average_precision)
from grounddesk.scenegen import BenchmarkConfig, make_benchmark, read_scenes, write_scenes


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
    assert list(evalkit.read_results(path).rows()) == rows


def test_read_results_decodes_straight_into_arrays(tmp_path, small_benchmark):
    path = tmp_path / "results.jsonl"
    evalkit.write_results(path, perfect_results(small_benchmark))
    table = evalkit.read_results(path)
    assert isinstance(table, Results) and len(table)
    for dets in table.values():
        assert isinstance(dets, DetectionArrays)
        assert dets.boxes.dtype == dets.scores.dtype == np.float64
        assert dets.boxes.shape == (len(dets.scores), 4)


def test_read_results_joins_lines_that_share_a_key(tmp_path):
    path = tmp_path / "results.jsonl"
    path.write_text('{"detections": [{"box": [0, 0, 1, 1], "score": 0.5}], '
                    '"label_id": 1, "scene_id": 2}\n'
                    '{"detections": [], "label_id": 3, "scene_id": 2}\n'
                    '{"detections": [{"box": [0.5, 0, 0.5, 1], "score": NaN}], '
                    '"label_id": 1, "scene_id": 2}\n')
    table = evalkit.read_results(path)
    assert list(table) == [(1, 2), (3, 2)]
    assert table[1, 2].boxes.tolist() == [[0, 0, 1, 1], [0.5, 0, 0.5, 1]]
    assert table[1, 2].scores[0] == 0.5 and math.isnan(table[1, 2].scores[1])
    assert table[3, 2].boxes.shape == (0, 4) and table[3, 2].scores.shape == (0,)


@pytest.mark.parametrize("line", [
    '{"detections": [{"box": [0, 0, 1, 1], "score": 0.5}], "label_id": 1, "sce',
    '{"detections": [{"box": [0, 0, 1], "score": 0.5}], "label_id": 1, "scene_id": 2}',
    '{"detections": [{"box": [0, 0, 1, 1, 1], "score": 0.5}], "label_id": 1, "scene_id": 2}',
    '{"detections": [{"box": [0, 0, 1, 1], "score": [0.5]}], "label_id": 1, "scene_id": 2}',
    '{"detections": [{"box": [0, 0, 1, 1], "score": "x"}], "label_id": 1, "scene_id": 2}',
    '{"detections": [{"box": [0, 0, 1, 1]}], "label_id": 1, "scene_id": 2}',
    '{"detections": [], "label_id": 1}',
    '[1, 2]',
], ids=["cut", "short_box", "long_box", "list_score", "text_score", "no_score", "no_scene",
        "not_a_row"])
def test_read_results_names_the_file_and_line_of_a_bad_row(tmp_path, line):
    path = tmp_path / "results.jsonl"
    path.write_text('{"detections": [], "label_id": 0, "scene_id": 0}\n' + line + "\n")
    with pytest.raises(ValueError, match=r"results\.jsonl line 2"):
        evalkit.read_results(path)


def test_description_labels_round_trip(tmp_path, small_benchmark):
    path = tmp_path / "benchmark_labels.jsonl"
    evalkit.write_description_labels(path, small_benchmark.description_labels)
    assert tuple(evalkit.read_description_labels(path)) == small_benchmark.description_labels
    assert any(not label.gt_boxes for label in small_benchmark.description_labels)


@pytest.mark.parametrize("seed", [5, 11])
def test_category_labels_from_written_scenes_equal_the_benchmarks(tmp_path, desk20, seed):
    """The matching half rebuilds the category labels from
    benchmark_scenes.jsonl; they equal the ones make_benchmark built."""
    bench = make_benchmark(desk20, 10, seed=seed)
    path = tmp_path / "benchmark_scenes.jsonl"
    write_scenes(path, bench.scenes)
    labels = evalkit.category_labels(desk20, read_scenes(path))
    assert labels == bench.category_labels
    assert [label.label_id for label in labels] == [cat.id for cat in desk20]
    assert sum(len(label.gt_boxes) for label in labels) > 0


# Property tests over the array forms -------------------------------------

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
side = st.floats(min_value=1e-3, max_value=1.0, allow_nan=False)
boxes = st.tuples(unit, unit, side, side)
# Coarse coordinates make shared edges, equal boxes and exact IoU ties common.
grid_boxes = st.tuples(*[st.integers(0, 8).map(lambda v: v / 8)] * 2,
                       *[st.integers(1, 8).map(lambda v: v / 8)] * 2)
any_boxes = st.one_of(boxes, grid_boxes)
scored = st.lists(st.tuples(any_boxes, st.floats(0.0, 1.0)), max_size=12)


@settings(max_examples=200, deadline=None)
@given(st.lists(any_boxes, min_size=1, max_size=6), st.lists(any_boxes, min_size=1, max_size=6))
def test_iou_array_equals_iou_bit_for_bit(a, b):
    got = iou_array(np.array(a)[:, None, :], np.array(b)[None, :, :])
    want = np.array([[iou(x, y) for y in b] for x in a])
    assert got.tobytes() == want.tobytes()
    assert got.tobytes() == iou_array(np.array(b)[:, None, :], np.array(a)[None]).T.tobytes()
    assert ((0.0 <= got) & (got <= 1.0)).all()


@settings(max_examples=200, deadline=None)
@given(scored, st.lists(any_boxes, max_size=5), st.sampled_from([0.5, 0.75, 1.0]))
def test_array_ap_equals_list_ap_and_the_oracle(dets, gts, thr):
    arrays = DetectionArrays(np.array([b for b, _ in dets], dtype=float).reshape(-1, 4),
                             np.array([s for _, s in dets], dtype=float))
    from_arrays = average_precision(arrays, gts, thr)
    from_list = average_precision(dets, gts, thr)
    want = oracle_ap(dets, gts, thr)
    if math.isnan(want):
        assert math.isnan(from_arrays) and math.isnan(from_list)
    else:
        assert from_arrays == from_list
        assert abs(from_arrays - want) <= 1e-9


def loop_pooled_ap(dets_by_scene, gt_by_scene, thr):
    """The per-detection loop that pooled_average_precision vectorises, kept as
    its reference: the same float operations, so results must be equal."""
    n_gt = sum(len(v) for v in gt_by_scene.values())
    entries = [(sid, box, score) for sid, dets in dets_by_scene.items() for box, score in dets]
    if n_gt == 0:
        return 0.0 if entries else math.nan
    entries.sort(key=lambda t: -t[2])
    matched = {sid: [False] * len(boxes) for sid, boxes in gt_by_scene.items()}
    tp, precisions, recalls = 0, [], []
    for k, (sid, box, _score) in enumerate(entries, start=1):
        best, best_iou = None, -1.0
        for j, gt in enumerate(gt_by_scene.get(sid, [])):
            v = iou(box, gt)
            if not matched[sid][j] and v >= thr and v > best_iou:
                best, best_iou = j, v
        if best is not None:
            matched[sid][best] = True
            tp += 1
        precisions.append(tp / k)
        recalls.append(tp / n_gt)
    ap, prev_recall = 0.0, 0.0
    for k in range(len(entries)):
        if recalls[k] > prev_recall:
            ap += (recalls[k] - prev_recall) * max(precisions[k:])
            prev_recall = recalls[k]
    return ap


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(scored, st.lists(any_boxes, max_size=3)), min_size=1, max_size=4),
       st.sampled_from([0.5, 0.75, 1.0]))
def test_pooled_ap_equals_the_loop_reference(scenes, thr):
    dets = {k: d for k, (d, _g) in enumerate(scenes)}
    gts = {k: g for k, (_d, g) in enumerate(scenes)}
    want = loop_pooled_ap(dets, gts, thr)
    arrays = {k: as_detection_arrays(d) for k, d in dets.items()}
    for form in (dets, arrays):
        got = pooled_average_precision(form, gts, thr)
        assert (math.isnan(got) and math.isnan(want)) or got == want


@settings(max_examples=200, deadline=None)
@given(scored, st.lists(any_boxes, max_size=5), st.randoms(use_true_random=False),
       st.sampled_from([lambda s: 3.0 * s + 0.5, lambda s: s * s * s, math.sqrt]))
def test_ap_ignores_order_and_monotone_score_transforms(dets, gts, rnd, transform):
    assume(len({s for _, s in dets}) == len(dets))
    base = average_precision(dets, gts)
    shuffled = list(dets)
    rnd.shuffle(shuffled)
    moved = [(b, transform(s)) for b, s in dets]
    assume(len({s for _, s in moved}) == len(moved))
    for other in (shuffled, moved):
        got = average_precision(other, gts)
        assert (math.isnan(base) and math.isnan(got)) or got == base


# results.jsonl encoding ---------------------------------------------------

def _dumped(rows):
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)


def test_write_results_matches_json_dumps_on_edge_floats(tmp_path):
    f64 = np.float64
    rows = [
        {"label_id": 0, "scene_id": 3,
         "detections": [{"box": [f64(0.1), f64(0.25), f64(1 / 3), f64(2 / 3)],
                         "score": 0.1 + 0.2}]},
        {"label_id": 7, "scene_id": 0,
         "detections": [{"box": [5e-324, 0.0, -0.0, 1e300], "score": math.nan},
                        {"box": [0.5, 0.5, 0.5, 0.5], "score": math.inf},
                        {"box": [5e-324, 0.0, -0.0, 1e300], "score": -math.inf},
                        {"box": [math.nan, -math.inf, math.inf, 1.0], "score": 5e-324}]},
        {"label_id": 8, "scene_id": 1, "detections": []},
    ]
    path = tmp_path / "results.jsonl"
    evalkit.write_results(path, rows)
    assert path.read_text(encoding="utf-8") == _dumped(rows)
    # the array table and the {(label, scene): detections} mapping write the same bytes
    table = evalkit._normalize_results(rows)
    assert isinstance(table, Results)
    for form in (table, {key: list(zip(d.boxes.tolist(), d.scores.tolist()))
                         for key, d in table.items()}):
        evalkit.write_results(path, form)
        assert path.read_text(encoding="utf-8") == _dumped(rows)


finite_or_not = st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6),
                          st.lists(st.tuples(st.lists(finite_or_not, min_size=4, max_size=4),
                                             finite_or_not), max_size=4)),
                max_size=4, unique_by=lambda r: (r[0], r[1])))
def test_write_results_matches_json_dumps_on_any_float(tmp_path_factory, rows):
    rows = [{"label_id": label, "scene_id": scene,
             "detections": [{"box": box, "score": score} for box, score in dets]}
            for label, scene, dets in rows]
    path = tmp_path_factory.mktemp("enc") / "results.jsonl"
    evalkit.write_results(path, rows)
    assert path.read_text(encoding="utf-8") == _dumped(rows)


def test_results_rows_round_trip_through_the_table(small_benchmark):
    rows = perfect_results(small_benchmark)
    assert list(evalkit._normalize_results(rows).rows()) == rows
