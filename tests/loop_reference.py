"""The per-item loops of the data stages and of inference as they were before
their loop-invariant work was hoisted: scenegen.render_features summing
each object's word vectors one at a time, labeling.BowDetector.detect
scoring from numpy scalars and sorting Detections, and
groundnet.predict_grouped ranking one label at a time. The pin tests
require the library to equal these bit for bit."""

from __future__ import annotations

import numpy as np

from grounddesk import scenegen
from grounddesk.groundnet import forward, sigmoid
from grounddesk.labeling import Detection, EmptyQueryError, content_words
from grounddesk.seeding import derive_seed


def word_vector(word: str, d: int) -> np.ndarray:
    """scenegen.word_vector, recomputed on every call."""
    v = np.random.default_rng(derive_seed(0, "wordvec", word, d)).standard_normal(d)
    return v / np.linalg.norm(v)


def render_features(scene, noise_seed, d=64, b=2, sigma=0.05):
    """(proposals, features) of scenegen.render_features: each object's row
    summed word by word from a zero row."""
    rng = np.random.default_rng(derive_seed(noise_seed, "features", scene.scene_id))
    n = len(scene.objects) + b
    feats = np.zeros((n, d))
    proposals = []
    for i, obj in enumerate(scene.objects):
        row = np.zeros(d)
        for word in sorted(frozenset(obj.category.split()) | obj.attributes):
            row += word_vector(word, d)
        row[:4] += np.asarray(obj.box) * scenegen.BOX_ENCODING_SCALE
        feats[i] = row
        proposals.append(obj.box)
    feats += rng.standard_normal((n, d)) * (sigma / np.sqrt(d))
    for _ in range(b):
        w, h = rng.uniform(0.05, 0.3), rng.uniform(0.05, 0.3)
        proposals.append((rng.uniform(0, 1 - w), rng.uniform(0, 1 - h), w, h))
    return tuple(proposals), feats


def detect(config, scene, query_text: str) -> list[Detection]:
    """labeling.BowDetector(config).detect(scene, query_text)."""
    words = content_words(query_text)
    if not words:
        raise EmptyQueryError(f"query {query_text!r} has no content words")
    qset = set(words)
    degrade = config.gamma ** max(0, len(words) - config.length_floor)
    rng = np.random.default_rng(derive_seed(config.seed, "bow", scene.scene_id,
                                            " ".join(sorted(qset))))
    eta = rng.uniform(0.0, config.noise_scale, size=len(scene.objects))
    dets = []
    for i, obj in enumerate(scene.objects):
        prof = frozenset(obj.category.split()) | obj.attributes
        coverage = len(qset & prof) / len(prof) if prof else 0.0
        score = min(1.0, max(0.0, coverage * degrade + eta[i]))
        dets.append(Detection(i, tuple(obj.box), float(score), query_text))
    dets.sort(key=lambda d: (-d.score, d.proposal_index))
    return dets


def predict_grouped(model, region_features, prompt, score_threshold=0.5, agg="max"):
    """groundnet.predict_grouped: each label's regions above the threshold,
    ranked one label at a time."""
    sig = sigmoid(forward(model, region_features, prompt.compiled).S)
    out = []
    for columns in prompt.columns:
        block = sig[:, columns]
        per_region = block.mean(axis=1) if agg == "mean" else block.max(axis=1)
        keep = np.flatnonzero(per_region > score_threshold)
        scores = per_region[keep]
        order = np.argsort(-scores, kind="stable")
        out.append((keep[order], scores[order]))
    return out
