"""The groundnet training step as it was before the flat gradient buffer:
per-block gradient dicts, slot ids rebuilt on every forward, and a per-block
momentum update. The oracle tests require groundnet's forward, loss_and_grad
and train to equal these bit for bit."""

from __future__ import annotations

import math

import numpy as np

from grounddesk.corpus import CorpusError
from grounddesk import groundnet
from grounddesk.groundnet import (AlignmentScores, GroundingModel, LossReport, NumericError,
                                  TrainConfig)
from grounddesk.seeding import derive_seed
from grounddesk.targets import AlignmentTarget, Query


def compile_query(model: GroundingModel, query: Query) -> np.ndarray:
    """The 3 x M int32 index array (token ids, positions, segment ids) that
    forward() reads: the ids of groundnet's compiled query."""
    return groundnet.compile_query(model, query).ids


def sigmoid(x: np.ndarray) -> np.ndarray:
    with np.errstate(under="ignore"):
        ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


def _scatter_rows(flat_ids: np.ndarray, rows: np.ndarray, n_rows: int = 0) -> np.ndarray:
    width = rows.shape[1]
    return np.bincount(flat_ids, weights=rows.ravel(), minlength=n_rows * width).reshape(-1, width)


def forward(model: GroundingModel, region_features,
            query: Query | np.ndarray) -> AlignmentScores:
    x = getattr(region_features, "features", region_features)
    x = np.asarray(x, dtype=float)
    if x.shape[1] != model.d_in:
        raise ValueError(f"feature width {x.shape[1]} does not match model d_in {model.d_in}")
    if isinstance(query, Query):
        query = compile_query(model, query)
    p = model.params
    d = model.d_model
    o = x @ p["visual.weight"] + p["visual.bias"]
    tok_ids, pos_ids, seg_ids = query
    flat_ids = (query[:, :, None] * d + np.arange(d, dtype=query.dtype)).reshape(3, -1)
    e = p["text.embeddings"][tok_ids]
    c = e + p["text.positions"][pos_ids]
    seg_sum = _scatter_rows(flat_ids[2], c)
    seg_count = np.bincount(seg_ids).astype(float)
    seg_mean = seg_sum / seg_count[:, None]
    mean_rows = seg_mean[seg_ids]
    c_prev = np.empty_like(c)
    c_prev[:1] = 0.0
    c_prev[1:] = c[:-1]
    h = e + mean_rows @ p["mix.global"].T + c @ p["mix.self"].T + c_prev @ p["mix.prev"].T
    scale = p["logit_scale"][0, 0]
    logits_raw = o @ h.T
    cache = {"X": x, "O": o, "E": e, "C": c, "Cprev": c_prev, "mean_rows": mean_rows,
             "seg_ids": seg_ids, "seg_count": seg_count, "H": h, "flat_ids": flat_ids,
             "A": logits_raw}
    return AlignmentScores(S=scale * logits_raw, cache=cache)


def alignment_loss(scores_matrix: np.ndarray, target: AlignmentTarget) -> float:
    mask = target.loss_mask
    denom = mask.sum()
    if denom == 0:
        raise ValueError("empty loss mask: every column is a separator")
    s, t = scores_matrix, target.matrix
    return float((mask * (np.logaddexp(0.0, s) - t * s)).sum() / denom)


def loss_and_grad(model: GroundingModel, scores: AlignmentScores,
                  target: AlignmentTarget) -> tuple[LossReport, dict]:
    loss = alignment_loss(scores.S, target)
    cache = scores.cache
    p = model.params
    mask, t = target.loss_mask, target.matrix
    denom = mask.sum()
    g = mask * (sigmoid(scores.S) - t) / denom

    scale = p["logit_scale"][0, 0]
    d_raw = scale * g
    d_o = d_raw @ cache["H"]
    d_h = d_raw.T @ cache["O"]
    seg_ids, seg_count = cache["seg_ids"], cache["seg_count"]
    tok_flat, pos_flat, seg_flat = cache["flat_ids"]

    d_mean_rows = d_h @ p["mix.global"]
    d_seg = _scatter_rows(seg_flat, d_mean_rows)
    d_c = d_h @ p["mix.self"]
    d_c[:-1] += (d_h @ p["mix.prev"])[1:]
    d_c += (d_seg / seg_count[:, None])[seg_ids]
    d_e = d_h + d_c

    grads = {
        "logit_scale": np.array([[float((g * cache["A"]).sum())]]),
        "visual.weight": cache["X"].T @ d_o,
        "visual.bias": d_o.sum(axis=0, keepdims=True),
        "mix.global": d_h.T @ cache["mean_rows"],
        "mix.self": d_h.T @ cache["C"],
        "mix.prev": d_h.T @ cache["Cprev"],
        "text.embeddings": _scatter_rows(tok_flat, d_e, len(p["text.embeddings"])),
        "text.positions": _scatter_rows(pos_flat, d_c, len(p["text.positions"])),
    }
    return LossReport(grounding_loss=loss), grads


def train(model: GroundingModel, triplet_examples, detection_examples,
          config: TrainConfig) -> tuple[GroundingModel, list]:
    trip = list(triplet_examples)
    det = list(detection_examples)
    ratio = config.detection_mix_ratio
    if ratio > 0 and not det:
        raise CorpusError("detection_mix_ratio > 0 requires a detection corpus")
    if ratio < 1 and not trip:
        raise CorpusError("detection_mix_ratio < 1 requires a triplet corpus")
    frozen = model.frozen_names(config.freeze_visual, config.freeze_language,
                                config.freeze_fusion)
    velocity = {k: np.zeros_like(v) for k, v in model.params.items()}
    history = []
    n_source = len(det) if ratio >= 1.0 else len(trip)
    n_batches = max(1, math.ceil(n_source / config.batch_size))
    compiled = {"trip": [compile_query(model, ex.query) for ex in trip],
                "det": [compile_query(model, ex.query) for ex in det]}

    for epoch in range(config.epochs):
        rng = np.random.default_rng(derive_seed(config.seed, "train-epoch", epoch))
        orders = {"trip": list(rng.permutation(len(trip))) if trip else [],
                  "det": list(rng.permutation(len(det))) if det else []}
        cursors = {"trip": 0, "det": 0}
        epoch_losses = []
        for _ in range(n_batches):
            use_det = rng.random() < ratio
            key, source = ("det", det) if use_det else ("trip", trip)
            batch = []
            for _k in range(min(config.batch_size, len(source))):
                if cursors[key] >= len(orders[key]):
                    orders[key] = list(rng.permutation(len(source)))
                    cursors[key] = 0
                batch.append(int(orders[key][cursors[key]]))
                cursors[key] += 1
            grad_sum: dict[str, np.ndarray] = {}
            loss_sum = 0.0
            for i in batch:
                ex = source[i]
                scores = forward(model, ex.features, compiled[key][i])
                report, grads = loss_and_grad(model, scores, ex.target)
                if not np.isfinite(report.grounding_loss):
                    raise NumericError(f"non-finite loss at epoch {epoch}")
                loss_sum += report.grounding_loss
                if not grad_sum:
                    grad_sum = grads
                    continue
                for name, grad in grads.items():
                    grad_sum[name] += grad
            inv = 1.0 / len(batch)
            for name, grad in grad_sum.items():
                if name in frozen:
                    continue
                velocity[name] = config.momentum * velocity[name] + grad * inv
                model.params[name] -= config.learning_rate * velocity[name]
            epoch_losses.append(loss_sum * inv)
        mean_loss = float(np.mean(epoch_losses))
        if not np.isfinite(mean_loss):
            raise NumericError(f"non-finite loss at epoch {epoch}")
        history.append((epoch, mean_loss))
    return model, history
