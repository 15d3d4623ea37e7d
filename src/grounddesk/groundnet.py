"""The trainable grounding model: an affine visual encoder and a contextual
token encoder scoring every (region, token) pair, with analytic gradients,
momentum-SGD training with freeze flags and detection-data mixing, and a
binary checkpoint format.

Token features are context-mixed: position i gets its embedding plus a
learned map of its own caption's mean, of its own (embedding + position)
vector, and of the previous position's. Positions count within the caption
item, so a caption encodes the same wherever it lands in the prompt. The same
token string therefore encodes differently across captions and differently
inside a sentence than standing alone, which is what lets training separate
intra-class negatives and structural positives from structural negatives.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .corpus import CorpusError
from .labeling import Detection
from .langparse import Lexicon, parse
from .targets import AlignmentTarget, CaptionItem, Query
from .seeding import derive_seed

UNK = "<unk>"

PARAM_BLOCKS = {
    "visual": ("visual.weight", "visual.bias"),
    "language": ("text.embeddings",),
    "fusion": ("mix.global", "mix.self", "mix.prev", "text.positions", "logit_scale"),
}
PARAM_NAMES = frozenset(name for block in PARAM_BLOCKS.values() for name in block)


class NumericError(RuntimeError):
    pass


@dataclass(frozen=True)
class Vocabulary:
    tokens: tuple[str, ...]

    @staticmethod
    def build(words) -> "Vocabulary":
        toks = sorted(set(words) | {UNK, "."})
        return Vocabulary(tokens=tuple(toks))

    @property
    def index(self) -> dict:
        cached = getattr(self, "_index", None)
        if cached is None:
            cached = {t: i for i, t in enumerate(self.tokens)}
            object.__setattr__(self, "_index", cached)
        return cached

    def ids(self, tokens) -> np.ndarray:
        index = self.index
        get, unk = index.get, index[UNK]
        return np.asarray([get(t, unk) for t in tokens], dtype=np.int64)

    def __len__(self) -> int:
        return len(self.tokens)


class GroundingModel:
    """Parameter container; every parameter is a 2-D float64 array."""

    def __init__(self, vocabulary: Vocabulary, d_in: int, d_model: int = 32,
                 max_positions: int = 64, seed: int = 0):
        self.vocabulary = vocabulary
        self.d_in = d_in
        self.d_model = d_model
        self.max_positions = max_positions
        rng = np.random.default_rng(derive_seed(seed, "model-init"))
        v = len(vocabulary)
        self.params: dict[str, np.ndarray] = {
            "visual.weight": rng.normal(0.0, 1.0 / np.sqrt(d_in), (d_in, d_model)),
            "visual.bias": np.zeros((1, d_model)),
            "text.embeddings": rng.normal(0.0, 0.3, (v, d_model)),
            "text.positions": rng.normal(0.0, 0.1, (max_positions, d_model)),
            "mix.global": np.zeros((d_model, d_model)),
            "mix.self": np.zeros((d_model, d_model)),
            "mix.prev": np.zeros((d_model, d_model)),
            "logit_scale": np.array([[1.0]]),
        }

    def frozen_names(self, visual=False, language=False, fusion=False) -> set:
        out: set[str] = set()
        if visual:
            out.update(PARAM_BLOCKS["visual"])
        if language:
            out.update(PARAM_BLOCKS["language"])
        if fusion:
            out.update(PARAM_BLOCKS["fusion"])
        return out


@dataclass
class AlignmentScores:
    S: np.ndarray  # N x M logits
    cache: dict | None = None

    @property
    def token_features(self) -> np.ndarray:
        """Context-mixed token features P (M x d_model)."""
        return self.cache["H"]


@dataclass(frozen=True)
class LossReport:
    grounding_loss: float


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below, so exp never overflows;
    its underflow to 0 far from the origin is exact in both branches."""
    with np.errstate(under="ignore"):
        ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


def _segments(query: Query):
    """Per-token caption index and within-caption position; separators form
    singleton segments at position 0."""
    n_items = len(query.items)
    seg, within = [], []
    for k, item in enumerate(query.items):
        if k:  # the separator before caption k
            seg.append(n_items + k - 1)
            within.append(0)
        seg += [k] * len(item.tokens)
        within += range(len(item.tokens))
    return np.array(seg, dtype=np.int64), np.array(within, dtype=np.int64)


def compile_query(model: GroundingModel, query: Query) -> np.ndarray:
    """The per-token indices forward() needs, as one 3 x M int32 array: token
    ids in the model's vocabulary, within-caption positions clipped to the
    model's last position, and segment ids."""
    seg_ids, within = _segments(query)
    return np.array([model.vocabulary.ids(query.tokens),
                     np.minimum(within, model.max_positions - 1), seg_ids], dtype=np.int32)


def _scatter_rows(flat_ids: np.ndarray, rows: np.ndarray, n_rows: int = 0) -> np.ndarray:
    """out[i] = sum of rows[k] with ids[k] == i, added in k order from zero,
    i.e. np.add.at; flat_ids holds ids[k] * width + column for every entry."""
    width = rows.shape[1]
    return np.bincount(flat_ids, weights=rows.ravel(), minlength=n_rows * width).reshape(-1, width)


def forward(model: GroundingModel, region_features,
            query: Query | np.ndarray) -> AlignmentScores:
    """Alignment logits S = encoded regions x encoded tokens^T x logit_scale.

    `query` is a Query or its compile_query() form for this model."""
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
    # Entry (k, j) of id row r scatters to flat slot ids[r, k] * d + j.
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
    """Mean masked elementwise binary cross-entropy of sigmoid(S) against T."""
    mask = target.loss_mask
    denom = mask.sum()
    if denom == 0:
        raise ValueError("empty loss mask: every column is a separator")
    s, t = scores_matrix, target.matrix
    return float((mask * (np.logaddexp(0.0, s) - t * s)).sum() / denom)


def loss_and_grad(model: GroundingModel, scores: AlignmentScores,
                  target: AlignmentTarget) -> tuple[LossReport, dict]:
    """Loss plus analytic gradients for every parameter block."""
    if scores.cache is None:
        raise ValueError("scores must come from forward() to carry gradients")
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


@dataclass(frozen=True)
class TrainExample:
    features: np.ndarray  # N x d_in
    query: Query
    target: AlignmentTarget
    scene_id: int = -1


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    learning_rate: float = 0.1
    momentum: float = 0.9
    batch_size: int = 8
    freeze_visual: bool = False
    freeze_language: bool = False
    freeze_fusion: bool = False
    detection_mix_ratio: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.detection_mix_ratio <= 1.0:
            raise ValueError("detection_mix_ratio must lie in [0, 1]")


def train(model: GroundingModel, triplet_examples, detection_examples,
          config: TrainConfig) -> tuple[GroundingModel, list]:
    """Momentum-SGD training, deterministic for a fixed config and seed.

    Each batch draws from the detection corpus with probability
    detection_mix_ratio, else from the triplet corpus; frozen blocks are
    never touched. Returns the model and per-epoch (epoch, grounding_loss)
    rows. Raises NumericError on a non-finite loss.
    """
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
    # Each example's token indices, compiled once; parallel to its corpus.
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
                    grad_sum = grads  # fresh arrays, safe to accumulate into
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


# How a label's score for a region aggregates over the label's token columns.
AGGREGATIONS = ("max", "mean")


class Prompt(NamedTuple):
    """Labels compiled into one multi-caption prompt for one model: forward()'s
    index array, and for each label the score columns its detections
    aggregate over."""
    compiled: np.ndarray
    columns: tuple[np.ndarray, ...]


def compile_prompt(model: GroundingModel, trees, span: str = "caption") -> Prompt:
    """The separator-joined prompt of the labels' parse trees. span="caption"
    scores a label over all of its tokens, span="subject" over its subject
    phrase only."""
    query = Query(items=tuple(CaptionItem(tuple(t.tokens), "positive_description")
                              for t in trees))
    columns = []
    for idx, tree in enumerate(trees):
        off = query.item_offsets[idx]
        if span == "subject":
            columns.append(np.arange(off + tree.subject.start_token,
                                     off + tree.subject.end_token))
        else:
            columns.append(np.arange(off, off + len(tree.tokens)))
    return Prompt(compile_query(model, query), tuple(columns))


def proposal_boxes(region_features) -> np.ndarray:
    """Each region's (x, y, w, h) box as an (N, 4) array; the whole image for
    features without proposals."""
    proposals = getattr(region_features, "proposals", None)
    if proposals:
        return np.array(proposals, dtype=float)
    return np.tile((0.0, 0.0, 1.0, 1.0), (len(getattr(region_features, "features",
                                                     region_features)), 1))


def _label_detections(sig, columns, score_threshold, agg):
    """(proposal indices, scores) of the regions whose aggregated score is
    above the threshold, highest score first, lower index first on ties."""
    block = sig[:, columns]
    per_region = block.mean(axis=1) if agg == "mean" else block.max(axis=1)
    keep = np.flatnonzero(per_region > score_threshold)
    scores = per_region[keep]
    order = np.argsort(-scores, kind="stable")
    return keep[order], scores[order]


def predict(model: GroundingModel, region_features, query_text: str,
            score_threshold: float = 0.5, lexicon: Lexicon | None = None) -> list[Detection]:
    """Detections for a free-text query: per-region max sigmoid score over the
    query's subject-span tokens, above the threshold, sorted descending."""
    [(indices, scores)] = predict_grouped(model, region_features, [query_text],
                                          score_threshold, lexicon, span="subject")
    boxes = proposal_boxes(region_features)[indices].tolist()
    return [Detection(i, tuple(box), s, query_text)
            for i, box, s in zip(indices.tolist(), boxes, scores.tolist())]


def predict_grouped(model: GroundingModel, region_features, query_texts,
                    score_threshold: float = 0.5, lexicon: Lexicon | None = None,
                    span: str = "caption", agg: str = "max") -> list[tuple[np.ndarray, np.ndarray]]:
    """Score several labels in one multi-caption prompt (separator-joined),
    matching the query format the model is trained on.

    With span="caption" a region's score for a label aggregates over all of
    that label's tokens (agg "mean" or "max"), the regime under which
    entity-blind models fire on every mentioned object; span="subject"
    restricts to the label's subject phrase as in predict(). `query_texts`
    is the label texts, or a compile_prompt() of them for this model, which
    then fixes the span.

    Returns, for each label, the proposal indices and scores of the regions
    scoring above the threshold, highest score first, lower index first on
    ties.
    """
    if agg not in AGGREGATIONS:
        raise ValueError(f"unknown aggregation {agg!r}; expected one of {list(AGGREGATIONS)}")
    prompt = query_texts
    if not isinstance(prompt, Prompt):
        prompt = compile_prompt(model, [parse(text, lexicon) for text in query_texts], span)
    sig = sigmoid(forward(model, region_features, prompt.compiled).S)
    return [_label_detections(sig, columns, score_threshold, agg) for columns in prompt.columns]


class GroundingDetector:
    """Adapter so a trained model satisfies the labeling detector interface."""

    def __init__(self, model: GroundingModel, lexicon: Lexicon | None = None):
        self.model = model
        self.lexicon = lexicon

    def detect(self, region_features, query_text: str) -> list[Detection]:
        return predict(self.model, region_features, query_text,
                       score_threshold=-1.0, lexicon=self.lexicon)


MAGIC = b"WSCL"
CHECKPOINT_VERSION = 1


def save_checkpoint(model: GroundingModel, path) -> None:
    """Binary checkpoint: magic, u16 version, then per block
    (u32 name length, name, u32 rows, u32 cols, little-endian float64 data)."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<H", CHECKPOINT_VERSION))
        for name in sorted(model.params):
            arr = model.params[name]
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<II", arr.shape[0], arr.shape[1]))
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path, vocabulary: Vocabulary) -> GroundingModel:
    """Read a save_checkpoint() file, checking that it holds exactly the
    PARAM_BLOCKS blocks, each complete and of a shape that agrees with the
    others and with the vocabulary. Raises ValueError naming the file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    end = 0

    def take(n: int, what: str) -> bytes:
        nonlocal end
        if len(raw) - end < n:
            raise ValueError(f"{path}: truncated checkpoint: {what} needs {n} bytes, "
                             f"{len(raw) - end} left")
        end += n
        return raw[end - n:end]

    if raw[:4] != MAGIC:
        raise ValueError(f"{path}: not a model checkpoint")
    end = 4
    (version,) = struct.unpack("<H", take(2, "version"))
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    blocks: dict[str, np.ndarray] = {}
    while end < len(raw):
        (name_len,) = struct.unpack("<I", take(4, "block header"))
        try:
            name = take(name_len, "block name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: block name is not UTF-8") from exc
        if name not in PARAM_NAMES:
            raise ValueError(f"{path}: unexpected parameter block {name!r}")
        if name in blocks:
            raise ValueError(f"{path}: repeated parameter block {name!r}")
        rows, cols = struct.unpack("<II", take(8, f"{name} shape"))
        data = take(rows * cols * 8, f"{name} data")
        blocks[name] = np.frombuffer(data, dtype="<f8").reshape(rows, cols).copy()
    missing = PARAM_NAMES - set(blocks)
    if missing:
        raise ValueError(f"{path}: missing parameter blocks {sorted(missing)}")
    if blocks["text.embeddings"].shape[0] != len(vocabulary):
        raise ValueError(f"{path}: embeddings cover {blocks['text.embeddings'].shape[0]} "
                         f"tokens but the vocabulary has {len(vocabulary)}")
    d_in, d_model = blocks["visual.weight"].shape
    expected = {"visual.bias": (1, d_model), "text.embeddings": (len(vocabulary), d_model),
                "text.positions": (blocks["text.positions"].shape[0], d_model),
                "mix.global": (d_model, d_model), "mix.self": (d_model, d_model),
                "mix.prev": (d_model, d_model), "logit_scale": (1, 1)}
    for name, shape in expected.items():
        if blocks[name].shape != shape:
            raise ValueError(f"{path}: {name} has shape {blocks[name].shape}, "
                             f"expected {shape} for d_model {d_model}")
    model = GroundingModel.__new__(GroundingModel)
    model.vocabulary = vocabulary
    model.d_in = d_in
    model.d_model = d_model
    model.max_positions = blocks["text.positions"].shape[0]
    model.params = blocks
    return model


def save_history(path, history) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,grounding_loss\n")
        for epoch, grounding in history:
            fh.write(f"{epoch},{grounding!r}\n")


def load_history(path) -> list:
    """(epoch, grounding_loss) rows. Trees written before the `total` column
    was dropped still read: only the first two columns are used."""
    out = []
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            epoch, grounding = line.strip().split(",")[:2]
            out.append((int(epoch), float(grounding)))
    return out
