"""The trainable grounding model: an affine visual encoder and a contextual
token encoder scoring every (region, token) pair, with analytic gradients,
momentum-SGD training with freeze flags and detection-data mixing, and a
checkpoint written through the shared storage.TableFormat codec.

Token features are context-mixed: position i gets its embedding plus a
learned map of its own caption's mean, of its own (embedding + position)
vector, and of the previous position's. Positions count within the caption
item, so a caption encodes the same wherever it lands in the prompt. The same
token string therefore encodes differently across captions and differently
inside a sentence than standing alone, which is what lets training separate
intra-class negatives and structural positives from structural negatives.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .corpus import CorpusError
from .labeling import Detection
from .langparse import Lexicon, parse
from .targets import AlignmentTarget, CaptionItem, Query
from .seeding import derive_seed
from .storage import TableFormat, read_table, write_table

UNK = "<unk>"

PARAM_BLOCKS = {
    "visual": ("visual.weight", "visual.bias"),
    "language": ("text.embeddings",),
    "fusion": ("mix.global", "mix.self", "mix.prev", "text.positions", "logit_scale"),
}


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
        ex = np.exp(np.copysign(x, -1.0))  # e^-|x|
    out = np.where(x >= 0, 1.0, ex)
    out /= 1.0 + ex
    return out


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


class CompiledQuery(NamedTuple):
    """A query compiled once for one model: what forward() and
    loss_and_grad() need besides the parameters.

    ids: one 3 x M int32 array of token ids in the model's vocabulary,
    within-caption positions clipped to the model's last position, and
    segment ids. seg_count: each segment's token count, an (S, 1) int64
    column. mask: the loss mask, one (1, M) bool row, true on caption columns
    and false on separators: n captions take the segments 0..n-1 and the
    separators n..2n-2, so a separator's segment id is at or above n. As a
    factor it is exactly 1.0 or 0.0, and its sum is the number of caption
    columns."""
    ids: np.ndarray
    seg_count: np.ndarray
    mask: np.ndarray


def compile_query(model: GroundingModel, query: Query) -> CompiledQuery:
    """The query's CompiledQuery for this model."""
    seg_ids, within = _segments(query)
    # Each array owns its data: a view would keep its base alive as a second
    # object, and train holds one CompiledQuery per example.
    seg_count = np.bincount(seg_ids)[:, None].copy()
    return CompiledQuery(np.array([model.vocabulary.ids(query.tokens),
                                   np.minimum(within, model.max_positions - 1), seg_ids],
                                  dtype=np.int32),
                         seg_count, (seg_ids < (len(seg_count) + 1) // 2)[None].copy())


@functools.lru_cache(maxsize=None)
def _slot_table(d: int, rows: int) -> np.ndarray:
    """Scatter slots shared by every forward() at one d_model: entry (i, j) is
    i * d + j, the flat np.bincount slot of entry (i, j) of an (n, d) sum.
    Read-only; callers round `rows` up to a power of two, so that few tables
    are ever built."""
    table = np.arange(rows * d, dtype=np.intp).reshape(rows, d)
    table.flags.writeable = False
    return table


class Gradients(dict):
    """Every parameter block's gradient by name, each a view into `flat`, one
    float64 buffer, so that a batch sums all of them with one add."""
    __slots__ = ("flat",)


class _Layout(NamedTuple):
    """Where each block lies in a flat gradient buffer: the d_model-wide
    blocks' rows, token embeddings first and positions next, so that one
    np.bincount scatters both into the buffer it allocates, then
    logit_scale as the last float."""
    size: int
    rows: tuple[tuple[str, slice], ...]


@functools.lru_cache(maxsize=None)
def _layout(tokens: int, positions: int, d_in: int, d: int) -> _Layout:
    rows, start = [], 0
    for name, n in (("text.embeddings", tokens), ("text.positions", positions),
                    ("visual.weight", d_in), ("mix.global", d), ("mix.self", d),
                    ("mix.prev", d), ("visual.bias", 1)):
        rows.append((name, slice(start, start + n)))
        start += n
    return _Layout(start * d + 1, tuple(rows))


def _model_layout(model: GroundingModel) -> _Layout:
    p = model.params
    return _layout(len(p["text.embeddings"]), len(p["text.positions"]), model.d_in,
                   model.d_model)


def _gradient_views(flat: np.ndarray, layout: _Layout, d: int) -> Gradients:
    grads = Gradients()
    rows = flat[:-1].reshape(-1, d)
    for name, block in layout.rows:
        grads[name] = rows[block]
    grads["logit_scale"] = flat[-1:].reshape(1, 1)
    grads.flat = flat
    return grads


def forward(model: GroundingModel, region_features,
            query: Query | CompiledQuery) -> AlignmentScores:
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
    embeddings, positions = p["text.embeddings"], p["text.positions"]
    ids, seg_count = query.ids, query.seg_count
    tok_ids, pos_ids, seg_ids = ids[0], ids[1], ids[2]
    # Entry (k, j) of id row r scatters to flat slot ids[r, k] * d + j; the
    # position slots then move past the embedding rows, as in the gradient.
    rows = max(len(embeddings), len(positions), len(seg_count))
    flat_ids = _slot_table(d, 1 << (rows - 1).bit_length()).take(ids, axis=0).reshape(3, -1)
    flat_ids[1] += len(embeddings) * d
    o = x @ p["visual.weight"]
    o += p["visual.bias"]
    e = embeddings[tok_ids]
    # c (positions + embeddings) and c_prev (c one row down, zero first) are
    # two views of one buffer.
    c_rows = np.empty((len(e) + 1, d))
    c_rows[0] = 0.0
    c, c_prev = c_rows[1:], c_rows[:-1]
    np.add(positions[pos_ids], e, out=c)
    seg_mean = np.bincount(flat_ids[2], weights=c.ravel()).reshape(-1, d)
    seg_mean /= seg_count
    mean_rows = seg_mean[seg_ids]
    # ((e + mean_rows G^T) + c S^T) + c_prev P^T, one sum at a time.
    h = mean_rows @ p["mix.global"].T
    h += e
    h += c @ p["mix.self"].T
    h += c_prev @ p["mix.prev"].T
    logits_raw = o @ h.T
    cache = {"X": x, "O": o, "C": c, "Cprev": c_prev, "mean_rows": mean_rows,
             "seg_ids": seg_ids, "seg_count": seg_count, "mask": query.mask, "H": h,
             "flat_ids": flat_ids, "A": logits_raw}
    return AlignmentScores(S=p["logit_scale"][0, 0] * logits_raw, cache=cache)


# The step's sums call np.add.reduce, which ndarray.sum() wraps in Python:
# the same reduction, without the wrapper's cost on these small arrays.
def _masked_loss(s: np.ndarray, t: np.ndarray, mask: np.ndarray) -> tuple[float, int]:
    """mask * (log(1 + e^s) - t * s), summed and divided by the number of
    supervised cells, N x the sum of the (1, M) mask row; and that number."""
    denom = len(s) * np.add.reduce(mask, axis=None)
    if denom == 0:
        raise ValueError("empty loss mask: every column is a separator")
    cell = np.logaddexp(0.0, s)
    cell -= t * s
    cell *= mask
    return float(np.add.reduce(cell, axis=None) / denom), denom


def loss_and_grad(model: GroundingModel, scores: AlignmentScores,
                  target: AlignmentTarget) -> tuple[LossReport, Gradients]:
    """Loss plus analytic gradients for every parameter block, as views into
    one fresh flat buffer, Gradients.flat."""
    cache = scores.cache
    if cache is None:
        raise ValueError("scores must come from forward() to carry gradients")
    p = model.params
    d = model.d_model
    s, t = scores.S, target.matrix
    seg_ids, flat_ids, mask = cache["seg_ids"], cache["flat_ids"], cache["mask"]
    loss, denom = _masked_loss(s, t, mask)
    g = sigmoid(s)
    g -= t
    g *= mask
    g /= denom  # mask * (sigmoid(S) - T) / denom

    d_raw = p["logit_scale"][0, 0] * g
    d_h = d_raw.T @ cache["O"]
    d_seg = np.bincount(flat_ids[2], weights=(d_h @ p["mix.global"]).ravel()).reshape(-1, d)
    d_seg /= cache["seg_count"]
    # The rows scattered to the embeddings (d_h + d_c), then to the positions (d_c).
    scattered = np.empty((2,) + d_h.shape)
    d_c = np.matmul(d_h, p["mix.self"], out=scattered[1])
    d_c[:-1] += (d_h @ p["mix.prev"])[1:]
    d_c += d_seg[seg_ids]
    np.add(d_h, d_c, out=scattered[0])

    layout = _model_layout(model)
    flat = np.bincount(flat_ids[:2].ravel(), weights=scattered.ravel(), minlength=layout.size)
    grads = _gradient_views(flat, layout, d)
    d_o = d_raw @ cache["H"]
    np.matmul(cache["X"].T, d_o, out=grads["visual.weight"])
    np.add.reduce(d_o, axis=0, out=grads["visual.bias"], keepdims=True)
    d_h_t = d_h.T
    np.matmul(d_h_t, cache["mean_rows"], out=grads["mix.global"])
    np.matmul(d_h_t, cache["C"], out=grads["mix.self"])
    np.matmul(d_h_t, cache["Cprev"], out=grads["mix.prev"])
    flat[-1] = np.add.reduce(g * cache["A"], axis=None)
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
        """The types and ranges the CLI's train.* config rules check."""
        if type(self.epochs) is not int or type(self.batch_size) is not int:
            raise ValueError("epochs and batch_size must be integers")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
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
    # The velocity and each batch's step are flat, laid out as loss_and_grad's
    # Gradients.flat; each unfrozen parameter array is updated in place.
    layout = _model_layout(model)
    velocity = np.zeros(layout.size)
    step = np.empty_like(velocity)
    updates = [(model.params[name], block) for name, block in
               _gradient_views(step, layout, model.d_model).items() if name not in frozen]
    history = []
    n_source = len(det) if ratio >= 1.0 else len(trip)
    n_batches = max(1, math.ceil(n_source / config.batch_size))
    # Each example's CompiledQuery, built once; parallel to its corpus.
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
            grad_sum = None
            loss_sum = 0.0
            for i in batch:
                ex = source[i]
                scores = forward(model, ex.features, compiled[key][i])
                report, grads = loss_and_grad(model, scores, ex.target)
                if not math.isfinite(report.grounding_loss):
                    raise NumericError(f"non-finite loss at epoch {epoch}")
                loss_sum += report.grounding_loss
                if grad_sum is None:
                    grad_sum = grads.flat  # a fresh buffer, safe to accumulate into
                else:
                    grad_sum += grads.flat
            inv = 1.0 / len(batch)
            # velocity = momentum * velocity + grad_sum * inv, then
            # param -= learning_rate * velocity, one product or sum at a time.
            grad_sum *= inv
            velocity *= config.momentum
            velocity += grad_sum
            np.multiply(velocity, config.learning_rate, out=step)
            for param, block in updates:
                param -= block
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
    compiled query; for each label the score columns its detections
    aggregate over, one run of adjacent columns; and the runs' bounds as
    np.maximum.reduceat indices, under which segment 2k is label k's run."""
    compiled: CompiledQuery
    columns: tuple[np.ndarray, ...]
    bounds: np.ndarray


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
    # A separator follows every caption but the last, so each run ends before
    # the next begins; the last run's end is no index when it is the prompt's.
    bounds = [int(edge) for cols in columns for edge in (cols[0], cols[-1] + 1)]
    if bounds and bounds[-1] == query.m:
        bounds.pop()
    return Prompt(compile_query(model, query), tuple(columns), np.array(bounds, dtype=np.intp))


def proposal_boxes(region_features) -> np.ndarray:
    """Each region's (x, y, w, h) box as an (N, 4) array; the whole image for
    features without proposals."""
    proposals = getattr(region_features, "proposals", None)
    if proposals:
        return np.array(proposals, dtype=float)
    return np.tile((0.0, 0.0, 1.0, 1.0), (len(getattr(region_features, "features",
                                                     region_features)), 1))


def predict(model: GroundingModel, region_features, query_text: str,
            score_threshold: float = 0.5, lexicon: Lexicon | None = None) -> list[Detection]:
    """Detections for a free-text query: per-region max sigmoid score over the
    query's subject-span tokens, above the threshold, sorted descending."""
    prompt = compile_prompt(model, [parse(query_text, lexicon)], span="subject")
    [(indices, scores)] = predict_grouped(model, region_features, prompt, score_threshold)
    boxes = proposal_boxes(region_features)[indices].tolist()
    return [Detection(i, tuple(box), s, query_text)
            for i, box, s in zip(indices.tolist(), boxes, scores.tolist())]


def predict_grouped(model: GroundingModel, region_features, prompt: Prompt,
                    score_threshold: float = 0.5,
                    agg: str = "max") -> list[tuple[np.ndarray, np.ndarray]]:
    """Score several labels in one multi-caption prompt (separator-joined),
    matching the query format the model is trained on. `prompt` is a
    compile_prompt() of the labels for this model, which fixes each label's
    score columns; a region's score for a label aggregates over them (agg
    "mean" or "max").

    Returns, for each label, the proposal indices and scores of the regions
    scoring above the threshold, highest score first, lower index first on
    ties.
    """
    if agg not in AGGREGATIONS:
        raise ValueError(f"unknown aggregation {agg!r}; expected one of {list(AGGREGATIONS)}")
    sig = sigmoid(forward(model, region_features, prompt.compiled).S)
    if not prompt.columns:
        return []
    # Each region's score for each label, (N, labels). A max is exact in any
    # order; a mean keeps the per-label sum.
    if agg == "max":
        per_label = np.maximum.reduceat(sig, prompt.bounds, axis=1)[:, ::2]
    else:
        per_label = np.stack([sig[:, columns].mean(axis=1) for columns in prompt.columns],
                             axis=1)
    hit = per_label > score_threshold
    regions, labels = np.nonzero(hit)
    scores = per_label[hit]
    order = np.lexsort((regions, -scores, labels))
    regions, scores = regions[order], scores[order]
    ends = np.cumsum(np.bincount(labels, minlength=len(prompt.columns))).tolist()
    return [(regions[lo:hi], scores[lo:hi]) for lo, hi in zip([0] + ends, ends)]


# model.ckpt: the parameter blocks in sorted-name order, each shaped from
# the counts, so blocks that disagree cannot be written or read back.
CHECKPOINT_BLOCKS = (("logit_scale", (1, 1)), ("mix.global", ("d_model", "d_model")),
                     ("mix.prev", ("d_model", "d_model")), ("mix.self", ("d_model", "d_model")),
                     ("text.embeddings", ("tokens", "d_model")),
                     ("text.positions", ("positions", "d_model")),
                     ("visual.bias", (1, "d_model")), ("visual.weight", ("d_in", "d_model")))
CHECKPOINT_TABLE = TableFormat("model checkpoint", b"WSCL", 2,
                               ("tokens", "d_in", "d_model", "positions"),
                               tuple(("<f8", shape) for _, shape in CHECKPOINT_BLOCKS))


def save_checkpoint(model: GroundingModel, path) -> None:
    """model.ckpt: a CHECKPOINT_TABLE of u64 token, d_in, d_model and
    position counts, then each block as little-endian float64."""
    write_table(path, CHECKPOINT_TABLE,
                (len(model.vocabulary), model.d_in, model.d_model, model.max_positions),
                [[model.params[name]] for name, _ in CHECKPOINT_BLOCKS])


def load_checkpoint(path, vocabulary: Vocabulary) -> GroundingModel:
    """Read a save_checkpoint() file whose embeddings cover `vocabulary`.
    Raises ValueError naming the file."""
    (tokens, d_in, d_model, positions), blocks = read_table(path, CHECKPOINT_TABLE)
    if tokens != len(vocabulary):
        raise ValueError(f"{path}: embeddings cover {tokens} tokens but the vocabulary "
                         f"has {len(vocabulary)}")
    model = GroundingModel.__new__(GroundingModel)
    model.vocabulary = vocabulary
    model.d_in = d_in
    model.d_model = d_model
    model.max_positions = positions
    model.params = {name: block for (name, _), block in zip(CHECKPOINT_BLOCKS, blocks)}
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
        fh.readline()  # the header
        for line in fh:
            epoch, grounding = line.strip().split(",")[:2]
            out.append((int(epoch), float(grounding)))
    return out
