"""Training query assembly and binary alignment-target construction.

A query concatenates caption items separated by "." tokens: the positive
description, sampled intra-class negative captions, and standalone structural
positives (one per non-negated non-subject phrase). The target matrix encodes,
in order: sentence-level positives for subject boxes, structural negatives for
non-subject boxes inside the sentence, structural positives on the standalone
items, all-zero columns for intra-class negatives, and zeros elsewhere.
Separator columns are query structure, not supervision: the loss
(groundnet.loss_and_grad) leaves them out, and supervises everything else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import CorpusError, DescriptionIndex
from .labeling import PseudoTriplet
from .langparse import Lexicon, ParseTree, parse
from .scenegen import Scene
from .seeding import derive_seed

SEPARATOR = "."

KINDS = ("positive_description", "intra_class_negative", "structural_positive",
         "detection_category")


@dataclass(frozen=True)
class CaptionItem:
    tokens: tuple[str, ...]
    kind: str
    source_description_id: int | None = None
    source_span: tuple[int, int] | None = None  # phrase span for structural positives


@dataclass
class Query:
    items: tuple[CaptionItem, ...]
    tokens: tuple[str, ...] = ()
    item_offsets: tuple[int, ...] = ()

    def __post_init__(self):
        flat: list[str] = []
        offsets = []
        for idx, item in enumerate(self.items):
            if idx > 0:
                flat.append(SEPARATOR)
            offsets.append(len(flat))
            flat.extend(item.tokens)
        self.tokens = tuple(flat)
        self.item_offsets = tuple(offsets)

    @property
    def m(self) -> int:
        return len(self.tokens)

    def item_columns(self, item_index: int) -> range:
        off = self.item_offsets[item_index]
        return range(off, off + len(self.items[item_index].tokens))


@dataclass(frozen=True)
class AlignmentTarget:
    matrix: np.ndarray  # N x M, entries in {0, 1}


@dataclass(frozen=True)
class TargetConfig:
    """Which compositional signals the target matrix encodes.

    With sentence_level_positive off, subject boxes align with their span only
    (plain phrase-level grounding); with structural_negative off, non-subject
    boxes align positively with their in-sentence span. The default is the
    full method.
    """

    sentence_level_positive: bool = True
    structural_negative: bool = True
    sentence_positive_covers_nonsubject: bool = True


def assemble_query(triplet: PseudoTriplet, pool, k_neg: int, include_struct_pos: bool,
                   seed: int, lexicon: Lexicon | None = None) -> Query:
    """Positive description + k_neg intra-class negatives + structural
    positives, deterministically shuffled by seed. `pool` is the description
    list or its corpus.DescriptionIndex, which also gives the positive's
    parse tree."""
    index = pool if isinstance(pool, DescriptionIndex) else DescriptionIndex(pool, lexicon)
    position = index.position(triplet.description)
    if position is None:
        raise ValueError(f"triplet description not found in pool: {triplet.description!r}")
    positive = index.descriptions[position]
    candidates = [d for d in index.of_category(positive.category_id) if d.text != positive.text]
    if len(candidates) < k_neg:
        raise CorpusError(f"pool has {len(candidates)} same-category alternatives, need {k_neg}")
    rng = np.random.default_rng(derive_seed(seed, "query", triplet.scene_id, positive.id))
    items = [CaptionItem(tuple(positive.text.split()), "positive_description", positive.id)]
    if k_neg:
        for i in rng.choice(len(candidates), size=k_neg, replace=False):
            neg = candidates[int(i)]
            items.append(CaptionItem(tuple(neg.text.split()), "intra_class_negative", neg.id))
    if include_struct_pos:
        tree = index.tree(position)
        for phrase in tree.phrases[1:]:
            if phrase.negated:
                continue
            toks = tree.tokens[phrase.start_token:phrase.end_token]
            items.append(CaptionItem(tuple(toks), "structural_positive", positive.id,
                                     source_span=(phrase.start_token, phrase.end_token)))
    order = rng.permutation(len(items))
    return Query(items=tuple(items[int(i)] for i in order))


def build_alignment_target(query: Query, triplet: PseudoTriplet, n_regions: int,
                           config: TargetConfig | None = None,
                           lexicon: Lexicon | None = None,
                           tree: ParseTree | None = None) -> AlignmentTarget:
    """N x M binary target for a query/triplet pair (see module docstring).
    `tree` is the description's parse tree, parsed here when not given."""
    config = config or TargetConfig()
    tree = tree or parse(triplet.description, lexicon)
    spans = {(p.start_token, p.end_token): p for p in tree.phrases}
    subject_span = (tree.subject.start_token, tree.subject.end_token)

    for idx, span in triplet.assignments:
        if not 0 <= idx < n_regions:
            raise ValueError(f"assignment proposal {idx} out of range for N={n_regions}")
        if span not in spans:
            raise ValueError(f"assignment span {span} matches no phrase of the description")

    pos_items = [i for i, item in enumerate(query.items) if item.kind == "positive_description"]
    if len(pos_items) != 1:
        raise ValueError("query must contain exactly one positive_description item")
    pos_idx = pos_items[0]
    pos_off = query.item_offsets[pos_idx]

    t = np.zeros((n_regions, query.m))
    subject_boxes = sorted({idx for idx, span in triplet.assignments if span == subject_span})
    nonsubject = [(idx, span) for idx, span in triplet.assignments if span != subject_span]

    # sentence-level positive (or plain phrase-level alignment)
    if config.sentence_level_positive:
        cols = list(query.item_columns(pos_idx))
        if not config.sentence_positive_covers_nonsubject:
            drop = set()
            for span, phrase in spans.items():
                if phrase.role != "subject":
                    drop.update(range(pos_off + span[0], pos_off + span[1]))
            cols = [c for c in cols if c not in drop]
    else:
        cols = list(range(pos_off + subject_span[0], pos_off + subject_span[1]))
    for b in subject_boxes:
        t[b, cols] = 1.0

    # non-subject boxes: the structural negative pins their in-sentence span to
    # 0 (overriding any sentence-level positive for boxes that also carry a
    # subject assignment); without it they align positively with their span as
    # in conventional grounding data
    for idx, span in nonsubject:
        value = 0.0 if config.structural_negative else 1.0
        t[idx, pos_off + span[0]:pos_off + span[1]] = value

    # standalone structural positives
    for i, item in enumerate(query.items):
        if item.kind != "structural_positive":
            continue
        cols = list(query.item_columns(i))
        for idx, span in nonsubject:
            if span == item.source_span:
                t[idx, cols] = 1.0
        for b in subject_boxes:
            t[b, cols] = 0.0

    return AlignmentTarget(matrix=t)


def make_detection_query(category_names) -> Query:
    """GLIP-style multi-category prompt: one detection_category item per name."""
    items = tuple(CaptionItem(tuple(name.split()), "detection_category") for name in category_names)
    return Query(items=items)


def build_detection_target(query: Query, scene: Scene, n_regions: int) -> AlignmentTarget:
    """Box rows get 1 on their category's token columns; background rows stay 0."""
    t = np.zeros((n_regions, query.m))
    by_category = {}
    for i, item in enumerate(query.items):
        if item.kind == "detection_category":
            by_category.setdefault(item.tokens, []).append(i)
    for obj in scene.objects:
        if obj.instance_id >= n_regions:
            continue
        for i in by_category.get(tuple(obj.category.split()), ()):
            t[obj.instance_id, list(query.item_columns(i))] = 1.0
    return AlignmentTarget(matrix=t)


def _encode_binary(matrix: np.ndarray) -> str:
    """Row-major "0"/"1" string of a binary target matrix, one character per cell."""
    flat = matrix.reshape(-1)
    if not ((flat == 0) | (flat == 1)).all():
        raise ValueError("target matrix is not binary")
    return (flat.astype(np.uint8) + ord("0")).tobytes().decode("ascii")


def _decode_binary(text: str, n: int, m: int) -> np.ndarray:
    """Inverse of _encode_binary: an n x m float64 matrix."""
    if not isinstance(text, str):
        raise ValueError("target is not a string")
    # a non-ASCII character encodes as "?", which the range check rejects
    codes = np.frombuffer(text.encode("ascii", "replace"), np.uint8) - ord("0")
    if codes.size != n * m:
        raise ValueError(f"target string has {codes.size} cells, expected {n} x {m}")
    if (codes > 1).any():
        raise ValueError("target string holds a character other than 0/1")
    return codes.astype(np.float64).reshape(n, m)


def example_to_json(scene_id: int, query: Query, target: AlignmentTarget) -> dict:
    """One examples-file row: the query's captions in order, each as [kind,
    tokens], and the target as a row-major bit string."""
    return {
        "scene_id": scene_id,
        "captions": [[item.kind, list(item.tokens)] for item in query.items],
        "n_regions": len(target.matrix),
        "target": _encode_binary(target.matrix),
    }


def example_from_json(row: dict) -> tuple[int, Query, AlignmentTarget]:
    """Inverse of example_to_json. A caption of an unknown kind or without
    tokens raises ValueError."""
    items = []
    for kind, tokens in row["captions"]:
        if kind not in KINDS:
            raise ValueError(f"unknown caption kind {kind!r}")
        if not isinstance(tokens, list) or not tokens:
            raise ValueError(f"a {kind} caption is not a non-empty token list")
        items.append(CaptionItem(tuple(tokens), kind))
    query = Query(items=tuple(items))
    t = _decode_binary(row["target"], row["n_regions"], query.m)
    return row["scene_id"], query, AlignmentTarget(matrix=t)
