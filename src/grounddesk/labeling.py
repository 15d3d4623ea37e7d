"""The compositionally blind weak detector and weak-to-strong pseudo-box
generation, with the single-pass grounding baseline it improves on.

The weak detector scores each object of a Scene by lexical coverage: the
fraction of the object's profile words mentioned in the query, degraded
geometrically for long queries and perturbed by a small seeded noise term.
It localizes short positive phrases well but fires on every mentioned
entity when handed a full sentence, which is exactly the failure the
decomposition repairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pools
from .langparse import Lexicon, ParseTree, noun_phrases, parse
from .scenegen import Scene, box_iou, phrase_referents
from .seeding import derive_seed

STOPWORDS = frozenset(pools.DETERMINERS) | frozenset(
    tok for rel in pools.RELATION_WORDS for tok in rel.split())


class EmptyQueryError(ValueError):
    pass


@dataclass(frozen=True)
class Detection:
    proposal_index: int
    box: tuple[float, float, float, float]
    score: float
    query_text: str


@dataclass(frozen=True)
class PseudoTriplet:
    scene_id: int
    description: str
    assignments: tuple[tuple[int, tuple[int, int]], ...]  # (proposal_index, phrase span)
    provenance: str  # "weak_to_strong" | "grounding_baseline"


@dataclass(frozen=True)
class LabelerConfig:
    threshold_p: float = 0.5
    max_dets_per_phrase: int = 3

    def __post_init__(self):
        if not 0.0 <= self.threshold_p <= 1.0:
            raise ValueError("threshold_p must lie in [0, 1]")


@dataclass(frozen=True)
class BowConfig:
    gamma: float = 0.93
    length_floor: int = 4  # content words before degradation kicks in
    noise_scale: float = 0.05
    seed: int = 0


def content_words(query_text: str) -> list[str]:
    return [t for t in query_text.lower().split() if t not in STOPWORDS]


class BowDetector:
    """Bag-of-words lexical matcher over a scene's objects: each object is
    scored by the coverage of its lexical profile."""

    def __init__(self, config: BowConfig | None = None):
        self.config = config or BowConfig()

    def detect(self, scene: Scene, query_text: str) -> list[Detection]:
        """Score every object of the scene against the query, highest first,
        lower proposal index first on ties."""
        words = content_words(query_text)
        if not words:
            raise EmptyQueryError(f"query {query_text!r} has no content words")
        cfg = self.config
        qset = set(words)
        degrade = cfg.gamma ** max(0, len(words) - cfg.length_floor)
        rng = np.random.default_rng(derive_seed(cfg.seed, "bow", scene.scene_id,
                                                " ".join(sorted(qset))))
        objects = scene.objects
        eta = rng.uniform(0.0, cfg.noise_scale, size=len(objects)).tolist()
        ranked = []
        for i, (obj, noise) in enumerate(zip(objects, eta)):
            prof = obj.lexical_profile
            coverage = len(qset & prof) / len(prof) if prof else 0.0
            ranked.append((-min(1.0, max(0.0, coverage * degrade + noise)), i))
        ranked.sort()
        return [Detection(i, tuple(objects[i].box), -neg_score, query_text)
                for neg_score, i in ranked]


def _thresholded(dets, config: LabelerConfig):
    kept = [d for d in dets if d.score >= config.threshold_p]
    kept.sort(key=lambda d: (-d.score, d.proposal_index))
    return kept[:config.max_dets_per_phrase]


def weak_to_strong_label(scene: Scene, description: str, detector, config: LabelerConfig,
                         lexicon: Lexicon | None = None,
                         tree: ParseTree | None = None) -> PseudoTriplet:
    """Decompose the description into per-noun-phrase detection tasks.

    Each phrase is run through the detector alone; surviving boxes are
    re-assigned to the phrase's original span in the description. `tree`
    is the description's parse tree, parsed here when not given.
    """
    tree = tree or parse(description, lexicon)
    assignments = []
    for phrase in noun_phrases(tree):
        query = " ".join(tree.tokens[phrase.start_token:phrase.end_token])
        for det in _thresholded(detector.detect(scene, query), config):
            assignments.append((det.proposal_index, (phrase.start_token, phrase.end_token)))
    return PseudoTriplet(scene_id=scene.scene_id, description=description,
                         assignments=tuple(dict.fromkeys(assignments)),
                         provenance="weak_to_strong")


def grounding_label(scene: Scene, description: str, detector, config: LabelerConfig,
                    lexicon: Lexicon | None = None,
                    tree: ParseTree | None = None) -> PseudoTriplet:
    """Single whole-description detector pass, the baseline strategy.

    A bag-of-words detector cannot attribute detections to individual
    phrases, so every surviving box lands on the subject span. `tree` is as
    in weak_to_strong_label().
    """
    tree = tree or parse(description, lexicon)
    subj = tree.subject
    span = (subj.start_token, subj.end_token)
    assignments = [(det.proposal_index, span)
                   for det in _thresholded(detector.detect(scene, description), config)]
    return PseudoTriplet(scene_id=scene.scene_id, description=description,
                         assignments=tuple(dict.fromkeys(assignments)),
                         provenance="grounding_baseline")


def label_recall(triplet: PseudoTriplet, scene: Scene, lexicon: Lexicon | None = None,
                 tree: ParseTree | None = None) -> float:
    """Fraction of the description's referent-bearing noun phrases covered by
    an assigned box at IoU >= 0.5 with a matching span. `tree` is the
    description's parse tree, parsed here when not given."""
    if triplet.scene_id != scene.scene_id:
        raise ValueError(f"triplet scene {triplet.scene_id} does not match scene {scene.scene_id}")
    tree = tree or parse(triplet.description, lexicon)
    n_objects = len(scene.objects)
    eligible = 0
    covered = 0
    for phrase in noun_phrases(tree):
        referents = phrase_referents(scene, tree, phrase)
        if not referents:
            continue
        eligible += 1
        span = (phrase.start_token, phrase.end_token)
        ref_boxes = [scene.object_by_id(i).box for i in referents]
        for idx, a_span in triplet.assignments:
            if a_span != span or idx >= n_objects:
                continue
            box = scene.objects[idx].box
            if any(box_iou(box, rb) >= 0.5 for rb in ref_boxes):
                covered += 1
                break
    return covered / eligible if eligible else 0.0


def triplet_to_json(t: PseudoTriplet) -> dict:
    return {"scene_id": t.scene_id, "description": t.description,
            "assignments": [{"proposal_index": i, "span": list(s)} for i, s in t.assignments],
            "provenance": t.provenance}


def triplet_from_json(row: dict) -> PseudoTriplet:
    return PseudoTriplet(scene_id=row["scene_id"], description=row["description"],
                         assignments=tuple((a["proposal_index"], tuple(a["span"]))
                                           for a in row["assignments"]),
                         provenance=row["provenance"])
