"""Symbolic scene synthesis: a parsed description becomes objects with boxes,
attributes and relation edges, plus distractors, rendered into seed-indexed
region features.

Boxes are (x, y, w, h) in unit-square image coordinates, y growing downward.
Relation semantics:
    on / under : vertical adjacency within 0.02 with x-overlap >= 50% of the
                 smaller width
    near / next to : disjoint boxes with gap <= 0.1
    inside     : containment
    with / holding : IoU in (0, 0.3]
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pools
from .corpus import DescriptionSpec, EntityCategory, generate_descriptions
from .evalkit import BenchmarkInstance, category_labels, description_label, iou as box_iou
from .langparse import ParseTree, parse, phrase_noun_tokens
from .seeding import derive_seed
from .storage import TableFormat, read_jsonl, read_table, row_slices, write_jsonl, write_table

ADJACENCY_EPS = 0.02
NEAR_GAP = 0.1
ATTACH_IOU = 0.3
BOX_ENCODING_SCALE = 0.25


class SceneConstructionError(RuntimeError):
    pass


@dataclass(frozen=True)
class SceneObject:
    instance_id: int
    category: str
    attributes: frozenset[str]
    box: tuple[float, float, float, float]

    @property
    def lexical_profile(self) -> frozenset[str]:
        return frozenset(self.category.split()) | self.attributes


@dataclass(frozen=True)
class Scene:
    scene_id: int
    description_id: int
    image_seed: int
    objects: tuple[SceneObject, ...]
    referent_ids: frozenset[int]
    relation_edges: tuple[tuple[int, str, int], ...]

    def object_by_id(self, instance_id: int) -> SceneObject:
        return next(o for o in self.objects if o.instance_id == instance_id)


@dataclass(frozen=True)
class RegionFeatures:
    proposals: tuple[tuple[float, float, float, float], ...]
    features: np.ndarray  # N x d float64
    noise_seed: int


@dataclass(frozen=True)
class DistractorConfig:
    confuser_prob: float = 0.5
    min_fillers: int = 1
    max_fillers: int = 2
    negation_confuser_prob: float = 0.8
    # chance of 0 / 1 / 2 undescribed attributes on constructed objects
    extra_attribute_weights: tuple[float, ...] = (0.45, 0.35, 0.20)
    filler_categories: tuple[tuple[str, tuple[str, ...]], ...] = tuple(
        (name, attrs) for name, attrs, _ in pools.DESK20)


def _interval_overlap(a0, a1, b0, b1) -> float:
    return max(0.0, min(a1, b1) - max(a0, b0))


def _box_gap(a, b) -> float:
    dx = max(0.0, max(b[0] - (a[0] + a[2]), a[0] - (b[0] + b[2])))
    dy = max(0.0, max(b[1] - (a[1] + a[3]), a[1] - (b[1] + b[3])))
    return float(np.hypot(dx, dy))


def relation_satisfied(relation: str, subject_box, object_box) -> bool:
    """Whether `subject relation object` holds geometrically."""
    a, b = subject_box, object_box
    if relation in ("on", "under"):
        if relation == "on":
            adjacent = abs((a[1] + a[3]) - b[1]) <= ADJACENCY_EPS
        else:
            adjacent = abs(a[1] - (b[1] + b[3])) <= ADJACENCY_EPS
        overlap = _interval_overlap(a[0], a[0] + a[2], b[0], b[0] + b[2])
        return adjacent and overlap >= 0.5 * min(a[2], b[2])
    if relation in ("near", "next to"):
        inter = _interval_overlap(a[0], a[0] + a[2], b[0], b[0] + b[2]) * \
            _interval_overlap(a[1], a[1] + a[3], b[1], b[1] + b[3])
        return inter <= 0.0 and _box_gap(a, b) <= NEAR_GAP
    if relation == "inside":
        return (a[0] >= b[0] and a[1] >= b[1]
                and a[0] + a[2] <= b[0] + b[2] and a[1] + a[3] <= b[1] + b[3])
    if relation in ("with", "holding", "without"):
        # "without X" is the negation of carrying an attached X
        return 0.0 < box_iou(a, b) <= ATTACH_IOU
    raise ValueError(f"unknown relation {relation!r}")


def _in_unit_square(box) -> bool:
    x, y, w, h = box
    return x >= 0 and y >= 0 and w > 0 and h > 0 and x + w <= 1.0 + 1e-9 and y + h <= 1.0 + 1e-9


def _place_relative(rng, relation: str, subj) -> tuple[float, float, float, float] | None:
    """Candidate box for an object such that `subject relation object` holds."""
    x, y, w, h = subj
    if relation == "on":
        ow = min(rng.uniform(w * 1.1, w * 2.2), 0.4)
        oy = y + h + rng.uniform(0.0, ADJACENCY_EPS * 0.8)
        oh = rng.uniform(0.06, 0.18)
        ox = x - rng.uniform(0.0, max(ow - w, 0.0))
        return (ox, oy, ow, oh)
    if relation == "under":
        ow = rng.uniform(w * 0.7, w * 1.4)
        oh = rng.uniform(0.05, min(0.2, max(y - 0.005, 0.05)))
        oy = y - rng.uniform(0.0, ADJACENCY_EPS * 0.8) - oh
        ox = x + rng.uniform(-0.3, 0.3) * w
        return (ox, oy, ow, oh)
    if relation in ("near", "next to"):
        ow, oh = rng.uniform(0.08, 0.2), rng.uniform(0.08, 0.2)
        gap = rng.uniform(0.01, NEAR_GAP * 0.85)
        ox = x + w + gap if x + w + gap + ow <= 1.0 else x - gap - ow
        oy = y + rng.uniform(-0.3, 0.3) * h
        return (ox, oy, ow, oh)
    if relation == "inside":
        m = [rng.uniform(0.02, 0.06) for _ in range(4)]
        return (x - m[0], y - m[1], w + m[0] + m[2], h + m[1] + m[3])
    if relation in ("with", "holding", "without"):
        ow, oh = rng.uniform(w * 0.6, w * 1.1), rng.uniform(h * 0.6, h * 1.1)
        shift = w * rng.uniform(0.62, 0.92)
        ox = x + shift if rng.random() < 0.5 else x - ow + (w - shift)
        oy = min(max(y + h * rng.uniform(-0.15, 0.15), 0.0), 1.0 - oh)
        return (ox, oy, ow, oh)
    raise ValueError(f"unknown relation {relation!r}")


def _place_satisfying(rng, relation: str, subj_box, retries: int = 40):
    check = "with" if relation == "without" else relation
    for _ in range(retries):
        cand = _place_relative(rng, relation, subj_box)
        if cand is not None and _in_unit_square(cand) and relation_satisfied(check, subj_box, cand):
            return cand
    raise SceneConstructionError(f"unsatisfiable relation packing for {relation!r}")


def _sample_extras(rng, vocab, exclude, weights) -> frozenset[str]:
    avail = [a for a in vocab if a not in exclude]
    k = int(rng.choice(len(weights), p=np.asarray(weights) / np.sum(weights)))
    k = min(k, len(avail))
    if k == 0:
        return frozenset()
    picks = rng.choice(len(avail), size=k, replace=False)
    return frozenset(avail[int(i)] for i in picks)


def evaluate_referents(scene: Scene, tree: ParseTree) -> frozenset[int]:
    """Objects that truly satisfy the full description.

    An object is a referent iff its category and attributes match the subject
    phrase and every relation clause (including negation) holds for it.
    """
    subj = tree.subject
    subj_noun = phrase_noun_tokens(tree, subj)
    referents = set()
    for obj in scene.objects:
        if tuple(obj.category.split()) != subj_noun:
            continue
        if not set(subj.modifiers) <= obj.attributes:
            continue
        ok = True
        for phrase in tree.phrases[1:]:
            noun = phrase_noun_tokens(tree, phrase)
            matches = [o for o in scene.objects
                       if o.instance_id != obj.instance_id
                       and tuple(o.category.split()) == noun
                       and set(phrase.modifiers) <= o.attributes]
            if phrase.negated:
                if any(relation_satisfied("with", obj.box, o.box) for o in matches):
                    ok = False
                    break
            else:
                rel = phrase.governing_relation
                if not any(relation_satisfied(rel, obj.box, o.box) for o in matches):
                    ok = False
                    break
        if ok:
            referents.add(obj.instance_id)
    return frozenset(referents)


def phrase_referents(scene: Scene, tree: ParseTree, phrase) -> frozenset[int]:
    """Objects that realize one noun phrase of the description.

    The subject phrase maps to the scene's full referents; a non-negated
    non-subject phrase maps to matching objects related to some referent.
    Negated phrases have no referents by definition.
    """
    if phrase.role == "subject":
        return scene.referent_ids
    if phrase.negated:
        return frozenset()
    noun = phrase_noun_tokens(tree, phrase)
    subjects = [scene.object_by_id(i) for i in scene.referent_ids]
    out = set()
    for obj in scene.objects:
        if tuple(obj.category.split()) != noun or not set(phrase.modifiers) <= obj.attributes:
            continue
        if any(relation_satisfied(phrase.governing_relation, s.box, obj.box)
               for s in subjects if s.instance_id != obj.instance_id):
            out.add(obj.instance_id)
    return frozenset(out)


def _build_scene_once(rng, tree, category, config):
    objects: list[SceneObject] = []
    edges: list[tuple[int, str, int]] = []
    weights = config.extra_attribute_weights
    subj_phrase = tree.subject

    sx = rng.uniform(0.18, 0.6)
    sy = rng.uniform(0.3, 0.5)
    subj_box = (sx, sy, rng.uniform(0.12, 0.25), rng.uniform(0.12, 0.25))
    subj_attrs = frozenset(subj_phrase.modifiers) | _sample_extras(
        rng, category.attribute_vocab, subj_phrase.modifiers, weights)
    objects.append(SceneObject(0, category.name, subj_attrs, subj_box))

    negated_phrases = []
    for phrase in tree.phrases[1:]:
        noun = " ".join(phrase_noun_tokens(tree, phrase))
        if phrase.negated:
            negated_phrases.append((phrase, noun))
            continue
        box = _place_satisfying(rng, phrase.governing_relation, subj_box)
        attrs = frozenset(phrase.modifiers) | _sample_extras(
            rng, pools.GENERIC_ATTRIBUTES, phrase.modifiers, weights)
        oid = len(objects)
        objects.append(SceneObject(oid, noun, attrs, box))
        edges.append((0, phrase.governing_relation, oid))

    def _random_box():
        w, h = rng.uniform(0.08, 0.2), rng.uniform(0.08, 0.2)
        return (rng.uniform(0.0, 1.0 - w), rng.uniform(0.0, 1.0 - h), w, h)

    # absence confuser: a same-category object that does carry the negated
    # entity, making "without X" descriptions discriminative
    for phrase, noun in negated_phrases:
        if rng.random() < config.negation_confuser_prob:
            for _ in range(40):
                cbox = _random_box()
                if box_iou(cbox, subj_box) == 0.0 and _box_gap(cbox, subj_box) > NEAR_GAP:
                    break
            else:
                continue
            cid = len(objects)
            cattrs = frozenset(subj_phrase.modifiers) | _sample_extras(
                rng, category.attribute_vocab, subj_phrase.modifiers, weights)
            objects.append(SceneObject(cid, category.name, cattrs, cbox))
            xbox = _place_satisfying(rng, "with", cbox)
            xattrs = frozenset(phrase.modifiers) | _sample_extras(
                rng, pools.GENERIC_ATTRIBUTES, phrase.modifiers, weights)
            objects.append(SceneObject(cid + 1, noun, xattrs, xbox))

    # same-category, different-attribute confuser
    if rng.random() < config.confuser_prob:
        pool_attrs = [a for a in category.attribute_vocab if a not in subj_phrase.modifiers]
        if pool_attrs:
            n = min(len(pool_attrs), 1 + int(rng.random() < 0.5))
            picks = rng.choice(len(pool_attrs), size=n, replace=False)
            cattrs = frozenset(pool_attrs[int(i)] for i in picks)
            for _ in range(40):
                cbox = _random_box()
                if box_iou(cbox, subj_box) == 0.0:
                    objects.append(SceneObject(len(objects), category.name, cattrs, cbox))
                    break

    # unrelated fillers
    mentioned = {" ".join(phrase_noun_tokens(tree, p)) for p in tree.phrases}
    fillers = [fc for fc in config.filler_categories if fc[0] not in mentioned]
    n_fill = int(rng.integers(config.min_fillers, config.max_fillers + 1)) if fillers else 0
    for _ in range(n_fill):
        name, attrs = fillers[int(rng.choice(len(fillers)))]
        fattrs = _sample_extras(rng, attrs, (), (0.2, 0.5, 0.3))
        objects.append(SceneObject(len(objects), name, fattrs, _random_box()))

    return objects, edges


def synthesize_scene(tree: ParseTree, category: EntityCategory, image_seed: int,
                     distractor_config: DistractorConfig | None = None,
                     scene_id: int = 0, description_id: int = 0) -> Scene:
    """Materialize a described scene, deterministic for (tree, image_seed).

    The subject object carries the described attributes; each non-negated
    non-subject phrase gets an object placed to satisfy its relation; negated
    phrases produce no such object near the subject. Distractors (confusers
    and fillers) are sampled per the config.
    """
    if not tree.phrases or tree.phrases[0].role != "subject":
        raise ValueError("tree has no subject phrase")
    config = distractor_config or DistractorConfig()
    rng = np.random.default_rng(derive_seed(image_seed, "scene", " ".join(tree.tokens)))
    for _ in range(20):
        objects, edges = _build_scene_once(rng, tree, category, config)
        scene = Scene(scene_id=scene_id, description_id=description_id,
                      image_seed=image_seed, objects=tuple(objects),
                      referent_ids=frozenset(), relation_edges=tuple(edges))
        referents = evaluate_referents(scene, tree)
        if 0 in referents:
            return Scene(scene_id=scene_id, description_id=description_id,
                         image_seed=image_seed, objects=tuple(objects),
                         referent_ids=referents, relation_edges=tuple(edges))
    raise SceneConstructionError(
        f"could not construct a scene satisfying {' '.join(tree.tokens)!r}")


def scene_from_backend(description: str, image_seed: int, backend,
                       scene_id: int = 0, description_id: int = 0,
                       lexicon=None) -> Scene:
    """Obtain a scene from an external image backend.

    The backend is a callable taking (description text, seed) and returning a
    scene-graph JSON dict in the same schema write_scenes emits; pixel-level
    synthesis stays outside the core library. Referent ids are recomputed
    here so the backend cannot mislabel them.
    """
    row = dict(backend(description, image_seed), scene_id=scene_id,
               description_id=description_id, image_seed=image_seed, referent_ids=[])
    scene = scene_from_json(row)
    for obj in scene.objects:
        if not _in_unit_square(obj.box):
            raise SceneConstructionError(
                f"backend scene object {obj.instance_id} is outside the unit square")
    referents = evaluate_referents(scene, parse(description, lexicon))
    return Scene(scene_id=scene.scene_id, description_id=scene.description_id,
                 image_seed=scene.image_seed, objects=scene.objects,
                 referent_ids=referents, relation_edges=scene.relation_edges)


_WORD_VECTORS: dict[tuple[str, int], np.ndarray] = {}


def word_vector(word: str, d: int) -> np.ndarray:
    """Fixed pseudo-random unit vector keyed by a word.

    Memoised per (word, d) in the function body, so callers and tracers see
    every call; the shared vector is read-only.
    """
    v = _WORD_VECTORS.get((word, d))
    if v is None:
        rng = np.random.default_rng(derive_seed(0, "wordvec", word, d))
        v = rng.standard_normal(d)
        v = v / np.linalg.norm(v)
        v.flags.writeable = False
        _WORD_VECTORS[(word, d)] = v
    return v


def region_count(scene: Scene, b: int = 2) -> int:
    """The number of regions render_features() gives the scene with b
    background boxes: one per object plus the background boxes."""
    return len(scene.objects) + b


def render_features(scene: Scene, noise_seed: int, d: int = 64, b: int = 2,
                    sigma: float = 0.05) -> RegionFeatures:
    """Region features: one row per object plus b pure-noise background rows
    (region_count()).

    Object row = sum of word vectors over the lexical profile, plus a
    4-component box-position encoding, plus zero-mean noise of scale sigma.
    """
    if d < 8:
        raise ValueError("feature width d must be >= 8")
    rng = np.random.default_rng(derive_seed(noise_seed, "features", scene.scene_id))
    n = region_count(scene, b)
    feats = np.zeros((n, d))
    proposals = []
    for i, obj in enumerate(scene.objects):
        row = np.zeros(d)
        for word in sorted(obj.lexical_profile):
            row += word_vector(word, d)
        row[:4] += np.asarray(obj.box) * BOX_ENCODING_SCALE
        feats[i] = row
        proposals.append(obj.box)
    feats += rng.standard_normal((n, d)) * (sigma / np.sqrt(d))
    for _ in range(b):
        w, h = rng.uniform(0.05, 0.3), rng.uniform(0.05, 0.3)
        proposals.append((rng.uniform(0, 1 - w), rng.uniform(0, 1 - h), w, h))
    return RegionFeatures(proposals=tuple(proposals), features=feats, noise_seed=noise_seed)


@dataclass(frozen=True)
class BenchmarkConfig:
    fraction_negative: float = 0.5
    nw_choices: tuple[int, ...] = (4, 6, 8, 10, 12)
    feature_dim: int = 64
    background_boxes: int = 2
    noise_sigma: float = 0.05
    distractors: DistractorConfig = DistractorConfig()


def make_benchmark(pool, n_scenes: int, seed: int,
                   config: BenchmarkConfig | None = None, lexicon=None):
    """Held-out scenes paired with plain category labels and free-form
    description labels, a configured fraction of which have zero referents.

    Returns an evalkit.BenchmarkInstance; scene and description seeds are
    derived from `seed` only, so any seed disjoint from the training corpus
    seeds yields disjoint data.
    """
    config = config or BenchmarkConfig()
    rng = np.random.default_rng(derive_seed(seed, "benchmark"))
    scenes = []
    features = {}
    desc_labels = []
    n_categories = len(pool)
    desc_label_id = n_categories  # category labels take 0..n_categories-1
    f = config.fraction_negative
    neg_per_scene = f / (1.0 - f) if f < 1.0 else 1.0

    for i in range(n_scenes):
        cat = pool[int(rng.choice(n_categories))]
        nw = int(config.nw_choices[int(rng.choice(len(config.nw_choices)))])
        dspec = DescriptionSpec(1, nw, seed=derive_seed(seed, "bench-desc", i))
        desc = generate_descriptions(cat, dspec)[0]
        tree = parse(desc.text, lexicon)
        scene = synthesize_scene(tree, cat, image_seed=derive_seed(seed, "bench-img", i),
                                 distractor_config=config.distractors,
                                 scene_id=i, description_id=desc.id)
        scenes.append(scene)
        features[i] = render_features(scene, noise_seed=derive_seed(seed, "bench-feat", i),
                                      d=config.feature_dim, b=config.background_boxes,
                                      sigma=config.noise_sigma)
        gt = tuple(scene.object_by_id(r).box for r in sorted(scene.referent_ids))
        desc_labels.append(description_label(desc_label_id, i, desc.text, gt, tree))
        desc_label_id += 1

        present = {o.category for o in scene.objects}
        n_neg = int(neg_per_scene) + (1 if rng.random() < neg_per_scene % 1.0 else 0)
        for k in range(n_neg):
            neg_text = neg_tree = None
            for attempt in range(10):
                nspec = DescriptionSpec(1, nw, seed=derive_seed(seed, "bench-neg", i, k, attempt))
                cand = generate_descriptions(cat, nspec)[0].text
                if cand == desc.text:
                    continue
                cand_tree = parse(cand, lexicon)
                # a sound negative refers to nothing in the scene: no referents,
                # and its context entities are absent too
                mentions = {" ".join(phrase_noun_tokens(cand_tree, p)) for p in cand_tree.phrases[1:]}
                if not mentions & present and not evaluate_referents(scene, cand_tree):
                    neg_text, neg_tree = cand, cand_tree
                    break
            if neg_text is None:
                # fall back to a category absent from the scene: zero referents for sure
                others = [c for c in pool if c.name not in present]
                if not others:
                    continue
                for attempt in range(5):
                    alt = others[int(rng.choice(len(others)))]
                    nspec = DescriptionSpec(1, nw, seed=derive_seed(seed, "bench-negalt", i, k, attempt))
                    cand = generate_descriptions(alt, nspec)[0].text
                    cand_tree = parse(cand, lexicon)
                    mentions = {" ".join(phrase_noun_tokens(cand_tree, p)) for p in cand_tree.phrases[1:]}
                    neg_text, neg_tree = cand, cand_tree
                    if not mentions & present:
                        break
            desc_labels.append(description_label(desc_label_id, i, neg_text, (), neg_tree))
            desc_label_id += 1

    return BenchmarkInstance(scene_ids=tuple(scene.scene_id for scene in scenes),
                             category_labels=category_labels(pool, scenes),
                             description_labels=tuple(desc_labels),
                             scenes=tuple(scenes), features=features)


FEATURE_TABLE = TableFormat("feature table", b"GDFT", 1, ("scenes", "rows", "width"),
                            (("<i8", ("scenes",)), ("<u8", ("scenes",)), ("<i8", ("scenes",)),
                             ("<f8", ("rows", 4)), ("<f8", ("rows", "width"))))


def write_features(path, features: dict[int, RegionFeatures]) -> None:
    """features.bin: {scene_id: RegionFeatures} as a FEATURE_TABLE in dict
    order: int64 scene ids, u64 noise seeds, int64 per-scene row counts,
    float64 proposals (n, 4) and float64 features (n, d)."""
    regions = list(features.values())
    width = regions[0].features.shape[1] if regions else 0
    if any(rf.features.shape != (len(rf.proposals), width) for rf in regions):
        raise ValueError(f"{path}: each scene needs one feature row of width {width} per proposal")
    write_table(path, FEATURE_TABLE,
                (len(regions), sum(len(rf.proposals) for rf in regions), width),
                ([list(features)], [[rf.noise_seed for rf in regions]],
                 [[len(rf.proposals) for rf in regions]],
                 [rf.proposals for rf in regions],
                 [rf.features for rf in regions]))


def read_features(path) -> dict[int, RegionFeatures]:
    """Inverse of write_features, bit for bit. Checks the table's magic,
    version and exact length, that the per-scene row counts are non-negative
    and sum to the row count, and that no scene id repeats; raises ValueError
    naming the file."""
    (_, n_rows, _), (ids, seeds, counts, proposals, feats) = read_table(path, FEATURE_TABLE)
    ids = ids.tolist()
    if len(set(ids)) != len(ids):
        raise ValueError(f"{path}: a scene id is repeated")
    return {scene_id: RegionFeatures(proposals=tuple(map(tuple, proposals[rows].tolist())),
                                     features=feats[rows], noise_seed=seed)
            for scene_id, seed, rows in zip(ids, seeds.tolist(), row_slices(path, counts, n_rows))}


def scene_to_json(scene: Scene) -> dict:
    return {
        "scene_id": scene.scene_id,
        "description_id": scene.description_id,
        "image_seed": scene.image_seed,
        "objects": [{
            "instance_id": o.instance_id,
            "category": o.category,
            "attributes": sorted(o.attributes),
            "box": [float(v) for v in o.box],
        } for o in scene.objects],
        "relation_edges": [list(e) for e in scene.relation_edges],
        "referent_ids": sorted(scene.referent_ids),
    }


def scene_from_json(row: dict) -> Scene:
    """The Scene of one scenes.jsonl row. A row that no stage can use raises
    ValueError: two objects with one instance_id, a box whose width or
    height is not above 0, or a referent or relation endpoint that names no
    object of the scene."""
    objects = tuple(SceneObject(o["instance_id"], o["category"],
                                frozenset(o["attributes"]), tuple(o["box"]))
                    for o in row["objects"])
    scene = Scene(scene_id=row["scene_id"], description_id=row["description_id"],
                  image_seed=row["image_seed"], objects=objects,
                  referent_ids=frozenset(row["referent_ids"]),
                  relation_edges=tuple((e[0], e[1], e[2]) for e in row["relation_edges"]))
    ids = set()
    for o in objects:
        if o.instance_id in ids:
            raise ValueError(f"two objects share instance_id {o.instance_id}")
        ids.add(o.instance_id)
        if not (o.box[2] > 0 and o.box[3] > 0):
            raise ValueError(f"object {o.instance_id} has box {list(o.box)}, "
                             f"whose width or height is not above 0")
    unknown = sorted(scene.referent_ids - ids)
    if unknown:
        raise ValueError(f"referent {unknown[0]} names no object of the scene")
    for edge in scene.relation_edges:
        if not {edge[0], edge[2]} <= ids:
            raise ValueError(f"relation edge {list(edge)} names no object of the scene")
    return scene


def write_scenes(path, scenes) -> None:
    write_jsonl(path, map(scene_to_json, scenes))


def read_scenes(path) -> list[Scene]:
    return read_jsonl(path, scene_from_json)
