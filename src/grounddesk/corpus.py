"""Entity pools and dense, length-controlled object-description generation.

The procedural generator is a controlled-grammar stand-in for a large language
model: it produces, per category, a requested number of distinct descriptions
whose word counts land within +/-2 of the requested target length, and records
the phrase spans it realized so the parser can be validated against them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import pools
from .langparse import Lexicon, ParseError, ParseTree, parse
from .seeding import cumulative_weights, weighted_index
from .storage import read_jsonl, write_jsonl

PROMPT_TEMPLATE = (
    "Please list {nd} plausible visual object descriptions for {cls} that are "
    "around {nw} words in length. Consider incorporating diverse visual "
    "attributes, actions, and spatial or semantic relations with other objects "
    "in each description."
)


class PoolError(ValueError):
    pass


class CorpusError(ValueError):
    pass


@dataclass(frozen=True)
class EntityCategory:
    id: int
    name: str
    attribute_vocab: tuple[str, ...]
    relation_partners: tuple[str, ...]

    def __post_init__(self):
        if not self.name:
            raise PoolError("category name must be non-empty")
        if not self.attribute_vocab:
            raise PoolError(f"category {self.name!r} has an empty attribute vocab")


@dataclass(frozen=True)
class GrammarConfig:
    """Sampling weights for the description grammar."""

    relation_weights: tuple[float, ...] = (1.0,) * len(pools.RELATION_WORDS)
    participle_prob: float = 0.5
    object_det_prob: float = 0.9
    negated_det_prob: float = 0.3
    the_prob: float = 0.15
    # relation clauses and adjectives per description scale roughly linearly
    # with the target length; adjectives are clamped to the +/-2 word tolerance
    relation_rate: float = 0.2667
    relation_offset: float = 4.5
    adjective_rate: float = 0.28
    adjective_offset: float = -0.2
    adjective_jitter: float = 0.7

    def __post_init__(self):
        if len(self.relation_weights) != len(pools.RELATION_WORDS):
            raise CorpusError(f"relation_weights has {len(self.relation_weights)} weights, "
                              f"one per relation word needs {len(pools.RELATION_WORDS)}")


@dataclass(frozen=True)
class DescriptionSpec:
    num_descriptions: int
    target_length_words: int
    seed: int = 0
    grammar_config: GrammarConfig = field(default_factory=GrammarConfig)

    def __post_init__(self):
        if self.target_length_words < 3:
            raise CorpusError("target_length_words must be >= 3")
        if self.num_descriptions < 0:
            raise CorpusError("num_descriptions must be >= 0")


@dataclass(frozen=True)
class GeneratorMetadata:
    subject_span: tuple[int, int]
    nonsubject_spans: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ObjectDescription:
    id: int
    category_id: int
    text: str
    seed: int
    provenance: str  # "procedural" | "external"
    generator_metadata: GeneratorMetadata | None = None


def build_entity_pool(pool_name: str) -> list[EntityCategory]:
    """Load a built-in pool ("desk20", "desk80") or a pool file.

    Pool file format, one category per line:
        name | attr1, attr2, ... | partner1, partner2
    """
    if pool_name in pools.BUILTIN_POOLS:
        rows = pools.BUILTIN_POOLS[pool_name]
        return [EntityCategory(i, name, tuple(attrs), tuple(partners))
                for i, (name, attrs, partners) in enumerate(rows)]
    if not os.path.exists(pool_name):
        raise PoolError(f"unknown pool {pool_name!r} (not a built-in id or readable file)")
    categories: list[EntityCategory] = []
    seen: set[str] = set()
    with open(pool_name, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split("|")]
            if len(parts) != 3:
                raise PoolError(f"{pool_name}:{lineno}: expected 'name | attrs | partners'")
            name = parts[0].lower()
            attrs = tuple(a.strip().lower() for a in parts[1].split(",") if a.strip())
            partners = tuple(p.strip().lower() for p in parts[2].split(",") if p.strip())
            if not name:
                raise PoolError(f"{pool_name}:{lineno}: empty category name")
            if not attrs:
                raise PoolError(f"{pool_name}:{lineno}: category {name!r} needs at least one attribute")
            if name in seen:
                continue
            seen.add(name)
            categories.append(EntityCategory(len(categories), name, attrs, partners))
    if not categories:
        raise PoolError(f"empty pool: {pool_name}")
    return categories


def render_llm_prompt(category: EntityCategory, spec: DescriptionSpec) -> str:
    """The prompt template for an external text backend, fields substituted."""
    return PROMPT_TEMPLATE.format(nd=spec.num_descriptions, cls=category.name,
                                  nw=spec.target_length_words)


def _indefinite(word: str) -> str:
    return "an" if word[0] in "aeiou" else "a"


def _pick_det(rng, first_word: str, cfg: GrammarConfig) -> str:
    if rng.random() < cfg.the_prob:
        return "the"
    return _indefinite(first_word)


MAX_CLAUSES = 3  # relation clauses per description
MAX_ADJECTIVES = 3  # adjectives per noun phrase


def max_length_words(category: EntityCategory) -> int:
    """The most words a description of `category` can have: a determiner,
    the most subject adjectives, the name and a participle, then the
    longest relation clauses, each the longest relation word, a determiner,
    the most adjectives and the partner. Generation reaches every target
    length up to it. Above it every draw falls short of the target, and
    generation fails for most categories within the +/-2 tolerance."""
    relation = max(len(word.split()) for word in pools.RELATION_WORDS)
    adjectives = min(MAX_ADJECTIVES, len(pools.GENERIC_ATTRIBUTES))
    partners = sorted((len(p.split()) for p in category.relation_partners), reverse=True)
    return (1 + min(MAX_ADJECTIVES, len(category.attribute_vocab)) + len(category.name.split())
            + 1 + sum(relation + 1 + adjectives + n for n in partners[:MAX_CLAUSES]))


def _sample_one(rng, category: EntityCategory, spec: DescriptionSpec):
    """One grammar realization within the length tolerance, or None."""
    cfg = spec.grammar_config
    nw = spec.target_length_words
    name_tokens = category.name.split()
    r_max = min(MAX_CLAUSES, len(category.relation_partners))
    r_target = min(float(r_max), max(0.0, cfg.relation_rate * (nw - cfg.relation_offset)))
    relation_cdf = cumulative_weights(tuple(cfg.relation_weights))

    base = int(r_target)
    frac = r_target - base
    r = base + (1 if rng.random() < frac else 0)
    r = min(r, r_max)

    partner_ids = rng.choice(len(category.relation_partners), size=r, replace=False) if r else []
    clauses = []
    for pid in partner_ids:
        partner = category.relation_partners[int(pid)]
        relword = pools.RELATION_WORDS[weighted_index(rng, relation_cdf)]
        det_prob = cfg.negated_det_prob if relword == "without" else cfg.object_det_prob
        has_det = rng.random() < det_prob
        clauses.append((relword, has_det, partner))
    participle = rng.random() < cfg.participle_prob

    fixed = 1 + len(name_tokens) + (1 if participle else 0)
    for relword, has_det, partner in clauses:
        fixed += len(relword.split()) + (1 if has_det else 0) + len(partner.split())
    budget = nw - fixed
    subj_cap = min(MAX_ADJECTIVES, len(category.attribute_vocab))
    caps = [subj_cap] + [min(MAX_ADJECTIVES, len(pools.GENERIC_ATTRIBUTES))] * r
    lo, hi = max(0, budget - 2), min(sum(caps), budget + 2)
    if lo > hi:
        return None
    adj_target = cfg.adjective_rate * nw + cfg.adjective_offset + rng.normal(0.0, cfg.adjective_jitter)
    total_adj = int(min(max(round(adj_target), lo), hi))

    counts = [0] * (r + 1)
    remaining = total_adj
    for i, cap in enumerate(caps):
        take = min(cap, remaining)
        counts[i] = take
        remaining -= take

    subj_adjs = [category.attribute_vocab[int(k)]
                 for k in rng.choice(len(category.attribute_vocab), size=counts[0], replace=False)] if counts[0] else []
    tokens = []
    tokens.append(_pick_det(rng, (subj_adjs or name_tokens)[0], cfg))
    tokens.extend(subj_adjs)
    tokens.extend(name_tokens)
    subject_span = (0, len(tokens))
    if participle:
        tokens.append(pools.PARTICIPLES[int(rng.integers(0, len(pools.PARTICIPLES)))])
    nonsubject_spans = []
    for i, (relword, has_det, partner) in enumerate(clauses):
        tokens.extend(relword.split())
        start = len(tokens)
        adjs = [pools.GENERIC_ATTRIBUTES[int(k)]
                for k in rng.choice(len(pools.GENERIC_ATTRIBUTES), size=counts[i + 1], replace=False)] if counts[i + 1] else []
        if has_det:
            tokens.append(_pick_det(rng, (adjs or partner.split())[0], cfg))
        tokens.extend(adjs)
        tokens.extend(partner.split())
        nonsubject_spans.append((start, len(tokens)))
    assert abs(len(tokens) - nw) <= 2
    return " ".join(tokens), GeneratorMetadata(subject_span, tuple(nonsubject_spans))


def generate_descriptions(category: EntityCategory, spec: DescriptionSpec) -> list[ObjectDescription]:
    """Generate exactly spec.num_descriptions distinct descriptions.

    Deterministic for (category, spec): item i draws from its own stream seeded
    with spec.seed XOR i, so parallel generation is order-independent. Raises
    CorpusError (reporting the achievable maximum) when the grammar cannot
    produce enough distinct realizations.
    """
    out: list[ObjectDescription] = []
    seen: set[str] = set()
    for i in range(spec.num_descriptions):
        item_seed = spec.seed ^ i
        rng = np.random.default_rng(item_seed)
        text = None
        for _ in range(50):
            cand = _sample_one(rng, category, spec)
            if cand is not None and cand[0] not in seen:
                text, metadata = cand
                break
        if text is None:
            raise CorpusError(
                f"cannot generate {spec.num_descriptions} distinct descriptions for "
                f"{category.name!r} at length {spec.target_length_words}; achievable maximum is {len(out)}")
        seen.add(text)
        out.append(ObjectDescription(id=i, category_id=category.id, text=text,
                                     seed=item_seed, provenance="procedural",
                                     generator_metadata=metadata))
    return out


def descriptions_from_backend(category: EntityCategory, spec: DescriptionSpec, backend) -> list[ObjectDescription]:
    """Wrap raw lines from an external text backend (a callable taking the
    rendered prompt and returning lines) as descriptions, recorded verbatim."""
    prompt = render_llm_prompt(category, spec)
    out = []
    for i, line in enumerate(backend(prompt)):
        text = line.strip().lower()
        if not text:
            continue
        try:
            tree = parse(text)
            metadata = GeneratorMetadata(
                subject_span=(tree.subject.start_token, tree.subject.end_token),
                nonsubject_spans=tuple((p.start_token, p.end_token) for p in tree.phrases[1:]))
        except ParseError:
            metadata = None
        out.append(ObjectDescription(id=i, category_id=category.id, text=text,
                                     seed=spec.seed, provenance="external",
                                     generator_metadata=metadata))
    return out


class DescriptionIndex:
    """A description list indexed once: the first description of each text,
    each category's descriptions in list order, and each description's parse
    tree, taken from `trees` (parallel to the list) or parsed on first use."""

    def __init__(self, descriptions, lexicon: Lexicon | None = None, trees=None):
        self.descriptions = descriptions
        self.lexicon = lexicon
        self._trees = list(trees) if trees is not None else [None] * len(descriptions)
        self._by_text: dict[str, int] = {}
        self._by_category: dict[int, list[ObjectDescription]] = {}
        for position, desc in enumerate(descriptions):
            self._by_text.setdefault(desc.text, position)
            self._by_category.setdefault(desc.category_id, []).append(desc)

    def position(self, text: str) -> int | None:
        """The position of the first description with this text, if any."""
        return self._by_text.get(text)

    def tree(self, position: int) -> ParseTree:
        tree = self._trees[position]
        if tree is None:
            tree = self._trees[position] = parse(self.descriptions[position].text, self.lexicon)
        return tree

    def of_category(self, category_id: int) -> list[ObjectDescription]:
        return self._by_category.get(category_id, [])


@dataclass(frozen=True)
class TextStats:
    per_description: tuple[tuple[int, int, int], ...]  # (id, noun count, adjective count)
    mean_nouns: float
    mean_adjectives: float
    count: int


def text_stats(descriptions, lexicon: Lexicon | None = None) -> TextStats:
    """Noun and adjective counts per description plus corpus means (2 decimals).

    Counts derive from parse trees: one noun per phrase (multi-token nouns
    count once), adjectives are phrase modifiers.
    """
    rows = []
    for desc in descriptions:
        try:
            tree = parse(desc.text, lexicon)
        except ParseError as exc:
            raise CorpusError(f"description {desc.id} is unparseable: {exc}") from exc
        rows.append((desc.id, len(tree.phrases), sum(len(p.modifiers) for p in tree.phrases)))
    n = len(rows)
    mean_nouns = round(sum(r[1] for r in rows) / n, 2) if n else 0.0
    mean_adjs = round(sum(r[2] for r in rows) / n, 2) if n else 0.0
    return TextStats(tuple(rows), mean_nouns, mean_adjs, n)


def _description_row(d: ObjectDescription) -> dict:
    meta = d.generator_metadata
    return {"id": d.id, "category_id": d.category_id, "text": d.text, "seed": d.seed,
            "provenance": d.provenance,
            "subject_span": list(meta.subject_span) if meta else None,
            "nonsubject_spans": [list(s) for s in meta.nonsubject_spans] if meta else None}


def write_descriptions(path, descriptions) -> None:
    write_jsonl(path, map(_description_row, descriptions))


def description_from_json(row: dict) -> ObjectDescription:
    meta = None
    if row.get("subject_span") is not None:
        meta = GeneratorMetadata(tuple(row["subject_span"]),
                                 tuple(tuple(s) for s in row["nonsubject_spans"]))
    return ObjectDescription(id=row["id"], category_id=row["category_id"], text=row["text"],
                             seed=row["seed"], provenance=row["provenance"],
                             generator_metadata=meta)


def read_descriptions(path) -> list[ObjectDescription]:
    return read_jsonl(path, description_from_json)
