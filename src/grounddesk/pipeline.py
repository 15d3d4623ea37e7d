"""End-to-end assembly of the workbench stages: description corpora, scene
rendering, pseudo-labeling, training-example construction for each learning
signal variant, and benchmark evaluation of a trained model.

These functions are the single code path shared by the CLI subcommands, the
ablation presets and the acceptance suite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .corpus import DescriptionIndex, DescriptionSpec, EntityCategory, GrammarConfig, \
    ObjectDescription, generate_descriptions
from .evalkit import BenchmarkInstance, MetricReport, ResultColumns, omnilabel_report
from .groundnet import (GroundingModel, TrainConfig, TrainExample, Vocabulary,
                        compile_prompt, predict_grouped, proposal_boxes, train)
from .labeling import BowDetector, LabelerConfig, PseudoTriplet, \
    grounding_label, label_recall, weak_to_strong_label
from .langparse import Lexicon, ParseTree, parse
from .scenegen import BenchmarkConfig, DistractorConfig, RegionFeatures, Scene, \
    make_benchmark, render_features, synthesize_scene
from .seeding import derive_seed
from .targets import AlignmentTarget, Query, TargetConfig, assemble_query, \
    build_alignment_target, build_detection_target, make_detection_query


@dataclass(frozen=True)
class FeatureConfig:
    dim: int = 64
    background_boxes: int = 2
    noise_sigma: float = 0.05


@dataclass
class CorpusBundle:
    """The corpus a stage works on. `trees` holds one parse tree per
    description, parsed on first use where not given; `index` indexes the
    descriptions by text and by category once."""
    pool: list[EntityCategory]
    lexicon: Lexicon
    descriptions: list[ObjectDescription]
    scenes: list[Scene]
    features: dict[int, RegionFeatures]
    trees: list[ParseTree] | None = None

    def __post_init__(self):
        self.index = DescriptionIndex(self.descriptions, self.lexicon, self.trees)

    def tree_of(self, text: str) -> ParseTree | None:
        """The parse tree of a description of the corpus with this text."""
        position = self.index.position(text)
        return None if position is None else self.index.tree(position)

    def description_by_id(self, description_id: int) -> ObjectDescription:
        """Description ids are positions in the corpus; any other id raises
        ValueError."""
        if not 0 <= description_id < len(self.descriptions):
            raise ValueError(f"description_id {description_id} names no description "
                             f"of the corpus's {len(self.descriptions)}")
        return self.descriptions[description_id]


def build_vocabulary(pool) -> Vocabulary:
    """Every token a run's queries can hold: the tokens of the pool's lexicon,
    and the names of the fillers that scenes of any pool place, which
    detection queries list."""
    fillers = {t for name, _ in DistractorConfig().filler_categories for t in name.split()}
    return Vocabulary.build(Lexicon.from_categories(pool).tokens | fillers)


def _category_descriptions(cat, num_descriptions: int, target_length_words: int, seed: int,
                           grammar: GrammarConfig) -> list[ObjectDescription]:
    spec = DescriptionSpec(num_descriptions, target_length_words,
                           seed=derive_seed(seed, "gen", cat.id), grammar_config=grammar)
    return generate_descriptions(cat, spec)


def build_description_corpus(pool, num_descriptions: int, target_length_words: int,
                             seed: int, grammar: GrammarConfig | None = None,
                             map_fn=map) -> list[ObjectDescription]:
    """Per-category generation with globally unique description ids.

    ``map_fn`` maps the per-category function over the pool; it must keep
    order (the CLI passes its process fan-out).
    """
    per_category = map_fn(partial(_category_descriptions, num_descriptions=num_descriptions,
                                  target_length_words=target_length_words, seed=seed,
                                  grammar=grammar or GrammarConfig()), pool)
    out: list[ObjectDescription] = []
    for descs in per_category:
        for desc in descs:
            out.append(replace(desc, id=len(out)))
    return out


def _description_scenes(item, images_per_description: int, seed: int,
                        distractors: DistractorConfig,
                        features: FeatureConfig) -> list[tuple[Scene, RegionFeatures]]:
    desc, tree, cat, first_scene_id = item
    out = []
    for k in range(images_per_description):
        scene_id = first_scene_id + k
        scene = synthesize_scene(tree, cat, image_seed=derive_seed(seed, "img", desc.id, k),
                                 distractor_config=distractors,
                                 scene_id=scene_id, description_id=desc.id)
        out.append((scene, render_features(scene, noise_seed=derive_seed(seed, "feat", scene_id),
                                           d=features.dim, b=features.background_boxes,
                                           sigma=features.noise_sigma)))
    return out


def build_scene_corpus(pool, descriptions, images_per_description: int, seed: int,
                       distractors: DistractorConfig | None = None,
                       features: FeatureConfig | None = None,
                       lexicon: Lexicon | None = None, map_fn=map, trees=None):
    """Seed-indexed scene variants plus rendered region features per scene.
    `trees` are the descriptions' parse trees, parsed here when not given."""
    by_id = {c.id: c for c in pool}
    if trees is None:
        lexicon = lexicon or Lexicon.from_categories(pool)
        trees = [parse(desc.text, lexicon) for desc in descriptions]
    items = [(desc, tree, by_id[desc.category_id], i * images_per_description)
             for i, (desc, tree) in enumerate(zip(descriptions, trees))]
    per_description = map_fn(partial(_description_scenes,
                                     images_per_description=images_per_description, seed=seed,
                                     distractors=distractors or DistractorConfig(),
                                     features=features or FeatureConfig()), items)
    scenes: list[Scene] = []
    feats: dict[int, RegionFeatures] = {}
    for group in per_description:
        for scene, rf in group:
            scenes.append(scene)
            feats[scene.scene_id] = rf
    return scenes, feats


def build_corpus(pool_name: str = "desk20", num_descriptions: int = 5,
                 target_length_words: int = 10, images_per_description: int = 2,
                 seed: int = 0, distractors: DistractorConfig | None = None,
                 features: FeatureConfig | None = None) -> CorpusBundle:
    """Descriptions, scenes and features, as the gen and scenes stages build them."""
    from .corpus import build_entity_pool

    pool = build_entity_pool(pool_name)
    lexicon = Lexicon.from_categories(pool)
    descriptions = build_description_corpus(pool, num_descriptions, target_length_words, seed)
    trees = [parse(desc.text, lexicon) for desc in descriptions]
    scenes, feats = build_scene_corpus(pool, descriptions, images_per_description,
                                       seed, distractors, features, lexicon, trees=trees)
    return CorpusBundle(pool=pool, lexicon=lexicon, descriptions=descriptions,
                        scenes=scenes, features=feats, trees=trees)


def default_corpus(seed: int = 0) -> CorpusBundle:
    """The default 200-scene corpus: desk20 x 5 descriptions x 2 scenes."""
    return build_corpus("desk20", num_descriptions=5, target_length_words=10,
                        images_per_description=2, seed=seed)


# labeler.strategy values: the method and its single-pass grounding baseline
LABEL_STRATEGIES = ("weak_to_strong", "grounding")


def _label_scene(item, detector, config: LabelerConfig, strategy: str) -> PseudoTriplet:
    scene, text, tree = item
    labeler = weak_to_strong_label if strategy == "weak_to_strong" else grounding_label
    return labeler(scene, text, detector, config, tree=tree)


def label_corpus(bundle: CorpusBundle, detector=None, config: LabelerConfig | None = None,
                 strategy: str = "weak_to_strong", map_fn=map) -> list[PseudoTriplet]:
    if strategy not in LABEL_STRATEGIES:
        raise ValueError(f"unknown labeling strategy {strategy!r}; "
                         f"expected one of {list(LABEL_STRATEGIES)}")
    items = [(scene, bundle.description_by_id(scene.description_id).text,
              bundle.index.tree(scene.description_id)) for scene in bundle.scenes]
    return list(map_fn(partial(_label_scene, detector=detector or BowDetector(),
                               config=config or LabelerConfig(), strategy=strategy), items))


def mean_label_recall(bundle: CorpusBundle, triplets) -> float:
    vals = [label_recall(t, bundle.scenes[t.scene_id], lexicon=bundle.lexicon,
                         tree=bundle.tree_of(t.description)) for t in triplets]
    return float(np.mean(vals)) if vals else 0.0


@dataclass(frozen=True)
class SignalVariant:
    """One rung of the learning-signal ladder."""
    name: str
    k_neg: int
    include_struct_pos: bool
    target_config: TargetConfig


SIGNAL_LADDER = (
    SignalVariant("naive", 0, False,
                  TargetConfig(sentence_level_positive=False, structural_negative=False)),
    SignalVariant("intra_neg", 2, False,
                  TargetConfig(sentence_level_positive=False, structural_negative=False)),
    SignalVariant("struct_neg", 2, False,
                  TargetConfig(sentence_level_positive=True, structural_negative=True)),
    SignalVariant("struct_pos", 2, True,
                  TargetConfig(sentence_level_positive=True, structural_negative=True)),
)

FULL_VARIANT = SIGNAL_LADDER[-1]


def training_target(bundle: CorpusBundle, triplet: PseudoTriplet, variant: SignalVariant,
                    seed: int, n_regions: int) -> tuple[Query, AlignmentTarget]:
    """One triplet's query, seeded under the variant's name, and its alignment
    target over the scene's n_regions regions."""
    query = assemble_query(triplet, bundle.index, variant.k_neg, variant.include_struct_pos,
                           seed=derive_seed(seed, "query", variant.name), lexicon=bundle.lexicon)
    return query, build_alignment_target(query, triplet, n_regions,
                                         config=variant.target_config, lexicon=bundle.lexicon,
                                         tree=bundle.tree_of(triplet.description))


def training_example(bundle: CorpusBundle, triplet: PseudoTriplet, variant: SignalVariant,
                     seed: int) -> TrainExample:
    """training_target() over the scene's features, with them."""
    rf = bundle.features[triplet.scene_id]
    query, target = training_target(bundle, triplet, variant, seed, rf.features.shape[0])
    return TrainExample(features=rf.features, query=query, target=target,
                        scene_id=triplet.scene_id)


def build_training_examples(bundle: CorpusBundle, triplets, variant: SignalVariant = FULL_VARIANT,
                            seed: int = 0) -> list[TrainExample]:
    """Examples for the triplets that have assignments; the others carry no signal."""
    return [training_example(bundle, t, variant, seed) for t in triplets if t.assignments]


def detection_target(bundle: CorpusBundle, scene: Scene, seed: int, absent_categories: int,
                     n_regions: int) -> tuple[Query, AlignmentTarget]:
    """GLIP-style detection-format query and target over the scene's
    n_regions regions: the scene's categories plus absent ones, in a seeded
    order, as one category prompt."""
    rng = np.random.default_rng(derive_seed(seed, "det-example", scene.scene_id))
    present = sorted({o.category for o in scene.objects})
    absent = [c.name for c in bundle.pool if c.name not in present]
    extra = [absent[int(i)] for i in rng.choice(len(absent), size=min(absent_categories, len(absent)), replace=False)]
    listed = present + extra
    order = rng.permutation(len(listed))
    query = make_detection_query([listed[int(i)] for i in order])
    return query, build_detection_target(query, scene, n_regions)


def detection_example(bundle: CorpusBundle, scene: Scene, seed: int = 0,
                      absent_categories: int = 2) -> TrainExample:
    """detection_target() over the scene's features, with them."""
    rf = bundle.features[scene.scene_id]
    query, target = detection_target(bundle, scene, seed, absent_categories, rf.features.shape[0])
    return TrainExample(features=rf.features, query=query, target=target,
                        scene_id=scene.scene_id)


def build_detection_examples(bundle: CorpusBundle, seed: int = 0, absent_categories: int = 2) -> list[TrainExample]:
    return [detection_example(bundle, scene, seed, absent_categories) for scene in bundle.scenes]


def run_model_on_benchmark(model: GroundingModel, benchmark: BenchmarkInstance,
                           score_threshold: float = 0.5,
                           lexicon: Lexicon | None = None,
                           prompt_chunk: int = 8, agg: str = "max") -> ResultColumns:
    """The detector's results for every label as ResultColumns: one row per
    (label_id, scene_id) with detections, its boxes and scores highest score
    first, and no row for a label without detections. Rows come in inference
    order: each scene's category chunks, scene by scene, then the
    description labels by scene.

    Labels are scored through multi-caption prompts, the query format the
    model trains on: each scene's description labels form one prompt, and
    category labels are chunked into detection-style prompts, the same for
    every scene. Each distinct label text is parsed once.
    """
    keys, boxes, scores = [], [], []
    trees: dict = {}

    def prompt(texts):
        for text in texts:
            if text not in trees:
                trees[text] = parse(text, lexicon)
        return compile_prompt(model, [trees[text] for text in texts])

    def score(scene_id, labels, label_prompt):
        rf = benchmark.features[scene_id]
        scene_boxes = proposal_boxes(rf)
        per_label = predict_grouped(model, rf, label_prompt, score_threshold, agg=agg)
        for label, (indices, label_scores) in zip(labels, per_label):
            if len(indices):
                keys.append((label.label_id, scene_id))
                boxes.append(scene_boxes[indices])
                scores.append(label_scores)

    cat_labels = list(benchmark.category_labels)
    cat_chunks = [cat_labels[lo:lo + prompt_chunk]
                  for lo in range(0, len(cat_labels), prompt_chunk)]
    cat_prompts = [prompt([c.name for c in chunk]) for chunk in cat_chunks]
    for scene_id in benchmark.scene_ids:
        for chunk, chunk_prompt in zip(cat_chunks, cat_prompts):
            score(scene_id, chunk, chunk_prompt)

    by_scene: dict[int, list] = {}
    for label in benchmark.description_labels:
        by_scene.setdefault(label.scene_id, []).append(label)
    for scene_id, labels in by_scene.items():
        for lo in range(0, len(labels), prompt_chunk):
            chunk = labels[lo:lo + prompt_chunk]
            score(scene_id, chunk, prompt([l.text for l in chunk]))
    return ResultColumns.from_rows(keys, boxes, scores)


def evaluate_model(model: GroundingModel, benchmark: BenchmarkInstance,
                   score_threshold: float = 0.5, iou_threshold: float = 0.5,
                   lexicon: Lexicon | None = None, agg: str = "max") -> MetricReport:
    results = run_model_on_benchmark(model, benchmark, score_threshold, lexicon, agg=agg)
    return omnilabel_report(results, benchmark, iou_threshold=iou_threshold)


def train_variant(bundle: CorpusBundle, triplets, variant: SignalVariant,
                  train_config: TrainConfig, detection_examples=(),
                  d_model: int = 32, model_seed: int = 0) -> tuple[GroundingModel, list]:
    """Fresh model trained on the bundle's triplets under one signal variant."""
    vocab = build_vocabulary(bundle.pool)
    dim = next(iter(bundle.features.values())).features.shape[1]
    model = GroundingModel(vocab, d_in=dim, d_model=d_model, seed=model_seed)
    examples = build_training_examples(bundle, triplets, variant, seed=train_config.seed)
    return train(model, examples, list(detection_examples), train_config)


def default_benchmark(pool, seed: int = 0, n_scenes: int = 40,
                      config: BenchmarkConfig | None = None, lexicon=None) -> BenchmarkInstance:
    """Held-out benchmark; its seed space is disjoint from corpus seeds."""
    return make_benchmark(pool, n_scenes, derive_seed(seed, "heldout"),
                          config=config, lexicon=lexicon)
