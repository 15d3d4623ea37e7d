"""grounddesk: a desk-scale workbench for language-based object detection.

Synthesizes dense (scene, description, box) triplets with controllable
density, produces pseudo-boxes by decomposing grounding into per-phrase
detection, builds compositional contrastive alignment targets, trains a small
grounding model, and scores it with description-aware detection metrics.
"""

from .corpus import (DescriptionIndex, DescriptionSpec, EntityCategory, ObjectDescription,
                     build_entity_pool, generate_descriptions, render_llm_prompt, text_stats)
from .langparse import Lexicon, ParseError, ParseTree, PhraseSpan, is_absence, \
    noun_phrases, parse
from .scenegen import (BenchmarkConfig, DistractorConfig, RegionFeatures, Scene,
                       SceneObject, evaluate_referents, make_benchmark,
                       render_features, synthesize_scene)
from .labeling import (BowConfig, BowDetector, Detection, LabelerConfig, PseudoTriplet,
                       grounding_label, label_recall, weak_to_strong_label)
from .targets import (AlignmentTarget, CaptionItem, Query, TargetConfig, assemble_query,
                      build_alignment_target, build_detection_target, make_detection_query)
from .groundnet import (AlignmentScores, CompiledQuery, GroundingModel, LossReport, Prompt,
                        TrainConfig, TrainExample, Vocabulary, compile_prompt, forward,
                        load_checkpoint, loss_and_grad, predict, predict_grouped, save_checkpoint,
                        train)
from .evalkit import (BenchmarkInstance, MetricReport, average_precision, d3_report,
                      harmonic_mean, iou, omnilabel_report)
from . import pipeline

__version__ = "0.1.0"

__all__ = [
    "DescriptionIndex", "DescriptionSpec", "EntityCategory", "ObjectDescription",
    "build_entity_pool", "generate_descriptions", "render_llm_prompt", "text_stats",
    "Lexicon", "ParseError", "ParseTree", "PhraseSpan", "is_absence", "noun_phrases",
    "parse",
    "BenchmarkConfig", "DistractorConfig", "RegionFeatures", "Scene", "SceneObject",
    "evaluate_referents", "make_benchmark", "render_features", "synthesize_scene",
    "BowConfig", "BowDetector", "Detection", "LabelerConfig", "PseudoTriplet",
    "grounding_label", "label_recall", "weak_to_strong_label",
    "AlignmentTarget", "CaptionItem", "Query", "TargetConfig", "assemble_query",
    "build_alignment_target", "build_detection_target", "make_detection_query",
    "AlignmentScores", "CompiledQuery", "GroundingModel", "LossReport", "Prompt", "TrainConfig",
    "TrainExample", "Vocabulary", "compile_prompt", "forward", "load_checkpoint",
    "loss_and_grad", "predict", "predict_grouped", "save_checkpoint", "train",
    "BenchmarkInstance", "MetricReport", "average_precision", "d3_report",
    "harmonic_mean", "iou", "omnilabel_report",
    "pipeline",
]
