#!/usr/bin/env python3
"""Compositional contrastive alignment targets.

A training query concatenates the positive description, intra-class negative
captions, and standalone structural positives. The target matrix aligns the
subject box with the whole sentence, suppresses the non-subject entity inside
the sentence, and aligns it with its standalone copy instead.
"""

from grounddesk import build_alignment_target
from grounddesk.labeling import PseudoTriplet
from grounddesk.targets import CaptionItem, Query

POSITIVE = "an avocado lying on a cutting board"

query = Query(items=(
    CaptionItem(tuple(POSITIVE.split()), "positive_description", 0),
    CaptionItem(tuple("an avocado inside a white bowl".split()), "intra_class_negative", 1),
    CaptionItem(("a", "cutting", "board"), "structural_positive", 0, source_span=(4, 7)),
))
triplet = PseudoTriplet(scene_id=0, description=POSITIVE,
                        assignments=((0, (0, 2)), (1, (4, 7))),
                        provenance="weak_to_strong")
target = build_alignment_target(query, triplet, n_regions=2)

names = {0: "avocado box", 1: "board box  "}
print("query tokens:")
print("  " + " ".join(f"{t}" for t in query.tokens))
captions = {col for i in range(len(query.items)) for col in query.item_columns(i)}
print("\ntarget matrix (rows are boxes, columns are tokens; . marks the separators,")
print("which the loss leaves out):")
for row in range(2):
    cells = [str(int(target.matrix[row, col])) if col in captions else "."
             for col in range(query.m)]
    print(f"  {names[row]}  " + " ".join(f"{c:>{len(tok)}}" for c, tok in zip(cells, query.tokens)))

print("""
Reading the rows:
  avocado box: 1 across the entire positive sentence (sentence-level positive),
               0 on the negative caption and on the standalone phrase.
  board box:   0 on 'a cutting board' inside the sentence (structural negative)
               but 1 on the standalone 'a cutting board' (structural positive),
               forcing role-sensitive text encoding.""")
