import pytest

from grounddesk import corpus, langparse
from grounddesk.corpus import (CorpusError, DescriptionSpec, EntityCategory, PoolError,
                               build_entity_pool, generate_descriptions,
                               render_llm_prompt, text_stats)

PROMPT_20_10 = (
    "Please list 20 plausible visual object descriptions for avocado that are "
    "around 10 words in length. Consider incorporating diverse visual "
    "attributes, actions, and spatial or semantic relations with other objects "
    "in each description."
)


def test_builtin_pools(desk20):
    assert len(desk20) == 20
    assert [c.id for c in desk20] == list(range(20))
    assert len(build_entity_pool("desk80")) == 80


def test_unknown_pool():
    with pytest.raises(PoolError, match="unknown pool"):
        build_entity_pool("desk999")


def test_pool_file_roundtrip(tmp_path):
    path = tmp_path / "pool.txt"
    path.write_text("dog | black, white | person, ball\n"
                    "dog | brown | person\n"
                    "cat | gray | chair, pillow\n")
    cats = build_entity_pool(str(path))
    assert [c.name for c in cats] == ["dog", "cat"]  # duplicates collapse
    assert cats[0].attribute_vocab == ("black", "white")
    assert cats[1].relation_partners == ("chair", "pillow")


def test_empty_pool_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("\n\n")
    with pytest.raises(PoolError, match="empty pool"):
        build_entity_pool(str(path))


def test_malformed_pool_line_reports_lineno(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("dog | black | person\nnot a pool line\n")
    with pytest.raises(PoolError, match=":2"):
        build_entity_pool(str(path))


def test_o365_sized_pool(tmp_path):
    path = tmp_path / "big.txt"
    lines = [f"thing{i:03d} | red, blue | thing{(i + 1) % 365:03d}" for i in range(365)]
    path.write_text("\n".join(lines))
    assert len(build_entity_pool(str(path))) == 365


def test_prompt_template_exact(avocado):
    spec = DescriptionSpec(20, 10, seed=0)
    assert render_llm_prompt(avocado, spec) == PROMPT_20_10


def test_prompt_singular_count(avocado):
    spec = DescriptionSpec(1, 10, seed=0)
    assert "list 1 plausible" in render_llm_prompt(avocado, spec)


def test_prompt_contains_category_once(desk20):
    spec = DescriptionSpec(5, 8, seed=0)
    for cat in desk20:
        assert render_llm_prompt(cat, spec).count(cat.name) == 1


def test_generate_counts(avocado):
    assert len(generate_descriptions(avocado, DescriptionSpec(20, 10, seed=1))) == 20
    assert generate_descriptions(avocado, DescriptionSpec(0, 10, seed=1)) == []


def test_generate_deterministic(avocado):
    spec = DescriptionSpec(12, 9, seed=11)
    first = generate_descriptions(avocado, spec)
    second = generate_descriptions(avocado, spec)
    assert first == second


def test_generated_descriptions_parse_and_conform(avocado):
    spec = DescriptionSpec(20, 10, seed=7)
    descs = generate_descriptions(avocado, spec)
    texts = {d.text for d in descs}
    assert len(texts) == 20
    for desc in descs:
        tree = langparse.parse(desc.text)
        assert tree.subject.head_noun == "avocado"
        assert len(tree.phrases) >= 2
        assert abs(len(tree.tokens) - 10) <= 2
        assert desc.provenance == "procedural"


def test_generate_exhaustion_reports_maximum():
    tiny = EntityCategory(0, "dog", ("red",), ())
    with pytest.raises(CorpusError, match="achievable maximum"):
        generate_descriptions(tiny, DescriptionSpec(500, 3, seed=0))


def test_text_stats_counts():
    desc = corpus.ObjectDescription(0, 0, "a striped red dog on a blue table", 0, "procedural")
    stats = text_stats([desc])
    assert stats.per_description[0] == (0, 2, 3)
    assert stats.mean_nouns == 2.0
    assert stats.mean_adjectives == 3.0


def test_text_stats_empty():
    stats = text_stats([])
    assert stats.count == 0
    assert stats.mean_nouns == 0.0 and stats.mean_adjectives == 0.0


def test_text_stats_identifies_bad_description():
    bad = corpus.ObjectDescription(41, 0, "entirely zzzq gibberish", 0, "external")
    with pytest.raises(CorpusError, match="41"):
        text_stats([bad])


def test_text_stats_propagates_a_fault_that_is_not_a_parse_error(avocado, monkeypatch):
    """Only text outside the grammar is an unparseable description; any other
    failure while parsing is a fault and propagates as itself."""
    def broken_parse(text, lexicon=None):
        raise RuntimeError("parser fault")
    descs = generate_descriptions(avocado, DescriptionSpec(2, 8, seed=0))
    monkeypatch.setattr(corpus, "parse", broken_parse)
    with pytest.raises(RuntimeError, match="parser fault"):
        text_stats(descs)


def test_noun_adjective_means_monotone_in_length(desk20):
    means = []
    for nw in (6, 8, 10, 12):
        all_descs = []
        for cat in desk20:
            all_descs.extend(generate_descriptions(cat, DescriptionSpec(20, nw, seed=0)))
        stats = text_stats(all_descs)
        means.append((stats.mean_nouns, stats.mean_adjectives))
    for (n0, a0), (n1, a1) in zip(means, means[1:]):
        assert n1 >= n0
        assert a1 >= a0


def test_description_jsonl_roundtrip(tmp_path, avocado):
    descs = generate_descriptions(avocado, DescriptionSpec(5, 10, seed=2))
    path = tmp_path / "descs.jsonl"
    corpus.write_descriptions(path, descs)
    assert corpus.read_descriptions(path) == descs


def test_external_backend_recorded_verbatim(avocado):
    lines = ["a green avocado on a table", "totally unparseable zzzq text", ""]
    descs = corpus.descriptions_from_backend(avocado, DescriptionSpec(2, 8, seed=0),
                                             lambda prompt: lines)
    assert len(descs) == 2
    assert all(d.provenance == "external" for d in descs)
    assert descs[0].generator_metadata is not None
    assert descs[1].generator_metadata is None
    assert descs[1].text == "totally unparseable zzzq text"


def test_external_backend_propagates_a_fault_that_is_not_a_parse_error(avocado, monkeypatch):
    """Only a line outside the grammar is recorded without metadata; any
    other failure while parsing is a fault and propagates."""
    def broken_parse(text, lexicon=None):
        raise RuntimeError("parser fault")
    monkeypatch.setattr(corpus, "parse", broken_parse)
    with pytest.raises(RuntimeError, match="parser fault"):
        corpus.descriptions_from_backend(avocado, DescriptionSpec(2, 8, seed=0),
                                         lambda prompt: ["a green avocado on a table"])


def test_generation_is_prefix_stable(avocado):
    # per-item streams are seeded by seed XOR index, so a longer request
    # extends a shorter one instead of reshuffling it
    five = generate_descriptions(avocado, DescriptionSpec(5, 10, seed=3))
    ten = generate_descriptions(avocado, DescriptionSpec(10, 10, seed=3))
    assert [d.text for d in ten[:5]] == [d.text for d in five]


def test_desk80_generates_and_parses():
    for cat in build_entity_pool("desk80"):
        for desc in generate_descriptions(cat, DescriptionSpec(5, 10, seed=1)):
            tree = langparse.parse(desc.text)
            meta = desc.generator_metadata
            assert (tree.subject.start_token, tree.subject.end_token) == meta.subject_span


def test_generation_reaches_each_categorys_longest_length(desk20):
    """max_length_words is the pool's reachable bound: every category
    generates 20 descriptions at its bound and none one word above it."""
    for cat in desk20:
        longest = corpus.max_length_words(cat)
        descriptions = generate_descriptions(cat, DescriptionSpec(20, longest, seed=0))
        assert max(len(d.text.split()) for d in descriptions) <= longest
        with pytest.raises(CorpusError, match="achievable maximum"):
            generate_descriptions(cat, DescriptionSpec(20, longest + 1, seed=0))
    assert min(map(corpus.max_length_words, desk20)) == 27
