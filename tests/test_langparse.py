import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grounddesk import corpus, langparse
from grounddesk.langparse import Lexicon, ParseError, is_absence, noun_phrases, parse


def test_two_phrase_sentence():
    tree = parse("an avocado lying on a cutting board")
    assert tree.tokens == ("an", "avocado", "lying", "on", "a", "cutting", "board")
    subj, obj = tree.phrases
    assert (subj.start_token, subj.end_token, subj.role) == (0, 2, "subject")
    assert subj.head_noun == "avocado"
    assert (obj.start_token, obj.end_token, obj.role) == (4, 7, "non_subject")
    assert obj.head_noun == "board"
    assert obj.governing_relation == "on"
    assert tree.participle == 2


def test_bare_noun_is_a_subject():
    tree = parse("person")
    assert len(tree.phrases) == 1
    assert tree.phrases[0].role == "subject"
    assert tree.phrases[0].head_noun == "person"


def test_without_marks_absence():
    tree = parse("a dog without dots")
    subj, obj = tree.phrases
    assert subj.head_noun == "dog" and not subj.negated
    assert obj.head_noun == "dots" and obj.negated
    assert is_absence(tree)
    assert not is_absence(parse("an avocado on a cutting board"))


def test_next_to_is_one_relation():
    tree = parse("a cup next to a bowl")
    assert tree.phrases[1].governing_relation == "next to"


def test_noun_phrase_counts():
    assert len(noun_phrases(parse("an avocado on a cutting board"))) == 2
    assert len(noun_phrases(parse("person"))) == 1
    four = parse("a dog on a table near a cup with a ball")
    assert len(noun_phrases(four)) == 4
    assert [p.role for p in four.phrases] == ["subject"] + ["non_subject"] * 3


def test_modifiers_and_noun_tokens():
    tree = parse("a ripe green avocado on a wooden cutting board")
    subj, obj = tree.phrases
    assert subj.modifiers == ("ripe", "green")
    assert obj.modifiers == ("wooden",)
    assert langparse.phrase_noun_tokens(tree, obj) == ("cutting", "board")
    assert langparse.phrase_noun(tree, subj) == "avocado"


def test_error_carries_token_index():
    with pytest.raises(ParseError) as err:
        parse("a zzzq on a table")
    assert err.value.token_index == 1
    with pytest.raises(ParseError) as err:
        parse("an avocado quickly on a table")
    assert err.value.token_index == 2
    with pytest.raises(ParseError):
        parse("")


def test_span_partition(desk20):
    spec = corpus.DescriptionSpec(10, 10, seed=3)
    for cat in desk20[:5]:
        for desc in corpus.generate_descriptions(cat, spec):
            tree = parse(desc.text)
            last_end = 0
            for phrase in tree.phrases:
                assert phrase.start_token >= last_end
                assert phrase.start_token < phrase.end_token <= len(tree.tokens)
                assert tree.tokens[phrase.end_token - 1] == phrase.head_noun
                last_end = phrase.end_token


def test_parse_is_pure():
    a = parse("a green avocado near a cup")
    b = parse("a green avocado near a cup")
    assert a == b


@settings(max_examples=60, deadline=None)
@given(pool=st.sampled_from(["desk20", "desk80"]), seed=st.integers(0, 2**32 - 1),
       target_length_words=st.integers(3, 40))
def test_roundtrip_matches_generator_metadata(pool, seed, target_length_words):
    """Every description the generator produces parses into its own spans. A
    category whose grammar cannot reach the length (the generator raises
    CorpusError, from about 28 words) has nothing to parse."""
    spec = corpus.DescriptionSpec(1, target_length_words, seed=seed)
    for cat in corpus.build_entity_pool(pool):
        try:
            descriptions = corpus.generate_descriptions(cat, spec)
        except corpus.CorpusError:
            continue
        for desc in descriptions:
            tree = parse(desc.text)
            meta = desc.generator_metadata
            assert (tree.subject.start_token, tree.subject.end_token) == meta.subject_span
            spans = tuple((p.start_token, p.end_token) for p in tree.phrases[1:])
            assert spans == meta.nonsubject_spans
            assert is_absence(tree) == ("without" in desc.text.split())


def test_lexicon_rejects_noun_adjective_clash():
    with pytest.raises(ValueError):
        Lexicon.build(nouns=["orange"], adjectives=["orange"])


def test_format_tree_mentions_structure():
    text = langparse.format_tree(parse("a dog without dots"))
    assert "subject" in text and "non_subject" in text and "negated" in text
