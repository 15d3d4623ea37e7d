"""Deterministic parser for the controlled object-description grammar.

Grammar:
    Description := SubjNP [Participle] RelClause*
    SubjNP/ObjNP := [Det] Adj{0..3} Noun
    RelClause    := RelWord ObjNP

Tokenization is lowercase whitespace split. Nouns may span multiple tokens
("cutting board"); the head noun of a phrase is always its last token. The
first noun phrase is the subject (the grammar is right-branching). "without"
is both a relation word and the absence marker: its object is emitted as a
non-subject phrase flagged negated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import pools


class ParseError(ValueError):
    """Raised for text outside the grammar; carries the first offending token index."""

    def __init__(self, token_index: int, message: str):
        super().__init__(f"token {token_index}: {message}")
        self.token_index = token_index


@dataclass(frozen=True)
class Lexicon:
    """Word classes the parser recognizes. Nouns are tuples of tokens."""

    nouns: frozenset[tuple[str, ...]]
    adjectives: frozenset[str]
    determiners: frozenset[str] = frozenset(pools.DETERMINERS)
    participles: frozenset[str] = frozenset(pools.PARTICIPLES)
    relation_words: frozenset[str] = frozenset(pools.RELATION_WORDS)
    noun_firsts: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        clash = {t for noun in self.nouns for t in noun} & self.adjectives
        if clash:
            raise ValueError(f"lexicon words are both noun and adjective: {sorted(clash)}")
        # index multi-token nouns by first token, longest first
        firsts: dict[str, list[tuple[str, ...]]] = {}
        for noun in self.nouns:
            firsts.setdefault(noun[0], []).append(noun)
        for variants in firsts.values():
            variants.sort(key=len, reverse=True)
        object.__setattr__(self, "noun_firsts", firsts)

    @property
    def tokens(self) -> frozenset[str]:
        """The tokens of every word the lexicon holds: nouns, adjectives,
        determiners, participles and relation words, multi-token words split."""
        return frozenset(t for noun in self.nouns for t in noun).union(
            self.adjectives, self.determiners, self.participles,
            (t for word in self.relation_words for t in word.split()))

    @staticmethod
    def build(nouns, adjectives) -> "Lexicon":
        """Build from iterables of noun strings (possibly multi-word) and adjective words."""
        noun_tuples = frozenset(tuple(n.lower().split()) for n in nouns)
        return Lexicon(nouns=noun_tuples, adjectives=frozenset(a.lower() for a in adjectives))

    @staticmethod
    def from_categories(categories) -> "Lexicon":
        """Lexicon covering a category pool: names, partners, attributes, extras."""
        nouns = set(pools.EXTRA_NOUNS)
        adjectives = set(pools.GENERIC_ATTRIBUTES)
        for cat in categories:
            nouns.add(cat.name)
            nouns.update(cat.relation_partners)
            adjectives.update(cat.attribute_vocab)
        return Lexicon.build(nouns, adjectives)


def _default_lexicon() -> Lexicon:
    nouns, adjectives = pools.all_known_words()
    return Lexicon.build(nouns, adjectives)


DEFAULT_LEXICON = _default_lexicon()


@dataclass(frozen=True)
class PhraseSpan:
    start_token: int
    end_token: int  # exclusive
    role: str  # "subject" | "non_subject"
    head_noun: str
    modifiers: tuple[str, ...]
    governing_relation: str | None = None
    negated: bool = False


@dataclass(frozen=True)
class ParseTree:
    tokens: tuple[str, ...]
    phrases: tuple[PhraseSpan, ...]
    participle: int | None = None

    @property
    def subject(self) -> PhraseSpan:
        return self.phrases[0]


def phrase_noun_tokens(tree: ParseTree, phrase: PhraseSpan) -> tuple[str, ...]:
    """The noun tokens of a phrase (span minus determiner and modifiers)."""
    toks = tree.tokens[phrase.start_token:phrase.end_token]
    skip = len(phrase.modifiers)
    if toks and toks[0] in pools.DETERMINERS:
        skip += 1
    return tuple(toks[skip:])


def phrase_noun(tree: ParseTree, phrase: PhraseSpan) -> str:
    return " ".join(phrase_noun_tokens(tree, phrase))


def _match_noun(tokens, i, lexicon) -> int | None:
    """Length of the longest lexicon noun starting at token i, or None."""
    for noun in lexicon.noun_firsts.get(tokens[i], ()):
        if tuple(tokens[i:i + len(noun)]) == noun:
            return len(noun)
    return None


def _parse_np(tokens, i, lexicon, role, relation=None) -> tuple[PhraseSpan, int]:
    start = i
    if i < len(tokens) and tokens[i] in lexicon.determiners:
        i += 1
    modifiers = []
    while i < len(tokens) and tokens[i] in lexicon.adjectives:
        modifiers.append(tokens[i])
        i += 1
    if i >= len(tokens):
        raise ParseError(len(tokens) - 1, "expected a noun before end of text")
    span = _match_noun(tokens, i, lexicon)
    if span is None:
        raise ParseError(i, f"expected a noun, got {tokens[i]!r}")
    i += span
    phrase = PhraseSpan(
        start_token=start,
        end_token=i,
        role=role,
        head_noun=tokens[i - 1],
        modifiers=tuple(modifiers),
        governing_relation=relation,
        negated=(relation == "without"),
    )
    return phrase, i


def _match_relation(tokens, i, lexicon) -> tuple[str, int] | None:
    if tokens[i] == "next" and i + 1 < len(tokens) and tokens[i + 1] == "to":
        return "next to", 2
    if tokens[i] in lexicon.relation_words and tokens[i] != "next":
        return tokens[i], 1
    return None


def parse(text: str, lexicon: Lexicon | None = None) -> ParseTree:
    """Parse a description into its phrase structure.

    Raises ParseError (with the first offending token index) for text outside
    the grammar. Procedurally generated descriptions always parse; external
    text may fail on unknown words.
    """
    lexicon = lexicon or DEFAULT_LEXICON
    tokens = tuple(text.lower().split())
    if not tokens:
        raise ParseError(0, "empty text")
    phrases = []
    subject, i = _parse_np(tokens, 0, lexicon, "subject")
    phrases.append(subject)
    participle = None
    if i < len(tokens) and tokens[i] in lexicon.participles:
        participle = i
        i += 1
    while i < len(tokens):
        rel = _match_relation(tokens, i, lexicon)
        if rel is None:
            raise ParseError(i, f"expected a relation word, got {tokens[i]!r}")
        relword, width = rel
        phrase, i = _parse_np(tokens, i + width, lexicon, "non_subject", relation=relword)
        phrases.append(phrase)
    return ParseTree(tokens=tokens, phrases=tuple(phrases), participle=participle)


def noun_phrases(tree: ParseTree) -> list[PhraseSpan]:
    """All noun phrases in textual order; the subject comes first."""
    return list(tree.phrases)


def is_absence(tree: ParseTree) -> bool:
    """True iff the description contains an expression of absence ("without")."""
    return any(p.negated for p in tree.phrases)


def format_tree(tree: ParseTree) -> str:
    """Indented single-string rendering for the debug CLI."""
    lines = [f"description: {' '.join(tree.tokens)}"]
    for p in tree.phrases:
        text = " ".join(tree.tokens[p.start_token:p.end_token])
        lines.append(f"  {p.role} [{p.start_token}:{p.end_token}] {text!r}")
        lines.append(f"    head: {p.head_noun}")
        if p.modifiers:
            lines.append(f"    modifiers: {', '.join(p.modifiers)}")
        if p.governing_relation:
            tag = " (negated)" if p.negated else ""
            lines.append(f"    relation: {p.governing_relation}{tag}")
    if tree.participle is not None:
        lines.append(f"  participle: {tree.tokens[tree.participle]!r} at {tree.participle}")
    return "\n".join(lines)
