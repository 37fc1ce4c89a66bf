"""Sentences as two columns: one-word surfaces and their Penn Treebank POS tags.

A ``PosSentence`` checks both columns once; its ``PosToken`` records are built
on first use.  Sentences enter the pipeline either pre-tagged (``surface_TAG``
units, one sentence per line) or as raw text run through the bundled tagger, a
closed-vocabulary plus suffix-heuristic tagger: POS quality is not the point
of this package, and any external tagger's output can be ingested through the
pre-tagged format instead.  The tokenizer keeps a plain unit (all letters and
digits, most units of news text) as one token and splits only the others; the
tagger decides each distinct token once, keeping its decision in a bounded table.
"""
from __future__ import annotations

from functools import cached_property, lru_cache
from typing import List, NamedTuple, Sequence, Tuple

from .record import Record

__all__ = [
    "PENN_TAGS",
    "PosTextError",
    "PosToken",
    "PosSentence",
    "ingest_pretagged",
    "tokenize",
    "pos_tags",
    "tag_raw",
]

# Penn Treebank tag set, word tags plus punctuation tags.
PENN_TAGS = frozenset(
    {
        "CC", "CD", "DT", "EX", "FW", "IN", "JJ", "JJR", "JJS", "LS", "MD",
        "NN", "NNS", "NNP", "NNPS", "PDT", "POS", "PRP", "PRP$", "RB", "RBR",
        "RBS", "RP", "SYM", "TO", "UH", "VB", "VBD", "VBG", "VBN", "VBP",
        "VBZ", "WDT", "WP", "WP$", "WRB",
        ".", ",", ":", "(", ")", "``", "''", "$", "#", "-LRB-", "-RRB-",
    }
)


class PosTextError(ValueError):
    """Raised for malformed pre-tagged input or an empty sentence."""


class PosToken(NamedTuple):
    """One token: its surface form and Penn Treebank POS tag."""

    surface: str
    pos: str


class PosSentence(Record):
    """A non-empty sentence as two columns: one-word surfaces and their Penn Treebank tags."""

    _fields = ("surfaces", "pos_tags")
    __slots__ = (*_fields, "__dict__")  # the dict holds only the cached tokens

    def __init__(self, surfaces: Sequence[str], pos_tags: Sequence[str]) -> None:
        # both columns are stored as tuples: no caller can change a sentence in place
        # (the chunker keys its slot on the pos_tags object)
        surfaces, pos_tags = tuple(surfaces), tuple(pos_tags)
        self._set(surfaces=surfaces, pos_tags=pos_tags)
        if not surfaces:
            raise PosTextError("empty sentence")
        if len(surfaces) != len(pos_tags):
            raise PosTextError(f"{len(surfaces)} surfaces but {len(pos_tags)} POS tags")
        try:
            if PENN_TAGS.issuperset(pos_tags) and " ".join(surfaces).split() == list(surfaces):
                return
        except TypeError:  # a surface that is not a string, named below
            pass
        for i, (surface, tag) in enumerate(zip(surfaces, pos_tags), start=1):
            if not isinstance(surface, str):
                raise PosTextError(f"token {i} {surface!r}: surface is not a string")
            if surface.split() != [surface]:
                raise PosTextError(f"token {i} {surface!r}: surface is not one word")
            if not isinstance(tag, str) or tag not in PENN_TAGS:
                raise PosTextError(f"token {i} {surface!r}: unknown POS tag {tag!r}")

    def __len__(self) -> int:
        return len(self.surfaces)

    @cached_property
    def tokens(self) -> tuple:
        """The PosTokens, built on first use: the leaves of the sentence's chunk trees."""
        return tuple(map(PosToken, self.surfaces, self.pos_tags))


def ingest_pretagged(line: str) -> PosSentence:
    """Parse one ``surface_TAG surface_TAG ...`` line into a PosSentence."""
    surfaces: List[str] = []
    tags: List[str] = []
    for i, unit in enumerate(line.split(), start=1):
        if "_" not in unit:
            raise PosTextError(f"token {i} {unit!r}: missing '_' separator")
        surface, _, tag = unit.rpartition("_")
        if not surface:
            raise PosTextError(f"token {i} {unit!r}: empty surface")
        surfaces.append(surface)
        tags.append(tag)
    return PosSentence(tuple(surfaces), tuple(tags))


_OPENERS = "([{\"'`“‘«"
_CLOSERS = ".,;:!?)]}\"'%»”’"


def _split_unit(unit: str) -> List[str]:
    """A unit's leading openers and trailing closers, one token each, around its word.

    A possessive 's is split off the word.  Neither strip takes the unit's
    last character, so a unit of punctuation alone keeps one as its word.
    """
    rest = unit.lstrip(_OPENERS) or unit[-1]
    word = rest.rstrip(_CLOSERS) or rest[0]
    core = [word]
    if len(word) > 2 and word[-2:].lower() in ("'s", "’s"):
        core = [word[:-2], word[-2:]]
    return [*unit[: len(unit) - len(rest)], *core, *rest[len(word) :]]


def tokenize(text: str) -> List[str]:
    """Whitespace tokenization that splits off punctuation, %, and possessive 's.

    Lossless: concatenating the tokens reproduces the input minus whitespace.
    A plain unit, all letters and digits, is one token as it stands: no
    opener, closer or apostrophe is alphanumeric, so there is nothing to split.
    """
    out: List[str] = []
    for unit in text.split():
        if unit.isalnum():
            out.append(unit)
        else:
            out.extend(_split_unit(unit))
    return out


_PUNCT_TAGS = {
    ".": ".", "!": ".", "?": ".",
    ",": ",",
    ":": ":", ";": ":", "-": ":", "--": ":", "...": ":",
    "(": "(", "[": "(", "{": "(",
    ")": ")", "]": ")", "}": ")",
    '"': "''", "'": "''", "`": "``", "“": "``", "”": "''", "‘": "``", "’": "''",
    "$": "$", "€": "$", "£": "$",
    "#": "#",
    "%": "NN",
}
# punctuation and the possessive, each tagged by its exact surface
_SYMBOL_TAGS = {**_PUNCT_TAGS, "'s": "POS", "’s": "POS"}

_CLOSED_VOCAB = {
    # determiners / prepositions / conjunctions
    "the": "DT", "a": "DT", "an": "DT", "this": "DT", "that": "DT",
    "these": "DT", "those": "DT", "each": "DT", "any": "DT", "some": "DT",
    "no": "DT", "all": "DT", "both": "DT",
    "of": "IN", "in": "IN", "for": "IN", "on": "IN", "by": "IN", "from": "IN",
    "with": "IN", "at": "IN", "as": "IN", "into": "IN", "during": "IN",
    "after": "IN", "before": "IN", "against": "IN", "between": "IN",
    "under": "IN", "over": "IN", "about": "IN", "than": "IN", "versus": "IN",
    "despite": "IN", "per": "IN", "amid": "IN", "through": "IN",
    "within": "IN", "without": "IN", "toward": "IN", "towards": "IN",
    "since": "IN", "until": "IN", "while": "IN", "because": "IN", "if": "IN",
    "although": "IN", "whether": "IN",
    "to": "TO",
    "and": "CC", "or": "CC", "but": "CC", "nor": "CC",
    # pronouns
    "it": "PRP", "he": "PRP", "she": "PRP", "they": "PRP", "we": "PRP",
    "i": "PRP", "you": "PRP", "him": "PRP", "them": "PRP", "us": "PRP",
    "her": "PRP",
    "its": "PRP$", "his": "PRP$", "their": "PRP$", "our": "PRP$",
    "your": "PRP$", "my": "PRP$",
    "there": "EX",
    "which": "WDT", "who": "WP", "what": "WP", "when": "WRB", "where": "WRB",
    "how": "WRB", "why": "WRB",
    # modals / auxiliaries / frequent verbs
    "will": "MD", "would": "MD", "can": "MD", "could": "MD", "may": "MD",
    "might": "MD", "shall": "MD", "should": "MD", "must": "MD",
    "is": "VBZ", "has": "VBZ", "does": "VBZ",
    "are": "VBP", "have": "VBP", "do": "VBP",
    "was": "VBD", "were": "VBD", "had": "VBD", "did": "VBD", "said": "VBD",
    "made": "VBD", "took": "VBD", "went": "VBD", "became": "VBD",
    "rose": "VBD", "grew": "VBD", "slid": "VBD", "sank": "VBD",
    "shrank": "VBD", "fell": "VBD", "won": "VBD",
    "be": "VB", "make": "VB", "buy": "VB", "sell": "VB", "build": "VB",
    "cut": "VB",
    "been": "VBN", "done": "VBN", "compared": "VBN", "based": "VBN",
    "expects": "VBZ", "says": "VBZ", "intends": "VBZ", "aims": "VBZ",
    "remains": "VBZ", "continues": "VBZ", "owns": "VBZ", "employs": "VBZ",
    "expect": "VBP", "remain": "VBP", "aim": "VBP", "continue": "VBP",
    # adverbs / comparatives
    "not": "RB", "also": "RB", "however": "RB", "only": "RB",
    "already": "RB", "currently": "RB", "respectively": "RB", "well": "RB",
    "very": "RB", "too": "RB", "so": "RB", "now": "RB", "here": "RB",
    "up": "RB", "down": "RB", "later": "RB", "again": "RB", "still": "RB",
    "earlier": "RBR", "more": "JJR", "less": "JJR", "most": "JJS",
    "least": "JJS", "higher": "JJR", "lower": "JJR", "stronger": "JJR",
    "weaker": "JJR", "better": "JJR", "worse": "JJR",
    # frequent adjectives and noun-modifiers in financial text
    "new": "JJ", "first": "JJ", "second": "JJ", "third": "JJ", "fourth": "JJ",
    "last": "JJ", "next": "JJ", "financial": "JJ", "net": "JJ", "gross": "JJ",
    "total": "JJ", "annual": "JJ", "previous": "JJ", "same": "JJ",
    "high": "JJ", "low": "JJ", "comparable": "JJ", "corresponding": "JJ",
    "short-term": "JJ", "long-term": "JJ", "due": "JJ", "unit": "NN",
    "operating": "NN", "year-on-year": "JJ",
    # numbers written out
    "million": "CD", "billion": "CD", "thousand": "CD", "mn": "CD",
    "bn": "CD", "meur": "CD",
    "percent": "NN", "pct": "NN", "euro": "NN", "euros": "NN",
}


_TABLE_SIZE = 2**14  # distinct tokens decided: numbers and names make a vocabulary open-ended


@lru_cache(maxsize=_TABLE_SIZE)
def _decide(tok: str) -> Tuple[str, bool, bool]:
    """A token's tag at position 0; whether a capital makes it NNP after that; whether TO/MD makes it VB."""
    if not isinstance(tok, str) or not tok:
        raise TypeError(tok)
    if tok in _SYMBOL_TAGS:
        return _SYMBOL_TAGS[tok], False, False
    if tok[0].isdigit() or (len(tok) > 1 and tok[0] in "+-" and tok[1].isdigit()):
        return "CD", False, False
    if (lower := tok.lower()) in _CLOSED_VOCAB:
        return _CLOSED_VOCAB[lower], False, False
    if lower.endswith("ly"):
        tag = "RB"
    elif lower.endswith("ing") and len(lower) > 4:
        tag = "VBG"
    elif lower.endswith("ed") and len(lower) > 3:
        tag = "VBD"
    elif lower.endswith("s") and not lower.endswith(("ss", "us", "is")) and len(lower) > 2:
        tag = "NNS"
    else:
        tag = "NN"
    return tag, tok[0].isupper(), tok.isalpha()


def pos_tags(tokens: Sequence[str]) -> List[str]:
    """Closed-vocabulary + suffix-heuristic POS tags for ``tokens``; a token not a non-empty str is a PosTextError.

    Deterministic and dependency-free; adequate for the chunk grammars this package ships.  The first rule that
    applies tags a token: symbol, number, closed vocabulary, NNP for a capital after position 0, VB after TO or MD,
    then suffix.  ``_decide`` runs them once per distinct token; only the two context rules run per position.
    """
    tags: List[str] = []
    try:
        for tok in tokens:
            tag, proper, verb = _decide(tok)
            if tags and (proper or verb and tags[-1] in ("TO", "MD")):
                tag = "NNP" if proper else "VB"
            tags.append(tag)
    except TypeError:  # a bad token (an unhashable one fails in the table's lookup)
        why = "one word" if isinstance(tok := tokens[len(tags)], str) else "a string"
        raise PosTextError(f"token {len(tags) + 1} {tok!r}: surface is not {why}") from None
    return tags


def tag_raw(text: str) -> PosSentence:
    """Tokenize raw text and tag it with the bundled tagger."""
    tokens = tokenize(text)
    return PosSentence(tuple(tokens), tuple(pos_tags(tokens)))
