import functools
import math
import pickle
import random
import sys
from collections.abc import Sequence
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finsent import chunker, semtag
from finsent.chunker import bundled_grammar, chunk, chunk_spans
from finsent.lexicon import (
    DIRECTION_CATEGORIES,
    INDICATOR_CATEGORIES,
    SENTIMENT_CATEGORIES,
    LexCategory,
    Lexicon,
    load_default_lexicon,
    normalize_phrase,
)
from finsent.pos_text import PosSentence, PosTextError, tag_raw
from finsent.semtag import (
    Mode,
    SemTag,
    TaggedSentence,
    canonical_order,
    extract_pairs,
    filter_mode,
    flip_direction,
    pair_nodes,
    tag_sentence,
)
from finsent.semtag import (
    _Hit, _find_in_span, _lexicon_hits, _numeric_hit, _pair_hits, _parse_value, _scan,
)
from oracles import (
    flat_pair_hits, lookup_find_in_span, lookup_hits, lookup_scan, reference_tag, two_walk_numeric_hit,
    walk_parse_value,
)
from synth_corpus import synthetic_benchmark

sys.path.append(str(Path(__file__).resolve().parent.parent / "benchmarks"))
from workloads import LONGTAIL_MAX_LEN, LONGTAIL_MIN_LEN, SentenceBuilder  # noqa: E402


def mini_lexicon(entries, reversals=()):
    return Lexicon(
        entries={k: LexCategory(v) for k, v in entries.items()},
        reversal_terms=frozenset(reversals),
    )


def tags_of(text, lex, reversal=False):
    return tag_sentence(tag_raw(text), lex, reversal=reversal).tags


# ---------------------------------------------------------------------------
# tag_sentence worked examples
# ---------------------------------------------------------------------------


def test_indicator_direction_interaction(lexicon):
    text = "Olvi expects market share to increase in the first quarter of 2010"
    assert tags_of(text, lexicon) == {SemTag.LAGIND_UP}


def test_numeric_comparison_sentence(lexicon):
    text = "Operating profit margin was 8.3 %, compared to 11.8 % a year earlier"
    assert tags_of(text, lexicon) == {SemTag.LAGIND_DOWN}


def test_numeric_comparison_with_minimal_lexicon():
    lex = mini_lexicon({"operating profit": "LagInd"})
    text = "Operating profit margin was 8.3 %, compared to 11.8 % a year earlier"
    assert tags_of(text, lex) == {SemTag.LAGIND_DOWN}


def test_tagging_builds_no_token_leaves(lexicon):
    # tagging reads span tables: only chunk's tree builds the PosToken leaves,
    # which cost three times the sentence's column check
    interaction = tag_raw("Olvi expects market share to increase in the first quarter of 2010")
    assert tag_sentence(interaction, lexicon).tags == {SemTag.LAGIND_UP}
    # no direction word in this lexicon, so the interaction comes from the numeric grammar's table
    numeric = tag_raw("Operating profit margin was 8.3 %, compared to 11.8 % a year earlier")
    assert tag_sentence(numeric, mini_lexicon({"operating profit": "LagInd"})).tags == {SemTag.LAGIND_DOWN}
    for sentence in (interaction, numeric):
        assert "tokens" not in sentence.__dict__


def test_reversal_flips_cost_direction(lexicon):
    text = "Unit costs for flight operations fell by 6.4 percent"
    assert tags_of(text, lexicon, reversal=False) == {SemTag.LAGIND_DOWN}
    assert tags_of(text, lexicon, reversal=True) == {SemTag.LAGIND_UP}


def test_reversal_with_minimal_lexicon():
    lex = mini_lexicon({"costs": "LagInd", "fell": "DOWN"}, reversals={"costs"})
    text = "Unit costs for flight operations fell by 6.4 percent"
    assert tags_of(text, lex, reversal=False) == {SemTag.LAGIND_DOWN}
    assert tags_of(text, lex, reversal=True) == {SemTag.LAGIND_UP}


def test_no_lexicon_words_gives_empty_set(lexicon):
    assert tags_of("The weather was nice yesterday", lexicon) == frozenset()


def test_bare_tags_from_unpaired_words(lexicon):
    tags = tags_of("Sales were strong but the lawsuit remained a concern", lexicon)
    assert tags == {SemTag.LAGIND, SemTag.POS, SemTag.NEG}


def test_interaction_suppresses_constituent_bare_tags(lexicon):
    tags = tags_of("Turnover rose to EUR 21mn from EUR 17mn", lexicon)
    assert tags == {SemTag.LAGIND_UP}
    assert SemTag.LAGIND not in tags
    assert SemTag.UP not in tags


def test_sentiment_scan_is_chunk_independent(lexicon):
    tags = tags_of("The good news is an increase was recorded", lexicon)
    assert tags == {SemTag.UP, SemTag.POS}


def test_tagging_is_deterministic(lexicon):
    text = "Demand for fireplace products was lower than expected"
    assert tags_of(text, lexicon) == tags_of(text, lexicon)


_FUZZ_WORDS = [
    "operating profit", "net sales", "Turnover", "costs", "orders", "market share", "rose", "fell",
    "increased", "lower", "strong", "lawsuit", "compared to", "down from", "up from", "versus",
    "the", "of", "in", "to", "and", "was", "EUR", "mn", "%", ",", ".", "(", ")", "'s", "--",
    "8,3", "1,234.5", "1.2.3", "-2.5", "+12", "21mn", "2010", "Finland", "Q1",
]
_fuzz_texts = st.one_of(
    st.text(max_size=80),
    st.lists(st.sampled_from(_FUZZ_WORDS), max_size=40).map(" ".join),
    st.integers(200, 260).flatmap(
        lambda n: st.lists(st.sampled_from(_FUZZ_WORDS), min_size=n, max_size=n)
    ).map(" ".join),
)


@given(_fuzz_texts, st.booleans())
@settings(max_examples=100, deadline=None)
def test_random_text_tags_the_same_on_cold_and_warm_caches(lexicon, text, reversal):
    try:
        sentence = tag_raw(text)
        bundled_grammar.cache_clear()  # fresh grammars and plans: no DFA transition is cached yet
        chunker._plan.cache_clear()
        cold = tag_sentence(sentence, lexicon, reversal=reversal).tags
    except PosTextError:
        return
    assert tag_sentence(sentence, lexicon, reversal=reversal).tags == cold


@functools.lru_cache(maxsize=None)
def _longtail_builder():
    return SentenceBuilder(load_default_lexicon())


def _longtail_sentence(seed, length, label):
    return _longtail_builder().sentence(random.Random(seed), length, label)


# the phrasebank stand-in's sentences and the longtail benchmark's sentences
_workload_texts = st.one_of(
    st.sampled_from(synthetic_benchmark()[0]),
    st.builds(_longtail_sentence, st.integers(0, 2**32), st.integers(LONGTAIL_MIN_LEN, LONGTAIL_MAX_LEN),
              st.sampled_from(["positive", "neutral", "negative"])),
)
_tagger_texts = st.one_of(_fuzz_texts, _workload_texts)


@given(_tagger_texts, st.booleans())
@settings(max_examples=100, deadline=None)
def test_tag_sentence_matches_reference_tagger(lexicon, text, reversal):
    # the reference chunks whatever the lexicon hits: every sentence with the
    # pair grammar, and each one with a marker and no pair with the numeric
    # grammar.  So this also checks that tag_sentence's gate on the hits skips
    # a grammar only where it would find nothing
    try:
        sentence = tag_raw(text)
    except PosTextError:
        return
    assert tag_sentence(sentence, lexicon, reversal=reversal).tags == reference_tag(sentence, lexicon, reversal)


# Overlapping multi-word entries in different categories, for the scan oracles.
# The Greek entries are lowercase forms of words whose lowercase depends on
# context: a final capital sigma lowers to "ς", any other to "σ".  "İ" lowers
# to two code points, "i" and a combining dot above.
_OVERLAP_LEX = mini_lexicon({
    "net sales": "LagInd", "sales": "LagInd", "strong sales": "POS", "strong": "POS",
    "net sales fell": "NEG", "fell": "DOWN", "fell short": "NEG", "short": "DOWN",
    "order book": "LeadInd", "book": "NEG", "orders rose": "POS", "orders": "LeadInd", "rose": "UP",
    "ας": "UP", "σ net": "NEG", "ασας rose": "POS", "i\u0307 sales": "LeadInd",
})
# one word each, as PosSentence requires, in mixed case; "the" and "of" start no
# entry, and "order" only a two-word one
_ONE_WORD = ["net", "Net", "sales", "SALES", "strong", "fell", "short", "order", "book",
             "orders", "rose", "the", "of", "ΑΣ", "Σ", "ΑΣΑΣ", "ασας", "σ", "İ", "i"]
_surface_lists = st.lists(st.sampled_from(_ONE_WORD), max_size=16)
_CATEGORY_SETS = [
    INDICATOR_CATEGORIES | DIRECTION_CATEGORIES, SENTIMENT_CATEGORIES,
    INDICATOR_CATEGORIES, DIRECTION_CATEGORIES,
]


# _lexicon_hits reads the surfaces lowercased one by one; the oracles get the
# mixed-case surfaces and lowercase whole phrases
@given(_surface_lists)
@example(["İ", "SALES", "i", "Sales"])
@example(["ΑΣ", "ΣΑΣ", "ΑΣΑΣ", "ROSE", "Σ", "NET", "ΑΣ"])
@settings(max_examples=300, deadline=None)
def test_hit_list_matches_lookup_oracles(surfaces):
    _assert_hits_match_lookup_oracles(_OVERLAP_LEX, surfaces)


def _assert_hits_match_lookup_oracles(lex, surfaces):
    hits = _lexicon_hits(lex, [surface.lower() for surface in surfaces])
    assert [tuple(hit) for hit in hits] == lookup_hits(lex, surfaces)
    n = len(surfaces)
    for categories in _CATEGORY_SETS:
        scanned = [tuple(hit) for hit in _scan(hits, categories)]
        assert scanned == list(lookup_scan(lex, surfaces, categories))
        for start in range(n):
            for end in range(start + 1, n + 1):
                found = _find_in_span(hits, start, end, categories)
                expected = lookup_find_in_span(lex, surfaces, start, end, categories)
                assert (found and tuple(found)) == expected, (start, end, categories)


# Random lexicons over a few words, so entries share prefixes: entries of 1-5
# words; long entries (4-5 words) whose 2- and 3-word prefixes are not entries,
# so a walk must pass nodes that end no phrase; and keys load_lexicon would
# normalize, which no lookup hits.  Sentences are runs of entry words and
# single words, each in one of three cases.  Mutants this catches: a walk that
# keeps only the longest end of each start, one that stops at a node ending no
# phrase, a trie built from every key normalized (it hits "Net Sales"), and a
# pickled lexicon rebuilt without its trie.
_VOCAB = ["net", "sales", "rose", "fell", "order", "book", "strong", "the"]
_CATEGORIES = st.sampled_from(list(LexCategory))
_UNNORMALIZE = [str.title, str.upper, lambda key: key.replace(" ", "  ", 1), lambda key: key + " ",
                lambda key: ""]


def _vocab_phrases(min_size, max_size):
    return st.lists(st.sampled_from(_VOCAB), min_size=min_size, max_size=max_size).map(" ".join)


@st.composite
def _random_lexicons(draw):
    entries = draw(st.dictionaries(_vocab_phrases(1, 5), _CATEGORIES, max_size=12))
    for phrase in draw(st.lists(_vocab_phrases(4, 5), max_size=3)):
        words = phrase.split()
        for k in (2, 3):
            entries.pop(" ".join(words[:k]), None)
        entries[phrase] = draw(_CATEGORIES)
    for phrase in draw(st.lists(_vocab_phrases(1, 3), max_size=4)):
        entries[draw(st.sampled_from(_UNNORMALIZE))(phrase)] = draw(_CATEGORIES)
    return Lexicon(entries=entries)


@given(_random_lexicons(), st.data())
@settings(max_examples=300, deadline=None)
def test_random_lexicon_hits_match_lookup_oracles(lex, data):
    pieces = [phrase.split() for phrase in lex.entries if phrase.strip()] + [[word] for word in _VOCAB]
    runs = data.draw(st.lists(st.sampled_from(pieces), max_size=6))
    surfaces = [data.draw(st.sampled_from([word.lower(), word.title(), word.upper()]))
                for run in runs for word in run]
    _assert_hits_match_lookup_oracles(lex, surfaces)
    words = [surface.lower() for surface in surfaces]
    assert _lexicon_hits(pickle.loads(pickle.dumps(lex)), words) == _lexicon_hits(lex, words)


# A Lexicon built directly may hold keys that load_lexicon would normalize:
# capitals, doubled or outer whitespace, the empty phrase.  Lookup normalizes
# only its query, so such a key is never hit.
_RAW_KEY_LEX = Lexicon(entries={
    "Net Sales": LexCategory.LAGIND, "net  sales fell": LexCategory.NEG, " fell": LexCategory.DOWN,
    "SALES rose": LexCategory.POS, "sales": LexCategory.LAGIND, "net": LexCategory.UP,
    "": LexCategory.NEG, "rose ": LexCategory.UP, "fell": LexCategory.DOWN,
})


@given(st.lists(st.sampled_from(["net", "Net", "sales", "Sales", "fell", "rose", "SALES"]),
                max_size=10))
@example(["Net", "İ", "SALES", "ROSE"])
@example(["ΑΣ", "Net", "Sales", "Σ"])
@settings(max_examples=300, deadline=None)
def test_hits_with_unnormalized_keys_match_ungated_oracle(surfaces):
    hits = _lexicon_hits(_RAW_KEY_LEX, [surface.lower() for surface in surfaces])
    assert [tuple(hit) for hit in hits] == lookup_hits(_RAW_KEY_LEX, surfaces)


_PAIR_TAGS = ["NN", "NNS", "NNP", "VB", "VBD", "JJ", "RB", "IN", "DT", "TO", "CD",
              ",", "(", ")", "POS", "PRP"]


_MAYBE_CATEGORY = st.sampled_from([None, None, *LexCategory])


@st.composite
def _tags_and_hits(draw):
    """A POS sequence and a hit list in _lexicon_hits' order: at each start, maybe
    a hit of 2-3 tokens, then maybe one of 1 token."""
    n = draw(st.integers(11, 240))
    tags = draw(st.lists(st.sampled_from(_PAIR_TAGS), min_size=n, max_size=n))
    starts = draw(st.lists(st.tuples(_MAYBE_CATEGORY, st.integers(2, 3), _MAYBE_CATEGORY),
                           min_size=n, max_size=n))
    hits = []
    for start, (long_category, length, one_category) in enumerate(starts):
        if long_category is not None and start + length <= n:
            hits.append(_Hit(long_category, f"p{start}", start, start + length))
        if one_category is not None:
            hits.append(_Hit(one_category, f"p{start}", start, start + 1))
    return tags, tuple(hits)


@given(_tags_and_hits())
@settings(max_examples=50, deadline=None)
def test_pair_loop_matches_flat_oracle(tags_and_hits):
    tags, hits = tags_and_hits
    sentence = PosSentence(tuple(f"w{i}" for i in range(len(tags))), tuple(tags))
    extraction = extract_pairs(chunk_spans(bundled_grammar("indicator_direction"), sentence))
    find = functools.partial(_find_in_span, hits)
    assert _pair_hits(extraction, find) == flat_pair_hits(
        extraction.pairs, find, INDICATOR_CATEGORIES, DIRECTION_CATEGORIES
    )


@given(st.one_of(
    _tags_and_hits().map(lambda tags_and_hits: PosSentence(
        tuple(f"w{i}" for i in range(len(tags_and_hits[0]))), tuple(tags_and_hits[0]))),
    _workload_texts.map(tag_raw),
))
@settings(max_examples=100, deadline=None)
def test_pair_grammar_nodes_are_disjoint(sentence):
    # the premise of _pair_hits' zip, on random POS sequences and both workloads' sentences:
    # no chunk is in two pair nodes, and no node holds another
    entries = [entry for node in pair_nodes(chunk_spans(bundled_grammar("indicator_direction"), sentence))
               for entry in node]
    assert len(entries) == len(set(entries))
    assert all(label != "NPJJ" for label, _, _ in entries)


# CD surfaces: distinct, equal and unparsable values
_CD_SURFACES = ["8.3", "11.8", "5", "5.0", "1,234", "-2", "mn", "1.2.3"]


@given(_tags_and_hits(), st.data())
@settings(max_examples=100, deadline=None)
def test_numeric_walk_matches_two_walk_oracle(tags_and_hits, data):
    tags, hits = tags_and_hits
    cds = data.draw(st.lists(st.sampled_from(_CD_SURFACES), min_size=len(tags), max_size=len(tags)))
    surfaces = tuple(cd if tag == "CD" else f"w{i}" for i, (tag, cd) in enumerate(zip(tags, cds)))
    sentence = PosSentence(surfaces, tuple(tags))
    table = chunk_spans(bundled_grammar("numeric_direction"), sentence)
    tree = chunk(bundled_grammar("numeric_direction"), sentence)
    find = functools.partial(_find_in_span, hits)
    for marker in (None, *semtag.COMPARISON_MARKERS):
        assert _numeric_hit(table, sentence.surfaces, find, marker) == two_walk_numeric_hit(
            tree, find, marker
        )


class _CountingHits(Sequence):
    """A hit list that counts every hit read from it."""

    def __init__(self, hits):
        self.hits, self.reads = hits, 0

    def __len__(self):
        return len(self.hits)

    def __getitem__(self, key):
        got = self.hits[key]
        self.reads += len(got) if isinstance(key, slice) else 1
        return got

    def __iter__(self):
        for hit in self.hits:
            self.reads += 1
            yield hit


def test_span_query_reads_only_its_span():
    # 1,001 tokens; at each start but the last, a two-token hit, then a one-token one
    hits = []
    for start in range(1000):
        hits += [_Hit(LexCategory.LAGIND, f"p{start}", start, start + 2),
                 _Hit(LexCategory.LAGIND, f"p{start}", start, start + 1)]
    counting = _CountingHits(tuple(hits))
    assert _find_in_span(counting, 500, 501, INDICATOR_CATEGORIES) == hits[1001]
    # the two hits that start in the span, plus two bisections' probes
    assert counting.reads <= 2 + 2 * math.ceil(math.log2(len(hits) + 1))


# Work counts of one fixed long sentence (153 tokens, three copies of 51).
# Tagging reads the lexicon through its word trie alone: no phrase is looked
# up or normalized (the trie is built with the lexicon, before counting starts;
# reversal is off, so ``is_reversal`` never runs).
GUARD_SENTENCE = (
    "Operating profit and net sales rose in the first quarter , while costs fell and orders increased "
    "compared to the weak market in Finland , and the strong order book of the company supported sales "
    "although the lawsuit and lower prices in Sweden weighed on operating profit , costs and orders "
) * 3
GUARD_LOOKUPS = GUARD_NORMALIZATIONS = 0
# One chunk (interactions are found, so the numeric grammar never runs), the
# candidate pairs of the NPJJ nodes, and one span query per indicator chunk of
# a node plus one per modifier chunk of a node whose indicators hold a hit.
GUARD_CHUNKS, GUARD_PAIRS, GUARD_SPAN_QUERIES = 1, 1242, 73


def test_work_count_guard(monkeypatch):
    lex = mini_lexicon({
        "operating profit": "LagInd", "sales": "LagInd", "costs": "LagInd", "orders": "LeadInd",
        "rose": "UP", "increased": "UP", "fell": "DOWN", "lower": "DOWN",
        "strong": "POS", "lawsuit": "NEG",
    })
    counts = {"lookup": 0, "normalize": 0, "step": 0, "chunk": 0, "pairs": 0, "find": 0}
    lookup, step = Lexicon.lookup, chunker._step
    semtag_chunk, semtag_extract_pairs = semtag.chunk, semtag.extract_pairs
    find_in_span = semtag._find_in_span

    def counting_lookup(self, phrase):
        counts["lookup"] += 1
        return lookup(self, phrase)

    def counting_normalize(phrase):
        counts["normalize"] += 1
        return normalize_phrase(phrase)

    def counting_step(rule, states, symbol):
        counts["step"] += 1
        return step(rule, states, symbol)

    def counting_chunk(grammar, sentence):
        counts["chunk"] += 1
        return semtag_chunk(grammar, sentence)

    def counting_extract_pairs(tree):
        extraction = semtag_extract_pairs(tree)
        counts["pairs"] += len(extraction.pairs)
        return extraction

    def counting_find_in_span(hits, start, end, categories):
        counts["find"] += 1
        return find_in_span(hits, start, end, categories)

    # the benchmark's tracer wraps Lexicon.lookup, semtag.chunk and semtag.extract_pairs too
    monkeypatch.setattr(Lexicon, "lookup", counting_lookup)
    monkeypatch.setattr("finsent.lexicon.normalize_phrase", counting_normalize)
    monkeypatch.setattr(chunker, "_step", counting_step)
    monkeypatch.setattr(semtag, "chunk", counting_chunk)
    monkeypatch.setattr(semtag, "extract_pairs", counting_extract_pairs)
    monkeypatch.setattr(semtag, "_find_in_span", counting_find_in_span)
    sentence = tag_raw(GUARD_SENTENCE)
    assert len(sentence) == 153
    assert SemTag.LEADIND_UP in tag_sentence(sentence, lex).tags
    assert counts["lookup"] == GUARD_LOOKUPS
    assert counts["normalize"] == GUARD_NORMALIZATIONS
    assert counts["chunk"] == GUARD_CHUNKS
    assert counts["pairs"] == GUARD_PAIRS
    assert counts["find"] == GUARD_SPAN_QUERIES

    for name in ("indicator_direction", "numeric_direction"):
        chunk_spans(bundled_grammar(name), sentence)
        computed = counts["step"]
        chunk_spans(bundled_grammar(name), sentence)
        assert counts["step"] == computed, f"{name}: a warm chunk computed new DFA states"


# A long sentence (99 tokens, three copies of 33) with a comparison marker and,
# as the lexicon holds no direction word, no interaction: the numeric grammar runs.
NUMERIC_GUARD_SENTENCE = (
    "Operating profit was EUR 8.3 mn , compared to EUR 11.8 mn in the corresponding period in 2007 , "
    "and net sales totalled EUR 120.5 mn in the second quarter of the year "
) * 3


def test_numeric_path_tracer_contract_guard(monkeypatch):
    # the benchmark's tracer wraps semtag.chunk in a function of exactly
    # (grammar, sentence) and names the call by the grammar it gets.  The guard
    # sentence has an indicator and a marker but no direction word: one numeric
    # call, which runs its own pass.  With a direction word outside every pair
    # node, the pair call comes first and finds nothing; each call runs its pass
    lex = mini_lexicon({"operating profit": "LagInd", "net sales": "LagInd", "orders": "LeadInd", "strong": "UP"})
    calls, passes = [], [0]
    semtag_chunk, apply = semtag.chunk, chunker._apply

    def counting_apply(*args):
        passes[0] += 1
        return apply(*args)

    def chunk(grammar, sentence):
        before = passes[0]
        table = semtag_chunk(grammar, sentence)
        calls.append((grammar, sentence, passes[0] - before))
        return table

    monkeypatch.setattr(chunker, "_apply", counting_apply)
    monkeypatch.setattr(semtag, "chunk", chunk)
    pair, numeric = bundled_grammar("indicator_direction"), bundled_grammar("numeric_direction")
    for text, shape in [(NUMERIC_GUARD_SENTENCE, [(False, True, 1)]),
                        ("Strong : operating profit was EUR 8.3 mn , compared to EUR 11.8 mn",
                         [(True, False, 1), (False, True, 1)])]:
        calls.clear()
        sentence = tag_raw(text)
        assert SemTag.LAGIND_DOWN in tag_sentence(sentence, lex).tags
        assert all(got is sentence for _, got, _ in calls)
        assert [(grammar is pair, grammar is numeric, ran) for grammar, _, ran in calls] == shape
    assert len(tag_raw(NUMERIC_GUARD_SENTENCE)) == 99


def test_a_grammar_runs_only_on_hits_it_can_pair(monkeypatch):
    # a pair needs an indicator and a direction hit, the numeric path an indicator
    # hit and a marker; a grammar that could find nothing is not called
    lex = mini_lexicon({"operating profit": "LagInd", "rose": "UP"})
    pair, numeric = bundled_grammar("indicator_direction"), bundled_grammar("numeric_direction")
    calls = []
    semtag_chunk = semtag.chunk

    def chunk(grammar, sentence):
        calls.append("pair" if grammar is pair else "numeric" if grammar is numeric else grammar)
        return semtag_chunk(grammar, sentence)

    monkeypatch.setattr(semtag, "chunk", chunk)
    for text, tags, called in [
        ("Operating profit was EUR 8.3 mn in the period", {SemTag.LAGIND}, []),
        ("Shares rose to EUR 8.3 , compared to EUR 11.8", {SemTag.UP}, []),
        ("Operating profit was EUR 8.3 mn , compared to EUR 11.8 mn", {SemTag.LAGIND_DOWN}, ["numeric"]),
        ("Operating profit rose to EUR 11.8 mn", {SemTag.LAGIND_UP}, ["pair"]),
    ]:
        calls.clear()
        assert tags_of(text, lex) == tags and calls == called, text


# ---------------------------------------------------------------------------
# numeric directionality
# ---------------------------------------------------------------------------


def numeric_tag(text, lex):
    """The sentence's one interaction tag, or None; these lexicons hold no
    direction word, so any interaction comes from the numeric path."""
    interactions = [tag for tag in tags_of(text, lex) if "::" in tag.value]
    assert len(interactions) <= 1, interactions
    return interactions[0] if interactions else None


def test_numeric_lower_current_is_down():
    lex = mini_lexicon({"operating profit": "LagInd"})
    text = "Operating profit margin was 8.3 % , compared to 11.8 % a year earlier"
    assert numeric_tag(text, lex) is SemTag.LAGIND_DOWN


def test_numeric_equal_values_yield_nothing():
    lex = mini_lexicon({"operating profit": "LagInd"})
    text = "Operating profit margin was 5.0 % , compared to 5.0 % a year earlier"
    assert numeric_tag(text, lex) is None


def test_numeric_higher_current_is_up():
    lex = mini_lexicon({"sales": "LagInd"})
    assert numeric_tag("Sales were 21 mn , compared to 17 mn a year earlier", lex) is SemTag.LAGIND_UP


def test_numeric_marker_overrides():
    lex = mini_lexicon({"turnover": "LagInd"})
    assert numeric_tag("Turnover was EUR 21 mn , up from EUR 17 mn", lex) is SemTag.LAGIND_UP
    assert numeric_tag("Turnover was EUR 17 mn , down from EUR 21 mn", lex) is SemTag.LAGIND_DOWN


def test_numeric_requires_two_values():
    lex = mini_lexicon({"sales": "LagInd"})
    assert numeric_tag("Sales were 21 mn , compared to expectations", lex) is None


@pytest.mark.parametrize("surface, value", [
    ("1,234.5", 1234.5),
    ("8,3", 8.3),
    ("12,500", 12500.0),
    ("1,234,567", 1234567.0),
    ("8,30", 8.3),
    ("-2.5", -2.5),
    ("+12", 12.0),
    ("21mn", 21.0),
    ("1.2.3", None),
    ("mn", None),
])
def test_parse_value(surface, value):
    assert _parse_value(surface) == value


def _number(sign, runs, separators, tail):
    return sign + runs[0] + "".join(s + r for s, r in zip(separators, runs[1:])) + tail


_number_like = st.builds(
    _number,
    st.sampled_from(["", "+", "-"]),
    # U+0663, an Arabic-Indic 3: the code's \d and the oracle's isdecimal() take any decimal digit
    st.lists(st.text(alphabet="0123456789\u0663", min_size=1, max_size=5), min_size=1, max_size=4),
    st.lists(st.sampled_from([".", ","]), min_size=3, max_size=3),
    st.sampled_from(["", "mn", "%", ".", ",", "a1", ",5x", ".,"]),
)


@given(st.one_of(_number_like, st.text(alphabet="+-0123456789.,m", max_size=10)))
@settings(max_examples=500, deadline=None)
def test_parse_value_matches_walk_oracle(surface):
    assert _parse_value(surface) == walk_parse_value(surface)


def test_numeric_decimal_comma(lexicon):
    text = "Operating profit was EUR 8,3 mn , compared to EUR 11 mn ."
    assert tags_of(text, lexicon) == {SemTag.LAGIND_DOWN}


def test_numeric_unparseable_value_is_skipped(lexicon):
    # "1.2.3" is no number: one value is left, so the numeric path yields nothing
    text = "Operating profit was EUR 1.2.3 mn , compared to EUR 11 mn ."
    assert tags_of(text, lexicon) == {SemTag.LAGIND}


def test_numeric_skipped_when_direction_word_present(lexicon):
    # an interaction beats the numeric path even with a marker in the sentence
    tags = tags_of("Turnover rose to 21 mn , compared to 17 mn", lexicon)
    assert tags == {SemTag.LAGIND_UP}


# ---------------------------------------------------------------------------
# mode filtering and reversal algebra
# ---------------------------------------------------------------------------


def tagged(tags):
    return TaggedSentence(frozenset(tags))


def test_filter_mode_examples():
    assert filter_mode(tagged({SemTag.LEADIND_UP, SemTag.POS}), Mode.LAG_ONLY).tags == frozenset()
    assert filter_mode(tagged({SemTag.LAGIND_DOWN, SemTag.NEG}), Mode.LAG_LEAD).tags == {
        SemTag.LAGIND_DOWN
    }
    full = {SemTag.LAGIND, SemTag.POS, SemTag.NEG}
    assert filter_mode(tagged(full), Mode.ALL).tags == full


_tag_sets = st.sets(st.sampled_from(list(SemTag)))


@given(_tag_sets)
@settings(max_examples=200, deadline=None)
def test_mode_filter_is_monotone(tags):
    t = tagged(tags)
    lag = filter_mode(t, Mode.LAG_ONLY).tags
    lag_lead = filter_mode(t, Mode.LAG_LEAD).tags
    everything = filter_mode(t, Mode.ALL).tags
    assert lag <= lag_lead <= everything
    assert everything == frozenset(tags)


@given(_tag_sets)
@settings(max_examples=200, deadline=None)
def test_reversal_is_an_involution(tags):
    flipped_twice = {flip_direction(flip_direction(t)) for t in tags}
    assert flipped_twice == set(tags)


def test_flip_direction_table():
    assert flip_direction(SemTag.LAGIND_DOWN) is SemTag.LAGIND_UP
    assert flip_direction(SemTag.LEADIND_UP) is SemTag.LEADIND_DOWN
    assert flip_direction(SemTag.POS) is SemTag.POS


def test_canonical_order():
    mixed = [SemTag.LAGIND_UP, SemTag.NEG, SemTag.LAGIND, SemTag.POS]
    assert canonical_order(mixed) == [SemTag.LAGIND, SemTag.POS, SemTag.NEG, SemTag.LAGIND_UP]
    assert canonical_order(t.value for t in mixed) == ["LagInd", "POS", "NEG", "LagInd::UP"]
