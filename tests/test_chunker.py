import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_chunker as ref
from finsent.chunker import (
    Chunk,
    ChunkRule,
    GrammarError,
    Leaf,
    bundled_grammar,
    bundled_grammar_source,
    chunk,
    compile_grammar,
    extract_pairs,
    to_bracket,
)
from finsent.pos_text import PosSentence, PosToken, ingest_pretagged

GOLDENS = json.loads((Path(__file__).parent / "data" / "chunk_goldens.json").read_text())


def sentence_from_tags(tags):
    return PosSentence(tuple(PosToken(f"w{i}", t) for i, t in enumerate(tags)))


# ---------------------------------------------------------------------------
# grammar compilation
# ---------------------------------------------------------------------------


def test_compile_single_rule():
    g = compile_grammar("NP: {(<NNS|NN>)*}")
    assert g.labels == ("NP",)
    tree = chunk(g, sentence_from_tags(["NNS", "NN", "VBD"]))
    assert to_bracket(tree) == "(S (NP w0_NNS w1_NN) w2_VBD)"


def test_unclosed_atom_is_syntax_error():
    with pytest.raises(GrammarError, match="X"):
        compile_grammar("X: {<NN")


def test_unclosed_group_is_syntax_error():
    with pytest.raises(GrammarError, match="group"):
        compile_grammar("X: {(<NN>}")


def test_undefined_label_reference():
    with pytest.raises(GrammarError, match="undefined label"):
        compile_grammar("NPJJ: {<NP><VB>}")


def test_forward_reference_is_undefined():
    source = "NPJJ: {<NP>}\nNP: {<NN>}"
    with pytest.raises(GrammarError, match="undefined label"):
        compile_grammar(source)


_GRAMMAR_ERRORS = [
    ("", "grammar contains no rules"),
    ("# only a comment\n", "grammar contains no rules"),
    ("1X: {<NN>}", "expected rule label at offset 0, got '1X: {<NN>}'"),
    ("X {<NN>}", "rule X: expected ':' at offset 2"),
    ("X: <NN>}", "rule X: expected '{' at offset 3"),
    ("X: {<NN>", "rule X: missing closing '}'"),
    ("X: {<<NN>}", "rule X: missing closing '}'"),
    ("X: {<>}", "rule X: empty atom at position 0"),
    ("X: {< >}", "rule X: empty atom at position 0"),
    ("X: {<NN>x}", "rule X: unexpected character 'x' at position 4"),
    ("X: {<NN>)}", "rule X: unexpected ')' at position 4"),
    ("X: {*}", "rule X: unexpected '*' at position 0"),
    ("X: {<NN>??}", "rule X: unexpected '?' at position 5"),
    ("X: {(<NN>}", "rule X: unclosed group at position 0"),
    ("X: {<NN>(}", "rule X: unclosed group at position 4"),
    ("X: {<NP>}", "rule X: reference to undefined label <NP>"),
    ("X: {<Y>}\nY: {<NN>}", "rule X: reference to undefined label <Y>"),
    ("X: {<NN>}}", "expected rule label at offset 9, got '}'"),
    ("X: {<NN>}\nY {<NN>}", "rule Y: expected ':' at offset 12"),
    ("X: {<NN>}\nY: <NN>}", "rule Y: expected '{' at offset 13"),
    ("X: {<*>}", "rule X: malformed atom <*> at position 0: nothing to repeat"),
    ("X: {<NN**>}", "rule X: malformed atom <NN**> at position 0: multiple repeat"),
    ("X: {<+NN>}", "rule X: malformed atom <+NN> at position 0: nothing to repeat"),
    ("X: {<?>}", "rule X: malformed atom <?> at position 0: nothing to repeat"),
    ("X: {<NN> <.**>}", "rule X: malformed atom <.**> at position 5: multiple repeat"),
]


@pytest.mark.parametrize("source, message", _GRAMMAR_ERRORS, ids=[repr(s) for s, _ in _GRAMMAR_ERRORS])
def test_grammar_error_text(source, message):
    with pytest.raises(GrammarError) as info:
        compile_grammar(source)
    assert str(info.value) == message


@pytest.mark.parametrize("source, labels", [("X: {<#>}", ("X",)), ("X:{<NN>}Y:{<X>}", ("X", "Y"))])
def test_edge_case_grammars_compile(source, labels):
    assert compile_grammar(source).labels == labels


def test_bundled_grammars_compile():
    ga = bundled_grammar("indicator_direction")
    gb = bundled_grammar("numeric_direction")
    assert ga.labels == ("JJ", "VB", "NP", "NPP", "RB", "NPJJ")
    assert "CD" in gb.labels


def test_unknown_bundled_grammar():
    with pytest.raises(GrammarError):
        bundled_grammar_source("missing")


# ---------------------------------------------------------------------------
# chunking
# ---------------------------------------------------------------------------


def test_pairing_grammar_noun_verb():
    tree = chunk(bundled_grammar("indicator_direction"), sentence_from_tags(["NN", "NN", "VBD"]))
    assert to_bracket(tree) == "(S (NPJJ (NP w0_NN w1_NN) (VB w2_VBD)))"


def test_lone_determiner_stays_leaf():
    tree = chunk(bundled_grammar("indicator_direction"), sentence_from_tags(["DT"]))
    assert to_bracket(tree) == "(S w0_DT)"


def test_numeric_grammar_comparison_alternative():
    tags = ["NN", "IN", "NN", "CD", ",", "VBD", "IN", "NNP", "CD"]
    tree = chunk(bundled_grammar("numeric_direction"), sentence_from_tags(tags))
    (npjj,) = [c for c in tree.children if isinstance(c, Chunk)]
    assert npjj.label == "NPJJ"
    assert (npjj.start, npjj.end) == (0, 9)


def test_chunk_is_deterministic():
    g = bundled_grammar("indicator_direction")
    s = ingest_pretagged("strong_JJ sales_NNS beat_VBD estimates_NNS ,_, the_DT forecast_NN")
    assert to_bracket(chunk(g, s)) == to_bracket(chunk(g, s))


def _spans_sound(node, sentence):
    # spans are in order, disjoint, and cover exactly the token sequence
    leaves = []

    def walk(el):
        if isinstance(el, Leaf):
            leaves.append(el)
        else:
            for child in el.children:
                walk(child)

    walk(node)
    assert [l.index for l in leaves] == list(range(len(sentence)))
    assert [l.token for l in leaves] == list(sentence.tokens)
    cursor = 0
    for el in node.children:
        assert el.start == cursor
        cursor = el.end
    assert cursor == len(sentence)


_TAGS = ["NN", "NNS", "NNP", "VB", "VBD", "JJ", "RB", "IN", "DT", "TO", "CD", ",", ".", "(", ")", "POS", "PRP", "MD"]


@given(st.lists(st.sampled_from(_TAGS), min_size=1, max_size=12),
       st.sampled_from(["indicator_direction", "numeric_direction"]))
@settings(max_examples=150, deadline=None)
def test_span_soundness(tags, grammar_name):
    sentence = sentence_from_tags(tags)
    tree = chunk(bundled_grammar(grammar_name), sentence)
    _spans_sound(tree, sentence)


_REF_RULES = {name: ref.parse_grammar(bundled_grammar_source(name))
              for name in ("indicator_direction", "numeric_direction")}


def _assert_matches_reference(tags, grammar_name):
    # bundled_grammar is cached, so later examples also run warm DFA transitions
    want = ref.to_bracket(ref.chunk_sentence(_REF_RULES[grammar_name],
                                             [(f"w{i}", t) for i, t in enumerate(tags)]))
    got = to_bracket(chunk(bundled_grammar(grammar_name), sentence_from_tags(tags)))
    assert got == want


@given(st.lists(st.sampled_from(_TAGS), min_size=1, max_size=10),
       st.sampled_from(["indicator_direction", "numeric_direction"]))
@settings(max_examples=150, deadline=None)
def test_matches_reference_implementation(tags, grammar_name):
    _assert_matches_reference(tags, grammar_name)


# the longtail benchmark's sentence lengths run up to 240 tokens
@given(st.integers(11, 240).flatmap(lambda n: st.lists(st.sampled_from(_TAGS), min_size=n, max_size=n)),
       st.sampled_from(["indicator_direction", "numeric_direction"]))
@settings(max_examples=60, deadline=None)
def test_long_sequences_match_reference_implementation(tags, grammar_name):
    _assert_matches_reference(tags, grammar_name)


# random small patterns, both engines agree on longest-match lengths
_pattern_atom = st.sampled_from(["<A>", "<B>", "<A|B>", "<.*>", "<A.*>", "<C>"])


def _patterns(depth):
    if depth == 0:
        return _pattern_atom
    sub = _patterns(depth - 1)
    return st.one_of(
        _pattern_atom,
        st.tuples(sub, sub).map(lambda ab: ab[0] + ab[1]),
        st.tuples(sub, sub).map(lambda ab: f"({ab[0]}|{ab[1]})"),
        sub.map(lambda p: f"({p})*"),
        sub.map(lambda p: f"({p})+"),
        sub.map(lambda p: f"({p})?"),
    )


@given(_patterns(3),
       st.lists(st.lists(st.sampled_from(["A", "B", "C", "AB", "ABC"]), max_size=8), min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_longest_match_agrees_with_bruteforce(pattern, symbol_lists):
    # one rule for every list, so later lists reuse the DFA transitions earlier ones built
    rule = ChunkRule("X", pattern)
    node = ref.parse_pattern(pattern)
    for symbols in symbol_lists:
        for start in range(len(symbols) + 1):
            assert rule.longest_match(symbols, start) == ref.longest_match(node, symbols, start), (
                pattern, symbols, start,
            )


# ---------------------------------------------------------------------------
# pair extraction
# ---------------------------------------------------------------------------


def test_extract_pair_indicator_and_verb():
    tree = chunk(bundled_grammar("indicator_direction"),
                 ingest_pretagged("market_NN share_NN increase_VB"))
    extraction = extract_pairs(tree)
    assert [(p[0].surfaces(), p[1].surfaces()) for p in extraction.pairs] == [
        (("market", "share"), ("increase",))
    ]


def test_extract_pair_participle():
    tree = chunk(bundled_grammar("indicator_direction"),
                 ingest_pretagged("details_NNS disclosed_VBN"))
    extraction = extract_pairs(tree)
    assert [(p[0].surfaces(), p[1].surfaces()) for p in extraction.pairs] == [
        (("details",), ("disclosed",))
    ]


def test_extract_pairs_empty_without_pair_node():
    tree = chunk(bundled_grammar("indicator_direction"), sentence_from_tags(["DT", "PRP"]))
    extraction = extract_pairs(tree)
    assert extraction.pairs == ()


def test_pair_node_contains_required_children():
    for golden in GOLDENS:
        tree = chunk(bundled_grammar(golden["grammar"]), ingest_pretagged(golden["pretagged"]))
        for node in tree.subchunks():
            if node.label == "NPJJ":
                labels = {c.label for c in node.subchunks()}
                assert labels & {"NP", "NPP", "JJ", "RB", "VB"}


# ---------------------------------------------------------------------------
# frozen golden suite
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("golden", GOLDENS, ids=lambda g: g["pretagged"][:34])
def test_golden_trees(golden):
    sentence = ingest_pretagged(golden["pretagged"])
    tree = chunk(bundled_grammar(golden["grammar"]), sentence)
    assert to_bracket(tree) == golden["tree"]


def test_goldens_match_live_reference():
    for golden in GOLDENS:
        rules = ref.parse_grammar(bundled_grammar_source(golden["grammar"]))
        tagged = [tuple(u.rsplit("_", 1)) for u in golden["pretagged"].split()]
        assert ref.to_bracket(ref.chunk_sentence(rules, tagged)) == golden["tree"]
