import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import loop_split_unit, rule_chain_pos_tags
from sample_data import format_pretagged

from finsent.pos_text import (
    _CLOSED_VOCAB,
    _CLOSERS,
    _OPENERS,
    _PUNCT_TAGS,
    PENN_TAGS,
    PosSentence,
    PosTextError,
    _decide,
    ingest_pretagged,
    pos_tags,
    tag_raw,
    tokenize,
)


def test_ingest_pretagged_basic():
    s = ingest_pretagged("Turnover_NN rose_VBD to_TO EUR_NNP 21mn_CD")
    assert len(s) == 5
    assert s.pos_tags == ("NN", "VBD", "TO", "NNP", "CD")
    assert s.surfaces == ("Turnover", "rose", "to", "EUR", "21mn")


def test_ingest_empty_is_error():
    with pytest.raises(PosTextError, match="empty"):
        ingest_pretagged("")


def test_ingest_missing_separator():
    with pytest.raises(PosTextError, match="token 1"):
        ingest_pretagged("hello world_NN")


def test_ingest_unknown_tag():
    with pytest.raises(PosTextError, match="XYZ"):
        ingest_pretagged("hello_XYZ")


def test_token_validation():
    cases = [
        (("x",), ("NOPE",), "token 1 'x': unknown POS tag 'NOPE'"),
        (("a", "b"), ("NN",), "2 surfaces but 1 POS tags"),
        # the first bad token is named, whichever check it fails
        (("rose", "b", "c d", "e"), ("VBD", "X1", "NN", "X2"), "token 2 'b': unknown POS tag 'X1'"),
        (("rose", "c d", "b"), ("VBD", "X1", "X2"), "token 2 'c d': surface is not one word"),
        ((1,), ("NN",), "token 1 1: surface is not a string"),
        (("a",), (["NN"],), "token 1 'a': unknown POS tag ['NN']"),
    ]
    for surfaces, tags, message in cases:
        with pytest.raises(PosTextError, match=re.escape(message)):
            PosSentence(surfaces, tags)


@pytest.mark.parametrize("surface", ["", "  ", "net sales", " rose ", "fell\tshort"])
def test_token_surface_must_be_one_word(surface):
    with pytest.raises(PosTextError, match="not one word"):
        PosSentence((surface,), ("NN",))


# every character class, with whitespace (which splits a surface) made common
_surface = st.text(
    alphabet=st.one_of(
        st.characters(blacklist_categories=()),
        st.sampled_from(" \t\n\x0b\x1c\x85\xa0\u2003\u2028"),
    ),
    max_size=8,
)


@given(st.lists(st.tuples(_surface, st.sampled_from(sorted(PENN_TAGS))), min_size=1, max_size=10))
@settings(max_examples=300, deadline=None)
def test_pretagged_round_trip(pairs):
    surfaces, tags, first_bad = [], [], None
    for i, (surface, tag) in enumerate(pairs, start=1):
        if surface and not any(ch.isspace() for ch in surface):
            surfaces.append(surface)
            tags.append(tag)
        else:
            first_bad = first_bad or i
            with pytest.raises(PosTextError):
                PosSentence((surface,), (tag,))
    if first_bad is not None:
        with pytest.raises(PosTextError, match=f"^token {first_bad} "):
            PosSentence(tuple(s for s, _ in pairs), tuple(t for _, t in pairs))
    if surfaces:
        sentence = PosSentence(tuple(surfaces), tuple(tags))
        assert ingest_pretagged(format_pretagged(sentence)) == sentence


def test_tokenize_splits_punct_percent_possessive():
    assert tokenize("Financial details were not disclosed.")[-1] == "."
    assert tokenize("8.3 %") == ["8.3", "%"]
    assert tokenize("11.8%,") == ["11.8", "%", ","]
    assert tokenize("Ahlstrom's share") == ["Ahlstrom", "'s", "share"]
    assert tokenize("(EBIT)") == ["(", "EBIT", ")"]
    assert tokenize("85,432.50 euros") == ["85,432.50", "euros"]


@given(st.text(max_size=80))
@settings(max_examples=300, deadline=None)
def test_tokenize_is_lossless(text):
    assert "".join(tokenize(text)) == "".join(text.split())


# text made of the characters the tokenizer treats specially, possessives,
# letters, digits (non-ASCII ones too, so that plain units are all kinds of
# alphanumeric) and whitespace
_TOKENIZER_TEXT = st.lists(
    st.one_of(
        st.sampled_from([*_OPENERS, *_CLOSERS, "'s", "’s", "'S", " ", "  ", "\t", "\n"]),
        st.sampled_from("aBsS09éßİ²٣Ⅻ中"),
    ),
    max_size=30,
).map("".join)


@given(_TOKENIZER_TEXT)
@settings(max_examples=500, deadline=None)
def test_tokenize_matches_character_loop_oracle(text):
    assert tokenize(text) == [tok for unit in text.split() for tok in loop_split_unit(unit)]


def test_no_split_character_is_alphanumeric():
    # tokenize keeps an alphanumeric unit whole: no strip or possessive split applies to it
    assert not any(ch.isalnum() for ch in [*_OPENERS, *_CLOSERS, "'", "’"])


def test_tag_raw_sentence_final_period():
    s = tag_raw("Financial details were not disclosed.")
    assert s.tokens[-1].surface == "."
    assert s.tokens[-1].pos == "."


def test_tag_raw_numeral():
    s = tag_raw("8.3 %")
    assert s.pos_tags == ("CD", "NN")


def test_tag_raw_two_numerals():
    s = tag_raw("Operating profit margin was 8.3 %, compared to 11.8 %")
    assert s.pos_tags.count("CD") == 2


def test_tag_raw_empty_is_error():
    with pytest.raises(PosTextError, match="empty"):
        tag_raw("   ")


def test_tag_raw_never_drops_characters():
    text = "Olvi expects market share to increase in the first quarter of 2010."
    s = tag_raw(text)
    assert "".join(s.surfaces) == "".join(text.split())


def test_tagger_verb_after_to_and_md():
    assert pos_tags(["to", "increase"]) == ["TO", "VB"]
    assert pos_tags(["will", "cut", "jobs"])[:2] == ["MD", "VB"]


def test_tagger_capitalized_mid_sentence_is_proper_noun():
    assert pos_tags(["from", "EUR"]) == ["IN", "NNP"]


# tokens for every rule of the tagger's chain, at its edges
_POS_TOKENS = st.one_of(
    st.sampled_from([*_PUNCT_TAGS, "'s", "’s", "'S"]),
    st.sampled_from(["8.3", "+5", "-2", "+", "-", "+x", "²", "٣", "-٣", "+²", "x9", "1,234"]),
    st.sampled_from(sorted(_CLOSED_VOCAB)).flatmap(
        lambda word: st.sampled_from([word, word.upper(), word.capitalize()])
    ),
    st.sampled_from(["to", "To", "will", "MAY", "EUR", "Nokia", "É", "increase", "cut9", "mid-year", "x", "x1"]),
    st.sampled_from(["ly", "xly", "ing", "xing", "xxing", "Xxing", "ed", "xed", "xxed", "s", "xs", "xxs",
                     "ss", "xss", "us", "xus", "is", "xis", "Xis"]),
)


@given(st.lists(_POS_TOKENS, min_size=1, max_size=12))
@settings(max_examples=500, deadline=None)
def test_pos_tags_match_rule_chain_oracle(tokens):
    assert pos_tags(tokens) == rule_chain_pos_tags(tokens)


@given(st.lists(st.lists(_POS_TOKENS, min_size=1, max_size=12), min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_warm_decision_table_matches_rule_chain_oracle(sentences):
    # each token's decision is made wherever it is first seen; every later sentence reads it back
    for tokens in [*sentences, *reversed(sentences)]:
        assert pos_tags(tokens) == rule_chain_pos_tags(tokens)


@pytest.mark.parametrize(
    "first, then, tags",
    [
        (["EUR"], ["from", "EUR"], ["IN", "NNP"]),
        (["Increase"], ["sales", "Increase"], ["NNS", "NNP"]),
        (["Increase"], ["to", "Increase"], ["TO", "NNP"]),
        (["increase"], ["to", "increase"], ["TO", "VB"]),
        (["increases"], ["will", "increases"], ["MD", "VB"]),
        (["to", "expand"], ["expand", "to"], ["NN", "TO"]),
        (["from", "Nokia"], ["Nokia"], ["NN"]),
    ],
)
def test_decision_read_back_in_another_position(first, then, tags):
    pos_tags(first)  # decides the shared token in its first position
    assert pos_tags(then) == rule_chain_pos_tags(then) == tags


def _letters(i):
    return "".join("abcdefghij"[int(d)] for d in str(i))


def test_decision_table_stays_bounded():
    before = _decide.cache_info()
    assert before.maxsize is not None
    # letters-only fresh words (so the VB rule can fire), some capitalised, across the suffix rules
    fresh = [
        f"{'Q' if i % 3 == 0 else 'q'}wz{_letters(i)}{('', 'ly', 'ing', 'ed', 's')[i % 5]}"
        for i in range(before.maxsize + 10)
    ]
    for start in range(0, len(fresh), 8):
        tokens = ["to", *fresh[start : start + 8]]
        assert pos_tags(tokens) == rule_chain_pos_tags(tokens)
    after = _decide.cache_info()
    assert after.misses - before.misses >= len(fresh)
    assert after.currsize <= after.maxsize


@pytest.mark.parametrize(
    "tokens, message",
    [
        ([""], "token 1 '': surface is not one word"),
        (["sales", "rose", ""], "token 3 '': surface is not one word"),
        ([None], "token 1 None: surface is not a string"),
        ([3], "token 1 3: surface is not a string"),
        (["to", ["cut"]], "token 2 ['cut']: surface is not a string"),
        (["rose", ("1",)], "token 2 ('1',): surface is not a string"),
        (["sales", b"rose"], "token 2 b'rose': surface is not a string"),
    ],
)
def test_pos_tags_names_a_bad_token(tokens, message):
    with pytest.raises(PosTextError, match=f"^{re.escape(message)}$"):
        pos_tags(tokens)
    assert pos_tags(["sales", "rose"]) == ["NNS", "VBD"]
