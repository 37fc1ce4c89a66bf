import pytest

from finsent.lexicon import (
    INDICATOR_CATEGORIES,
    LexCategory,
    Lexicon,
    LexiconError,
    load_default_lexicon,
    load_lexicon,
    normalize_phrase,
)
from finsent.pos_text import tag_raw
from finsent.semtag import SemTag, tag_sentence


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_two_entries(tmp_path):
    path = write(tmp_path, "lex.txt", "market share,LagInd\nincrease,UP\n")
    lex = load_lexicon(path)
    assert lex.entries == {"market share": LexCategory.LAGIND, "increase": LexCategory.UP}


def test_duplicate_across_categories_is_error(tmp_path):
    path = write(tmp_path, "lex.txt", "cost,LagInd\ncost,LeadInd\n")
    with pytest.raises(LexiconError, match="cost"):
        load_lexicon(path)


def test_duplicate_same_category_is_harmless(tmp_path):
    path = write(tmp_path, "lex.txt", "cost,LagInd\ncost,LagInd\n")
    assert load_lexicon(path).entries == {"cost": LexCategory.LAGIND}


def test_malformed_line_reports_line_number(tmp_path):
    path = write(tmp_path, "lex.txt", "ok,UP\nbroken line\n")
    with pytest.raises(LexiconError, match=":2"):
        load_lexicon(path)


@pytest.mark.parametrize("separator", ["\u2028", "\x85", "\x0c"])
def test_error_line_numbers_ignore_unicode_line_separators(tmp_path, separator):
    # a text-mode open() breaks lines at \n, \r and \r\n only, so the separator stays inside line 2
    path = write(tmp_path, "lex2.txt", f"ok,UP\nrose,UP{separator}fell DOWN\n")
    with pytest.raises(LexiconError, match=r"lex2\.txt:2: unknown category 'UP\\"):
        load_lexicon(path)
    path = write(tmp_path, "rev.txt", f"# reversals{separator}sales\nrose\n")
    with pytest.raises(LexiconError, match=r"rev\.txt:2: reversal term 'rose'"):
        load_lexicon(write(tmp_path, "lex.txt", "sales,LagInd\nrose,UP\n"), path)


def test_undecodable_byte_is_a_located_error(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_bytes(b"rose,UP\r\n\xff,NEG\n")
    with pytest.raises(LexiconError, match=r"lex\.txt:2: not valid utf-8"):
        load_lexicon(path)
    rev = tmp_path / "rev.txt"
    rev.write_bytes(b"# reversals\rsales\xff\n")
    with pytest.raises(LexiconError, match=r"rev\.txt:2: not valid utf-8"):
        load_lexicon(write(tmp_path, "lex.txt", "sales,LagInd\n"), rev)


def test_unknown_category(tmp_path):
    path = write(tmp_path, "lex.txt", "word,SIDEWAYS\n")
    with pytest.raises(LexiconError, match="SIDEWAYS"):
        load_lexicon(path)


def test_lookup_exact_case_insensitive_absent(tmp_path):
    path = write(tmp_path, "lex.txt", "market share,LagInd\nincrease,UP\n")
    lex = load_lexicon(path)
    assert lex.lookup(("market", "share")) is LexCategory.LAGIND
    assert lex.lookup(("Increase",)) is LexCategory.UP
    assert lex.lookup("INCREASE") is LexCategory.UP
    assert lex.lookup(("banana",)) is None
    # prefix back-off is not performed: exact phrase only
    assert lex.lookup(("market", "share", "growth")) is None


def test_lexicon_keeps_a_copy_of_its_entries():
    # a later change to the caller's mapping reaches neither lookup nor tagging
    entries = {"sales": LexCategory.LAGIND}
    lex = Lexicon(entries)
    entries["rose"] = LexCategory.UP
    assert lex.entries == {"sales": LexCategory.LAGIND} and lex.lookup("rose") is None
    assert tag_sentence(tag_raw("Sales rose"), lex).tags == {SemTag.LAGIND}


def test_is_reversal(tmp_path):
    lex_path = write(
        tmp_path, "lex.txt",
        "operating cost,LagInd\noperating loss,LagInd\nexpenses,LagInd\nmarket share,LagInd\n",
    )
    rev_path = write(tmp_path, "rev.txt", "operating cost\noperating loss\nexpenses\n")
    lex = load_lexicon(lex_path, rev_path)
    assert lex.is_reversal(("operating", "cost"))
    assert not lex.is_reversal(("market", "share"))
    assert lex.is_reversal(("Expenses",))


def test_leading_byte_order_mark_is_dropped(tmp_path):
    # kept, the mark would join the first phrase of each file
    lex_path = write(tmp_path, "lex.txt", "\ufeffoperating cost,LagInd\nrose,UP\n")
    rev_path = write(tmp_path, "rev.txt", "\ufeffoperating cost\n")
    lex = load_lexicon(lex_path, rev_path)
    assert lex.lookup(("operating", "cost")) is LexCategory.LAGIND
    assert lex.is_reversal(("operating", "cost"))


def test_reversal_term_must_be_indicator(tmp_path):
    lex_path = write(tmp_path, "lex.txt", "increase,UP\n")
    rev_path = write(tmp_path, "rev.txt", "increase\n")
    with pytest.raises(LexiconError, match="increase"):
        load_lexicon(lex_path, rev_path)


def test_normalize_phrase():
    assert normalize_phrase("  Market   Share ") == "market share"
    assert normalize_phrase(("Operating", "Cost")) == "operating cost"


def test_bundled_lexicon_invariants(lexicon):
    for term in lexicon.reversal_terms:
        assert lexicon.entries[term] in INDICATOR_CATEGORIES
    for phrase, category in lexicon.entries.items():
        assert lexicon.lookup(phrase) is category


def test_bundled_lexicon_has_key_phrases(lexicon):
    assert lexicon.lookup("market share") is LexCategory.LAGIND
    assert lexicon.lookup("operating profit") is LexCategory.LAGIND
    assert lexicon.lookup("productivity") is LexCategory.LEADIND
    assert lexicon.lookup("increase") is LexCategory.UP
    assert lexicon.lookup("fell") is LexCategory.DOWN
    assert lexicon.lookup("pleased") is LexCategory.POS
    assert lexicon.lookup("lawsuit") is LexCategory.NEG
    assert lexicon.is_reversal("costs")


def test_env_override(tmp_path, monkeypatch):
    write(tmp_path, "lexicon.txt", "turnover,LagInd\n")
    write(tmp_path, "reversals.txt", "")
    monkeypatch.setenv("FINSENT_LEXICON_DIR", str(tmp_path))
    lex = load_default_lexicon()
    assert lex.entries == {"turnover": LexCategory.LAGIND}
