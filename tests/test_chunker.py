import copy
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_chunker as ref
from oracles import generator_pair_nodes, generator_pairs, reference_tree, span, subchunks
from finsent import chunker
from finsent.chunker import (
    Chunk,
    GrammarError,
    _TAG_CODES,
    _apply_rule,
    _compile_pattern,
    _plan,
    bundled_grammar,
    bundled_grammar_source,
    chunk,
    chunk_spans,
    compile_grammar,
    to_bracket,
)
from finsent.pos_text import PosSentence, ingest_pretagged
from finsent.semtag import extract_pairs, pair_nodes

GOLDENS = json.loads((Path(__file__).parent / "data" / "chunk_goldens.json").read_text())


def sentence_from_tags(tags):
    return PosSentence(tuple(f"w{i}" for i in range(len(tags))), tuple(tags))


# ---------------------------------------------------------------------------
# grammar compilation
# ---------------------------------------------------------------------------


def test_compile_single_rule():
    g = compile_grammar("NP: {(<NNS|NN>)*}")
    assert tuple(rule.label for rule in g) == ("NP",)
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


@pytest.mark.parametrize("source, labels", [
    ("X: {<#>}", ("X",)),
    ("X:{<NN>}Y:{<X>}", ("X", "Y")),
    # a text-mode open() reads one line, so the rule after the separator is comment
    ("X: {<NN>} # note\u2028Y: {<VB>}", ("X",)),
    ("X: {<NN>} # note\x85Y: {<VB>}", ("X",)),
    ("X: {<NN>} # note\x0cY: {<VB>}", ("X",)),
])
def test_edge_case_grammars_compile(source, labels):
    assert tuple(rule.label for rule in compile_grammar(source)) == labels


def test_bundled_grammars_compile():
    ga = bundled_grammar("indicator_direction")
    gb = bundled_grammar("numeric_direction")
    assert tuple(rule.label for rule in ga) == ("JJ", "VB", "NP", "NPP", "RB", "NPJJ")
    assert "CD" in tuple(rule.label for rule in gb)


@pytest.mark.parametrize("name", ["indicator_direction", "numeric_direction"])
def test_compiling_builds_no_dfa_state(name):
    # DFA states are built lazily, the first time a match takes a transition:
    # determinizing NPJJ eagerly over the Penn tags and the earlier labels
    # would build hundreds of states at grammar compile time.  Steps and their
    # DFA caches are planned on a grammar's first chunk, not when it is compiled
    _plan.cache_clear()
    planned = _plan.cache_info()
    first, second = (compile_grammar(bundled_grammar_source(name)) for _ in range(2))
    assert _plan.cache_info() == planned
    sentence = sentence_from_tags(["JJ", "NN", "NNS", "VBD", "RB", "CD", "NNP", "IN", "CD", "NN", "VBZ", "."])
    tree = to_bracket(chunk(first, sentence))
    dfa_steps = [step for step in _plan(first) if len(step) == 6]
    assert dfa_steps and all(step[-1] for step in dfa_steps)
    # equal grammars share one plan, and so its DFA caches: the second
    # compilation chunks alike and computes no new transition
    transitions = [len(step[-1]) for step in dfa_steps]
    assert _plan(second) is _plan(first)
    assert to_bracket(chunk(second, sentence)) == tree
    assert [len(step[-1]) for step in dfa_steps] == transitions


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


def _spans_sound(tree, sentence):
    # every chunk's stored span is that of its first and last token, the
    # leaves are the sentence's own tokens in order, and the root's children
    # tile the sentence
    leaves = []

    def walk(node):
        first = len(leaves)
        for child in node.children:
            if isinstance(child, Chunk):
                walk(child)
            else:
                leaves.append(child)
        assert (node.start, node.end) == (first, len(leaves))

    walk(tree)
    assert len(leaves) == len(sentence.tokens)
    assert all(leaf is token for leaf, token in zip(leaves, sentence.tokens))
    cursor = 0
    for el in tree.children:
        if isinstance(el, Chunk):
            assert el.start == cursor
            cursor = el.end
        else:
            cursor += 1
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
# "()" and "(p|)" are the empty and nullable fragments a parser's first/last bookkeeping can get wrong
_pattern_atom = st.sampled_from(["<A>", "<B>", "<A|B>", "<.*>", "<A.*>", "<C>", "()"])


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
        sub.map(lambda p: f"({p}|)"),
    )


@given(_patterns(3),
       st.lists(st.lists(st.sampled_from(["A", "B", "C", "AB", "ABC"]), max_size=8), min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_longest_match_agrees_with_bruteforce(pattern, symbol_lists):
    # one DFA step for every list, so later lists reuse the transitions earlier
    # ones built; its classes hold the names the lists draw from, as a plan's
    # hold the Penn tags and the earlier labels
    code = {name: chr(k) for k, name in enumerate(["A", "B", "C", "AB", "ABC", "X"])}
    follow, last, position_atoms, matchers, _, _ = _compile_pattern(pattern, "X")
    classes = [frozenset(code[n] for n in ["A", "B", "C", "AB", "ABC"] if m.fullmatch(n)) for m in matchers]
    rule = ("X", code["X"], follow, last, (None, *(classes[a] for a in position_atoms[1:])), {})
    node = ref.parse_pattern(pattern)
    for symbols in symbol_lists:
        codes = "".join(map(code.__getitem__, symbols))
        for start in range(len(symbols)):
            rest = codes[start:]
            matches = _apply_rule(rule, rest)
            length = matches[0][1] if matches and matches[0][0] == 0 else 0
            assert length == ref.longest_match(node, symbols, start), (pattern, symbols, start)


def _assert_rules_match_reference(grammar, tags):
    # the reference reads the rules' own source, so a part of a grammar is checked as itself
    source = "\n".join(f"{rule.label}: {{{rule.pattern}}}" for rule in grammar)
    want = ref.to_bracket(ref.chunk_sentence(ref.parse_grammar(source),
                                             [(f"w{i}", t) for i, t in enumerate(tags)]))
    assert to_bracket(chunk(grammar, sentence_from_tags(tags))) == want, source


def _assert_table_matches_reference(grammar, tags):
    # the table against the reference's tree, not chunk's, which is built from the table
    sentence = sentence_from_tags(tags)
    table = chunk_spans(grammar, sentence)
    assert table == [span(node) for node in subchunks(reference_tree(grammar, sentence))]
    # pre-order, and laminar: each entry lies inside or wholly after every entry before it
    assert table == sorted(table, key=lambda entry: (entry[1], -entry[2]))
    for k, (_, start, end) in enumerate(table):
        assert start < end
        assert all(end <= before_end or start >= before_end for _, _, before_end in table[:k])


def _assert_source_matches_reference(source, tags):
    _assert_rules_match_reference(compile_grammar(source), tags)


# <.*>* loops keep scans alive past their last accept, so later scans of a
# pass reach (state set, position) pairs that earlier ones recorded; the
# alternations and fixed-period loops reach one position in different states
_long_run_pattern = st.sampled_from([
    "<NN><.*>*<VB>", "<.*>*<DT>", "<NN>*<.*>*<NN><DT>", "<DT>(<.*>*<NN>)?",
    "<DT><.*>*<VB>|<NN><.*>*<DT>", "<VB><.*>*<DT><DT>|<NN><.*>*<VB><VB>",
    "<DT><NN>*<VB>|<NN>+<DT>", "(<NN><.*><NN>)*", "(<NN><.*>)*<VB><VB>",
])


@given(st.lists(_long_run_pattern, min_size=1, max_size=2),
       st.lists(st.sampled_from(["NN", "VB", "DT"]), min_size=2, max_size=3, unique=True).flatmap(
           lambda alphabet: st.lists(st.sampled_from(alphabet), min_size=40, max_size=200)))
@settings(max_examples=60, deadline=None)
def test_long_runs_match_reference_implementation(patterns, tags):
    _assert_source_matches_reference("\n".join(f"R{k}: {{{pattern}}}" for k, pattern in enumerate(patterns)), tags)


# Run rules of Penn-tag classes, labels that equal Penn tags, references to
# earlier labels and <.*>, so consecutive rules sometimes share a regex pass
# and sometimes must not (overlapping classes, a class holding an earlier
# label); a trailing rule sometimes runs on the DFA after them.
_RUN_BODIES = ["NN", "NNS|NN", "NN.*", "VB.*", "JJ.*", "JJ|RB", "CD", "DT", "RB.*", ".*"]


@st.composite
def _run_grammars(draw):
    rules, labels = [], []
    for _ in range(draw(st.integers(1, 6))):
        body = draw(st.sampled_from(_RUN_BODIES + labels))
        atom = draw(st.sampled_from(["<{}>", "(<{}>)"])).format(body)
        labels.append(draw(st.sampled_from(["JJ", "VB", "CD", "NN", "X", "Y"])))
        rules.append(f"{labels[-1]}: {{{atom}{draw(st.sampled_from(['', '*', '+', '?']))}}}")
    if draw(st.booleans()):
        first, last = draw(st.sampled_from(labels + ["DT"])), draw(st.sampled_from(labels + ["VB"]))
        rules.append(f"T: {{<{first}><.*>*<{last}>}}")
    return "\n".join(rules)


@given(_run_grammars(), st.lists(st.sampled_from(["NN", "NNS", "VB", "VBD", "JJ", "RB", "CD", "DT", "IN"]),
                                 min_size=1, max_size=30), st.data())
@settings(max_examples=300, deadline=None)
# a rule whose class is its own code joins its pass's regex, where a later
# rule of the pass may make the same code (JJ -> CD)
@example("CD: {<CD>}", ["CD", "JJ", "CD", "CD", "NN"], None)
@example("CD: {<CD>}\nCD: {<JJ.*>}", ["CD", "JJ", "NN", "CD", "JJ", "JJ"], None)
@example("T: {<DT><NN>}\nCD: {<CD>}\nCD: {<JJ.*>}", ["DT", "NN", "CD", "JJ", "CD", "JJ"], None)
def test_run_passes_match_reference_implementation(source, tags, data):
    # a slice, a repeat or a permutation is planned for its own rule order; a
    # permutation may name a label before its rule, where no such chunk exists yet.
    # An explicit example draws nothing: it checks its grammar, repeated and reversed
    grammar = compile_grammar(source)
    parts = (grammar, grammar + grammar, grammar[::-1])
    if data is not None:
        start = data.draw(st.integers(0, len(grammar) - 1))
        end = data.draw(st.integers(start + 1, len(grammar)))
        parts = (grammar, grammar[start:end], grammar + grammar, tuple(data.draw(st.permutations(grammar))))
    for part in parts:
        _assert_rules_match_reference(part, tags)
        _assert_table_matches_reference(part, tags)


@given(st.lists(st.sampled_from(_TAGS), min_size=1, max_size=40),
       st.sampled_from(["indicator_direction", "numeric_direction"]))
@settings(max_examples=150, deadline=None)
def test_span_table_matches_reference_implementation(tags, grammar_name):
    _assert_table_matches_reference(bundled_grammar(grammar_name), tags)


def _call_order_grammars():
    # the bundled grammars and parts of them open with a pass; after a DFA rule
    # (a plan then opens with that rule) the pass runs as a later step
    pair, numeric = bundled_grammar("indicator_direction"), bundled_grammar("numeric_direction")
    return pair, numeric, pair[:5], numeric[:6], compile_grammar("T: {<DT><NN>}") + numeric


@given(st.lists(st.lists(st.sampled_from(_TAGS), min_size=1, max_size=30), min_size=1, max_size=3),
       st.lists(st.tuples(st.integers(0, 5), st.integers(0, 4)), min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_any_call_order_gives_the_cold_tables(tag_lists, calls):
    # whatever grammar and sentence (the same object, an equal one or another)
    # came before, a table equals a cold call's, on fresh plans, and the
    # reference's.  Each tag list is two objects; one is built from a list,
    # which is changed after every call: a sentence keeps its own tuple
    grammars = _call_order_grammars()
    columns = [list(tags) for tags in tag_lists]
    sentences = [sentence_from_tags(tags) for tags in tag_lists]
    sentences += [PosSentence(tuple(f"w{i}" for i in range(len(column))), column) for column in columns]
    cold = {}
    for g, grammar in enumerate(grammars):
        for k, sentence in enumerate(sentences):
            _plan.cache_clear()
            cold[g, k] = chunk_spans(grammar, sentence)
            assert cold[g, k] == [span(node) for node in subchunks(reference_tree(grammar, sentence))]
    for k, g in calls:
        k %= len(sentences)
        assert chunk_spans(grammars[g], sentences[k]) == cold[g, k]
        for column in columns:
            column[:] = column[1:] + column[:1]
    assert [sentence.pos_tags for sentence in sentences] == [tuple(tags) for tags in tag_lists * 2]


@pytest.mark.parametrize("pattern, run", [
    ("<VB.*>", ""), ("(<NNS|NN>)*", "+"), ("<JJ.*>*", "+"), ("<CD>?", ""),
    ("<NN><NN>*", None), ("(<NN>|<NNS>)+", None), ("<NN>+<VB>", None),
])
def test_run_rules_are_read_off_the_automaton(pattern, run):
    grammar = compile_grammar(f"X: {{{pattern}}}")
    assert _compile_pattern(pattern, "X")[-1] == run
    # a run rule is a pass of one group, ``(regex, labels)``; any other runs on a DFA
    (step,) = _plan(grammar)
    if run is None:
        assert len(step) == 6 and step[0] == "X"
    else:
        regex, labels = step
        assert regex.groups == 1 and labels[1][0] == "X"


@pytest.mark.parametrize("name, merged", [("indicator_direction", 5), ("numeric_direction", 6)])
def test_bundled_run_rules_share_one_pass(name, merged):
    # both bundled plans open with one pass, of the five rules JJ, VB, NP, NPP
    # and RB; the numeric grammar's CD: {<CD>}, whose class is its own code,
    # joins it, and its chunks are the CD tags
    grammar = bundled_grammar(name)
    (regex, labels), *rest = _plan(grammar)
    assert regex.groups == merged and [label for label, _ in labels[1:]] == [rule.label for rule in grammar[:merged]]
    # the rules after the pass run on the DFA
    assert [(len(step), step[0]) for step in rest] == [(6, rule.label) for rule in grammar[merged:]]
    # planned by the grammar's value: any compilation of its source shares the
    # plan, a prefix plans as its own, with an equal pass, and a list of the rules chunks alike
    assert _plan(compile_grammar(bundled_grammar_source(name))) is _plan(grammar)
    ((prefix, prefix_labels),) = _plan(grammar[:merged])
    assert (prefix.pattern, prefix_labels) == (regex.pattern, labels)
    tags = ["JJ", "NN", "NNS", "VBD", "RB", "CD", "NNP", "IN", "CD", "NN", "VBZ", "."]
    sentence = sentence_from_tags(tags)
    assert to_bracket(chunk(list(grammar), sentence)) == to_bracket(chunk(grammar, sentence))
    numbers = [entry for entry in chunk_spans(grammar, sentence) if entry[0] == "CD"]
    assert numbers == [("CD", k, k + 1) for k, tag in enumerate(tags) if tag == "CD" and merged == 6]


def test_a_pass_holds_only_in_its_own_grammar():
    # a slice of a grammar drops rules a pass applies, or labels its classes were
    # built from; a repeat or reordering puts a pass's rule, or an equal one, elsewhere
    grammar = bundled_grammar("indicator_direction")
    one = compile_grammar("X: {<NN>}")
    dup = compile_grammar("X: {<NN>}\nY: {<VB.*>}\nX: {<NN>}\nZ: {<JJ>}")
    tags = ["JJ", "NN", "NNS", "VBD", "RB", "DT", "NNP", "JJ", "NN", "VBZ", "."]
    for part in (grammar[:2], grammar[1:], grammar[:1] + grammar[3:], grammar[2:3] + grammar,
                 grammar + grammar, one + one, dup, dup[2::-1] + dup[3:], dup[2:] + dup[:2]):
        _assert_rules_match_reference(part, tags)


def test_codes_past_latin1_chunk_as_the_reference():
    # each label's class holds the label before it, so each rule is a pass of
    # its own, and the chain takes the table past U+00FF; codes are assigned
    # when a grammar is planned
    source = "L0: {<NN>}\n" + "".join(f"L{k}: {{<L{k - 1}>+}}\n" for k in range(1, 250))
    _assert_source_matches_reference(source, ["NN", "DT", "NN", "NN", "VB", "NN"])
    _, labels = _plan(compile_grammar(source))[-1]
    label, code = labels[-1]
    assert label == "L249" and ord(code) > 0xFF


def test_chunking_leaves_no_module_state():
    # a plan holds its labels' codes; only the lru_caches remember a grammar
    state = {name: copy.copy(value) for name, value in vars(chunker).items()
             if not name.startswith("__") and isinstance(value, (dict, set, list))}
    grammar = compile_grammar("FRESH1: {<NN.*>+}\nFRESH2: {<DT>?<FRESH1>}\nFRESH3: {<FRESH2><VB.*>*}")
    chunk_spans(grammar, sentence_from_tags(["DT", "NN", "NNS", "VBD", "DT", "NNP", "."]))
    assert state and {name: getattr(chunker, name) for name in state} == state


class _CountingSymbols(str):
    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def _npjj_reads(n):
    (_, labels), npjj = _plan(bundled_grammar("indicator_direction"))  # the run pass, then NPJJ
    npp = dict(labels[1:])["NPP"]
    symbols = _CountingSymbols(_TAG_CODES["DT"] + npp * n + _TAG_CODES["."])
    assert npjj[0] == "NPJJ"
    _apply_rule(npjj, symbols)
    return symbols.reads


def test_rule_pass_reads_are_linear():
    # from every NPP start, NPJJ's <.*>* keeps the DFA alive to the end of the
    # sentence with no accept ahead; without a failure memo the reads grow as n²
    assert _npjj_reads(2000) <= 2.2 * _npjj_reads(1000)


# ---------------------------------------------------------------------------
# pair extraction
# ---------------------------------------------------------------------------


def pair_surfaces(pretagged):
    sentence = ingest_pretagged(pretagged)
    pairs = extract_pairs(chunk_spans(bundled_grammar("indicator_direction"), sentence)).pairs
    return [tuple(sentence.surfaces[start:end] for _, start, end in pair) for pair in pairs]


def test_extract_pair_indicator_and_verb():
    assert pair_surfaces("market_NN share_NN increase_VB") == [
        (("market", "share"), ("increase",))
    ]


def test_extract_pair_participle():
    assert pair_surfaces("details_NNS disclosed_VBN") == [(("details",), ("disclosed",))]


def test_extract_pairs_empty_without_pair_node():
    table = chunk_spans(bundled_grammar("indicator_direction"), sentence_from_tags(["DT", "PRP"]))
    assert table == []
    assert extract_pairs(table).pairs == ()


def test_pair_node_contains_required_children():
    for golden in GOLDENS:
        tree = chunk(bundled_grammar(golden["grammar"]), ingest_pretagged(golden["pretagged"]))
        for node in subchunks(tree):
            if node.label == "NPJJ":
                labels = {c.label for c in subchunks(node)}
                assert labels & {"NP", "NPP", "JJ", "RB", "VB"}


# The pair grammar with NPJJ nodes nested up to three deep: the later rules
# wrap earlier NPJJ nodes, with the tokens around them, in new ones.
_NESTED_GRAMMAR = compile_grammar(
    bundled_grammar_source("indicator_direction")
    + "NPJJ: { <DT|IN>* <NPJJ> (<,|CC> <.*>)? }\n"
    + "NPJJ: { <NPJJ> <.*> <NPJJ>? }\n"
)
_PAIR_GRAMMARS = {
    "indicator_direction": bundled_grammar("indicator_direction"),
    "numeric_direction": bundled_grammar("numeric_direction"),
    "nested": _NESTED_GRAMMAR,
}


@given(st.lists(st.sampled_from(_TAGS), min_size=1, max_size=40), st.sampled_from(sorted(_PAIR_GRAMMARS)))
@settings(max_examples=300, deadline=None)
def test_pair_walk_matches_generator_walk(tags, grammar_name):
    sentence = sentence_from_tags(tags)
    table = chunk_spans(_PAIR_GRAMMARS[grammar_name], sentence)
    tree = chunk(_PAIR_GRAMMARS[grammar_name], sentence)
    assert pair_nodes(table) == [list(map(span, chunks)) for chunks in generator_pair_nodes(tree)]
    assert extract_pairs(table).pairs == tuple((span(ind), span(mod)) for ind, mod in generator_pairs(tree))


def test_nested_pair_nodes_share_their_chunks():
    sentence = ingest_pretagged("the_DT sales_NNS rose_VBD ._.")
    assert to_bracket(chunk(_NESTED_GRAMMAR, sentence)) == (
        "(S (NPJJ (NPJJ the_DT (NPJJ (NP sales_NNS) (VB rose_VBD))) ._.))"
    )
    table = chunk_spans(_NESTED_GRAMMAR, sentence)
    nodes = pair_nodes(table)
    assert [[label for label, _, _ in chunks] for chunks in nodes] == [
        ["NPJJ", "NPJJ", "NP", "VB"], ["NPJJ", "NP", "VB"], ["NP", "VB"],
    ]
    # the one (NP, VB) pair is a candidate in each of the three nodes
    assert extract_pairs(table).pairs == ((nodes[2][0], nodes[2][1]),) * 3


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
