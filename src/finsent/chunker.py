"""Cascaded regular-expression chunking over POS tag sequences.

A grammar is an ordered list of ``LABEL: { pattern }`` rules.  Patterns are
regular expressions whose alphabet is ``<TAG>`` atoms; an atom's body is
itself a small regex over tag names (``<NNS|NN>``, ``<JJ.*>``, ``<.*>``).
Rules apply in declaration order to the current sequence of elements (token
leaves and chunks built by earlier rules), so later rules can reference
earlier labels as single symbols.

Matching policy per rule: scan left to right; at each position take the
longest possible match (independent of alternative order); a match of at
least one element becomes a chunk and scanning resumes after it.

Each pattern is read once: its tokens go to a recursive-descent parser that
emits Thompson NFA fragments as it goes, with no syntax tree in between.  The
parser collects the distinct atom bodies, which are then compiled as regexes
(a malformed one, such as ``<*>``, is a GrammarError naming the rule, the atom
and its position) and checked against the Penn tags and the earlier labels.

The NFA runs as a lazily built DFA: a transition between sets of NFA states
is computed the first time a match takes it and cached on the rule.
Sequences are POS tags and chunk labels, so the cache is bounded by the
grammar, not by the input, and compiling a grammar builds no DFA state beyond
the start set.  A rule's scan reads the start set's cached step on each
element's symbol first: when that step is dead, no match can start there and
the element passes through without a match attempt.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Iterable, List, Sequence, Union

from .pos_text import PENN_TAGS, PosSentence, PosToken

__all__ = [
    "GrammarError",
    "ChunkGrammar",
    "ChunkRule",
    "Leaf",
    "Chunk",
    "PairExtraction",
    "compile_grammar",
    "bundled_grammar_source",
    "bundled_grammar",
    "chunk",
    "pair_nodes",
    "extract_pairs",
    "to_bracket",
    "INDICATOR_LABELS",
    "MODIFIER_LABELS",
]


class GrammarError(ValueError):
    """Raised for grammar syntax errors or references to undefined labels."""


# ---------------------------------------------------------------------------
# NFA construction (Thompson) and lazy-DFA longest match
# ---------------------------------------------------------------------------


class _Nfa:
    __slots__ = ("eps", "sym", "start", "accept", "closure0")

    def __init__(self) -> None:
        self.eps: List[List[int]] = []
        self.sym: List[List[tuple]] = []  # per state: [(matcher_index, dest)]
        self.start = 0
        self.accept = 0
        self.closure0: frozenset = frozenset()

    def new_state(self) -> int:
        self.eps.append([])
        self.sym.append([])
        return len(self.eps) - 1

    def closure(self, states: Iterable[int]) -> frozenset:
        seen = set(states)
        stack = list(seen)
        while stack:
            s = stack.pop()
            for t in self.eps[s]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return frozenset(seen)


# an atom (closed or not), an operator, or any other non-space character
_TOKEN_RE = re.compile(r"<([^>]*)(>?)|[()|*+?]|\S")


def _atom_regex(body: str, label: str, at: int) -> "re.Pattern[str]":
    """An atom body as a regex over tag names: ``.*+?|`` are operators, the rest literal."""
    try:
        return re.compile("".join(ch if ch in ".*+?|" else re.escape(ch) for ch in body))
    except re.error as exc:
        raise GrammarError(
            f"rule {label}: malformed atom <{body}> at position {at}: {exc.msg}"
        ) from None


def _compile_pattern(pattern: str, label: str) -> tuple:
    """Parse a rule pattern by recursive descent, building its Thompson NFA as it goes.

    Each parse function returns the ``(start, end)`` states of the fragment it
    read.  Returns the NFA, one matcher per distinct atom body, and those
    bodies in order of first use.
    """
    tokens: List[tuple] = []  # (kind, text, position); kind is "atom" or the operator
    for m in _TOKEN_RE.finditer(pattern):  # skips whitespace, the only text no branch matches
        text, at = m.group(), m.start()
        body, closed = m.group(1, 2)
        if body is None:
            if text not in "()|*+?":
                raise GrammarError(f"rule {label}: unexpected character {text!r} at position {at}")
            tokens.append((text, text, at))
        elif not closed:
            raise GrammarError(f"rule {label}: unclosed atom at position {at}")
        elif not body.strip():
            raise GrammarError(f"rule {label}: empty atom at position {at}")
        else:
            tokens.append(("atom", body.strip(), at))
    tokens.append((None, None, len(pattern)))
    nfa = _Nfa()
    atoms: dict = {}  # body -> (matcher index, position of first use)
    pos = 0

    def alternation() -> tuple:
        nonlocal pos
        options = [sequence()]
        while tokens[pos][0] == "|":
            pos += 1
            options.append(sequence())
        if len(options) == 1:
            return options[0]
        s, e = nfa.new_state(), nfa.new_state()
        for option_start, option_end in options:
            nfa.eps[s].append(option_start)
            nfa.eps[option_end].append(e)
        return s, e

    def sequence() -> tuple:
        s = cur = nfa.new_state()
        while tokens[pos][0] not in ("|", ")", None):
            part_start, part_end = repeat()
            nfa.eps[cur].append(part_start)
            cur = part_end
        return s, cur

    def repeat() -> tuple:
        nonlocal pos
        child_start, child_end = primary()
        op = tokens[pos][0]
        if op not in ("*", "+", "?"):
            return child_start, child_end
        pos += 1
        s, e = nfa.new_state(), nfa.new_state()
        nfa.eps[s].append(child_start)
        nfa.eps[child_end].append(e)
        if op != "+":  # may match zero times
            nfa.eps[s].append(e)
        if op != "?":  # may match more than once
            nfa.eps[child_end].append(child_start)
        return s, e

    def primary() -> tuple:
        nonlocal pos
        kind, text, at = tokens[pos]
        pos += 1
        if kind == "atom":
            index, _ = atoms.setdefault(text, (len(atoms), at))
            s, e = nfa.new_state(), nfa.new_state()
            nfa.sym[s].append((index, e))
            return s, e
        if kind == "(":
            fragment = alternation()
            if tokens[pos][0] != ")":
                raise GrammarError(f"rule {label}: unclosed group at position {at}")
            pos += 1
            return fragment
        raise GrammarError(f"rule {label}: unexpected {text!r} at position {at}")

    nfa.start, nfa.accept = alternation()
    kind, _, at = tokens[pos]
    if kind is not None:
        raise GrammarError(f"rule {label}: unexpected {kind!r} at position {at}")
    # compiled after the parse, so a syntax error anywhere is reported first
    matchers = [_atom_regex(body, label, at) for body, (_, at) in atoms.items()]
    nfa.closure0 = nfa.closure({nfa.start})
    return nfa, matchers, tuple(atoms)


@dataclass(frozen=True)
class ChunkRule:
    """One compiled grammar rule.

    Matching runs the rule's NFA as a lazily built DFA: each DFA state is an
    ε-closed set of NFA states, and ``_dfa`` maps ``(state set, symbol)`` to
    ``(next state set or None, accepting)``.  An entry is computed the first
    time a match takes that transition.  ``_sets`` interns the state sets, so
    the cache holds one object per DFA state instead of one per transition.
    """

    label: str
    pattern: str

    def __post_init__(self) -> None:
        nfa, matchers, atoms = _compile_pattern(self.pattern, self.label)
        object.__setattr__(self, "_nfa", nfa)
        object.__setattr__(self, "_matchers", matchers)
        object.__setattr__(self, "_atoms", atoms)
        object.__setattr__(self, "_dfa", {})
        object.__setattr__(self, "_sets", {nfa.closure0: nfa.closure0})

    def _step(self, states: frozenset, symbol: str) -> tuple:
        """Compute and cache the DFA transition from ``states`` on ``symbol``."""
        nfa: _Nfa = self._nfa  # type: ignore[attr-defined]
        matchers = self._matchers  # type: ignore[attr-defined]
        moved = {
            dest
            for state in states
            for matcher, dest in nfa.sym[state]
            if matchers[matcher].fullmatch(symbol) is not None
        }
        if moved:
            closed = nfa.closure(moved)
            closed = self._sets.setdefault(closed, closed)  # type: ignore[attr-defined]
            step = (closed, nfa.accept in closed)
        else:
            step = (None, False)
        self._dfa[(states, symbol)] = step  # type: ignore[attr-defined]
        return step

    def longest_match(self, symbols: Sequence[str], start: int) -> int:
        """Length of the longest match beginning at ``start`` (0 if none)."""
        dfa: dict = self._dfa  # type: ignore[attr-defined]
        states = self._nfa.closure0  # type: ignore[attr-defined]
        best = 0
        for j in range(start, len(symbols)):
            symbol = symbols[j]
            step = dfa.get((states, symbol))
            if step is None:
                step = self._step(states, symbol)
            states, accepting = step
            if states is None:
                break
            if accepting:
                best = j + 1 - start
        return best


@dataclass(frozen=True)
class ChunkGrammar:
    """An ordered, immutable list of compiled chunk rules."""

    rules: tuple

    @property
    def labels(self) -> tuple:
        return tuple(rule.label for rule in self.rules)


_LABEL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_$.-]*")
_SPACE_RE = re.compile(r"\s*")


def _outside_atoms(text: str, char: str, start: int = 0) -> int:
    """Index of the first ``char`` at or after ``start`` outside every ``<...>``, else ``len(text)``."""
    depth = 0
    for j in range(start, len(text)):
        if text[j] == "<":
            depth += 1
        elif text[j] == ">":
            depth = max(0, depth - 1)
        elif text[j] == char and depth == 0:
            return j
    return len(text)


def compile_grammar(source: str) -> ChunkGrammar:
    """Compile ``LABEL: { pattern }`` rules, in order, into a ChunkGrammar."""
    # '#' starts a comment unless it appears inside an <...> atom
    text = "\n".join(line[: _outside_atoms(line, "#")] for line in source.splitlines())
    rules: List[ChunkRule] = []
    known: set = set()
    i = _SPACE_RE.match(text).end()
    while i < len(text):
        m = _LABEL_RE.match(text, i)
        if not m:
            raise GrammarError(f"expected rule label at offset {i}, got {text[i:i+10]!r}")
        label = m.group(0)
        i = _SPACE_RE.match(text, m.end()).end()
        if not text.startswith(":", i):
            raise GrammarError(f"rule {label}: expected ':' at offset {i}")
        i = _SPACE_RE.match(text, i + 1).end()
        if not text.startswith("{", i):
            raise GrammarError(f"rule {label}: expected '{{' at offset {i}")
        j = _outside_atoms(text, "}", i + 1)
        if j == len(text):
            raise GrammarError(f"rule {label}: missing closing '}}'")
        rule = ChunkRule(label, text[i + 1 : j].strip())
        for body in rule._atoms:  # type: ignore[attr-defined]
            for name in body.split("|"):
                name = name.strip()
                plain = name and not any(ch in ".*+?" for ch in name)
                if plain and name not in PENN_TAGS and name not in known:
                    raise GrammarError(f"rule {label}: reference to undefined label <{name}>")
        rules.append(rule)
        known.add(label)
        i = _SPACE_RE.match(text, j + 1).end()
    if not rules:
        raise GrammarError("grammar contains no rules")
    return ChunkGrammar(tuple(rules))


_BUNDLED = ("indicator_direction", "numeric_direction")


def bundled_grammar_source(name: str) -> str:
    if name not in _BUNDLED:
        raise GrammarError(f"no bundled grammar named {name!r}; choose from {_BUNDLED}")
    return (resources.files("finsent.data") / f"{name}.grammar").read_text(encoding="utf-8")


@lru_cache(maxsize=None)
def bundled_grammar(name: str) -> ChunkGrammar:
    """Load and compile one of the two bundled grammars by name."""
    return compile_grammar(bundled_grammar_source(name))


# ---------------------------------------------------------------------------
# chunk trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    """An unchunked token at its position in the sentence."""

    token: PosToken
    index: int

    @property
    def start(self) -> int:
        return self.index

    @property
    def end(self) -> int:
        return self.index + 1


@dataclass(frozen=True)
class Chunk:
    """A labelled chunk spanning a contiguous run of elements."""

    label: str
    children: tuple

    @property
    def start(self) -> int:
        return self.children[0].start

    @property
    def end(self) -> int:
        return self.children[-1].end

    def leaves(self) -> Iterable[Leaf]:
        for child in self.children:
            if isinstance(child, Leaf):
                yield child
            else:
                yield from child.leaves()

    def surfaces(self) -> tuple:
        return tuple(leaf.token.surface for leaf in self.leaves())

    def subchunks(self) -> Iterable["Chunk"]:
        """All descendant chunks, pre-order."""
        for child in self.children:
            if isinstance(child, Chunk):
                yield child
                yield from child.subchunks()


def _apply_rule(rule: ChunkRule, elements: List[object], symbols: List[str]) -> tuple:
    """One rule over the elements and their symbols; returns both lists after it."""
    dfa: dict = rule._dfa  # type: ignore[attr-defined]
    start = rule._nfa.closure0  # type: ignore[attr-defined]
    out: List[object] = []
    out_symbols: List[str] = []
    i = 0
    while i < len(elements):
        symbol = symbols[i]
        step = dfa.get((start, symbol))
        if step is None:
            step = rule._step(start, symbol)
        # a dead first step means no match here: most starts end on it
        length = rule.longest_match(symbols, i) if step[0] is not None else 0
        if length >= 1:
            out.append(Chunk(rule.label, tuple(elements[i : i + length])))
            out_symbols.append(rule.label)
            i += length
        else:
            out.append(elements[i])
            out_symbols.append(symbol)
            i += 1
    return out, out_symbols


def chunk(grammar: ChunkGrammar, sentence: PosSentence) -> Chunk:
    """Apply the grammar's rules in order; returns the sentence tree."""
    elements: List[object] = [Leaf(tok, i) for i, tok in enumerate(sentence.tokens)]
    symbols = [tok.pos for tok in sentence.tokens]
    for rule in grammar.rules:
        elements, symbols = _apply_rule(rule, elements, symbols)
    return Chunk("S", tuple(elements))


def to_bracket(node: Union[Chunk, Leaf]) -> str:
    """Bracketed rendering, e.g. ``(S (NP market_NN share_NN) (VB rose_VBD))``."""
    if isinstance(node, Leaf):
        return f"{node.token.surface}_{node.token.pos}"
    inner = " ".join(to_bracket(child) for child in node.children)
    return f"({node.label} {inner})"


# ---------------------------------------------------------------------------
# indicator/modifier pair extraction
# ---------------------------------------------------------------------------

PAIR_NODE_LABEL = "NPJJ"
INDICATOR_LABELS = frozenset({"NP", "NPP"})
MODIFIER_LABELS = frozenset({"JJ", "RB", "VB"})


@dataclass(frozen=True)
class PairExtraction:
    """Each pair-pattern node's (indicator chunks, modifier chunks), in pre-order."""

    nodes: tuple

    @property
    def pairs(self) -> tuple:
        """Candidate (indicator, modifier) chunk pairs: by node, indicator, then modifier."""
        return tuple(
            (ind, mod) for indicators, modifiers in self.nodes for ind in indicators for mod in modifiers
        )


def pair_nodes(tree: Chunk) -> List[Chunk]:
    """The tree's pair-pattern (NPJJ) nodes, the root included, in pre-order."""
    return [node for node in (tree, *tree.subchunks()) if node.label == PAIR_NODE_LABEL]


def extract_pairs(tree: Chunk) -> PairExtraction:
    """Collect the indicator and modifier chunks of every pair-pattern node.

    For each node labelled NPJJ, every (NP-or-NPP, JJ/RB/VB) combination is a
    candidate pair, ordered by indicator position then modifier position.
    """
    nodes: List[tuple] = []
    for node in pair_nodes(tree):
        indicators: List[Chunk] = []
        modifiers: List[Chunk] = []
        for sub in node.subchunks():
            if sub.label in INDICATOR_LABELS:
                indicators.append(sub)
            elif sub.label in MODIFIER_LABELS:
                modifiers.append(sub)
        nodes.append((tuple(indicators), tuple(modifiers)))
    return PairExtraction(tuple(nodes))
