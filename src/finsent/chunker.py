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

Each rule compiles to a Thompson NFA that runs as a lazily built DFA: a
transition between sets of NFA states is computed the first time a match
takes it and cached on the rule.  Sequences are POS tags and chunk labels, so
the cache is bounded by the grammar, not by the input, and compiling a
grammar builds no DFA state beyond the start set.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Iterable, List, Optional, Sequence, Union

from .pos_text import PENN_TAGS, PosSentence, PosToken

__all__ = [
    "GrammarError",
    "ChunkGrammar",
    "ChunkRule",
    "Leaf",
    "Chunk",
    "Span",
    "PairExtraction",
    "compile_grammar",
    "bundled_grammar_source",
    "bundled_grammar",
    "chunk",
    "chunk_span",
    "pair_nodes",
    "extract_pairs",
    "to_bracket",
    "INDICATOR_LABELS",
    "MODIFIER_LABELS",
]


class GrammarError(ValueError):
    """Raised for grammar syntax errors or references to undefined labels."""


# ---------------------------------------------------------------------------
# pattern AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Atom:
    body: str


@dataclass(frozen=True)
class _Seq:
    parts: tuple


@dataclass(frozen=True)
class _Alt:
    options: tuple


@dataclass(frozen=True)
class _Rep:
    child: object
    min_count: int  # 0 for * and ?, 1 for +
    unbounded: bool  # False only for ?


def _scan_tokens(pattern: str, label: str) -> List[tuple]:
    """Lex a rule pattern into ('atom', body) and punctuation tokens."""
    tokens: List[tuple] = []
    i, n = 0, len(pattern)
    while i < n:
        ch = pattern[i]
        if ch.isspace():
            i += 1
        elif ch == "<":
            end = pattern.find(">", i + 1)
            if end < 0:
                raise GrammarError(f"rule {label}: unclosed atom at position {i}")
            body = pattern[i + 1 : end].strip()
            if not body:
                raise GrammarError(f"rule {label}: empty atom at position {i}")
            tokens.append(("atom", body, i))
            i = end + 1
        elif ch in "()|*+?":
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise GrammarError(f"rule {label}: unexpected character {ch!r} at position {i}")
    return tokens


class _PatternParser:
    def __init__(self, tokens: List[tuple], label: str) -> None:
        self.tokens = tokens
        self.label = label
        self.pos = 0

    def peek(self) -> Optional[tuple]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def parse(self):
        node = self.alternation()
        if self.peek() is not None:
            kind, _, at = self.peek()
            raise GrammarError(f"rule {self.label}: unexpected {kind!r} at position {at}")
        return node

    def alternation(self):
        options = [self.sequence()]
        while self.peek() and self.peek()[0] == "|":
            self.pos += 1
            options.append(self.sequence())
        return options[0] if len(options) == 1 else _Alt(tuple(options))

    def sequence(self):
        parts = []
        while True:
            tok = self.peek()
            if tok is None or tok[0] in ("|", ")"):
                break
            parts.append(self.repeat())
        return _Seq(tuple(parts))

    def repeat(self):
        node = self.primary()
        tok = self.peek()
        if tok and tok[0] in ("*", "+", "?"):
            self.pos += 1
            if tok[0] == "*":
                node = _Rep(node, 0, True)
            elif tok[0] == "+":
                node = _Rep(node, 1, True)
            else:
                node = _Rep(node, 0, False)
        return node

    def primary(self):
        tok = self.peek()
        if tok is None:
            raise GrammarError(f"rule {self.label}: pattern ended unexpectedly")
        kind, value, at = tok
        if kind == "atom":
            self.pos += 1
            return _Atom(value)
        if kind == "(":
            self.pos += 1
            node = self.alternation()
            closing = self.peek()
            if closing is None or closing[0] != ")":
                raise GrammarError(f"rule {self.label}: unclosed group at position {at}")
            self.pos += 1
            return node
        raise GrammarError(f"rule {self.label}: unexpected {value!r} at position {at}")


def _parse_pattern(pattern: str, label: str):
    return _PatternParser(_scan_tokens(pattern, label), label).parse()


_ATOM_META = set(".*+?")


def _atom_regex(body: str) -> "re.Pattern[str]":
    out = []
    for ch in body:
        out.append(ch if ch in _ATOM_META or ch == "|" else re.escape(ch))
    return re.compile("".join(out))


def _validate_atoms(node, label: str, known: set) -> None:
    if isinstance(node, _Atom):
        for alt in node.body.split("|"):
            alt = alt.strip()
            if not alt or any(ch in _ATOM_META for ch in alt):
                continue
            if alt not in PENN_TAGS and alt not in known:
                raise GrammarError(f"rule {label}: reference to undefined label <{alt}>")
    elif isinstance(node, _Seq):
        for part in node.parts:
            _validate_atoms(part, label, known)
    elif isinstance(node, _Alt):
        for opt in node.options:
            _validate_atoms(opt, label, known)
    elif isinstance(node, _Rep):
        _validate_atoms(node.child, label, known)


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


def _build_nfa(node, matchers: list) -> _Nfa:
    """Thompson's construction; each distinct atom body is appended to ``matchers`` once."""
    nfa = _Nfa()
    matcher_index: dict = {}

    def midx(body: str) -> int:
        if body not in matcher_index:
            matcher_index[body] = len(matchers)
            matchers.append(_atom_regex(body))
        return matcher_index[body]

    def build(n) -> tuple:
        if isinstance(n, _Atom):
            s, e = nfa.new_state(), nfa.new_state()
            nfa.sym[s].append((midx(n.body), e))
            return s, e
        if isinstance(n, _Seq):
            s = nfa.new_state()
            cur = s
            for part in n.parts:
                ps, pe = build(part)
                nfa.eps[cur].append(ps)
                cur = pe
            return s, cur
        if isinstance(n, _Alt):
            s, e = nfa.new_state(), nfa.new_state()
            for opt in n.options:
                os_, oe = build(opt)
                nfa.eps[s].append(os_)
                nfa.eps[oe].append(e)
            return s, e
        if isinstance(n, _Rep):
            s, e = nfa.new_state(), nfa.new_state()
            cs, ce = build(n.child)
            nfa.eps[s].append(cs)
            nfa.eps[ce].append(e)
            if n.min_count == 0:
                nfa.eps[s].append(e)
            if n.unbounded:
                nfa.eps[ce].append(cs)
            return s, e
        raise AssertionError(f"unknown node {n!r}")

    nfa.start, nfa.accept = build(node)
    nfa.closure0 = nfa.closure({nfa.start})
    return nfa


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
        ast = _parse_pattern(self.pattern, self.label)
        matchers: list = []
        nfa = _build_nfa(ast, matchers)
        object.__setattr__(self, "_ast", ast)
        object.__setattr__(self, "_nfa", nfa)
        object.__setattr__(self, "_matchers", matchers)
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
    source: str = ""

    @property
    def labels(self) -> tuple:
        return tuple(rule.label for rule in self.rules)


_LABEL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_$.-]*")


def _strip_comments(source: str) -> str:
    # '#' starts a comment unless it appears inside an <...> atom.
    out: List[str] = []
    for line in source.splitlines():
        depth = 0
        for i, ch in enumerate(line):
            if ch == "<":
                depth += 1
            elif ch == ">":
                depth = max(0, depth - 1)
            elif ch == "#" and depth == 0:
                line = line[:i]
                break
        out.append(line)
    return "\n".join(out)


def compile_grammar(source: str) -> ChunkGrammar:
    """Compile ``LABEL: { pattern }`` rules, in order, into a ChunkGrammar."""
    text = _strip_comments(source)
    rules: List[ChunkRule] = []
    known: set = set()
    i, n = 0, len(text)
    while True:
        while i < n and text[i].isspace():
            i += 1
        if i >= n:
            break
        m = _LABEL_RE.match(text, i)
        if not m:
            raise GrammarError(f"expected rule label at offset {i}, got {text[i:i+10]!r}")
        label = m.group(0)
        i = m.end()
        while i < n and text[i].isspace():
            i += 1
        if i >= n or text[i] != ":":
            raise GrammarError(f"rule {label}: expected ':' at offset {i}")
        i += 1
        while i < n and text[i].isspace():
            i += 1
        if i >= n or text[i] != "{":
            raise GrammarError(f"rule {label}: expected '{{' at offset {i}")
        i += 1
        depth = 0
        j = i
        while j < n:
            if text[j] == "<":
                depth += 1
            elif text[j] == ">":
                depth = max(0, depth - 1)
            elif text[j] == "}" and depth == 0:
                break
            j += 1
        if j >= n:
            raise GrammarError(f"rule {label}: missing closing '}}'")
        rule = ChunkRule(label, text[i:j].strip())
        _validate_atoms(rule._ast, label, known)  # type: ignore[attr-defined]
        rules.append(rule)
        known.add(label)
        i = j + 1
    if not rules:
        raise GrammarError("grammar contains no rules")
    return ChunkGrammar(tuple(rules), source=source)


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
    def symbol(self) -> str:
        return self.token.pos

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
    def symbol(self) -> str:
        return self.label

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


def _apply_rule(rule: ChunkRule, elements: List[object]) -> List[object]:
    symbols = [el.symbol for el in elements]
    out: List[object] = []
    i = 0
    while i < len(elements):
        length = rule.longest_match(symbols, i)
        if length >= 1:
            out.append(Chunk(rule.label, tuple(elements[i : i + length])))
            i += length
        else:
            out.append(elements[i])
            i += 1
    return out


def chunk(grammar: ChunkGrammar, sentence: PosSentence) -> Chunk:
    """Apply the grammar's rules in order; returns the sentence tree."""
    elements: List[object] = [Leaf(tok, i) for i, tok in enumerate(sentence.tokens)]
    for rule in grammar.rules:
        elements = _apply_rule(rule, elements)
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
class Span:
    """A chunk's label, absolute start index, and token surfaces."""

    label: str
    start: int
    tokens: tuple

    @property
    def end(self) -> int:
        return self.start + len(self.tokens)


@dataclass(frozen=True)
class PairExtraction:
    """Candidate (indicator, modifier) span pairs."""

    pairs: tuple


def chunk_span(node: Chunk) -> Span:
    """The span a chunk covers."""
    return Span(node.label, node.start, node.surfaces())


def pair_nodes(tree: Chunk) -> List[Chunk]:
    """The tree's pair-pattern (NPJJ) nodes, the root included, in pre-order."""
    return [node for node in (tree, *tree.subchunks()) if node.label == PAIR_NODE_LABEL]


def extract_pairs(tree: Chunk) -> PairExtraction:
    """Collect indicator/modifier span pairs from every pair-pattern node.

    For each node labelled NPJJ, every (NP-or-NPP, JJ/RB/VB) combination is a
    candidate pair, ordered by indicator position then modifier position.
    """
    pairs: List[tuple] = []
    for node in pair_nodes(tree):
        indicators = [chunk_span(c) for c in node.subchunks() if c.label in INDICATOR_LABELS]
        modifiers = [chunk_span(c) for c in node.subchunks() if c.label in MODIFIER_LABELS]
        pairs.extend((ind, mod) for ind in indicators for mod in modifiers)
    return PairExtraction(tuple(pairs))
