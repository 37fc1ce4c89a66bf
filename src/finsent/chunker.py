"""Cascaded regular-expression chunking over POS tag sequences.

A grammar is the tuple of its ``LABEL: { pattern }`` rules.  Patterns are
regular expressions whose alphabet is ``<TAG>`` atoms; an atom's body is
itself a small regex over tag names (``<NNS|NN>``, ``<JJ.*>``, ``<.*>``).
Rules apply in declaration order to the current sequence of elements (the
sentence's own tokens and the chunks built by earlier rules), so later rules
can reference earlier labels as single symbols.  A tree's leaves are its
sentence's ``PosToken`` objects, and each chunk records the token range
``[start, end)`` it covers.  The chunker gives no label a meaning:
``semtag`` decides which labels are pair nodes, indicators and modifiers.

Matching policy per rule: scan left to right; at each position take the
longest possible match (independent of alternative order); a match of at
least one element becomes a chunk and scanning resumes after it.

Each pattern is read once: its tokens go to a recursive-descent parser that
builds the pattern's position (Glushkov) automaton as it goes, with no syntax
tree in between and no ε-transitions.  The parser collects the distinct atom
bodies, which are then compiled as regexes (a malformed one, such as ``<*>``,
is a GrammarError naming the rule, the atom and its position) and checked
against the Penn tags and the earlier labels.

The position automaton runs as a lazily built DFA: a transition between sets
of positions is computed the first time a match takes it and cached on the
rule.  Sequences are POS tags and chunk labels, so the cache is bounded by the
grammar, not by the input, and compiling a grammar builds no DFA state beyond
the start set.  A rule's pass is one loop.  At each element it first takes
the start set's cached step on the element's symbol: when that step is dead,
no match can start there.  Otherwise the step begins the longest-match scan,
which stops at any (state set, position) pair an earlier scan of the pass
reached, so a pass is linear in the sentence length.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import List, Tuple, Union

from .pos_text import PENN_TAGS, PosSentence, PosToken

__all__ = [
    "GrammarError",
    "ChunkRule",
    "Chunk",
    "compile_grammar",
    "bundled_grammar_source",
    "bundled_grammar",
    "chunk",
    "to_bracket",
]


class GrammarError(ValueError):
    """Raised for grammar syntax errors or references to undefined labels."""


# ---------------------------------------------------------------------------
# position automaton (Glushkov) and lazy-DFA longest match
# ---------------------------------------------------------------------------


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
    """Parse a rule pattern by recursive descent, building its position automaton as it goes.

    Each atom occurrence is a position; position 0 stands before the first
    atom.  Each parse function returns the ``(first, last, nullable)`` of the
    fragment it read and adds to ``follow`` the positions that may come next.
    Returns ``follow``, the pattern's ``last`` (its accepting positions), each
    position's matcher index, one matcher per distinct atom body, and those
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
    follow: List[set] = [set()]  # per position: the positions that may come next
    position_atoms: List[int] = [-1]  # per position: its matcher index
    atoms: dict = {}  # body -> (matcher index, position of first use)
    pos = 0

    def alternation() -> tuple:
        nonlocal pos
        first, last, nullable = sequence()
        while tokens[pos][0] == "|":
            pos += 1
            more = sequence()
            first, last, nullable = first | more[0], last | more[1], nullable or more[2]
        return first, last, nullable

    def sequence() -> tuple:
        first: set = set()
        last: set = set()
        nullable = True
        while tokens[pos][0] not in ("|", ")", None):
            part_first, part_last, part_nullable = repeat()
            for p in last:
                follow[p] |= part_first
            if nullable:
                first = first | part_first
            last = last | part_last if part_nullable else part_last
            nullable = nullable and part_nullable
        return first, last, nullable

    def repeat() -> tuple:
        nonlocal pos
        first, last, nullable = primary()
        op = tokens[pos][0]
        if op not in ("*", "+", "?"):
            return first, last, nullable
        pos += 1
        if op != "?":  # may match more than once
            for p in last:
                follow[p] |= first
        return first, last, nullable or op != "+"

    def primary() -> tuple:
        nonlocal pos
        kind, text, at = tokens[pos]
        pos += 1
        if kind == "atom":
            index, _ = atoms.setdefault(text, (len(atoms), at))
            follow.append(set())
            position_atoms.append(index)
            return {len(follow) - 1}, {len(follow) - 1}, False
        if kind == "(":
            fragment = alternation()
            if tokens[pos][0] != ")":
                raise GrammarError(f"rule {label}: unclosed group at position {at}")
            pos += 1
            return fragment
        raise GrammarError(f"rule {label}: unexpected {text!r} at position {at}")

    first, last, _ = alternation()
    kind, _, at = tokens[pos]
    if kind is not None:
        raise GrammarError(f"rule {label}: unexpected {kind!r} at position {at}")
    follow[0] = first
    # compiled after the parse, so a syntax error anywhere is reported first
    matchers = [_atom_regex(body, label, at) for body, (_, at) in atoms.items()]
    return follow, frozenset(last), position_atoms, matchers, tuple(atoms)


_START = frozenset({0})


@dataclass(frozen=True)
class ChunkRule:
    """One compiled grammar rule.

    Matching runs the rule's position automaton as a lazily built DFA: each
    DFA state is a set of positions, the start state is ``{0}``, and ``_dfa``
    maps ``(state, symbol)`` to ``(next state or None, accepting)``.  An entry
    is computed the first time a match takes that transition.  ``_sets``
    interns the states, so the cache holds one object per DFA state instead of
    one per transition.
    """

    label: str
    pattern: str

    def __post_init__(self) -> None:
        follow, last, position_atoms, matchers, atoms = _compile_pattern(self.pattern, self.label)
        object.__setattr__(self, "_follow", follow)
        object.__setattr__(self, "_last", last)
        object.__setattr__(self, "_position_atoms", position_atoms)
        object.__setattr__(self, "_matchers", matchers)
        object.__setattr__(self, "_atoms", atoms)
        object.__setattr__(self, "_dfa", {})
        object.__setattr__(self, "_sets", {_START: _START})

    def _step(self, states: frozenset, symbol: str) -> tuple:
        """Compute and cache the DFA transition from ``states`` on ``symbol``."""
        follow = self._follow  # type: ignore[attr-defined]
        position_atoms = self._position_atoms  # type: ignore[attr-defined]
        matchers = self._matchers  # type: ignore[attr-defined]
        moved = frozenset(
            q
            for p in states
            for q in follow[p]
            if matchers[position_atoms[q]].fullmatch(symbol) is not None
        )
        if moved:
            moved = self._sets.setdefault(moved, moved)  # type: ignore[attr-defined]
            step = (moved, not moved.isdisjoint(self._last))  # type: ignore[attr-defined]
        else:
            step = (None, False)
        self._dfa[(states, symbol)] = step  # type: ignore[attr-defined]
        return step


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


def compile_grammar(source: str) -> Tuple[ChunkRule, ...]:
    """Compile ``LABEL: { pattern }`` rules into a grammar: the tuple of its rules, in order."""
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
    return tuple(rules)


_BUNDLED = ("indicator_direction", "numeric_direction")


def bundled_grammar_source(name: str) -> str:
    if name not in _BUNDLED:
        raise GrammarError(f"no bundled grammar named {name!r}; choose from {_BUNDLED}")
    return (resources.files("finsent.data") / f"{name}.grammar").read_text(encoding="utf-8")


@lru_cache(maxsize=None)
def bundled_grammar(name: str) -> Tuple[ChunkRule, ...]:
    """Load and compile one of the two bundled grammars by name."""
    return compile_grammar(bundled_grammar_source(name))


# ---------------------------------------------------------------------------
# chunk trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Chunk:
    """A labelled chunk over the sentence's tokens ``[start, end)``."""

    label: str
    children: tuple
    start: int
    end: int


def _apply_rule(rule: ChunkRule, elements: List[object], symbols: List[str], starts: List[int]) -> tuple:
    """One rule over the elements, their symbols and their first tokens' positions.

    Returns the three lists after the rule.  ``starts`` has one more entry
    than ``elements``, the sentence length, so element i covers the tokens
    ``[starts[i], starts[i + 1])``.
    """
    dfa: dict = rule._dfa  # type: ignore[attr-defined]
    start = _START
    # every (state set, position) pair a scan reached.  Those up to its last
    # accept lie inside the chunk it makes, where no later scan of the pass
    # looks; the rest have no accept ahead.  The DFA is deterministic and the
    # symbols are fixed, so a later scan that reaches one stops there.
    dead: set = set()
    n = len(elements)
    out: List[object] = []
    out_symbols: List[str] = []
    out_starts: List[int] = []
    i = 0
    while i < n:
        symbol = symbols[i]
        step = dfa.get((start, symbol))
        if step is None:
            step = rule._step(start, symbol)
        # the first step is the dead-start test: most starts end on it
        states, accepting = step
        length = 1 if accepting else 0
        if states is not None:
            j = i + 1
            while j < n:
                pair = (states, j)
                if pair in dead:
                    break
                dead.add(pair)
                ahead = symbols[j]
                step = dfa.get((states, ahead))
                if step is None:
                    step = rule._step(states, ahead)
                states, accepting = step
                if states is None:
                    break
                j += 1
                if accepting:
                    length = j - i
        out_starts.append(starts[i])
        if length:
            out.append(Chunk(rule.label, tuple(elements[i : i + length]), starts[i], starts[i + length]))
            out_symbols.append(rule.label)
            i += length
        else:
            out.append(elements[i])
            out_symbols.append(symbol)
            i += 1
    out_starts.append(starts[-1])
    return out, out_symbols, out_starts


def chunk(grammar: Tuple[ChunkRule, ...], sentence: PosSentence) -> Chunk:
    """Apply the grammar's rules in order; returns the sentence tree."""
    elements: List[object] = list(sentence.tokens)
    symbols = [tok.pos for tok in sentence.tokens]
    starts = list(range(len(elements) + 1))
    for rule in grammar:
        elements, symbols, starts = _apply_rule(rule, elements, symbols, starts)
    return Chunk("S", tuple(elements), 0, len(sentence))


def to_bracket(node: Union[Chunk, PosToken]) -> str:
    """Bracketed rendering, e.g. ``(S (NP market_NN share_NN) (VB rose_VBD))``."""
    if isinstance(node, PosToken):
        return f"{node.surface}_{node.pos}"
    inner = " ".join(to_bracket(child) for child in node.children)
    return f"({node.label} {inner})"
