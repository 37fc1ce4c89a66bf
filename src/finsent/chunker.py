"""Cascaded regular-expression chunking over POS tag sequences.

A grammar is the tuple of its ``LABEL: { pattern }`` rules.  Patterns are
regular expressions whose alphabet is ``<TAG>`` atoms; an atom's body is
itself a small regex over tag names (``<NNS|NN>``, ``<JJ.*>``, ``<.*>``).
Rules apply in declaration order to the current sequence of elements (the
sentence's own tokens and the chunks built by earlier rules), so later rules
can reference earlier labels as single symbols.  A tree's leaves are its
sentence's ``tokens``, and each chunk, a plain record, holds the token range
``[start, end)`` it covers.  The chunker gives no label a meaning:
``semtag`` decides which labels are pair nodes, indicators and modifiers.

Matching policy per rule: scan left to right; at each position take the
longest possible match (independent of alternative order); a match of at
least one element becomes a chunk and scanning resumes after it.

Each pattern is read once by a recursive-descent parser that builds its
position (Glushkov) automaton as it goes, with no syntax tree and no
ε-transitions.  The distinct atom bodies are then compiled as regexes (a
malformed one, such as ``<*>``, is a GrammarError naming the rule, the atom
and its position) and checked against the Penn tags and the earlier labels.

Each symbol name (a Penn tag or a label, one namespace) has a one-character
code, and a sentence's symbols are one string of codes.  A run rule, whose
automaton has one position, accepts a run of one class of symbols (``<JJ.*>*``,
``<VB.*>``).  Run rules in a row share one pass, a ``re.finditer`` over the
string, while their classes are disjoint and hold no label of the pass; for a
run, greedy leftmost is longest.  A grammar's first ``chunk`` plans its passes,
cached by the grammar's value.  Other rules run their automaton as a lazily
built DFA over the codes, whose transitions are cached on the rule when a match
first takes them: compiling builds no DFA state.  A dead first step skips a
start; otherwise the scan for the longest match stops at any (state set,
position) pair an earlier scan of the pass reached, so a pass is linear in the
sentence length.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Dict, List, NamedTuple, Sequence, Tuple, Union

from . import textfile
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


# One code point per symbol name (the label JJ and the tag JJ share one).  Penn
# tags come first, so the bundled grammars' codes stay below U+0100, where CPython
# shares one object per one-character string and indexing a code allocates nothing.
_CODES: Dict[str, str] = {tag: chr(k) for k, tag in enumerate(sorted(PENN_TAGS))}
_NAMES: Dict[str, str] = {code: name for name, code in _CODES.items()}
_NEXT_CODE = itertools.count(len(_CODES))


def _code(name: str) -> str:
    """The code of a symbol name, assigned on first use (threads that race may skip a code)."""
    if name not in _CODES:
        code = chr(next(_NEXT_CODE))
        _NAMES[code] = name  # before the code is published
        _CODES.setdefault(name, code)
    return _CODES[name]


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
    one per transition.  ``_run`` is ``"+"`` or ``""`` for a run rule (its one
    position may repeat or not), else None.
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
        single = len(follow) == 2 and follow[0] == last == {1}
        object.__setattr__(self, "_run", ("+" if 1 in follow[1] else "") if single else None)
        object.__setattr__(self, "_code", _code(self.label))

    def _step(self, states: frozenset, symbol: str) -> tuple:
        """Compute and cache the DFA transition from ``states`` on the code ``symbol``."""
        follow = self._follow  # type: ignore[attr-defined]
        position_atoms = self._position_atoms  # type: ignore[attr-defined]
        matchers = self._matchers  # type: ignore[attr-defined]
        moved = frozenset(
            q
            for p in states
            for q in follow[p]
            if matchers[position_atoms[q]].fullmatch(_NAMES[symbol]) is not None
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
    text = "\n".join(line[: _outside_atoms(line, "#")] for _, line in textfile.lines(source))
    rules: List[ChunkRule] = []
    names = set(PENN_TAGS)  # the Penn tags and the labels so far
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
                if plain and name not in names:
                    raise GrammarError(f"rule {label}: reference to undefined label <{name}>")
        rules.append(rule)
        names.add(label)
        i = _SPACE_RE.match(text, j + 1).end()
    if not rules:
        raise GrammarError("grammar contains no rules")
    return tuple(rules)


_BUNDLED = ("indicator_direction", "numeric_direction")


def bundled_grammar_source(name: str) -> str:
    if name not in _BUNDLED:
        raise GrammarError(f"no bundled grammar named {name!r}; choose from {_BUNDLED}")
    return textfile.read(resources.files("finsent.data") / f"{name}.grammar", error=GrammarError)


@lru_cache(maxsize=None)
def bundled_grammar(name: str) -> Tuple[ChunkRule, ...]:
    """Load and compile one of the two bundled grammars by name."""
    return compile_grammar(bundled_grammar_source(name))


# ---------------------------------------------------------------------------
# chunk trees
# ---------------------------------------------------------------------------


class Chunk(NamedTuple):
    """A labelled chunk over the sentence's tokens ``[start, end)``."""

    label: str
    children: tuple
    start: int
    end: int


def _rebuild(matches: list, elements: List[object], symbols: str, starts: List[int]) -> tuple:
    """The elements, symbol codes and starts after a pass's ``(i, j, label, code)`` matches;
    element i covers the tokens ``[starts[i], starts[i + 1])``."""
    out: List[object] = []
    out_symbols: List[str] = []
    out_starts: List[int] = []
    done = 0
    for i, j, label, code in matches:
        out += elements[done:i]
        out.append(Chunk(label, tuple(elements[i:j]), starts[i], starts[j]))
        out_symbols += symbols[done:i], code
        out_starts += starts[done : i + 1]
        done = j
    out += elements[done:]
    out_symbols.append(symbols[done:])
    out_starts += starts[done:]
    return out, "".join(out_symbols), out_starts


def _apply_rule(rule: ChunkRule, elements: List[object], symbols: str, starts: List[int]) -> tuple:
    """One rule's DFA pass over the elements, their symbol codes and their first tokens' positions."""
    dfa: dict = rule._dfa  # type: ignore[attr-defined]
    start = _START
    # every (state set, position) pair a scan reached.  Those up to its last
    # accept lie inside the chunk it makes, where no later scan of the pass
    # looks; the rest have no accept ahead.  The DFA is deterministic and the
    # symbols are fixed, so a later scan that reaches one stops there.
    dead: set = set()
    n = len(elements)
    matches: list = []
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
        if length:
            matches.append((i, i + length, rule.label, rule._code))  # type: ignore[attr-defined]
        i += length or 1
    return _rebuild(matches, elements, symbols, starts)


@lru_cache(maxsize=64)
def _plan(grammar: Tuple[ChunkRule, ...]) -> tuple:
    """The grammar's steps: a rule's index, to run on its lazy DFA, or a run pass ``(regex, labels)``."""
    steps: list = []  # indices, so equal grammars' rules keep their own DFA caches; lists per pass
    blocked: set = set()  # the codes the last pass's rules accept or make
    names = set(PENN_TAGS)  # the Penn tags and the labels so far
    for k, rule in enumerate(grammar):
        codes = None if rule._run is None else {  # type: ignore[attr-defined]
            _code(n) for n in names if rule._matchers[0].fullmatch(n)}  # type: ignore[attr-defined]
        names.add(rule.label)
        if codes is None:
            steps.append(k)
        elif codes:  # an empty class never matches
            if not steps or isinstance(steps[-1], int) or not codes.isdisjoint(blocked):
                steps.append([])  # a new pass
                blocked = set()
            steps[-1].append((rule, codes))
            blocked |= codes | {rule._code}  # type: ignore[attr-defined]
    for k, step in enumerate(steps):
        if isinstance(step, list):  # a pass: its regex, and by group number its rule's (label, code)
            regex = "|".join(f"([{''.join(map(re.escape, sorted(c)))}]{r._run})" for r, c in step)
            steps[k] = (re.compile(regex), (None,) + tuple((r.label, r._code) for r, _ in step))
    return tuple(steps)


def chunk(grammar: Sequence[ChunkRule], sentence: PosSentence) -> Chunk:
    """Apply the grammar's rules in order; returns the sentence tree."""
    elements: List[object] = list(sentence.tokens)
    symbols = "".join([_CODES[tag] for tag in sentence.pos_tags])
    starts = list(range(len(elements) + 1))
    for step in _plan(tuple(grammar)):
        if isinstance(step, int):
            elements, symbols, starts = _apply_rule(grammar[step], elements, symbols, starts)
        else:  # a run pass: the matched regex group names the rule
            regex, labels = step
            matches = [(*m.span(), *labels[m.lastindex]) for m in regex.finditer(symbols)]
            elements, symbols, starts = _rebuild(matches, elements, symbols, starts)
    return Chunk("S", tuple(elements), 0, len(sentence))


def to_bracket(node: Union[Chunk, PosToken]) -> str:
    """Bracketed rendering, e.g. ``(S (NP market_NN share_NN) (VB rose_VBD))``."""
    if not isinstance(node, Chunk):
        return f"{node.surface}_{node.pos}"
    inner = " ".join(to_bracket(child) for child in node.children)
    return f"({node.label} {inner})"
