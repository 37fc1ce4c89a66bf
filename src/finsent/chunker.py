"""Cascaded regular-expression chunking over POS tag sequences.

A grammar is the tuple of its ``LABEL: { pattern }`` rules.  Patterns are
regular expressions whose alphabet is ``<TAG>`` atoms; an atom's body is
itself a small regex over tag names (``<NNS|NN>``, ``<JJ.*>``, ``<.*>``).
Rules apply in declaration order to the current sequence of elements (the
sentence's own tokens and the chunks built by earlier rules), so later rules
can reference earlier labels as single symbols.  A parse is a span table, each
chunk's ``(label, start, end)`` over the tokens ``[start, end)`` in pre-order;
spans are laminar (two never cross).  Only ``chunk`` nests them into a tree, whose
leaves are the sentence's ``tokens``, for ``to_bracket``.  The chunker gives no
label a meaning: ``semtag`` decides which labels are pair nodes, indicators and modifiers.

Matching policy per rule: scan left to right; at each position take the
longest possible match (independent of alternative order); a match of at
least one element becomes a chunk and scanning resumes after it.

Each pattern is read once by a recursive-descent parser that builds its
position (Glushkov) automaton as it goes, with no syntax tree and no
ε-transitions.  The distinct atom bodies are then compiled as regexes (a
malformed one, such as ``<*>``, is a GrammarError naming the rule, the atom
and its position) and checked against the Penn tags and the earlier labels.

Each Penn tag has a fixed one-character code, and each plan gives its labels
the next codes (a label named like a tag shares its code); a sentence's symbols
are one string of codes.  A run rule, whose automaton has one position, accepts
a run of one class of symbols (``<JJ.*>*``, ``<VB.*>``).  Run rules in a row
share one pass, a ``re.finditer`` over the string, while their classes are
disjoint and hold no label of the pass; for a run, greedy leftmost is longest.
``CD: {<CD>}``, whose class is its own code, joins a pass like any run rule.
Each call encodes the sentence's tags and runs its plan from the first step.
A grammar is its rules' text; its first parse plans its steps, cached by the
grammar's value, and the plan holds all that chunking runs on: each label's
code, each atom's class (the codes of the names its body fully matches), the
passes, and for other rules a lazily built DFA over the codes, whose
transitions are cached in the plan when a match first takes them.  Compiling
builds no DFA state; equal grammars share one plan.  A dead first step skips a
start; otherwise the scan for the longest match stops at any (state set,
position) pair an earlier scan of the pass reached, so a pass is linear in the
sentence length.
"""
from __future__ import annotations

import re
from functools import lru_cache
from importlib import resources
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple, Union

from . import textfile
from .pos_text import PENN_TAGS, PosSentence, PosToken

__all__ = [
    "GrammarError",
    "ChunkRule",
    "Chunk",
    "compile_grammar",
    "bundled_grammar_source",
    "bundled_grammar",
    "chunk_spans",
    "chunk",
    "to_bracket",
]


class GrammarError(ValueError):
    """Raised for grammar syntax errors or references to undefined labels."""


# Each Penn tag's code point; a plan gives its labels the next ones, so the bundled
# grammars' codes stay below U+0100, where CPython shares one object per
# one-character string and indexing a code allocates nothing.
_TAG_CODES: Dict[str, str] = {tag: chr(k) for k, tag in enumerate(sorted(PENN_TAGS))}


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


@lru_cache(maxsize=256)
def _compile_pattern(pattern: str, label: str) -> tuple:
    """Parse a rule pattern by recursive descent, building its position automaton as it goes.

    Each atom occurrence is a position; position 0 stands before the first
    atom.  Each parse function returns the ``(first, last, nullable)`` of the
    fragment it read and adds to ``follow`` the positions that may come next.
    Returns ``follow``, the pattern's ``last`` (its accepting positions), each
    position's matcher index, one matcher per distinct atom body, those bodies
    in order of first use, and the run flag: ``"+"`` or ``""`` for a run rule
    (its one position may repeat or not), else None.
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
    run = ("+" if 1 in follow[1] else "") if len(follow) == 2 and first == last == {1} else None
    follow = tuple(map(frozenset, follow))  # shared by every caller of the cache: immutable
    return follow, frozenset(last), tuple(position_atoms), tuple(matchers), tuple(atoms), run


class ChunkRule(NamedTuple):
    """One grammar rule: its label and its pattern's text."""

    label: str
    pattern: str


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
        for body in _compile_pattern(rule.pattern, label)[4]:  # the distinct atom bodies
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
# span tables and chunk trees
# ---------------------------------------------------------------------------


class Chunk(NamedTuple):
    """A labelled chunk over the sentence's tokens ``[start, end)``."""

    label: str
    children: tuple
    start: int
    end: int


_START = frozenset({0})


def _step(rule: tuple, states: frozenset, symbol: str) -> tuple:
    """Compute and cache a DFA step's transition from ``states`` on the code ``symbol``."""
    _, _, follow, last, classes, dfa = rule
    moved = frozenset(q for p in states for q in follow[p] if symbol in classes[q])
    if moved:
        moved = dfa.setdefault(moved, moved)  # a state set keys itself: one object per DFA state
        step = (moved, not moved.isdisjoint(last))
    else:
        step = (None, False)
    dfa[(states, symbol)] = step
    return step


def _apply_rule(rule: tuple, symbols: str) -> list:
    """One DFA step's pass over the elements' symbol codes: its matches' ``(i, j)``."""
    dfa = rule[5]
    # every (state set, position) pair a scan reached.  Those up to its last
    # accept lie inside the chunk it makes, where no later scan of the pass
    # looks; the rest have no accept ahead.  The DFA is deterministic and the
    # symbols are fixed, so a later scan that reaches one stops there.
    dead: set = set()
    n = len(symbols)
    matches: list = []
    i = 0
    while i < n:
        # the first step is the dead-start test: most starts end on it (a step is a non-empty tuple)
        states, accepting = dfa.get((_START, symbols[i])) or _step(rule, _START, symbols[i])
        length = 1 if accepting else 0
        if states is not None:
            j = i + 1
            while j < n:
                pair = (states, j)
                if pair in dead:
                    break
                dead.add(pair)
                ahead = symbols[j]
                states, accepting = dfa.get((states, ahead)) or _step(rule, states, ahead)
                if states is None:
                    break
                j += 1
                if accepting:
                    length = j - i
        if length:
            matches.append((i, i + length))
        i += length or 1
    return matches


def _run_pass(rules: list) -> tuple:
    """Run rules in a row as one pass: ``(regex, labels)``, ``labels`` giving by group number its rule's
    ``(label, code)``."""
    regex = "|".join(f"([{''.join(map(re.escape, sorted(c)))}]{run})" for _, _, c, run in rules)
    return re.compile(regex), (None,) + tuple((label, code) for label, code, _, _ in rules)


@lru_cache(maxsize=64)
def _plan(grammar: Tuple[ChunkRule, ...]) -> tuple:
    """The grammar's steps: a run pass ``(regex, labels)``, or a rule to run as a lazy DFA,
    ``(label, code, follow, last, classes, transitions)``.

    A label's code is the next after the Penn tags' and the earlier labels' (a
    name keeps its first code).  An atom's class is the set of codes of the Penn
    tags and earlier labels its body fully matches, so of every symbol the rule
    can meet; ``classes`` holds each position's.  ``transitions`` maps ``(state
    set, code)`` to ``(next state set or None, accepting)``, filled as matches
    first take them: equal grammars share one plan, and so their DFA transitions.
    A run rule joins the pass before it while its class is disjoint from the
    codes that pass's rules accept or make, and otherwise opens a pass.
    """
    steps: list = []  # DFA steps, and per run pass the list of its rules
    blocked: set = set()  # the codes the last pass's rules accept or make
    codes = dict(_TAG_CODES)  # the Penn tags' and the labels' so far
    for label, pattern in grammar:
        follow, last, position_atoms, matchers, _, run = _compile_pattern(pattern, label)
        classes = [frozenset(c for n, c in codes.items() if m.fullmatch(n)) for m in matchers]
        code = codes.setdefault(label, chr(len(codes)))
        if run is None:
            steps.append((label, code, follow, last, (None, *(classes[a] for a in position_atoms[1:])), {}))
        elif classes[0]:  # an empty class never matches
            if not steps or not isinstance(steps[-1], list) or not classes[0].isdisjoint(blocked):
                steps.append([])  # a new pass
                blocked = set()
            steps[-1].append((label, code, classes[0], run))
            blocked |= classes[0] | {code}
    return tuple(_run_pass(step) if isinstance(step, list) else step for step in steps)


# matched over the whole of ``symbols[i:j]``, a DFA step's match ``[i, j)`` is a regex match of group 1,
# so both kinds of step rebuild the symbols in ``_apply``
_WHOLE = re.compile("(.+)", re.DOTALL)


def _apply(matches: Iterable[re.Match], labels: tuple, symbols: str, starts: Sequence[int], table: list) -> tuple:
    """Append a step's chunks to ``table``: the matched group names the rule's ``(label, code)`` in ``labels``,
    and a match of elements ``[i, j)`` chunks the tokens ``[starts[i], starts[j])``.  Returns the symbols
    and starts after the step."""
    out_symbols, out_starts, done = [], [], 0
    for m in matches:
        i, j = m.span()
        label, code = labels[m.lastindex]
        table.append((label, starts[i], starts[j]))
        out_symbols += symbols[done:i], code
        out_starts += starts[done : i + 1]
        done = j
    out_symbols.append(symbols[done:])
    return "".join(out_symbols), out_starts + starts[done:]


def chunk_spans(grammar: Sequence[ChunkRule], sentence: PosSentence) -> List[tuple]:
    """Apply the grammar's rules in order; returns every chunk's ``(label, start, end)``, in pre-order."""
    plan, table = _plan(tuple(grammar)), []
    symbols = "".join([_TAG_CODES[tag] for tag in sentence.pos_tags])
    starts = list(range(len(symbols) + 1))
    for step in plan:
        if len(step) == 2:
            symbols, starts = _apply(step[0].finditer(symbols), step[1], symbols, starts, table)
        elif step is plan[-1]:  # the symbols after the last step are never read
            table += [(step[0], starts[i], starts[j]) for i, j in _apply_rule(step, symbols)]
        else:
            matches = (_WHOLE.match(symbols, i, j) for i, j in _apply_rule(step, symbols))
            symbols, starts = _apply(matches, (None, step[:2]), symbols, starts, table)
    # a parent is made after its children, so reversed, a stable sort puts it first on an equal span
    return sorted(reversed(table), key=lambda span: (span[1], -span[2]))


def chunk(grammar: Sequence[ChunkRule], sentence: PosSentence) -> Chunk:
    """The sentence tree, built from its span table with a stack: the root ``S`` over tokens and chunks."""
    tokens, n = sentence.tokens, len(sentence)
    stack: list = [("S", 0, n, [])]  # the open chunks, (label, start, end, children), the root first
    at = 0  # the first token not yet placed
    for span in (*chunk_spans(grammar, sentence), ("", n, n)):  # the last entry closes all but the root
        while len(stack) > 1 and stack[-1][2] <= span[1]:
            label, start, end, children = stack.pop()
            stack[-1][3].append(Chunk(label, (*children, *tokens[at:end]), start, end))
            at = end
        stack[-1][3].extend(tokens[at : span[1]])
        at = span[1]
        stack.append((*span, []))
    return Chunk("S", tuple(stack[0][3]), 0, n)


def to_bracket(node: Union[Chunk, PosToken]) -> str:
    """Bracketed rendering, e.g. ``(S (NP market_NN share_NN) (VB rose_VBD))``."""
    if not isinstance(node, Chunk):
        return f"{node.surface}_{node.pos}"
    inner = " ".join(to_bracket(child) for child in node.children)
    return f"({node.label} {inner})"
