"""Independent reference implementation of cascaded chunking, used as an oracle.

Deliberately shares no code with finsent.chunker: its own pattern parser
(producing nested tuples) and a brute-force matcher that enumerates, for every
AST node and start position, the full set of reachable end positions.  Its
repeats take an ε-closure over end positions, a construction the package no
longer uses (finsent.chunker builds position automata), so the two share no
construction either.  The
chunking discipline is the same contract: rules in declaration order, and per
rule a left-to-right scan taking the longest match at each position (matches
must consume at least one element).
"""
from __future__ import annotations

import re
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

# ---------------------------------------------------------------------------
# pattern parsing into nested tuples:
#   ('atom', compiled_regex)
#   ('seq', [node, ...])
#   ('alt', [node, ...])
#   ('rep', node, min_repeats, unbounded)
# ---------------------------------------------------------------------------


def parse_pattern(pattern: str):
    pos = 0
    n = len(pattern)

    def skip_ws():
        nonlocal pos
        while pos < n and pattern[pos].isspace():
            pos += 1

    def parse_alt():
        nonlocal pos
        options = [parse_seq()]
        skip_ws()
        while pos < n and pattern[pos] == "|":
            pos += 1
            options.append(parse_seq())
            skip_ws()
        return ("alt", options) if len(options) > 1 else options[0]

    def parse_seq():
        nonlocal pos
        parts = []
        while True:
            skip_ws()
            if pos >= n or pattern[pos] in "|)":
                break
            parts.append(parse_repeat())
        return ("seq", parts)

    def parse_repeat():
        nonlocal pos
        node = parse_primary()
        skip_ws()
        if pos < n and pattern[pos] in "*+?":
            op = pattern[pos]
            pos += 1
            if op == "*":
                return ("rep", node, 0, True)
            if op == "+":
                return ("rep", node, 1, True)
            return ("rep", node, 0, False)
        return node

    def parse_primary():
        nonlocal pos
        skip_ws()
        if pattern[pos] == "<":
            end = pattern.index(">", pos)
            body = pattern[pos + 1 : end]
            pos = end + 1
            escaped = "".join(ch if ch in ".*+|?" else re.escape(ch) for ch in body)
            return ("atom", re.compile(escaped))
        if pattern[pos] == "(":
            pos += 1
            node = parse_alt()
            skip_ws()
            assert pos < n and pattern[pos] == ")", f"expected ')' at {pos}"
            pos += 1
            return node
        raise AssertionError(f"unexpected char {pattern[pos]!r} at {pos}")

    node = parse_alt()
    skip_ws()
    assert pos >= n, f"trailing input at {pos}"
    return node


# ---------------------------------------------------------------------------
# brute-force matching: full set of end positions per (node, start)
# ---------------------------------------------------------------------------


def _ends(node, symbols: Sequence[str], start: int, memo: Dict) -> FrozenSet[int]:
    key = (id(node), start)
    if key in memo:
        return memo[key]
    kind = node[0]
    if kind == "atom":
        result = (
            frozenset({start + 1})
            if start < len(symbols) and node[1].fullmatch(symbols[start])
            else frozenset()
        )
    elif kind == "seq":
        positions: Set[int] = {start}
        for part in node[1]:
            nxt: Set[int] = set()
            for p in positions:
                nxt |= _ends(part, symbols, p, memo)
            positions = nxt
            if not positions:
                break
        result = frozenset(positions)
    elif kind == "alt":
        result = frozenset().union(*(_ends(opt, symbols, start, memo) for opt in node[1]))
    else:  # rep
        _, child, min_repeats, unbounded = node
        if not unbounded:  # '?'
            result = frozenset({start}) | _ends(child, symbols, start, memo)
        else:
            closure: Set[int] = {start}  # reachable via >= 0 applications
            frontier: Set[int] = {start}
            while frontier:
                nxt: Set[int] = set()
                for p in frontier:
                    for e in _ends(child, symbols, p, memo):
                        if e not in closure:
                            closure.add(e)
                            nxt.add(e)
                frontier = nxt
            if min_repeats == 0:  # '*'
                result = frozenset(closure)
            else:  # '+': one application from any zero-or-more point
                via_one: Set[int] = set()
                for p in closure:
                    via_one |= _ends(child, symbols, p, memo)
                result = frozenset(via_one)
    memo[key] = result
    return result


def longest_match(node, symbols: Sequence[str], start: int) -> int:
    ends = _ends(node, symbols, start, {})
    return max(ends) - start if ends else 0


# ---------------------------------------------------------------------------
# grammar source parsing and cascaded application
# ---------------------------------------------------------------------------


def _strip_comments(source: str) -> str:
    out = []
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


_RULE_RE = re.compile(r"([A-Za-z_][\w$.-]*)\s*:\s*\{")


def parse_grammar(source: str) -> List[Tuple[str, object]]:
    text = _strip_comments(source)
    rules = []
    pos = 0
    while True:
        m = _RULE_RE.search(text, pos)
        if not m:
            break
        end = text.index("}", m.end())
        rules.append((m.group(1), parse_pattern(text[m.end() : end])))
        pos = end + 1
    return rules


def chunk_sentence(rules, tagged: Sequence[Tuple[str, str]]):
    """Nested-list tree ['chunk', 'S', items]; leaves are ('leaf', surface, tag)."""
    elements: List = [("leaf", surface, tag) for surface, tag in tagged]

    def symbol(el):
        return el[2] if el[0] == "leaf" else el[1]

    for label, node in rules:
        symbols = [symbol(el) for el in elements]
        out: List = []
        i = 0
        while i < len(elements):
            length = longest_match(node, symbols, i)
            if length >= 1:
                out.append(["chunk", label, elements[i : i + length]])
                i += length
            else:
                out.append(elements[i])
                i += 1
        elements = out
    return ["chunk", "S", elements]


def to_bracket(tree) -> str:
    if tree[0] == "leaf":
        return f"{tree[1]}_{tree[2]}"
    inner = " ".join(to_bracket(child) for child in tree[2])
    return f"({tree[1]} {inner})"
