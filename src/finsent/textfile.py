"""How finsent reads every text file: one decode, one byte-order-mark rule, one line rule.

One leading byte-order mark is dropped, so it cannot join the first word.  Lines break
where a text-mode ``open()`` breaks them, not at U+0085, U+2028 or form feeds as
``str.splitlines`` does, so an error names a line an editor shows and a comment runs to its line's end.
"""
import io
import sys
from pathlib import Path
from typing import Iterator, Optional, Tuple


def read(path, encoding: str = "utf-8", error: Optional[type] = None) -> str:
    """The text of ``path`` (None: stdin); a bad byte is U+FFFD, or raises ``error`` naming ``path:line``."""
    data = sys.stdin.buffer.read() if path is None else Path(path).read_bytes()
    try:
        return data.decode(encoding, "strict" if error else "replace").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        line = io.StringIO(data[: exc.start].decode(encoding), newline=None).getvalue().count("\n") + 1
        raise error(f"{path}:{line}: not valid {encoding}") from None


def is_text_encoding(name: str) -> bool:
    """Whether ``name`` is a codec Python knows that decodes bytes to text (not ``base64`` or ``undefined``)."""
    try:
        io.TextIOWrapper(io.BytesIO(b""), encoding=name).read()
    except (LookupError, ValueError):  # "undefined" raises a UnicodeError, a NUL in the name a ValueError
        return False
    return True


def lines(text: str) -> Iterator[Tuple[int, str]]:
    """``(number, line)`` for each line of ``text``, numbered from 1, its line end removed."""
    return ((n, line.rstrip("\n")) for n, line in enumerate(io.StringIO(text, newline=None), start=1))
