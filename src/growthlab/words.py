"""Words over named generators.

Syntax: whitespace-separated letters, each ``name`` or ``name^k`` with k a
nonzero decimal integer.  A Word is a reduced run-length sequence of
(name, exponent) pairs; reduction here only merges adjacent equal names,
group-specific simplification happens in the engines.  ``_merge`` is the
one loop in growthlab that merges runs of named letters; a free engine
keeps its words as flat runs, which the word kernel reduces at seams.

Each distinct letter token is parsed once: ``_letter`` is a bounded memo
from token to (name, exponent).  Tokens repeat within a call and across
calls (``t``, ``t^-1``, ``x^-2``), and a bad token raises on every call,
since a memo keeps only returned values.
"""

from __future__ import annotations

import functools
import re

from growthlab import GrowthlabError

_LETTER_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\^(-?\d+))?$")
# distinct letter tokens kept by the parse memo
_LETTER_MEMO_SIZE = 1024


class WordSyntaxError(GrowthlabError, ValueError):
    pass


@functools.lru_cache(maxsize=_LETTER_MEMO_SIZE)
def _letter(tok: str) -> tuple:
    """The (name, exponent) pair of one letter token."""
    m = _LETTER_RE.match(tok)
    if m is None:
        raise WordSyntaxError(f"bad letter {tok!r}")
    try:
        exp = 1 if m.group(2) is None else int(m.group(2))
    except ValueError:  # past Python's int-string digit limit
        raise WordSyntaxError(f"exponent of {m.group(1)!r} is too long") from None
    if exp == 0:
        raise WordSyntaxError(f"zero exponent in {tok!r}")
    return m.group(1), exp


def _merge(pairs) -> tuple:
    out: list = []
    for name, exp in pairs:
        if exp == 0:
            continue
        if out and out[-1][0] == name:
            s = out[-1][1] + exp
            if s == 0:
                out.pop()
            else:
                out[-1] = (name, s)
        else:
            out.append((name, exp))
    return tuple(out)


class Word:
    __slots__ = ("letters",)

    def __init__(self, letters: tuple = ()):
        self.letters = letters

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return f"Word(letters={self.letters!r})"

    @staticmethod
    def of(pairs) -> "Word":
        return Word(_merge(pairs))

    @staticmethod
    def parse(text: str) -> "Word":
        # _merge pulls the letters in order, so the first bad token raises
        return Word(_merge(map(_letter, text.split())))

    def __mul__(self, other: "Word") -> "Word":
        return Word.of(self.letters + other.letters)

    def __str__(self) -> str:
        if not self.letters:
            return "<identity>"
        return " ".join(n if e == 1 else f"{n}^{e}" for n, e in self.letters)
