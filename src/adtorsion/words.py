"""Freely reduced words in a free group on indexed generators.

A letter is a pair ``(g, e)`` with ``g`` a generator index (``>= 0``) and
``e`` either ``+1`` or ``-1``.  Powers are expanded into repeated letters so
that derivative and substitution code can walk a word one letter at a time.
Words are immutable and hashable; all constructors freely reduce.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Sequence

Letter = tuple[int, int]

_TOKEN_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(\^(.*))?$")


class WordError(ValueError):
    """Malformed word text or invalid letter data."""


def free_reduce(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    """Cancel adjacent inverse pairs until none remain (single stack scan)."""
    out: list[Letter] = []
    for g, e in letters:
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


class Word:
    """A freely reduced word; ``letters`` is a tuple of ``(index, ±1)``.
    Its hash is computed once: memoized functions hash their word arguments
    on every call."""

    __slots__ = ("letters", "_hash")

    def __init__(self, letters: Iterable[Letter] = ()):
        checked = []
        for letter in letters:
            g, e = letter
            if not isinstance(g, int) or g < 0:
                raise WordError(f"generator index must be a non-negative int, got {g!r}")
            if e not in (1, -1):
                raise WordError(f"letter exponent must be +1 or -1, got {e!r}")
            checked.append((g, e))
        self.letters: tuple[Letter, ...] = free_reduce(checked)
        self._hash = hash(self.letters)

    @classmethod
    def gen(cls, index: int, exponent: int = 1) -> "Word":
        """The word ``x_index^exponent``."""
        if exponent == 0:
            return cls()
        e = 1 if exponent > 0 else -1
        return cls([(index, e)] * abs(exponent))

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word([(g, -e) for g, e in reversed(self.letters)])

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        out = Word()
        for _ in range(n):
            out = out * self
        return out

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Word({list(self.letters)!r})"

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def max_index(self) -> int:
        """Largest generator index used; -1 for the empty word."""
        return max((g for g, _ in self.letters), default=-1)

    def exponent_sum(self, index: int) -> int:
        return sum(e for g, e in self.letters if g == index)

    def sort_key(self) -> tuple:
        """Total order used for canonical group-ring term ordering."""
        return (len(self.letters), self.letters)


def parse_word(text: str, names: Sequence[str]) -> Word:
    """Parse a whitespace-separated word over the given generator names.

    Each token is an identifier optionally followed by ``^`` and a signed
    nonzero integer; the result is freely reduced.
    """
    index = {name: i for i, name in enumerate(names)}
    letters: list[Letter] = []
    for token in text.split():
        m = _TOKEN_RE.match(token)
        if m is None:
            if token.startswith("^"):
                raise WordError(f"empty token before exponent in {token!r}")
            raise WordError(f"malformed token {token!r}")
        name, _, exp_text = m.groups()
        if name not in index:
            raise WordError(f"unknown generator {name!r}")
        if exp_text is None:
            exponent = 1
        else:
            try:
                exponent = int(exp_text)
            except ValueError:
                raise WordError(f"malformed exponent in {token!r}") from None
            if exponent == 0:
                raise WordError(f"malformed exponent in {token!r}: must be nonzero")
        sign = 1 if exponent > 0 else -1
        letters.extend([(index[name], sign)] * abs(exponent))
    return Word(letters)


def format_word(w: Word, names: Sequence[str]) -> str:
    """Serialize a word in the grammar accepted by :func:`parse_word`.

    Runs of the same letter collapse to a power; the empty word serializes
    to the empty string.
    """
    tokens: list[str] = []
    run_gen: int | None = None
    run_exp = 0
    for g, e in list(w.letters) + [(-1, 0)]:  # sentinel flushes the last run
        if g == run_gen and (run_exp > 0) == (e > 0):
            run_exp += e
            continue
        if run_gen is not None and run_gen >= 0:
            name = names[run_gen]
            tokens.append(name if run_exp == 1 else f"{name}^{run_exp}")
        run_gen, run_exp = g, e
    return " ".join(tokens)
