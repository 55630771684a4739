"""Fox free differential calculus over the integral group ring of a free group.

Group-ring elements are finite integer combinations of freely reduced words
kept in a canonical term order, so equality is structural.  The derivative
follows the defining rules d(x_i)/d(x_j) = delta_ij and
d(uv)/d(x_j) = du/d(x_j) + u · dv/d(x_j), which force
d(x_j^-1)/d(x_j) = -x_j^-1.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .words import Word

if TYPE_CHECKING:
    from .presentation import Presentation

#: distinct (word, generator) pairs whose derivative stays memoized per process
FOX_CACHE_SIZE = 1024


class GroupRingElt:
    """Finite formal integer combination of words, in canonical form."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple[int, Word]] = ()):
        merged: dict[Word, int] = {}
        for coeff, word in terms:
            merged[word] = merged.get(word, 0) + coeff
        canonical = sorted(
            ((c, w) for w, c in merged.items() if c != 0),
            key=lambda cw: cw[1].sort_key(),
        )
        self.terms: tuple[tuple[int, Word], ...] = tuple(canonical)

    @classmethod
    def zero(cls) -> "GroupRingElt":
        return cls()

    @classmethod
    def one(cls) -> "GroupRingElt":
        return cls([(1, Word())])

    @classmethod
    def of_word(cls, w: Word, coeff: int = 1) -> "GroupRingElt":
        return cls([(coeff, w)])

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, w: Word) -> int:
        for c, word in self.terms:
            if word == w:
                return c
        return 0

    def __add__(self, other: "GroupRingElt") -> "GroupRingElt":
        return GroupRingElt(self.terms + other.terms)

    def __neg__(self) -> "GroupRingElt":
        return GroupRingElt([(-c, w) for c, w in self.terms])

    def __sub__(self, other: "GroupRingElt") -> "GroupRingElt":
        return self + (-other)

    def __mul__(self, other: "GroupRingElt") -> "GroupRingElt":
        products = []
        for a, u in self.terms:
            for b, v in other.terms:
                products.append((a * b, u * v))
        return GroupRingElt(products)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroupRingElt) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __repr__(self) -> str:
        return f"GroupRingElt({list(self.terms)!r})"

    def to_str(self, names: Sequence[str]) -> str:
        """Debug rendering like ``+ x y - x^2`` (empty word prints as 1)."""
        if not self.terms:
            return "0"
        from .words import format_word

        parts = []
        for c, w in self.terms:
            body = format_word(w, names) if not w.is_identity else "1"
            sign = "-" if c < 0 else "+"
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            parts.append(f"{sign} {mag}{body}")
        return " ".join(parts).lstrip("+ ")


@functools.lru_cache(maxsize=FOX_CACHE_SIZE)
def fox_derivative(r: Word, j: int) -> GroupRingElt:
    """Derivative of a freely reduced word with respect to generator ``j``.

    Single left-to-right scan accumulating prefixes: a positive letter x_j
    after prefix u contributes +u, a negative one contributes -u·x_j^-1.
    Memoized per ``(r, j)``: equal arguments return the same shared
    element, which callers must not mutate.
    """
    if j < 0:
        raise IndexError(f"generator index {j} out of range")
    terms: list[tuple[int, Word]] = []
    prefix: list[tuple[int, int]] = []
    for g, e in r.letters:
        if g == j:
            if e == 1:
                terms.append((1, Word(prefix)))
            else:
                terms.append((-1, Word(prefix + [(g, -1)])))
        prefix.append((g, e))
    return GroupRingElt(terms)


@functools.lru_cache(maxsize=FOX_CACHE_SIZE)
def term_table(elt: GroupRingElt, p: "Presentation"):
    """Where ``phi_of`` puts each term of ``elt`` under the abelianization of
    ``p``: ``(lo, span, slots, coefficients, spines, index)``, with the
    t-exponent of term i at ``lo + slots[i]`` and its word the prefix at
    ``index[i]`` of the prefix chains of ``spines``, one after another (the
    chain of a spine of length L holds its L + 1 prefixes, the empty one
    first).

    Memoized per ``(elt, p)``.  Every term of a Fox derivative is a prefix of
    its relator, which is then the one spine: the representation has formed
    that chain for its relator check.  Neither the exponents nor the
    prefixes are recomputed per representation.
    """
    exponents = [p.alpha_of(w) for _, w in elt.terms]
    spines: list[Word] = []
    positions = [(0, 0)] * len(elt.terms)
    for i in sorted(range(len(elt.terms)), key=lambda i: -len(elt.terms[i][1])):
        w = elt.terms[i][1]
        c = next((c for c, s in enumerate(spines) if s.letters[: len(w)] == w.letters), len(spines))
        if c == len(spines):
            spines.append(next((r for r in p.relators if r.letters[: len(w)] == w.letters), w))
        positions[i] = (c, len(w))
    starts = np.cumsum([0] + [len(s.letters) + 1 for s in spines])
    lo = min(exponents)
    return (lo, max(exponents) - lo + 1, np.subtract(exponents, lo),
            np.array([c for c, _ in elt.terms]), spines,
            np.array([starts[c] + k for c, k in positions]))


def fundamental_identity_holds(r: Word) -> bool:
    """Whether sum_j (dr/dx_j)·(x_j - 1) == r - 1, exactly."""
    lhs = GroupRingElt.zero()
    for j in range(r.max_index() + 1):
        dj = fox_derivative(r, j)
        if dj.is_zero:
            continue
        xj_minus_1 = GroupRingElt([(1, Word.gen(j)), (-1, Word())])
        lhs = lhs + dj * xj_minus_1
    rhs = GroupRingElt([(1, r), (-1, Word())])
    return lhs == rhs
