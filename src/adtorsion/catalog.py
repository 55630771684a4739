"""Built-in two-bridge knot presentations.

Only entries whose data is verified in the test suite ship here: each
catalog knot must validate, its obstruction polynomial's u^0 coefficient
must reproduce the classical Alexander polynomial up to units, and the
torsion pipeline must pass the cross-checks in `verify`.  The two-bridge
knots b(p, q) come from their Schubert words and are checked against their
exact oracles on construction.  Other knots enter through presentation
files.
"""

from __future__ import annotations

import math
import re

from .presentation import Presentation, PresentationError, two_bridge
from .reps import riley_polynomial
from .torsion import untwisted_alexander

_BRIDGE_WORDS = {
    "5_2": "x^-1 y^-1 x y x^-1 y^-1",
    "trefoil": "x y",
}

_ALIASES = {
    "3_1": "trefoil",
    "31": "trefoil",
    "52": "5_2",
}

_PQ_NAME = re.compile(r"b\((\d+),(\d+)\)")


def knot_names() -> tuple[str, ...]:
    return tuple(sorted(_BRIDGE_WORDS))


def knot(name: str) -> Presentation:
    """A catalog knot by name or alias, or ``b(p,q)`` (see :func:`two_bridge_pq`)."""
    if match := _PQ_NAME.fullmatch(name):
        return two_bridge_pq(int(match[1]), int(match[2]))
    key = _ALIASES.get(name, name)
    try:
        word_text = _BRIDGE_WORDS[key]
    except KeyError:
        raise KeyError(
            f"unknown knot {name!r}; catalog has {', '.join(knot_names())} and b(p,q)"
        ) from None
    return two_bridge(word_text)


def schubert_word(p: int, q: int) -> str:
    """The Schubert word of b(p, q): p - 1 letters alternating x, y, ...,
    starting with x, the i-th with exponent (-1)^floor(i q / p)."""
    return " ".join(("x" if i % 2 else "y") + ("^-1" if (i * q // p) % 2 else "") for i in range(1, p))


def two_bridge_pq(p: int, q: int) -> Presentation:
    """The two-bridge knot b(p, q) from its Schubert word, for odd p >= 3 and
    odd q in (0, p) coprime to p (PresentationError otherwise).

    Three exact oracles are checked on construction: |Delta(-1)| = p,
    phi(s, 0) equals the Alexander polynomial up to a unit, and phi has
    u-degree (p - 1)/2; a failure is a RuntimeError naming the oracle."""
    if not (p >= 3 and p % 2 and 0 < q < p and q % 2 and math.gcd(p, q) == 1):
        raise PresentationError(f"b({p},{q}) needs odd p >= 3 and odd q in (0, p) coprime to p")
    knot = two_bridge(schubert_word(p, q))
    alexander = untwisted_alexander(knot)
    det = abs(alexander(-1))
    phi = riley_polynomial(knot.bridge_word)
    for holds, oracle in (
        (det == p, f"|Delta(-1)| = {det}, expected {p}"),
        (phi.coefficient(0).equal_up_to_unit(alexander), "phi(s, 0) is not the Alexander polynomial"),
        (phi.u_degree == (p - 1) // 2, f"u-degree {phi.u_degree}, expected {(p - 1) // 2}"),
    ):
        if not holds:
            raise RuntimeError(f"b({p},{q}) fails an exact oracle: {oracle}")
    return knot
