"""Two-bridge knots b(p, q) from Schubert words, checked against exact oracles.

b(p, q) is the two-bridge knot of the word x^e1 y^e2 x^e3 ... (p - 1 letters,
alternating x and y, starting with x) with e_i = (-1)^floor(i q / p).  For
odd p and odd q coprime to p it has determinant |Delta(-1)| = p, its Riley
polynomial has u-degree (p - 1)/2 and phi(s, 0) is the Alexander polynomial
up to units.  A knot that fails one of these is an error in the bench's
inputs, never a measured failure of the program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from tracing import find_object


class OracleError(RuntimeError):
    """A generated knot failed an exact oracle."""


def schubert_word(p: int, q: int) -> str:
    letters = []
    for i in range(1, p):
        name = "x" if i % 2 else "y"
        letters.append(name + ("^-1" if (i * q // p) % 2 else ""))
    return " ".join(letters)


def family(p_values) -> list[tuple[int, int]]:
    """Every (p, q) with p from ``p_values`` and odd q in (0, p) coprime to p."""
    return [(p, q) for p in p_values for q in range(1, p, 2) if math.gcd(p, q) == 1]


@dataclass
class Knot:
    """A checked knot: its name, Schubert word, presentation and Riley polynomial."""

    name: str
    p: int
    word: str
    presentation: object
    phi: object

    @property
    def dihedral(self) -> int:
        """(|Delta(-1)| - 1)/2 binary dihedral classes, the expected count."""
        return (self.p - 1) // 2


def checked_knot(api, name: str, p: int, presentation) -> Knot:
    """Check the three exact oracles for a knot of determinant p."""
    alexander_at_minus_one = find_object("alexander_at_minus_one")[1]
    det = alexander_at_minus_one(presentation)
    if det != p:
        raise OracleError(f"{name}: |Delta(-1)| = {det}, expected {p}")
    phi = api.riley_polynomial(presentation.bridge_word)
    if not phi.coefficient(0).equal_up_to_unit(api.untwisted_alexander(presentation)):
        raise OracleError(f"{name}: phi(s, 0) differs from the Alexander polynomial")
    if phi.u_degree != (p - 1) // 2:
        raise OracleError(f"{name}: u-degree {phi.u_degree}, expected {(p - 1) // 2}")
    word = presentation.format(presentation.bridge_word)
    return Knot(name, p, word, presentation, phi)


def two_bridge_knot(api, p: int, q: int) -> Knot:
    return checked_knot(api, f"b({p},{q})", p, api.two_bridge(schubert_word(p, q)))
