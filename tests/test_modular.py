import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from adtorsion import catalog, modular
from adtorsion.exact import torsion_function
from adtorsion.modular import breakpoint_polynomials, chebyshev_form, real_roots, rows_at, square_free
from adtorsion.reps import riley_polynomial

from test_torsion import schubert_knot

SRC = Path(__file__).resolve().parents[1] / "src" / "adtorsion"

#: the 24 knots b(p, q) with odd p <= 15 that the critical benchmark searches
CRITICAL_FAMILY = [(p, q) for p in range(3, 16, 2) for q in range(1, p, 2) if math.gcd(p, q) == 1]


def _table(p, q):
    return riley_polynomial(schubert_knot(p, q).bridge_word).sigma_form()


def _at(poly, x):
    """The exact value of a polynomial (ascending) with rational
    coefficients at a rational x, by Horner's rule in Fractions."""
    acc, x = Fraction(0), Fraction(x)
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def _quotient(a, b):
    """a / b for integer polynomials (ascending), asserting that b divides a
    in Z[x]: every quotient coefficient an integer and no remainder."""
    a, q = list(a), [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k], r = divmod(a[k + len(b) - 1], b[-1])
        assert r == 0
        for i, c in enumerate(b):
            a[k + i] -= q[k] * c
    assert not any(a)
    return q


def _sturm_count(poly):
    """The number of distinct real roots in (-2, 2) of an integer polynomial
    (ascending) with no root at -2 or 2, from its Sturm sequence in Fractions."""

    def remainder(a, b):
        a = list(a)
        while len(a) >= len(b):
            f, shift = a[-1] / b[-1], len(a) - len(b)
            a = [c - f * b[i - shift] if i >= shift else c for i, c in enumerate(a)][:-1]
            while a and a[-1] == 0:
                a.pop()
        return a

    seq = [[Fraction(c) for c in poly], [Fraction(i * c) for i, c in enumerate(poly)][1:]]
    while len(seq[-1]) > 1:
        seq.append([-c for c in remainder(seq[-2], seq[-1])])

    def changes(x):
        signs = [v for v in (_at(a, x) for a in seq if a) if v]
        return sum(u * v < 0 for u, v in zip(signs, signs[1:]))

    assert _at(poly, -2) and _at(poly, 2)
    return changes(-2) - changes(2)


def test_discriminant_oracles():
    # disc_u phi of b(p, 1) is the constant p^((p - 3) / 2) for odd p <= 41;
    # those of 5_2 and b(15,7) are integer polynomials in sigma, ascending
    for p in range(3, 42, 2):
        assert breakpoint_polynomials(_table(p, 1))[0] == [p ** ((p - 3) // 2)], p
    five_two = riley_polynomial(catalog.knot("5_2").bridge_word).sigma_form()
    assert breakpoint_polynomials(five_two)[0] == [-31, 6, 7, -6, 1]
    # phi times c(sigma) = sigma + 3, no longer monic in u: t_k gains c^k,
    # so det [t_(i+j)] gains c^(d(d - 1)), d = 3
    def times(a, b):
        return [sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b))
                for k in range(len(a) + len(b) - 1)]

    expected = [-31, 6, 7, -6, 1]
    for _ in range(6):
        expected = times(expected, [3, 1])
    assert breakpoint_polynomials([times(row, [3, 1]) for row in five_two])[0] == expected
    assert breakpoint_polynomials(_table(15, 7))[0] == [
        122753, -3155676, -18858, 2371280, -1947187, -1268366, 1539100, 419222, -592160, 20384,
        80285, -21056, 1568,
    ]


@pytest.mark.parametrize("p, q", [(5, 3), (15, 7), (27, 5), (41, 11)])
def test_window_end_polynomials_are_phi_there(p, q):
    # the second and third breakpoint polynomials are phi(sigma, 0) and
    # phi(sigma, sigma - 2), checked exactly at integer and half-integer sigma
    table = _table(p, q)
    _, at_zero, edge = breakpoint_polynomials(table)
    for sigma in (Fraction(k, 2) for k in range(-6, 7)):
        coeffs = rows_at(table, sigma)
        assert _at(at_zero, sigma) == coeffs[0]
        assert _at(edge, sigma) == sum(c * (sigma - 2) ** j for j, c in enumerate(coeffs)), (p, q, sigma)


def test_breakpoint_polynomials_come_trimmed():
    # a zero top coefficient would be read as the leading one: where Horner's
    # rule at u = sigma - 2 cancels the top (5_2's phi(sigma, sigma - 2) is
    # -1), the polynomial comes without it, as the discriminant does
    tables = [_table(p, q) for p, q in CRITICAL_FAMILY]
    tables += [riley_polynomial(catalog.knot(name).bridge_word).sigma_form() for name in ("trefoil", "5_2")]
    for table in tables:
        for poly in breakpoint_polynomials(table):
            assert not poly or poly[-1], (table, poly)
    assert breakpoint_polynomials(tables[-1])[2] == [-1]


def test_certified_roots_match_a_sturm_count():
    # on the 24 knots each square-free polynomial has as many certified
    # roots in (-2, 2) as its Sturm sequence counts, and each root is an
    # exact zero or has opposite signs at its neighbouring floats
    for p, q in CRITICAL_FAMILY:
        for poly in breakpoint_polynomials(_table(p, q)):
            free = square_free(poly)
            roots = real_roots(free)
            assert len(roots) == _sturm_count(free), (p, q, poly)
            for r in roots:
                below, above = _at(free, math.nextafter(r, -3.0)), _at(free, math.nextafter(r, 3.0))
                assert _at(free, r) == 0 or below * above < 0, (p, q, r)


@pytest.mark.parametrize("p, q", CRITICAL_FAMILY + [(27, 5), (39, 7), (81, 11)])
def test_each_breakpoint_is_the_float_nearest_its_root(p, q):
    # an oracle that does not depend on the search: every real root x is
    # an exact zero, or the exact signs at the two midpoints between x and
    # its neighbouring floats differ, so a root lies in the reals that round
    # to x.  b(27,5) keeps the crossing 1/4, and b(39,7), whose discriminant
    # is not square-free, keeps 1.25
    found = set()
    for poly in breakpoint_polynomials(_table(p, q)):
        free = square_free(poly)
        roots = real_roots(free)
        assert roots == sorted(set(roots)) and all(-2.0 < x < 2.0 for x in roots), (p, q, roots)
        for x in roots:
            below, above = ((Fraction(x) + Fraction(math.nextafter(x, end))) / 2 for end in (-3.0, 3.0))
            signs = [(v > 0) - (v < 0) for v in (_at(free, below), _at(free, above))]
            assert _at(free, x) == 0 or signs[0] != signs[1], (p, q, x)
        found.update(roots)
    kept = {(27, 5): 0.25, (39, 7): 1.25}
    assert (p, q) not in kept or kept[p, q] in found


def test_hankel_determinants_give_a_prime_the_same_row_in_any_batch():
    # the discriminant's first two primes share one pass over the flat batch
    # of (prime, node) points; each prime's row is the row of a pass of its
    # own, in either order, on words with u-degree d from 2 to 40
    first, second = modular.PRIMES[:2]
    for d in range(2, 41):
        p = 2 * d + 1
        table = _table(p, next(q for q in range(3, p, 2) if math.gcd(p, q) == 1))
        n = 3 * d + 2
        alone = [modular._hankel_determinants(table, n, (prime,)) for prime in (first, second)]
        assert all(row.shape == (1, n) for row in alone)
        pair = modular._hankel_determinants(table, n, (first, second))
        assert pair.tolist() == [alone[0][0].tolist(), alone[1][0].tolist()], d
        assert modular._hankel_determinants(table, n, (second, first)).tolist() == pair.tolist()[::-1], d


def test_square_free_part_keeps_every_distinct_root():
    # the square-free part divides the polynomial in Z[sigma] and has as
    # many distinct real roots in (-2, 2), on the 24 knots and on b(27,5),
    # whose discriminant has the double root 1/4 where two branches cross;
    # the discriminants of b(13,5) and b(15,11) have repeated roots too
    repeated = set()
    for p, q in CRITICAL_FAMILY + [(27, 5)]:
        for poly in breakpoint_polynomials(_table(p, q)):
            free = square_free(poly)
            if any(_quotient(poly, free)[1:]):  # a factor of positive degree left over
                repeated.add((p, q))
            assert _sturm_count(poly) == _sturm_count(free), (p, q, poly)
    assert repeated == {(13, 5), (15, 11), (27, 5)}


def test_square_free_part_of_the_largest_remainder_sequence():
    # b(39,7): its discriminant, of degree 41, has one double root, at
    # sigma = 5/4, and a square-free part of degree 40 that keeps it
    disc = breakpoint_polynomials(_table(39, 7))[0]
    free = square_free(disc)
    assert (len(disc) - 1, len(free) - 1) == (41, 40)
    _quotient(disc, free)
    assert 1.25 in real_roots(free)


def test_chebyshev_form_is_the_dense_product_of_its_maps():
    # chebyshev_form skips the zero entries of its two maps; the dense
    # product left @ a @ right in Python integers gives the same floats, for
    # phi's sigma form and for the exact torsion function's coefficients
    for p, q in ((3, 1), (7, 3), (21, 5), (41, 11)):
        word = schubert_knot(p, q).bridge_word
        for table in (riley_polynomial(word).sigma_form(), torsion_function(word).coeffs):
            columns = []
            for j, row in enumerate(table):
                a = [c << i for i, c in enumerate(row)]
                for _ in range(j):  # times (1 - y)
                    a = [x - y for x, y in zip(a + [0], [0] + a)]
                columns.append(a)
            ny, nx = max(map(len, columns)) - 1, len(table) - 1
            a = np.array([[col[k] if k < len(col) else 0 for col in columns] for k in range(ny + 1)],
                         dtype=object)
            left, right = modular._chebyshev_maps(ny, nx)
            dense = [[v / (1 << (ny + nx)) for v in row] for row in (left @ a @ right).tolist()]
            assert chebyshev_form(table).tolist() == dense, (p, q)


def _package_imports(path):
    """(module, name) for every name a package source file takes from
    another package module, by ``from .m import name`` or as ``m.name``
    after ``from . import m``; module "" for ``from . import m`` itself."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("adtorsion")):
            module = (node.module or "").removeprefix("adtorsion").lstrip(".")
            for alias in node.names:
                yield module, alias.name
                if not module:
                    imported.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "adtorsion":
                    yield alias.name.removeprefix("adtorsion").lstrip("."), ""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in imported:
            yield node.value.id, node.attr


def test_exact_arithmetic_sits_behind_one_leaf_module():
    # modular imports no package module; no module takes a private name
    # from modular, and exact and verify take none from reps
    imports = {path.stem: set(_package_imports(path)) for path in sorted(SRC.glob("*.py"))}
    assert ("modular", "settle") in imports["exact"] and ("modular", "newton") in imports["verify"]
    assert not imports["modular"]
    for stem, names in imports.items():
        private = {(module, name) for module, name in names if name.startswith("_")}
        assert not {(m, n) for m, n in private if m == "modular"}, stem
        if stem in ("exact", "verify"):
            assert not {(m, n) for m, n in private if m == "reps"}, stem
