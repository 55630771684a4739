import cmath
import math
import random

import numpy as np
import pytest

from adtorsion import catalog, reps, torsion
from adtorsion.foxcalc import GroupRingElt, fox_derivative
from adtorsion.laurent import DEFAULT_CLEANUP, IntLaurent, LaurentMatrix
from adtorsion.laurent import LaurentPoly, divide_out_simple_roots
from adtorsion.laurent import readings_at_1, unit_aligned_distance
from adtorsion.locus import auto_theta_range
from adtorsion.presentation import Presentation, PresentationError, conjugation_relator, two_bridge
from adtorsion.reps import Rep, build_rep, riley_polynomial, su2_solutions
from adtorsion.torsion import (
    RegularityError,
    Tolerances,
    alexander_block_matrix,
    boundary_factor,
    compute_torsion,
    dihedral_class_count,
    homology_torsion,
    naive_limit,
    phi_of,
    regularity_diagnostics,
    torsion_polynomial,
    torsion_via_formula,
    torsion_via_limit,
    twisted_alexander_invariant,
    untwisted_alexander,
)
from adtorsion.words import Word, parse_word

TOL = Tolerances()


def formula(rep, drop=None):
    return torsion_via_formula(torsion_polynomial(rep, drop=drop, tol=TOL))


def limit(rep, drop=None):
    return torsion_via_limit(torsion_polynomial(rep, drop=drop, tol=TOL))


def closed_form_5_2(sigma, u):
    return -(5 * sigma + 3) * u * u + (5 * sigma * sigma - 7 * sigma + 1) * u + 1 - 10 * sigma


def su2_rep(p, theta, root_index=0):
    phi = riley_polynomial(p.bridge_word)
    sols = su2_solutions(phi, theta)
    u = sols.roots[root_index]
    return build_rep(p, cmath.exp(1j * theta), u, cmath.exp(0.5j * theta)), sols.sigma, u


def sample_five_two(thetas=(2.6, 2.9, math.pi, 3.5), all_roots=True):
    p = catalog.knot("5_2")
    phi = riley_polynomial(p.bridge_word)
    out = []
    for theta in thetas:
        sols = su2_solutions(phi, theta)
        roots = sols.roots if all_roots else sols.roots[:1]
        for u in roots:
            rep = build_rep(p, cmath.exp(1j * theta), u, cmath.exp(0.5j * theta))
            out.append((rep, sols.sigma, u))
    return out


def test_phi_of_meridian_minus_one():
    rep, sigma, _ = su2_rep(catalog.knot("5_2"), 2.8)
    det = boundary_factor(rep, j=0)
    expected = LaurentPoly(0, [-1.0, sigma + 1.0, -(sigma + 1.0), 1.0])
    assert det.approx_eq(expected, 1e-12)


def test_phi_of_zero_and_identity():
    rep, _, _ = su2_rep(catalog.knot("5_2"), 2.8)
    zero = phi_of(GroupRingElt.zero(), rep)
    assert all(zero.entry(i, j).is_zero for i in range(3) for j in range(3))
    # x * x^-1 collapses to the empty word at the group-ring level
    elt = GroupRingElt.of_word(Word.gen(0) * Word.gen(0).inverse())
    ident = phi_of(elt, rep)
    for i in range(3):
        for j in range(3):
            want = 1.0 if i == j else 0.0
            assert abs(ident.entry(i, j).evaluate(0.5 + 0.1j) - want) < 1e-12


def test_block_matrix_five_two_is_single_block():
    rep, _, _ = su2_rep(catalog.knot("5_2"), 2.8)
    p = rep.presentation
    a = alexander_block_matrix(rep)  # drop defaults to the meridian x
    assert a.size == 3
    # single block: the transpose of Phi(dr/dy), same determinant
    block = phi_of(fox_derivative(p.relators[0], 1), rep)
    for i in range(3):
        for j in range(3):
            assert a.entry(i, j).approx_eq(block.entry(j, i), 1e-14)
    assert as_poly(a.determinant()).approx_eq(as_poly(block.determinant()), 1e-10)
    with pytest.raises(IndexError):
        alexander_block_matrix(rep, drop=5)


def test_block_matrix_requires_deficiency_one():
    p = Presentation(("x", "y"), ())
    rep = Rep(p, [np.eye(2), np.eye(2)])
    with pytest.raises(PresentationError):
        alexander_block_matrix(rep)


def test_homology_torsion_double_zero_at_su2_points():
    for rep, sigma, u in sample_five_two():
        row = homology_torsion(rep)[0]
        delta = as_poly(row)
        scale = delta.max_abs
        # the row ends at its lowest nonzero coefficient, below a zero column
        assert row[0] == 0 and delta.offset == 0
        assert abs(delta.evaluate(1.0)) <= 1e-9 * scale
        assert abs(delta.derivative().evaluate(1.0)) <= 1e-9 * scale
        quotient, rems = divide_alone(delta, 2)
        assert max(rems) <= 1e-9 * scale
        assert abs(quotient.evaluate(1.0)) > 1e-6 * scale


def test_homology_torsion_reducible_point_fails_simple_zero():
    p = catalog.knot("5_2")
    rep = build_rep(p, 1.0, 0.0, sqrt_s=1.0, check=False)
    diag = regularity_diagnostics(torsion_polynomial(rep))
    assert not diag["simple_zero"]
    assert not diag["lambda_regular_proxy"]


def test_trefoil_torsion_polynomial_span():
    rep, _, _ = su2_rep(catalog.knot("trefoil"), 2.3)
    delta = as_poly(homology_torsion(rep))
    assert delta.span <= 6


def test_tai_denominator_and_evaluation():
    for rep, sigma, u in sample_five_two(thetas=(2.7, 3.3), all_roots=False):
        tai = twisted_alexander_invariant(rep)
        assert tai.numerator.offset >= 0 and tai.denominator.offset >= 0
        assert min(tai.numerator.offset, tai.denominator.offset) == 0
        # evaluate numerator and denominator separately at t = -1
        delta = as_poly(homology_torsion(rep))
        lhs = tai.evaluate(-1.0)
        rhs = delta.evaluate(-1.0) / ((-2.0) * (2.0 + sigma))
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_torsion_formula_matches_closed_form_up_to_global_sign():
    values = []
    for rep, sigma, u in sample_five_two():
        got = formula(rep).real
        want = closed_form_5_2(sigma, u)
        values.append(got / want)
    signs = {1 if v > 0 else -1 for v in values}
    assert len(signs) == 1, "global sign must be consistent"
    for v in values:
        assert abs(abs(v) - 1.0) <= 1e-6


def test_torsion_at_dihedral_points_frozen_values():
    # sigma = -2: closed form is 7(u^2 + 5u + 3) at each of the three roots
    p = catalog.knot("5_2")
    phi = riley_polynomial(p.bridge_word)
    sols = su2_solutions(phi, math.pi)
    frozen = {
        -3.8019377358048383: -10.884706924605182,
        -2.4450418679126288: -22.728857226022672,
        -0.7530203962825331: -1.3864358493901103,
    }
    for u in sols.roots:
        rep = build_rep(p, cmath.exp(1j * math.pi), u, sqrt_s=1j)
        value = formula(rep).real
        want = min(frozen.items(), key=lambda kv: abs(kv[0] - u))[1]
        assert abs(abs(value) - abs(want)) <= 1e-8 * abs(want)
        assert abs(7 * (u * u + 5 * u + 3) - want) <= 1e-8 * abs(want)


def test_limit_and_formula_agree():
    samples = sample_five_two()
    t = catalog.knot("trefoil")
    for theta in (1.5, 2.4, math.pi, 4.2):
        rep, _, u = su2_rep(t, theta)
        samples.append((rep, None, u))
    for rep, _, _ in samples:
        tp = torsion_polynomial(rep, tol=TOL)
        tf = torsion_via_formula(tp)
        tl = torsion_via_limit(tp)
        assert abs(tf - tl) <= 1e-6 * max(1.0, abs(tl))


def test_naive_limit_first_order_control():
    # truncation error is O(step), but below step ~ 1e-4 double-precision
    # cancellation in the numerator dominates (coefficients O(10^3) versus a
    # value O(step^2)); the 1e-3 control holds where roundoff permits
    for rep, _, _ in sample_five_two(thetas=(2.75,), all_roots=True):
        tp = torsion_polynomial(rep, tol=TOL)
        exact = torsion_via_limit(tp)
        approx = naive_limit(tp, step=1e-4)
        assert abs(approx - exact) <= 1e-3 * max(1.0, abs(exact))
        noisy = naive_limit(tp, step=1e-5)
        assert abs(noisy - exact) <= 5e-2 * max(1.0, abs(exact))


def test_monomial_shift_leaves_limit_value_unchanged():
    rep, _, _ = su2_rep(catalog.knot("5_2"), 3.0)
    delta = as_poly(homology_torsion(rep))
    q1, _ = divide_alone(delta, 2)
    q2, _ = divide_alone(delta.shift(3), 2)
    assert q1.evaluate(1.0) == q2.evaluate(1.0)


def _tietze_extended_trefoil(rng, extra_generators):
    """Trefoil presentation with redundant conjugate-meridian generators
    g_new = w g w^-1, keeping a valid representation alongside."""
    p = catalog.knot("trefoil")
    phi = riley_polynomial(p.bridge_word)
    theta = 2.1
    u = su2_solutions(phi, theta).roots[0]
    base = build_rep(p, cmath.exp(1j * theta), u, cmath.exp(0.5j * theta))

    gens = list(p.generators)
    relators = list(p.relators)
    images = list(base.images)
    for n in range(extra_generators):
        k = len(gens)
        w = Word([(rng.randrange(k), rng.choice((1, -1))) for _ in range(rng.randrange(1, 5))])
        target = rng.randrange(k)
        gens.append(f"g{n}")
        relators.append(w * Word.gen(target) * w.inverse() * Word.gen(k).inverse())
        acc = np.eye(2, dtype=complex)
        for g, e in w.letters:
            acc = acc @ (images[g] if e == 1 else np.linalg.inv(images[g]))
        images.append(acc @ images[target] @ np.linalg.inv(acc))
    p_ext = Presentation(tuple(gens), tuple(relators), meridian=0)
    return Rep(p_ext, images, tol=1e-8), base


@pytest.mark.parametrize("extra", [1, 2, 3])
def test_wada_invariance_across_dropped_generators(extra):
    rng = random.Random(40 + extra)
    rep, base = _tietze_extended_trefoil(rng, extra)
    k = rep.presentation.k
    assert k == 2 + extra
    ratios = []
    for j in range(k):
        _assert_closed_form_is_the_determinant(rep, j)
        num = as_poly(homology_torsion(rep, drop=j))
        den = boundary_factor(rep, j=j)
        ratios.append((num, den))
    for i in range(1, k):
        lhs = ratios[0][0] * ratios[i][1]
        rhs = ratios[i][0] * ratios[0][1]
        assert unit_aligned_distance(lhs, rhs) <= 1e-8
    # the classical polynomial of the same presentation: exact integer
    # determinants of size k - 1, whichever generator is dropped
    for j in range(k):
        assert untwisted_alexander(rep.presentation, drop=j) == untwisted_alexander(base.presentation)


def test_wada_invariance_across_presentations():
    # the same knot and representation through 2- and 3-generator
    # presentations give the same invariant up to a unit
    rng = random.Random(99)
    rep3, rep2 = _tietze_extended_trefoil(rng, 1)
    tai2 = twisted_alexander_invariant(rep2)
    tai3 = twisted_alexander_invariant(rep3)
    lhs = tai2.numerator * tai3.denominator
    rhs = tai3.numerator * tai2.denominator
    assert unit_aligned_distance(lhs, rhs) <= 1e-8


def test_conjugation_invariance():
    rng = random.Random(41)
    for rep, _, _ in sample_five_two(thetas=(2.85,), all_roots=True):
        base = limit(rep)
        for _ in range(3):
            a, b, c, d = (rng.gauss(0, 1) for _ in range(4))
            n = math.sqrt(a * a + b * b + c * c + d * d)
            g = np.array(
                [[complex(a, b) / n, complex(c, d) / n], [complex(-c, d) / n, complex(a, -b) / n]]
            )
            conj = rep.conjugated(g)
            assert abs(limit(conj) - base) <= 1e-8 * max(1.0, abs(base))


def test_sign_twist_invariance_exact():
    # epsilon: pi -> {±1} sending every generator to -1 kills no relator
    # (all exponent sums vanish) and leaves the adjoint untouched
    p = catalog.knot("5_2")
    rep, _, _ = su2_rep(p, 2.95)
    twisted = Rep(p, [-m for m in rep.images], s=rep.s, u=rep.u)
    assert limit(twisted) == limit(rep)
    # the -sqrt(s) branch is the same twist
    flipped = build_rep(p, rep.s, rep.u, sqrt_s=-rep.sqrt_s)
    assert limit(flipped) == limit(rep)


def test_formula_requires_nonparabolic_boundary():
    p = catalog.knot("5_2")
    rep = build_rep(p, 1.0, 0.0, sqrt_s=1.0, check=False)  # trace of x^2 is 2
    with pytest.raises(RegularityError, match="parabolic"):
        formula(rep)
    with pytest.raises(RegularityError, match="parabolic"):
        limit(rep)


def test_limit_rejects_non_simple_zero():
    p = catalog.knot("5_2")
    rep = build_rep(p, 1.0, 0.25, sqrt_s=1.0, check=False)
    with pytest.raises(RegularityError):
        limit(rep)


def test_compute_torsion_result_payload():
    rep, sigma, u = su2_rep(catalog.knot("5_2"), 3.05, root_index=1)
    result = compute_torsion(rep, TOL)
    d = result.diagnostics
    assert d["simple_zero"] and d["denominator_ok"] and d["irreducible"]
    assert d["consistency_ok"]
    assert abs(result.value - result.limit_value) == 0.0
    assert abs(result.formula_value - result.limit_value) <= 1e-6 * max(1.0, abs(result.value))
    assert abs(d["trace_x1_sq"] - (sigma)) < 1e-9
    assert d["tai_at_1"] <= 1e-3 * max(1.0, abs(result.value))
    payload = result.to_json()
    assert payload["value"][0] == result.value.real
    assert isinstance(payload["diagnostics"]["simple_zero"], bool)


def _count_calls(monkeypatch, owners):
    """Replace each ``(owner, name)`` with a counting wrapper; the counts by name."""
    calls = {name: 0 for _, name in owners}
    for owner, name in owners:
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


def test_compute_torsion_builds_delta_once(monkeypatch):
    # Delta_1 is the only determinant; det Phi(x_j - 1) is the closed form
    rep, _, _ = su2_rep(catalog.knot("5_2"), 2.9, root_index=1)
    calls = _count_calls(
        monkeypatch,
        [(torsion, "homology_torsion"), (reps, "adjoint_images"), (LaurentMatrix, "determinant")],
    )
    compute_torsion(rep, TOL)
    assert calls == {"homology_torsion": 1, "adjoint_images": 1, "determinant": 1}


def test_adjoint_images_built_once_per_rep(monkeypatch):
    rep, _, _ = su2_rep(catalog.knot("5_2"), 2.9, root_index=1)
    calls = _count_calls(monkeypatch, [(reps, "adjoint_images")])
    for drop in (0, 1):
        twisted_alexander_invariant(rep, drop=drop)
    assert calls == {"adjoint_images": 1}
    assert rep.adjoint is rep.adjoint


def _boundary_by_determinant(rep, j):
    """det Phi(x_j - 1) as a 3x3 Laurent determinant, the closed form's
    reference; the determinant drops the unit t^k, so its lowest exponent is 0."""
    elt = GroupRingElt([(1, Word.gen(j)), (-1, Word())])
    return as_poly(phi_of(elt, rep).determinant())


def _assert_closed_form_is_the_determinant(rep, j):
    got = boundary_factor(rep, j=j)
    expected = _boundary_by_determinant(rep, j)
    assert got.span == expected.span
    assert got.with_offset_zero().approx_eq(expected, 1e-12)


def test_boundary_factor_closed_form_is_the_determinant():
    p = catalog.knot("5_2")
    phi = riley_polynomial(p.bridge_word)
    checked = 0
    for theta in (0.9, 2.3, math.pi, 4.1, 5.4):
        for u in su2_solutions(phi, theta).roots:
            checked += 1
            rep = build_rep(p, cmath.exp(1j * theta), u, cmath.exp(0.5j * theta))
            for j in range(2):
                _assert_closed_form_is_the_determinant(rep, j)
            # a non-SL representation: Ad is unchanged, tau reads the trace
            # of the square over the determinant
            scaled = Rep(p, [2.0 * m for m in rep.images], check=False)
            assert all(abs(np.linalg.det(m) - 1.0) > 1e-9 for m in scaled.images)
            for j in range(2):
                _assert_closed_form_is_the_determinant(scaled, j)
                assert boundary_factor(scaled, j=j).approx_eq(boundary_factor(rep, j=j), 1e-12)
    assert checked >= 5


@pytest.mark.parametrize("alpha", [(2, 2), (-1, -1), (0, 0)])
def test_boundary_factor_closed_form_at_other_exponents(alpha):
    # each weight kills the trefoil relator xyx y^-1 x^-1 y^-1 (exponent sum 0
    # in each generator), so alpha is a homomorphism; terms sit at 3a, 2a, a
    # and 0.  At a = 0, Ad rho(x_j) - 1 is singular: the determinant vanishes
    # to rounding, the closed form exactly
    base = catalog.knot("trefoil")
    rep, _, _ = su2_rep(base, 2.5)
    rep = Rep(Presentation(base.generators, base.relators, alpha=alpha), rep.images)
    for j in range(2):
        _assert_closed_form_is_the_determinant(rep, j)
        a = alpha[j]
        got = boundary_factor(rep, j=j)
        assert (got.lo, got.hi) == (min(0, 3 * a), max(0, 3 * a))
        assert got.is_zero == (a == 0)
    if alpha == (0, 0):
        with pytest.raises(ZeroDivisionError):
            twisted_alexander_invariant(rep)


def test_compute_torsion_reads_the_standalone_routes():
    for rep, _, _ in sample_five_two(thetas=(2.6, math.pi), all_roots=True):
        tp = torsion_polynomial(rep, tol=TOL)
        result = compute_torsion(rep, TOL)
        assert result.formula_value == torsion_via_formula(tp)
        assert result.limit_value == torsion_via_limit(tp)
        diagnostics = regularity_diagnostics(tp)
        assert {k: result.diagnostics[k] for k in diagnostics} == diagnostics
        assert result.diagnostics["naive_limit"] == naive_limit(tp)


def test_compute_torsion_degenerate_point_is_not_an_error():
    p = catalog.knot("5_2")
    rep = build_rep(p, 1.0, 0.0, sqrt_s=1.0, check=False)
    result = compute_torsion(rep, TOL)
    assert result.formula_value is None
    assert result.limit_value is None
    assert math.isnan(result.value.real)
    assert not result.diagnostics["simple_zero"]


def test_torsion_value_independent_of_dropped_meridian():
    # both generators of a two-bridge presentation are meridians, so either
    # drop gives the same torsion value
    rep, _, _ = su2_rep(catalog.knot("5_2"), 2.9, root_index=1)
    v0 = limit(rep, drop=0)
    v1 = limit(rep, drop=1)
    assert abs(v0 - v1) <= 1e-8 * max(1.0, abs(v0))
    f1 = formula(rep, drop=1)
    assert abs(f1 - v0) <= 1e-6 * max(1.0, abs(v0))


def test_drop_requires_meridian_weight():
    skew = Presentation(("a", "b"), (parse_word("a b a^-1 b^-1", ["a", "b"]),), alpha=(2, -2))
    skew_rep = Rep(skew, [np.diag([1.3, 1 / 1.3]), np.diag([0.7, 1 / 0.7])])
    with pytest.raises(RegularityError, match="meridian"):
        torsion_polynomial(skew_rep, tol=TOL)
    with pytest.raises(RegularityError, match="meridian"):
        compute_torsion(skew_rep, TOL)


def test_sl2c_nonunitary_point():
    # the same code path handles non-unitary points: pick real s != 1, solve
    # the specialized polynomial over C with a numpy-roots oracle, and check
    # that both torsion routes still agree
    p = catalog.knot("5_2")
    phi = riley_polynomial(p.bridge_word)
    s = 1.21
    desc = [complex(phi.coefficient(d)(s)) for d in range(phi.u_degree, -1, -1)]
    roots = np.roots(desc)
    for u in roots:
        rep = build_rep(p, s, complex(u), math.sqrt(s))
        assert max(rep.relator_residuals) <= 1e-9
        assert all(abs(np.linalg.det(m) - 1.0) <= 1e-9 for m in rep.images)
        tf = formula(rep)
        tl = limit(rep)
        assert abs(tf - tl) <= 1e-6 * max(1.0, abs(tl))


def test_untwisted_alexander_catalog():
    five_two = untwisted_alexander(catalog.knot("5_2"))
    assert five_two == IntLaurent(0, (2, -3, 2))
    trefoil = untwisted_alexander(catalog.knot("trefoil"))
    assert trefoil == IntLaurent(0, (1, -1, 1))
    assert dihedral_class_count(catalog.knot("5_2")) == 3
    assert dihedral_class_count(catalog.knot("trefoil")) == 1


def test_untwisted_alexander_unknot():
    unknot = Presentation(("x",), ())
    assert untwisted_alexander(unknot) == IntLaurent.one()
    assert dihedral_class_count(unknot) == 0


def test_untwisted_alexander_matches_riley_specialization():
    # phi(s, 0) recovers the classical polynomial up to units
    for name in catalog.knot_names():
        p = catalog.knot(name)
        phi = riley_polynomial(p.bridge_word)
        assert phi.coefficient(0).equal_up_to_unit(untwisted_alexander(p))


def test_untwisted_alexander_drop_choice_is_unit():
    for name in catalog.knot_names():
        p = catalog.knot(name)
        assert untwisted_alexander(p, drop=0).equal_up_to_unit(untwisted_alexander(p, drop=1))


def schubert_knot(p, q):
    """b(p, q) from its Schubert word: x^e1 y^e2 ..., e_i = (-1)^floor(i q / p)."""
    word = " ".join(
        ("x" if i % 2 else "y") + ("^-1" if (i * q // p) % 2 else "") for i in range(1, p)
    )
    return two_bridge(word)


def test_phi_of_prefix_reuse_is_exact():
    # the prefix memo must give the very products of a from-scratch scan:
    # eye(3) right-multiplied letter by letter, summed in term order
    p = schubert_knot(41, 11)
    r = p.relators[0]
    theta = 2.3
    u = su2_solutions(riley_polynomial(p.bridge_word), theta).roots[0]
    rep = build_rep(p, cmath.exp(1j * theta), u, cmath.exp(0.5j * theta), check=False)
    adj = rep.adjoint
    for i in (1, 0):  # the memo is filled in another order than it is read
        elt = fox_derivative(r, i)
        per_exponent = {}
        for coeff, w in elt.terms:
            m = np.eye(3, dtype=complex)
            for g, e in w.letters:
                m = m @ (adj.matrices[g] if e == 1 else adj.inverses[g])
            k = p.alpha_of(w)
            per_exponent[k] = per_exponent[k] + coeff * m if k in per_exponent else coeff * m
        # the memo shared with the other derivative, and a fresh one
        fresh = Rep(p, rep.images, check=False)
        for target in (rep, fresh):
            got = phi_of(elt, target)
            for a in range(3):
                for b in range(3):
                    expected = LaurentPoly.from_dict(
                        {k: mat[a, b] for k, mat in per_exponent.items()}
                    )
                    assert got.entry(a, b) == expected


def test_adjoint_prefixes_are_shared_and_read_only():
    p = catalog.knot("5_2")
    u = su2_solutions(riley_polynomial(p.bridge_word), 2.5).roots[0]
    adj = build_rep(p, cmath.exp(2.5j), u, cmath.exp(1.25j)).adjoint
    w = p.relators[0]
    m = adj.of_word(w)
    assert adj.of_word(Word(w.letters)) is m
    with pytest.raises(ValueError):
        m[0, 0] = 0.0


def test_phi_of_reads_exponents_from_the_term_table(monkeypatch):
    # the t-exponent and prefix of every Fox term are computed once per
    # (element, presentation); a second phi_of, at another representation,
    # calls alpha_of no more
    from adtorsion import foxcalc

    p = schubert_knot(13, 5)
    elt = fox_derivative(p.relators[0], 1)
    foxcalc.term_table.cache_clear()
    calls = _count_calls(monkeypatch, [(Presentation, "alpha_of")])
    phi = riley_polynomial(p.bridge_word)
    reps_ = [build_rep(p, cmath.exp(1j * t), su2_solutions(phi, t).roots[0], cmath.exp(0.5j * t))
             for t in (2.4, 3.0)]
    phi_of(elt, reps_[0])
    assert calls == {"alpha_of": len(elt.terms)}
    block = phi_of(elt, reps_[1])
    assert calls == {"alpha_of": len(elt.terms)}
    assert foxcalc.term_table.cache_info().hits == 1
    # every term of a Fox derivative is a prefix of the relator: one spine
    assert len(foxcalc.term_table(elt, p)[4]) == 1
    # against the exponent sums read term by term
    for a in range(3):
        for b in range(3):
            expected = LaurentPoly.from_dict({}, cleanup=0.0)
            for c, w in elt.terms:
                m = reps_[1].adjoint.of_word(w)
                expected = expected + LaurentPoly.term(c * m[a, b], sum(p.alpha[g] * e for g, e in w.letters))
            assert block.entry(a, b).approx_eq(expected, 1e-12)


def test_stacked_torsion_is_per_point():
    p = catalog.knot("5_2")
    phi = riley_polynomial(p.bridge_word)
    points = [(theta, u) for theta in (2.5, math.pi, 3.7) for u in su2_solutions(phi, theta).roots]
    thetas = np.array([theta for theta, _ in points])
    stack = build_rep(p, np.exp(1j * thetas), [u for _, u in points], np.exp(0.5j * thetas))
    for drop in (None, 1):
        results = compute_torsion(stack, TOL, drop=drop)
        tps = torsion_polynomial(stack, drop=drop, tol=TOL)
        assert len(results) == len(tps) == len(points)
        for (theta, u), result, tp in zip(points, results, tps):
            single = build_rep(p, cmath.exp(1j * theta), u, cmath.exp(0.5j * theta))
            alone = compute_torsion(single, TOL, drop=drop)
            assert abs(result.value - alone.value) <= 1e-12 * max(1.0, abs(alone.value))
            assert result.diagnostics["simple_zero"] is alone.diagnostics["simple_zero"]
            tp_alone = torsion_polynomial(single, drop=drop, tol=TOL)
            assert as_poly(tp.delta).approx_eq(as_poly(tp_alone.delta), 1e-12)


def as_poly(rows):
    """The row of a coefficient stack, or the stack of one row, as the
    LaurentPoly it holds, with lowest exponent 0."""
    (row,) = np.atleast_2d(rows)
    return LaurentPoly._raw(0, row[::-1].tolist())


def stack_of(polys):
    """Polynomials as the rows of a coefficient stack: each from its highest
    coefficient down to its lowest, which ends the row, the unit t^offset
    dropped, below one column of zeros over the longest row."""
    width = max((len(p.coeffs) for p in polys), default=0) + 1
    stack = np.zeros((len(polys), width), dtype=complex)
    for i, p in enumerate(polys):
        stack[i, width - len(p.coeffs) :] = p.coeffs[::-1]
    return stack


def divide_alone(p, multiplicity):
    """``p`` divided by (t - 1)^multiplicity as a stack of one: the quotient,
    its unit restored from p's highest exponent (each round lowers it by
    one), and the list of remainder moduli."""
    quotients, remainders = divide_out_simple_roots(stack_of([p]), multiplicity)
    q = as_poly(quotients)
    return q.shift(p.hi - multiplicity - q.hi), remainders[0].tolist()


def _bits(values):
    """The IEEE bits of each value, so that -0.0 and 0.0 differ."""
    return np.array(values, dtype=complex).view(np.uint64).tolist()


def _readings_one_at_a_time(raw, cleanup):
    """Delta_1 and its readings at t = 1 from the uncleaned determinant
    ``raw``, one polynomial at a time in Python scalars: LaurentPoly's
    cleanup and trim, two synthetic divisions by (t - 1) with ``_raw``
    trimming between them, max |c|, and Delta'(1) and Delta''(1) summed from
    the highest exponent down."""
    cs = [complex(c) for c in raw.coeffs]
    if cs and cleanup > 0.0:
        bound = cleanup * max(abs(c) for c in cs)
        cs = [0j if abs(c) <= bound else c for c in cs]
    delta = LaurentPoly._raw(raw.offset, cs).with_offset_zero()
    remainders = []
    q = delta
    for _ in range(2):
        acc = 0j
        quotient = []
        for c in reversed(q.coeffs):
            acc = c + acc * 1.0
            quotient.append(acc)
        remainders.append(abs(quotient.pop()) if quotient else 0.0)
        q = LaurentPoly._raw(q.offset, quotient[::-1])

    def derivative(order):
        acc = 0j
        for e, c in zip(range(delta.hi, delta.lo - 1, -1), reversed(delta.coeffs)):
            for k in range(order):
                c = c * (e - k)
            acc = acc + c
        return acc

    scale = max((abs(c) for c in delta.coeffs), default=0.0)
    return delta, (scale, remainders, q.evaluate(1.0), derivative(1), derivative(2))


def _assert_stacked_readings_are_exact(raws, cleanup, deltas):
    """``deltas``, a coefficient stack cleaned from the polynomials ``raws``,
    and its stacked readings equal the one-at-a-time reference bit for bit."""
    stacked = list(zip(*readings_at_1(deltas)))
    assert len(stacked) == len(raws)
    for raw, row, (scale, rems, reduced, prime, second) in zip(raws, deltas, stacked):
        ref_delta, (ref_scale, ref_rems, ref_reduced, ref_prime, ref_second) = (
            _readings_one_at_a_time(raw, cleanup)
        )
        # the row ends at its lowest nonzero coefficient, below a zero column
        delta = as_poly(row)
        assert row[0] == 0 and delta.offset == ref_delta.offset == 0
        assert _bits(delta.coeffs) == _bits(ref_delta.coeffs)
        assert _bits([scale, *rems, reduced, prime, second]) == _bits(
            [ref_scale, *ref_rems, ref_reduced, ref_prime, ref_second]
        )


def _assert_determinant_readings_are_exact(matrix, cleanups=(0.0, DEFAULT_CLEANUP)):
    # the determinant uncleaned, then cleaned as one stack at each cleanup
    raws = [as_poly(row) for row in matrix.determinant(cleanup=0.0)]
    for cleanup in cleanups:
        _assert_stacked_readings_are_exact(raws, cleanup, matrix.determinant(cleanup=cleanup))


@pytest.mark.parametrize("pq", [
    (p, q) for p in range(3, 16, 2) for q in range(1, p, 2) if math.gcd(p, q) == 1
] + [(41, 11)])
def test_stacked_readings_match_the_per_polynomial_loops(pq):
    # every SU(2) root at 5 thetas across the knot's window, as one stack
    p = schubert_knot(*pq)
    phi = riley_polynomial(p.bridge_word)
    lo, hi = auto_theta_range(phi)
    points = [
        (sols.theta, u)
        for sols in su2_solutions(phi, [lo + (hi - lo) * k / 4 for k in range(5)])
        for u in sols.roots
    ]
    thetas = np.array([theta for theta, _ in points])
    rep = build_rep(p, np.exp(1j * thetas), [u for _, u in points], np.exp(0.5j * thetas), check=False)
    _assert_determinant_readings_are_exact(alexander_block_matrix(rep))
    raws = alexander_block_matrix(rep).determinant(cleanup=0.0)
    for raw, tp in zip(raws, torsion_polynomial(rep, tol=TOL)):
        delta, (scale, rems, reduced, prime, second) = _readings_one_at_a_time(as_poly(raw), TOL.cleanup)
        assert _bits(as_poly(tp.delta).coeffs) == _bits(delta.coeffs)
        assert _bits([tp.scale, *tp.remainders, tp.reduced, tp.prime, tp.half_second]) == _bits(
            [scale, *rems, reduced, prime, second / 2.0]
        )


def test_stacked_readings_of_edge_polynomials():
    # the zero polynomial; 2 + t - t^2, whose first quotient -t + 0 has an
    # exactly zero lowest coefficient that the next round must not divide;
    # a constant; (t - 1)^2 (1 + 2t); and complex coefficients of comparable
    # real and imaginary parts, whose moduli np.abs would round differently
    rng = np.random.default_rng(14)
    polys = [
        LaurentPoly.zero(),
        LaurentPoly(0, [2, 1, -1]),
        LaurentPoly(0, [5]),
        LaurentPoly(0, [1, 0, -3, 2]),
    ] + [LaurentPoly(0, rng.normal(size=(k, 2)) @ [1, 1j]) for k in range(1, 30)]
    _assert_stacked_readings_are_exact(polys, 0.0, stack_of(polys))
    _, (_, rems, reduced, _, _) = _readings_one_at_a_time(polys[1], 0.0)
    assert rems == [2.0, 1.0] and reduced == 0j
    # a 1x1 stack whose first row has both ends cleaned to zero
    rows = np.array([[1e-14, 1.0, -3.0, 2.0, 1e-15], [1.0, 2.0, 0.5, -1.0, 3.0]], dtype=complex)
    matrix = LaurentMatrix(-1, rows[:, :, None, None])
    cleaned = matrix.determinant()
    # both ends of the first row are gone: 1 - 3t + 2t^2 is left
    assert [as_poly(row).span for row in cleaned] == [2, 4]
    assert as_poly(cleaned[0]).approx_eq(LaurentPoly(0, [1, -3, 2]), 1e-12)
    _assert_determinant_readings_are_exact(matrix)
    # a coefficient whose modulus is exactly the cleanup bound is cleaned;
    # in the complex case its np.abs is one ulp above its abs(complex), so
    # only moduli equal to abs(complex) clean it
    def bound_case(low):
        matrix = LaurentMatrix(0, np.array([[low, 8.0, 3.0]])[:, :, None, None])
        return matrix, as_poly(matrix.determinant(cleanup=0.0)).coeffs

    cases = (bound_case(z) for z in rng.normal(size=(200, 2)) @ [1, 1j])
    complex_case = next((m, raw) for m, raw in cases
                        if np.abs(raw[0]) > abs(raw[0]) and abs(raw[0]) < max(abs(c) for c in raw))
    for matrix, raw in (bound_case(-2.0), complex_case):
        small, large = abs(raw[0]), max(abs(c) for c in raw)
        ratio = small / large
        cleanup = next(c for c in (ratio, math.nextafter(ratio, 0.0), math.nextafter(ratio, 1.0))
                       if c * large == small)
        # the lowest coefficient is cleaned, the others keep every bit
        assert as_poly(matrix.determinant(cleanup=cleanup)).coeffs == raw[1:]
        _assert_determinant_readings_are_exact(matrix, cleanups=(0.0, cleanup, DEFAULT_CLEANUP))
