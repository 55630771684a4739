import random

import pytest

from adtorsion.foxcalc import (
    GroupRingElt,
    fox_derivative,
    fundamental_identity_holds,
)
from adtorsion.words import Word, parse_word

from test_words import random_letters


def elt(*pairs):
    return GroupRingElt([(c, parse_word(text, ["x", "y", "z", "w"])) for c, text in pairs])


def test_base_rules():
    x = Word.gen(0)
    assert fox_derivative(x, 0) == GroupRingElt.one()
    assert fox_derivative(x, 1) == GroupRingElt.zero()
    assert fox_derivative(x.inverse(), 0) == elt((-1, "x^-1"))


def test_trefoil_relator_derivative():
    # hand application of the product rule to x y x y^-1 x^-1 y^-1
    r = parse_word("x y x y^-1 x^-1 y^-1", ["x", "y"])
    expected = elt((1, ""), (1, "x y"), (-1, "x y x y^-1 x^-1"))
    assert fox_derivative(r, 0) == expected


def test_ring_mul_examples():
    assert elt((1, "x")) * elt((1, "x^-1")) == GroupRingElt.one()
    assert (elt((1, "x"), (-1, "y")) * GroupRingElt.zero()).is_zero
    one_plus_x = GroupRingElt.one() + elt((1, "x"))
    one_minus_x = GroupRingElt.one() + elt((-1, "x"))
    assert one_plus_x * one_minus_x == elt((1, ""), (-1, "x^2"))


def test_canonical_form_merges_terms():
    a = GroupRingElt([(1, Word.gen(0)), (2, Word.gen(0)), (1, Word()), (-1, Word())])
    assert a == elt((3, "x"))
    assert GroupRingElt([(1, Word.gen(0)), (-1, Word.gen(0))]).is_zero


def test_to_str():
    assert elt((1, ""), (-2, "x y")).to_str(["x", "y"]) == "1 - 2*x y"
    assert GroupRingElt.zero().to_str(["x"]) == "0"


def test_fundamental_identity_small():
    assert fundamental_identity_holds(Word.gen(0))
    assert fundamental_identity_holds(Word())


def test_fundamental_identity_random():
    rng = random.Random(2024)
    for _ in range(300):
        w = Word(random_letters(rng, max_len=30, num_gens=4))
        assert fundamental_identity_holds(w)


def test_leibniz_rule_random():
    rng = random.Random(4)
    for _ in range(100):
        u = Word(random_letters(rng, max_len=15, num_gens=3))
        v = Word(random_letters(rng, max_len=15, num_gens=3))
        for j in range(3):
            direct = fox_derivative(u * v, j)
            composed = fox_derivative(u, j) + GroupRingElt.of_word(u) * fox_derivative(v, j)
            assert direct == composed


def test_inverse_rule_random():
    rng = random.Random(5)
    for _ in range(100):
        w = Word(random_letters(rng, max_len=20, num_gens=3))
        for j in range(3):
            lhs = fox_derivative(w.inverse(), j)
            rhs = -(GroupRingElt.of_word(w.inverse()) * fox_derivative(w, j))
            assert lhs == rhs


def test_derivative_index_error():
    with pytest.raises(IndexError):
        fox_derivative(Word.gen(0), -1)
