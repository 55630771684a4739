import random

import pytest

from adtorsion.words import Word, WordError, format_word, free_reduce, parse_word


def oracle_reduce(letters, rng=None):
    """Independent reducer: cancel one adjacent inverse pair at a time, in
    random (or leftmost) order, until none remain."""
    seq = list(letters)
    while True:
        pairs = [
            i
            for i in range(len(seq) - 1)
            if seq[i][0] == seq[i + 1][0] and seq[i][1] == -seq[i + 1][1]
        ]
        if not pairs:
            return tuple(seq)
        i = rng.choice(pairs) if rng is not None else pairs[0]
        del seq[i : i + 2]


def random_letters(rng, max_len=40, num_gens=4):
    return [(rng.randrange(num_gens), rng.choice((1, -1))) for _ in range(rng.randrange(max_len))]


def test_parse_five_two_word():
    w = parse_word("x^-1 y^-1 x y x^-1 y^-1", ["x", "y"])
    assert w.letters == ((0, -1), (1, -1), (0, 1), (1, 1), (0, -1), (1, -1))


def test_parse_free_reduction():
    assert parse_word("x x^-1", ["x", "y"]).is_identity
    assert parse_word("x y y^-1 x", ["x", "y"]).letters == ((0, 1), (0, 1))


def test_parse_powers_expand():
    assert parse_word("x^3", ["x"]).letters == ((0, 1),) * 3
    assert parse_word("x^-2", ["x"]).letters == ((0, -1),) * 2


def test_parse_errors():
    with pytest.raises(WordError, match="unknown generator"):
        parse_word("z", ["x", "y"])
    with pytest.raises(WordError, match="exponent"):
        parse_word("x^0", ["x"])
    with pytest.raises(WordError, match="exponent"):
        parse_word("x^a", ["x"])
    with pytest.raises(WordError):
        parse_word("^2", ["x"])


def test_empty_text_is_identity():
    assert parse_word("", ["x"]).is_identity


def test_reduction_is_confluent():
    rng = random.Random(101)
    for _ in range(300):
        letters = random_letters(rng)
        leftmost = oracle_reduce(letters)
        randomized = oracle_reduce(letters, rng)
        assert leftmost == randomized
        assert free_reduce(letters) == leftmost


def test_roundtrip_serialize_parse():
    rng = random.Random(7)
    names = ["x", "y", "z", "w"]
    for _ in range(200):
        w = Word(random_letters(rng))
        assert parse_word(format_word(w, names), names) == w


def test_word_algebra():
    rng = random.Random(13)
    for _ in range(100):
        a = Word(random_letters(rng))
        b = Word(random_letters(rng))
        assert (a * a.inverse()).is_identity
        assert (a * b).inverse() == b.inverse() * a.inverse()
    x = Word.gen(0)
    assert x**3 == Word([(0, 1)] * 3)
    assert x**-2 == Word([(0, -1)] * 2)
    assert (x**0).is_identity


def test_exponent_sum_and_sort_key():
    w = parse_word("x y x y^-1 x^-1", ["x", "y"])
    assert w.exponent_sum(0) == 1
    assert w.exponent_sum(1) == 0
    assert Word().sort_key() < w.sort_key()


def test_invalid_letters_rejected():
    with pytest.raises(WordError):
        Word([(0, 2)])
    with pytest.raises(WordError):
        Word([(-1, 1)])


def test_hash_is_computed_once_and_is_the_letters_hash():
    w = parse_word("x y^-1 x^2", ["x", "y"])
    assert hash(w) == hash(w.letters) == hash(Word(w.letters))
    assert w._hash == hash(w.letters)
    assert len({w, Word(w.letters), w * Word()}) == 1
