import pytest

from adtorsion.locus import _bracketed_zero


def _brent(f, a, fa, b, fb, xtol):
    """Drive the Brent generator over one bracket with f."""
    steps = _bracketed_zero(a, fa, b, fb, xtol=xtol)
    try:
        theta = next(steps)
        while True:
            theta = steps.send(f(theta))
    except StopIteration as stop:
        return stop.value


def test_bracketed_zero_converges_on_a_cubic():
    calls = []

    def cubic(x):
        calls.append(x)
        return x**3 - 2.0 * x - 5.0

    root = 2.0945514815423265
    x = _brent(cubic, 2.0, cubic(2.0), 3.0, cubic(3.0), xtol=1e-11)
    assert abs(x - root) <= 1e-11
    # bisection needs 37 halvings of [2, 3] to get below 1e-11
    assert len(calls) - 2 <= 10


def test_bracketed_zero_returns_an_exact_zero_at_an_end():
    def f(x):
        raise AssertionError("no evaluation needed")

    assert _brent(f, 1.0, 0.0, 2.0, 3.0, xtol=1e-11) == 1.0
    assert _brent(f, 1.0, -3.0, 2.0, 0.0, xtol=1e-11) == 2.0
    with pytest.raises(ValueError):
        _brent(f, 1.0, 2.0, 2.0, 3.0, xtol=1e-11)


def test_bracketed_zero_keeps_a_sign_bracket_under_noise():
    # +-1e-9 deterministic noise on a line through 0.7: the noisy function may
    # change sign anywhere within ~1e-9 of the root, and the result must sit
    # between two evaluated points of opposite sign less than xtol apart
    seen = {}

    def noisy(x):
        y = (x - 0.7) + 1e-9 * (1.0 if int(x * 1e13) % 2 else -1.0)
        seen[x] = y
        return y

    a, b = 0.0, 1.5
    x = _brent(noisy, a, noisy(a), b, noisy(b), xtol=1e-11)
    assert abs(x - 0.7) <= 1e-9 + 1e-11
    partners = [
        t for t, y in seen.items() if 0.0 < abs(t - x) < 1e-11 and (y < 0) != (seen[x] < 0)
    ]
    assert partners or seen[x] == 0.0
