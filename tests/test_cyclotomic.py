"""`Cyclotomic` against the `Fraction`-coordinate reference arithmetic."""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

import pytest

from equichern.cyclotomic import Cyclotomic, CyclotomicError, phi

from oracles import FractionCyclotomic


def _same(x, ref):
    return x.conductor == ref.conductor and x.coords == ref.coords


def _random_element(rng, n):
    """Sparse coordinates, some of them non-integral, at conductor n."""
    return Cyclotomic(n, [
        Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))) if rng.random() < 0.6 else 0
        for _ in range(phi(n))
    ])


def _check_pair(x, y):
    rx, ry = FractionCyclotomic.of(x), FractionCyclotomic.of(y)
    assert _same(x + y, rx + ry)
    assert _same(x - y, rx - ry)
    assert _same(x * y, rx * ry)
    assert (x == y) == (rx == ry)
    assert (x * y).is_rational() == (rx * ry).is_rational()


def test_arithmetic_matches_fraction_reference():
    rng = random.Random(11)
    half_z3 = Cyclotomic.root(3) * Cyclotomic.rational(Fraction(1, 2))
    assert _same(half_z3, FractionCyclotomic(3, [0, Fraction(1, 2)]))
    for n in range(1, 25):
        for _ in range(3):
            x, y = _random_element(rng, n), _random_element(rng, n)
            _check_pair(x, y)
            _check_pair(x, x)
            _check_pair(x, half_z3)
            rx = FractionCyclotomic.of(x)
            assert x.is_rational() == rx.is_rational()
            for m in (2 * n, 3 * n):
                if m > 48:
                    continue
                assert _same(x.lift(m), rx.lift(m))
                # the same element at two conductors
                _check_pair(x, x.lift(m))
            q = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            assert _same(x + q, rx + FractionCyclotomic.rational(q))
            assert _same(x * q, rx * FractionCyclotomic.rational(q))
            assert (x == q) == (rx == FractionCyclotomic.rational(q))
    # mixed conductors
    pairs = [(n, m) for n in range(1, 25) for m in range(1, 25) if n != m and lcm(n, m) <= 48]
    for n, m in rng.sample(pairs, 40):
        _check_pair(_random_element(rng, n), _random_element(rng, m))
    # rational sums of roots of unity
    for n in range(1, 25):
        total = Cyclotomic.rational(0)
        ref = FractionCyclotomic.rational(0)
        for k in range(n):
            total = total + Cyclotomic.root(n, k)
            ref = ref + FractionCyclotomic.of(Cyclotomic.root(n, k))
        assert _same(total, ref) and total.is_rational()
        assert total == (1 if n == 1 else 0)


def test_hash_agrees_with_equality():
    one, minus_one = Cyclotomic.rational(1), Cyclotomic.rational(-1)
    assert one == Cyclotomic.root(3, 0) and Cyclotomic.root(4, 2) == -1
    assert len({one, Cyclotomic.root(3, 0), Cyclotomic.root(4, 0)}) == 1
    assert len({minus_one, Cyclotomic.root(4, 2), Cyclotomic.root(6, 3)}) == 1
    for q in (0, 1, -1, Fraction(1, 2), Fraction(-7, 3)):
        for n in (1, 3, 4, 8, 12):
            x = Cyclotomic.rational(q, n)
            assert x == q and hash(x) == hash(q)
    # equal irrational elements at different conductors
    for n in (3, 4, 5, 8, 9, 12):
        for k in range(n):
            x = Cyclotomic.root(n, k) * Cyclotomic.rational(Fraction(1, 2)) + 3
            assert hash(x.lift(2 * n)) == hash(x) and len({x, x.lift(6 * n)}) == 1
    assert len({Cyclotomic.root(3), Cyclotomic.root(3, 2), Cyclotomic.root(6)}) == 3


@pytest.mark.parametrize("conductor", [0, -4])
def test_constructor_rejects_conductor_below_one(conductor):
    with pytest.raises(CyclotomicError, match="conductor must be >= 1"):
        Cyclotomic(conductor, ())
    with pytest.raises(CyclotomicError, match="conductor must be >= 1"):
        Cyclotomic(conductor, [])
    with pytest.raises(CyclotomicError, match="conductor must be >= 1"):
        Cyclotomic.rational(1, conductor)
    with pytest.raises(CyclotomicError, match="conductor must be >= 1"):
        Cyclotomic.root(conductor)
