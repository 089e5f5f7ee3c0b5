"""Enclosure against mpmath.iv: the same operation must give the same endpoints.

``Enclosure`` runs on the raw ``mpmath.libmp`` interval kernels; these tests
recompute every operation through ``mpmath.iv`` at the same precision and
require bit-identical endpoint pairs, over seeded random operands at several
precisions (point and wide intervals, intervals straddling 0, int and
Fraction operands).
"""

import contextlib
import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import iv, mp

from qsign.enclosure import Enclosure, mpf_to_fraction, one, precision, zero

BITS = (53, 192, 384, 1024)


def _iv_fraction(f: Fraction):
    return iv.mpf(f.numerator) / iv.mpf(f.denominator)


def _random_fraction(rng: random.Random, scale: int = 10**6) -> Fraction:
    return Fraction(rng.randint(-scale, scale), rng.randint(1, 10**4))


def _random_iv(rng: random.Random, scale: int = 10**6, positive: bool = False):
    """A point or wide interval with rational-rounded endpoints."""
    a, b = _random_fraction(rng, scale), _random_fraction(rng, scale)
    if positive:
        a, b = abs(a) + Fraction(1, 7), abs(b) + Fraction(1, 7)
    if rng.random() < 0.3:
        b = a
    a, b = min(a, b), max(a, b)
    return iv.mpf([_iv_fraction(a).a, _iv_fraction(b).b])


def _enclosure(ix, bits: int) -> Enclosure:
    """An Enclosure at `bits` with exactly the endpoints of the mpmath.iv value ix."""
    lo, hi = ix._mpi_
    return Enclosure.from_endpoints(mp.make_mpf(lo), mp.make_mpf(hi), bits)


def _same(got: Enclosure, ref, bits: int) -> None:
    assert got._mpi_ == ref._mpi_
    assert got.bits == bits


def _iv_pow_int(x, e: int):
    if e < 0:
        return 1 / _iv_pow_int(x, -e)
    out, base = iv.mpf(1), x
    while e:
        if e & 1:
            out = out * base
        base = base * base
        e >>= 1
    return out


@pytest.mark.parametrize("bits", BITS)
class TestKernelsMatchMpmathIv:
    def test_arithmetic(self, bits):
        rng = random.Random(bits)
        with precision(bits):
            for _ in range(60):
                ix, iy = _random_iv(rng), _random_iv(rng)
                x, y = _enclosure(ix, bits), _enclosure(iy, bits)
                _same(x + y, ix + iy, bits)
                _same(x - y, ix - iy, bits)
                _same(x * y, ix * iy, bits)
                _same(x / y, ix / iy, bits)
                _same(-x, -ix, bits)

    def test_int_and_fraction_operands(self, bits):
        rng = random.Random(bits + 1)
        with precision(bits):
            for _ in range(60):
                ix = _random_iv(rng)
                x = _enclosure(ix, bits)
                n = rng.randint(-10**40, 10**40)
                f = _random_fraction(rng, 10**30)
                fi = _iv_fraction(f)
                _same(x + n, ix + n, bits)
                _same(n + x, n + ix, bits)
                _same(x - n, ix - n, bits)
                _same(n - x, n - ix, bits)
                _same(x * n, ix * n, bits)
                _same(x / n, ix / n, bits)
                _same(n / x, n / ix, bits)
                _same(x + f, ix + fi, bits)
                _same(f - x, fi - ix, bits)
                _same(f * x, fi * ix, bits)
                _same(x / f, ix / fi, bits)
                _same(f / x, fi / ix, bits)
                g = Fraction(n)  # an integral Fraction coerces as its int does
                _same(x * g, ix * n, bits)
                _same(g - x, n - ix, bits)
                _same(Enclosure.from_fraction(g, bits), iv.mpf(n), bits)

    def test_abs_and_square(self, bits):
        rng = random.Random(bits + 2)
        with precision(bits):
            for _ in range(60):
                ix = _random_iv(rng)
                x = _enclosure(ix, bits)
                _same(abs(x), abs(ix), bits)
                _same(x.square(), abs(ix) * abs(ix), bits)
            # straddling 0 with the negative end the larger one
            ix = iv.mpf([_iv_fraction(Fraction(-1, 3)).a, _iv_fraction(Fraction(1, 10**9)).b])
            _same(abs(_enclosure(ix, bits)), abs(ix), bits)
            assert abs(_enclosure(ix, bits)).contains(Fraction(1, 3))

    def test_elementary_functions(self, bits):
        rng = random.Random(bits + 3)
        with precision(bits):
            for _ in range(40):
                ix = _random_iv(rng, scale=40 * 10**4)
                x = _enclosure(ix, bits)
                _same(x.exp(), iv.exp(ix), bits)
                c, s = x.cos_sin()
                _same(c, iv.cos(ix), bits)
                _same(s, iv.sin(ix), bits)
                ip = _random_iv(rng, positive=True)
                p = _enclosure(ip, bits)
                _same(p.sqrt(), iv.sqrt(ip), bits)
                _same(p.log(), iv.log(ip), bits)

    def test_pow_int(self, bits):
        rng = random.Random(bits + 4)
        with precision(bits):
            for _ in range(30):
                ix = _random_iv(rng, scale=10**4)
                e = rng.randint(-4, 9)
                _same(_enclosure(ix, bits).pow_int(e), _iv_pow_int(ix, e), bits)

    def test_constructors_and_constants(self, bits):
        rng = random.Random(bits + 5)
        with precision(bits):
            for _ in range(40):
                f = _random_fraction(rng, 10**50)
                _same(Enclosure.from_fraction(f, bits), _iv_fraction(f), bits)
                n = rng.randint(-10**80, 10**80)
                _same(Enclosure.from_fraction(n, bits), _iv_fraction(Fraction(n)), bits)
                lo = mpmath.mpf(_random_fraction(rng).numerator) / 3
                _same(Enclosure.from_endpoints(lo, lo + 1, bits), iv.mpf([lo, lo + 1]), bits)
                _same(Enclosure.from_endpoints(-n - 1, n * n, bits), iv.mpf([-n - 1, n * n]),
                      bits)
            _same(Enclosure.pi(bits), iv.mpf(iv.pi), bits)
            _same(Enclosure.exp_of(Fraction(5, 3), bits), iv.exp(_iv_fraction(Fraction(5, 3))),
                  bits)
        # one() and zero() are exact: any other operand's precision wins
        assert (one()._mpi_, zero()._mpi_) == (iv.mpf(1)._mpi_, iv.mpf(0)._mpi_)
        assert one().bits == zero().bits == 8
        assert (one() * Enclosure.pi(bits)).bits == (Enclosure.pi(bits) - zero()).bits == bits


def test_unordered_endpoints_refused():
    with pytest.raises(ValueError):
        Enclosure.from_endpoints(1, 0)


def test_non_number_operand_refused():
    with pytest.raises(TypeError):
        one() + 0.5


@pytest.mark.parametrize("bits", (192, 1024))
def test_mid_and_width_are_exact_at_any_mp_prec(bits):
    rng = random.Random(bits + 6)
    for _ in range(20):
        # endpoints of `bits` bits, far apart in exponent
        x = (Enclosure.from_fraction(_random_fraction(rng), bits) / 3
             + Enclosure.from_endpoints(0, rng.randint(1, 10**6), bits))
        lo, hi = mpf_to_fraction(x.lo), mpf_to_fraction(x.hi)
        for scope in (contextlib.nullcontext(), mp.workprec(20)):
            with scope:
                assert mpf_to_fraction(x.mid) == (lo + hi) / 2
                assert mpf_to_fraction(x.width) == hi - lo
