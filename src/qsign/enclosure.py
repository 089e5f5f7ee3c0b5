"""Directed-rounded interval arithmetic for certified inequalities.

``Enclosure`` is a pair of arbitrary-precision endpoints, every operation
rounded outward so the true real value is always contained.  This is the
only numeric type allowed on certification paths; anything that needs a
sign decision compares interval endpoints strictly.

The value is the raw endpoint pair of ``mpmath.libmp`` (``_mpi_``, two mpf
tuples), and every operation calls the interval kernels ``mpi_add``,
``mpi_mul``, ``mpi_div``, ``mpi_exp``, ``mpi_cos_sin`` ... directly, with no
``mpmath.iv`` object in between (and no ``Enclosure(value)``: values come
from the static constructors and arithmetic).  Ints and Fractions are
coerced exactly as ``iv.mpf`` coerces them (``from_int`` floor and ceiling,
then ``mpi_div`` for a ratio), so every endpoint is bit for bit the one
``mpmath.iv`` returns at the same precision (``tests/test_enclosure.py``
checks this).

Precision travels with the value: an operation runs at the larger ``bits``
of its operands and coerces ints and Fractions there.  Only the rounding
constructors take ``bits`` (default ``DEFAULT_PRECISION``); the exact
``one()`` and ``zero()`` carry the least, 8.  Nothing here reads mpmath's
process-wide ``iv.prec`` or ``mp.prec`` (``precision`` scopes ``iv.prec``
for callers of ``mpmath.iv``).  Escalating precision tightens enclosures but
never invalidates them.

The complex rectangle re + i im, ``ComplexHP``, is two such enclosures and
belongs to the same certified layer: ``cexp``, ``e_two_pi_i``,
``e_pi_i_half_turns`` and ``pi_factor_value`` build its exponentials and
phases, each angle from one ``cos_sin``.  ``analytic`` sums its class
constants on it and ``circle`` checks the modular identities on it.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal, localcontext
from fractions import Fraction
from typing import Iterator, Sequence, Union

import mpmath
from mpmath import iv, mp
from mpmath.ctx_iv import convert_mpf_
from mpmath.libmp import (finf, fnan, fninf, fone, from_int, fzero, mpf_add, mpf_gt, mpf_le,
                          mpf_lt, mpf_pi, mpf_shift, mpf_sign, mpf_sub, mpi_abs, mpi_add,
                          mpi_cos_sin, mpi_div, mpi_exp, mpi_log, mpi_mul, mpi_neg, mpi_sqrt,
                          mpi_sub, round_ceiling, round_floor)

#: the precision of the rounding constructors when a caller names none
DEFAULT_PRECISION = 192
#: the ``bits`` of the exact ``one()`` and ``zero()``: the least precision
_EXACT_BITS = 8

Number = Union["Enclosure", int, Fraction]


@contextmanager
def precision(bits: int) -> Iterator[None]:
    """Temporarily set the interval working precision (in bits)."""
    if bits < 8:
        raise ValueError("precision below 8 bits is useless")
    old = iv.prec
    iv.prec = bits
    try:
        yield
    finally:
        iv.prec = old


def mpf_to_fraction(x: mpmath.mpf) -> Fraction:
    """Exact rational value of a finite mpf endpoint."""
    sign, man, exp, _ = x._mpf_
    if man == 0 and exp != 0:
        raise ValueError(f"endpoint {x} is not finite")
    val = Fraction(man) * (Fraction(2) ** exp if exp >= 0 else Fraction(1, 2 ** (-exp)))
    return -val if sign else val


def _directed_str(x: mpmath.mpf, digits: int, up: bool) -> str:
    """x to `digits` significant decimals, rounded toward +inf if `up`, else -inf.

    The exact endpoint is divided once in `decimal` under directed rounding;
    for digits >= 2 the layout is ``mpmath.nstr(x, digits, strip_zeros=False)``'s.
    """
    if not x or not mpmath.isfinite(x):
        return mpmath.nstr(x, digits, strip_zeros=False)
    v = mpf_to_fraction(x)
    with localcontext(Context(prec=digits, rounding=ROUND_CEILING if up else ROUND_FLOOR)):
        dec = Decimal(v.numerator) / v.denominator
    lead = dec.adjusted()
    if min(-(digits // 3), -5) < lead < digits:  # nstr's fixed-point range
        s = f"{dec:.{digits - 1 - lead}f}"
        return s if "." in s else s + "."
    return f"{dec:.{digits - 1}e}"


def _int_mpi(n: int, prec: int) -> tuple:
    return from_int(n, prec, round_floor), from_int(n, prec, round_ceiling)


def _mpi_of(x: int | Fraction, prec: int) -> tuple:
    """Endpoint pair of an int or Fraction, coerced at `prec` the way ``iv.mpf`` does."""
    if isinstance(x, int):
        return _int_mpi(x, prec)
    if isinstance(x, Fraction):
        if x.denominator == 1:  # the same pair as the division by 1, without it
            return _int_mpi(x.numerator, prec)
        return mpi_div(_int_mpi(x.numerator, prec), _int_mpi(x.denominator, prec), prec)
    raise TypeError(f"cannot coerce {type(x).__name__} to Enclosure")


def _operand(x: "Enclosure", y: Number) -> tuple[tuple, int]:
    """y's endpoint pair and the precision of an operation on x and y: the larger bits."""
    if isinstance(y, Enclosure):
        return y._mpi_, y.bits if y.bits > x.bits else x.bits
    return _mpi_of(y, x.bits), x.bits


_new = object.__new__


def _make(v: tuple, prec: int) -> "Enclosure":
    out = _new(Enclosure)
    out._mpi_ = v
    out.bits = prec
    return out


def _pow_int(base: "Enclosure | ComplexHP", e: int,
             unit: "Enclosure | ComplexHP") -> "Enclosure | ComplexHP":
    """base^e by square-and-multiply from `unit`, its 1 (``Enclosure`` and ``ComplexHP``)."""
    if e < 0:
        return unit / _pow_int(base, -e, unit)
    out = unit
    while e:
        if e & 1:
            out = out * base
        base = base * base
        e >>= 1
    return out


class Enclosure:
    """Interval [lo, hi] of arbitrary-precision reals, outward rounded at ``bits`` bits."""

    __slots__ = ("_mpi_", "bits")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_fraction(x: Fraction | int, bits: int = DEFAULT_PRECISION) -> "Enclosure":
        return _make(_mpi_of(Fraction(x), bits), bits)

    @staticmethod
    def from_endpoints(lo, hi, bits: int = DEFAULT_PRECISION) -> "Enclosure":
        """[lo, hi]; mpf endpoints are kept as they are, others rounded outward."""
        a = convert_mpf_(lo, bits, round_floor)
        b = convert_mpf_(hi, bits, round_ceiling)
        if a == fnan or b == fnan:
            a, b = fninf, finf
        if not mpf_le(a, b):
            raise ValueError("endpoints must be properly ordered")
        return _make((a, b), bits)

    @staticmethod
    def pi(bits: int = DEFAULT_PRECISION) -> "Enclosure":
        return _make((mpf_pi(bits, round_floor), mpf_pi(bits, round_ceiling)), bits)

    @staticmethod
    def exp_of(x: Fraction | int, bits: int = DEFAULT_PRECISION) -> "Enclosure":
        return Enclosure.from_fraction(x, bits).exp()

    # -- endpoint access ---------------------------------------------------

    @property
    def lo(self) -> mpmath.mpf:
        return mp.make_mpf(self._mpi_[0])

    @property
    def hi(self) -> mpmath.mpf:
        return mp.make_mpf(self._mpi_[1])

    @property
    def mid(self) -> mpmath.mpf:
        """(lo + hi)/2, exactly."""
        return mp.make_mpf(mpf_shift(mpf_add(*self._mpi_, 0), -1))

    @property
    def width(self) -> mpmath.mpf:
        """hi - lo, exactly."""
        lo, hi = self._mpi_
        return mp.make_mpf(mpf_sub(hi, lo, 0))

    def contains(self, x) -> bool:
        if isinstance(x, (Fraction, int)):
            x = Fraction(x)
            return mpf_to_fraction(self.lo) <= x <= mpf_to_fraction(self.hi)
        return self.lo <= x <= self.hi

    def intersects(self, other: "Enclosure") -> bool:
        return not (mpf_lt(self._mpi_[1], other._mpi_[0]) or mpf_lt(other._mpi_[1], self._mpi_[0]))

    def __repr__(self) -> str:
        return f"Enclosure[{mpmath.nstr(self.lo, 20)}, {mpmath.nstr(self.hi, 20)}]"

    def str_lo(self, digits: int = 25) -> str:
        """Decimal string rounded toward -inf; safe as a certified lower bound."""
        return _directed_str(self.lo, digits, up=False)

    def str_hi(self, digits: int = 25) -> str:
        """Decimal string rounded toward +inf; safe as a certified upper bound."""
        return _directed_str(self.hi, digits, up=True)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: Number) -> "Enclosure":
        v, prec = _operand(self, other)
        return _make(mpi_add(self._mpi_, v, prec), prec)

    __radd__ = __add__

    def __sub__(self, other: Number) -> "Enclosure":
        v, prec = _operand(self, other)
        return _make(mpi_sub(self._mpi_, v, prec), prec)

    def __rsub__(self, other: Number) -> "Enclosure":
        v, prec = _operand(self, other)
        return _make(mpi_sub(v, self._mpi_, prec), prec)

    def __mul__(self, other: Number) -> "Enclosure":
        v, prec = _operand(self, other)
        return _make(mpi_mul(self._mpi_, v, prec), prec)

    __rmul__ = __mul__

    def __truediv__(self, other: Number) -> "Enclosure":
        v, prec = _operand(self, other)
        return _make(mpi_div(self._mpi_, v, prec), prec)

    def __rtruediv__(self, other: Number) -> "Enclosure":
        v, prec = _operand(self, other)
        return _make(mpi_div(v, self._mpi_, prec), prec)

    def __neg__(self) -> "Enclosure":
        return _make(mpi_neg(self._mpi_, self.bits), self.bits)

    def __abs__(self) -> "Enclosure":
        return _make(mpi_abs(self._mpi_, self.bits), self.bits)

    def square(self) -> "Enclosure":
        """Interval square: tighter than self * self when 0 is inside."""
        a = mpi_abs(self._mpi_, self.bits)
        return _make(mpi_mul(a, a, self.bits), self.bits)

    def clamp_nonneg(self) -> "Enclosure":
        """Intersect with [0, inf); valid when the true value is known >= 0."""
        lo, hi = self._mpi_
        if mpf_sign(lo) < 0:
            lo = fzero
        if mpf_sign(hi) < 0:
            hi = fzero
        return _make((lo, hi), self.bits)

    def sqrt(self) -> "Enclosure":
        return _make(mpi_sqrt(self._mpi_, self.bits), self.bits)

    def exp(self) -> "Enclosure":
        return _make(mpi_exp(self._mpi_, self.bits), self.bits)

    def log(self) -> "Enclosure":
        return _make(mpi_log(self._mpi_, self.bits), self.bits)

    def cos_sin(self) -> tuple["Enclosure", "Enclosure"]:
        """(cos, sin) from one argument reduction, each bit for bit ``iv.cos``/``iv.sin``'s."""
        c, s = mpi_cos_sin(self._mpi_, self.bits)
        return _make(c, self.bits), _make(s, self.bits)

    def pow_int(self, e: int) -> "Enclosure":
        return _pow_int(self, e, _make((fone, fone), self.bits))

    def pow_fraction(self, e: Fraction) -> "Enclosure":
        """x^e = exp(e log x) for x > 0."""
        return (self.log() * e).exp()

    # -- certified comparisons --------------------------------------------

    def strictly_less(self, other: Number) -> bool:
        """True only if every value of self is below every value of other."""
        return mpf_lt(self._mpi_[1], _operand(self, other)[0][0])

    def strictly_greater(self, other: Number) -> bool:
        return mpf_gt(self._mpi_[0], _operand(self, other)[0][1])

    def is_positive(self) -> bool:
        return mpf_gt(self._mpi_[0], fzero)

    def is_negative(self) -> bool:
        return mpf_lt(self._mpi_[1], fzero)


def one() -> Enclosure:
    return _make((fone, fone), _EXACT_BITS)


def zero() -> Enclosure:
    return _make((fzero, fzero), _EXACT_BITS)


# ---------------------------------------------------------------------------
# complex enclosures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComplexHP:
    """Rectangle enclosure re + i*im with directed-rounded components."""

    re: Enclosure
    im: Enclosure

    @staticmethod
    def from_fractions(re: Fraction | int, im: Fraction | int = 0,
                       bits: int = DEFAULT_PRECISION) -> "ComplexHP":
        return ComplexHP(Enclosure.from_fraction(re, bits), Enclosure.from_fraction(im, bits))

    @property
    def bits(self) -> int:
        return max(self.re.bits, self.im.bits)

    @staticmethod
    def one() -> "ComplexHP":
        return ComplexHP(one(), zero())

    def __add__(self, other: "ComplexHP") -> "ComplexHP":
        return ComplexHP(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ComplexHP") -> "ComplexHP":
        return ComplexHP(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "ComplexHP") -> "ComplexHP":
        return ComplexHP(self.re * other.re - self.im * other.im,
                         self.re * other.im + self.im * other.re)

    def __truediv__(self, other: "ComplexHP") -> "ComplexHP":
        den = other.re.square() + other.im.square()
        return ComplexHP((self.re * other.re + self.im * other.im) / den,
                         (self.im * other.re - self.re * other.im) / den)

    def __neg__(self) -> "ComplexHP":
        return ComplexHP(-self.re, -self.im)

    def scale(self, c: Enclosure | int | Fraction) -> "ComplexHP":
        if not isinstance(c, Enclosure):
            c = Enclosure.from_fraction(c, self.bits)
        return ComplexHP(self.re * c, self.im * c)

    def abs_enclosure(self) -> Enclosure:
        return (self.re.square() + self.im.square()).sqrt()

    def pow_int(self, e: int) -> "ComplexHP":
        return _pow_int(self, e, ComplexHP.one())


def cexp(z: ComplexHP) -> ComplexHP:
    """exp(z) as a rectangle: e^re (cos im + i sin im), interval-sound."""
    r = z.re.exp()
    c, s = z.im.cos_sin()
    return ComplexHP(r * c, r * s)


def e_two_pi_i(t: ComplexHP) -> ComplexHP:
    """e^{2 pi i t}; for exact rational t use ``e_pi_i_half_turns(2 t)``."""
    two_pi = Enclosure.pi(t.bits) * 2
    return cexp(ComplexHP(-(two_pi * t.im), two_pi * t.re))


def e_pi_i_half_turns(t: Fraction, bits: int = DEFAULT_PRECISION) -> ComplexHP:
    """Exact unit phase e^{pi i t} for rational t."""
    ang = Enclosure.pi(bits) * Enclosure.from_fraction(t % 2, bits)
    return ComplexHP(*ang.cos_sin())


def pi_factor_value(pi_factors: Sequence[tuple[Fraction, int]],
                    bits: int = DEFAULT_PRECISION) -> ComplexHP:
    """Exact-to-precision value of prod (1 - e^{2 pi i x})^{delta}."""
    out = ComplexHP.one()
    for x, delta in pi_factors:
        out = out * (ComplexHP.one() - e_pi_i_half_turns(2 * x, bits)).pow_int(delta)
    return out
