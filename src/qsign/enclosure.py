"""Directed-rounded interval arithmetic for certified inequalities.

``Enclosure`` wraps mpmath's interval type (``mpmath.iv``): a pair of
arbitrary-precision endpoints, every operation rounded outward so the true
real value is always contained.  This is the only numeric type allowed on
certification paths; anything that needs a sign decision compares interval
endpoints strictly.

Precision is the ambient interval working precision in bits; use the
``precision`` context manager to change it locally.  Escalating precision
tightens enclosures but never invalidates them.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal, localcontext
from fractions import Fraction
from typing import Iterator, Union

import mpmath
from mpmath import iv, mp
from mpmath.libmp import fzero

DEFAULT_PRECISION = int(os.environ.get("QSIGN_PRECISION", "192"))
iv.prec = DEFAULT_PRECISION

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


def _coerce(x: Number) -> "Enclosure":
    if isinstance(x, Enclosure):
        return x
    if isinstance(x, int):
        return Enclosure(iv.mpf(x))
    if isinstance(x, Fraction):
        return Enclosure(iv.mpf(x.numerator) / iv.mpf(x.denominator))
    raise TypeError(f"cannot coerce {type(x).__name__} to Enclosure")


class Enclosure:
    """Interval [lo, hi] of arbitrary-precision reals, outward rounded."""

    __slots__ = ("_iv", "bits")

    def __init__(self, value, bits: int | None = None):
        if isinstance(value, Enclosure):
            value = value._iv
        if not isinstance(value, iv.mpf):
            value = iv.mpf(value)
        self._iv = value
        self.bits = bits if bits is not None else iv.prec

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_fraction(x: Fraction | int) -> "Enclosure":
        x = Fraction(x)
        return Enclosure(iv.mpf(x.numerator) / iv.mpf(x.denominator))

    @staticmethod
    def from_endpoints(lo, hi) -> "Enclosure":
        return Enclosure(iv.mpf([lo, hi]))

    @staticmethod
    def pi() -> "Enclosure":
        return Enclosure(iv.pi)

    @staticmethod
    def exp_of(x: Number) -> "Enclosure":
        return _coerce(x).exp()

    # -- endpoint access ---------------------------------------------------

    @property
    def lo(self) -> mpmath.mpf:
        return mp.make_mpf(self._iv._mpi_[0])

    @property
    def hi(self) -> mpmath.mpf:
        return mp.make_mpf(self._iv._mpi_[1])

    @property
    def mid(self) -> mpmath.mpf:
        return (self.lo + self.hi) / 2

    @property
    def width(self) -> mpmath.mpf:
        return self.hi - self.lo

    def contains(self, x) -> bool:
        if isinstance(x, (Fraction, int)):
            x = Fraction(x)
            return mpf_to_fraction(self.lo) <= x <= mpf_to_fraction(self.hi)
        return self.lo <= x <= self.hi

    def intersects(self, other: "Enclosure") -> bool:
        return not (self.hi < other.lo or other.hi < self.lo)

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
        return Enclosure(self._iv + _coerce(other)._iv)

    __radd__ = __add__

    def __sub__(self, other: Number) -> "Enclosure":
        return Enclosure(self._iv - _coerce(other)._iv)

    def __rsub__(self, other: Number) -> "Enclosure":
        return Enclosure(_coerce(other)._iv - self._iv)

    def __mul__(self, other: Number) -> "Enclosure":
        return Enclosure(self._iv * _coerce(other)._iv)

    __rmul__ = __mul__

    def __truediv__(self, other: Number) -> "Enclosure":
        return Enclosure(self._iv / _coerce(other)._iv)

    def __rtruediv__(self, other: Number) -> "Enclosure":
        return Enclosure(_coerce(other)._iv / self._iv)

    def __neg__(self) -> "Enclosure":
        return Enclosure(-self._iv)

    def __abs__(self) -> "Enclosure":
        lo, hi = self._iv._mpi_
        if mp.make_mpf(lo) >= 0:
            return Enclosure(self._iv)
        if mp.make_mpf(hi) <= 0:
            return Enclosure(-self._iv)
        m = max(-mp.make_mpf(lo), mp.make_mpf(hi))
        return Enclosure(iv.mpf([0, m]))

    def square(self) -> "Enclosure":
        """Interval square: tighter than self * self when 0 is inside."""
        return abs(self) * abs(self)

    def clamp_nonneg(self) -> "Enclosure":
        """Intersect with [0, inf); valid when the true value is known >= 0."""
        lo, hi = self._iv._mpi_
        if mp.make_mpf(lo) < 0:
            lo = fzero
        if mp.make_mpf(hi) < 0:
            hi = fzero
        return Enclosure(iv.make_mpf((lo, hi)))

    def sqrt(self) -> "Enclosure":
        return Enclosure(iv.sqrt(self._iv))

    def exp(self) -> "Enclosure":
        return Enclosure(iv.exp(self._iv))

    def log(self) -> "Enclosure":
        return Enclosure(iv.log(self._iv))

    def cos(self) -> "Enclosure":
        return Enclosure(iv.cos(self._iv))

    def sin(self) -> "Enclosure":
        return Enclosure(iv.sin(self._iv))

    def pow_int(self, e: int) -> "Enclosure":
        if e < 0:
            return 1 / self.pow_int(-e)
        out = Enclosure(iv.mpf(1))
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def pow_fraction(self, e: Fraction) -> "Enclosure":
        """x^e = exp(e log x) for x > 0."""
        return (self.log() * _coerce(e)).exp()

    # -- certified comparisons --------------------------------------------

    def strictly_less(self, other: Number) -> bool:
        """True only if every value of self is below every value of other."""
        return self.hi < _coerce(other).lo

    def strictly_greater(self, other: Number) -> bool:
        return self.lo > _coerce(other).hi

    def is_positive(self) -> bool:
        return self.lo > 0

    def is_negative(self) -> bool:
        return self.hi < 0


def one() -> Enclosure:
    return Enclosure(iv.mpf(1))


def zero() -> Enclosure:
    return Enclosure(iv.mpf(0))
