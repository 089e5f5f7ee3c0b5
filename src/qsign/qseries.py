"""Exact truncated power series over arbitrary-precision integers.

Everything here is exact: a series is a list of Python ints giving the
coefficients of q^0 .. q^N.  The expansion targets are quotients of
q-Pochhammer symbols

    (q^a; q^m)_inf = prod_{k>=0} (1 - q^{a+km}),

in particular the two-variable building block

    psi(r, m) := (q^r; q^m)_inf (q^{m-r}; q^m)_inf,

whose integer powers assemble the fifth powers of the Rogers-Ramanujan
continued fraction and their level-25 companions.

The default product expander routes each psi factor through the Jacobi
triple product,

    (q^r, q^{m-r}; q^m)_inf (q^m; q^m)_inf = sum_j (-1)^j q^{rj + m j(j-1)/2},

so multiplying or dividing by a psi factor is a sparse pass with O(sqrt(N/m))
terms instead of a dense O(N^2/m) factor sweep.  Residual (q^m; q^m)_inf
powers are handled with Euler's pentagonal series, which is the triple
product with r = m and modulus 3m.  A literal factor-by-factor expander is
kept as ``expand_product_reference`` and the two are required to agree
exactly.

Each pass is slice arithmetic on one numpy array, one shifted slice per
term.  Multiplication passes run on int64 while a proven bound holds: every
term is +-1, so a pass by t terms multiplies the l1 norm by at most t, and
the array switches to Python ints (dtype object) before the product of the
term counts would pass 2^63 - 1.  Division passes run on Python ints in
blocks; a term reaching back a whole block or more subtracts finished values
as one slice per block, and only the short terms run index by index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Iterator, Sequence

import numpy as np


class TruncationMismatchError(ValueError):
    """Arithmetic on series with different truncation orders is refused."""


class ConstantTermError(ValueError):
    """Series inversion requires constant term exactly 1."""


@dataclass(frozen=True)
class QSeries:
    """Truncated formal power series sum_{n<=N} coeffs[n] q^n with N = trunc_order."""

    trunc_order: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.trunc_order < 0:
            raise ValueError("truncation order must be nonnegative")
        if len(self.coeffs) != self.trunc_order + 1:
            raise ValueError(
                f"coefficient list has length {len(self.coeffs)}, "
                f"expected trunc_order + 1 = {self.trunc_order + 1}"
            )

    @staticmethod
    def one(trunc_order: int) -> "QSeries":
        return QSeries(trunc_order, (1,) + (0,) * trunc_order)

    @staticmethod
    def from_coeffs(coeffs: Sequence[int]) -> "QSeries":
        return QSeries(len(coeffs) - 1, tuple(coeffs))

    def coeff(self, n: int) -> int:
        if not 0 <= n <= self.trunc_order:
            raise IndexError(f"index {n} outside truncation order {self.trunc_order}")
        return self.coeffs[n]


def ps_mul(a: QSeries, b: QSeries) -> QSeries:
    """Exact Cauchy product truncated at the common truncation order."""
    if a.trunc_order != b.trunc_order:
        raise TruncationMismatchError(
            f"truncation orders differ: {a.trunc_order} != {b.trunc_order}"
        )
    n = a.trunc_order
    ca, cb = a.coeffs, b.coeffs
    out = [0] * (n + 1)
    for i, ai in enumerate(ca):
        if ai:
            for j in range(n + 1 - i):
                bj = cb[j]
                if bj:
                    out[i + j] += ai * bj
    return QSeries(n, tuple(out))


def ps_inv(a: QSeries) -> QSeries:
    """Multiplicative inverse via b[n] = -sum_{k=1..n} a[k] b[n-k]; needs a[0] == 1."""
    if a.coeffs[0] != 1:
        raise ConstantTermError(f"constant term is {a.coeffs[0]}, must be 1")
    n = a.trunc_order
    ca = a.coeffs
    b = [0] * (n + 1)
    b[0] = 1
    for i in range(1, n + 1):
        s = 0
        for k in range(1, i + 1):
            ak = ca[k]
            if ak:
                s += ak * b[i - k]
        b[i] = -s
    return QSeries(n, tuple(b))


# ---------------------------------------------------------------------------
# dense in-place passes for single binomial factors (1 - q^c)
# ---------------------------------------------------------------------------

def _mul_one_minus_qc(coeffs: list[int], c: int) -> list[int]:
    n = len(coeffs) - 1
    out = coeffs[:]
    for i in range(n, c - 1, -1):
        out[i] -= coeffs[i - c]
    return out


def _div_one_minus_qc(coeffs: list[int], c: int) -> list[int]:
    out = coeffs[:]
    for i in range(c, len(out)):
        out[i] += out[i - c]
    return out


def expand_pochhammer(a: int, m: int, trunc_order: int) -> QSeries:
    """Expansion of (q^a; q^m)_inf = prod_{k>=0}(1 - q^{a+km}) to the given order.

    Factors with a + km beyond the truncation order cannot affect the result
    and are skipped.
    """
    if a < 1:
        raise ValueError("offset a must be >= 1")
    if m < 1:
        raise ValueError("modulus m must be >= 1")
    coeffs = [0] * (trunc_order + 1)
    coeffs[0] = 1
    for c in range(a, trunc_order + 1, m):
        coeffs = _mul_one_minus_qc(coeffs, c)
    return QSeries(trunc_order, tuple(coeffs))


# ---------------------------------------------------------------------------
# product specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProductSpec:
    """Product prod_j psi(r_j, m_j)^{delta_j} with psi(r, m) = (q^r, q^{m-r}; q^m)_inf."""

    factors: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if not self.factors:
            raise ValueError("product spec needs at least one factor")
        for r, m, delta in self.factors:
            if not 1 <= r < m:
                raise ValueError(f"need 1 <= r < m, got (r, m) = ({r}, {m})")
            if delta == 0:
                raise ValueError("delta must be nonzero")

    @cached_property
    def level(self) -> int:
        """lcm of the factor moduli, computed once per spec."""
        out = 1
        for _, m, _ in self.factors:
            out = out * m // gcd(out, m)
        return out

    def reciprocal(self) -> "ProductSpec":
        return ProductSpec(tuple((r, m, -d) for r, m, d in self.factors))

    def to_json(self) -> str:
        return json.dumps([{"r": r, "m": m, "delta": d} for r, m, d in self.factors])

    @staticmethod
    def from_json(text: str) -> "ProductSpec":
        data = json.loads(text)
        if not isinstance(data, list):
            raise ValueError("spec literal must be a JSON array")
        return ProductSpec(tuple((int(f["r"]), int(f["m"]), int(f["delta"])) for f in data))


#: 1/R^5, R^5, R^5/R(q^5), R(q^5)/R^5, 1/R, R -- R the Rogers-Ramanujan
#: continued fraction with the q^{1/5} factor removed.
REGISTERED_SPECS: dict[str, ProductSpec] = {
    "A": ProductSpec(((2, 5, 5), (1, 5, -5))),
    "B": ProductSpec(((2, 5, -5), (1, 5, 5))),
    "C": ProductSpec(((2, 5, -5), (1, 5, 5), (5, 25, -1), (10, 25, 1))),
    "D": ProductSpec(((2, 5, 5), (1, 5, -5), (5, 25, 1), (10, 25, -1))),
    "c": ProductSpec(((2, 5, 1), (1, 5, -1))),
    "d": ProductSpec(((2, 5, -1), (1, 5, 1))),
}


def registered_spec(name: str) -> ProductSpec:
    try:
        return REGISTERED_SPECS[name]
    except KeyError:
        known = ", ".join(sorted(REGISTERED_SPECS))
        raise KeyError(f"unknown spec {name!r}; registered specs: {known}") from None


# ---------------------------------------------------------------------------
# sparse triple-product engine
# ---------------------------------------------------------------------------

#: block length of a division pass: a divisor term with exponent e >= _BLOCK
#: reads only finished blocks, so it runs as one slice subtraction per block
_BLOCK = 512
_INT64_MAX = int(np.iinfo(np.int64).max)

Terms = list[tuple[int, int]]


def _triple_product_terms(r: int, m: int, trunc_order: int) -> Terms:
    """Sparse terms of sum_j (-1)^j q^{rj + m j(j-1)/2}, exponent <= trunc_order."""
    terms = []
    for step in (1, -1):
        j = 0 if step == 1 else -1
        while True:
            e = r * j + m * j * (j - 1) // 2
            if e > trunc_order:
                break
            terms.append((e, -1 if j & 1 else 1))
            j += step
    terms.sort()
    return terms


def pass_plan(spec: ProductSpec, trunc_order: int) -> tuple[list[Terms], list[Terms]]:
    """The sparse (multiplication, division) passes whose product is `spec`.

    Each psi factor is a triple-product series divided by (q^m; q^m)_inf, and
    (q^m; q^m)_inf is itself the triple product with r = m and modulus 3m
    (Euler's pentagonal theorem), so every pass is a list of terms (e, +-1)
    of one triple product, ascending in e.  Eta-type powers that do not
    cancel become correction passes after the psi passes.
    """
    n = trunc_order
    eta_exponents: dict[int, int] = {}
    mul_passes: list[Terms] = []
    div_passes: list[Terms] = []
    for r, m, delta in spec.factors:
        terms = _triple_product_terms(r, m, n)
        (mul_passes if delta > 0 else div_passes).extend([terms] * abs(delta))
        eta_exponents[m] = eta_exponents.get(m, 0) - delta
    for m in sorted(eta_exponents):
        e = eta_exponents[m]
        if e:
            terms = _triple_product_terms(m, 3 * m, n)
            (mul_passes if e > 0 else div_passes).extend([terms] * abs(e))
    return mul_passes, div_passes


def _mul_pass(a: np.ndarray, terms: Terms) -> np.ndarray:
    """a * sum_t c_t q^{e_t} truncated to len(a), one shifted slice per term."""
    out = np.zeros_like(a)
    n1 = len(a)
    for e, c in terms:
        if c > 0:
            out[e:] += a[:n1 - e]
        else:
            out[e:] -= a[:n1 - e]
    return out


def _div_pass(out: np.ndarray, terms: Terms) -> None:
    """Divide the object array `out` in place by sum_t c_t q^{e_t} with c_0 = 1.

    out[i] <- out[i] - sum_{t >= 1} c_t out[i - e_t], block by block.  Terms
    with e >= _BLOCK read out[lo - e:hi - e], which lies wholly before the
    block [lo, hi) since e >= _BLOCK >= hi - lo: those reads are finished
    values and never overlap the slice being written.  The remaining terms
    run the recurrence index by index on a list copy of the block and the
    _BLOCK values before it (zeros before index 0).
    """
    if terms[0] != (0, 1):
        raise ConstantTermError("sparse divisor must have constant term 1")
    near_plus = [e for e, c in terms[1:] if e < _BLOCK and c > 0]
    near_minus = [e for e, c in terms[1:] if e < _BLOCK and c < 0]
    far = [(e, c) for e, c in terms[1:] if e >= _BLOCK]
    n1 = len(out)
    for lo in range(0, n1, _BLOCK):
        hi = min(lo + _BLOCK, n1)
        for e, c in far:
            if e >= hi:
                break
            start = max(lo, e)
            if c > 0:
                out[start:hi] -= out[start - e:hi - e]
            else:
                out[start:hi] += out[start - e:hi - e]
        base = lo - _BLOCK
        w = [0] * max(0, -base) + out[max(0, base):hi].tolist()
        for k in range(_BLOCK, _BLOCK + hi - lo):
            s = w[k]
            for e in near_minus:
                s += w[k - e]
            for e in near_plus:
                s -= w[k - e]
            w[k] = s
        out[lo:hi] = np.array(w[_BLOCK:], dtype=object)


def expand_product(spec: ProductSpec, trunc_order: int) -> QSeries:
    """Exact expansion of prod_j (q^{r_j}, q^{m_j - r_j}; q^{m_j})_inf^{delta_j}.

    Runs the passes of ``pass_plan``, multiplications first: they keep the
    intermediate coefficients small.  Every pass is slice arithmetic on one
    numpy array.  A multiplication pass by t terms, each +-1, adds t shifted
    copies of its input, so every partial sum is at most the input's l1
    norm and the output's l1 norm is at most t times it.  The array is
    therefore int64 while the product of the term counts of the passes run
    so far, this one included, is at most 2^63 - 1; the dtype is chosen from
    this bound before each pass, and the array becomes Python ints (dtype
    object) before the first pass that would break it.  Division passes,
    whose coefficients grow without such a bound, run on Python ints in
    blocks of _BLOCK (see ``_div_pass``).  The result is independent of
    factor order (all arithmetic is exact).
    """
    n = trunc_order
    if n < 0:
        raise ValueError(f"truncation order {n} is negative")
    mul_passes, div_passes = pass_plan(spec, n)
    coeffs = np.zeros(n + 1, dtype=np.int64)
    coeffs[0] = 1
    l1_bound = 1
    for terms in mul_passes:
        l1_bound *= len(terms)
        if l1_bound > _INT64_MAX:
            coeffs = coeffs.astype(object, copy=False)
        coeffs = _mul_pass(coeffs, terms)
    coeffs = coeffs.astype(object, copy=False)
    for terms in div_passes:
        _div_pass(coeffs, terms)
    return QSeries(n, tuple(coeffs.tolist()))


def expand_product_reference(spec: ProductSpec, trunc_order: int) -> QSeries:
    """Literal factor-by-factor expansion; negative exponents via ps_inv.

    O(N^2/m) per Pochhammer symbol plus one dense inversion/multiplication.
    Slow but independent of the sparse engine; the two must agree exactly.
    """
    n = trunc_order
    pos = [0] * (n + 1)
    pos[0] = 1
    neg = pos[:]
    for r, m, delta in spec.factors:
        target = pos if delta > 0 else neg
        for _ in range(abs(delta)):
            for a in (r, m - r):
                for c in range(a, n + 1, m):
                    target2 = _mul_one_minus_qc(target, c)
                    target[:] = target2
    positive = QSeries(n, tuple(pos))
    negative = QSeries(n, tuple(neg))
    return ps_mul(positive, ps_inv(negative))


# ---------------------------------------------------------------------------
# Rogers-Ramanujan sum sides
# ---------------------------------------------------------------------------

def rr_sum_side(variant: str, trunc_order: int) -> QSeries:
    """Truncation of sum_n q^{n^2}/(q; q)_n ("G") or sum_n q^{n^2+n}/(q; q)_n ("H").

    Terms with leading exponent beyond the truncation order vanish, so the
    sum is finite.  The classical identities say G equals the reciprocal of
    (q, q^4; q^5)_inf and H the reciprocal of (q^2, q^3; q^5)_inf.
    """
    if variant not in ("G", "H"):
        raise ValueError("variant must be 'G' or 'H'")
    n = trunc_order
    total = [0] * (n + 1)
    total[0] = 1
    term = [0] * (n + 1)
    term[0] = 1
    k = 1
    while True:
        lead = k * k if variant == "G" else k * k + k
        if lead > n:
            break
        # term_k = term_{k-1} * q^{lead_k - lead_{k-1}} / (1 - q^k)
        shift = lead - ((k - 1) ** 2 if variant == "G" else (k - 1) ** 2 + (k - 1))
        term = [0] * shift + term[: n + 1 - shift]
        term = _div_one_minus_qc(term, k)
        for i in range(lead, n + 1):
            total[i] += term[i]
        k += 1
    return QSeries(n, tuple(total))


# ---------------------------------------------------------------------------
# sign extraction and serialization
# ---------------------------------------------------------------------------

def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def slice_signs(s: QSeries, residue: int, modulus: int, lo: int, hi: int) -> list[int]:
    """Signs (-1/0/+1) of coefficients at indices == residue (mod modulus) in [lo, hi]."""
    if modulus < 1:
        raise ValueError("modulus must be positive")
    if hi > s.trunc_order:
        raise TruncationMismatchError(
            f"range end {hi} exceeds truncation order {s.trunc_order}"
        )
    if lo < 0 or lo > hi:
        raise ValueError(f"bad index range [{lo}, {hi}]")
    return [_sign(s.coeffs[i]) for i in slice_indices(residue, modulus, lo, hi)]


def slice_indices(residue: int, modulus: int, lo: int, hi: int) -> range:
    start = lo + (residue - lo) % modulus
    return range(start, hi + 1, modulus)


def sign_exceptions(s: QSeries, residue: int, modulus: int, lo: int, hi: int,
                    sign: int) -> list[int]:
    """Ascending indices == residue (mod modulus) in [lo, hi] whose sign is not `sign`.

    The one exact sign scan: every finite sign check goes through here, with
    the range checks of ``slice_signs``.
    """
    signs = slice_signs(s, residue, modulus, lo, hi)
    return [i for i, g in zip(slice_indices(residue, modulus, lo, hi), signs) if g != sign]


def iter_csv_rows(s: QSeries) -> Iterator[str]:
    yield "index,coefficient"
    for n, c in enumerate(s.coeffs):
        yield f"{n},{c}"
