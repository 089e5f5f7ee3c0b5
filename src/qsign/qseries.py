"""Exact truncated power series over arbitrary-precision integers.

Everything here is exact: a series is the coefficients of q^0 .. q^N, as
Python ints or as the engine's limbs (below).  The expansion targets are
quotients of q-Pochhammer symbols

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
product with r = m and modulus 3m.  The reference expander,
``expand_product_reference``, shares nothing with it: it runs Euler's
recurrence for the logarithmic derivative over Python ints, and the two
are required to agree exactly.  The tests check the reference in turn
against the literal factor-by-factor product.

The expansion runs on one int32 array of limbs, index-major: shape
(N + 1, limbs) in C order, so coefficient n is sum_l limbs[n, l] 2^{R l}
and its limbs are adjacent.  A carry is balanced (it leaves small
negative values in the low limbs instead of running a borrow up the
array) and stops once its carries are at most 2^{ceil(R/2)}, so after
every carry |limb| <= h = 2^{R-1} + 2^{ceil(R/2)}; at R = 24 that takes
one step for a multiplication pass and at most two for a division block.
When a carry reaches past the array's width, the array is copied into one
several limbs wider, and at the end its all-zero top limbs are cut once.

*Signs off the limbs.*  A coefficient has the sign of its highest nonzero
limb: with |limb| <= h <= 2^R - 1, the limbs below the top one, at l < L,
sum to at most h (2^{R L} - 1)/(2^R - 1) <= 2^{R L} - 1 in magnitude, less
than one unit of the top limb.  h <= 2^R - 1 holds for every R >= 4, and
``limb_plan`` refuses smaller radices.  So the series ``expand_product``
returns keeps its limbs, read-only, and every sign scan reads one int8
array computed from them in numpy.  Its Python ints are built only when
``coeffs`` or ``coeff(n)`` is first read, by one Horner pass over the
limbs, two at a time; the limbs stay with the series.

*Radix.*  A pass by t terms, each +-1, adds at most t limbs into one int32
before its carry, which adds 2^{R-1} before shifting: a multiplication pass
sums t shifted copies, and a division pass adds at most one contribution
per term to an index's own value.  R is the largest radix with
t h + 2^{R-1} <= 2^31 - 1 for the largest t of the expansion (24 for D to
19501, with t = 177, where h = 2^23 + 2^12), so no int32 accumulation
overflows; if no R >= 4 fits, the expansion is refused.

*Division passes* y = x / T walk blocks of b indices.  The terms with
e < W = 2b are one product y_block = M [y_hist; x_block] with
M = [-PF | P]: P is the Toeplitz matrix of 1/T mod q^b and F the near
terms' reach into the W indices before the block.  It runs in float64, and
it is exact: with inputs of magnitude at most h (y_hist) and t h (x), every
row's products and partial sums are integers of magnitude at most
sum_j |M_ij| (input bound), and b halves from 64 until that is at most
2^53 (b = 32 for the moduli 2 and 3, whose 1/T grow fastest).  The product
is formed limb-major in one int64 buffer per pass, carried there with
spare limbs on top and written back transposed.  A term with e >= W reads
only final values: it sits on a due-list keyed by block, and when its
block comes it subtracts the final values [p, lo) from the targets
[p + e, lo + e) as one contiguous run of up to e rows, then moves to the
block of lo + e (the schedule of relaxed series arithmetic: J. van der
Hoeven, "Relax, but don't be too lazy", J. Symb. Comput. 34 (2002)).
Multiplication passes run first, on a limb-major copy, one shifted slice
per term, carried once per pass; the result is transposed once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, takewhile
from math import gcd
from operator import mul
from typing import NamedTuple, Sequence

import numpy as np


class TruncationMismatchError(ValueError):
    """An index range, or a second operand, beyond a series' truncation order is refused.

    Raised by the sign scans, and by the dense ``ps_mul`` of the tests' oracles.
    """


class ConstantTermError(ValueError):
    """A divisor series needs constant term exactly 1.

    Raised by ``_div_block`` for a sparse division pass, and by the dense
    ``ps_inv`` of the tests' oracles.
    """


class QSeries:
    """Truncated formal power series sum_{n<=N} coeffs[n] q^n with N = trunc_order.

    Built from ints, or by ``from_limbs`` from the engine's index-major limbs
    (``expand_product`` does), whose ints are built on the first read of
    ``coeffs`` or ``coeff(n)``: ``signs`` reads the limbs, so a sign check
    converts nothing.  Equality and hashing go by the ints.
    """

    __slots__ = ("trunc_order", "_coeffs", "_limbs", "_radix_bits", "_signs")

    def __init__(self, trunc_order: int, coeffs: Sequence[int]) -> None:
        if trunc_order < 0:
            raise ValueError("truncation order must be nonnegative")
        if len(coeffs) != trunc_order + 1:
            raise ValueError(
                f"coefficient list has length {len(coeffs)}, "
                f"expected trunc_order + 1 = {trunc_order + 1}"
            )
        self.trunc_order = trunc_order
        self._coeffs: tuple[int, ...] | None = tuple(coeffs)
        self._limbs: np.ndarray | None = None
        self._radix_bits = 0
        self._signs: np.ndarray | None = None

    @staticmethod
    def from_limbs(limbs: np.ndarray, radix_bits: int) -> "QSeries":
        """The series whose coefficient n is sum_l limbs[n, l] 2^{radix_bits l}; keeps `limbs`.

        `limbs` is index-major with every |limb| <= _limb_bound(radix_bits).
        The series makes it read-only and keeps it after the first read of
        ``coeffs`` converts it by ``limbs_to_ints``.
        """
        limbs.flags.writeable = False
        s = QSeries.__new__(QSeries)
        s.trunc_order = limbs.shape[0] - 1
        s._coeffs, s._limbs, s._radix_bits, s._signs = None, limbs, radix_bits, None
        return s

    @staticmethod
    def one(trunc_order: int) -> "QSeries":
        return QSeries(trunc_order, (1,) + (0,) * trunc_order)

    @property
    def coeffs(self) -> tuple[int, ...]:
        if self._coeffs is None:
            self._coeffs = limbs_to_ints(self._limbs, self._radix_bits)
        return self._coeffs

    def coeff(self, n: int) -> int:
        if not 0 <= n <= self.trunc_order:
            raise IndexError(f"index {n} outside truncation order {self.trunc_order}")
        return self.coeffs[n]

    @property
    def signs(self) -> np.ndarray:
        """The signs (-1/0/+1) of the coefficients, a read-only int8 array.

        Read off the limbs by ``limb_signs`` when the series was built from
        them, else off the ints; computed once.
        """
        if self._signs is None:
            if self._limbs is not None:
                signs = limb_signs(self._limbs)
            else:
                signs = np.fromiter(((c > 0) - (c < 0) for c in self._coeffs), dtype=np.int8,
                                    count=self.trunc_order + 1)
            signs.flags.writeable = False
            self._signs = signs
        return self._signs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.trunc_order == other.trunc_order and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.trunc_order, self.coeffs))

    def __repr__(self) -> str:
        return f"QSeries(trunc_order={self.trunc_order}, coeffs={self.coeffs!r})"


# ---------------------------------------------------------------------------
# product specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ProductSpec:
    """Product prod_j psi(r_j, m_j)^{delta_j} with psi(r, m) = (q^r, q^{m-r}; q^m)_inf.

    ``factors`` stays as written (a certificate hashes ``to_json``); specs
    compare and hash by ``canonical``, so one product written two ways is
    one key of every memo.
    """

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

    @cached_property
    def canonical(self) -> tuple[int, tuple[tuple[int, int, int], ...]]:
        """(level, factors) with psi(r, m) written psi(min(r, m - r), m), equal (r, m) merged.

        The merged factors are sorted and those whose deltas cancel dropped;
        the written level stays, so equal specs have equal class tables.
        """
        merged: dict[tuple[int, int], int] = {}
        for r, m, delta in self.factors:
            rm = (min(r, m - r), m)
            merged[rm] = merged.get(rm, 0) + delta
        return self.level, tuple(sorted((r, m, d) for (r, m), d in merged.items() if d))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProductSpec):
            return NotImplemented
        return self.canonical == other.canonical

    def __hash__(self) -> int:
        return hash(self.canonical)

    def to_json(self) -> str:
        return json.dumps([{"r": r, "m": m, "delta": d} for r, m, d in self.factors])

    @staticmethod
    def from_json(text: str) -> "ProductSpec":
        data = json.loads(text)
        if not isinstance(data, list):
            raise ValueError("spec literal must be a JSON array")
        keys = ("r", "m", "delta")
        for f in data:  # type(...) is int: no floats, strings or booleans
            if not (isinstance(f, dict) and all(type(f.get(key)) is int for key in keys)):
                raise ValueError(f"each factor needs integer r, m and delta, got {f!r}")
        return ProductSpec(tuple(tuple(f[key] for key in keys) for f in data))


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
# sparse triple-product engine on int32 limbs
# ---------------------------------------------------------------------------

#: largest block of a division pass; a pass halves it until its float64
#: block product is exact
_MAX_BLOCK = 64
#: blocks of history a division block product reads: its terms with
#: e < _HISTORY b join the block matrix, the longer ones stay slices
_HISTORY = 2
#: limbs a division pass's array grows by per copy, when a carry outgrows it
_WIDEN_LIMBS = 4
#: the smallest radix with h = _limb_bound(R) <= 2^R - 1, where signs read off the top limb
_MIN_RADIX_BITS = 4
#: every integer of magnitude at most 2^53 is a float64
_FLOAT64_EXACT = 1 << 53
_INT32_MAX = (1 << 31) - 1

Terms = list[tuple[int, int]]


def triple_product_terms(r: int, m: int, trunc_order: int) -> Terms:
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


def triple_product_powers(spec: ProductSpec) -> list[tuple[int, int, int]]:
    """(r, m, e) with spec = prod T(r, m)^e, T(r, m) = sum_j (-1)^j q^{rj + m j(j-1)/2}.

    Each psi factor is T(r, m) divided by (q^m; q^m)_inf, and (q^m; q^m)_inf
    is T(m, 3m) (Euler's pentagonal theorem).  The factors are the reduced
    ones of ``ProductSpec.canonical``, since T(r, m) = T(m - r, m): a factor
    written twice, or as psi(r, m) and psi(m - r, m), is one power, and
    powers that cancel give none.  The psi factors come first, sorted, then
    one (m, 3m, e) per modulus whose eta-type powers do not cancel,
    ascending in m.  A product that reduces to 1 has no powers.
    """
    factors = spec.canonical[1]
    eta_exponents: dict[int, int] = {}
    for _, m, delta in factors:
        eta_exponents[m] = eta_exponents.get(m, 0) - delta
    return [*factors, *((m, 3 * m, e) for m, e in sorted(eta_exponents.items()) if e)]


def pass_plan(spec: ProductSpec, trunc_order: int) -> tuple[list[Terms], list[Terms]]:
    """The sparse (multiplication, division) passes whose product is `spec`.

    One pass per unit of each power of ``triple_product_powers``, each a list
    of terms (e, +-1) of one triple product, ascending in e: the psi passes,
    then the eta-type corrections.  A product that reduces to 1 has none.
    """
    mul_passes: list[Terms] = []
    div_passes: list[Terms] = []
    for r, m, e in triple_product_powers(spec):
        terms = triple_product_terms(r, m, trunc_order)
        (mul_passes if e > 0 else div_passes).extend([terms] * abs(e))
    return mul_passes, div_passes


def _limb_bound(radix_bits: int) -> int:
    """Largest |limb| after a carry: h = 2^{R-1} + 2^{ceil(R/2)} (see _carry_steps)."""
    return (1 << (radix_bits - 1)) + (1 << -(-radix_bits // 2))


def _carry_steps(bound: int, radix_bits: int) -> int:
    """Balanced carry steps that bring limbs of magnitude <= bound to _limb_bound.

    One step replaces every limb v by v - c 2^R and adds c = floor((v +
    2^{R-1}) / 2^R) to the limb above.  The first carry out of a limb of
    magnitude <= B has magnitude <= (B + 2^{R-1}) >> R.  After a step whose
    carries are at most C, a limb lies in [-2^{R-1} - C, 2^{R-1} - 1 + C],
    so the next carries are at most ceil(C / 2^R).  Steps repeat until the
    carries are at most 2^{ceil(R/2)}, which leaves every limb within
    h = 2^{R-1} + 2^{ceil(R/2)}: at R = 24 a row bound below 2^{60} takes
    two steps and one below 2^{36} one.  Each step moves carries one limb
    up, so a carry runs on an array with `steps` spare limbs on top and
    none leaves it.
    """
    radix, most = 1 << radix_bits, 1 << -(-radix_bits // 2)
    steps, carry = 1, (bound + radix // 2) >> radix_bits
    while carry > most:
        steps, carry = steps + 1, (carry + radix - 1) >> radix_bits
    return steps


@lru_cache(maxsize=8)
def _carry_constants(scalar: type, radix_bits: int) -> tuple:
    """2^{R-1}, 2^R - 1 and R as scalars of the limbs' dtype, so no step converts them."""
    return scalar(1 << (radix_bits - 1)), scalar((1 << radix_bits) - 1), scalar(radix_bits)


def _carry(v: np.ndarray, radix_bits: int, steps: int) -> None:
    """Balanced carry in place along axis 0 (limbs), `steps` times (see _carry_steps).

    Adding 2^{R-1} first makes the carry a plain shift and the kept limb
    a mask, both in place; only the carries themselves are a new array.
    """
    half, mask, shift = _carry_constants(v.dtype.type, radix_bits)
    lo, hi = v[:-1], v[1:]
    for _ in range(steps):
        lo += half
        c = lo >> shift
        lo &= mask
        lo -= half
        hi += c


class _DivBlock(NamedTuple):
    """The exact block product of one division pass (see ``_div_block``)."""

    size: int
    matrix: np.ndarray
    carry_steps: int


def _div_block(terms: Terms, radix_bits: int) -> _DivBlock:
    """Block size b, the float64 matrix M^T and the carry steps of one division pass.

    The terms with e < W = _HISTORY b ("near" terms) form M = [-PF | P]: P
    is the lower triangular Toeplitz matrix of u = 1/T mod q^b and
    F[k, j] = c_t where j = W + k - e_t < W is the reach of term t from
    index k of a block into the W indices before it, so
    y_block = M [y_hist; x] with x the block's values after the far terms
    (e >= W).  A final limb has magnitude at most h = _limb_bound(R) and an
    x limb at most t h (its own value and one contribution per far term),
    so row i of the product, its terms and every partial sum are integers
    of magnitude at most sum_j |(PF)_ij| h + sum_j |P_ij| t h; b halves
    from _MAX_BLOCK until that is at most 2^53, which makes the float64
    product exact in any summation order.  At b = 1, P = [1] and F holds
    at most the term e = 1, so the halving ends.  M depends only on the
    terms below _HISTORY _MAX_BLOCK, t and R.
    """
    if terms[0] != (0, 1):
        raise ConstantTermError("sparse divisor must have constant term 1")
    near = tuple(takewhile(lambda term: term[0] < _HISTORY * _MAX_BLOCK, terms[1:]))
    return _near_block(near, len(terms), radix_bits)


@lru_cache(maxsize=16)
def _near_block(near: tuple[tuple[int, int], ...], term_count: int,
                radix_bits: int) -> _DivBlock:
    """``_div_block`` for the terms `near` of a pass of term_count terms.

    `near` holds the pass's terms with 0 < e < _HISTORY _MAX_BLOCK.
    """
    h = _limb_bound(radix_bits)
    x_bound = term_count * h
    u = [1] + [0] * (_MAX_BLOCK - 1)
    for i in range(1, _MAX_BLOCK):
        s = 0
        for e, c in near:
            if e > i:
                break
            s -= c * u[i - e]
        u[i] = s
    b = _MAX_BLOCK
    while True:
        history = _HISTORY * b
        p_rows = list(accumulate(abs(v) for v in u[:b]))
        if p_rows[-1] * x_bound <= _FLOAT64_EXACT:
            # every |u_i| <= 2^53, so P and PF are exact in int64
            toeplitz = np.subtract.outer(np.arange(b), np.arange(b))
            p = np.where(toeplitz >= 0, np.array(u[:b], dtype=np.int64)[toeplitz % b], 0)
            pf = np.zeros((b, history), dtype=np.int64)
            for e, c in near:
                if e < history:
                    reach = min(e, b)
                    pf[:, history - e:history - e + reach] += c * p[:, :reach]
            rows = [f * h + s * x_bound
                    for f, s in zip(np.abs(pf).sum(axis=1).tolist(), p_rows)]
            if max(rows) <= _FLOAT64_EXACT:
                break
        b //= 2
    matrix = np.hstack([-pf, p]).T.astype(np.float64)
    matrix.flags.writeable = False  # cached: shared by every pass that uses it
    return _DivBlock(b, matrix, _carry_steps(max(rows), radix_bits))


class LimbPlan(NamedTuple):
    """How ``expand_product`` runs one expansion.

    The passes of ``pass_plan``, the limb radix 2^radix_bits and the block
    size of each division pass.
    """

    trunc_order: int
    mul_passes: list[Terms]
    div_passes: list[Terms]
    radix_bits: int
    div_blocks: tuple[int, ...]


def limb_plan(spec: ProductSpec, trunc_order: int) -> LimbPlan:
    """The passes of `spec` to `trunc_order`, with the radix and blocks that keep them exact.

    A pass by t terms adds at most t limbs of magnitude <= h = _limb_bound(R)
    into one int32, and its carry adds 2^{R-1} before shifting; R is the
    largest radix with t h + 2^{R-1} <= 2^31 - 1 for the largest t of the
    plan.  The plan is refused if no R >= _MIN_RADIX_BITS fits: below it
    h > 2^R - 1, and a coefficient's sign is no longer that of its top
    nonzero limb (``limb_signs``).  A product that reduces to 1 has no
    passes (t = 0, R = 30), and ``expand_limbs`` returns the series 1.
    """
    n = trunc_order
    if n < 0:
        raise ValueError(f"truncation order {n} is negative")
    mul_passes, div_passes = pass_plan(spec, n)
    t = max((len(terms) for terms in mul_passes + div_passes), default=0)
    radix_bits = next((r for r in range(30, _MIN_RADIX_BITS - 1, -1)
                       if t * _limb_bound(r) + (1 << (r - 1)) <= _INT32_MAX), 0)
    if not radix_bits:
        raise ValueError(f"a pass of {t} terms leaves no int32 headroom for a radix "
                         f"of at least {_MIN_RADIX_BITS} bits")
    blocks = tuple(_div_block(terms, radix_bits).size for terms in div_passes)
    return LimbPlan(n, mul_passes, div_passes, radix_bits, blocks)


def _mul_pass(a: np.ndarray, terms: Terms, radix_bits: int) -> np.ndarray:
    """Limbs of a * sum_t c_t q^{e_t}, one shifted slice per term, carried and trimmed.

    Limb-major, shape (limbs, N + 1): each term adds one contiguous run per
    limb.  ``expand_limbs`` transposes the result once, after the last pass.
    """
    steps = _carry_steps(len(terms) * _limb_bound(radix_bits), radix_bits)
    limbs, n1 = a.shape
    out = np.zeros((limbs + steps, n1), dtype=np.int32)
    for e, c in terms:
        if c > 0:
            out[:limbs, e:] += a[:, :n1 - e]
        else:
            out[:limbs, e:] -= a[:, :n1 - e]
    _carry(out, radix_bits, steps)
    out.resize((int(np.flatnonzero(out.any(axis=1))[-1]) + 1, n1), refcheck=False)
    return out


def _div_passes(out: np.ndarray, passes: list[Terms], radix_bits: int) -> np.ndarray:
    """Divide the index-major limbs `out` by each sum_t c_t q^{e_t} (c_0 = 1) of `passes`.

    A pass walks blocks of y[i] = x[i] - sum_{t >= 1} c_t y[i - e_t].  A far
    term (e >= W = _HISTORY b) is due at the block holding the first index
    it has not yet reached: there it subtracts the final values [p, lo) from
    [p + e, lo + e), one contiguous run of rows, and becomes due again at
    the block of lo + e.  Its sources lie before the current block and its
    targets in it or later, so each slice covers up to e indices and every
    target gets its far contributions before its block runs.  The near
    terms are one exact float64 product per block over the W indices before
    it and the block itself (see ``_div_block``), carried in one int64
    buffer per pass with spare limbs on top.  When a carry reaches past the
    array's width, `out` is copied into one with _WIDEN_LIMBS - 1 zero limbs
    above the highest the carry reached (D to 19501 copies 5 times on its
    way to 21 limbs).  It runs every pass, so no caller holds a pass's input
    while it is copied, and returns the array it ends with, spare limbs
    included.
    """
    n1, used = out.shape
    for terms in passes:
        block = _div_block(terms, radix_bits)
        b, steps = block.size, block.carry_steps
        history = _HISTORY * b
        buf = np.empty((out.shape[1] + steps, b), dtype=np.int64)
        due: list[list[tuple[int, np.ufunc, int]]] = [[] for _ in range(-(-n1 // b))]
        for e, c in terms:
            if e >= history:
                due[e // b].append((e, np.subtract if c > 0 else np.add, 0))
        for k, far in enumerate(due):
            lo, hi = k * b, min(k * b + b, n1)
            for e, op, p in far:
                if lo + e < n1:
                    target = out[p + e:lo + e]
                    op(target, out[p:lo], out=target)
                    due[(lo + e) // b].append((e, op, lo))
                else:
                    target = out[p + e:]
                    op(target, out[p:n1 - e], out=target)
            y = buf[:used + steps, :hi - lo]
            _block_product(out, used, lo, hi, block, y)
            _carry(y, radix_bits, steps)
            if np.count_nonzero(y[used:]):
                used += int(np.flatnonzero(y[used:].any(axis=1))[-1]) + 1
                if used > out.shape[1]:
                    wider = np.zeros((n1, used + _WIDEN_LIMBS - 1), dtype=np.int32)
                    wider[:, :out.shape[1]] = out
                    out = wider
                    buf = np.empty((out.shape[1] + steps, b), dtype=np.int64)
            out[lo:hi, :used] = y[:used].T
    return out


def _block_product(out: np.ndarray, used: int, lo: int, hi: int, block: _DivBlock,
                   y: np.ndarray) -> None:
    """Limb-major y[:used] = M [y_hist; x] over the `used` limbs of `out`, y[used:] = 0.

    The history is the W = _HISTORY b indices before lo, fewer near the
    start of the series, where the missing ones are zero.
    """
    w, history = hi - lo, _HISTORY * block.size
    start = max(lo - history, 0)
    m = block.matrix[history - (lo - start):history + w, :w]
    y[:used] = out[start:hi, :used].T.astype(np.float64) @ m
    y[used:] = 0


def expand_limbs(plan: LimbPlan) -> np.ndarray:
    """The expansion of ``plan`` as int32 limbs, index-major: shape (N + 1, limbs), C order.

    Coefficient n is sum_l limbs[n, l] 2^{R l} with R = plan.radix_bits,
    every |limb| <= _limb_bound(R) = 2^{R-1} + 2^{ceil(R/2)}, so one
    coefficient's limbs are adjacent.  The multiplication passes run
    limb-major and are transposed once; the division passes then work on
    the array, widening it several limbs per copy.  After the last pass the
    all-zero top limbs are cut, the spare ones and any a carry reached but
    the result does not use, and the array is copied only when that cut
    takes something, so a series that keeps the limbs holds no spare ones:
    it keeps at least one limb, and its top limb is nonzero unless the
    series is 0.
    """
    acc = np.zeros((1, plan.trunc_order + 1), dtype=np.int32)
    acc[0, 0] = 1
    for terms in plan.mul_passes:
        acc = _mul_pass(acc, terms, plan.radix_bits)
    out = acc.T.copy()
    del acc
    out = _div_passes(out, plan.div_passes, plan.radix_bits)
    width = out.shape[1]
    while width > 1 and not out[:, width - 1].any():
        width -= 1
    return out[:, :width].copy() if width < out.shape[1] else out


def limbs_to_ints(limbs: np.ndarray, radix_bits: int) -> tuple[int, ...]:
    """The ints sum_l limbs[n, l] 2^{radix_bits l}, n = 0 .. rows - 1; reads `limbs` only.

    Horner's rule on Python ints over the index-major `limbs`, every row at
    once, from the top limb down, two limbs at a time: |limb| <= h =
    2^{R-1} + 2^{ceil(R/2)}, and h (1 + 2^R) < 2^60 for every R <= 30 that
    ``limb_plan`` picks, so a pair is one int64.
    """
    rows, cols = limbs.shape
    acc = np.zeros(rows, dtype=object)
    for top in range(cols, 1, -2):
        pair = limbs[:, top - 1].astype(np.int64) << radix_bits
        pair += limbs[:, top - 2]
        acc <<= 2 * radix_bits
        acc += pair
    if cols % 2:
        acc <<= radix_bits
        acc += limbs[:, 0]
    return tuple(acc.tolist())


def limb_signs(limbs: np.ndarray) -> np.ndarray:
    """The sign of each row's sum_l limbs[n, l] 2^{R l}: that of its highest nonzero limb, as int8.

    Sound while every |limb| <= _limb_bound(R) <= 2^R - 1, which holds for
    each R >= _MIN_RADIX_BITS (the module docstring, *Signs off the
    limbs*).  An all-zero row is 0.
    """
    top = limbs.shape[1] - 1 - np.argmax(limbs[:, ::-1] != 0, axis=1)
    return np.sign(limbs[np.arange(limbs.shape[0]), top]).astype(np.int8)


def expand_product(spec: ProductSpec, trunc_order: int) -> QSeries:
    """Exact expansion of prod_j (q^{r_j}, q^{m_j - r_j}; q^{m_j})_inf^{delta_j}.

    Runs the passes of ``limb_plan``, multiplications first (they keep the
    intermediate coefficients small), on one int32 array of limbs in radix
    2^R, each limb at most h = 2^{R-1} + 2^{ceil(R/2)} in magnitude after a
    carry; the array grows several limbs at a time when a carry needs it.
    R is the largest radix with t h + 2^{R-1} < 2^31 for the largest pass
    of t terms, so no int32 sum of a pass overflows.  A division pass walks
    blocks of b <= 64 indices: its terms with e >= 2b wait on a due-list
    keyed by block and run as one slice of final values each time their
    block comes; the others are one float64 block product over the block
    and the 2b indices before it, exact because b is halved until every
    partial sum is an integer below 2^53.  The module docstring gives the
    details.  The series keeps the limbs (``QSeries.from_limbs``): its
    signs are read off them, and its ints are built when first read.  The
    result is independent of factor order (all arithmetic is exact).
    """
    plan = limb_plan(spec, trunc_order)
    return QSeries.from_limbs(expand_limbs(plan), plan.radix_bits)


def expand_product_reference(spec: ProductSpec, trunc_order: int) -> QSeries:
    """Exact expansion of ``spec`` by Euler's recurrence over Python ints; the engine's reference.

    Written as prod_{d>=1} (1 - q^d)^{c_d}, where each factor (r, m, delta)
    adds delta to c_d at every d == r and every d == m - r (mod m), twice
    when r = m - r, the series has logarithmic derivative
    q F'/F = sum_j b(j) q^j with b(j) = -sum_{d | j} d c_d, so a(0) = 1 and
    n a(n) = sum_{j=1..n} b(j) a(n - j) (Apostol, *Introduction to Analytic
    Number Theory*, section 14.8).  O(N log N) for the divisor sieve and
    O(N^2) products of big ints for the recurrence; it shares nothing with
    the limb engine, and the two must agree exactly.  Each division by n
    is checked: a remainder raises ``ArithmeticError``.
    """
    n = trunc_order
    if n < 0:
        raise ValueError(f"truncation order {n} is negative")
    b = [0] * (n + 1)
    for r, m, delta in spec.factors:
        for a in (r, m - r):
            for d in range(a, n + 1, m):
                b[d] += delta
    # c_d becomes b(d) in place, d descending: b[d] still holds c_d when d is reached
    for d in range(n, 0, -1):
        w = d * b[d]
        b[d] = -w
        if w:
            for j in range(2 * d, n + 1, d):
                b[j] -= w
    coeffs = [1] + [0] * n
    for k in range(1, n + 1):
        coeffs[k], rem = divmod(sum(map(mul, b[1:k + 1], coeffs[k - 1::-1])), k)
        if rem:
            raise ArithmeticError(f"coefficient {k} of the recurrence is not an integer")
    return QSeries(n, coeffs)


# ---------------------------------------------------------------------------
# sign extraction and serialization
# ---------------------------------------------------------------------------

def _class_signs(s: QSeries, residue: int, modulus: int, lo: int,
                 hi: int) -> tuple[int, np.ndarray]:
    """(first index, signs) of the indices == residue (mod modulus) in [lo, hi].

    The signs are a strided view of ``s.signs``, after the range checks.
    """
    start = slice_indices(residue, modulus, lo, hi).start
    if hi > s.trunc_order:
        raise TruncationMismatchError(
            f"range end {hi} exceeds truncation order {s.trunc_order}"
        )
    if lo < 0 or lo > hi:
        raise ValueError(f"bad index range [{lo}, {hi}]")
    return start, s.signs[start:hi + 1:modulus]


def slice_signs(s: QSeries, residue: int, modulus: int, lo: int, hi: int) -> list[int]:
    """Signs (-1/0/+1) of coefficients at indices == residue (mod modulus) in [lo, hi].

    Read from ``QSeries.signs``, so a series that holds limbs converts nothing.
    """
    return _class_signs(s, residue, modulus, lo, hi)[1].tolist()


def slice_indices(residue: int, modulus: int, lo: int, hi: int) -> range:
    if modulus < 1:
        raise ValueError("modulus must be positive")
    start = lo + (residue - lo) % modulus
    return range(start, hi + 1, modulus)


def sign_exceptions(s: QSeries, residue: int, modulus: int, lo: int, hi: int,
                    sign: int) -> list[int]:
    """Ascending indices == residue (mod modulus) in [lo, hi] whose sign is not `sign`.

    The one exact sign scan: every finite sign check goes through here, with
    the range checks of ``slice_signs``; one numpy comparison over the
    class's slice of ``QSeries.signs``.
    """
    start, signs = _class_signs(s, residue, modulus, lo, hi)
    return (start + modulus * np.flatnonzero(signs != sign)).tolist()
