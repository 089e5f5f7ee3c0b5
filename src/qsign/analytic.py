"""Certified Bessel main terms, explicit error bounds and dominance checks.

Every function here takes a ``ProductSpec``; names are resolved in ``certify``
and ``cli``, and the claims (which residue class, which sign) live in
``certify.TARGETS``.  Main terms come from the spec's modular data (circle
method for eta quotients: Rademacher 1937, Zuckerman 1939).  The Farey arcs
h/k of the Lpos classes with maximal Delta/k^2 dominate, with class constants
c_h = e^{pi i t_h} prod (1 - e^{2 pi i x})^delta (t_h and the Pi factors from
``modular``).  With k, Delta and Omega from ``MainTermData``,

    M(n) = a I_1(y) / sqrt(x),   a = (2 pi/k) sqrt(Delta/24) Re S_r,
    y = (pi/6k) sqrt(24 Delta x),   S_r = sum_h c_h e^{-2 pi i r h/k},

r = n mod k, x = n + Omega/24; an S_r not certified real is refused.  The
factors of one arc (a / Re S_r, y and sqrt(x)) have one formula,
``arc_bessel``, shared with ``circle.lemma_arc_integral``, the diagnostic
that integrates one Farey arc numerically.  All registered specs have
k = 5, with Delta = 24 (A, B, C, D) or 24/5 (c, d).  For A, B and D the
coefficient is M(n) plus an error of magnitude at most

    E(n) = C + (2 pi^{5/4} / 5) * e^{(2 pi/5) sqrt(x)} * sqrt(x)      (n >= 20)

in every residue class, C the paper's constant in ``ERROR_CONSTANTS``, keyed
by spec content (an inline spec equal to A, B or D has it too).  E is stated
only for k = 5, Delta = 24: ``error_bound`` refuses other arcs and specs
without a C, and so does everything that needs E.  Certified verdicts
compare the enclosures of |M| and E: "true" only when they separate
strictly, "unknown" when they still overlap at the end of
``precision_schedule``.

The modified Bessel function I_{-1} = I_1 is evaluated from its power
series with a certified geometric tail bound; the two-sided exponential
bounds (1/10) e^x/sqrt(x) < I_{-1}(x) < sqrt(pi/8) e^x/sqrt(x) for x >= 3
drive the eventual-dominance certificates: with y = (4 pi/5) sqrt(x) the
lower bound turns |M(n)| into K x^{-3/4} e^y, whose ratio against E(n) is
provably nondecreasing once sqrt(x) > 25/(4 pi), so a single certified
comparison at the threshold extends to every larger index in the class.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Callable, Literal, Union

import mpmath
from mpmath.libmp import fone, mpf_abs, mpf_gt, mpf_le, mpf_shift

from .enclosure import DEFAULT_PRECISION, ComplexHP, Enclosure, e_pi_i_half_turns, pi_factor_value
from .modular import class_deltas, class_representative, omega_exact, transform_data
from .qseries import ProductSpec, registered_spec

Verdict = Union[bool, Literal["unknown"]]


class UsageError(ValueError):
    pass


class CertificateRefused(RuntimeError):
    """Eventual-dominance preconditions not met."""


# ---------------------------------------------------------------------------
# Bessel I_{-1} = I_1
# ---------------------------------------------------------------------------

#: the most series terms ``bessel_im1`` sums before it adds the tail bound
_BESSEL_TERM_CAP = 200_000


def _at_most_relative(a: mpmath.mpf, b: mpmath.mpf, bits: int) -> bool:
    """a <= 2^-bits max(1, |b|), compared exactly, whatever mpmath's ``mp.prec``."""
    scale = mpf_abs(b._mpf_)
    return mpf_le(a._mpf_, mpf_shift(scale if mpf_gt(scale, fone) else fone, -bits))


def bessel_im1(x: Enclosure) -> Enclosure:
    """Enclosure of I_{-1}(x) = I_1(x) = sum_{j>=0} (x/2)^{2j+1} / (j! (j+1)!).

    The m = 0 term of the order -1 series vanishes (1/Gamma(0) = 0), which is
    why the order -1 and order +1 series coincide; the series here is indexed
    so that every term is present.  After summing through term M the
    remainder is bounded by the geometric series u_M * r/(1 - r) with
    r = (x/2)^2 / ((M+1)(M+2)), accepted once r < 1/2 and the upper end of
    u_M is at most 2^-(bits + 16) max(1, |sum|), a test made exactly.  The
    tail is always added, so the result is a valid enclosure even when the
    term cap stops refinement early (the interval just stays wide).
    """
    if x.lo < 0:
        raise UsageError("bessel_im1 needs x >= 0")
    half = x / 2
    half_sq = half * half
    term = half  # u_0
    total = term
    j = 0
    while j < _BESSEL_TERM_CAP:
        ratio_hi = half_sq / ((j + 1) * (j + 2))
        if ratio_hi.hi < 0.5 and _at_most_relative(term.hi, total.hi, x.bits + 16):
            break
        j += 1
        term = term * half_sq / (j * (j + 1))
        total = total + term
    r = half_sq / ((j + 1) * (j + 2))
    if r.hi >= 1:
        raise UsageError("term cap too small for this argument")
    tail_hi = (term * r / (1 - r)).hi
    return total + Enclosure.from_endpoints(0, max(0, tail_hi), x.bits)


def wang_lower(x: Enclosure) -> Enclosure:
    """(1/10) e^x / sqrt(x); a strict lower bound for I_{-1}(x) when x >= 3."""
    return x.exp() / (10 * x.sqrt())


# ---------------------------------------------------------------------------
# main terms derived from the modular data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MainTermData:
    """Exact data of a spec's dominant arcs h/k: (h, t_h, Pi factors) per arc."""

    k: int
    delta: Fraction
    omega: Fraction       # the Bessel variable is x = n + omega/24
    arcs: tuple[tuple[int, Fraction, tuple[tuple[Fraction, int], ...]], ...]


def main_term_data(spec: ProductSpec) -> MainTermData:
    """Arcs h/k of the Lpos classes with maximal Delta/k^2 (growth I_1((pi/6k) sqrt(24 Delta x))).

    k is the classes' smallest denominator, which they must share.  Memoized
    by the factors as written, not by spec equality: equal specs written
    apart share k, Delta and Omega, but their arcs may list Pi factors in
    another order, and each spec's enclosures stay those of its own factors.
    """
    return _main_term_data(spec.factors)


@lru_cache(maxsize=32)
def _main_term_data(factors: tuple[tuple[int, int, int], ...]) -> MainTermData:
    spec = ProductSpec(factors)
    ranked = []  # (Delta/k^2, k, l, aleph), k the class's smallest denominator
    for aleph, l, level_delta in class_deltas(spec):
        if level_delta > 0:
            _, k = class_representative(spec, aleph, l)
            ranked.append((Fraction(level_delta, spec.level * k * k), k, l, aleph))
    if not ranked:
        raise CertificateRefused("no class with Delta > 0: the coefficients do not grow")
    best = max(ranked)[0]
    dominant = {(k, l, aleph) for ratio, k, l, aleph in ranked if ratio == best}
    if len({(k, l) for k, l, _ in dominant}) > 1:
        raise CertificateRefused(f"dominant arcs at several denominators: {sorted(dominant)}")
    k, l, _ = min(dominant)
    alephs = {aleph for _, _, aleph in dominant}
    tds = [transform_data(spec, h, k) for h in range(k) if gcd(h, k) == 1 and h % l in alephs]
    arcs = tuple((td.h, td.prefactor_phase(), td.pi_factors()) for td in tds)
    return MainTermData(k, best * k * k, omega_exact(spec), arcs)


def _const_ab(bits: int) -> Enclosure:
    # (2 e^54 + e^{8 pi} + 185) e^2
    c = 2 * Enclosure.exp_of(54, bits) + (8 * Enclosure.pi(bits)).exp() + 185
    return c * Enclosure.exp_of(2, bits)


def _const_d(bits: int) -> Enclosure:
    # e^332 + e^272 + e^{8 pi + 2}
    return (Enclosure.exp_of(332, bits) + Enclosure.exp_of(272, bits)
            + (8 * Enclosure.pi(bits) + 2).exp())


#: the paper's constant C of E(n) per spec content, built per call at the given bits
ERROR_CONSTANTS: dict[ProductSpec, Callable[[int], Enclosure]] = {
    registered_spec(name): const for name, const in (("A", _const_ab), ("B", _const_ab),
                                                     ("D", _const_d))}


def _x_of(spec: ProductSpec, n: int) -> Fraction:
    x = n + main_term_data(spec).omega / 24
    if x <= 0:
        raise UsageError(f"spec {spec.factors} needs x = n + Omega/24 > 0, got {x} at n = {n}")
    return x


def class_constant(spec: ProductSpec, r: int, bits: int = DEFAULT_PRECISION) -> Enclosure:
    """Re S_r, S_r = sum_h c_h e^{-2 pi i r h/k}; refused unless Im S_r contains 0."""
    s = _class_sum(spec.factors, r, bits)
    if not s.im.contains(0):
        raise CertificateRefused(f"spec {spec.factors}: Im S_{r} = {s.im!r} excludes 0")
    return s.re


@lru_cache(maxsize=64)
def _class_sum(factors: tuple[tuple[int, int, int], ...], r: int, bits: int) -> ComplexHP:
    """S_r at `bits` bits, memoized by the written factors (see ``main_term_data``)."""
    data = _main_term_data(factors)
    s = ComplexHP.from_fractions(0, 0, bits)
    for h, t, pi_factors in data.arcs:
        s = s + (e_pi_i_half_turns(t - Fraction(2 * r * h, data.k), bits)
                 * pi_factor_value(pi_factors, bits))
    return s


def arc_bessel(k: int, delta: Fraction, x: Fraction,
               bits: int) -> tuple[Enclosure, Enclosure, Enclosure]:
    """(a, y, sqrt(x)) of one arc: a = (2 pi/k) sqrt(Delta/24), y = (pi/6k) sqrt(24 Delta x)."""
    sx = Enclosure.from_fraction(x, bits).sqrt()
    a = 2 * Enclosure.pi(bits) / k * Enclosure.from_fraction(delta / 24, bits).sqrt()
    y = Enclosure.from_fraction(24 * delta, bits).sqrt() * Enclosure.pi(bits) / (6 * k) * sx
    return a, y, sx


def _bessel_form(spec: ProductSpec, n: int, bits: int) -> tuple[Enclosure, Enclosure, Enclosure]:
    """(a Re S_r, y, sqrt(x)) with M(n) = a Re S_r I_1(y) / sqrt(x) (module docstring)."""
    data = main_term_data(spec)
    a, y, sx = arc_bessel(data.k, data.delta, _x_of(spec, n), bits)
    return a * class_constant(spec, n % data.k, bits), y, sx


# ---------------------------------------------------------------------------
# main term and error bound
# ---------------------------------------------------------------------------

def main_term(spec: ProductSpec, n: int, bits: int = DEFAULT_PRECISION) -> Enclosure:
    """Enclosure of M(n) = a I_1(y) / sqrt(x) at any dominant arc (module docstring)."""
    a, y, sx = _bessel_form(spec, n, bits)
    return a * bessel_im1(y) / sx


def error_bound(spec: ProductSpec, n: int, bits: int = DEFAULT_PRECISION) -> Enclosure:
    """Upper enclosure of E(n) (module docstring); requires n >= 20.

    Stated for arcs at k = 5 with Delta = 24 and the specs with a C in
    ``ERROR_CONSTANTS``; others are refused.  Exact checks cover n < 20.
    """
    if n < 20:
        raise UsageError("error bound stated only for n >= 20")
    x = _x_of(spec, n)
    data = main_term_data(spec)
    if data.k != 5 or data.delta != 24:
        raise CertificateRefused(f"spec {spec.factors}: dominant arcs at k = {data.k} with "
                                 f"Delta = {data.delta}; the error bound needs k = 5, Delta = 24")
    if spec not in ERROR_CONSTANTS:
        raise CertificateRefused(f"spec {spec.factors}: no explicit error constant; "
                                 f"the paper states one for A, B and D")
    return ERROR_CONSTANTS[spec](bits) + _error_growth(Enclosure.from_fraction(x, bits))


def _error_growth(x: Enclosure) -> Enclosure:
    coef = 2 * Enclosure.pi(x.bits).pow_fraction(Fraction(5, 4)) / 5
    return coef * (2 * Enclosure.pi(x.bits) / 5 * x.sqrt()).exp() * x.sqrt()


@dataclass(frozen=True)
class DominanceResult:
    verdict: Verdict
    main: Enclosure
    bound: Enclosure


#: the highest precision any escalation reaches
PRECISION_CAP = 1024


def precision_schedule(start_bits: int) -> tuple[int, ...]:
    """The precisions to try in turn: start_bits, then doublings up to PRECISION_CAP.

    A start outside [8, PRECISION_CAP] is refused here, before anything runs.
    """
    if not 8 <= start_bits <= PRECISION_CAP:
        raise UsageError(f"precision {start_bits} bits outside [8, {PRECISION_CAP}]")
    bits = [start_bits]
    while bits[-1] < PRECISION_CAP:
        bits.append(min(2 * bits[-1], PRECISION_CAP))
    return tuple(bits)


def dominance(spec: ProductSpec, n: int, start_bits: int = DEFAULT_PRECISION) -> DominanceResult:
    """Certified comparison |M(n)| > E(n) at index n, in any residue class.

    Tried along ``precision_schedule(start_bits)``: True/False at the first
    precision where the enclosures separate strictly, "unknown" when they
    still overlap at PRECISION_CAP.
    """
    for bits in precision_schedule(start_bits):
        m = main_term(spec, n, bits)
        e = error_bound(spec, n, bits)
        am = abs(m)
        if am.strictly_greater(e):
            return DominanceResult(True, m, e)
        if am.strictly_less(e):
            return DominanceResult(False, m, e)
    return DominanceResult("unknown", m, e)


# ---------------------------------------------------------------------------
# eventual dominance
# ---------------------------------------------------------------------------

def wang_main_lower(spec: ProductSpec, n: int, bits: int = DEFAULT_PRECISION) -> Enclosure:
    """Elementary lower bound for |M(n)| via the e^x/sqrt(x) bound.

    |M(n)| >= |a| x^{-1/2} * (1/10) e^y / sqrt(y) with a and
    y = (pi/6k) sqrt(24 Delta x) as in ``main_term``; valid when y >= 3.
    """
    a, y, sx = _bessel_form(spec, n, bits)
    if y.lo < 3:
        raise UsageError("lower bound needs the Bessel argument (pi/6k) sqrt(24 Delta x) >= 3")
    return abs(a) * wang_lower(y) / sx


@dataclass(frozen=True)
class EventualDominanceCertificate:
    """Machine-checkable record: dominance at a threshold plus monotone extension.

    The claim is |M(n)| > E(n) for every n >= n0 in one residue class mod k,
    k of ``main_term_data`` (Re S_r is constant there).  ``first_index`` is
    the smallest such n; the certified Wang-route comparison runs at
    x0 = x(first_index).  A certificate is only issued once
    sqrt(x0) > 25/(4 pi) is certified (which implies the weaker 15/(8 pi)
    condition); under it both x^{-3/4} e^{(4 pi/5) sqrt(x)} / const and
    x^{-5/4} e^{(2 pi/5) sqrt(x)} have positive log-derivative, the sum of
    their nonincreasing reciprocals is nonincreasing, so the ratio (Wang
    lower bound of |M|) / E is nondecreasing in x and the strict comparison
    at x0 extends to every later index in the class.
    """

    n0: int
    first_index: int
    x0: Fraction
    wang_main_lo: str
    bound_hi: str
    precision_bits: int   # the bits of the enclosures behind wang_main_lo and bound_hi


def eventual_dominance_certificate(spec: ProductSpec, residue: int, n0: int,
                                   bits: int = DEFAULT_PRECISION) -> EventualDominanceCertificate:
    """Certify |M(n)| > E(n) for every n >= n0 with n = residue (mod k) at `bits`, or refuse."""
    if n0 < 20:
        raise CertificateRefused("threshold below the error bound's validity (n >= 20)")
    first = n0 + (residue - n0) % main_term_data(spec).k
    x0 = _x_of(spec, first)
    # monotonicity precondition sqrt(x0) > 25/(4 pi), certified strictly
    lhs = Enclosure.from_fraction(Fraction(625, 16), bits) / Enclosure.pi(bits).square()
    if not lhs.strictly_less(Enclosure.from_fraction(x0, bits)):
        raise CertificateRefused("monotonicity precondition sqrt(x0) > 25/(4 pi) fails")
    bound = error_bound(spec, first, bits)
    wang_lo = wang_main_lower(spec, first, bits)
    if not wang_lo.strictly_greater(bound):
        raise CertificateRefused(
            f"Wang-route dominance at index {first} not certified "
            f"(lower {wang_lo!r} vs bound {bound!r})"
        )
    return EventualDominanceCertificate(
        n0=n0, first_index=first, x0=x0,
        wang_main_lo=wang_lo.str_lo(30), bound_hi=bound.str_hi(30),
        precision_bits=wang_lo.bits,
    )
