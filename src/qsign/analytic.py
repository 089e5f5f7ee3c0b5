"""Certified Bessel main terms, explicit error bounds and dominance checks.

Every function here takes a ``ProductSpec``; names are resolved in ``certify``
and ``cli``, and the claims (which residue class, which sign) live in
``certify.TARGETS``.  A spec is read by content: ``main_term_data`` works
from its reduced factors (``ProductSpec.canonical``) and every memo here is
keyed by the spec, so one product written two ways reads bit-identical
enclosures.  Main terms come from the spec's modular data (circle
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

    E(n) = C + (2 pi^{5/4} / 5) e^{y/2} sqrt(x)      (n >= 20)

in every residue class, on M's own y = (4 pi/5) sqrt(x) and sqrt(x), with C
the paper's constant in ``ERROR_CONSTANTS``, keyed by the reduced factors
``ProductSpec.canonical[1]``, as the main term is (an inline spec that
reduces to A, B or D has it too, whatever level it is written at).
``error_constant`` is the one lookup of C, and refuses a spec without one
for everything that needs E.  Certified verdicts compare the enclosures of
|M| and E: "true" only when they separate strictly, "unknown" when they
still overlap at the end of ``precision_schedule``.

The modified Bessel function I_{-1} = I_1 is evaluated from its power
series with a certified geometric tail bound; the two-sided exponential
bounds (1/10) e^y/sqrt(y) < I_{-1}(y) < sqrt(pi/8) e^y/sqrt(y) for y >= 3
drive the eventual-dominance certificates, whose monotone extension
(``EventualDominanceCertificate``) needs only y > 5 at the threshold.
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


@lru_cache(maxsize=32)
def main_term_data(spec: ProductSpec) -> MainTermData:
    """Arcs h/k of the Lpos classes with maximal Delta/k^2 (growth I_1((pi/6k) sqrt(24 Delta x))).

    k is the classes' smallest denominator, which they must share.  Computed
    from the reduced factors ``spec.canonical[1]`` (their level is lower when
    a modulus cancels) and memoized by the spec, so every spelling of one
    product reads the same data; a product that reduces to 1 does not grow.
    """
    ranked = []  # (Delta/k^2, k, l, aleph), k the class's smallest denominator
    if spec.canonical[1]:
        spec = ProductSpec(spec.canonical[1])
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


#: the paper's constant C of E(n) per product, keyed by its reduced factors
#: (``ProductSpec.canonical[1]``), built per call at the given bits
ERROR_CONSTANTS: dict[tuple[tuple[int, int, int], ...], Callable[[int], Enclosure]] = {
    registered_spec(name).canonical[1]: const
    for name, const in (("A", _const_ab), ("B", _const_ab), ("D", _const_d))}


def error_constant(spec: ProductSpec) -> Callable[[int], Enclosure]:
    """The C of the spec's E(n) from ``ERROR_CONSTANTS``; a spec without one is refused."""
    const = ERROR_CONSTANTS.get(spec.canonical[1])
    if const is None:
        data = main_term_data(spec)
        raise CertificateRefused(f"spec {spec.factors}: no explicit error constant for arcs at "
                                 f"k = {data.k} with Delta = {data.delta}; the paper's E(n) "
                                 f"needs k = 5, Delta = 24 and states C for A, B and D")
    return const


def _x_of(spec: ProductSpec, n: int) -> Fraction:
    x = n + main_term_data(spec).omega / 24
    if x <= 0:
        raise UsageError(f"spec {spec.factors} needs x = n + Omega/24 > 0, got {x} at n = {n}")
    return x


def class_constant(spec: ProductSpec, r: int, bits: int = DEFAULT_PRECISION) -> Enclosure:
    """Re S_r, S_r = sum_h c_h e^{-2 pi i r h/k}; refused unless Im S_r contains 0."""
    s = _class_sum(spec, r, bits)
    if not s.im.contains(0):
        raise CertificateRefused(f"spec {spec.factors}: Im S_{r} = {s.im!r} excludes 0")
    return s.re


@lru_cache(maxsize=64)
def _class_sum(spec: ProductSpec, r: int, bits: int) -> ComplexHP:
    """S_r at `bits` bits over the arcs of ``main_term_data``, memoized by the spec."""
    data = main_term_data(spec)
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


@lru_cache(maxsize=16)
def _bessel_form(spec: ProductSpec, n: int, bits: int) -> tuple[Enclosure, Enclosure, Enclosure]:
    """(a Re S_r, y, sqrt(x)) of M(n) = a Re S_r I_1(y) / sqrt(x), memoized by the spec."""
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
    """Upper enclosure of E(n) on the main term's y and sqrt(x) (module docstring).

    Requires n >= 20 (exact checks cover n < 20) and a C (``error_constant``).
    """
    if n < 20:
        raise UsageError("error bound stated only for n >= 20")
    const = error_constant(spec)
    _, y, sx = _bessel_form(spec, n, bits)
    coef = 2 * Enclosure.pi(bits).pow_fraction(Fraction(5, 4)) / 5
    return const(bits) + coef * (y / 2).exp() * sx


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
        e = error_bound(spec, n, bits)
        m = main_term(spec, n, bits)
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
    the smallest such n; the certified comparison at x0 = x(first_index) is
    against L, ``wang_main_lower``.  With y = c sqrt(x), c = (pi/6k) sqrt(24 Delta),

        L = |a| (1/10) e^y y^{-1/2} / sqrt(x) = K y^{-3/2} e^y,   K = |a| c / 10,
        E / L = (C/K) y^{3/2} e^{-y} + (2 pi^{5/4} / (5 K c)) y^{5/2} e^{-y/2}.

    With C >= 0 the terms have log-derivatives 3/(2y) - 1 and 5/(2y) - 1/2 in
    y, both negative once y > 5 (so y > 3/2, and the Wang bound's y >= 3).
    So once y0 = y(x0) > 5 is certified, E / L decreases along the class and
    L > E at x0 extends to every later index.  This holds for any k and
    Delta; at k = 5, Delta = 24 it reads sqrt(x0) > 25/(4 pi).
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
    bound = error_bound(spec, first, bits)
    _, y0, _ = _bessel_form(spec, first, bits)
    if not y0.strictly_greater(5):
        raise CertificateRefused(f"monotonicity precondition y0 > 5 fails at index {first}: "
                                 f"y0 = {y0!r}")
    wang_lo = wang_main_lower(spec, first, bits)
    if not wang_lo.strictly_greater(bound):
        raise CertificateRefused(
            f"Wang-route dominance at index {first} not certified "
            f"(lower {wang_lo!r} vs bound {bound!r})"
        )
    return EventualDominanceCertificate(
        n0=n0, first_index=first, x0=_x_of(spec, first),
        wang_main_lo=wang_lo.str_lo(30), bound_hi=bound.str_hi(30),
        precision_bits=wang_lo.bits,
    )
