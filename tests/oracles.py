"""Definitional oracles and paper-lemma checks that the package is tested against.

None of this is on the proof's path: each function recomputes a quantity of
``qsign`` by its definition (a direct sum, a literal product, a symbolic
Moebius evaluation, a defining series) or checks a lemma of the paper, so
that the tests can compare the engine with an independent route.  Only
public ``qsign`` names are used here.

* analytic: the upper Bessel bound and its two-sided check, the
  majorization of reciprocal double Pochhammer products, and the
  doubly-colored partition counts;
* modular: sawtooth, direct Dedekind sums, the matrix gamma and hbar, the
  pair (lambda, lambda*), the Moebius action by raw algebra and the whole
  transformation record from the Fraction formulas;
* circle: theta by its defining series over half-integers, and the node
  values (by Pochhammer products, the definition, and by triple-product
  sums) and estimates of the diagnostic quadrature by plain mpmath complex
  arithmetic;
* qseries: the dense Cauchy product and inverse, single Pochhammer
  symbols and whole products factor by factor (the literal product is the
  check of ``expand_product_reference``, Euler's recurrence), and the
  Rogers-Ramanujan sum sides.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, log, pi

import mpmath
import numpy as np
from mpmath import mp
from mpmath.libmp import mpf_neg

from qsign.analytic import UsageError, Verdict, bessel_im1, wang_lower
from qsign.circle import ConvergenceRefused
from qsign.enclosure import ComplexHP, Enclosure, cexp, one, zero
from qsign.modular import FactorTransform, GammaMatrix, NotCoprimeError, TransformData
from qsign.qseries import ConstantTermError, ProductSpec, QSeries, TruncationMismatchError


# ---------------------------------------------------------------------------
# analytic: Bessel bounds
# ---------------------------------------------------------------------------

def wang_upper(x: Enclosure) -> Enclosure:
    """sqrt(pi/8) e^x / sqrt(x); a strict upper bound for I_{-1}(x) when x >= 3."""
    return (Enclosure.pi() / 8).sqrt() * x.exp() / x.sqrt()


def wang_bounds_hold(x: Enclosure) -> Verdict:
    """Certified check that I_{-1}(x) lies strictly inside the two-sided bounds."""
    if x.lo < 3:
        raise UsageError("the two-sided bounds require x >= 3")
    val = bessel_im1(x)
    lo, hi = wang_lower(x), wang_upper(x)
    if lo.strictly_less(val) and val.strictly_less(hi):
        return True
    if val.strictly_less(lo) or hi.strictly_less(val):
        return False
    return "unknown"


# ---------------------------------------------------------------------------
# analytic: majorization of reciprocal double Pochhammer products
# ---------------------------------------------------------------------------

class MajorizationRefused(RuntimeError):
    """Parameters too close to 1 for the certified tail bound."""


def majorization_check(alpha: Fraction, beta: Fraction, x: Fraction,
                       refusal_hi: float = 0.99) -> bool:
    """Certified check of 1/((a; x)_inf (b; x)_inf) <= exp(a/(1-a) + a x/(1-x)^2 + ...).

    The infinite product is enclosed with the tail bound
    0 <= -sum_{k>=K} log(1-y x^k) <= y x^K / ((1 - y x^K)(1 - x)); the
    comparison uses interval endpoints, so True is a certificate.
    """
    for v in (alpha, beta, x):
        if not 0 <= v < 1:
            raise UsageError("parameters must lie in [0, 1)")
        if float(v) > refusal_hi:
            raise MajorizationRefused(f"parameter {v} too close to 1")
    a, b, xx = map(Enclosure.from_fraction, (alpha, beta, x))
    prod = one()
    xk = one()
    for _ in range(400):
        prod = prod * (1 - a * xk) * (1 - b * xk)
        xk = xk * xx
        if xk.hi == 0:
            break
    # tail of -log of the remaining factors
    tail = zero()
    if xk.hi != 0:
        for y in (a, b):
            yxk = y * xk
            if not (1 - yxk).is_positive() or not (1 - xx).is_positive():
                raise MajorizationRefused("tail bound degenerates")
            tail = tail + yxk / ((1 - yxk) * (1 - xx))
    lhs = Enclosure.from_endpoints(1, 1) / prod * Enclosure.from_endpoints(0, tail.hi).exp()
    rhs = (a / (1 - a) + a * xx / ((1 - xx) * (1 - xx))
           + b / (1 - b) + b * xx / ((1 - xx) * (1 - xx))).exp()
    return bool(lhs.hi <= rhs.lo)


# ---------------------------------------------------------------------------
# analytic: colored partition counts
# ---------------------------------------------------------------------------

def colored_partition_majorant(eta: int, s: int, t: int, n: int,
                               max_n: int = 60) -> tuple[int, int]:
    """(p*, |d*|) for the doubly-colored partition counts at (s, t, n).

    p*_eta(s, t; n) counts pairs (R, B) where R is a multiset of s parts
    (value >= 0, one of eta shades) and B a multiset of t parts in eta blue
    shades, all values summing to n -- the coefficient of z^s w^t q^n in
    (1/((z; q)_inf (w; q)_inf))^eta.  d*_eta is the signed analogue from
    ((z; q)_inf (w; q)_inf)^eta, whose coefficient is (-1)^{s+t} times the
    count of pairs of *sets* of distinct (value, shade) parts, so
    |d*| <= p* holds term by term.  Both counts come from the exact
    power-series recurrence of ``_colored_counts``; nothing is kept between
    calls.
    """
    if eta < 1:
        raise UsageError("eta must be a positive integer")
    if n > max_n or min(s, t, n) < 0:
        raise UsageError("parameter outside the enumeration guard")
    p = _colored_pairs(eta, s, t, n, distinct=False)
    d = _colored_pairs(eta, s, t, n, distinct=True)
    return p, d


def _colored_pairs(eta: int, s: int, t: int, n: int, distinct: bool) -> int:
    counts = _colored_counts(eta, max(s, t), n, distinct)
    return sum(counts[s][j] * counts[t][n - j] for j in range(n + 1))


def _colored_counts(eta: int, slots: int, n: int, distinct: bool) -> list[list[int]]:
    """F[c][m]: multisets (sets if `distinct`) of c pairs (value, shade) with value sum m.

    sum_c F_c z^c is prod_{v>=0} (1 - z q^v)^{-eta}, or (1 + z q^v)^eta for
    sets, which is exp(sum_k g_k z^k / k) with g_k = +-eta/(1 - q^k) (minus
    for even k in the set case).  So c F_c = sum_{k=1..c} g_k F_{c-k}, where
    dividing by 1 - q^k is a running sum along each residue class mod k; the
    division by c is exact.
    """
    rows = [[1] + [0] * n]
    for c in range(1, slots + 1):
        acc = [0] * (n + 1)
        for k in range(1, c + 1):
            part = list(rows[c - k])
            for m in range(k, n + 1):
                part[m] += part[m - k]
            sign = -1 if distinct and k % 2 == 0 else 1
            acc = [a + sign * b for a, b in zip(acc, part)]
        rows.append([eta * a // c for a in acc])
    return rows


# ---------------------------------------------------------------------------
# modular: sawtooth and direct Dedekind sums
# ---------------------------------------------------------------------------

def sawtooth(x: Fraction | int) -> Fraction:
    """((x)) = x - floor(x) - 1/2 for non-integer x, 0 for integer x."""
    x = Fraction(x)
    if x.denominator == 1:
        return Fraction(0)
    return x - (x.numerator // x.denominator) - Fraction(1, 2)


def dedekind_sum_direct(d: int, c: int) -> Fraction:
    """Definitional O(c) evaluation of s(d, c) in integer arithmetic.

    For 0 < a < c the sawtooth ((a/c)) equals (2a - c)/(2c), so

        s(d, c) = [ sum_{n=1}^{c-1} (2 (dn mod c) - c)(2n - c) ] / (4 c^2),

    where the terms with c | dn vanish automatically since gcd(d, c) = 1.
    """
    if c < 1:
        raise ValueError("modulus c must be positive")
    if gcd(d % c if c > 1 else 1, c) != 1 and c > 1:
        raise NotCoprimeError(f"gcd({d}, {c}) != 1")
    total = 0
    for n in range(1, c):
        total += (2 * ((d * n) % c) - c) * (2 * n - c)
    return Fraction(total, 4 * c * c)


def dedekind_sums_direct_all(c: int) -> dict[int, Fraction]:
    """Definitional sums s(d, c) for every 1 <= d < c with gcd(d, c) = 1.

    Same formula as ``dedekind_sum_direct``, vectorized over n for the
    full-range verification sweeps.
    """
    if c == 1:
        return {0: Fraction(0)}
    n = np.arange(1, c, dtype=np.int64)
    w = 2 * n - c
    out: dict[int, Fraction] = {}
    for d in range(1, c):
        if gcd(d, c) == 1:
            total = int((((d * n) % c) * 2 - c).dot(w))
            out[d] = Fraction(total, 4 * c * c)
    return out


# ---------------------------------------------------------------------------
# modular: matrices, (lambda, lambda*) and the Moebius action
# ---------------------------------------------------------------------------

def hbar_of(m: int, h: int, k: int) -> int:
    """Smallest nonnegative hbar with hbar * m'h = -1 (mod k'); 0 when k' = 1.

    Found by search over [0, k'), independently of the package's inverse.
    """
    if not 0 <= h < k:
        raise ValueError("need 0 <= h < k")
    if gcd(h, k) != 1:
        raise NotCoprimeError(f"gcd({h}, {k}) != 1")
    d = gcd(m, k)
    mp_, kp = m // d, k // d
    return next(hb for hb in range(kp) if (hb * mp_ * h + 1) % kp == 0)


def gamma_of(m: int, h: int, k: int) -> GammaMatrix:
    """Matrix (hbar, -b; k', -m'h) attached to modulus m and Farey fraction h/k."""
    d = gcd(m, k)
    mp_, kp = m // d, k // d
    hb = hbar_of(m, h, k)
    b = (hb * mp_ * h + 1) // kp
    return GammaMatrix(hb, -b, kp, -mp_ * h)


def lambda_pair(m: int, r: int, h: int, k: int) -> tuple[int, Fraction]:
    """(lambda, lambda*) = (ceil(rh/d), lambda - rh/d) with d = gcd(m, k)."""
    if not 1 <= r < m:
        raise ValueError("need 1 <= r < m")
    if not (0 <= h < k) or gcd(h, k) != 1:
        raise ValueError("need 0 <= h < k coprime")
    d = gcd(m, k)
    lam = -((-r * h) // d)
    return lam, Fraction(lam) - Fraction(r * h, d)


def gamma_action_coeffs(m: int, h: int, k: int, r: int,
                        hbar_offset: int = 0) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(tau_const, tau_wcoef, sigma-part-const, sigma-part-wcoef) by raw Moebius algebra.

    Evaluates gamma(m tau) and r tau gamma*(m tau) at tau = (h + iz)/k
    symbolically: numerator and denominator are linear in iz, the denominator
    has zero constant term, and (A + B iz)/(D iz) = B/D + (A/D)(1/(iz)) with
    1/(iz) = -i/z.  Returns coefficients of 1 and of w = i/z; the closed
    forms of ``modular.FactorTransform`` must agree exactly.
    """
    d = gcd(m, k)
    mp_, kp = m // d, k // d
    hb = hbar_of(m, h, k) + hbar_offset * kp
    b = (hb * mp_ * h + 1) // kp
    # gamma(m tau): numerator hbar*m*tau - b, denominator k'*m*tau - m'h
    num_const = Fraction(hb * m * h, k) - b
    num_iz = Fraction(hb * m, k)
    den_const = Fraction(kp * m * h, k) - mp_ * h
    den_iz = Fraction(kp * m, k)
    if den_const != 0:
        raise ArithmeticError("denominator constant term should vanish identically")
    tau_const = num_iz / den_iz
    tau_wcoef = -(num_const / den_iz)  # (A/D) / (iz) = -(A/D) (i/z)
    # r tau gamma*(m tau) = r (h + iz)/k / (k' m tau - m'h) = (rh/k + (r/k) iz)/(den_iz iz)
    sig_const = Fraction(r, k) / den_iz
    sig_wcoef = -(Fraction(r * h, k) / den_iz)
    return tau_const, tau_wcoef, sig_const, sig_wcoef


def transform_data_by_definition(spec: ProductSpec, h: int, k: int) -> TransformData:
    """``modular.transform_data`` rebuilt factor by factor from the definitions.

    hbar by search (``hbar_of``), (lambda, lambda*) by ``lambda_pair``, the
    omega exponent -sum_j delta_j s(m'_j h, k'_j) by direct Dedekind sums and
    the Upsilon exponent as the four-term Fraction sum; each exponent is then
    written over its denominator (6k, L k) and reduced mod 2.
    """
    big_l = spec.level
    facs, omega, upsilon = [], Fraction(0), Fraction(0)
    for r, m, delta in spec.factors:
        d = gcd(m, k)
        mp_, kp = m // d, k // d
        hb = hbar_of(m, h, k)
        lam, lam_star = lambda_pair(m, r, h, k)
        u = lam_star * d
        assert u.denominator == 1, (spec, h, k)
        facs.append(FactorTransform(r, m, delta, d, mp_, kp, hb, lam, int(u), k))
        omega -= delta * dedekind_sum_direct(mp_ * h, kp)
        upsilon += delta * (Fraction(r * h, k) - Fraction(r * d, m * k)
                            + 2 * Fraction(r * d, m * k) * lam_star
                            + Fraction(hb * d, k) * (lam * lam - lam))
    omega_num, upsilon_num = omega * 6 * k, upsilon * big_l * k
    assert omega_num.denominator == upsilon_num.denominator == 1, (spec, h, k)
    return TransformData(h, k, tuple(facs), big_l, sum(f.delta for f in facs),
                         sum(f.delta * f.lam for f in facs),
                         int(omega_num) % (12 * k), int(upsilon_num) % (2 * big_l * k))


# ---------------------------------------------------------------------------
# circle: theta by its defining series, quadrature nodes by mpmath
# ---------------------------------------------------------------------------

def theta_by_sum(sigma: ComplexHP, tau: ComplexHP, terms: int | None = None) -> ComplexHP:
    """Defining series over half-integers nu, with a certified tail bound.

    theta(sigma; tau) = sum_{nu in Z + 1/2} e^{2 pi i nu (sigma + 1/2) + pi i nu^2 tau}.
    Independent oracle for the product form ``circle.theta``, summed at tau's precision.
    """
    if not tau.im.is_positive():
        raise ConvergenceRefused("theta needs Im(tau) > 0")
    if terms is None:
        # |term| ~ e^{-pi Im(tau) nu^2 + 2 pi |Im sigma| |nu|}; size the cutoff crudely
        im_t = float(tau.im.lo)
        im_s = max(abs(float(sigma.im.hi)), abs(float(sigma.im.lo)))
        need = (tau.bits + 32) * 0.6931 / 3.1416
        v = (2 * im_s + (4 * im_s * im_s + 4 * im_t * need) ** 0.5) / (2 * im_t)
        terms = max(8, int(v) + 3)
    total = ComplexHP(zero(), zero())
    pi_e = Enclosure.pi(tau.bits)
    for k in range(-terms, terms):
        nu = Enclosure.from_fraction(Fraction(2 * k + 1, 2), tau.bits)
        # exponent E = 2 pi i nu (sigma + 1/2) + pi i nu^2 tau
        re_e = -(pi_e * nu * (nu * tau.im + 2 * sigma.im))
        im_e = pi_e * nu * (nu * tau.re + 2 * sigma.re + 1)
        total = total + cexp(ComplexHP(re_e, im_e))
    # two-sided tail, geometric once the term ratio is certified < 1/2
    nu_edge = Enclosure.from_fraction(Fraction(2 * terms + 1, 2), tau.bits)
    im_s_abs = abs(sigma.im)
    edge = (-(pi_e * nu_edge * (nu_edge * tau.im - 2 * im_s_abs))).exp()
    ratio = (-(pi_e * (2 * nu_edge * tau.im - 2 * im_s_abs))).exp()
    if not ratio.hi < 0.5:
        raise ConvergenceRefused("theta series needs more terms for a tail bound")
    t = (2 * edge / (1 - ratio)).hi
    # [-t, t] with the lower endpoint t negated exactly, not rounded
    box = Enclosure.from_endpoints(mp.make_mpf(mpf_neg(t._mpf_)), t, tau.bits)
    return total + ComplexHP(box, box)


def psi_product_mpc(spec: ProductSpec, tau: mpmath.mpc, prec_dps: int) -> mpmath.mpc:
    """prod_j psi(r_j tau; m_j tau)^{delta_j} by mpmath complex arithmetic.

    The definitional oracle for the triple-product nodes of
    ``circle.numeric_coefficients``: both nomes by complex exp, each
    Pochhammer symbol multiplied out factor by factor and cut once
    |z0 q^k| <= 10^-(prec_dps + 8).  Call it under ``mp.workdps(prec_dps)``.
    """
    out = mpmath.mpc(1)
    floor = mpmath.mpf(10) ** (-(prec_dps + 8))
    for r, m, delta in spec.factors:
        q = mpmath.exp(2j * mpmath.pi * (m * tau))
        xi = mpmath.exp(2j * mpmath.pi * (r * tau))
        val = mpmath.mpc(1)
        for z0 in (xi, q / xi):
            zk = z0
            while abs(zk) > floor:
                val *= (1 - zk)
                zk *= q
        out *= val ** delta
    return out


def triple_product_mpc(r: int, m: int, q: mpmath.mpc, top: float) -> mpmath.mpc:
    """sum_j (-1)^j q^{r j + m j(j-1)/2} over the terms with exponent at most `top`.

    By the Jacobi triple product the full sum is (q^r, q^{m-r}, q^m; q^m)_inf.
    From the term j = 0 the exponents climb by r, r + m, r + 2m, ...
    (j = 1, 2, ...) and by m - r, 2m - r, ... (j = -1, -2, ...), each step
    multiplying a term by -q^{gap}: O(sqrt(top/m)) terms, by mpmath complex
    arithmetic at the working precision.
    """
    q_m = q ** m
    total = mpmath.mpc(1)
    for gap in (r, m - r):
        term, e, q_gap = mpmath.mpc(1), gap, q ** gap
        while e <= top:
            term *= q_gap
            total -= term
            term = -term
            gap += m
            e += gap
            q_gap *= q_m
    return total


def psi_product_by_sums_mpc(spec: ProductSpec, tau: mpmath.mpc, prec_dps: int) -> mpmath.mpc:
    """prod_j psi(r_j tau; m_j tau)^{delta_j} from triple-product sums, by mpmath.

    psi(r, m) = T(r, m) / (q^m; q^m)_inf with T = ``triple_product_mpc``, and
    (q^m; q^m)_inf = T(m, 3m) is Euler's pentagonal series, so each factor
    takes O(sqrt) terms where ``psi_product_mpc`` multiplies every
    Pochhammer factor.  Each sum keeps the terms with |q^e| >= 10^-(prec_dps
    + 8).  Call it under ``mp.workdps(prec_dps)``.
    """
    q = mpmath.exp(2j * mpmath.pi * tau)
    top = (prec_dps + 8) * log(10) / (2 * pi * float(tau.imag))
    pentagonal: dict[int, mpmath.mpc] = {}
    out = mpmath.mpc(1)
    for r, m, delta in spec.factors:
        if m not in pentagonal:
            pentagonal[m] = triple_product_mpc(m, 3 * m, q, top)
        out *= (triple_product_mpc(r, m, q, top) / pentagonal[m]) ** delta
    return out


def trapezoid_coefficients(spec: ProductSpec, ns: list[int], order: int, dps: int,
                           tol: float, max_nodes: int) -> dict[int, mpmath.mpf]:
    """The estimates of ``circle.numeric_coefficients`` by a direct trapezoid sum.

    The same doubling and stopping rule (M doubles from 1, estimates start
    once M > max(ns), the first level whose estimates all moved by less
    than `tol` is returned), but every node tau_j = j/M + i rho of a level
    is a ``psi_product_by_sums_mpc`` value at dps + 10 digits (each node
    once, shared with the levels above), and each level sums
    e^{2 pi n rho}/M Re sum_j f(tau_j) e^{-2 pi i n j/M} afresh over all M
    of them, with no conjugate nodes and no running totals.
    ``ConvergenceRefused`` past `max_nodes` nodes.
    """
    nodes: dict[Fraction, mpmath.mpc] = {}
    with mp.workdps(dps + 10):
        rho = mpmath.mpf(1) / (order * order)
        prev, m = None, 1
        while m < max_nodes:
            m *= 2
            if m <= max(ns):
                continue
            for j in range(m):
                x = Fraction(j, m)
                if x not in nodes:
                    tau = mpmath.mpc(mpmath.mpf(j) / m, rho)
                    nodes[x] = psi_product_by_sums_mpc(spec, tau, dps + 10)
            values = [nodes[Fraction(j, m)] for j in range(m)]
            est = {}
            for n in ns:
                total = sum(v * mpmath.expjpi(mpmath.mpf(-2 * n * j) / m)
                            for j, v in enumerate(values))
                est[n] = (mpmath.exp(2 * mpmath.pi * n * rho) * total / m).real
            if prev is not None and all(abs(est[n] - prev[n]) < tol for n in ns):
                return est
            prev = est
    raise ConvergenceRefused(f"trapezoid estimates still moving at {max_nodes} nodes")


# ---------------------------------------------------------------------------
# qseries: dense series algebra, literal products and the Rogers-Ramanujan sum sides
# ---------------------------------------------------------------------------

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


def expand_product_literal(spec: ProductSpec, trunc_order: int) -> QSeries:
    """prod_j psi(r_j, m_j)^{delta_j} to `trunc_order`, one factor (1 - q^c) at a time.

    psi(r, m) is the product of (1 - q^c) over c == r and c == m - r
    (mod m); each such c <= trunc_order is applied |delta| times in place,
    descending to multiply (each i reads the old i - c, as in
    ``expand_pochhammer``) and ascending to divide (each i reads the new
    i - c, as in ``div_one_minus_qc``).  It checks
    ``qseries.expand_product_reference``.
    """
    n = trunc_order
    coeffs = [1] + [0] * n
    for r, m, delta in spec.factors:
        for a in (r, m - r):
            for c in range(a, n + 1, m):
                for _ in range(abs(delta)):
                    if delta > 0:
                        for i in range(n, c - 1, -1):
                            coeffs[i] -= coeffs[i - c]
                    else:
                        for i in range(c, n + 1):
                            coeffs[i] += coeffs[i - c]
    return QSeries(n, tuple(coeffs))


def expand_pochhammer(a: int, m: int, trunc_order: int) -> QSeries:
    """Expansion of (q^a; q^m)_inf = prod_{k>=0}(1 - q^{a+km}) to the given order.

    One dense pass per factor (1 - q^c), descending so each pass reads the
    coefficients before it.  Factors with a + km beyond the truncation order
    cannot affect the result and are skipped.
    """
    if a < 1:
        raise ValueError("offset a must be >= 1")
    if m < 1:
        raise ValueError("modulus m must be >= 1")
    coeffs = [0] * (trunc_order + 1)
    coeffs[0] = 1
    for c in range(a, trunc_order + 1, m):
        for i in range(trunc_order, c - 1, -1):
            coeffs[i] -= coeffs[i - c]
    return QSeries(trunc_order, tuple(coeffs))


def div_one_minus_qc(coeffs: list[int], c: int) -> list[int]:
    out = coeffs[:]
    for i in range(c, len(out)):
        out[i] += out[i - c]
    return out


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
        term = div_one_minus_qc(term, k)
        for i in range(lead, n + 1):
            total[i] += term[i]
        k += 1
    return QSeries(n, tuple(total))
