"""High-precision evaluation of eta, theta and psi, and circle-method checks.

Two numeric regimes live here.

*  Certified: eta, theta and psi on the complex rectangles of ``enclosure``,
   used to verify the modular transformation identities (eta and theta
   under SL2(Z), theta quasi-periodicity, and the full psi-product
   transformation) with relative residuals far below 1e-25 at 192-bit
   precision.  The Pochhammer products behind eta, theta and psi run in
   fixed-point midpoint-radius balls over Python ints (F = prec + 32
   fraction bits, one ulp of radius per truncating shift).  Every product
   stops once |z0 q^K| is small, at a point chosen from |q| alone, and is
   closed by the certified log series S of its tail; near the cusps that
   turns thousands of factors into tens.  e^{-S} is a ball too, so each
   product converts to an enclosure once, through outward-rounded
   endpoints.

*  Diagnostic: a quadrature that recovers power-series coefficients from
   the contour integral over the full circle

       alpha(n) = e^{2 pi n rho} int_0^1 f(e^{2 pi i (x + i rho)}) e^{-2 pi i n x} dx

   with rho = 1/N^2.  The integrand is periodic and analytic, so the plain
   trapezoid rule on equispaced nodes converges geometrically.  Each node
   is a quotient of powers of Jacobi triple-product sums, O(sqrt(t)) terms
   each for exponents up to t, and nodes and the DFT run in Python-int
   fixed point: q^t at a node is a radius R^t from a table built once per
   call times a unit root from one table per level, so a term costs two
   int products and no exp.  Guard bits sized from a lower bound on each
   sum keep a node's relative error below 10^-dps at every order.  Its
   error is stated, not certified; it cross-checks the exact engine, uses
   nothing from it and never feeds a certificate.  The single-arc spot
   check of the Bessel main term, ``lemma_arc_integral``, lives here too:
   mpmath tanh-sinh quadrature over one arc of the order-N Farey
   dissection, against the one-arc formula ``analytic.arc_bessel``.

The theta product form multiplies the three Pochhammer symbols
(xi; q)(xi^{-1} q; q)(q; q); dropping the (q; q) factor would break the
relation psi = i e^{-pi i tau/6} e^{pi i sigma} theta/eta.  The tests check
it against the series definition over half-integers (``theta_by_sum`` in
``tests/oracles.py``).

One sample of an identity check evaluates some exact inputs twice: the
psi check reads (xi; q), (q/xi; q) and e^{2 pi i tau} in ``psi`` and again
in ``psi_by_theta``, the quasi-periodicity check the nome and (q; q) on
both sides.  Inside a ``one_sample()`` scope each Pochhammer product and
each nome or phase that eta, theta and psi build is computed once per
exact input (raw endpoints and bits, and the factor budget) and handed
out again, bit for bit.  The memo lives for one sample only, so no result
depends on what ran before; outside every scope each call computes afresh.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import ceil, exp, gcd, isqrt, log, log1p, log2, pi, sqrt
from typing import Callable, Iterator, Sequence

import mpmath
from mpmath import mp
from mpmath.libmp import (from_man_exp, mpf_add, mpf_div, mpf_ln2, mpf_mul, mpf_sqrt, mpi_abs,
                          round_ceiling, round_floor)

from .analytic import arc_bessel, bessel_im1
from .enclosure import (DEFAULT_PRECISION, ComplexHP, Enclosure, cexp, e_pi_i_half_turns,
                        e_two_pi_i, one, zero)
from .modular import TransformData, delta_at, omega_exact, transform_data
from .qseries import ProductSpec, triple_product_powers, triple_product_terms


class ConvergenceRefused(RuntimeError):
    """The requested evaluation cannot reach the target accuracy."""


def csqrt_upper(z: ComplexHP) -> ComplexHP:
    """Principal square root for Im(z) > 0, via the algebraic half-angle form.

    sqrt(z) = sqrt((|z| + re)/2) + i sqrt((|z| - re)/2) with nonnegative
    imaginary part; both radicands are clamped at 0, which is sound because
    they are nonnegative exactly.
    """
    if not z.im.is_positive():
        raise ConvergenceRefused("principal sqrt implemented for Im(z) > 0 only")
    r = z.abs_enclosure()
    re2 = ((r + z.re) / 2).clamp_nonneg()
    im2 = ((r - z.re) / 2).clamp_nonneg()
    return ComplexHP(re2.sqrt(), im2.sqrt())


# ---------------------------------------------------------------------------
# one sample's memo
# ---------------------------------------------------------------------------

#: the memo of the innermost open `one_sample` scope; None outside every scope
_SAMPLE_MEMO: ContextVar[dict | None] = ContextVar("circle_sample_memo", default=None)


@contextmanager
def one_sample() -> Iterator[None]:
    """A scope in which each Pochhammer product and nome is evaluated once.

    While it is open, ``pochhammer_product`` and the e^{2 pi i t} of eta,
    theta and psi return the value computed for the same exact inputs
    earlier in the scope.  The values are those a fresh call computes, bit
    for bit; the memo is dropped when the scope closes, also on an
    exception.  A nested scope starts empty and the outer one resumes after it.
    """
    token = _SAMPLE_MEMO.set({})
    try:
        yield
    finally:
        _SAMPLE_MEMO.reset(token)


def _exact(z: ComplexHP) -> tuple:
    """What z is, exactly: each part's raw endpoints and bits."""
    return z.re._mpi_, z.re.bits, z.im._mpi_, z.im.bits


def _once(key: tuple, compute: Callable[[], ComplexHP]) -> ComplexHP:
    """compute(), or inside `one_sample` the value it gave for `key` there before."""
    memo = _SAMPLE_MEMO.get()
    if memo is None:
        return compute()
    value = memo.get(key)
    if value is None:
        value = memo[key] = compute()
    return value


def _e_two_pi_i(t: ComplexHP) -> ComplexHP:
    """``enclosure.e_two_pi_i``, once per distinct t inside `one_sample`."""
    return _once(("e_two_pi_i", _exact(t)), lambda: e_two_pi_i(t))


# ---------------------------------------------------------------------------
# Pochhammer products with certified tails
# ---------------------------------------------------------------------------

def _scaled(x: tuple, shift: int, up: bool) -> int:
    """floor(x 2^shift) for a raw mpf tuple x, or the ceiling when `up`."""
    sign, man, exp, _ = x
    if not man and exp:
        raise ConvergenceRefused("non-finite argument to a Pochhammer product")
    if sign:
        man = -man
    exp += shift
    if exp >= 0:
        return man << exp
    return -(-man >> -exp) if up else man >> -exp


def _ball(z: ComplexHP, shift: int) -> tuple[int, int, int]:
    """Integer ball (re, im, rad) containing the rectangle z scaled by 2^shift."""
    parts = []
    for part in (z.re, z.im):
        lo = _scaled(part.lo._mpf_, shift, False)
        hi = _scaled(part.hi._mpf_, shift, True)
        mid = (lo + hi) >> 1
        parts += [mid, hi - mid]
    re, rad_re, im, rad_im = parts
    return re, im, isqrt(rad_re * rad_re + rad_im * rad_im) + 1


def _outward(man: int, exp: int, prec: int, up: bool) -> mpmath.mpf:
    """man * 2^exp rounded outward to `prec` bits."""
    return mp.make_mpf(from_man_exp(man, exp, prec, round_ceiling if up else round_floor))


def _box(lo: int, hi: int, exp: int, prec: int) -> Enclosure:
    """[lo 2^exp, hi 2^exp] with endpoints rounded outward to `prec` bits."""
    return Enclosure.from_endpoints(_outward(lo, exp, prec, False), _outward(hi, exp, prec, True),
                                    prec)


def _log_series(zr: int, zi: int, rz: int, qr: int, qi: int, rq: int, fb: int,
                stop: int) -> tuple[int, int, int]:
    """S = sum_{n>=1} z^n / (n (1 - q^n)) = -log (z; q)_inf at scale 2^-F, F = fb.

    z and q are balls (centre, radius) at scale 2^-F.  The caller ensures
    |z| + r_z < 1 and (1 - |q| - r_q)^2 >= 3 2^-F.  Returns the centre
    series (sr, si), summed in fixed point at the exact centres, and err, a
    bound in ulps u = 2^-F of |S(z, q) - (sr + i si) u| over both balls.
    With g_z <= 1 - |z| and g_q <= 1 - |q| over the balls:

    * truncation after M terms, once |z|^(M+1) <= wb u < stop u:
      |z|^(M+1) / ((M+1)(1 - |q|)(1 - |z|)), by |1 - q^n| >= 1 - |q|^n;
    * rounding: z^n and q^n, one truncating product per step, are off by
      at most sqrt(2)/(1 - |z|) <= ew and sqrt(2) min(n - 1, 1/g_q) ulps;
      the precondition puts the latter below g_q/2 in value, so the
      computed |1 - q^n| is at least g_q/2.  Each term's floor division adds
      sqrt(2) ulps.  Over M terms that is at most
      u (sqrt(2) M + 2 ew M / g_q + 2 sqrt(2) / (g_q^2 g_z));
    * input radii: |dS/dz| <= 1/((1 - |z|)(1 - |q|)) and
      |dS/dq| <= |z| / ((1 - |z|)(1 - |q|)^2) over the balls, times r_z, r_q.
    """
    one_ = 1 << fb
    za = isqrt(zr * zr + zi * zi) + 1 + rz  # |z| over the ball, upper bound
    gz = one_ - za
    gq = one_ - (isqrt(qr * qr + qi * qi) + 1 + rq)
    ew = 3 * one_ // (2 * gz) + 1
    sr = si = 0
    wr, wi, pr, pi_ = zr, zi, qr, qi  # z^n and q^n
    n = 0
    while True:
        n += 1
        # z^n / (n (1 - q^n)) = z^n conj(d) / (n |d|^2), d = 1 - q^n
        dr, di = one_ - pr, -pi_
        den = n * (dr * dr + di * di)
        sr += ((wr * dr + wi * di) << fb) // den
        si += ((wi * dr - wr * di) << fb) // den
        wr, wi = (wr * zr - wi * zi) >> fb, (wr * zi + wi * zr) >> fb
        wb = abs(wr) + abs(wi) + ew  # >= |z|^(n+1)
        if wb < stop:
            break
        pr, pi_ = (pr * qr - pi_ * qi) >> fb, (pr * qi + pi_ * qr) >> fb
    sq = one_ * one_
    trunc = -(-wb * sq // ((n + 1) * gq * gz))
    rnd = 2 * n - (-(2 * ew * one_ * n * gq * gz + 3 * sq * one_) // (gq * gq * gz))
    inputs = -(-(rz * gq + rq * za) * sq // (gz * gq * gq))
    return sr, si, trunc + rnd + inputs


#: guard bits of `_exp_ball` below F, and its halving target |y| < 2^-H
_EXP_GUARD, _EXP_HALVE = 8, 12


@cache
def _ln2_fixed(bits: int) -> int:
    """floor(ln 2 * 2^bits): a `bits`-bit floor mpf of ln 2 is an exact multiple of 2^-bits."""
    return _scaled(mpf_ln2(bits, round_floor), bits, False)


def _exp_ball(wr: int, wi: int, rw: int, fb: int) -> tuple[int, int, int, int]:
    """A ball (er + i ei, rad) 2^e containing e^w for every w in the ball (wr + i wi, rw) 2^-F.

    F = fb.  With G = F + g (g = `_EXP_GUARD`) and ln2 ~ L 2^-G, L the floor:

    * reduction: k = round(wr / ln 2) and x = (wr + i wi) 2^g - k L at
      scale 2^-G, so e^w = 2^k e^x; 2^k goes into the exponent e;
    * halving: j = max(0, bitlen(|Re x| + |Im x|) - G + H) makes
      |y| < 2^-H, H = `_EXP_HALVE`, for y = x 2^-j, and y is exact: the
      same integers at scale 2^-T, T = G + j;
    * Taylor series at scale 2^-T, terms t_n = (t_(n-1) y >> T) // n until
      |Re t_N| + |Im t_N| <= 2.  Each term's product and division truncate
      both parts by < 1 ulp, so |error of t_n| <= (|error of t_(n-1)| / 2 +
      sqrt(2)) / n + sqrt(2) <= 4 ulps, and the remainder after t_N is at
      most |t_N| <= 6 ulps because |y| / (N + 1) <= 1/2: a radius of
      4 N + 6 ulps around the sum;
    * squaring j times: a ball (c, r) squares to (c^2 >> T, ((2 m + r) r >>
      T) + 3) with m >= |c|, by |c^2 - v^2| <= r (2 |c| + r), one ulp for
      the shifted radius rounding down and two for the truncated centre;
      m becomes ((m m) >> T) + 3.  The radius roughly doubles per squaring,
      against 2^j more fraction bits;
    * the input radius and the ln 2 truncation: the true reduced argument
      is x 2^-G + d with |d| <= D = (rw 2^g + |k|) 2^-G, as |k ln 2 - k L
      2^-G| < |k| 2^-G.  e^(x 2^-G + d) = e^(x 2^-G) (1 + theta) with
      |theta| <= e^D - 1 <= D / (1 - D), adding (m + r) D / (1 - D) to the
      radius.  D < 1 is required, and refused otherwise.
    """
    g = _EXP_GUARD
    gb = fb + g  # G
    ln2 = _ln2_fixed(gb)
    xr, xi = wr << g, wi << g
    k = (2 * xr + ln2) // (2 * ln2)
    xr -= k * ln2
    j = max(0, (abs(xr) + abs(xi)).bit_length() - gb + _EXP_HALVE)
    tb = gb + j  # T
    one_ = 1 << tb
    dev = ((rw << g) + abs(k)) << j  # D at scale 2^-T
    if dev >= one_:
        raise ConvergenceRefused("the argument of a ball exponential is wider than 1")
    sr, si, tr, ti = one_, 0, one_, 0  # the sum and the term t_n
    n = 0
    while abs(tr) + abs(ti) > 2:
        n += 1
        tr, ti = ((tr * xr - ti * xi) >> tb) // n, ((tr * xi + ti * xr) >> tb) // n
        sr, si = sr + tr, si + ti
    rad = 4 * n + 6
    m = isqrt(sr * sr + si * si) + 1
    for _ in range(j):
        rad = (((2 * m + rad) * rad) >> tb) + 3
        m = ((m * m) >> tb) + 3
        sr, si = (sr * sr - si * si) >> tb, (2 * sr * si) >> tb
    rad += -(-(m + rad) * dev // (one_ - dev))
    return sr, si, rad, k - tb


def pochhammer_product(z0: ComplexHP, q: ComplexHP, max_factors: int) -> ComplexHP:
    """(z0; q)_inf = prod_{k>=0} (1 - z0 q^k) with a certified tail factor.

    A product of K factors, then the tail (z_K; q)_inf, z_K = z0 q^K,
    closed by its log series (`_log_series`): log (z; q)_inf = -S with
    S = sum_{n>=1} z^n / (n (1 - q^n)), valid for |z| < 1, summed at
    z = z_K until |z_K|^(M+1) < 2^-(prec + 24).  Its truncation, rounding
    and input-radius errors add up to t, and e^{-S} is taken once, by
    `_exp_ball` over the disc of radius t around the computed S.

    Stopping rule, fixed once per call from the nome's integer bound: with
    P = prec + 24 and l = -log2|q|, the series at |z_K| ~ 2^-L needs about
    P/L terms, each costing about one factor, while the product still has
    (P - L)/l factors to go.  One more factor saves P l/L^2 terms, so the
    product runs to |z_K| < 2^-L, L = min(P, max(1, round(sqrt(P l)))),
    tested on |Re| + |Im| + radius, an upper bound of the modulus over the
    ball.  Near |q| = 1 a product of thousands of factors becomes one of
    tens plus a series of tens of terms; for small |q| (L = P) the series
    is a single term.  `max_factors` >= 1 bounds K.  A nome with
    1 - |q| < ~2^-(F/2), too close to 1 for the series' rounding bound, is
    refused up front; it would need far more factors than any budget.

    The loop runs in midpoint-radius (ball) form, not on rectangles:
    rectangle multiplication wraps (radius grows ~sqrt(2) per rotating
    factor, fatal for 10^4-factor products) while the ball radius
    |x| r_y + (|y| + r_y) r_x stays proportional to the magnitude.

    Balls are fixed point over Python ints: integer centre parts and an
    integer radius in units of 2^-(F + e), with F = prec + 32 fraction bits
    and e a binary exponent of the ball's own.  q and z0 are converted
    exactly from their endpoints (floor and ceiling, so the ball covers the
    rectangle).  Error accounting:

    * a product (a b) >> F truncates each part by less than one ulp, so
      every shift adds one whole ulp of radius;
    * every modulus that multiplies a radius is an integer upper bound of
      the true modulus, never a 1-norm, which would compound over the loop:
      isqrt(x^2 + y^2) + 1 for q, the same on the top 60 bits for each
      factor 1 - z0 q^k ((isqrt(a^2 + b^2) + 1) << s with a = (|x| >> s) + 1,
      b = (|y| >> s) + 1), carried as (|x| |y| >> F) + 3 through the
      products z0 q^k and the running product;
    * z0 q^k and the running product keep their leading bit near F by
      shifting centre and radius together: left shifts are exact, right
      shifts (the product grows when |z0| > 1) add an ulp per part.

    The series runs on the same scale, at the exact centres of z_K and q;
    the balls' radii enter through derivative bounds (see `_log_series`).
    Its ball exponential (see `_exp_ball`) multiplies into the running
    product by the same ball rule, without the shift, so exactly; the
    result converts back once, through outward-rounded endpoints.

    Inside `one_sample` the loop (`_pochhammer_product`) runs once per
    distinct (z0, q, max_factors), compared by their exact endpoints and
    bits; every call still goes through this function.
    """
    return _once(("pochhammer", _exact(z0), _exact(q), max_factors),
                 lambda: _pochhammer_product(z0, q, max_factors))


def _pochhammer_product(z0: ComplexHP, q: ComplexHP, max_factors: int) -> ComplexHP:
    """The product loop and certified tail of ``pochhammer_product``, run afresh."""
    if max_factors < 1:
        raise ConvergenceRefused(f"a budget of {max_factors} factors admits no product")
    prec = q.bits
    fb = prec + 32  # F, the fraction bits of every ball
    one_ = 1 << fb
    low, high = one_ >> 16, one_ << 16  # renormalise outside [2^(F-16), 2^(F+16)]
    qr, qi, qrad = _ball(q, fb)
    qm = isqrt(qr * qr + qi * qi) + 1
    qmr = qm + qrad
    if qmr >= one_:
        raise ConvergenceRefused("the nome satisfies |q| >= 1 at this precision")
    if (one_ - qmr) ** 2 < 3 * one_:
        raise ConvergenceRefused(
            f"the nome is too close to |q| = 1 for the tail series at {prec} bits "
            f"(|q| ~ {mpmath.nstr(_outward(qmr, -fb, prec, True), 8)})"
        )
    full = prec + 24
    # l = -log2|q|, by log1p near |q| = 1, where log2(qm) would cancel
    ell = -log1p((qm - one_) / one_) / log(2) if 2 * qm > one_ else fb - log2(qm)
    lz = min(full, max(1, round(sqrt(full * ell))))
    # zk = z0 q^k at scale 2^-(F + ez), ez raised as zk shrinks; the loop
    # stops once |zk| < 2^-lz, which is `stop` at that scale
    zr, zi, zrad = _ball(z0, fb)
    zm = isqrt(zr * zr + zi * zi) + 1
    ez, stop = 0, 1 << (fb - lz)
    # running product at scale 2^-(F + ep)
    pr, pi_, prad, pm, ep = one_, 0, 0, one_, 0
    # |1 - zk| is bounded at 60 bits below 2^F: sound at any size, tight while |1 - zk| ~ 1
    um_shift = max(fb - 60, 0)
    # each "+ 3" after a right shift: 1 because the shifted bound rounds
    # down, 2 because both centre parts round down (|error| < sqrt(2))
    k = 0
    while True:
        # u = 1 - zk at scale 2^-F
        ur, ui = one_ - (zr >> ez), -(zi >> ez)
        urad = (zrad >> ez) + 3
        a, b = (abs(ur) >> um_shift) + 1, (abs(ui) >> um_shift) + 1
        um = (isqrt(a * a + b * b) + 1) << um_shift
        # prod *= u
        prad = ((pm * urad + (um + urad) * prad) >> fb) + 3
        pm = ((pm * um) >> fb) + 3
        pr, pi_ = (pr * ur - pi_ * ui) >> fb, (pr * ui + pi_ * ur) >> fb
        mag = pm + prad
        if mag < low:
            s = fb - mag.bit_length()
            pr, pi_, pm, prad, ep = pr << s, pi_ << s, pm << s, prad << s, ep + s
        elif mag > high:
            s = mag.bit_length() - fb
            pr, pi_, ep = pr >> s, pi_ >> s, ep - s
            pm, prad = (pm >> s) + 3, (prad >> s) + 3
        # zk *= q
        zrad = ((zm * qrad + qmr * zrad) >> fb) + 3
        zm = ((zm * qm) >> fb) + 3
        zr, zi = (zr * qr - zi * qi) >> fb, (zr * qi + zi * qr) >> fb
        if zm < low:
            s = fb - zm.bit_length()
            zr, zi, zm, zrad, ez, stop = zr << s, zi << s, zm << s, zrad << s, ez + s, stop << s
        k += 1
        if abs(zr) + abs(zi) + zrad < stop:
            break
        if k >= max_factors:
            raise ConvergenceRefused(
                f"needs more than {max_factors} factors (|q| ~ "
                f"{mpmath.nstr(_outward(qmr, -fb, prec, True), 8)}); increase the factor budget "
                f"or move the argument"
            )
    # zk at scale 2^-F: each floor shift moves a centre part by < 1 ulp
    sr, si, err = _log_series(zr >> ez, zi >> ez, (zrad >> ez) + 3, qr, qi, qrad, fb,
                              1 << (fb - full))
    # prod *= e^{-S}, exactly: the ball product without the shift
    er, ei, erad, ee = _exp_ball(-sr, -si, err, fb)
    em = isqrt(er * er + ei * ei) + 1
    prad = pm * erad + (em + erad) * prad
    pr, pi_ = pr * er - pi_ * ei, pr * ei + pi_ * er
    exp = ee - (fb + ep)
    return ComplexHP(_box(pr - prad, pr + prad, exp, prec), _box(pi_ - prad, pi_ + prad, exp, prec))


#: the most factors of one Pochhammer product behind eta, theta and psi
_FACTOR_BUDGET = 400_000


def eta(tau: ComplexHP) -> ComplexHP:
    """Dedekind eta: q^{1/24} prod (1 - q^k), q = e^{2 pi i tau}, Im(tau) > 0."""
    if not tau.im.is_positive():
        raise ConvergenceRefused("eta needs Im(tau) > 0")
    return _eta(tau, _e_two_pi_i(tau))


def _eta(tau: ComplexHP, q: ComplexHP) -> ComplexHP:
    """eta(tau) given its nome q = e^{2 pi i tau}."""
    pi_e = Enclosure.pi(tau.bits)
    head = cexp(ComplexHP(-(pi_e * tau.im / 12), pi_e * tau.re / 12))
    return head * pochhammer_product(q, q, _FACTOR_BUDGET)


def theta(sigma: ComplexHP, tau: ComplexHP) -> ComplexHP:
    """Odd Jacobi theta via the triple product.

    theta(sigma; tau) = -i q^{1/8} xi^{-1/2} (xi; q)(xi^{-1} q; q)(q; q)
    with xi = e^{2 pi i sigma}; the xi^{-1/2} factor is e^{-pi i sigma},
    formed from sigma directly so no branch choice enters.
    """
    if not tau.im.is_positive():
        raise ConvergenceRefused("theta needs Im(tau) > 0")
    return _theta(sigma, tau, _e_two_pi_i(tau))


def _theta(sigma: ComplexHP, tau: ComplexHP, q: ComplexHP) -> ComplexHP:
    """theta(sigma; tau) given the nome q = e^{2 pi i tau}."""
    xi = _e_two_pi_i(sigma)
    pi_e = Enclosure.pi(max(sigma.bits, tau.bits))
    # -i q^{1/8} xi^{-1/2} = -i e^{pi i tau/4} e^{-pi i sigma}
    head = cexp(ComplexHP(-(pi_e * tau.im / 4) + pi_e * sigma.im,
                          pi_e * tau.re / 4 - pi_e * sigma.re))
    head = ComplexHP(head.im, -head.re)  # multiply by -i
    return head * (_psi(xi, q) * pochhammer_product(q, q, _FACTOR_BUDGET))


def psi(sigma: ComplexHP, tau: ComplexHP) -> ComplexHP:
    """psi(sigma; tau) = (xi; q)_inf (xi^{-1} q; q)_inf, the two-symbol product."""
    if not tau.im.is_positive():
        raise ConvergenceRefused("psi needs Im(tau) > 0")
    return _psi(_e_two_pi_i(sigma), _e_two_pi_i(tau))


def _psi(xi: ComplexHP, q: ComplexHP) -> ComplexHP:
    """(xi; q)_inf (xi^{-1} q; q)_inf given xi = e^{2 pi i sigma} and the nome q."""
    return (pochhammer_product(xi, q, _FACTOR_BUDGET)
            * pochhammer_product(ComplexHP.one() / xi * q, q, _FACTOR_BUDGET))


def psi_by_theta(sigma: ComplexHP, tau: ComplexHP) -> ComplexHP:
    """psi via i e^{-pi i tau/6} e^{pi i sigma} theta(sigma; tau)/eta(tau), one nome."""
    if not tau.im.is_positive():
        raise ConvergenceRefused("psi_by_theta needs Im(tau) > 0")
    pi_e = Enclosure.pi(max(sigma.bits, tau.bits))
    head = cexp(ComplexHP(pi_e * tau.im / 6 - pi_e * sigma.im,
                          -(pi_e * tau.re / 6) + pi_e * sigma.re))
    head = ComplexHP(-head.im, head.re)  # multiply by i
    q = _e_two_pi_i(tau)
    return head * _theta(sigma, tau, q) / _eta(tau, q)


# ---------------------------------------------------------------------------
# the product transformation
# ---------------------------------------------------------------------------

def transformed_arguments(td: TransformData, z: ComplexHP) -> list[tuple[ComplexHP, ComplexHP]]:
    """(sigma_j, tau_j) per factor: const + wcoef * (i/z) from the exact data."""
    w = ComplexHP(zero(), one()) / z  # i/z
    out = []
    for ft in td.factors:
        sig = ComplexHP.from_fractions(ft.sigma_const, 0, z.bits) + w.scale(ft.sigma_wcoef)
        ta = ComplexHP.from_fractions(ft.tau_const, 0, z.bits) + w.scale(ft.tau_wcoef)
        out.append((sig, ta))
    return out


def product_side(spec: ProductSpec, tau: ComplexHP) -> ComplexHP:
    """prod_j psi(r_j tau; m_j tau)^{delta_j} by direct evaluation."""
    out = ComplexHP.one()
    for r, m, delta in spec.factors:
        out = out * psi(tau.scale(r), tau.scale(m)).pow_int(delta)
    return out


def transformed_side(spec: ProductSpec, h: int, k: int, z: ComplexHP) -> ComplexHP:
    """Right-hand side of the product transformation at tau = (h + iz)/k.

    i^{sum delta} (-1)^{sum delta lambda} omega^2 Upsilon
    exp(pi/(12k) (Omega z + Delta / z)) prod_j psi(sigma_j; tau_j)^{delta_j}.
    The phases and arguments come from ``transform_data``, Omega from
    ``omega_exact`` and Delta from ``delta_at``.
    """
    td = transform_data(spec, h, k)
    pref = e_pi_i_half_turns(td.prefactor_phase(), z.bits)
    invz = ComplexHP.one() / z
    scale = Enclosure.pi(z.bits) / (12 * k)
    om = Enclosure.from_fraction(omega_exact(spec), z.bits)
    de = Enclosure.from_fraction(delta_at(spec, h, k), z.bits)
    grow = cexp(ComplexHP(scale * (om * z.re + de * invz.re),
                          scale * (om * z.im + de * invz.im)))
    prod = ComplexHP.one()
    for ft, (sig, ta) in zip(td.factors, transformed_arguments(td, z)):
        prod = prod * psi(sig, ta).pow_int(ft.delta)
    return pref * grow * prod


def check_product_transform(spec: ProductSpec, h: int, k: int,
                            z: ComplexHP) -> tuple[mpmath.mpf, ComplexHP, ComplexHP]:
    """Relative residual of the product transformation at tau = (h + iz)/k.

    Returns (residual upper bound, lhs, rhs); Re(z) > 0 required so tau is
    in the upper half plane.
    """
    if not z.re.is_positive():
        raise ConvergenceRefused("need Re(z) > 0")
    tau = ComplexHP((h - z.im) / k, z.re / k)
    lhs = product_side(spec, tau)
    rhs = transformed_side(spec, h, k, z)
    return relative_residual(lhs, rhs), lhs, rhs


def _abs_end(z: ComplexHP, up: bool) -> mpmath.mpf:
    """One endpoint of ``z.abs_enclosure()``, the upper if `up`, bit for bit, without the other."""
    prec = z.bits
    rnd = round_ceiling if up else round_floor
    re, im = (mpi_abs(part._mpi_, prec)[up] for part in (z.re, z.im))
    return mp.make_mpf(mpf_sqrt(mpf_add(mpf_mul(re, re, prec, rnd), mpf_mul(im, im, prec, rnd),
                                        prec, rnd), prec, rnd))


#: bits of a residual: a double's, so its float is exact and still an upper bound
_RESIDUAL_BITS = 53


def relative_residual(lhs: ComplexHP, rhs: ComplexHP) -> mpmath.mpf:
    """Upper bound of |lhs - rhs| / |lhs|, rounded up to `_RESIDUAL_BITS` bits.

    Refused when the enclosure of |lhs| touches 0.
    """
    den = _abs_end(lhs, False)
    if den <= 0:
        raise ConvergenceRefused("left side enclosure touches zero")
    return mp.make_mpf(mpf_div(_abs_end(lhs - rhs, True)._mpf_, den._mpf_, _RESIDUAL_BITS,
                               round_ceiling))


# ---------------------------------------------------------------------------
# Farey dissection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FareyArc:
    """Arc around h/k in the order-N dissection: [h/k - theta_left, h/k + theta_right]."""

    h: int
    k: int
    theta_left: Fraction
    theta_right: Fraction
    order: int

    def __post_init__(self) -> None:
        n, k = self.order, self.k
        for t in (self.theta_left, self.theta_right):
            if not Fraction(1, 2 * k * n) <= t <= Fraction(1, k * n):
                raise ValueError(f"mediant distance {t} violates the arc bounds at h/k={self.h}/{self.k}")


def farey_fractions(order: int) -> list[tuple[int, int]]:
    """Farey fractions h/k of the given order in [0, 1), ascending."""
    out = [(0, 1)]
    a, b, c, d = 0, 1, 1, order
    while c <= order and (c, d) != (1, 1):
        out.append((c, d))
        a, b, c, d = c, d, (order + b) // d * c - a, (order + b) // d * d - b
    return out


def farey_arcs(order: int) -> list[FareyArc]:
    """Complete dissection of the circle into arcs around order-N Farey fractions.

    Arc endpoints are the mediants with the neighbouring fractions; the arc
    at 0/1 wraps around and reaches 1/(order+1) to either side.  The arcs
    tile [0, 1) up to the wrap shift, with total measure exactly 1.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    fr = farey_fractions(order)
    fr_ext = [(fr[-1][0] - fr[-1][1], fr[-1][1])] + fr + [(1, 1)]
    arcs = []
    for i in range(1, len(fr_ext) - 1):
        (hp, kp), (h, k), (hn, kn) = fr_ext[i - 1], fr_ext[i], fr_ext[i + 1]
        left_mediant = Fraction(h + hp, k + kp)
        right_mediant = Fraction(h + hn, k + kn)
        arcs.append(FareyArc(
            h=h, k=k,
            theta_left=Fraction(h, k) - left_mediant,
            theta_right=right_mediant - Fraction(h, k),
            order=order,
        ))
    return arcs


def lemma_arc_integral(a_par: Fraction, b_par: Fraction, k: int, n: int, order: int,
                       h: int | None = None, dps: int = 40,
                       bits: int = DEFAULT_PRECISION) -> dict:
    """Spot check of the single-arc Bessel evaluation used for main terms.

    Numerically integrates
        I = int_arc e^{(pi/12k)(b z + a/z)} e^{-2 pi i n phi} e^{2 pi n rho} dphi,
    z = k(rho - i phi), rho = 1/order^2, over the arc at h/k of the given
    Farey order (``farey_arcs``), and compares with the main term of one
    arc, read from ``analytic.arc_bessel`` with Delta = a and x = n + b/24,

        main = (2 pi/k) sqrt(Delta/24) I_1((pi/6k) sqrt(24 Delta x)) / sqrt(x),

    against the stated bound |I - main| <= e^{pi a/3} e^{2 pi rho x} / (pi x).
    Requires n > b/24.  The integral is tanh-sinh quadrature split at the
    Farey point; `ConvergenceRefused` when ``quadrature_err`` exceeds
    10^-(dps - 12).  That is mpmath's difference of the last two tanh-sinh
    levels: an estimate, not a bound (it can read below the working precision).
    `ValueError` before any quadrature when `dps` is not an int >= 13: below
    that the tolerance is at least 1 and would accept any quadrature.
    """
    if not isinstance(dps, int) or dps < 13:
        raise ValueError(f"need an int dps >= 13, got {dps!r}")
    if a_par <= 0:
        raise ValueError("a must be positive")
    if Fraction(n) <= b_par / 24:
        raise ValueError("need n > b/24")
    if h is None:
        h = 1 if k > 1 else 0
    arcs = [arc for arc in farey_arcs(order) if arc.k == k and arc.h == h]
    if not arcs:
        raise ValueError(f"{h}/{k} is not an order-{order} Farey fraction")
    arc = arcs[0]
    rho = Fraction(1, order * order)
    x = n + b_par / 24
    with mp.workdps(dps):
        rr = mpmath.mpf(rho.numerator) / rho.denominator
        aa = mpmath.mpf(a_par.numerator) / a_par.denominator
        bb = mpmath.mpf(b_par.numerator) / b_par.denominator

        def g(phi):
            zz = k * (rr - 1j * phi)
            return (mpmath.exp(mpmath.pi / (12 * k) * (bb * zz + aa / zz))
                    * mpmath.exp(-2j * mpmath.pi * n * phi)
                    * mpmath.exp(2 * mpmath.pi * n * rr))

        lo = -mpmath.mpf(arc.theta_left.numerator) / arc.theta_left.denominator
        hi = mpmath.mpf(arc.theta_right.numerator) / arc.theta_right.denominator
        tol = mpmath.mpf(10) ** (-(dps - 12))
        # tanh-sinh on both sides of the Farey point, where the integrand peaks
        val, err = mpmath.quad(g, [lo, 0, hi], error=True)
        if err > tol:
            raise ConvergenceRefused(
                f"arc quadrature error estimate {mpmath.nstr(err, 3)} exceeds {mpmath.nstr(tol, 3)}")
        a, y, sx = arc_bessel(k, a_par, x, bits)
        main = a * bessel_im1(y) / sx
        bound = ((Enclosure.pi(bits) * Enclosure.from_fraction(a_par, bits) / 3).exp()
                 * (2 * Enclosure.pi(bits) * Enclosure.from_fraction(rho * x, bits)).exp()
                 / (Enclosure.pi(bits) * Enclosure.from_fraction(x, bits)))
        diff = abs(val - mpmath.mpf(main.mid))
        report = {
            "a": str(a_par), "b": str(b_par), "k": k, "n": n, "order": order, "h": h,
            "integral_re": float(mpmath.re(val)), "integral_im": float(mpmath.im(val)),
            "quadrature_err": float(err),
            "main": float(main.mid),
            "abs_error": float(diff),
            "bound": float(bound.lo),
            "ok": bool(diff < bound.lo),
        }
    return report


# ---------------------------------------------------------------------------
# diagnostic quadrature (Python-int fixed point, stated tolerance)
# ---------------------------------------------------------------------------

#: node cap of the full-circle trapezoid rule in `numeric_coefficients`
_MAX_NODES = 2 ** 13

#: the gcd g of a spec's triple-product powers and, per side of
#: f = (N/D)^g, each triple product T's power over g and its terms
#: (t, +-R^t) with R^t = e^{-2 pi t rho} at scale 2^W
_NodePlan = tuple[int, tuple[tuple[int, tuple[tuple[int, int], ...]], ...],
                  tuple[tuple[int, tuple[tuple[int, int], ...]], ...]]


def _log2_bounds(r: int, m: int, step: float) -> tuple[float, float]:
    """-log2 prod (1 - R^a) and log2 prod (1 + R^a), R = e^{-step}, over T(r, m)'s factors.

    By the Jacobi triple product T(r, m) = prod (1 - q^a) over a = r, m - r
    and m modulo m, so at |q| = R these bound -log2 |T| and log2 |T|.
    """
    low = high = 0.0
    for a in (r, m - r, m):
        while (x := exp(-step * a)) > 1e-30:
            low, high, a = low - log1p(-x), high + log1p(x), a + m
    return low / log(2), high / log(2)


def _node_plan(spec: ProductSpec, order: int, dps: int) -> tuple[int, _NodePlan]:
    """The fraction bits W, and the triple products T and their powers in f = (N/D)^g.

    f = prod T(r, m)^e over ``qseries.triple_product_powers``; g is the gcd
    of the powers e (1 when there are none), N holds the positive e/g and
    D the negative, so quotients come before powers.  A side with no
    powers is the constant 1, one triple product of the single term q^0:
    eta powers that do not cancel go to the other side, so only a product
    that reduces to 1 has one.
    W = ceil(dps log2 10) + 32 + G, and G = ceil(max(L_N + U_D, L_D)) guard
    bits, where L_N = sum_{e > 0} e l_T, L_D = sum_{e < 0} |e| l_T and
    U_D = sum_{e < 0} |e| u_T from the bounds -l_T <= log2 |T| <= u_T of
    ``_log2_bounds``: every partial product of N is at least 2^-L_N, of D at
    least 2^-L_D, and |f| >= 2^-(L_N + U_D).  The radius table runs to the
    first t with R^t <= 2^-W, R = e^{-2 pi rho}, and each T keeps its terms
    up to that t.
    """
    step = 2 * pi / (order * order)
    powers = triple_product_powers(spec)
    low_num = low_den = high_den = 0.0
    for r, m, e in powers:
        low, high = _log2_bounds(r, m, step)
        if e > 0:
            low_num += e * low
        else:
            low_den, high_den = low_den - e * low, high_den - e * high
    bits = ceil(dps * log2(10)) + 32 + ceil(max(low_num + high_den, low_den))
    top = ceil(bits * log(2) / step)
    with mp.workprec(bits + 16):
        ratio = int(mpmath.ldexp(mpmath.exp(-2 * mpmath.pi / (order * order)), bits))
    radius = [1 << bits]
    for _ in range(top):
        radius.append(radius[-1] * ratio >> bits)
    g = gcd(*(e for _, _, e in powers)) or 1
    num, den = [], []
    for r, m, e in powers:
        terms = tuple((t, sign * radius[t]) for t, sign in triple_product_terms(r, m, top))
        (num if e > 0 else den).append((abs(e) // g, terms))
    one_ = ((1, ((0, radius[0]),)),)
    return bits, (g, tuple(num) or one_, tuple(den) or one_)


def _refine_roots(roots: list[tuple[int, int]], bits: int) -> list[tuple[int, int]]:
    """e^{2 pi i t/M}, t < M, at scale 2^bits from the M/2 roots before them.

    Up to M = 4 the roots are exact.  Past that, w = e^{2 pi i/M} comes from
    the previous level's root (c, s) = e^{4 pi i/M} by the half-angle
    formulas cos = isqrt((2^bits + c) 2^(bits - 1)) and
    sin = s 2^bits/(2 cos), both truncated.  The half angle divides the
    errors of (c, s) by about 4 and 2, so w's error does not grow with M
    (under 1.8 ulps up to M = 2^13).  Only the first quarter, t < M/4, is
    multiplied out: even entries are copied and each odd one is the entry
    before it times w, which adds w's error and one truncation per part,
    a few ulps per doubling along an entry's chain.  The other three
    quarters are exact quarter turns (x, y) -> (-y, x) of the first.  Up
    to M = 2^13 at 132, 200 or 290 bits no entry is more than 18 ulps from
    e^{2 pi i t/M}, within the 2 log2 M that the tests pin.
    """
    m = 2 * len(roots)
    if m <= 4:
        one = 1 << bits
        return [(one, 0), (0, one), (-one, 0), (0, -one)][::4 // m]
    c, s = roots[1]
    wr = isqrt(((1 << bits) + c) << (bits - 1))
    wi = (s << bits) // (2 * wr)
    quarter = []
    for xr, xi in roots[:m // 8]:
        quarter += [(xr, xi), ((xr * wr - xi * wi) >> bits, (xr * wi + xi * wr) >> bits)]
    return (quarter + [(-y, x) for x, y in quarter] + [(-x, -y) for x, y in quarter]
            + [(y, -x) for x, y in quarter])


def _cmul(ar: int, ai: int, br: int, bi: int, bits: int) -> tuple[int, int]:
    return (ar * br - ai * bi) >> bits, (ar * bi + ai * br) >> bits


def _cpow(vr: int, vi: int, e: int, bits: int) -> tuple[int, int]:
    """v^e for e >= 1 by squaring, at scale 2^bits."""
    pr, pi_ = vr, vi
    for bit in bin(e)[3:]:
        pr, pi_ = _cmul(pr, pi_, pr, pi_, bits)
        if bit == "1":
            pr, pi_ = _cmul(pr, pi_, vr, vi, bits)
    return pr, pi_


def _node_value(plan: _NodePlan, roots: list[tuple[int, int]], j: int,
                bits: int) -> tuple[int, int]:
    """f(tau_j) at scale 2^bits, tau_j = j/M + i rho with M = len(roots).

    Each triple product is sum_t +-R^t e^{2 pi i t j/M}, the unit root read
    from the table, summed exactly at scale 2^{2 bits} and shifted once; the
    node is (N conj(D)/|D|^2)^g.
    """
    n_roots = len(roots)
    g, *sides = plan
    values = []
    for side in sides:
        out = None
        for e, terms in side:
            tr = ti = 0
            for t, rad in terms:
                cr, ci = roots[t * j % n_roots]
                tr += rad * cr
                ti += rad * ci
            p = _cpow(tr >> bits, ti >> bits, e, bits)
            out = _cmul(*out, *p, bits) if out else p
        values.append(out)
    (nr, ni), (dr, di) = values
    den = dr * dr + di * di
    qr, qi = ((nr * dr + ni * di) << bits) // den, ((ni * dr - nr * di) << bits) // den
    return _cpow(qr, qi, g, bits)


def numeric_coefficients(spec: ProductSpec, ns: Sequence[int], order: int = 6,
                         dps: int = 40, tol: float = 1e-8) -> dict[int, mpmath.mpf]:
    """Coefficients alpha(n) for all n in `ns` by the trapezoid rule on the circle.

    Diagnostic only (stated, not certified, tolerance).  f = sum alpha(m) q^m
    is sampled at the M nodes tau_j = j/M + i rho, rho = 1/order^2, and

        alpha_M(n) = e^{2 pi n rho}/M Re sum_j f(tau_j) e^{-2 pi i n j/M}

    has the aliasing error sum_{k>=1} alpha(n + kM) e^{-2 pi rho k M},
    geometric in M (the k < 0 terms vanish once M > n, where estimates
    start).  M doubles from 1, and the first level whose estimates all
    moved by less than `tol` (absolute) is returned: that move is the odd-k
    part of the previous level's error.  `ConvergenceRefused` past
    `_MAX_NODES` nodes, and before any node is sampled when no two levels
    within that cap exceed max(ns).

    The coefficients are real, so f(-x + i rho) = conj f(x + i rho) and
    node M - j is the conjugate of node j: each level evaluates only its
    new odd nodes j <= M/2, and a call that ends at M nodes makes M/2 + 1
    node evaluations.  Each index keeps one running DFT total: entry 2t of
    a level's root table is a copy of entry t of the level before, so the
    earlier nodes' terms stand, and each level adds the terms of its new
    nodes, reading j and M - j from one node value.

    Each node is f = prod T(r, m)^e over the triple products
    T(r, m) = sum_j (-1)^j q^{rj + m j(j-1)/2} of
    ``qseries.triple_product_powers`` (psi(r, m) = T(r, m)/(q^m; q^m) and
    (q^m; q^m) = T(m, 3m)), evaluated in Python-int fixed point with
    W = ceil(dps log2 10) + 32 + G fraction bits (``_node_plan``) and no exp
    per node: q^t at tau_j is R^t, R = e^{-2 pi rho}, from a radius table
    built once per call, times the unit root e^{2 pi i t j/M} from the
    level's table, which the DFT reads as well.  A node's error budget, in
    ulps u = 2^-W:

    * truncation tail: each T drops its terms past the first t with
      R^t <= u, at most u R/(1 - R) in all;
    * rounding: each R^t is R^{t-1} R truncated, within 3/(1 - R) ulps, each
      unit root within 2 log2 M ulps (``_refine_roots``), each sum is shifted
      once and each product, quotient and power truncates once per part;
    * guard bits: |T| >= prod (1 - R^a) over its factors 1 - q^a, and the G
      guard bits cover the smallest value any partial product, quotient or
      power can take, so every ulp above is at most 2^-(W - G) relative;
      the 32 further bits cover the ulp counts, which keeps a node within
      10^-dps relative at every order (at order 10, dps 30, within 3e-57
      of an mpmath product at 60 digits on every node of M = 256).

    The totals are exact in ints, and each estimate becomes an mpf at `dps`
    digits once, when scaled by e^{2 pi n rho}/M.  The error is stated, not
    certified; nothing here feeds a certificate.  `ValueError` before any
    node is sampled when `order` is not an int >= 2, `dps` not an int >= 1,
    `tol` not positive or an index not a nonnegative int.
    """
    if not isinstance(order, int) or order < 2:
        raise ValueError(f"need an int order >= 2, got {order!r}")
    if not isinstance(dps, int) or dps < 1:
        raise ValueError(f"need an int dps >= 1, got {dps!r}")
    if not tol > 0:
        raise ValueError(f"need tol > 0, got {tol}")
    for n in ns:
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"indices must be nonnegative ints, got {n!r}")
    if not ns:
        return {}
    # estimates start at the first power of two above max(ns), and one
    # more level is needed to compare them
    if 2 << max(ns).bit_length() > _MAX_NODES:
        raise ConvergenceRefused(f"index {max(ns)} needs more than {_MAX_NODES} nodes")
    bits, plan = _node_plan(spec, order, dps)
    roots = [(1 << bits, 0)]
    # one running DFT total per index, Re sum_j f(tau_j) e^{-2 pi i n j/M}
    # at scale 2^{2W}; node 0 reads the root 1
    totals = dict.fromkeys(ns, _node_value(plan, roots, 0, bits)[0] << bits)
    prev, m = None, 1
    with mp.workdps(dps):
        rho = mpmath.mpf(1) / (order * order)
        growth = {n: mpmath.exp(2 * mpmath.pi * n * rho) for n in ns}
        while m < _MAX_NODES:
            m *= 2
            roots = _refine_roots(roots, bits)
            # the old nodes' terms stand: entry 2t here is entry t before
            for j in range(1, m // 2 + 1, 2):
                fr, fi = _node_value(plan, roots, j, bits)
                for n in totals:
                    # Re(f e^{-2 pi i t/M}) = Re f cos + Im f sin, and node
                    # M - j is conj f read against the root at -n j
                    cr, ci = roots[n * j % m]
                    if 2 * j < m:
                        dr, di = roots[-n * j % m]
                        cr, ci = cr + dr, ci - di
                    totals[n] += fr * cr + fi * ci
            if m <= max(ns):
                continue
            est = {n: mpmath.ldexp(totals[n], -2 * bits) * growth[n] / m for n in ns}
            if prev is not None and all(abs(est[n] - prev[n]) < tol for n in ns):
                return est
            prev = est
    raise ConvergenceRefused(f"trapezoid estimates still moving at {_MAX_NODES} nodes")
