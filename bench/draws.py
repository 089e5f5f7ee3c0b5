"""Cost of one ``qsign xcheck`` sample, predicted from its seed alone.

``qsign xcheck --seed S --samples 1`` checks one identity at a point drawn
by ``random.Random(S * 100000)``.  The work is almost all Pochhammer
products (z0; q)_inf in ``circle.pochhammer_product``, and a product runs
until |z0 q^j| drops below 2^-(prec + 24).  With z0 = e^{2 pi i s} and
q = e^{2 pi i t} that is about

    (prec + 24) ln 2 - 2 pi Im s
    -----------------------------     factors,
            2 pi Im t

so the cost of a sample follows from the imaginary parts of the points it
evaluates at: the closer |q| is to 1, the more factors.  The functions here
replay the CLI's draws for each identity (same ``random`` calls in the same
order) and add up that estimate over every product the check evaluates.
The benchmark uses the estimate only to pick samples of a set cost, so that
two workload seeds give equally heavy sample sets; ``test_bench.py`` checks
the replay against the products the CLI really evaluates.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, log, pi

PRECISION_BITS = 192
_BUDGET = (PRECISION_BITS + 24) * log(2)


def factors(im_s: float, im_t: float) -> float:
    """Estimated factor count of (e^{2 pi i s}; e^{2 pi i t})_inf."""
    return max(0.0, (_BUDGET - 2 * pi * im_s) / (2 * pi * im_t))


def _theta(im_sigma: float, im_tau: float) -> float:
    # (xi; q)(q/xi; q)(q; q)
    return (factors(im_sigma, im_tau) + factors(im_tau - im_sigma, im_tau)
            + factors(im_tau, im_tau))


def _psi(im_sigma: float, im_tau: float) -> float:
    return factors(im_sigma, im_tau) + factors(im_tau - im_sigma, im_tau)


def _eta(im_tau: float) -> float:
    return factors(im_tau, im_tau)


def _gamma(rng: random.Random, cmax: int = 20) -> tuple[int, int, int, int]:
    c = rng.randint(1, cmax)
    d = rng.choice([d for d in range(1, c + 1) if gcd(d, c) == 1])
    if c == 1:
        return 1, d - 1, 1, d
    a = pow(d % c, -1, c)
    return a, (a * d - 1) // c, c, d


def _tau(rng: random.Random) -> tuple[Fraction, Fraction]:
    return (Fraction(rng.randint(-500, 500), 1000),
            Fraction(rng.randint(500, 2000), 1000))


def _sigma(rng: random.Random) -> tuple[Fraction, Fraction]:
    return (Fraction(rng.randint(-300, 300), 1000),
            Fraction(rng.randint(-200, 200), 1000))


def _mobius_im(c: int, d: int, re: Fraction, im: Fraction) -> float:
    """Im((a tau + b)/(c tau + d)) = Im tau / |c tau + d|^2."""
    return float(im / ((c * re + d) ** 2 + (c * im) ** 2))


def _cost_eta(rng: random.Random) -> float:
    _, _, c, d = _gamma(rng)
    re, im = _tau(rng)
    return _eta(_mobius_im(c, d, re, im)) + _eta(float(im))


def _cost_theta(rng: random.Random) -> float:
    _, _, c, d = _gamma(rng)
    re, im = _tau(rng)
    s_re, s_im = _sigma(rng)
    # sigma / (c tau + d)
    den_re, den_im = c * re + d, c * im
    im_s = float((s_im * den_re - s_re * den_im) / (den_re ** 2 + den_im ** 2))
    return _theta(im_s, _mobius_im(c, d, re, im)) + _theta(float(s_im), float(im))


def _cost_quasiperiodicity(rng: random.Random) -> float:
    _, im = _tau(rng)
    _, s_im = _sigma(rng)
    a = rng.randint(-2, 2)
    rng.randint(-2, 2)
    return _theta(float(s_im + a * im), float(im)) + _theta(float(s_im), float(im))


def _cost_psi(rng: random.Random) -> float:
    _, im = _tau(rng)
    _, s_im = _sigma(rng)
    im, s_im = float(im), float(s_im)
    # psi directly, psi via theta/eta, and psi at the mirrored argument
    return _psi(s_im, im) + _theta(s_im, im) + _eta(im) + _psi(im - s_im, im)


def _cost_product(rng: random.Random) -> float:
    # imported here: run.py loads this module before qsign is importable
    from qsign.qseries import REGISTERED_SPECS

    name = rng.choice(["A", "B", "D", "c", "d"])
    spec_factors = REGISTERED_SPECS[name].factors
    k = rng.randint(1, 15)
    h = rng.choice([h for h in range(k) if gcd(h, k) == 1] or [0])
    z_re = Fraction(rng.randint(300, 1500), 1000)
    z_im = Fraction(rng.randint(-800, 800), 1000)
    # left side: psi(r tau; m tau) at tau = (h + i z)/k, so Im tau = Re z / k
    im_tau = float(z_re / k)
    total = sum(_psi(r * im_tau, m * im_tau) for r, m, _ in spec_factors)
    # right side: psi(sigma_j; tau_j), Im tau_j = (d^2/(m k)) Re z/|z|^2 and
    # Im sigma_j = lambda*_j Im tau_j with lambda* = ceil(rh/d) - rh/d
    im_w = z_re / (z_re ** 2 + z_im ** 2)
    for r, m, _ in spec_factors:
        d = gcd(m, k)
        lam_star = Fraction(-((-r * h) // d)) - Fraction(r * h, d)
        im_tj = Fraction(d * d, m * k) * im_w
        total += _psi(float(lam_star * im_tj), float(im_tj))
    return total


COST = {
    "eta": _cost_eta,
    "theta": _cost_theta,
    "quasiperiodicity": _cost_quasiperiodicity,
    "psi": _cost_psi,
    "product": _cost_product,
}


def predicted_factors(identity: str, cli_seed: int) -> float:
    """Estimated Pochhammer factors evaluated by one CLI sample."""
    return COST[identity](random.Random(cli_seed * 100_000))
