import functools
import math
import random
from fractions import Fraction
from math import gcd

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (psi_product_by_sums_mpc, psi_product_mpc, theta_by_sum,
                     trapezoid_coefficients)
from qsign import circle, qseries
from qsign.circle import (ConvergenceRefused, check_product_transform, csqrt_upper, eta,
                          farey_arcs, farey_fractions, numeric_coefficients, pochhammer_product,
                          psi, psi_by_theta, theta, transformed_arguments)
from qsign.enclosure import (ComplexHP, Enclosure, cexp, e_pi_i_half_turns, e_two_pi_i,
                             pi_factor_value)
from qsign.modular import transform_data as td_of
from qsign.qseries import ProductSpec, expand_product, registered_spec


def rel_residual(a: ComplexHP, b: ComplexHP) -> float:
    return float((a - b).abs_enclosure().hi / a.abs_enclosure().lo)


def c_hp(re, im) -> ComplexHP:
    return ComplexHP.from_fractions(Fraction(re), Fraction(im))


class TestBasicEvaluations:
    def test_eta_at_i_real_positive(self):
        v = eta(c_hp(0, 1))
        assert v.re.is_positive()
        assert v.im.contains(0)
        # eta(i) = Gamma(1/4)/(2 pi^{3/4})
        ref = mpmath.gamma(mpmath.mpf(1) / 4) / (2 * mpmath.pi ** mpmath.mpf("0.75"))
        assert v.re.contains(Fraction(str(ref)).limit_denominator(10**25)) or \
            abs(float(v.re.mid) - float(ref)) < 1e-20

    def test_eta_inversion_selfconsistent_at_i(self):
        # chi * i^{1/2} = 1 for the order-2 element at its fixed point
        chi = e_pi_i_half_turns(Fraction(-1, 4))  # e^{-pi i/4}
        root = csqrt_upper(c_hp(0, 1))          # i^{1/2}
        prod = chi * root
        assert prod.re.contains(1) and prod.im.contains(0)

    def test_eta_transformation_at_half_plus_i(self):
        tau = c_hp(Fraction(1, 2), 1)
        from qsign.modular import GammaMatrix

        g = GammaMatrix(0, -1, 1, 0)
        gt = (ComplexHP.from_fractions(-1, 0)) / tau
        lhs = eta(gt)
        rhs = e_pi_i_half_turns(g.chi_exponent()) * csqrt_upper(tau) * eta(tau)
        assert rel_residual(lhs, rhs) < 1e-25

    def test_theta_vanishes_at_zero(self):
        v = theta(c_hp(0, 0), c_hp(Fraction(1, 5), Fraction(11, 10)))
        assert v.re.contains(0) and v.im.contains(0)

    def test_theta_sum_equals_product(self):
        s = c_hp(Fraction(3, 10), Fraction(1, 10))
        tau = c_hp(Fraction(1, 5), Fraction(11, 10))
        assert rel_residual(theta(s, tau), theta_by_sum(s, tau)) < 1e-25

    def test_theta_quasi_periodicity(self):
        s = c_hp(Fraction(3, 10), Fraction(1, 10))
        tau = c_hp(Fraction(1, 5), Fraction(11, 10))
        lhs = theta(s + tau + ComplexHP.from_fractions(1, 0), tau)
        pi_e = Enclosure.pi()
        head = cexp(ComplexHP(pi_e * (tau.im + s.im * 2),
                              -(pi_e * (tau.re + s.re * 2))))
        rhs = head * theta(s, tau)  # (-1)^{1+1} = +1
        assert rel_residual(lhs, rhs) < 1e-25

    def test_psi_routes_agree(self):
        s = c_hp(Fraction(3, 10), Fraction(1, 10))
        tau = c_hp(Fraction(1, 5), Fraction(11, 10))
        assert rel_residual(psi(s, tau), psi_by_theta(s, tau)) < 1e-25

    def test_psi_mirror_symmetry(self):
        s = c_hp(Fraction(3, 10), Fraction(1, 10))
        tau = c_hp(Fraction(1, 5), Fraction(11, 10))
        assert rel_residual(psi(s, tau), psi(tau - s, tau)) < 1e-25

    def test_psi_matches_exact_series_at_real_nome(self):
        # psi(2 tau; 5 tau) at tau = i/2 equals the exact expansion of
        # (q^2, q^3; q^5) summed at q = e^{-pi}, up to a certified tail
        tau = c_hp(0, Fraction(1, 2))
        val = psi(tau.scale(2), tau.scale(5))
        from oracles import expand_pochhammer, ps_mul

        sym = ps_mul(expand_pochhammer(2, 5, 120), expand_pochhammer(3, 5, 120))
        q = (-Enclosure.pi()).exp()
        acc = Enclosure.from_fraction(0)
        qn = Enclosure.from_fraction(1)
        for c in sym.coeffs:
            acc = acc + qn * c
            qn = qn * q
        # |coeff(n)| < 2^n crudely, so the series tail is below (2q)^121/(1-2q)
        tail = (q * 2).pow_int(121) / (1 - q * 2)
        assert val.im.contains(0)
        diff = abs(val.re - acc)
        assert diff.lo <= tail.hi + float(val.re.width) + float(acc.width)
        assert float(diff.hi) < 1e-30

    def test_pochhammer_refuses_divergent_nome(self):
        with pytest.raises(ConvergenceRefused):
            pochhammer_product(ComplexHP.one(), c_hp(2, 0), 10)

    def test_pochhammer_refuses_unbounded_argument(self):
        whole_line = Enclosure.from_endpoints(mpmath.mpf("-inf"), mpmath.mpf("inf"))
        with pytest.raises(ConvergenceRefused):
            pochhammer_product(ComplexHP(whole_line, Enclosure.from_fraction(0)),
                               c_hp(0, Fraction(1, 2)), 10)

    @pytest.mark.parametrize("im_tau", [Fraction(0), Fraction(-1, 2)])
    @pytest.mark.parametrize("name", ["eta", "theta", "psi", "psi_by_theta"])
    def test_lower_half_plane_refused_by_name(self, name, im_tau):
        tau, sigma = c_hp(Fraction(1, 4), im_tau), c_hp(Fraction(1, 10), Fraction(1, 10))
        args = (tau,) if name == "eta" else (sigma, tau)
        with pytest.raises(ConvergenceRefused, match=rf"^{name} needs Im\(tau\) > 0"):
            getattr(circle, name)(*args)


def _mp(x: Fraction) -> mpmath.mpf:
    return mpmath.mpf(x.numerator) / x.denominator


def _kernel_and_reference(sigma, tau):
    """pochhammer_product at e^{2 pi i sigma} (q itself when sigma is None),
    q = e^{2 pi i tau}, and mpmath.qp there at twice the working precision."""
    q = e_two_pi_i(c_hp(*tau))
    z0 = q if sigma is None else e_two_pi_i(c_hp(*sigma))
    # the input balls come from interval exponentials and have width
    assert q.re.width > 0 and z0.re.width > 0
    got = pochhammer_product(z0, q, 100_000)
    with mpmath.mp.workprec(2 * got.bits + 64):
        turn = 2j * mpmath.pi
        mq = mpmath.exp(turn * (_mp(tau[0]) + 1j * _mp(tau[1])))
        mz = mq if sigma is None else mpmath.exp(turn * (_mp(sigma[0]) + 1j * _mp(sigma[1])))
        ref = mpmath.qp(mz, mq, maxterms=10**6)
    return got, ref


def _relative_width(got: ComplexHP, ref: mpmath.mpc) -> mpmath.mpf:
    return max(got.re.width, got.im.width) / abs(ref)


def _counting(calls: dict, name: str, fn):
    """fn, counting its calls in calls[name]."""
    def wrapper(*args):
        calls[name] += 1
        return fn(*args)
    return wrapper


class TestPochhammerKernel:
    """The fixed-point ball loop against mpmath.qp at twice the working precision."""

    # (sigma or None for z0 = q, tau, size of the value): near the cusp 0 the
    # product is tiny and the rescaling runs; Im sigma < 0 gives |z0| > 1 and
    # a product that grows past 2^17, so the right-shift path runs too
    POINTS = {
        "near_cusp": (None, (Fraction(0), Fraction(1, 200)), "tiny"),
        "growing": ((Fraction(3, 10), Fraction(-1, 2)), (Fraction(1, 5), Fraction(1, 50)), "huge"),
        "short": ((Fraction(1, 10), Fraction(1, 10)), (Fraction(1, 4), Fraction(1, 2)), None),
    }

    @pytest.mark.parametrize("name", sorted(POINTS))
    def test_contains_qp_reference(self, name):
        sigma, tau, size = self.POINTS[name]
        got, ref = _kernel_and_reference(sigma, tau)
        assert got.re.lo <= ref.real <= got.re.hi
        assert got.im.lo <= ref.imag <= got.im.hi
        assert _relative_width(got, ref) <= mpmath.mpf(2) ** (32 - got.bits)
        if size == "tiny":
            assert abs(ref) < mpmath.mpf(2) ** -17
        elif size == "huge":
            assert abs(ref) > mpmath.mpf(2) ** 17

    def test_radius_does_not_compound_on_rotating_factors(self):
        # 69 factors 1 - q^k that turn around the circle, then the log
        # series: with true moduli the relative width is 2^-179.1 at 192
        # bits, a 1-norm gives 2^-164.0 (2^-179.4 and 2^-160.5 when the
        # product ran all 4769 factors)
        got, ref = _kernel_and_reference(None, (Fraction(1, 10), Fraction(1, 200)))
        assert got.re.contains(ref.real) and got.im.contains(ref.imag)
        assert _relative_width(got, ref) < mpmath.mpf(2) ** -176

    # seeded points over a range of stopping points L: 1 - |q| log-uniform
    # in [0.01, 0.5], z0 = q, |z0| > 1 or xi = e^{2 pi i sigma} near 1,
    # the zero of theta.  By hand: |q| = 0.995 with z0 = q and with
    # |z0| = 6.6, xi near 1 at |q| = 0.5, and a short product at
    # Im tau = 2/5 with |z0| = 3.5
    SPREAD = [(None, (Fraction(3, 10), Fraction(8, 10_000))),
              ((Fraction(1, 5), Fraction(-3, 10)), (Fraction(1, 7), Fraction(8, 10_000))),
              ((Fraction(1, 1000), Fraction(-1, 10_000)), (Fraction(-1, 3), Fraction(11, 100))),
              ((Fraction(1, 3), Fraction(-1, 5)), (Fraction(1, 5), Fraction(2, 5)))]

    @staticmethod
    def _seeded_point(seed):
        rng = random.Random(seed)
        one_minus_q = 0.5 ** rng.uniform(1, 6.6)
        im_tau = Fraction(-math.log1p(-one_minus_q) / (2 * math.pi)).limit_denominator(10 ** 6)
        tau = (Fraction(rng.randint(-500, 500), 1000), im_tau)
        kind = seed % 3
        if kind == 0:
            return None, tau
        if kind == 1:  # |z0| = e^{-2 pi Im sigma} > 1
            sigma = (Fraction(rng.randint(-500, 500), 1000), Fraction(-rng.randint(1, 300), 1000))
        else:  # xi near 1
            sigma = (Fraction(rng.randint(-9, 9), 10_000), Fraction(rng.randint(-9, 9), 100_000))
        return sigma, tau

    @pytest.mark.parametrize("point", [f"seed{s}" for s in range(9)]
                             + [f"edge{e}" for e in range(len(SPREAD))])
    def test_spread_contains_qp_reference(self, point):
        if point.startswith("seed"):
            sigma, tau = self._seeded_point(int(point[4:]))
        else:
            sigma, tau = self.SPREAD[int(point[4:])]
        got, ref = _kernel_and_reference(sigma, tau)
        assert got.re.lo <= ref.real <= got.re.hi
        assert got.im.lo <= ref.imag <= got.im.hi
        assert _relative_width(got, ref) <= mpmath.mpf(2) ** (32 - got.bits)

    def test_contains_the_value_at_the_corners_of_wide_inputs(self):
        # inputs 2^-60 wide and z0 = e^-pi small, so the product part is one
        # factor and the log series carries the dependence on the radii of
        # z0 and q, through its derivative bounds; real positive z0 and q,
        # where |1 - q^n| = 1 - |q|^n, make those bounds nearly attained
        pad = Enclosure.from_endpoints(-mpmath.mpf(2) ** -61, mpmath.mpf(2) ** -61)
        q = e_two_pi_i(c_hp(0, Fraction(1, 200)))
        z0 = e_two_pi_i(c_hp(0, Fraction(1, 2)))
        q, z0 = (ComplexHP(v.re + pad, v.im + pad) for v in (q, z0))
        got = pochhammer_product(z0, q, 100_000)

        def corners(v):
            return [mpmath.mpc(a, b) for a in (v.re.lo, v.re.hi) for b in (v.im.lo, v.im.hi)]

        with mpmath.mp.workprec(2 * got.bits + 64):
            # z0 and q at the same corner: S grows with real z and q
            for zc, qc in zip(corners(z0), corners(q)):
                ref = mpmath.qp(zc, qc, maxterms=10**6)
                assert got.re.lo <= ref.real <= got.re.hi
                assert got.im.lo <= ref.imag <= got.im.hi

    def test_nome_too_close_to_one_for_the_series_is_refused_up_front(self):
        # (1 - |q|)^2 = 2^-240 is below the series' rounding floor 3 2^-F,
        # F = 224; the product alone would need ~2^127 factors
        q = c_hp(1 - Fraction(1, 2 ** 120), 0)
        with pytest.raises(ConvergenceRefused, match="too close to [|]q[|] = 1"):
            pochhammer_product(q, q, 10 ** 12)

    @pytest.mark.parametrize("kind", ["psi", "eta"])
    def test_every_product_closes_with_one_log_series(self, kind, monkeypatch):
        calls = {"products": 0, "series": 0}
        monkeypatch.setattr(circle, "pochhammer_product",
                            _counting(calls, "products", circle.pochhammer_product))
        monkeypatch.setattr(circle, "_log_series", _counting(calls, "series", circle._log_series))
        if kind == "psi":  # a short product at Im tau = 1/2
            psi(c_hp(Fraction(1, 10), Fraction(1, 10)), c_hp(Fraction(1, 4), Fraction(1, 2)))
        else:  # near the cusp 0
            eta(c_hp(Fraction(1, 10), Fraction(1, 200)))
        n = 2 if kind == "psi" else 1
        assert calls == {"products": n, "series": n}

    def test_a_product_closes_without_cexp(self, monkeypatch):
        # e^{-S} stays a fixed-point ball: one log series, no interval exponential
        q = e_two_pi_i(c_hp(Fraction(1, 4), Fraction(1, 2)))
        z0 = e_two_pi_i(c_hp(Fraction(1, 10), Fraction(1, 10)))
        calls = {"cexp": 0, "series": 0}
        monkeypatch.setattr(circle, "cexp", _counting(calls, "cexp", circle.cexp))
        monkeypatch.setattr(circle, "_log_series",
                            _counting(calls, "series", circle._log_series))
        pochhammer_product(z0, q, 100)
        assert calls == {"cexp": 0, "series": 1}

    @pytest.mark.parametrize("sigma,tau,large", [(*POINTS["near_cusp"][:2], True),
                                                 (*SPREAD[0], False)],
                             ids=["near_cusp", "spread0"])
    def test_a_large_tail_is_halved_and_squared(self, sigma, tau, large, monkeypatch):
        # near the cusp 0 the tail has |S| ~ 4, so e^{-S} takes the ln 2
        # reduction (k = -6); at |q| = 0.995 with L = 1 (SPREAD[0]) |S| ~
        # 0.36.  Both halve the argument and square the series j > 0 times
        seen, exp_ball = [], circle._exp_ball

        def recorded(*args):
            seen.append((args, exp_ball(*args)))
            return seen[-1][1]

        monkeypatch.setattr(circle, "_exp_ball", recorded)
        got, ref = _kernel_and_reference(sigma, tau)
        assert got.re.contains(ref.real) and got.im.contains(ref.imag)
        [((wr, wi, _, fb), (_, _, _, e))] = seen
        k = round(mpmath.ldexp(wr, -fb) / mpmath.ln(2))
        # the series ran at T = F + guard + j fraction bits, and e = k - T
        assert k - e - fb - circle._EXP_GUARD >= 1
        if large:
            assert k != 0 and abs(mpmath.mpc(wr, wi)) >= 2 ** fb

    @pytest.mark.parametrize("sigma,tau,count", [
        ((Fraction(1, 10), Fraction(1, 10)), (Fraction(1, 4), Fraction(1, 2)), 7),
        (None, (Fraction(1, 10), Fraction(1, 200)), 69),
        ((Fraction(1, 10), Fraction(-10)), (Fraction(1, 4), Fraction(30)), 2),
        ((Fraction(1, 10), Fraction(1, 10)), (Fraction(1, 4), Fraction(30)), 1),
    ])
    def test_stopping_rule_pins_the_factor_count(self, sigma, tau, count):
        # the budget bounds the factors of the product part, which runs to
        # |z0 q^k| < 2^-L, L = min(216, max(1, round(sqrt(216 l)))) at 192
        # bits with l = -log2|q|, and the log series closes the rest.  At
        # tau = 1/4 + i/2 (l = 4.53) L = 31: 7 factors.  At tau = 1/10 +
        # i/200 (l = 0.0453) L = 3: 69 factors, not the 4769 of a product
        # alone.  At Im tau = 30 (l = 272) L = 216, and |z0| = e^{20 pi}
        # takes 2 factors to get below it; |z0| = e^{-pi/5} takes 1, and a
        # budget of 0 factors is refused although that one factor would do
        q = e_two_pi_i(c_hp(*tau))
        z0 = q if sigma is None else e_two_pi_i(c_hp(*sigma))
        with pytest.raises(ConvergenceRefused):
            pochhammer_product(z0, q, count - 1)
        pochhammer_product(z0, q, count)
        pochhammer_product(z0, q, count + 1)
        pochhammer_product(z0, q, 200)


def _ball_points(re, im, rad, fb):
    """The centre of an integer ball at scale 2^-fb and two opposite points on its rim."""
    c = mpmath.mpc(mpmath.ldexp(re, -fb), mpmath.ldexp(im, -fb))
    r = mpmath.ldexp(rad, -fb) * mpmath.expjpi(mpmath.mpf(1) / 3)
    return [c, c + r, c - r]


def _log_series_reference(z, q, eps):
    """sum z^n / (n (1 - q^n)) at the working precision, to terms below eps."""
    total, zn, qn, n = 0, z, q, 1
    while abs(zn) > eps:
        total += zn / (n * (1 - qn))
        zn, qn, n = zn * z, qn * q, n + 1
    return total


class TestOneSample:
    """``circle.one_sample``: each product and nome once inside the scope, every time outside."""

    SIGMA, TAU = c_hp(Fraction(1, 10), Fraction(1, 10)), c_hp(Fraction(1, 4), Fraction(1, 2))

    def test_outside_a_scope_every_call_runs_the_kernel(self, evaluation_counts):
        calls = evaluation_counts
        psi(self.SIGMA, self.TAU)
        psi(self.SIGMA, self.TAU)
        assert calls == {"_pochhammer_product": 4, "e_two_pi_i": 4}

    def test_inside_a_scope_a_repeated_call_reads_the_first_value(self, evaluation_counts):
        calls = evaluation_counts
        with circle.one_sample():
            first = psi(self.SIGMA, self.TAU)
            second = psi(self.SIGMA, self.TAU)
            assert calls == {"_pochhammer_product": 2, "e_two_pi_i": 2}
            with circle.one_sample():  # a nested scope starts empty
                psi(self.SIGMA, self.TAU)
            assert calls == {"_pochhammer_product": 4, "e_two_pi_i": 4}
            psi(self.SIGMA, self.TAU)  # and the outer one resumes
            assert calls == {"_pochhammer_product": 4, "e_two_pi_i": 4}
        assert circle._SAMPLE_MEMO.get() is None
        fresh = psi(self.SIGMA, self.TAU)
        assert calls == {"_pochhammer_product": 6, "e_two_pi_i": 6}
        assert circle._exact(first) == circle._exact(second) == circle._exact(fresh)


class TestLogSeries:
    """`_log_series` against S = sum z^n / (n (1 - q^n)) summed at twice F."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("cut", [8, 48, 216])
    def test_error_bound_covers_a_double_precision_sum(self, seed, cut):
        # stop = 2^(F - cut): at cut = 8 the sum stops after a few terms and
        # the remainder bound is nearly all of err; radii of 2^40 ulps make
        # the input-radius terms count as well
        fb = 224
        rng = random.Random(seed)
        z = mpmath.mpf(rng.uniform(0.05, 0.5)) * mpmath.expjpi(rng.uniform(-1, 1))
        q = mpmath.mpf(rng.uniform(0.5, 0.99)) * mpmath.expjpi(rng.uniform(-1, 1))
        zr, zi, qr, qi = (int(mpmath.ldexp(x, fb)) for x in (z.real, z.imag, q.real, q.imag))
        rz, rq = 2 ** 40, 2 ** 40
        sr, si, err = circle._log_series(zr, zi, rz, qr, qi, rq, fb, 1 << (fb - cut))
        one_minus = (1 - (abs(z) + 2 ** -180)) * (1 - (abs(q) + 2 ** -180))
        with mpmath.workprec(2 * fb):
            got = mpmath.mpc(mpmath.ldexp(sr, -fb), mpmath.ldexp(si, -fb))
            bound = mpmath.ldexp(err, -fb)
            eps = mpmath.mpf(2) ** (-2 * fb)
            for zp in _ball_points(zr, zi, rz, fb):
                for qp in _ball_points(qr, qi, rq, fb):
                    assert abs(_log_series_reference(zp, qp, eps) - got) <= bound
        # and err is of the size of the remainder and the radii, not vacuous
        assert bound <= (mpmath.mpf(2) ** (8 - cut) + mpmath.mpf(2) ** -180) / one_minus ** 2


class TestExpBall:
    """`_exp_ball` against mpmath.exp at 2F + 64 bits, over the input ball."""

    # w = 0, a tail-sized w, and |Re w|, |Im w| up to 2^10: large negative
    # and positive real parts take the ln 2 reduction, large imaginary
    # parts the halving and squaring
    POINTS = [(0, 0), (2 ** -200, -(2 ** -201)), (-0.7, 3.3), (-1000, 1000), (1000, -7),
              (0.5, 1024), (-700, -0.25)]

    @pytest.mark.parametrize("rad", [0, 2 ** 40])
    @pytest.mark.parametrize("point", range(len(POINTS)))
    def test_contains_exp_over_the_ball(self, point, rad):
        fb = 224
        re, im = self.POINTS[point]
        wr, wi = (int(mpmath.ldexp(mpmath.mpf(x), fb)) for x in (re, im))
        er, ei, erad, e = circle._exp_ball(wr, wi, rad, fb)
        with mpmath.workprec(2 * fb + 64):
            got = mpmath.mpc(mpmath.ldexp(er, e), mpmath.ldexp(ei, e))
            bound = mpmath.ldexp(erad, e)
            centre, *rim = (mpmath.exp(w) for w in _ball_points(wr, wi, rad, fb))
            for ref in [centre, *rim]:
                assert abs(ref - got) <= bound
            if rad == 0:
                # not vacuous: relative width within 2^(8 - prec), prec = F - 32
                assert 2 * bound / abs(centre) <= mpmath.mpf(2) ** (8 - (fb - 32))

    def test_refuses_an_argument_wider_than_one(self):
        with pytest.raises(ConvergenceRefused, match="wider than 1"):
            circle._exp_ball(0, 0, 1 << 224, 224)


class TestProductTransformation:
    def test_unit_arc(self):
        res, _, _ = check_product_transform(registered_spec("A"), 0, 1, c_hp(1, 0))
        assert res < 1e-25

    def test_level_five_arc_nonzero_lambda_star(self):
        res, _, _ = check_product_transform(registered_spec("A"), 1, 5,
                                            c_hp(Fraction(1, 2), Fraction(1, 5)))
        assert res < 1e-25

    def test_level25_four_factor_product(self):
        res, _, _ = check_product_transform(registered_spec("D"), 1, 5, c_hp(1, 0))
        assert res < 1e-25

    @pytest.mark.parametrize("k", (3, 7, 10, 12))
    @pytest.mark.parametrize("factors", (
        ((1, 10, 1), (2, 5, -1)),               # psi(1,10) psi(2,5)^-1, level 10
        ((3, 25, 1), (1, 5, 2), (10, 25, -1)),  # psi(3,25) psi(1,5)^2 psi(10,25)^-1, level 25
    ), ids=("level10", "level25"))
    def test_inline_spec_with_mixed_moduli(self, factors, k):
        # specs outside the registry, whose Omega and Delta come from the spec alone
        spec = ProductSpec(factors)
        z = c_hp(Fraction(4, 5), Fraction(1, 3))
        for h in range(k):
            if gcd(h, k) == 1:
                res, _, _ = check_product_transform(spec, h, k, z)
                assert res < 1e-25, (h, k)

    def test_rejects_left_half_plane(self):
        with pytest.raises(ConvergenceRefused):
            check_product_transform(registered_spec("A"), 0, 1, c_hp(-1, 0))

    def test_factorization_split(self):
        # psi(sigma; tau) = (1 - e^{2 pi i sigma}) (xi q, xi^{-1} q; q) for the
        # lam* = 0 factors: check the split against the direct product
        spec = registered_spec("D")
        td = td_of(spec, 3, 10)
        z = c_hp(Fraction(4, 5), Fraction(1, 3))
        lhs = ComplexHP.one()
        for ft, (sig, ta) in zip(td.factors, transformed_arguments(td, z)):
            lhs = lhs * psi(sig, ta).pow_int(ft.delta)
        rhs = ComplexHP.one()
        pp, e2 = pochhammer_product, e_two_pi_i
        for ft, (sig, ta) in zip(td.factors, transformed_arguments(td, z)):
            q = e2(ta)
            xi = e2(sig)
            if ft.u == 0:  # lam* = u/d
                head = ComplexHP.one() - xi
                body = (pp(xi * q, q, 10000) * pp(ComplexHP.one() / xi * q, q, 10000))
                rhs = rhs * (head * body).pow_int(ft.delta)
            else:
                rhs = rhs * (pp(xi, q, 10000)
                             * pp(ComplexHP.one() / xi * q, q, 10000)).pow_int(ft.delta)
        assert rel_residual(lhs, rhs) < 1e-25

    @pytest.mark.parametrize("bits", (53, 192))
    def test_residual_reads_the_modulus_endpoints_bit_for_bit(self, bits):
        rng = random.Random(bits)

        def part():
            lo = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
            hi = lo + rng.choice((0, Fraction(1, 10**rng.randint(1, 60)), abs(lo) * 3))
            return Enclosure.from_endpoints(Enclosure.from_fraction(lo, bits).lo,
                                            Enclosure.from_fraction(hi, bits).hi, bits)

        for _ in range(200):  # widths up to 3|lo| put 0 inside some parts
            z = ComplexHP(part(), part())
            box = z.abs_enclosure()
            assert circle._abs_end(z, False)._mpf_ == box._mpi_[0]
            assert circle._abs_end(z, True)._mpf_ == box._mpi_[1]

    def test_pi_value_matches_level25_amplitude(self):
        pi_factors = td_of(registered_spec("D"), 1, 5).pi_factors()
        val = pi_factor_value(pi_factors).abs_enclosure()
        closed = ((Enclosure.pi() / 5).cos_sin()[0]
                  / (1 + (2 * Enclosure.pi() / 5).cos_sin()[0]))
        assert val.intersects(closed)


class TestFareyDissection:
    def test_order_one(self):
        arcs = farey_arcs(1)
        assert len(arcs) == 1
        assert arcs[0].theta_left == arcs[0].theta_right == Fraction(1, 2)
        assert arcs[0].theta_left + arcs[0].theta_right == 1

    def test_order_three(self):
        arcs = farey_arcs(3)
        assert [(a.h, a.k) for a in arcs] == [(0, 1), (1, 3), (1, 2), (2, 3)]
        assert sum(a.theta_left + a.theta_right for a in arcs) == 1

    def test_order_ten_bounds(self):
        for arc in farey_arcs(10):
            n, k = arc.order, arc.k
            for t in (arc.theta_left, arc.theta_right):
                assert Fraction(1, 2 * k * n) <= t <= Fraction(1, k * n)

    @given(order=st.integers(1, 40))
    @settings(max_examples=20, deadline=None)
    def test_tiling(self, order):
        arcs = farey_arcs(order)
        assert sum(a.theta_left + a.theta_right for a in arcs) == 1
        # consecutive arcs share their mediant endpoint
        for left, right in zip(arcs, arcs[1:]):
            assert Fraction(left.h, left.k) + left.theta_right == \
                Fraction(right.h, right.k) - right.theta_left

    def test_fraction_count_explicit(self):
        def phi(k):
            return sum(1 for i in range(1, k + 1) if gcd(i, k) == 1)

        for order in (1, 2, 5, 12):
            assert len(farey_fractions(order)) == 1 + sum(phi(k) for k in range(2, order + 1))

    def test_real_part_reciprocal_bound(self):
        # Re(1/z) >= k/2 on every arc: exact rational check on sampled points
        for arc in farey_arcs(9):
            rho = Fraction(1, 81)
            for i in range(-4, 5):
                phi = (arc.theta_right if i >= 0 else arc.theta_left) * i / 4
                re_inv_z = rho / (arc.k * (rho * rho + phi * phi))
                assert re_inv_z >= Fraction(arc.k, 2)


class TestMoebiusClosedFormAgainstEvaluation:
    @given(t=st.integers(0, 29))
    @settings(max_examples=30, deadline=None)
    def test_transformed_arguments_match_direct_moebius(self, t):
        rng = random.Random(t)
        spec = registered_spec(rng.choice(["A", "D"]))
        k = rng.randint(1, 12)
        hs = [h for h in range(k) if gcd(h, k) == 1] or [0]
        h = rng.choice(hs)
        td = td_of(spec, h, k)
        z = c_hp(Fraction(rng.randint(2, 9), 7), Fraction(rng.randint(-3, 3), 5))
        tau = ComplexHP((Enclosure.from_fraction(h) - z.im) / k, z.re / k)
        for (r, m, _), (sig, ta) in zip(spec.factors, transformed_arguments(td, z)):
            from oracles import gamma_of

            g = gamma_of(m, h, k)
            mtau = tau.scale(m)
            den = mtau.scale(g.c) + ComplexHP.from_fractions(g.d, 0)
            direct_tau = (mtau.scale(g.a) + ComplexHP.from_fractions(g.b, 0)) / den
            assert rel_residual(direct_tau, ta) < 1e-30
            lam = [f for f in td.factors if (f.r, f.m) == (r, m)][0].lam
            direct_sig = tau.scale(r) / den + direct_tau.scale(lam)
            assert rel_residual(direct_sig, sig) < 1e-30


#: psi(1, 5) alone: its eta power does not cancel, so nodes need (q^5; q^5)
UNCANCELLED = ProductSpec(((1, 5, 1),))


def spec_named(name):
    return UNCANCELLED if name == "psi15" else registered_spec(name)


def assert_small_coefficients_match_exact(name):
    spec = spec_named(name)
    ns = [0, 4, 6, 7]
    exact = expand_product(spec, max(ns))
    got = numeric_coefficients(spec, ns, order=4, dps=35, tol=1e-9)
    for n in ns:
        assert abs(float(got[n]) - exact.coeff(n)) / max(1, abs(exact.coeff(n))) < 1e-6


class TestNumericCoefficients:
    def test_constant_term(self):
        got = numeric_coefficients(registered_spec("A"), [0], order=4, dps=30, tol=1e-8)
        assert abs(float(got[0]) - 1) < 1e-6

    def test_small_coefficients_match_exact(self):
        assert_small_coefficients_match_exact("A")

    @pytest.mark.parametrize("name", ["B", "D", "psi15"])
    def test_small_coefficients_match_exact_higher_level(self, name):
        # B and psi(1, 5) are level 5; D is level 25
        assert_small_coefficients_match_exact(name)

    def test_the_product_one_has_no_powers_on_either_side(self):
        # psi(1,5)/psi(4,5) reduces to 1: both sides of every node are the constant 1
        spec = ProductSpec(((1, 5, 1), (4, 5, -1)))
        got = numeric_coefficients(spec, [0, 1, 5], order=4, dps=30, tol=1e-9)
        assert got == {0: 1, 1: 0, 5: 0}

    def test_empty_index_list(self):
        assert numeric_coefficients(registered_spec("A"), [], order=4, dps=30, tol=1e-9) == {}

    def test_refuses_at_node_cap(self, monkeypatch):
        # 16 nodes never exceed n = 20, so no estimate is ever formed
        monkeypatch.setattr(circle, "_MAX_NODES", 2 ** 4)
        with pytest.raises(ConvergenceRefused):
            numeric_coefficients(registered_spec("A"), [20], order=4, dps=30, tol=1e-9)

    def test_refuses_an_index_past_the_node_cap_before_sampling(self, monkeypatch):
        # 9000 needs estimates at 16384 nodes and 32768 to compare them
        calls = []
        real = circle._node_value

        def counting(*args):
            calls.append(args[2])
            return real(*args)

        monkeypatch.setattr(circle, "_node_value", counting)
        with pytest.raises(ConvergenceRefused):
            numeric_coefficients(registered_spec("A"), [9000], order=4, dps=30, tol=1e-9)
        assert len(calls) == 0

    @pytest.mark.parametrize("tol", [0, -1e-9, float("nan")])
    def test_refuses_nonpositive_tol_before_sampling(self, monkeypatch, tol):
        monkeypatch.setattr(circle, "_node_value", must_not_run)
        with pytest.raises(ValueError, match="tol"):
            numeric_coefficients(registered_spec("A"), [3], order=4, dps=30, tol=tol)

    @pytest.mark.parametrize("ns", [[1.0], [2, -1], ["3"]])
    def test_refuses_bad_indices_before_sampling(self, monkeypatch, ns):
        monkeypatch.setattr(circle, "_node_value", must_not_run)
        with pytest.raises(ValueError, match="nonnegative ints"):
            numeric_coefficients(registered_spec("A"), ns, order=4, dps=30, tol=1e-9)

    @pytest.mark.parametrize("dps", [0, -5, 30.0, "30", None])
    def test_refuses_bad_dps_before_sampling(self, monkeypatch, dps):
        # dps = 0 and -5 used to return 2.5 and 64 for alpha(3) = 5
        monkeypatch.setattr(circle, "_node_value", must_not_run)
        with pytest.raises(ValueError, match="dps"):
            numeric_coefficients(registered_spec("A"), [3], order=4, dps=dps, tol=1e-9)

    @pytest.mark.parametrize("order", [1, 4.0, "4", None])
    def test_refuses_bad_order_before_sampling(self, monkeypatch, order):
        monkeypatch.setattr(circle, "_node_value", must_not_run)
        with pytest.raises(ValueError, match="order"):
            numeric_coefficients(registered_spec("A"), [3], order=order, dps=30, tol=1e-9)

    @pytest.mark.parametrize("order, ns, nodes", [(2, [3, 5], 64), (4, [3, 20], 256),
                                                   (6, [1, 40], 1024)])
    def test_evaluates_half_the_nodes_and_one(self, monkeypatch, order, ns, nodes):
        # node M - j is the conjugate of node j: node 0, then the odd nodes
        # j <= M/2 of each level M = 2, 4, ..., nodes
        calls = []
        real = circle._node_value

        def counting(plan, roots, j, bits):
            calls.append((len(roots), j))
            return real(plan, roots, j, bits)

        monkeypatch.setattr(circle, "_node_value", counting)
        numeric_coefficients(registered_spec("A"), ns, order=order, dps=30, tol=1e-9)
        levels = [2 ** k for k in range(1, nodes.bit_length())]
        assert calls == [(1, 0)] + [(m, j) for m in levels for j in range(1, m // 2 + 1, 2)]
        assert len(calls) == nodes // 2 + 1

    def test_makes_no_mpmath_unit_roots(self, monkeypatch):
        for name in ("cospi", "sinpi", "expjpi", "cos", "sin"):
            monkeypatch.setattr(mpmath, name, must_not_run)
        got = numeric_coefficients(registered_spec("A"), [3, 5], order=2, dps=30, tol=1e-9)
        assert abs(got[3] - 5) < 1e-25 and abs(got[5] + 24) < 1e-25

    @pytest.mark.parametrize("order, tol", [(2, 1e-9), (6, 1e-2)])
    @pytest.mark.parametrize("name", ["A", "D", "c"])
    def test_estimates_match_a_direct_trapezoid_sum(self, name, order, tol):
        # every node by mpmath triple-product sums, no mirror and no running totals;
        # at order 6 both end at M = 512 for A and D, 256 for c
        spec, ns, dps = registered_spec(name), [1, 7], 30
        got = numeric_coefficients(spec, ns, order=order, dps=dps, tol=tol)
        ref = trapezoid_coefficients(spec, ns, order, dps, tol, circle._MAX_NODES)
        for n in ns:
            assert abs(got[n] - ref[n]) < mpmath.mpf(10) ** (3 - dps) * max(1, abs(ref[n]))

    @pytest.mark.parametrize("order", [2, 6])
    @pytest.mark.parametrize("name", ["A", "D"])
    def test_trapezoid_nodes_match_the_product_oracle(self, name, order):
        # the direct trapezoid sum's triple-product nodes against the
        # factor-by-factor products, at the working digits both are called with
        spec, dps = registered_spec(name), 30
        with mpmath.mp.workdps(dps + 10):
            for x in (0, 1, 5, 16, 31):
                tau = mpmath.mpc(mpmath.mpf(x) / 32, mpmath.mpf(1) / order ** 2)
                ref = psi_product_mpc(spec, tau, dps + 10)
                got = psi_product_by_sums_mpc(spec, tau, dps + 10)
                assert abs(got - ref) < mpmath.mpf(10) ** (3 - dps) * abs(ref), x

    @pytest.mark.parametrize("dps", [30, 35])
    @pytest.mark.parametrize("name", ["A", "B", "C", "D", "c", "d", "psi15"])
    def test_fixed_point_nodes_match_the_mpmath_oracle(self, name, dps):
        assert worst_node_error(spec_named(name), 4, dps) < mpmath.mpf(10) ** (3 - dps)

    @pytest.mark.parametrize("dps", [30, 35])
    @pytest.mark.parametrize("name", ["A", "B", "C", "D", "c", "d", "psi15"])
    @pytest.mark.parametrize("order", [2, 6])
    def test_fixed_point_nodes_match_the_mpmath_oracle_at_order(self, order, name, dps):
        assert worst_node_error(spec_named(name), order, dps) < mpmath.mpf(10) ** (3 - dps)

    @pytest.mark.parametrize("name", ["A", "D"])
    def test_fixed_point_nodes_hold_at_order_8(self, name):
        # guard bits grow with the order, where |T| can fall to prod (1 - R^a)
        assert worst_node_error(registered_spec(name), 8, 30) < mpmath.mpf(10) ** -27

    def test_independent_of_the_exact_engine(self, monkeypatch):
        spec = registered_spec("A")
        ns = [0, 3, 7]
        exact = expand_product(spec, max(ns))
        for name in ("expand_product", "expand_limbs", "expand_product_reference"):
            monkeypatch.setattr(qseries, name, must_not_run)
        got = numeric_coefficients(spec, ns, order=4, dps=30, tol=1e-9)
        for n in ns:
            assert abs(float(got[n]) - exact.coeff(n)) < 1e-9


class TestUnitRoots:
    def test_small_tables_are_exact(self):
        one = 1 << 132
        roots = circle._refine_roots([(one, 0)], 132)
        assert roots == [(one, 0), (-one, 0)]
        assert circle._refine_roots(roots, 132) == [(one, 0), (0, one), (-one, 0), (0, -one)]

    @pytest.mark.parametrize("bits", [132, 200, 290])
    def test_roots_to_the_node_cap(self, bits):
        # even entries are the level before (the running DFT totals rely on
        # it), the quarters are exact quarter turns of the first, and no
        # entry is more than 2 log2 M ulps from e^{2 pi i t/M} at 2W bits
        roots = [(1 << bits, 0)]
        while len(roots) < circle._MAX_NODES:
            before, roots = roots, circle._refine_roots(roots, bits)
            assert roots[::2] == before
        m, q = len(roots), len(roots) // 4
        for t, (x, y) in enumerate(roots[:q]):
            assert roots[t + q] == (-y, x) and roots[t + 2 * q] == (-x, -y)
            assert roots[t + 3 * q] == (y, -x)
        with mpmath.mp.workprec(2 * bits):
            scale = mpmath.mpf(2) ** bits
            worst = max(abs(mpmath.mpc(x, y) - scale * mpmath.expjpi(mpmath.mpf(2 * t) / m))
                        for t, (x, y) in enumerate(roots[:q]))
        assert worst <= 2 * math.log2(m)


#: digits of the node oracle: 10 above the largest dps `worst_node_error` is asked for (35)
NODE_ORACLE_DPS = 45


@functools.cache
def node_oracle(spec, order, x):
    """``psi_product_mpc`` at x/64 + i/order^2 and NODE_ORACLE_DPS digits, once per test run.

    Every dps a test asks for is compared against this one value; an
    oracle at more digits than the dps + 10 it needs is no weaker.
    """
    with mpmath.mp.workdps(NODE_ORACLE_DPS):
        tau = mpmath.mpc(mpmath.mpf(x) / 64, mpmath.mpf(1) / order ** 2)
        return psi_product_mpc(spec, tau, NODE_ORACLE_DPS)


def worst_node_error(spec, order, dps):
    """Largest relative error of the fixed-point nodes against the product oracle.

    The nodes t/64 + i rho sample every level up to M = 64 and the real
    axis t = 0, where each triple product meets its lower bound
    prod (1 - R^a) and the guard bits are needed most.  Each node's
    conjugate is also checked against the oracle at its mirror
    (64 - t)/64 + i rho, which is how ``numeric_coefficients`` reads the
    nodes past M/2.
    """
    assert dps + 10 <= NODE_ORACLE_DPS
    bits, plan = circle._node_plan(spec, order, dps)
    roots = [(1 << bits, 0)]
    while len(roots) < 64:
        roots = circle._refine_roots(roots, bits)
    nodes = {0} | {j * 64 // m for m in (2, 4, 8, 16, 32, 64) for j in range(1, m, max(2, m // 4))}
    worst = mpmath.mpf(0)
    for t in sorted(nodes):
        fr, fi = circle._node_value(plan, roots, t, bits)
        with mpmath.mp.workdps(dps + 10):
            got = mpmath.mpc(mpmath.ldexp(fr, -bits), mpmath.ldexp(fi, -bits))
            for x, value in ((t, got), (64 - t, got.conjugate())):
                ref = node_oracle(spec, order, x)
                worst = max(worst, abs(value - ref) / abs(ref))
    return worst


def must_not_run(*args, **kwargs):
    raise AssertionError("must not be called")
