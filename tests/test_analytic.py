import math
from fractions import Fraction
from random import Random

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (colored_partition_majorant, expand_pochhammer, majorization_check,
                     wang_bounds_hold, wang_upper)
from qsign import analytic
from qsign.analytic import (PRECISION_CAP, CertificateRefused, UsageError, arc_bessel,
                            bessel_im1, class_constant, dominance, error_bound,
                            eventual_dominance_certificate, main_term, main_term_data,
                            precision_schedule, wang_lower, wang_main_lower)
from qsign.certify import PATTERNS, TARGETS
from qsign.circle import ConvergenceRefused, lemma_arc_integral
from qsign.enclosure import Enclosure, mpf_to_fraction
from qsign.qseries import (REGISTERED_SPECS as SPECS, ProductSpec, QSeries, expand_product,
                           registered_spec)

#: the paper's claim on each of its three specs
CLAIMS = {"A": TARGETS["A5n"], "B": TARGETS["B5n"], "D": TARGETS["D5n1"]}


def cos_pi(t: Fraction) -> Enclosure:
    """cos(pi t) for exact rational t."""
    return (Enclosure.pi() * Enclosure.from_fraction(t)).cos_sin()[0]


def bessel_partial_sum_oracle(x: Fraction, terms: int = 80) -> tuple[Fraction, Fraction]:
    """Independent exact partial sum of sum_j (x/2)^{2j+1}/(j!(j+1)!) with a tail bound."""
    half = x / 2
    total = Fraction(0)
    term = half
    for j in range(terms):
        total += term
        term *= half * half / ((j + 1) * (j + 2))
    ratio = half * half / ((terms + 1) * (terms + 2))
    assert ratio < Fraction(1, 2)
    return total, term / (1 - ratio)


class TestBessel:
    def test_zero(self):
        b = bessel_im1(Enclosure.from_fraction(0))
        assert b.lo == b.hi == 0

    def test_value_at_two_against_partial_sum_oracle(self):
        got = bessel_im1(Enclosure.from_fraction(2))
        lo, tail = bessel_partial_sum_oracle(Fraction(2))
        assert mpf_to_fraction(got.lo) <= lo + tail
        assert lo <= mpf_to_fraction(got.hi)
        # digit bracket frozen from the exact partial-sum oracle
        assert mpf_to_fraction(got.lo) > Fraction("1.590636854637329063382254424")
        assert mpf_to_fraction(got.hi) < Fraction("1.590636854637329063382254425")

    def test_wang_bounds_at_three(self):
        assert wang_bounds_hold(Enclosure.from_fraction(3)) is True

    def test_wang_bounds_at_hundred(self):
        assert wang_bounds_hold(Enclosure.from_fraction(100)) is True

    def test_wang_bounds_on_grid(self):
        for i in range(100):
            x = Enclosure.from_fraction(Fraction(300 + i * 47, 100))
            assert wang_bounds_hold(x) is True

    def test_wang_requires_three(self):
        with pytest.raises(UsageError):
            wang_bounds_hold(Enclosure.from_fraction(2))

    def test_negative_argument_rejected(self):
        with pytest.raises(UsageError):
            bessel_im1(Enclosure.from_fraction(-1))

    @given(num=st.integers(1, 4000))
    @settings(max_examples=30, deadline=None)
    def test_against_float_oracle(self, num):
        x = Fraction(num, 100)
        got = bessel_im1(Enclosure.from_fraction(x))
        ref = mpmath.besseli(1, mpmath.mpf(num) / 100)
        assert got.lo <= ref * (1 + mpmath.mpf(1e-12))
        assert ref * (1 - mpmath.mpf(1e-12)) <= got.hi

    def test_large_argument_tail_still_contains(self):
        x = Enclosure.from_fraction(Fraction(347))
        got = bessel_im1(x)
        assert wang_lower(x).hi < got.hi and got.lo < wang_upper(x).lo * 2
        assert float(got.width / got.hi) < 1e-40


class TestEnclosureSoundness:
    @given(a=st.integers(-900, 900), b=st.integers(1, 50), c=st.integers(-40, 40))
    @settings(max_examples=60, deadline=None)
    def test_compositions_contain_float_reference(self, a, b, c):
        x = Fraction(a, b)
        e = Enclosure.from_fraction(x)
        expr = (e * c + 1).exp() if x * c < 30 else (e / b + c).cos_sin()[1]
        ref = (math.exp(float(x * c + 1)) if x * c < 30
               else math.sin(float(x) / b + c))
        tol = 1e-9 * max(1.0, abs(ref))
        assert float(expr.lo) - tol <= ref <= float(expr.hi) + tol

    @given(a=st.integers(-500, 500), b=st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_double_precision_enclosures_intersect(self, a, b):
        x = Fraction(a, b)
        low = ((Enclosure.from_fraction(x, 96) / 7).cos_sin()[0] + 2).log()
        high = ((Enclosure.from_fraction(x, 192) / 7).cos_sin()[0] + 2).log()
        assert low.intersects(high)
        assert high.width <= low.width

    def test_monotone_precision_never_widens(self):
        for bits in (96, 192, 384, 768):
            e = bessel_im1(Enclosure.from_fraction(Fraction(71, 7), bits))
            if bits > 96:
                assert e.width <= prev_width
            prev_width = e.width


class TestDirectedDecimalStrings:
    @staticmethod
    def assert_outward(e: Enclosure, digits: int) -> None:
        assert Fraction(e.str_lo(digits)) <= mpf_to_fraction(e.lo)
        assert Fraction(e.str_hi(digits)) >= mpf_to_fraction(e.hi)

    @pytest.mark.parametrize("fam,n0", [("A", 801), ("B", 801), ("D", 19001)])
    def test_certificate_endpoints(self, fam, n0):
        first = eventual_dominance_certificate(SPECS[fam], CLAIMS[fam].residue, n0).first_index
        for e in (wang_main_lower(SPECS[fam], first), error_bound(SPECS[fam], first)):
            self.assert_outward(e, 30)

    def test_certificate_strings_round_outward(self):
        # round-to-nearest gives ...707681e+144 for the bound here
        cert = eventual_dominance_certificate(SPECS["D"], 1, 19001)
        assert cert.wang_main_lo.endswith("132685e+145")
        assert cert.bound_hi.endswith("707682e+144")

    @pytest.mark.parametrize("x", [Fraction(-22, 7), Fraction(3, 10 ** 40), Fraction(5, 4)])
    def test_negative_tiny_and_exact_values(self, x):
        e = Enclosure.from_fraction(x)
        for digits in (5, 25, 30):
            self.assert_outward(e, digits)

    def test_exact_decimal_is_kept(self):
        e = Enclosure.from_fraction(Fraction(5, 4))
        assert e.str_lo(5) == e.str_hi(5) == "1.2500"
        assert Enclosure.from_fraction(-2).str_hi(3) == "-2.00"


class TestMainTermAndBound:
    def test_reciprocal_family_negative_on_class(self):
        for n in (10, 105, 800, 2005):
            assert main_term(SPECS["A"], n).is_negative()

    def test_fifth_power_family_negative_on_class(self):
        for n in (10, 105, 800):
            assert main_term(SPECS["B"], n).is_negative()

    def test_level25_family_positive_on_class(self):
        for n in (11, 106, 1001):
            assert main_term(SPECS["D"], n).is_positive()

    @pytest.mark.parametrize("name", ["A", "B", "D"])
    def test_class_sign_is_claimed_sign(self, name):
        # M(n) = (2 pi/5) Re S_r x^{-1/2} I_1(...): the derived class constant
        # Re S_r on the claimed class is a certified enclosure of the claimed sign
        closed = {"A": lambda: -2 * cos_pi(Fraction(1, 5)),
                  "B": lambda: -2 * cos_pi(Fraction(2, 5)),
                  "D": lambda: cos_pi(Fraction(2, 5)) / cos_pi(Fraction(1, 5))}[name]
        claim = CLAIMS[name]
        const = class_constant(SPECS[name], claim.residue)
        assert isinstance(const, Enclosure) and const.intersects(closed())
        assert const.is_positive() if claim.sign > 0 else const.is_negative()

    @pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: p.spec_name)
    def test_every_claim_has_the_sign_of_its_class_constant(self, pattern):
        # every class of the spec's pattern, certified or finite-only
        for r, sign in enumerate(pattern.signs):
            const = class_constant(SPECS[pattern.spec_name], r)
            assert const.is_positive() if sign > 0 else const.is_negative(), r

    def test_amplitude_constant_of_level25_family(self):
        # |Pi| = cos(pi/5)/(1 + cos(2 pi/5)) = 1/(2 cos(pi/5)) by golden-ratio
        # algebra, so Re S_r(D) = Re S_r(A) / (2 cos(pi/5)) in every class
        inv = 1 / (2 * cos_pi(Fraction(1, 5)))
        for r in range(5):
            assert (class_constant(SPECS["D"], r) / class_constant(SPECS["A"], r)).intersects(inv)

    def test_min_n_guard(self):
        with pytest.raises(UsageError):
            main_term(SPECS["A"], 1)

    def test_error_bound_requires_twenty(self):
        with pytest.raises(UsageError):
            error_bound(SPECS["A"], 19)

    def test_error_constant_parts(self):
        e = Enclosure
        const_ab = (2 * e.exp_of(54) + (8 * e.pi()).exp() + 185) * e.exp_of(2)
        assert error_bound(SPECS["A"], 801).strictly_greater(const_ab - 1)
        # resolving the growth term next to e^332 needs ~350 bits of range
        const_d = e.exp_of(332, 512) + e.exp_of(272, 512) + (8 * e.pi(512) + 2).exp()
        assert error_bound(SPECS["D"], 19001, 512).strictly_greater(const_d - 1)

    def test_bound_growth_term(self):
        # at large n the growth term dominates the constant for families A/B
        small = error_bound(SPECS["A"], 805)
        large = error_bound(SPECS["A"], 100000)
        assert large.strictly_greater(small)


def seeded_inline_specs(seed: int, per_level: int) -> list[ProductSpec]:
    """Random products of 2 or 3 factors at levels 5, 10 and 25, one factor at the level."""
    rng = Random(seed)
    specs = []
    for level, moduli in ((5, (5,)), (10, (2, 5, 10)), (25, (5, 25))):
        for _ in range(per_level):
            ms = [level, *(rng.choice(moduli) for _ in range(rng.randint(1, 2)))]
            specs.append(ProductSpec(tuple(
                (rng.randrange(1, m), m, rng.choice((-3, -2, -1, 1, 2, 3))) for m in ms)))
    return specs


INLINE_SPECS = seeded_inline_specs(38, 4)
#: the indices at which the written-form test reads M(n) and E(n)
READ_INDICES = (20, 21, 22, 23, 24, 805)


def written_form_readings(spec: ProductSpec, with_bound: bool):
    """``main_term_data`` (or its refusal), then raw endpoints of S_r, M(n) and if asked E(n)."""
    try:
        data = main_term_data(spec)
    except CertificateRefused as exc:
        return str(exc)
    return (data, [class_constant(spec, r)._mpi_ for r in range(data.k)],
            [main_term(spec, n)._mpi_ for n in READ_INDICES],
            [error_bound(spec, n)._mpi_ for n in READ_INDICES] if with_bound else None)


class TestDerivedMainTerm:
    @pytest.mark.parametrize("name,omega,hs", [("A", -24, (1, 4)), ("B", 24, (2, 3)),
                                               ("D", 0, (1, 4))])
    def test_dominant_arcs(self, name, omega, hs):
        data = main_term_data(registered_spec(name))
        assert (data.k, data.delta, data.omega) == (5, 24, omega)
        assert tuple(h for h, _, _ in data.arcs) == hs
        assert main_term_data.cache_info().maxsize is not None

    @pytest.mark.parametrize("name,phase", [("A", lambda r: Fraction(2 * r + 1, 5)),
                                            ("B", lambda r: Fraction(2 * (2 * r - 1), 5))])
    def test_class_constants_match_the_closed_form(self, name, phase):
        # the level-5 families: Re S_r = -2 cos(pi phase(r)) in every class
        for r in range(5):
            assert class_constant(SPECS[name], r).intersects(-2 * cos_pi(phase(r)))

    def test_class_constant_cached_per_precision(self):
        low = class_constant(SPECS["D"], 1, 192)
        assert class_constant(SPECS["D"], 1, 192) is low
        high = class_constant(SPECS["D"], 1, 256)
        assert (low.bits, high.bits) == (192, 256)
        assert low.contains(high.lo) and low.contains(high.hi)
        assert analytic._class_sum.cache_info().maxsize is not None

    def test_spec_off_the_certified_route_refused(self):
        # c = 1/R dominates at k = 5 with Delta = 24/5: it has a main term, but
        # E(n) is stated for Delta = 24 only
        assert main_term_data(registered_spec("c")).delta == Fraction(24, 5)
        assert isinstance(class_constant(SPECS["c"], 0), Enclosure)
        assert isinstance(main_term(SPECS["c"], 100), Enclosure)
        for call in (lambda: error_bound(SPECS["c"], 100),
                     lambda: eventual_dominance_certificate(SPECS["c"], 0, 801)):
            with pytest.raises(CertificateRefused, match="Delta = 24/5"):
                call()

    def test_spec_without_an_error_constant_refused(self):
        # C is on the route (k = 5, Delta = 24) but the paper states no E(n) for it
        assert main_term_data(registered_spec("C")).delta == 24
        assert isinstance(main_term(SPECS["C"], 100), Enclosure)
        for call in (lambda: error_bound(SPECS["C"], 100), lambda: dominance(SPECS["C"], 100),
                     lambda: eventual_dominance_certificate(SPECS["C"], 0, 801)):
            with pytest.raises(CertificateRefused, match="no explicit error constant"):
                call()


class TestMainTermWithoutErrorBound:
    """c, d and C have a derived main term but no stated E(n): check M against a(n)."""

    @pytest.mark.parametrize("name", ["c", "d", "C"])
    def test_sign_and_ratio_against_the_exact_coefficients(self, name):
        series = expand_product(registered_spec(name), 1004)
        for lo, tol in ((200, Fraction(1, 10**2)), (1000, Fraction(1, 10**6))):
            for n in range(lo, lo + 5):
                m, a = main_term(SPECS[name], n), series.coeffs[n]
                assert m.is_positive() if a > 0 else m.is_negative(), n
                assert abs(Enclosure.from_fraction(a) / m - 1).strictly_less(tol), n


def audit_violations(name: str, series: QSeries, indices) -> list[int]:
    """Indices n where |a(n) - M(n)| < E(n) is not certified against the exact a(n)."""
    bad = []
    for n in indices:
        diff = abs(Enclosure.from_fraction(series.coeffs[n]) - main_term(SPECS[name], n))
        if not diff.strictly_less(error_bound(SPECS[name], n)):
            bad.append(n)
    return bad


class TestAnalyticVsExact:
    """The analytic model against exact coefficients, in every residue class."""

    @pytest.mark.parametrize("name,fixture", [("A", "series_a_1000"), ("B", "series_b_1000")])
    def test_level5_families_every_index_to_1000(self, name, fixture, request):
        series = request.getfixturevalue(fixture)
        assert audit_violations(name, series, range(20, 1001)) == []

    def test_level25_family_up_to_the_finite_range(self, series_d_19501):
        # a stride of 11 visits every residue; a main term at half this
        # amplitude fails at 93 of these 137 indices, the first at n = 18440
        assert audit_violations("D", series_d_19501, range(18000, 19502, 11)) == []


class TestDominance:
    def test_reciprocal_family_at_805(self):
        res = dominance(SPECS["A"], 805)
        assert res.verdict is True

    def test_fifth_power_family_at_805(self):
        res = dominance(SPECS["B"], 805)
        assert res.verdict is True

    def test_level25_family_at_19006(self):
        res = dominance(SPECS["D"], 19006)
        assert res.verdict is True
        assert res.main.bits <= PRECISION_CAP

    def test_unclaimed_residue_class(self, series_a_1000):
        # E(n) bounds |a(n) - M(n)| in every class, so dominance has the sign of a(n)
        res = dominance(SPECS["A"], 803)
        assert res.verdict is True
        assert res.main.is_positive() and series_a_1000.coeffs[803] > 0

    def test_small_indices_not_dominant(self):
        # far below the threshold the bound exceeds the main term
        res = dominance(SPECS["A"], 30)
        assert res.verdict is False


class TestPrecisionSchedule:
    def test_doublings_up_to_the_cap(self):
        assert list(precision_schedule(192)) == [192, 384, 768, 1024]
        assert list(precision_schedule(1024)) == [PRECISION_CAP] == [1024]
        assert list(precision_schedule(8)) == [8, 16, 32, 64, 128, 256, 512, 1024]

    @pytest.mark.parametrize("bits", [7, 1025, 2048])
    def test_out_of_range_start_refused(self, bits):
        with pytest.raises(UsageError, match="outside"):
            precision_schedule(bits)
        with pytest.raises(UsageError, match="outside"):
            dominance(SPECS["A"], 805, start_bits=bits)


class TestEventualDominance:
    def test_certificates_issue_at_documented_thresholds(self):
        for fam, n0 in (("A", 801), ("B", 801), ("D", 19001)):
            cert = eventual_dominance_certificate(SPECS[fam], CLAIMS[fam].residue, n0)
            assert cert.n0 == n0
            assert cert.first_index % main_term_data(SPECS[fam]).k == CLAIMS[fam].residue

    def test_first_index_alignment(self):
        assert eventual_dominance_certificate(SPECS["A"], 0, 801).first_index == 805
        assert eventual_dominance_certificate(SPECS["A"], 3, 801).first_index == 803

    def test_wang_route_weaker_than_sharp_enclosure(self):
        lo = wang_main_lower(SPECS["A"], 805)
        sharp = abs(main_term(SPECS["A"], 805))
        assert lo.hi < sharp.lo

    def test_refusal_below_validity(self):
        with pytest.raises(CertificateRefused):
            eventual_dominance_certificate(SPECS["A"], 0, 15)

    def test_refusal_when_not_dominant(self):
        with pytest.raises(CertificateRefused):
            eventual_dominance_certificate(SPECS["A"], 0, 100)

    def test_inline_copy_of_a_registered_spec_gets_its_results(self):
        # the analytic layer is keyed by spec content, never by name or identity
        inline = ProductSpec.from_json(SPECS["D"].to_json())
        assert inline is not SPECS["D"] and inline == SPECS["D"]
        cert = eventual_dominance_certificate(inline, 1, 19001)
        assert cert == eventual_dominance_certificate(SPECS["D"], 1, 19001)
        got, want = dominance(inline, 19006), dominance(SPECS["D"], 19006)
        assert got.verdict is want.verdict is True
        assert [(e.lo, e.hi) for e in (got.main, got.bound)] == [
            (e.lo, e.hi) for e in (want.main, want.bound)]

    def test_unregistered_spec_gets_a_main_term_but_no_error_bound(self):
        # c squared: a spec no table holds, dominated at k = 5 with Delta = 48/5
        inline = ProductSpec.from_json(
            '[{"r": 1, "m": 5, "delta": -2}, {"r": 2, "m": 5, "delta": 2}]')
        assert inline not in SPECS.values() and inline not in analytic.ERROR_CONSTANTS
        assert main_term_data(inline).delta == 2 * main_term_data(SPECS["c"]).delta
        assert isinstance(main_term(inline, 100), Enclosure)
        with pytest.raises(CertificateRefused, match="Delta = 48/5"):
            error_bound(inline, 100)

    @pytest.mark.parametrize("factors", [((1, 5, -5), (2, 5, 5)), ((3, 5, 5), (4, 5, -5)),
                                         ((4, 5, -5), (3, 5, 5)), ((1, 5, -5), (3, 5, 5)),
                                         ((4, 5, -5), (2, 5, 5))])
    def test_a_rewritten_spec_is_a_with_its_error_bound(self, factors):
        # A with its factors swapped, and with psi(2,5)/psi(1,5) written as
        # psi(3,5)/psi(4,5): A's key of ERROR_CONSTANTS, A's E(n) and main term
        inline = ProductSpec(factors)
        assert inline == SPECS["A"] and hash(inline) == hash(SPECS["A"])
        got, want = error_bound(inline, 805), error_bound(SPECS["A"], 805)
        assert (got.lo, got.hi) == (want.lo, want.hi)
        assert main_term(inline, 805).intersects(main_term(SPECS["A"], 805))
        # E is built on the main term's own y and sqrt(x), which only k, Delta
        # and Omega fix, and A's arcs have no Pi factors to order: dominance
        # reads the same enclosures however A is written
        got, want = dominance(inline, 805), dominance(SPECS["A"], 805)
        assert got.verdict is want.verdict is True
        assert [(e.lo, e.hi) for e in (got.main, got.bound)] == [
            (e.lo, e.hi) for e in (want.main, want.bound)]

    @pytest.mark.parametrize("spec", [*SPECS.values(), *INLINE_SPECS],
                             ids=[*SPECS, *(f"inline{i}" for i in range(len(INLINE_SPECS)))])
    def test_every_written_form_reads_the_specs_enclosures(self, spec):
        # the factors reversed, every psi(r, m) as psi(m - r, m), one delta
        # split in two, and a cancelling pair at a new modulus: one product,
        # so one MainTermData and bit-identical S_r, M(n) and E(n)
        first, *rest = spec.factors
        forms = [spec.factors[::-1], tuple((m - r, m, d) for r, m, d in spec.factors),
                 ((first[0], first[1], 2 * first[2]), (first[0], first[1], -first[2]), *rest),
                 (*spec.factors, (1, 7, 1), (6, 7, -1))]
        for factors in forms:
            form = ProductSpec(factors)
            with_bound = form in analytic.ERROR_CONSTANTS  # the pair moves the level: no C
            assert (written_form_readings(form, with_bound)
                    == written_form_readings(spec, with_bound)), factors

    def test_a_product_that_reduces_to_one_does_not_grow(self):
        with pytest.raises(CertificateRefused,
                           match="no class with Delta > 0: the coefficients do not grow"):
            main_term_data(ProductSpec(((1, 5, 1), (4, 5, -1))))

    @pytest.mark.parametrize("name", ["A", "B", "D"])
    def test_the_monotone_condition_on_y_is_the_papers_on_sqrt_x(self, name):
        # y = (pi/6k) sqrt(24 Delta x) = (4 pi/5) sqrt(x) at k = 5, Delta = 24, so the
        # certificate's y0 > 5 is sqrt(x0) > 25/(4 pi), and y0 > 3/2 is sqrt(x0) > 15/(8 pi)
        data = main_term_data(SPECS[name])
        assert 24 * data.delta == 24 ** 2 and Fraction(24, 6 * data.k) == Fraction(4, 5)
        inv_pi_sq = 1 / Enclosure.pi().square()
        for x, y_bound, sqrt_x_bound in ((Fraction(395, 100), 5, Fraction(25, 4)),
                                         (Fraction(396, 100), 5, Fraction(25, 4)),
                                         (Fraction(356, 1000), Fraction(3, 2), Fraction(15, 8)),
                                         (Fraction(357, 1000), Fraction(3, 2), Fraction(15, 8))):
            _, y, _ = arc_bessel(data.k, data.delta, x, 192)
            above = (sqrt_x_bound ** 2 * inv_pi_sq).strictly_less(Enclosure.from_fraction(x))
            assert y.strictly_greater(y_bound) if above else y.strictly_less(y_bound), x

    def test_monotone_precondition_is_on_the_specs_own_y(self, monkeypatch):
        # psi(2,7)/psi(1,7) dominates at k = 7 with a slower y: given a C, its
        # certificate at n0 = 20 is refused on y0 > 5, where the level-5
        # condition sqrt(x0) > 25/(4 pi) would have let it through
        spec = ProductSpec(((1, 7, -1), (2, 7, 1)))
        data = main_term_data(spec)
        x0 = 20 + data.omega / 24
        _, y0, _ = arc_bessel(data.k, data.delta, x0, 192)
        assert data.k == 7 and y0.strictly_less(5) and y0.strictly_greater(4)
        assert (Fraction(625, 16) / Enclosure.pi().square()).strictly_less(
            Enclosure.from_fraction(x0))
        monkeypatch.setitem(analytic.ERROR_CONSTANTS, spec, lambda bits: Enclosure.exp_of(2, bits))
        with pytest.raises(CertificateRefused, match="y0 > 5 fails at index 20"):
            eventual_dominance_certificate(spec, 20 % 7, 20)
        assert isinstance(error_bound(spec, 20), Enclosure)

    def test_one_form_per_index_and_precision(self, monkeypatch):
        # M, E, the Wang bound and the monotone precondition at one index read
        # one (a Re S_r, y, sqrt(x)): a certificate builds it once, and
        # dominance once per precision it tries
        built = []

        def counted(k, delta, x, bits):
            built.append((x, bits))
            return arc_bessel(k, delta, x, bits)

        monkeypatch.setattr(analytic, "arc_bessel", counted)
        analytic._bessel_form.cache_clear()
        eventual_dominance_certificate(SPECS["A"], 0, 801)
        assert built == [(804, 192)]
        built.clear()
        assert dominance(SPECS["D"], 19006, start_bits=8).main.bits == 16
        assert built == [(19006, 8), (19006, 16)]
        assert analytic._bessel_form.cache_info().maxsize is not None

    def test_constant_chain_margin(self):
        # e^50 * 2^5 / |1 - e^{2 pi i/5}|^5 < e^54, the shortcut constant:
        # record the certified margin rather than trusting it
        gap = 2 * (Enclosure.pi() / 5).cos_sin()[1]  # |1 - e^{2 pi i/5}| = 2 sin(pi/5)
        lhs = Enclosure.exp_of(50) * 32 / gap.pow_int(5)
        rhs = Enclosure.exp_of(54)
        assert lhs.strictly_less(rhs)
        margin = (rhs / lhs).log()
        assert margin.lo > 1  # over a full e-power of slack


class TestLemmaSpotChecks:
    @pytest.mark.parametrize("a,b", [(24, -24), (24, 24), (24, 0)])
    def test_bessel_main_term_bound(self, a, b):
        rep = lemma_arc_integral(Fraction(a), Fraction(b), 5, 30, 13)
        assert rep["ok"]
        assert rep["abs_error"] <= rep["bound"]

    def test_refuses_unconverged_quadrature(self):
        # e^{-2 pi i n phi} turns 80 times over the arc of width 3/112 at n = 3000
        with pytest.raises(ConvergenceRefused, match="error estimate"):
            lemma_arc_integral(Fraction(24), Fraction(0), 5, 3000, 13)

    def test_requires_index_above_shift(self):
        # hypothesis n > b/24 violated: b = 980 gives b/24 > 30
        with pytest.raises(ValueError):
            lemma_arc_integral(Fraction(24), Fraction(980), 5, 30, 13)

    @pytest.mark.parametrize("dps", [5, 12, 0, 20.0, "40"])
    def test_refuses_a_tolerance_of_one_or_more(self, dps, monkeypatch):
        # the tolerance 10^-(dps - 12) is at least 1 for dps <= 12, which
        # accepted any quadrature (dps 5 gave ok with an error estimate of 2)
        monkeypatch.setattr(mpmath, "quad", None)  # refused before any quadrature
        with pytest.raises(ValueError, match="dps >= 13"):
            lemma_arc_integral(Fraction(24), Fraction(0), 5, 30, 13, dps=dps)


class TestMajorization:
    def test_trivial_point(self):
        assert majorization_check(Fraction(0), Fraction(0), Fraction(0))

    def test_half_half_half(self):
        assert majorization_check(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))

    @given(a=st.integers(0, 90), b=st.integers(0, 90), x=st.integers(0, 90))
    @settings(max_examples=100, deadline=None)
    def test_random_sweep(self, a, b, x):
        assert majorization_check(Fraction(a, 100), Fraction(b, 100), Fraction(x, 100))

    def test_refusal_near_one(self):
        from oracles import MajorizationRefused

        with pytest.raises(MajorizationRefused):
            majorization_check(Fraction(999, 1000), Fraction(0), Fraction(0))


def marked_reciprocal_double_product(max_s: int, max_t: int, max_n: int) -> dict:
    """Series oracle: coefficient table of 1/((z; q)_inf (w; q)_inf).

    Plain trivariate truncated polynomial arithmetic: dividing by
    (1 - z q^k) is the recurrence G[s][n] = F[s][n] + G[s-1][n-k], applied
    for every k up to the q-truncation and for both mark variables.
    Independent of the enumeration path in the library.
    """
    rows = {(s, t): [0] * (max_n + 1) for s in range(max_s + 1) for t in range(max_t + 1)}
    rows[(0, 0)][0] = 1
    for k in range(max_n + 1):
        for s in range(1, max_s + 1):
            for t in range(max_t + 1):
                src, dst = rows[(s - 1, t)], rows[(s, t)]
                for n in range(k, max_n + 1):
                    if src[n - k]:
                        dst[n] += src[n - k]
        for t in range(1, max_t + 1):
            for s in range(max_s + 1):
                src, dst = rows[(s, t - 1)], rows[(s, t)]
                for n in range(k, max_n + 1):
                    if src[n - k]:
                        dst[n] += src[n - k]
    return rows


class TestColoredPartitions:
    def test_empty_partition(self):
        assert colored_partition_majorant(1, 0, 0, 0) == (1, 1)

    def test_majorization_small_sweep(self):
        for eta in (1, 2, 3, 4, 5):
            for n in range(0, 31, 6):
                for s in range(0, 7):
                    for t in range(0, 4):
                        p, d = colored_partition_majorant(eta, s, t, n)
                        assert d <= p

    def test_single_color_counts_against_partitions(self):
        # eta=1, t=0: p*(s, 0; n) counts partitions of n into at most s parts
        from oracles import div_one_minus_qc

        for s in (1, 2, 3):
            gen = [1] + [0] * 12
            for c in range(1, s + 1):
                gen = div_one_minus_qc(gen, c)
            for n in range(13):
                p, _ = colored_partition_majorant(1, s, 0, n)
                assert p == gen[n]

    def test_generating_function_cross_check(self):
        oracle = marked_reciprocal_double_product(4, 4, 10)
        for s in range(5):
            for t in range(5):
                for n in range(11):
                    p, _ = colored_partition_majorant(1, s, t, n)
                    assert p == oracle[(s, t)][n], (s, t, n)

    def test_distinct_counts_sign_structure(self):
        # |d*| for eta=1, t=0: partitions into s distinct nonnegative parts
        # s=2, n=4: {4,0},{3,1} -> 2
        _, d = colored_partition_majorant(1, 2, 0, 4)
        assert d == 2

    def test_guard(self):
        with pytest.raises(UsageError):
            colored_partition_majorant(1, 0, 0, 1000)
