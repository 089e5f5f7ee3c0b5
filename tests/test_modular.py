import random
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (dedekind_sum_direct, dedekind_sums_direct_all, gamma_action_coeffs,
                     gamma_of, hbar_of, lambda_pair, sawtooth, transform_data_by_definition)
from qsign import modular
from qsign.modular import (FactorTransform, GammaMatrix, NotCoprimeError, class_deltas,
                           class_representative, dedekind_sum, delta_at, delta_table_rows,
                           lpos_set, omega_exact, transform_data)
from qsign.qseries import ProductSpec, registered_spec


def dedekind_by_sawtooth(d: int, c: int) -> Fraction:
    return sum((sawtooth(Fraction(d * n, c)) * sawtooth(Fraction(n, c))
                for n in range(1, c)), Fraction(0))


def delta_by_lambda_star(spec: ProductSpec, h: int, k: int) -> Fraction:
    """Delta(h/k) = -sum_j delta_j (2 d^2/m + 12 d^2/m (lam*^2 - lam*)) in Fractions."""
    total = Fraction(0)
    for r, m, delta in spec.factors:
        d = gcd(m, k)
        _, lam_star = lambda_pair(m, r, h, k)
        quad = lam_star * lam_star - lam_star
        total -= delta * (Fraction(2 * d * d, m) + Fraction(12 * d * d, m) * quad)
    return total


def public_fields(record: type) -> tuple[str, ...]:
    """The stored fields of a record, then its read-only properties."""
    return record._fields + tuple(name for name, v in vars(record).items()
                                  if isinstance(v, property))


def factor_transform_reference(r: int, m: int, delta: int, h: int, k: int,
                               hbar_offset: int = 0) -> SimpleNamespace:
    """Every public field of ``FactorTransform`` by name, the four Fractions by the
    definitional formulas, via hbar_of and lambda_pair.

    hbar is the package's smallest nonnegative choice shifted by hbar_offset k'.
    """
    d = gcd(m, k)
    mp, kp = m // d, k // d
    hb = hbar_of(m, h, k) + hbar_offset * kp
    lam, lam_star = lambda_pair(m, r, h, k)
    return SimpleNamespace(
        r=r, m=m, delta=delta, d=d, m_prime=mp, k_prime=kp, hbar=hb,
        lam=lam, u=lam_star * d, k=k,
        sigma_const=Fraction(r * d, m * k) + Fraction(lam * hb * d, k),
        sigma_wcoef=lam_star * Fraction(d * d, m * k),
        tau_const=Fraction(hb * d, k),
        tau_wcoef=Fraction(d * d, m * k),
    )


def assert_fields_match(ft: FactorTransform, ref: SimpleNamespace, where) -> None:
    """Field by field: the record against the reference, on every public name."""
    names = public_fields(FactorTransform)
    assert set(vars(ref)) == set(names)
    for name in names:
        assert getattr(ft, name) == getattr(ref, name), (name, where)


def upsilon_reference(factors: list[SimpleNamespace], h: int, k: int) -> Fraction:
    """The Upsilon exponent as the four-term Fraction sum per factor."""
    total = Fraction(0)
    for ft in factors:
        r, m, d, lam = ft.r, ft.m, ft.d, ft.lam
        total += ft.delta * (Fraction(r * h, k) - Fraction(r * d, m * k)
                             + 2 * Fraction(r * d, m * k) * Fraction(ft.u, d)
                             + Fraction(ft.hbar * d, k) * (lam * lam - lam))
    return total


def omega_reference(factors: list[SimpleNamespace], h: int) -> Fraction:
    """The omega exponent -sum_j delta_j s(m'_j h, k'_j)."""
    return -sum(ft.delta * dedekind_sum(ft.m_prime * h, ft.k_prime) for ft in factors)


def pi_factors_reference(factors: list[SimpleNamespace], h: int, k: int) -> tuple:
    """(x_j, delta_j) with x_j = (r d + r hbar m h)/(m k) mod 1 for the factors with lam* = 0."""
    return tuple((Fraction(ft.r * ft.d + ft.r * ft.hbar * ft.m * h, ft.m * k) % 1, ft.delta)
                 for ft in factors if ft.u == 0)


def omega_exponent_reference(spec: ProductSpec) -> Fraction:
    """Omega = sum_j delta_j (2 m_j - 12 r_j + 12 r_j^2 / m_j) as a Fraction chain."""
    total = Fraction(0)
    for r, m, delta in spec.factors:
        total += delta * (2 * m - 12 * r + Fraction(12 * r * r, m))
    return total


def random_level_spec(rng: random.Random, level: int) -> ProductSpec:
    """Up to three factors, one of modulus `level`, the others of modulus 5 or `level`."""
    moduli = [level] + [rng.choice((5, level)) for _ in range(rng.randint(0, 2))]
    return ProductSpec(tuple((rng.randint(1, m - 1), m, rng.choice((-3, -2, -1, 1, 2, 3)))
                             for m in moduli))


def oracle_specs(seed: int) -> list[ProductSpec]:
    """The six registered specs, then twelve seeded inline ones, four each at levels 5, 10, 25."""
    rng = random.Random(seed)
    specs = [registered_spec(name) for name in ("A", "B", "C", "D", "c", "d")]
    return specs + [random_level_spec(rng, level) for level in (5, 10, 25) for _ in range(4)]


#: a level-25 inline spec (the one ``qsign delta`` is pinned on in test_cli.py)
LEVEL25 = ProductSpec(((3, 25, 2), (7, 25, -1), (2, 5, 1)))


class TestSawtooth:
    def test_integer(self):
        assert sawtooth(3) == 0

    def test_half(self):
        assert sawtooth(Fraction(1, 2)) == 0

    def test_seven_thirds(self):
        assert sawtooth(Fraction(7, 3)) == Fraction(-1, 6)

    @given(num=st.integers(-40, 40), den=st.integers(1, 23))
    def test_periodic_and_odd(self, num, den):
        x = Fraction(num, den)
        assert sawtooth(x + 1) == sawtooth(x)
        assert sawtooth(-x) == -sawtooth(x)


class TestDedekindSums:
    def test_trivial_modulus(self):
        assert dedekind_sum(1, 1) == 0

    def test_one_third(self):
        assert dedekind_sum(1, 3) == Fraction(1, 18)
        assert dedekind_sum_direct(1, 3) == Fraction(1, 18)

    def test_oddness(self):
        assert dedekind_sum(-2, 5) == -dedekind_sum(2, 5)

    def test_rejects_common_factor(self):
        with pytest.raises(NotCoprimeError):
            dedekind_sum(2, 4)

    @given(c=st.integers(1, 60), d=st.integers(1, 200))
    @settings(max_examples=80, deadline=None)
    def test_accelerated_matches_definitional(self, c, d):
        if gcd(d, c) != 1:
            d = 1
        assert dedekind_sum(d, c) == dedekind_sum_direct(d, c)

    @given(c=st.integers(2, 40))
    @settings(max_examples=25, deadline=None)
    def test_direct_formula_matches_sawtooth_sum(self, c):
        for d in range(1, c):
            if gcd(d, c) == 1:
                assert dedekind_sum_direct(d, c) == dedekind_by_sawtooth(d, c)

    def test_vectorized_sweep_matches_scalar(self):
        for c in (1, 2, 12, 35):
            table = dedekind_sums_direct_all(c)
            for d, v in table.items():
                assert v == dedekind_sum_direct(d, c) or c == 1

    @given(c=st.integers(1, 120), d=st.integers(1, 120))
    @settings(max_examples=60, deadline=None)
    def test_reciprocity(self, c, d):
        if gcd(d, c) != 1:
            return
        lhs = dedekind_sum(d, c) + dedekind_sum(c, d)
        rhs = Fraction(-1, 4) + (Fraction(c, d) + Fraction(d, c) + Fraction(1, c * d)) / 12
        assert lhs == rhs


class TestGammaData:
    def test_level_five_at_one_fifth(self):
        g = gamma_of(5, 1, 5)
        assert (g.a, g.b, g.c, g.d) == (0, -1, 1, -1)

    def test_level_five_at_one_half(self):
        assert hbar_of(5, 1, 2) == 1
        g = gamma_of(5, 1, 2)
        assert (g.a, g.c, g.d) == (1, 2, -5)

    @given(m=st.integers(1, 30), k=st.integers(1, 40), h=st.integers(0, 39))
    @settings(max_examples=200, deadline=None)
    def test_determinant_one(self, m, k, h):
        h %= k
        if gcd(h, k) != 1:
            return
        g = gamma_of(m, h, k)
        assert g.a * g.d - g.b * g.c == 1

    def test_lambda_examples(self):
        assert lambda_pair(5, 2, 1, 5) == (1, Fraction(3, 5))
        assert lambda_pair(5, 1, 2, 5) == (1, Fraction(3, 5))
        assert lambda_pair(7, 3, 0, 1) == (0, Fraction(0))

    @given(m=st.integers(2, 20), r=st.integers(1, 19), k=st.integers(1, 30),
           h=st.integers(0, 29))
    @settings(max_examples=150, deadline=None)
    def test_lambda_star_in_unit_interval(self, m, r, k, h):
        r %= m
        if r == 0:
            r = 1
        h %= k
        if gcd(h, k) != 1:
            return
        lam, lam_star = lambda_pair(m, r, h, k)
        assert 0 <= lam_star < 1
        assert lam == lam_star + Fraction(r * h, gcd(m, k))


class TestMoebiusClosedForms:
    @given(m=st.integers(1, 26), k=st.integers(1, 30), h=st.integers(0, 29),
           r=st.integers(1, 25), off=st.integers(0, 2))
    @settings(max_examples=150, deadline=None)
    def test_closed_forms_agree_with_moebius_algebra(self, m, k, h, r, off):
        h %= k
        if gcd(h, k) != 1:
            return
        r = (r % max(m - 1, 1)) + 1 if m > 1 else 1
        if m == 1:
            return
        tau_c, tau_w, sig_c, sig_w = gamma_action_coeffs(m, h, k, r, hbar_offset=off)
        # the package computes hbar at offset 0 only; the reference covers the others
        ft = factor_transform_reference(r, m, 1, h, k, off)
        if off == 0:
            package = transform_data(ProductSpec(((r, m, 1),)), h, k).factors[0]
            assert_fields_match(package, ft, (m, h, k, r))
        assert (tau_c, tau_w) == (ft.tau_const, ft.tau_wcoef)
        assert sig_c + ft.lam * tau_c == ft.sigma_const
        assert sig_w + ft.lam * tau_w == ft.sigma_wcoef


class TestGrowthExponents:
    def test_omega_values(self):
        assert omega_exact(registered_spec("A")) == -24
        assert omega_exact(registered_spec("B")) == 24
        assert omega_exact(registered_spec("D")) == 0

    def test_delta_class_values(self):
        a = registered_spec("A")
        assert delta_at(a, *class_representative(a, 1, 5)) == 24
        assert delta_at(a, *class_representative(a, 4, 5)) == 24
        assert delta_at(a, *class_representative(a, 2, 5)) == -24
        assert delta_at(a, *class_representative(a, 3, 5)) == -24

    def test_positive_classes(self):
        assert lpos_set(registered_spec("A")) == {(1, 5), (4, 5)}
        assert lpos_set(registered_spec("B")) == {(2, 5), (3, 5)}

    def test_level25_positive_classes(self):
        d = registered_spec("D")
        pos = lpos_set(d)
        assert len(pos) == 20
        for aleph, l in pos:
            assert aleph % 5 in (1, 4)
            assert l % 25 in (5, 10, 15, 20)
            assert delta_at(d, *class_representative(d, aleph, l)) == 24

    def test_no_representative_class_excluded(self):
        assert class_representative(registered_spec("A"), 0, 5) is None
        assert (0, 5) not in {(aleph, l) for aleph, l, *_ in class_deltas(registered_spec("A"))}

    @pytest.mark.parametrize("big_l", range(2, 61))
    def test_representative_missing_exactly_on_a_common_factor(self, big_l):
        spec = ProductSpec(((1, big_l, 1),))
        for l in range(1, big_l + 1):
            for aleph in range(l):
                rep = class_representative(spec, aleph, l)
                assert (rep is None) == (gcd(aleph, l, big_l) > 1), (aleph, l)
                if rep is not None:
                    h, k = rep
                    assert 0 <= h < k and gcd(h, k) == 1
                    assert h % l == aleph and k % big_l == l % big_l

    @given(t=st.integers(0, 49))
    @settings(max_examples=50, deadline=None)
    def test_delta_class_invariance(self, t):
        rng = random.Random(t)
        spec = registered_spec(rng.choice(["A", "B", "D"]))
        big_l = spec.level
        l = rng.randint(1, big_l)
        aleph = rng.randint(0, l - 1)
        base = class_representative(spec, aleph, l)
        if base is None:
            return
        ref = delta_at(spec, *base)
        # a different representative of the same class
        for _ in range(20):
            k = l + big_l * rng.randint(0, 12)
            h = aleph + l * rng.randint(0, max(1, k // l))
            if 0 <= h < k and gcd(h, k) == 1:
                assert delta_at(spec, h, k) == ref

    def test_integer_delta_matches_the_lambda_star_formula(self):
        rng = random.Random(20251018)
        specs = [registered_spec(name) for name in ("A", "B", "C", "D", "c", "d")]
        for _ in range(12):
            raw = [(rng.choice([5, 10, 25]), rng.randint(1, 24),
                    rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(rng.randint(1, 3))]
            specs.append(ProductSpec(tuple((1 + (r - 1) % (m - 1), m, d) for m, r, d in raw)))
        for spec in specs:
            for k in range(1, 51):
                for h in range(k):
                    if gcd(h, k) == 1:
                        assert delta_at(spec, h, k) == delta_by_lambda_star(spec, h, k), (spec, h, k)

    def test_class_deltas_agree_with_delta_at_the_representative(self):
        for spec in [*oracle_specs(20261020), LEVEL25]:
            big_l = spec.level
            scanned = {(aleph, l): level_delta for aleph, l, level_delta in class_deltas(spec)}
            with_rep = {(aleph, l): class_representative(spec, aleph, l)
                        for l in range(1, big_l + 1) for aleph in range(l)}
            assert set(scanned) == {c for c, rep in with_rep.items() if rep is not None}, spec
            for (aleph, l), level_delta in scanned.items():
                assert Fraction(level_delta, big_l) == delta_at(spec, *with_rep[aleph, l]), \
                    (spec, aleph, l)

    @pytest.mark.parametrize("spec", [registered_spec("A"), registered_spec("D"), LEVEL25],
                             ids=["A", "D", "level25"])
    def test_scans_search_no_representative_and_build_no_fraction(self, spec, monkeypatch):
        rows, lpos = list(delta_table_rows("x", spec)), lpos_set(spec)

        def refuse(*args, **kwargs):
            raise AssertionError("the class scan asked for a representative or a Fraction")

        monkeypatch.setattr(modular, "class_representative", refuse)
        monkeypatch.setattr(modular, "Fraction", refuse)
        assert list(delta_table_rows("x", spec)) == rows
        assert lpos_set(spec) == lpos

    def test_table_rows_sorted_and_flagged(self):
        rows = list(delta_table_rows("A", registered_spec("A")))
        keys = [(r["l"], r["aleph"]) for r in rows]
        assert keys == sorted(keys)
        flagged = {(r["aleph"], r["l"]) for r in rows if r["in_Lpos"]}
        assert flagged == {(1, 5), (4, 5)}


class TestPhases:
    def test_pi_empty_when_lambda_star_nonzero(self):
        assert transform_data(registered_spec("A"), 1, 5).pi_factors() == ()

    def test_omega_trivial_at_unit_denominator(self):
        assert transform_data(registered_spec("A"), 0, 1).omega == 0

    def test_level25_pi_factors(self):
        td = transform_data(registered_spec("D"), 1, 5)
        assert td.pi_factors() == ((Fraction(1, 5), 1), (Fraction(2, 5), -1))

    @given(t=st.integers(0, 29))
    @settings(max_examples=30, deadline=None)
    def test_hbar_choice_does_not_move_phases(self, t):
        rng = random.Random(t)
        spec = registered_spec(rng.choice(["A", "B", "D"]))
        k = rng.randint(1, 30)
        hs = [h for h in range(k) if gcd(h, k) == 1] or [0]
        h = rng.choice(hs)
        base = transform_data(spec, h, k)
        off = rng.randint(1, 3)
        shifted = [factor_transform_reference(r, m, delta, h, k, off)
                   for r, m, delta in spec.factors]
        assert base.omega == omega_reference(shifted, h) % 2
        assert base.upsilon == upsilon_reference(shifted, h, k) % 2
        assert base.pi_factors() == pi_factors_reference(shifted, h, k)

    @given(t=st.integers(0, 39))
    @settings(max_examples=40, deadline=None)
    def test_transformed_first_arguments_never_integral(self, t):
        rng = random.Random(t)
        spec = registered_spec(rng.choice(["A", "B", "C", "D", "c", "d"]))
        k = rng.randint(1, 40)
        hs = [h for h in range(k) if gcd(h, k) == 1] or [0]
        h = rng.choice(hs)
        td = transform_data(spec, h, k)
        for ft in td.factors:
            if ft.u == 0:  # lam* = u/d
                assert ft.sigma_const % 1 != 0

    def test_transform_data_equals_the_definitional_record(self):
        for spec in oracle_specs(20261021):
            for k in range(1, 21):
                for h in range(k):
                    if gcd(h, k) == 1:
                        assert transform_data(spec, h, k) == transform_data_by_definition(
                            spec, h, k), (spec, h, k)

    def test_one_dedekind_sum_per_distinct_modulus(self, monkeypatch):
        calls = []
        real = modular._dedekind_6c

        def counting(d, c):
            calls.append((d, c))
            return real(d, c)

        monkeypatch.setattr(modular, "_dedekind_6c", counting)
        d_spec = registered_spec("D")  # moduli 5, 5, 25, 25
        for h, k in ((1, 5), (3, 10), (7, 12), (4, 25)):
            calls.clear()
            transform_data(d_spec, h, k)
            assert len(calls) == 2, (h, k, calls)

    def test_chi_exponent_of_inversion(self):
        # the order-2 element: chi = e^{-pi i/4}
        g = GammaMatrix(0, -1, 1, 0)
        assert g.chi_exponent() % 2 == Fraction(-1, 4) % 2

    def test_integer_transform_data_matches_the_fraction_formulas(self):
        for spec in oracle_specs(20251108):
            assert omega_exact(spec) == omega_exponent_reference(spec), spec
            for k in range(1, 31):
                for h in range(k):
                    if gcd(h, k) != 1:
                        continue
                    td = transform_data(spec, h, k)
                    assert delta_at(spec, h, k) == delta_by_lambda_star(spec, h, k), (spec, h, k)
                    for off in range(3):
                        where = (spec, h, k, off)
                        facs = [factor_transform_reference(r, m, delta, h, k, off)
                                for r, m, delta in spec.factors]
                        if off == 0:
                            assert len(td.factors) == len(facs), where
                            for ft, ref in zip(td.factors, facs):
                                assert_fields_match(ft, ref, where)
                        assert td.upsilon == upsilon_reference(facs, h, k) % 2, where
                        assert td.omega == omega_reference(facs, h) % 2, where
                        assert td.pi_factors() == pi_factors_reference(facs, h, k), where


class TestIntegerRecords:
    """The records hold integers; each Fraction is built when a property is read."""

    @pytest.fixture
    def fraction_count(self, monkeypatch):
        """Every Fraction built while the test runs, arithmetic results included."""
        calls = []
        real_new = modular.Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            calls.append(args)
            return real_new(cls, *args, **kwargs)

        monkeypatch.setattr(modular.Fraction, "__new__", staticmethod(counting_new))
        return calls

    SPECS = [registered_spec("A"), registered_spec("D"),
             ProductSpec(((1, 10, 2), (3, 5, -1), (7, 10, 1)))]

    @pytest.mark.parametrize("spec", SPECS, ids=["A", "D", "level10"])
    def test_transform_data_builds_no_fraction(self, spec, fraction_count):
        for k in range(1, 21):
            for h in range(k):
                if gcd(h, k) == 1:
                    transform_data(spec, h, k)
        assert fraction_count == []

    @pytest.mark.parametrize("spec", SPECS, ids=["A", "D", "level10"])
    def test_prefactor_phase_builds_one_fraction(self, spec, fraction_count):
        tds = [transform_data(spec, h, 12) for h in (1, 5, 7, 11)]
        for td in tds:
            before = len(fraction_count)
            td.prefactor_phase()
            assert len(fraction_count) == before + 1

    def test_prefactor_phase_matches_the_fraction_sum(self):
        for spec in self.SPECS:
            for k in range(1, 31):
                for h in range(k):
                    if gcd(h, k) == 1:
                        td = transform_data(spec, h, k)
                        t = (Fraction(td.sum_delta, 2) + td.sum_delta_lambda
                             + 2 * td.omega + td.upsilon)
                        assert td.prefactor_phase() == t % 2, (spec, h, k)

    def test_properties_build_a_fresh_fraction_on_every_read(self, fraction_count):
        td = transform_data(registered_spec("D"), 3, 10)
        ft = td.factors[2]
        reads = [td.omega, td.upsilon, ft.sigma_wcoef, td.omega, td.upsilon, ft.sigma_wcoef]
        assert reads[:3] == reads[3:] and len(fraction_count) == 6

    def test_fields_cannot_be_assigned(self):
        td = transform_data(registered_spec("D"), 3, 10)
        for obj in (td, td.factors[0]):
            for name in (*public_fields(type(obj)), "cached"):
                with pytest.raises(AttributeError):
                    setattr(obj, name, 0)


class TestChiExponent:
    @staticmethod
    def chi_by_fractions(g: GammaMatrix) -> Fraction:
        """t = (a + d)/(12c) - s(d, c) - 1/4 mod 2, with the definitional Dedekind sum."""
        t = Fraction(g.a + g.d, 12 * g.c) - dedekind_sum_direct(g.d % g.c, g.c) - Fraction(1, 4)
        return t % 2

    def test_integer_numerator_matches_the_fraction_formula(self):
        for c in range(1, 41):
            for d in range(-c, 2 * c):
                if gcd(d, c) != 1:
                    continue
                a0 = pow(d, -1, c)
                for a in (a0, a0 - c):
                    g = GammaMatrix(a, (a * d - 1) // c, c, d)
                    assert g.chi_exponent() == self.chi_by_fractions(g), (a, c, d)
