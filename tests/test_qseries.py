import random
from collections import Counter
from itertools import product
from math import prod

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from qsign import qseries
from oracles import expand_pochhammer, expand_product_literal, ps_inv, ps_mul, rr_sum_side
from qsign.certify import PATTERNS
from qsign.qseries import (ConstantTermError, ProductSpec, QSeries, REGISTERED_SPECS,
                           TruncationMismatchError, expand_product, expand_product_reference,
                           limb_plan, pass_plan, registered_spec, sign_exceptions,
                           slice_indices, slice_signs)


def brute_partitions(n):
    """Literal enumeration of partitions of n (nonincreasing parts)."""
    def count(n, largest):
        if n == 0:
            return 1
        return sum(count(n - p, p) for p in range(min(n, largest), 0, -1))
    return count(n, n)


def naive_poly_product(factor_exponents, trunc):
    """Oracle: multiply out (1 - q^c) factors with plain list convolution."""
    coeffs = [1] + [0] * trunc
    for c in factor_exponents:
        out = [0] * (trunc + 1)
        for i, v in enumerate(coeffs):
            if v:
                out[i] += v
                if i + c <= trunc:
                    out[i + c] -= v
        coeffs = out
    return tuple(coeffs)


def series_of(coeffs: list[int]) -> QSeries:
    """The series with exactly these coefficients, truncated after the last."""
    return QSeries(len(coeffs) - 1, coeffs)


class TestPsMulInv:
    def test_difference_of_squares(self):
        a = series_of([1, 1, 0])
        b = series_of([1, -1, 0])
        assert ps_mul(a, b).coeffs == (1, 0, -1)

    def test_identity(self):
        s = expand_pochhammer(1, 5, 30)
        assert ps_mul(s, QSeries.one(30)) == s

    def test_mul_inv_roundtrip(self):
        s = expand_pochhammer(1, 1, 20)
        assert ps_mul(s, ps_inv(s)) == QSeries.one(20)

    def test_mismatched_truncation_rejected(self):
        with pytest.raises(TruncationMismatchError):
            ps_mul(QSeries.one(3), QSeries.one(4))

    def test_geometric_series(self):
        s = series_of([1, -1, 0, 0])
        assert ps_inv(s).coeffs == (1, 1, 1, 1)

    def test_inv_involution(self):
        s = expand_pochhammer(1, 5, 50)
        assert ps_inv(ps_inv(s)) == s

    def test_inv_requires_unit_constant_term(self):
        with pytest.raises(ConstantTermError):
            ps_inv(series_of([2, 1]))

    def test_partition_numbers_against_enumeration(self):
        inv = ps_inv(expand_pochhammer(1, 1, 12))
        assert list(inv.coeffs) == [brute_partitions(n) for n in range(13)]


class TestPochhammer:
    def test_pentagonal_start(self):
        assert expand_pochhammer(1, 1, 7).coeffs == (1, -1, -1, 0, 0, 1, 0, 1)

    def test_against_naive_product(self):
        got = expand_pochhammer(2, 3, 40)
        assert got.coeffs == naive_poly_product(range(2, 41, 3), 40)

    def test_offset_beyond_truncation_is_one(self):
        assert expand_pochhammer(9, 4, 8) == QSeries.one(8)

    def test_single_factor_coefficient(self):
        s = expand_pochhammer(5, 7, 9)  # only the k=0 factor reaches order 9
        assert s.coeff(5) == -1

    @given(a=st.integers(1, 6), m=st.integers(1, 6), trunc=st.integers(0, 30))
    @settings(max_examples=40, deadline=None)
    def test_matches_naive_product(self, a, m, trunc):
        got = expand_pochhammer(a, m, trunc)
        assert got.coeffs == naive_poly_product(range(a, trunc + 1, m), trunc)


class TestProductSpecs:
    def test_constant_term(self):
        assert expand_product(registered_spec("A"), 0).coeffs == (1,)

    @pytest.mark.parametrize("expand", [expand_product, expand_product_reference],
                             ids=lambda f: f.__name__)
    def test_negative_truncation_refused(self, expand):
        with pytest.raises(ValueError, match="truncation order -1 is negative"):
            expand(registered_spec("A"), -1)

    def test_first_signs_of_reciprocal_fifth_power(self):
        s = expand_product(registered_spec("A"), 4)
        assert [c > 0 for c in s.coeffs[1:4]] == [True, True, True]
        assert s.coeff(4) < 0

    def test_fifth_power_coefficient_five_negative(self):
        # value frozen from the independent factor-by-factor reference engine
        s = expand_product(registered_spec("B"), 5)
        assert s.coeff(5) == expand_product_reference(registered_spec("B"), 5).coeff(5) == -26
        assert s.coeff(5) < 0

    def test_reciprocal_consistency(self):
        n = 200
        a = expand_product(registered_spec("A"), n)
        b = expand_product(registered_spec("B"), n)
        assert ps_mul(a, b) == QSeries.one(n)
        c = expand_product(registered_spec("C"), n)
        d = expand_product(registered_spec("D"), n)
        assert ps_mul(c, d) == QSeries.one(n)

    def test_fast_engine_equals_reference(self):
        for name in ("A", "c", "D"):
            spec = registered_spec(name)
            assert expand_product(spec, 120) == expand_product_reference(spec, 120)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=15, deadline=None)
    def test_factor_order_determinism(self, rng):
        factors = list(registered_spec("D").factors)
        rng.shuffle(factors)
        shuffled = ProductSpec(tuple(factors))
        assert expand_product(shuffled, 80) == expand_product(registered_spec("D"), 80)

    @given(r=st.integers(1, 4), m=st.integers(2, 6), delta=st.sampled_from([-2, -1, 1, 2, 3]))
    @settings(max_examples=25, deadline=None)
    def test_random_single_factor_specs_match_reference(self, r, m, delta):
        if r >= m:
            r = m - 1
        spec = ProductSpec(((r, m, delta),))
        assert expand_product(spec, 60) == expand_product_reference(spec, 60)

    def test_spec_json_roundtrip(self):
        spec = registered_spec("D")
        assert ProductSpec.from_json(spec.to_json()) == spec

    def test_unknown_spec_lists_registered(self):
        with pytest.raises(KeyError, match="registered specs"):
            registered_spec("bogus")

    def test_level(self):
        assert registered_spec("A").level == 5
        assert registered_spec("D").level == 25

    def test_level_is_kept_and_leaves_equality_alone(self):
        spec = ProductSpec(((1, 4, 1), (2, 6, -1)))
        fresh = ProductSpec(spec.factors)
        assert spec.level == 12 and vars(spec)["level"] == 12
        assert spec == fresh and hash(spec) == hash(fresh)

    @pytest.mark.parametrize("factors", [((1, 5, -5), (2, 5, 5)), ((3, 5, 5), (4, 5, -5)),
                                         ((2, 5, 2), (1, 5, -5), (3, 5, 3))])
    def test_a_rewritten_equals_a_and_keeps_its_factors(self, factors):
        # swapped factors, psi(2,5)/psi(1,5) written psi(3,5)/psi(4,5), and
        # psi(2,5)^5 split into psi(2,5)^2 psi(3,5)^3
        a, inline = registered_spec("A"), ProductSpec(factors)
        assert inline == a and hash(inline) == hash(a) and inline.canonical == a.canonical
        assert inline.factors == factors and inline.to_json() != a.to_json()

    def test_canonical_form_merges_and_keeps_the_written_level(self):
        one_at_25 = ProductSpec(((1, 5, 1), (1, 25, 2), (24, 25, -2)))
        assert one_at_25.canonical == (25, ((1, 5, 1),))
        assert one_at_25 != ProductSpec(((1, 5, 1),)) and one_at_25.level == 25
        assert ProductSpec(((2, 5, 1),)) != ProductSpec(((2, 5, -1),))
        assert ProductSpec(((2, 5, 1),)) != registered_spec("c")

    def test_equal_specs_expand_alike(self):
        a = expand_product(registered_spec("A"), 300)
        for factors in (((1, 5, -5), (2, 5, 5)), ((3, 5, 5), (4, 5, -5))):
            assert expand_product(ProductSpec(factors), 300) == a


def truncated(s, n):
    """The first n + 1 coefficients of s: the expansion to order n of the same product."""
    return QSeries(n, s.coeffs[:n + 1])


#: specs with coefficients beyond 2^63 at N = 1000: psi(2,5)^12 / psi(1,5), whose
#: last multiplication pass breaks the l1 bound 2^63, and psi(2,5)^30, whose
#: multiplication passes alone reach 72-bit coefficients
BEYOND_INT64 = [ProductSpec(((2, 5, 12), (1, 5, -1))), ProductSpec(((2, 5, 30),))]


def limb_count(spec, n):
    return qseries.expand_limbs(limb_plan(spec, n)).shape[1]


def block_matrix_by_ints(terms, b, radix_bits):
    """[-PF | P] of a division block of b indices and its largest row bound, in Python ints.

    P is the Toeplitz matrix of u = 1/T mod q^b and F[k, j] = c_t at
    j = W + k - e_t for the terms with e_t < W = _HISTORY b.  Row i is
    bounded by sum_j |(PF)_ij| h + sum_j |P_ij| t h.
    """
    h, t, w = qseries._limb_bound(radix_bits), len(terms), qseries._HISTORY * b
    u = [1]
    for i in range(1, b):
        u.append(-sum(c * u[i - e] for e, c in terms[1:] if e <= i))
    p = [[u[i - k] if k <= i else 0 for k in range(b)] for i in range(b)]
    pf = [[0] * w for _ in range(b)]
    for e, c in terms[1:]:
        for k in range(min(e, b) if e < w else 0):
            for i in range(b):
                pf[i][w + k - e] += p[i][k] * c
    bound = max(sum(map(abs, pf[i])) * h + sum(map(abs, p[i])) * t * h for i in range(b))
    return [[-v for v in pf[i]] + p[i] for i in range(b)], bound


class TestSliceEngine:
    """The limb passes against the factor-by-factor reference, around block and limb edges."""

    @pytest.mark.parametrize("name", sorted(REGISTERED_SPECS))
    def test_equals_reference_across_block_edges(self, name):
        spec = registered_spec(name)
        block = max(limb_plan(spec, 200).div_blocks)
        assert block == qseries._MAX_BLOCK
        top = 2 * block + 7
        ref = expand_product_reference(spec, top)
        for n in (0, 1, 5, block - 1, block, block + 1, top):
            assert expand_product(spec, n) == truncated(ref, n), (name, n)

    @pytest.mark.parametrize("spec", BEYOND_INT64)
    def test_limb_growth_beyond_int64(self, spec):
        mul_passes, _ = pass_plan(spec, 1000)
        assert prod(len(terms) for terms in mul_passes) > 2 ** 63 - 1
        got = expand_product(spec, 1000)
        assert got == expand_product_reference(spec, 1000)
        assert max(abs(c) for c in got.coeffs) > 2 ** 63 - 1
        assert limb_count(spec, 1000) * limb_plan(spec, 1000).radix_bits > 64

    @pytest.mark.parametrize("name", ["A", "C"])
    def test_equals_reference_at_limb_growth(self, name):
        # hi is the smallest N that needs the limb count of N = 1000, so a
        # division block's carry first reaches that limb at the block holding hi
        spec = registered_spec(name)
        lo, hi = 0, 1000
        final = limb_count(spec, hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if limb_count(spec, mid) < final else (lo, mid)
        assert limb_count(spec, hi - 1) < limb_count(spec, hi) == final
        ref = expand_product_reference(spec, hi + 1)
        for n in (hi - 1, hi, hi + 1):
            assert expand_product(spec, n) == truncated(ref, n), (name, n)

    def test_widening_late_in_the_series_and_conversion(self):
        # c = 1/R gains its fourth limb past index 2600, so the widening
        # copies thousands of rows already written
        spec = registered_spec("c")
        lo, hi = 2600, 3000
        final = limb_count(spec, hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if limb_count(spec, mid) < final else (lo, mid)
        assert limb_count(spec, hi - 1) < limb_count(spec, hi) == final
        plan = limb_plan(spec, hi + 1)
        limbs = qseries.expand_limbs(plan)
        assert limbs.shape == (hi + 2, final) and limbs.flags.c_contiguous
        got = QSeries.from_limbs(limbs, plan.radix_bits)
        assert len(got.coeffs) == hi + 2
        ref = expand_product_reference(spec, hi + 1)
        for n in (hi - 1, hi, hi + 1):
            assert got.coeffs[n] == ref.coeffs[n], n
        assert got == ref

    @pytest.mark.parametrize("name", sorted(REGISTERED_SPECS))
    def test_block_matrix_rows_fit_float64_at_the_largest_block(self, name):
        # R = 24 at N = 19501: b stays 64 with the two-block history
        plan = limb_plan(registered_spec(name), 19501)
        for terms in plan.div_passes:
            block = qseries._div_block(terms, plan.radix_bits)
            assert block.size == qseries._MAX_BLOCK
            matrix, bound = block_matrix_by_ints(terms, block.size, plan.radix_bits)
            assert bound <= 2 ** 53
            assert np.array_equal(block.matrix, np.array(matrix, dtype=np.float64).T)

    @pytest.mark.parametrize("m", [2, 3])
    def test_small_moduli_halve_the_block_until_its_rows_fit(self, m):
        plan = limb_plan(ProductSpec(((1, m, -1),)), 2000)
        terms = plan.div_passes[0]
        block = qseries._div_block(terms, plan.radix_bits)
        assert block.size < qseries._MAX_BLOCK
        matrix, bound = block_matrix_by_ints(terms, block.size, plan.radix_bits)
        assert bound <= 2 ** 53
        assert block_matrix_by_ints(terms, 2 * block.size, plan.radix_bits)[1] > 2 ** 53
        assert np.array_equal(block.matrix, np.array(matrix, dtype=np.float64).T)

    @pytest.mark.parametrize("bound", [1, 2 ** 20, 2 ** 31 - 1, 2 ** 53])
    @pytest.mark.parametrize("radix_bits", [1, 3, 23, 27, 30])
    def test_carry_keeps_value_and_reaches_limb_bound(self, bound, radix_bits):
        rng = np.random.default_rng(bound % 1009 + radix_bits)
        steps = qseries._carry_steps(bound, radix_bits)
        v = np.zeros((4 + steps, 50), dtype=np.int64)
        v[:4] = rng.integers(-bound, bound, size=(4, 50), endpoint=True)
        v[:4, :2] = [[bound, -bound]] * 4
        value = [sum(int(x) << (radix_bits * l) for l, x in enumerate(col)) for col in v.T]
        qseries._carry(v, radix_bits, steps)
        assert [sum(int(x) << (radix_bits * l) for l, x in enumerate(col)) for col in v.T] == value
        assert np.abs(v).max() <= qseries._limb_bound(radix_bits)

    def test_two_steps_carry_a_float64_row_at_radix_24(self):
        assert qseries._carry_steps(2 ** 53, 24) == 2

    def test_one_step_fewer_leaves_a_limb_above_the_bound(self):
        radix_bits, bound = 24, 2 ** 53
        steps = qseries._carry_steps(bound, radix_bits)
        v = np.zeros((2 + steps, 2), dtype=np.int64)
        v[0] = [bound, -bound]
        qseries._carry(v, radix_bits, steps - 1)
        assert np.abs(v).max() > qseries._limb_bound(radix_bits)

    @pytest.mark.parametrize("name", sorted(REGISTERED_SPECS))
    def test_carry_steps_at_the_threshold(self, name):
        # from the exact row bounds at b = 64: T(1,5) up to 2^48.1 and T(2,5)
        # up to 2^47.5 carry in two steps, the level-25 passes (2^35.4) in one
        expected = {(1, 5): 2, (2, 5): 2, (5, 25): 1, (10, 25): 1}
        spec = registered_spec(name)
        plan = limb_plan(spec, 19501)
        r = plan.radix_bits
        divisors = [(a, m) for a, m, e in qseries.triple_product_powers(spec)
                    for _ in range(-e)]
        assert len(divisors) == len(plan.div_passes)
        for divisor, terms in zip(divisors, plan.div_passes):
            block = qseries._div_block(terms, r)
            bound = block_matrix_by_ints(terms, block.size, r)[1]
            assert block.carry_steps == qseries._carry_steps(bound, r) == expected[divisor]
        for terms in plan.mul_passes:
            assert qseries._carry_steps(len(terms) * qseries._limb_bound(r), r) == 1

    def test_engine_carries_d_in_the_pinned_steps(self, monkeypatch):
        # five T(1,5) passes in two steps, T(10,25) and every multiplication in one
        calls = Counter()
        carry = qseries._carry

        def counted(v, radix_bits, steps):
            calls[v.dtype.name, steps] += 1
            carry(v, radix_bits, steps)

        monkeypatch.setattr(qseries, "_carry", counted)
        plan = limb_plan(registered_spec("D"), 19501)
        limbs = qseries.expand_limbs(plan)
        blocks = -(-19502 // qseries._MAX_BLOCK)
        assert calls == {("int32", 1): len(plan.mul_passes),
                         ("int64", 2): 5 * blocks, ("int64", 1): blocks}
        assert limbs.shape == (19502, 21)

    def test_expanded_limbs_stay_within_the_limb_bound(self):
        plan = limb_plan(registered_spec("D"), 2000)
        limbs = qseries.expand_limbs(plan)
        assert np.abs(limbs).max() <= qseries._limb_bound(plan.radix_bits)

    @pytest.mark.parametrize("name, n, width", [
        *((name, 1000, 2 if name in "cd" else 5) for name in sorted(REGISTERED_SPECS)),
        ("D", 19501, 21)])
    def test_limbs_have_their_used_width(self, name, n, width):
        # the widening leaves spare limbs, which never reach the result: its
        # top limb is in use
        plan = limb_plan(registered_spec(name), n)
        limbs = qseries.expand_limbs(plan)
        assert limbs.shape == (n + 1, width) and limbs[:, -1].any()
        assert limbs.flags.c_contiguous
        series = QSeries.from_limbs(limbs, plan.radix_bits)
        assert len(series.coeffs) == n + 1 and series.trunc_order == n

    def test_all_zero_top_limbs_are_cut(self):
        # psi(2,5) = psi(3,5), so this is the series 1: its carries reach
        # three limbs of 2^26, the top two all zero in the result
        spec = ProductSpec(((2, 5, 30), (3, 5, -30)))
        plan = limb_plan(spec, 1000)
        limbs = qseries.expand_limbs(plan)
        assert limbs.shape == (1001, 1) and limbs.flags.c_contiguous and limbs.flags.owndata
        assert QSeries.from_limbs(limbs, plan.radix_bits) == QSeries(1000, (1,) + (0,) * 1000)

    def test_limbs_are_not_copied_when_nothing_is_cut(self, monkeypatch):
        # D to 19501 grows to exactly 21 limbs, every one of them in use
        passed = []
        div_passes = qseries._div_passes

        def recorded(*args):
            passed.append(div_passes(*args))
            return passed[-1]

        monkeypatch.setattr(qseries, "_div_passes", recorded)
        limbs = qseries.expand_limbs(limb_plan(registered_spec("D"), 19501))
        assert limbs is passed[0] and limbs.shape == (19502, 21)

    def test_radix_fits_int32_for_the_largest_pass(self):
        plan = limb_plan(registered_spec("D"), 19501)
        t = max(len(terms) for terms in plan.mul_passes + plan.div_passes)
        r = plan.radix_bits
        assert (r, t) == (24, 177)
        assert t * qseries._limb_bound(r) + 2 ** (r - 1) < 2 ** 31
        assert (t * qseries._limb_bound(r + 1) + 2 ** r) >= 2 ** 31

    def test_plan_without_int32_headroom_is_refused(self, monkeypatch):
        class Huge(list):
            def __len__(self):
                return 2 ** 30

        monkeypatch.setattr(qseries, "pass_plan", lambda spec, n: ([Huge([(0, 1)])], []))
        with pytest.raises(ValueError, match="no int32 headroom"):
            limb_plan(registered_spec("A"), 10)

    @pytest.mark.parametrize("m", [1, 2, 5, 10, 25])
    def test_eta_passes_are_euler_pentagonal_series(self, m):
        n = 600
        eta = expand_pochhammer(m, m, n).coeffs
        terms = qseries.triple_product_terms(m, 3 * m, n)
        assert terms == [(e, c) for e, c in enumerate(eta) if c]

    @seed(20251217)
    @given(st.lists(st.tuples(st.sampled_from([5, 10, 25]), st.integers(1, 24),
                              st.sampled_from([-3, -2, -1, 1, 2, 3])),
                    min_size=1, max_size=3))
    @settings(max_examples=10, deadline=None)
    def test_random_inline_specs_match_reference(self, raw):
        spec = ProductSpec(tuple((1 + (r - 1) % (m - 1), m, d) for m, r, d in raw))
        assert expand_product(spec, 1100) == expand_product_reference(spec, 1100)

    @seed(20251218)
    @given(st.lists(st.tuples(st.sampled_from([2, 3, 4, 5, 10, 25]), st.integers(1, 24),
                              st.integers(-5, 5).filter(bool)),
                    min_size=1, max_size=2))
    @settings(max_examples=12, deadline=None)
    def test_small_moduli_narrow_the_block_and_radix(self, raw):
        # m = 2, 3 leave u = 1/T mod q^64 too large for an exact float64 block product
        spec = ProductSpec(tuple((1 + (r - 1) % (m - 1), m, d) for m, r, d in raw))
        plan = limb_plan(spec, 400)
        # passes come from the reduced factors; the product 1 has none (TestReducedPlan)
        reduced = spec.canonical[1]
        if reduced:
            t = max(len(terms) for terms in plan.mul_passes + plan.div_passes)
            r = plan.radix_bits
            assert t * qseries._limb_bound(r) + 2 ** (r - 1) < 2 ** 31
            assert t * qseries._limb_bound(r + 1) + 2 ** r >= 2 ** 31
        assert all(b in (1, 2, 4, 8, 16, 32, 64) for b in plan.div_blocks)
        if any(m <= 3 and d < 0 for _, m, d in reduced):
            assert min(plan.div_blocks) < qseries._MAX_BLOCK
        assert expand_product(spec, 400) == expand_product_reference(spec, 400)


def written_pass_plan(spec, n):
    """One pass per written unit of each factor, then the eta corrections: the plan by the spec as typed."""
    eta = Counter()
    for _, m, delta in spec.factors:
        eta[m] -= delta
    mul, div = [], []
    for r, m, e in [*spec.factors, *((m, 3 * m, e) for m, e in sorted(eta.items()) if e)]:
        (mul if e > 0 else div).extend([qseries.triple_product_terms(r, m, n)] * abs(e))
    return mul, div


class TestReducedPlan:
    """Passes are planned from ``ProductSpec.canonical``, not from the factors as written."""

    @pytest.mark.parametrize("name", sorted(REGISTERED_SPECS))
    def test_registered_specs_keep_their_written_passes(self, name):
        spec = registered_spec(name)
        assert pass_plan(spec, 300) == written_pass_plan(spec, 300)

    def test_repeated_and_mirrored_factors_run_the_reduced_passes(self):
        # psi(4,5)^-2 psi(4,5)^2 psi(4,5)^-1 = psi(1,5)^-1: two passes where
        # the written factors give six
        spec = ProductSpec(((4, 5, -2), (4, 5, 2), (4, 5, -1)))
        mul, div = pass_plan(spec, 500)
        assert (mul, div) == pass_plan(ProductSpec(((1, 5, -1),)), 500)
        assert (len(mul), len(div)) == (1, 1)
        assert sum(map(len, written_pass_plan(spec, 500))) == 6
        assert expand_product(spec, 500) == expand_product_reference(spec, 500)

    def test_a_product_that_reduces_to_one_expands_to_one(self):
        spec = ProductSpec(((1, 5, 1), (4, 5, -1)))
        plan = limb_plan(spec, 300)
        assert (plan.mul_passes, plan.div_passes, plan.div_blocks) == ([], [], ())
        one = QSeries(300, (1,) + (0,) * 300)
        got = expand_product(spec, 300)
        assert got == one == expand_product_reference(spec, 300)
        assert got.signs.tolist() == [1] + [0] * 300


#: products at the moduli 3, 5, 6, 7, 8, 11 and 13: the Borwein product psi(1,3)
#: and its square, (q;q)/(q^p;q^p) = prod_{r<p/2} psi(r,p), and quotients of
#: level 6, 8 and 7; psi(3,6) = (q^3;q^6)^2 has r = m - r
OTHER_MODULI = {
    "psi(1,3)": ((1, 3, 1),),
    "psi(1,3)^2": ((1, 3, 2),),
    **{f"(q;q)/(q^{p};q^{p})": tuple((r, p, 1) for r in range(1, (p + 1) // 2))
       for p in (5, 7, 11, 13)},
    "psi(1,6)/psi(3,6)": ((1, 6, 1), (3, 6, -1)),
    "psi(3,6)/psi(1,6)": ((1, 6, -1), (3, 6, 1)),
    "psi(1,8)/psi(3,8)": ((1, 8, 1), (3, 8, -1)),
    "psi(1,8)^4/psi(3,8)^4": ((1, 8, 4), (3, 8, -4)),
    "psi(1,7)/psi(2,7)": ((1, 7, 1), (2, 7, -1)),
    "psi(1,7)^2/(psi(2,7)psi(3,7))": ((1, 7, 2), (2, 7, -1), (3, 7, -1)),
}


class TestEulerReference:
    """The recurrence against the engine at other moduli, and against the literal product."""

    @pytest.mark.parametrize("name", OTHER_MODULI)
    def test_engine_equals_reference_at_other_moduli(self, name):
        spec = ProductSpec(OTHER_MODULI[name])
        assert expand_product(spec, 1000) == expand_product_reference(spec, 1000)

    @pytest.mark.parametrize("name", sorted(REGISTERED_SPECS))
    def test_reference_equals_literal_product(self, name):
        spec = registered_spec(name)
        assert expand_product_reference(spec, 600) == expand_product_literal(spec, 600)

    @seed(20251219)
    @given(st.lists(st.tuples(st.sampled_from([2, 3, 4, 5, 6, 10, 25]), st.integers(1, 24),
                              st.integers(-5, 5).filter(bool)),
                    min_size=1, max_size=3))
    @settings(max_examples=15, deadline=None)
    def test_random_inline_specs_equal_literal_product(self, raw):
        spec = ProductSpec(tuple((1 + (r - 1) % (m - 1), m, d) for m, r, d in raw))
        assert expand_product_reference(spec, 300) == expand_product_literal(spec, 300)


class TestRogersRamanujan:
    def test_sum_side_order_zero(self):
        assert rr_sum_side("G", 0).coeffs == (1,)

    def test_first_identity(self):
        n = 100
        lhs = rr_sum_side("G", n)
        rhs = ps_inv(ps_mul(expand_pochhammer(1, 5, n), expand_pochhammer(4, 5, n)))
        assert lhs == rhs

    def test_second_identity(self):
        n = 100
        lhs = rr_sum_side("H", n)
        rhs = ps_inv(ps_mul(expand_pochhammer(2, 5, n), expand_pochhammer(3, 5, n)))
        assert lhs == rhs


#: the longest finite range each registered spec is checked to
FINITE_RANGES = {p.spec_name: p.finite_last_index for p in PATTERNS}


def int_signs(coeffs):
    return [(c > 0) - (c < 0) for c in coeffs]


class TestLimbSigns:
    """The sign of a coefficient is the sign of its highest nonzero limb."""

    @pytest.mark.parametrize("name", sorted(FINITE_RANGES))
    def test_registered_specs_at_their_finite_range(self, name):
        plan = limb_plan(registered_spec(name), FINITE_RANGES[name])
        limbs = qseries.expand_limbs(plan)
        signs = qseries.limb_signs(limbs)
        assert signs.dtype == np.int8
        assert signs.tolist() == int_signs(qseries.limbs_to_ints(limbs, plan.radix_bits))

    @pytest.mark.parametrize("name, n", [("D", 3000), ("c", 1000)])
    def test_conversion_leaves_the_limbs_as_they_were(self, name, n):
        # D has an odd limb count at 3000 and c an even one at 1000
        plan = limb_plan(registered_spec(name), n)
        limbs = qseries.expand_limbs(plan)
        before = limbs.copy()
        got = qseries.limbs_to_ints(limbs, plan.radix_bits)
        assert np.array_equal(limbs, before) and limbs.shape == before.shape
        assert QSeries(n, got) == expand_product_reference(registered_spec(name), n)

    @pytest.mark.parametrize("spec", BEYOND_INT64)
    def test_coefficients_beyond_int64(self, spec):
        series = expand_product(spec, 1000)
        signs = series.signs.tolist()  # off the limbs: the ints are not built yet
        assert signs == int_signs(series.coeffs)
        assert max(abs(c) for c in series.coeffs) > 2 ** 63 - 1

    @pytest.mark.parametrize("radix_bits", [4, 5, 24, 30])
    def test_a_unit_top_limb_outweighs_every_lower_limb_at_the_bound(self, radix_bits):
        # rows of L limbs: top limb +-1, each lower limb +-h, zero limbs above
        h = qseries._limb_bound(radix_bits)
        assert h <= 2 ** radix_bits - 1
        rows = []
        for width in range(1, 5):
            for top in (1, -1):
                for lower in product((h, -h), repeat=width - 1):
                    rows.append([*lower, top] + [0] * (4 - width))
        rows.append([0, 0, 0, 0])
        limbs = np.array(rows, dtype=np.int32)
        values = [sum(v << (radix_bits * l) for l, v in enumerate(row)) for row in rows]
        assert qseries.limb_signs(limbs).tolist() == int_signs(values)
        assert all(v != 0 for v in values[:-1])

    def test_the_rule_fails_below_the_smallest_radix(self):
        # at R = 3, h = 8 > 2^3 - 1: the row (-8, 1) is -8 + 8 = 0, its top limb +1
        assert qseries._limb_bound(3) == 8
        assert qseries.limb_signs(np.array([[-8, 1]], dtype=np.int32)).tolist() == [1]

    @pytest.mark.parametrize("t, radix_bits", [(178956969, 4), (178956970, None)])
    def test_plan_refuses_radices_below_four(self, monkeypatch, t, radix_bits):
        # t h + 2^{R-1} <= 2^31 - 1 allows R = 4 up to t = 178956969 and R = 3
        # up to t = 268435455, which the sign rule cannot use
        class Huge(list):
            def __len__(self):
                return t

        assert t * qseries._limb_bound(3) + 4 <= 2 ** 31 - 1
        monkeypatch.setattr(qseries, "pass_plan", lambda spec, n: ([Huge([(0, 1)])], []))
        if radix_bits is None:
            with pytest.raises(ValueError, match="at least 4 bits"):
                limb_plan(registered_spec("A"), 10)
        else:
            assert limb_plan(registered_spec("A"), 10).radix_bits == radix_bits


class TestLazySeries:
    """``expand_product`` keeps the limbs and builds its ints on the first read."""

    def test_signs_build_no_ints(self, monkeypatch):
        series = expand_product(registered_spec("D"), 3000)
        want = expand_product_reference(registered_spec("D"), 200)

        def no_ints(*args):
            raise AssertionError("converted a coefficient to an int")

        monkeypatch.setattr(qseries, "limbs_to_ints", no_ints)
        assert series.signs[:201].tolist() == int_signs(want.coeffs)
        assert sign_exceptions(series, 1, 5, 1, 3000, 1) == []
        assert slice_signs(series, 0, 5, 5, 3000) == [-1] * 600
        monkeypatch.undo()
        assert series.coeff(200) == want.coeff(200)
        assert series.coeffs[:201] == want.coeffs

    def test_the_limbs_are_read_only_and_kept(self, monkeypatch):
        # the series keeps the engine's array itself, and converting reads it only
        made = []
        expand_limbs = qseries.expand_limbs

        def recorded(plan):
            made.append(expand_limbs(plan))
            return made[-1]

        monkeypatch.setattr(qseries, "expand_limbs", recorded)
        series = expand_product(registered_spec("D"), 1000)
        limbs = made[0]
        assert not limbs.flags.writeable
        with pytest.raises(ValueError):
            limbs[0, 0] = 0
        before = limbs.copy()
        assert series == expand_product_reference(registered_spec("D"), 1000)
        assert np.array_equal(limbs, before) and not limbs.flags.writeable

    def test_signs_are_read_only(self):
        for s in (expand_product(registered_spec("A"), 50), series_of([1, -2, 0])):
            with pytest.raises(ValueError):
                s.signs[0] = 0
        assert series_of([1, -2, 0]).signs.tolist() == [1, -1, 0]


class TestSliceSigns:
    def test_reciprocal_fifth_power_multiples_of_five(self, series_a_1000):
        assert set(slice_signs(series_a_1000, 0, 5, 5, 800)) == {-1}

    def test_fifth_power_multiples_of_five(self, series_b_1000):
        assert set(slice_signs(series_b_1000, 0, 5, 5, 800)) == {-1}

    def test_level25_quotient_conjectured_class(self, series_d_19501):
        assert set(slice_signs(series_d_19501, 1, 5, 1, 19001)) == {1}

    def test_range_must_fit_truncation(self):
        with pytest.raises(TruncationMismatchError):
            slice_signs(QSeries.one(10), 0, 5, 0, 11)


class TestSignExceptions:
    def test_empty_where_pattern_holds(self, series_a_1000):
        assert sign_exceptions(series_a_1000, 0, 5, 5, 1000, -1) == []

    def test_exact_indices_on_corrupted_series(self):
        # 1, -1, 2, -2, ...: negate the positive entry at 6, zero the one at 20
        coeffs = [(n // 2 + 1) * (-1) ** n for n in range(30)]
        coeffs[6], coeffs[20] = -coeffs[6], 0
        s = series_of(coeffs)
        assert sign_exceptions(s, 0, 2, 0, 29, 1) == [6, 20]
        assert sign_exceptions(s, 0, 2, 8, 19, 1) == []
        assert sign_exceptions(s, 1, 2, 0, 29, -1) == []
        assert sign_exceptions(s, 0, 2, 0, 29, 0) == [i for i in range(0, 30, 2) if i != 20]

    def test_agrees_with_slice_filter(self, series_800):
        for name, s in series_800.items():
            for residue in range(5):
                for sign in (-1, 0, 1):
                    idx = slice_indices(residue, 5, 1, 800)
                    signs = slice_signs(s, residue, 5, 1, 800)
                    expected = [i for i, g in zip(idx, signs) if g != sign]
                    assert sign_exceptions(s, residue, 5, 1, 800, sign) == expected, name

    def test_range_must_fit_truncation(self):
        with pytest.raises(TruncationMismatchError):
            sign_exceptions(QSeries.one(10), 0, 5, 0, 11, 1)


@pytest.mark.parametrize("modulus", [0, -5])
def test_a_modulus_below_one_is_refused(modulus):
    with pytest.raises(ValueError, match="modulus must be positive"):
        slice_indices(0, modulus, 0, 20)
    with pytest.raises(ValueError, match="modulus must be positive"):
        sign_exceptions(QSeries.one(20), 0, modulus, 0, 20, 1)

