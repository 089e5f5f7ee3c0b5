"""Acceptance criteria, one test per criterion, each printing a verdict line.

Every tolerance and time budget is pinned here; exact checks use integer
arithmetic and certified checks use interval enclosures, so there is no
floating-point slack anywhere a sign is decided.
"""

import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from math import gcd

import pytest

from qsign.analytic import dominance, eventual_dominance_certificate
from qsign.certify import richmond_szekeres_scan, verify_known_theorems
from qsign.circle import lemma_arc_integral, numeric_coefficients
from qsign.cli import _XCHECK_KINDS, _xcheck_worker
from oracles import dedekind_sums_direct_all, expand_pochhammer, ps_inv, ps_mul, rr_sum_side
from qsign import modular
from qsign.modular import dedekind_sum, lpos_set, omega_exact
from qsign.qseries import expand_product, registered_spec, slice_signs


def report(criterion: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {criterion}" + (f" -- {detail}" if detail else ""), flush=True)
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_reciprocal_fifth_power_negative_multiples_of_five():
    t0 = time.perf_counter()
    series = expand_product(registered_spec("A"), 1000)
    signs = slice_signs(series, 0, 5, 5, 1000)
    elapsed = time.perf_counter() - t0
    ok = len(signs) == 200 and set(signs) == {-1} and elapsed < 10
    report("criterion 1: A(5n) < 0 for 1 <= n <= 200 (exact, N=1000)", ok,
           f"{len(signs)} indices, {elapsed:.2f}s")


def test_criterion_02_fifth_power_negative_multiples_of_five():
    t0 = time.perf_counter()
    series = expand_product(registered_spec("B"), 1000)
    signs = slice_signs(series, 0, 5, 5, 1000)
    elapsed = time.perf_counter() - t0
    ok = len(signs) == 200 and set(signs) == {-1} and elapsed < 10
    report("criterion 2: B(5n) < 0 for 1 <= n <= 200 (exact, N=1000)", ok,
           f"{len(signs)} indices, {elapsed:.2f}s")


def test_criterion_03_level25_quotient_positive_class():
    t0 = time.perf_counter()
    series = expand_product(registered_spec("D"), 19501)
    signs = slice_signs(series, 1, 5, 1, 19501)
    elapsed = time.perf_counter() - t0
    ok = len(signs) == 3901 and set(signs) == {1} and elapsed < 300
    report("criterion 3: D(5n+1) > 0 for 0 <= n <= 3900 (exact, N=19501)", ok,
           f"{len(signs)} indices, {elapsed:.2f}s")


def test_criterion_04_documented_sign_patterns(series_800):
    t0 = time.perf_counter()
    tables = verify_known_theorems(800)
    elapsed = time.perf_counter() - t0
    ok = set(tables) == {"A", "B", "C", "D"} and all(t.ok for t in tables.values()) \
        and elapsed < 10
    report("criterion 4: established residue patterns exact to N=800", ok,
           f"{elapsed:.2f}s")


def test_criterion_05_modular_tables():
    omegas = {name: omega_exact(registered_spec(name)) for name in ("A", "B", "D")}
    pos_a = lpos_set(registered_spec("A"))
    pos_b = lpos_set(registered_spec("B"))
    pos_d = lpos_set(registered_spec("D"))
    ok = (omegas == {"A": -24, "B": 24, "D": 0}
          and pos_a == {(1, 5), (4, 5)}
          and pos_b == {(2, 5), (3, 5)}
          and len(pos_d) == 20
          and all(a % 5 in (1, 4) and l % 25 in (5, 10, 15, 20) for a, l in pos_d))
    report("criterion 5: Omega and positive-class tables match documented values",
           ok, f"omegas={omegas}")


def test_criterion_06_dominance_and_eventual_certificates():
    t0 = time.perf_counter()
    verdicts = {}
    for fam, n in (("A", 805), ("B", 805), ("D", 19006)):
        res = dominance(registered_spec(fam), n, start_bits=192)
        verdicts[(fam, n)] = res.verdict
    certs = {}
    for fam, residue, n0 in (("A", 0, 801), ("B", 0, 801), ("D", 1, 19001)):
        # issued only once dominance at the threshold and monotonicity are certified
        certs[(fam, n0)] = eventual_dominance_certificate(registered_spec(fam), residue, n0)
    elapsed = time.perf_counter() - t0
    ok = (all(v is True for v in verdicts.values())
          and all(c.n0 == n0 for (_, n0), c in certs.items())
          and elapsed < 60)
    report("criterion 6: certified dominance at 805/805/19006 and "
           "eventual certificates at 801/801/19001", ok,
           f"verdicts={verdicts}, {elapsed:.2f}s")


def test_criterion_07_transformation_identities():
    t0 = time.perf_counter()
    kinds = ("eta", "theta", "quasiperiodicity", "product")
    jobs = [(kind, 20250810 * 100_000 + i, 192)
            for kind in kinds for i in range(100)]
    with ProcessPoolExecutor(max_workers=2) as pool:
        residuals = list(pool.map(_xcheck_worker, jobs, chunksize=8))
    worst = {kind: 0.0 for kind in kinds}
    for (kind, _, _), r in zip(jobs, residuals):
        worst[kind] = max(worst[kind], r)
    elapsed = time.perf_counter() - t0
    ok = all(w < 1e-25 for w in worst.values()) and elapsed < 120
    report("criterion 7: eta/theta/quasiperiodicity/product identities, "
           "100 samples each < 1e-25 at 192 bits", ok,
           f"worst={{{', '.join(f'{k}: {v:.2e}' for k, v in worst.items())}}}, "
           f"{elapsed:.1f}s")


def test_criterion_08_dedekind_sums():
    t0 = time.perf_counter()
    bad = 0
    for c in range(1, 1001):
        table = dedekind_sums_direct_all(c)
        for d, direct in table.items():
            # the integer 6c s(d, c) the package reads, and d's inverse mod c
            # from the same Euclid run
            six_c_s, inverse = modular._dedekind_6c(d, c)
            if six_c_s * direct.denominator != 6 * c * direct.numerator or (inverse * d - 1) % c:
                bad += 1
    recip_bad = 0
    for c in range(1, 201):
        for d in range(1, 201):
            if gcd(d, c) != 1:
                continue
            lhs = dedekind_sum(d, c) + dedekind_sum(c, d)
            rhs = Fraction(-1, 4) + (Fraction(c, d) + Fraction(d, c)
                                     + Fraction(1, c * d)) / 12
            if lhs != rhs:
                recip_bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and recip_bad == 0 and elapsed < 30
    report("criterion 8: Dedekind sums, accelerated == definitional with the run's inverse "
           "(c <= 1000) and reciprocity (c, d <= 200)", ok, f"{elapsed:.2f}s")


def test_criterion_09_rogers_ramanujan_identities():
    n = 500
    lhs_g = rr_sum_side("G", n)
    rhs_g = ps_inv(ps_mul(expand_pochhammer(1, 5, n), expand_pochhammer(4, 5, n)))
    lhs_h = rr_sum_side("H", n)
    rhs_h = ps_inv(ps_mul(expand_pochhammer(2, 5, n), expand_pochhammer(3, 5, n)))
    ok = lhs_g == rhs_g and lhs_h == rhs_h
    report("criterion 9: Rogers-Ramanujan identities exact to N=500", ok)


def test_criterion_10_circle_method_cross_check():
    t0 = time.perf_counter()
    ns = list(range(31))
    worst_rel = 0.0
    for name in ("A", "B"):
        spec = registered_spec(name)
        exact = expand_product(spec, 30)
        got = numeric_coefficients(spec, ns, order=4, dps=35, tol=1e-9)
        for n in ns:
            ref = exact.coeff(n)
            rel = abs(float(got[n]) - ref) / max(1, abs(ref))
            worst_rel = max(worst_rel, rel)
    lemma_ok = all(
        lemma_arc_integral(Fraction(24), Fraction(b), 5, 30, 13)["ok"]
        for b in (-24, 24, 0)
    )
    elapsed = time.perf_counter() - t0
    ok = worst_rel < 1e-6 and lemma_ok and elapsed < 300
    report("criterion 10: numeric coefficient recovery (n <= 30, A and B, "
           "rel < 1e-6) and single-arc Bessel spot checks", ok,
           f"worst_rel={worst_rel:.2e}, {elapsed:.1f}s")


def test_criterion_11_eventual_pattern_scan():
    scans = richmond_szekeres_scan(2000)
    exceptions_past_100 = {name: [e for e in s.exceptions if e >= 100]
                           for name, s in scans.items()}
    ok = (set(scans) == {"c", "d"}
          and all(not v for v in exceptions_past_100.values())
          and all(s.checked_hi == 2000 for s in scans.values()))
    cutoffs = {name: s.cutoff for name, s in scans.items()}
    report("criterion 11: eventual sign patterns of 1/R and R, zero exceptions "
           "on [100, 2000]", ok, f"observed cutoffs={cutoffs}")
