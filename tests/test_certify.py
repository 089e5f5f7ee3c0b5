import dataclasses
import hashlib
import inspect
import json
import subprocess
import sys
from collections import OrderedDict

import pytest

from qsign import certify as certify_mod
from qsign import qseries
from qsign.analytic import CertificateRefused, UsageError, dominance, main_term_data
from qsign.certify import (PATTERNS, TARGETS, Pattern, SignViolation, cached_expansion,
                           certify, richmond_szekeres_scan, verify_known_theorems)
from qsign.cli import main
from qsign.enclosure import DEFAULT_PRECISION
from qsign.qseries import (REGISTERED_SPECS, ProductSpec, QSeries, expand_product,
                           registered_spec, slice_indices)


def no_expansion(*args):
    raise AssertionError("expanded before the target check")


#: certificate hashes of every target at the default 192 bits; the finite-only ones
#: (C to 800, c and d past their cutoffs to 2000) are invalid, but pinned all the same
CERTIFICATE_HASHES = {
    "A5n": "9dde866ab036695ecc0e19336b4c0d94ab97018145f61516e5cb3656c6122f0f",
    "A5n1": "577761177cbe5117c13a48c3ad732ec1d958cd423e3dca848c85de20705603c8",
    "A5n2": "6898c790301189fa8ea9b921eb5ebc73a95784ab155e6b662eb772443e6a4077",
    "A5n3": "5ce82379c1e5dbb10f3ff286e7ebb83c6a31bc8b9dea80e6aaabfc65bffb3a1c",
    "A5n4": "38627176f16e31954987314be68a9efa50a50dfa0fabf4d5cf9c0067ef5ad43e",
    "B5n": "9d94589116c3160086aab4532feb9125c0dfae30cc91e44059c70f1e48dc1c1f",
    "B5n1": "96e1c091930afa541e7e384c04a7a10619ea3408381983ed217ba7f1963640f4",
    "B5n2": "3f2fa6e4f139d2b2450b12f81ef533c8d04e9ea59d20ccfb2b7432f42eb9e932",
    "B5n3": "e805e84c4ad1af50a156663ba7d393af1f0c578dd64da8a012365f9872c9a67d",
    "B5n4": "5be7c0f1c25d099aa9e4c5a6ac8b4662af792690418c088dd2a676a55f3b5c63",
    "D5n": "4a1b7acd5fb6e8a775d640833a498ae5894379d4b2f78eed65b6dc3c8b02ae81",
    "D5n1": "b31b2266748a04247da9a4c8f6aaeb0200e1949ed22b2f83e45a049f4dd1d314",
    "D5n2": "57bf1eb5092c8eec15f09da22c76a8f1a2739532a83b6ea4f63104a92605e10c",
    "D5n3": "5c523050bd3912105c391035a9f4a835352a074ab469976d2aa87465e56119f2",
    "D5n4": "40edafd4a15825d8e803d9af60b274dd3af172b0809ca249514242d6ec9bbba6",
    "C5n": "6597748338d5969fe0850cd4135ed670399d3da1430d35313b609a228e394778",
    "C5n1": "e31e01b6b07681f818b48cc846fb8cb3e68134db5f8811cc9f41aa5d2269a574",
    "C5n2": "c0110f49178c875b67416b10f5395c702b4e41bedec9be35b2046e8f5af28e47",
    "C5n3": "f3525de568e6fa8cbad259bbcb7b66947a5b39d1778d95bc1081dabaae5b2fc6",
    "C5n4": "261b11d8a833d21bab239ccfdd34aa8a4277c4b85e835eb395185a4ba77a2060",
    "c5n": "79a7b4a5a8ee7c9f24a682f8b47092d6d5f2fff094a61a093dad47851623cfd4",
    "c5n1": "1df7756c8eaaadd7f7a1f8dd28121df03ef93904d57686c4ddf284af323d2943",
    "c5n2": "f920285e172761488a31574c9fdd4b4525ab9e139f602fb20096db1f0b669244",
    "c5n3": "c7273298f2aeec18b900befd1cffbf0e44d083df19844f7512b1697987f55fe1",
    "c5n4": "862b84ccc3c259d1f214bc92371bf361c2ccc446e58679dfd0d210532748ba18",
    "d5n": "d27ad30cd88ac44db9f88e229bac890c0e5cf5d0078684e93aaa75b628b26bfb",
    "d5n1": "227f358144446fb6c7421148ceb7089206d5bde4128bb319235997cbbbf9bb31",
    "d5n2": "ab1a8a43907185838312009cd10e5cf715a96f4a3e130cee52115f938b334058",
    "d5n3": "fe541fece04b5edf3f69dbd021859fec24388accb69a96d372372d27c6c5ab73",
    "d5n4": "e101f4954068b12f91e69c699340e9d85431f02596466c3a4fe823865b42cc26",
}
#: the targets whose certificates issue: every class of A, B and D
CERTIFIED = [key for key in TARGETS if key[0] in "ABD"]
FINITE_ONLY = [key for key in TARGETS if key not in CERTIFIED]
#: sha256 of the stdout of ``qsign certify`` without --target
CERTIFY_STDOUT_SHA256 = "1f57aa9bb207846f2d2f0a6461ada93564202b5ede8da93a878d7a50d9dedb0b"


class TestCertify:
    @pytest.mark.parametrize("target", ["A5n", "B5n"])
    def test_fifth_power_targets_certify(self, target, series_a_1000, series_b_1000):
        result = certify(target)
        assert result.ok and result.exit_code == 0
        cert = result.certificate
        assert cert["finite"]["all_ok"] and not cert["finite"]["exceptions"]
        assert cert["asymptotic"]["monotone_ok"] is True
        assert cert["asymptotic"]["n0"] == 801

    def test_level25_target_certifies(self, series_d_19501):
        result = certify("D5n1")
        assert result.ok and result.exit_code == 0
        assert result.certificate["asymptotic"]["n0"] == 19001
        assert result.certificate["finite"]["hi"] == 19501

    def test_no_gap_between_finite_and_asymptotic(self):
        for p in PATTERNS:
            if p.threshold_index is not None:
                assert p.finite_last_index >= p.threshold_index, p.spec_name

    def test_certificate_hashes_pinned(self, series_a_1000, series_b_1000, series_d_19501):
        # every target: the issued certificates and the finite-only ones marked invalid
        assert list(CERTIFICATE_HASHES) == list(TARGETS)
        for key, digest in CERTIFICATE_HASHES.items():
            assert certify(key).certificate["meta"]["hash"] == digest, key

    def test_certificates_reproducible(self, series_a_1000):
        a = certify("A5n")
        b = certify("A5n")
        assert json.dumps(a.certificate) == json.dumps(b.certificate)

    def test_hash_is_content_hash(self, series_a_1000):
        cert = dict(certify("A5n").certificate)
        recorded = cert["meta"]["hash"]
        cert["meta"] = dict(cert["meta"])
        cert["meta"]["hash"] = ""
        recomputed = hashlib.sha256(
            json.dumps(cert, separators=(",", ":"), sort_keys=False).encode()
        ).hexdigest()
        assert recorded == recomputed

    def test_schema_field_order(self, series_a_1000):
        cert = certify("A5n").certificate
        assert list(cert) == ["schema_version", "target", "spec", "finite",
                              "asymptotic", "meta"]
        assert list(cert["finite"]) == ["lo", "hi", "trunc", "all_ok", "exceptions"]
        assert list(cert["asymptotic"]) == ["n0", "precision_bits", "main_lo",
                                            "bound_hi", "monotone_ok"]
        assert list(cert["meta"]) == ["version", "hash"]

    @pytest.mark.parametrize("key", FINITE_ONLY)
    def test_finite_only_target_is_checked_but_never_issued(self, key, series_800):
        result = certify(key)
        assert not result.ok and result.exit_code == 3
        cert = result.certificate
        assert cert["finite"]["all_ok"] and cert["finite"]["hi"] == TARGETS[key].finite_last_index
        assert TARGETS[key].pattern.threshold_index is None
        assert cert["asymptotic"] == {"n0": None, "precision_bits": None, "main_lo": None,
                                      "bound_hi": None, "monotone_ok": None}
        assert cert["meta"]["invalid"].startswith("finite-only target")

    def test_finite_only_violation_exits_2(self, monkeypatch):
        real = cached_expansion(registered_spec("c"), 2000)
        coeffs = list(real.coeffs)
        coeffs[1500] = -coeffs[1500]  # 1500 = 0 mod 5, a class c claims positive
        monkeypatch.setitem(certify_mod._EXPANSION_CACHE, registered_spec("c"),
                            QSeries(2000, tuple(coeffs)))
        result = certify("c5n")
        assert result.exit_code == 2 and result.certificate["finite"]["exceptions"] == [1500]

    def test_unknown_target_lists_registered(self):
        with pytest.raises(KeyError, match="registered"):
            certify("Z9")

    def test_violation_produces_invalid_partial_certificate(self, monkeypatch):
        # corrupt the expansion cache so one claimed-negative coefficient is positive
        from qsign import certify as certify_mod
        from qsign.qseries import QSeries

        real = certify_mod.cached_expansion(registered_spec("A"), 1000)
        coeffs = list(real.coeffs)
        coeffs[505] = 1
        fake = QSeries(1000, tuple(coeffs))
        monkeypatch.setitem(certify_mod._EXPANSION_CACHE, registered_spec("A"), fake)
        result = certify("A5n")
        assert not result.ok and result.exit_code == 2
        assert result.certificate["finite"]["exceptions"] == [505]
        assert "invalid" in result.certificate["meta"]
        monkeypatch.undo()


class TestTargetBinding:
    @pytest.mark.parametrize("key,signs,match", [
        pytest.param("A5n1", (-1, -1, 1, 1, -1), "residue 1, claimed sign -1 is not the sign "
                     "of the derived class constant", id="change1-residue 1"),
        pytest.param("A5n", (1, 1, 1, 1, -1), "claimed sign 1 is not the sign of the derived "
                     "class constant", id="change2-claimed sign 1"),
    ])
    def test_mismatched_target_refused_before_expansion(self, monkeypatch, key, signs, match):
        target = TARGETS[key]
        pattern = dataclasses.replace(target.pattern, signs=signs)
        monkeypatch.setitem(TARGETS, key, pattern.classes[target.residue])
        monkeypatch.setattr(certify_mod, "cached_expansion", no_expansion)
        with pytest.raises(ValueError, match=match):
            certify(key)

    @pytest.mark.parametrize("change,match", [
        pytest.param({"finite_last_index": 800}, "before the dominance threshold 801",
                     id="change3-before the dominance threshold 801"),
        pytest.param({"signs": (-1, 1, 0, 1, -1)}, "are not \\+1 or -1", id="sign 0"),
        pytest.param({"signs": ()}, "are not \\+1 or -1", id="no signs"),
        pytest.param({"start": 0}, "start 0 outside \\[1, 1000\\]", id="start 0"),
        pytest.param({"start": 1001}, "start 1001 outside", id="start past the finite range"),
    ])
    def test_malformed_record_refused_when_built(self, change, match):
        with pytest.raises(ValueError, match=match):
            dataclasses.replace(TARGETS["A5n"].pattern, **change)

    def test_spec_off_the_certified_route_refused(self, monkeypatch):
        # c = 1/R dominates at k = 5 with Delta = 24/5, where no error bound is stated
        pattern = dataclasses.replace(TARGETS["A5n"].pattern, spec_name="c",
                                      signs=(1, 1, -1, -1, -1))
        monkeypatch.setitem(TARGETS, "c5n", pattern.classes[0])
        monkeypatch.setattr(certify_mod, "cached_expansion", no_expansion)
        with pytest.raises(CertificateRefused, match="Delta = 24/5"):
            certify("c5n")

    @pytest.mark.parametrize("signs,error,match", [
        # A's five classes: not the k = 7 of the main term, refused before any bound is read
        pytest.param((-1, 1, 1, 1, -1), ValueError,
                     "a pattern of 5 classes on r7, whose main term has k = 7", id="length 5"),
        # seven classes match the main term, which no error bound covers
        pytest.param((1,) * 7, CertificateRefused, "k = 7 .* needs k = 5", id="length 7"),
    ])
    def test_modulus_other_than_the_main_terms_k_refused(self, monkeypatch, signs, error, match):
        # psi(2,7)/psi(1,7) dominates at k = 7: its classes are mod 7
        monkeypatch.setitem(REGISTERED_SPECS, "r7", ProductSpec(((1, 7, -1), (2, 7, 1))))
        monkeypatch.setitem(TARGETS, "r7", Pattern("r7", signs, 1000, 801).classes[0])
        monkeypatch.setattr(certify_mod, "cached_expansion", no_expansion)
        assert main_term_data(registered_spec("r7")).k == 7
        with pytest.raises(error, match=match):
            certify("r7")

    @pytest.mark.parametrize("bits", [7, 2048])
    def test_precision_outside_the_schedule_refused(self, monkeypatch, bits):
        monkeypatch.setattr(certify_mod, "cached_expansion", no_expansion)
        with pytest.raises(UsageError, match="outside"):
            certify("A5n", bits)

    def test_default_precision_is_the_enclosure_constant(self):
        # the constant the CLI's --precision and every other bits parameter default to
        defaults = (inspect.signature(certify).parameters["precision_bits"].default,
                    inspect.signature(dominance).parameters["start_bits"].default)
        assert defaults == (DEFAULT_PRECISION, DEFAULT_PRECISION)


class TestExpansionCache:
    def test_a_shorter_request_is_served_by_the_cached_series(self, monkeypatch):
        def no_expansion(*args):
            raise AssertionError("expanded although a longer expansion is cached")

        monkeypatch.setattr(certify_mod, "_EXPANSION_CACHE", OrderedDict())
        series = certify_mod.cached_expansion(registered_spec("A"), 1000)
        monkeypatch.setattr(certify_mod, "expand_product", no_expansion)
        for n in (0, 800, 1000):
            assert certify_mod.cached_expansion(registered_spec("A"), n) is series
        assert certify_mod._EXPANSION_CACHE == {registered_spec("A"): series}

    def test_a_longer_request_replaces_the_entry(self, monkeypatch):
        expanded = []

        def counted(spec, n):
            expanded.append(n)
            return QSeries.one(n)

        monkeypatch.setattr(certify_mod, "_EXPANSION_CACHE", OrderedDict())
        monkeypatch.setattr(certify_mod, "expand_product", counted)
        spec = registered_spec("A")
        short = certify_mod.cached_expansion(spec, 800)
        long = certify_mod.cached_expansion(spec, 1000)
        assert short.trunc_order == 800 and long.trunc_order == 1000
        assert certify_mod.cached_expansion(spec, 900) is long
        assert certify_mod._EXPANSION_CACHE == {spec: long} and expanded == [800, 1000]

    def test_two_names_for_one_spec_share_an_entry(self, monkeypatch):
        series = certify_mod.cached_expansion(registered_spec("A"), 1000)
        # an equal spec built anew: the memo is keyed by content, not by name or identity
        monkeypatch.setitem(REGISTERED_SPECS, "A-alias", ProductSpec(registered_spec("A").factors))
        monkeypatch.setattr(certify_mod, "expand_product", no_expansion)
        alias = registered_spec("A-alias")
        assert certify_mod.cached_expansion(alias, 1000) is series
        assert certify_mod.cached_expansion(alias, 900) is series

    def test_least_recently_used_spec_is_evicted(self, monkeypatch):
        monkeypatch.setattr(certify_mod, "_EXPANSION_CACHE", OrderedDict())
        monkeypatch.setattr(certify_mod, "expand_product", lambda spec, n: QSeries.one(n))
        bound = certify_mod._CACHE_ENTRIES
        specs = [ProductSpec(((1, m, 1),)) for m in range(2, bound + 3)]
        for spec in specs[:bound]:
            certify_mod.cached_expansion(spec, 10)
        certify_mod.cached_expansion(specs[0], 5)  # served by (specs[0], 10): a use of it
        certify_mod.cached_expansion(specs[bound], 10)
        assert list(certify_mod._EXPANSION_CACHE) == [*specs[2:bound], specs[0], specs[bound]]
        certify_mod.cached_expansion(specs[0], 20)  # replaces its entry, evicting nothing
        certify_mod.cached_expansion(specs[1], 10)  # evicted above: expanded anew
        assert list(certify_mod._EXPANSION_CACHE) == [
            *specs[3:bound], specs[bound], specs[0], specs[1]]
        assert [s.trunc_order for s in certify_mod._EXPANSION_CACHE.values()] == [
            *[10] * (bound - 2), 20, 10]

    def test_one_product_written_three_ways_is_expanded_once(self, monkeypatch):
        # A, A with its factors swapped, and A written psi(3,5)/psi(4,5)
        expanded = []

        def counted(spec, n):
            expanded.append((spec.factors, n))
            return expand_product(spec, n)

        monkeypatch.setattr(certify_mod, "_EXPANSION_CACHE", OrderedDict())
        monkeypatch.setattr(certify_mod, "expand_product", counted)
        a = registered_spec("A")
        first = certify_mod.cached_expansion(a, 300)
        for factors in (((1, 5, -5), (2, 5, 5)), ((3, 5, 5), (4, 5, -5))):
            assert certify_mod.cached_expansion(ProductSpec(factors), 300) is first
            assert certify_mod.cached_expansion(ProductSpec(factors), 200) is first
        assert expanded == [(a.factors, 300)]
        assert list(certify_mod._EXPANSION_CACHE) == [a]


class TestKnownTheorems:
    def test_all_patterns_hold_to_800(self, series_800):
        tables = verify_known_theorems(800)
        assert set(tables) == {"A", "B", "C", "D"}
        assert all(t.ok for t in tables.values())

    def test_pattern_shapes(self):
        # every spec claims one sign on each class mod 5, from the class's first index
        # (5 for the zero class) or, for the eventual patterns of c and d, from a cutoff
        assert [p.spec_name for p in PATTERNS] == list("ABDCcd")
        assert list(TARGETS) == [f"{p.spec_name}5n{r or ''}" for p in PATTERNS for r in range(5)]
        for p in PATTERNS:
            assert len(p.signs) == 5 and p.eventual == (p.spec_name in "cd"), p.spec_name
        for key, t in TARGETS.items():
            assert t == t.pattern.classes[t.residue] and t.modulus == 5, key
            assert t.start_index == {"c": 10, "d": 24}.get(t.pattern.spec_name, t.residue or 5), key

    @pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: p.spec_name)
    def test_pattern_length_is_the_main_terms_k(self, pattern):
        # the scans take the modulus from the record, so it must be the k certify checks
        assert len(pattern.signs) == main_term_data(registered_spec(pattern.spec_name)).k

    def test_import_and_scans_compute_no_main_term(self):
        code = ("from qsign import analytic\n"
                "def no_main_term(*args):\n"
                "    raise AssertionError('computed a main term')\n"
                "analytic.main_term_data = no_main_term\n"
                "from qsign.certify import richmond_szekeres_scan, verify_known_theorems\n"
                "assert all(s.ok for s in verify_known_theorems(200).values())\n"
                "assert all(s.ok for s in richmond_szekeres_scan(200).values())\n")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr

    def test_specific_residue_signs(self, series_800):
        a = series_800["A"]
        for idx in slice_indices(1, 5, 1, 800):
            assert a.coeffs[idx] > 0
        d = series_800["D"]
        for idx in slice_indices(0, 5, 5, 800):
            assert d.coeffs[idx] < 0

    def test_violation_raises_with_index(self, monkeypatch):
        from qsign import certify as certify_mod
        from qsign.qseries import QSeries

        real = certify_mod.cached_expansion(registered_spec("C"), 800)
        coeffs = list(real.coeffs)
        coeffs[11] = -coeffs[11]
        monkeypatch.setitem(certify_mod._EXPANSION_CACHE, registered_spec("C"),
                            QSeries(800, tuple(coeffs)))
        with pytest.raises(SignViolation, match="index 11"):
            verify_known_theorems(800)
        monkeypatch.undo()


class TestEventualPatternScan:
    def test_cutoffs_and_exceptions(self):
        scans = richmond_szekeres_scan(2000)
        for name, scan in scans.items():
            assert scan.cutoff <= 100
            assert all(e < scan.cutoff for e in scan.exceptions)

    def test_violation_past_the_cutoff_raises_with_index(self, monkeypatch):
        real = cached_expansion(registered_spec("d"), 2000)
        coeffs = list(real.coeffs)
        coeffs[26] = -coeffs[26]  # past d's cutoff 24
        monkeypatch.setitem(certify_mod._EXPANSION_CACHE, registered_spec("d"),
                            QSeries(2000, tuple(coeffs)))
        with pytest.raises(SignViolation, match="pattern for d fails at index 26"):
            richmond_szekeres_scan(2000)

    def test_no_exceptions_past_hundred(self):
        scans = richmond_szekeres_scan(2000)
        for scan in scans.values():
            assert not [e for e in scan.exceptions if e >= 100]

    def test_exception_indices_are_zero_coefficients_or_wrong_sign(self):
        scans = richmond_szekeres_scan(400)
        for name, scan in scans.items():
            series = cached_expansion(registered_spec(name), 400)
            signs = next(p.signs for p in PATTERNS if p.spec_name == name)
            for e in scan.exceptions:
                c = series.coeffs[e]
                assert (c > 0) - (c < 0) != signs[e % 5]


def test_certify_every_claim_end_to_end():
    # without --target, qsign certify issues every certificate and runs both scans
    runs = [subprocess.run([sys.executable, "-m", "qsign.cli", "certify"],
                           capture_output=True, text=True) for _ in range(2)]
    assert [res.returncode for res in runs] == [0, 0], runs[0].stderr
    assert runs[0].stdout == runs[1].stdout  # wall times go to stderr only
    doc = json.loads(runs[0].stdout)
    assert list(doc) == ["certificates", "patterns", "eventual_patterns"]
    assert list(doc["certificates"]) == CERTIFIED
    for key in CERTIFIED:
        assert doc["certificates"][key]["meta"]["hash"] == CERTIFICATE_HASHES[key], key
    assert doc["patterns"] == {name: {"checked_hi": 800, "exceptions": [0]} for name in "ABCD"}
    assert doc["eventual_patterns"] == {
        "c": {"checked_hi": 2000, "cutoff": 10, "exceptions": [2, 4, 9]},
        "d": {"checked_hi": 2000, "cutoff": 24, "exceptions": [3, 8, 13, 23]}}
    assert hashlib.sha256(runs[0].stdout.encode()).hexdigest() == CERTIFY_STDOUT_SHA256


def test_certify_every_claim_converts_no_coefficient(monkeypatch, capsys):
    # every sign is read off the limbs, and (A, 800), (B, 800) and (D, 800)
    # are served by the longer expansions, so qsign certify never builds an int
    def no_ints(*args):
        raise AssertionError("converted a coefficient to an int")

    requested, expanded = [], []
    cached, expand = certify_mod.cached_expansion, certify_mod.expand_product

    def recorded(spec, n):
        requested.append((spec, n))
        return cached(spec, n)

    def counted(spec, n):
        expanded.append((spec, n))
        return expand(spec, n)

    monkeypatch.setattr(certify_mod, "_EXPANSION_CACHE", OrderedDict())
    monkeypatch.setattr(certify_mod, "cached_expansion", recorded)
    monkeypatch.setattr(certify_mod, "expand_product", counted)
    monkeypatch.setattr(qseries, "limbs_to_ints", no_ints)
    assert main(["certify"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {key: cert["meta"]["hash"] for key, cert in doc["certificates"].items()} == {
        key: CERTIFICATE_HASHES[key] for key in CERTIFIED}
    assert doc["patterns"] == {name: {"checked_hi": 800, "exceptions": [0]} for name in "ABCD"}
    assert doc["eventual_patterns"]["d"]["exceptions"] == [3, 8, 13, 23]
    spec = {name: registered_spec(name) for name in "ABCDcd"}
    assert {(spec["A"], 800), (spec["B"], 800), (spec["D"], 800)} <= set(requested)
    assert expanded == [(spec["A"], 1000), (spec["B"], 1000), (spec["D"], 19501),
                        (spec["C"], 800), (spec["c"], 2000), (spec["d"], 2000)]


def test_certify_every_claim_reports_a_scan_violation(monkeypatch, capsys):
    # a violated scan goes into the document, and the later scan still runs
    real = cached_expansion(registered_spec("C"), 800)
    coeffs = list(real.coeffs)
    coeffs[11] = -coeffs[11]
    monkeypatch.setitem(certify_mod._EXPANSION_CACHE, registered_spec("C"),
                        QSeries(800, tuple(coeffs)))
    assert main(["certify"]) == 2
    out = capsys.readouterr()
    assert "Traceback" not in out.err
    doc = json.loads(out.out)
    assert list(doc["certificates"]) == CERTIFIED
    assert doc["patterns"] == {
        "violation": "claimed pattern for C fails at index 11 (checked to 800)"}
    assert doc["eventual_patterns"]["c"]["exceptions"] == [2, 4, 9]
