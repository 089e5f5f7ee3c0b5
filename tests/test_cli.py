import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from mpmath import iv, mp

from qsign import analytic, circle, cli
from qsign.analytic import DominanceResult, class_constant, main_term
from qsign.certify import TARGETS, certify
from qsign.circle import ConvergenceRefused, eta, numeric_coefficients
from qsign.cli import build_parser, main
from qsign.enclosure import ComplexHP, Enclosure, precision
from qsign.qseries import expand_product, limb_plan, registered_spec


def run_cli(args, **kw):
    return subprocess.run([sys.executable, "-m", "qsign.cli", *args],
                          capture_output=True, text=True, **kw)


def stderr_events(err):
    """The lines of `err` that parse as a JSON object with an "event" key."""
    events = []
    for line in err.splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict) and "event" in record:
            events.append(record)
    return events


class TestExpand:
    def test_csv_row_count(self):
        res = run_cli(["expand", "--spec", "A", "--trunc", "20", "--format", "csv"])
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "index,coefficient"
        assert len(lines) == 22

    def test_unknown_spec_lists_registered(self):
        res = run_cli(["expand", "--spec", "bogus", "--trunc", "5"])
        assert res.returncode != 0
        assert "registered specs" in res.stderr

    def test_inline_spec_json(self):
        spec = '[{"r": 1, "m": 2, "delta": -1}]'
        res = run_cli(["expand", "--spec-json", spec, "--trunc", "6"])
        assert res.returncode == 0
        rows = [line.split(",") for line in res.stdout.strip().splitlines()[1:]]
        # 1/(q, q; q^2): pairs of odd-part partitions; convolve 1,1,1,2,2,3,4
        p_odd = [1, 1, 1, 2, 2, 3, 4]
        expected = [sum(p_odd[k] * p_odd[n - k] for k in range(n + 1)) for n in range(7)]
        assert [int(c) for _, c in rows] == expected == [1, 2, 3, 6, 9, 14, 22]

    def test_json_format_stable(self):
        res = run_cli(["expand", "--spec", "c", "--trunc", "4", "--format", "json"])
        payload = json.loads(res.stdout)
        # hand-checked: (1 - q^2 - q^3)(1 + q + q^2 + q^3 + 2 q^4) + O(q^5)
        assert payload == {"spec": "c", "trunc": 4,
                           "coeffs": ["1", "1", "0", "-1", "0"]}

    @pytest.mark.parametrize("argv,digest", [
        (["--spec", "D", "--trunc", "19501"],
         "c16ebd8194807c97932d0bc64170a7c08c8dbf91ca8192735e37cb874893d941"),
        (["--spec", "A", "--trunc", "3000", "--format", "json"],
         "1b45e5798fe75b3192c5fafb16307eea8146380576d33d4c006909afd05043a3"),
        (["--spec", "C", "--trunc", "2000", "--format", "table"],
         "ca6fc7990c51d6ee2589865c70a2b82f7973ea3f8bc9c68de917a34077afac3b"),
    ])
    def test_stdout_digest_pinned(self, argv, digest, capsys):
        # sha256 of the whole stdout: exact output, whatever engine expands it
        assert main(["expand", *argv]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_out_file(self, tmp_path):
        path = tmp_path / "coeffs.csv"
        res = run_cli(["expand", "--spec", "d", "--trunc", "8", "--out", str(path)])
        assert res.returncode == 0
        assert path.read_text().startswith("index,coefficient\n0,1\n")


class TestCertifyCommand:
    def test_exit_zero_and_schema(self, tmp_path):
        path = tmp_path / "cert.json"
        res = run_cli(["certify", "--target", "A5n", "--out", str(path)])
        assert res.returncode == 0
        cert = json.loads(path.read_text())
        assert cert["target"] == "A5n"
        assert cert["finite"]["all_ok"] is True
        assert cert["meta"]["hash"]

    def test_unknown_target(self):
        # the usage error lists every class of every pattern
        res = run_cli(["certify", "--target", "nope"])
        assert res.returncode == 2 and "Traceback" not in res.stderr
        choices = ", ".join(f"'{key}'" for key in sorted(TARGETS))
        assert len(TARGETS) == 30
        assert (f"error: argument --target: invalid choice: 'nope' "
                f"(choose from {choices})") in res.stderr

    def test_finite_only_target_exits_3(self):
        res = run_cli(["certify", "--target", "C5n1"])
        assert res.returncode == 3 and "Traceback" not in res.stderr
        cert = json.loads(res.stdout)
        assert cert["target"] == "C5n1" and cert["finite"]["all_ok"] is True
        assert cert["meta"]["invalid"].startswith("finite-only target")


class TestTables:
    def test_delta_table(self):
        res = run_cli(["delta", "--spec", "A"])
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "spec,aleph,l,delta_num,delta_den,in_Lpos"
        rows = [line.split(",") for line in lines[1:]]
        by_class = {(int(r[1]), int(r[2])): (int(r[3]), int(r[4]), r[5]) for r in rows}
        assert by_class[(1, 5)] == (24, 1, "True")
        assert by_class[(2, 5)] == (-24, 1, "False")
        # the four level-5 classes carry delta = +/-24
        level5 = {k: v for k, v in by_class.items() if k[1] == 5}
        assert {v[0] for v in level5.values()} == {24, -24}


    @pytest.mark.parametrize("name,prefix", [("A", "18a7f422630af065"),
                                             ("B", "1e17197603103726"),
                                             ("D", "d13496c6b9551113")])
    def test_delta_csv_pinned(self, name, prefix, capsys):
        assert main(["delta", "--spec", name]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest[:16] == prefix

    LEVEL25_JSON = ('[{"r": 3, "m": 25, "delta": 2}, {"r": 7, "m": 25, "delta": -1}, '
                    '{"r": 2, "m": 5, "delta": 1}]')

    @pytest.mark.parametrize("argv,digest", [
        (["--spec", "A"], "18a7f422630af06581cb14174ed349274a5a4dd99bff2cef8e641a21d6ce5d42"),
        (["--spec", "D"], "d13496c6b95511131123db6f79727246cf435fcf129ace1f5f5361e414fc6db8"),
        (["--spec-json", LEVEL25_JSON],
         "e21ebf7bd00ef1e4559750b700cdcbe68d10f25c83a2e455f0e31925c5bdda7b"),
        (["--spec", "A", "--format", "json"],
         "c3f5e9617009c3bb5d4df22443887bb9db165ba89144e2f558676c05f4fb1ff7"),
        (["--spec", "D", "--format", "json"],
         "343edef4691b8a4ad4284430f330b25d8bf5158aeb0bf1b2281cce7a29c6025e"),
        (["--spec-json", LEVEL25_JSON, "--format", "json"],
         "1cf8dd729e735cfb32268a601aeab4f6d63387ef874450e2e5f07cdc8b4ea481"),
    ])
    def test_delta_stdout_digest_pinned(self, argv, digest, capsys):
        assert main(["delta", *argv]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_delta_json_omega_is_exact_and_quiet(self):
        res = run_cli(["delta", "--spec", "c", "--format", "json"])
        assert res.returncode == 0 and res.stderr == ""
        assert json.loads(res.stdout)["omega"] == "-24/5"


class TestDominanceCommand:
    def test_verdict_true_at_805(self):
        res = run_cli(["dominance", "--spec", "A", "--n", "805"])
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["verdict"] is True
        assert payload["precision_bits"] >= 192
        assert set(payload) == {"spec", "n", "main_lo", "main_hi", "bound_hi",
                                "verdict", "precision_bits"}
        assert payload["spec"] == "A"

    @pytest.mark.parametrize("verdict,code", [("unknown", 3), (False, 1)])
    def test_undecided_and_refuted_verdicts_exit_nonzero(self, verdict, code, monkeypatch,
                                                         capsys):
        # "unknown" is what dominance returns when the enclosures still overlap at the cap
        one = Enclosure.from_fraction(1)
        monkeypatch.setattr(cli, "dominance",
                            lambda spec, n, start_bits: DominanceResult(verdict, one, one))
        assert main(["dominance", "--spec", "A", "--n", "805"]) == code
        assert json.loads(capsys.readouterr().out)["verdict"] == verdict


class TestXcheck:
    def test_psi_identity_run(self):
        res = run_cli(["xcheck", "--identity", "psi", "--samples", "4",
                       "--seed", "7", "--workers", "1"])
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["max_residual"] < 1e-25
        assert payload["samples"] == 4 and payload["seed"] == 7

    def test_worker_count_does_not_change_result(self):
        one = run_cli(["xcheck", "--identity", "quasiperiodicity", "--samples", "6",
                       "--seed", "3", "--workers", "1"])
        two = run_cli(["xcheck", "--identity", "quasiperiodicity", "--samples", "6",
                       "--seed", "3", "--workers", "2"])
        a, b = json.loads(one.stdout), json.loads(two.stdout)
        del a["elapsed_s"], b["elapsed_s"]
        assert a == b

    @pytest.mark.parametrize("identity,residual", [("eta", 1.0364147226644013e-52),
                                                   ("theta", 6.262023930006353e-52),
                                                   ("quasiperiodicity", 7.450343172401411e-56),
                                                   ("psi", 6.869611139302987e-56),
                                                   ("product", 4.36303444309427e-53)])
    def test_residuals_pinned(self, identity, residual, capsys):
        # interval endpoints are bit-identical to mpmath.iv's, so the residuals are exact
        assert main(["xcheck", "--identity", identity, "--samples", "3", "--seed", "7",
                     "--workers", "1", "--precision", "192"]) == 0
        assert json.loads(capsys.readouterr().out)["max_residual"] == residual

    @pytest.mark.parametrize("identity", ["psi", "quasiperiodicity"])
    def test_vanishing_left_side_is_refused(self, identity):
        # seed 636946 draws sigma = 0, where psi and theta vanish
        with pytest.raises(ConvergenceRefused, match="touches zero"):
            main(["xcheck", "--identity", identity, "--samples", "1", "--seed", "636946",
                  "--workers", "1"])

    @pytest.mark.parametrize("identity,products,nomes", [("eta", 2, 2), ("theta", 6, 4),
                                                          ("quasiperiodicity", 5, 3),
                                                          ("psi", 5, 3)])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_a_sample_evaluates_each_product_and_nome_once(self, identity, products, nomes,
                                                           seed, evaluation_counts, capsys):
        # without the per-sample scope psi runs the product loop 8 times and
        # builds 6 nomes, quasiperiodicity 6 and 4; a second run of the same
        # sample reuses nothing from the first
        calls = evaluation_counts
        argv = ["xcheck", "--identity", identity, "--samples", "1", "--seed", str(seed),
                "--workers", "1", "--precision", "192"]
        for run in (1, 2):
            assert main(argv) == 0
            assert calls == {"_pochhammer_product": run * products, "e_two_pi_i": run * nomes}
        capsys.readouterr()

    def test_a_refused_sample_leaves_no_memo(self, evaluation_counts):
        # seed 636946 draws sigma = 0, so the mirrored point tau - sigma is tau:
        # 3 distinct products and 2 nomes; the next sample starts with an empty memo
        calls = evaluation_counts
        argv = ["xcheck", "--identity", "psi", "--samples", "1", "--seed", "636946",
                "--workers", "1"]
        for run in (1, 2):
            with pytest.raises(ConvergenceRefused, match="touches zero"):
                main(argv)
            assert circle._SAMPLE_MEMO.get() is None
            assert calls == {"_pochhammer_product": run * 3, "e_two_pi_i": run * 2}

    def test_workers_capped_by_samples_and_cpus(self, monkeypatch, capsys):
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(cli, "_process_pool_executor", lambda: SerialPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        argv = ["xcheck", "--identity", "quasiperiodicity", "--seed", "3", "--workers", "100000"]
        assert main([*argv, "--samples", "3"]) == 0
        assert main([*argv, "--samples", "1"]) == 0
        capsys.readouterr()
        assert started == [2]

    def test_only_a_pool_reads_the_cpu_count(self, monkeypatch, capsys):
        def no_cpu_count():
            raise AssertionError("read the CPU count")

        monkeypatch.setattr(cli.os, "cpu_count", no_cpu_count)
        build_parser.cache_clear()  # built again here, under the patch
        for argv in (["delta", "--spec", "A"], ["expand", "--spec", "c", "--trunc", "3"],
                     ["xcheck", "--identity", "psi", "--samples", "2", "--workers", "1"]):
            assert main(argv) == 0, argv
        capsys.readouterr()

    def test_unknown_identity(self):
        res = run_cli(["xcheck", "--identity", "wat"])
        assert res.returncode == 2 and "Traceback" not in res.stderr
        assert ("error: argument --identity: invalid choice: 'wat' "
                "(choose from 'eta', 'product', 'psi', 'quasiperiodicity', 'theta')") in res.stderr


class TestPrecisionControls:
    def test_flag_beats_default(self):
        res = run_cli(["dominance", "--spec", "A", "--n", "805",
                       "--precision", "256"])
        payload = json.loads(res.stdout)
        assert payload["precision_bits"] == 256

    def test_out_of_range_flag_names_the_range(self, capsys):
        # the range is precision_schedule's, and so is the message
        with pytest.raises(SystemExit) as exc:
            main(["dominance", "--spec", "A", "--n", "805", "--precision", "2048"])
        assert exc.value.code == 2
        assert ("error: argument --precision: precision 2048 bits outside [8, 1024]"
                in capsys.readouterr().err)


    def test_non_integer_flag_names_no_private_function(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dominance", "--spec", "A", "--n", "805", "--precision", "abc"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --precision: invalid integer value: 'abc'" in err
        assert "_precision_bits" not in err


def test_environment_sets_no_precision():
    """--precision is the only way to set the bits: no environment variable moves them."""
    res = run_cli(["dominance", "--spec", "A", "--n", "805"],
                  env=dict(os.environ, QSIGN_PRECISION="96"))
    assert res.returncode == 0 and json.loads(res.stdout)["precision_bits"] == 192


def test_ambient_precision_changes_no_result(capsys):
    """Results at 192 bits are bit for bit the same whatever ``iv.prec`` a caller leaves."""
    def results():
        analytic._class_sum.cache_clear()  # recompute S_r rather than read it back
        assert main(["xcheck", "--identity", "psi", "--samples", "1", "--seed", "7",
                     "--workers", "1", "--precision", "192"]) == 0
        value = eta(ComplexHP.from_fractions(Fraction(1, 7), Fraction(3, 5)))
        encs = [main_term(registered_spec("A"), 805), class_constant(registered_spec("D"), 1),
                value.re, value.im]
        assert [e.bits for e in encs] == [192] * 4
        return [e._mpi_ for e in encs], json.loads(capsys.readouterr().out)["max_residual"]

    plain = results()
    with precision(64):
        assert results() == plain
        iv.prec = 53  # mpmath's own default; precision() restores the old value
        assert results() == plain


def test_results_ignore_mp_prec(capsys):
    """mpmath's ``mp.prec`` moves no main term, certificate, residual or quadrature estimate."""
    def results():
        analytic._class_sum.cache_clear()  # recompute S_r rather than read it back
        terms = [main_term(registered_spec("A"), 805)._mpi_,
                 main_term(registered_spec("D"), 19001)._mpi_]
        hashes = [certify(key).certificate["meta"]["hash"] for key in ("A5n", "B5n", "D5n1")]
        assert main(["xcheck", "--identity", "psi", "--samples", "1", "--seed", "7",
                     "--workers", "1", "--precision", "192"]) == 0
        residual = json.loads(capsys.readouterr().out)["max_residual"]
        estimates = numeric_coefficients(registered_spec("A"), [3, 5], order=2, dps=30)
        return terms, hashes, residual, {n: v._mpf_ for n, v in estimates.items()}

    plain = results()
    for prec in (10, 400):
        with mp.workprec(prec):
            assert results() == plain


class TestExpandEvent:
    """``qsign expand``'s one stderr event: the engine's passes, radix, limbs and times."""

    @staticmethod
    def event(tmp_path, capsys, *argv):
        # the coefficients go to a file, so no test pipes D's 3 MB of rows
        assert main(["expand", *argv, "--out", str(tmp_path / "coeffs.csv")]) == 0
        err = capsys.readouterr().err
        (event,) = stderr_events(err)
        assert event["event"] == "expand" and err.count("\n") == 1
        return event

    def test_expand_reports_the_engine(self, tmp_path, capsys):
        payload = self.event(tmp_path, capsys, "--spec", "c", "--trunc", "2000")
        assert set(payload) == {"event", "spec", "trunc", "seconds", "expand_s", "convert_s",
                                "signs_s", "last_coefficient_digits", "mul_passes",
                                "div_passes", "limb_radix_bits", "limbs", "div_blocks",
                                "coeff_bits_max"}
        assert payload["spec"] == "c" and payload["trunc"] == 2000
        assert payload["seconds"] >= 0
        # psi(2,5)/psi(1,5): one triple-product pass each way, the eta powers cancel
        assert payload["mul_passes"] == 1 and payload["div_passes"] == 1
        series = expand_product(registered_spec("c"), 2000)
        assert payload["coeff_bits_max"] == max(abs(c).bit_length() for c in series.coeffs)
        plan = limb_plan(registered_spec("c"), 2000)
        assert payload["limb_radix_bits"] == plan.radix_bits == 26
        assert payload["div_blocks"] == list(plan.div_blocks) == [64]
        # 63-bit coefficients in limbs of at most 2^25 + 2^13: three limbs
        assert payload["limbs"] == 3
        payload = self.event(tmp_path, capsys, "--spec-json", '[{"r": 1, "m": 5, "delta": 2}]',
                             "--trunc", "50")
        # psi(1,5)^2: two triple-product multiplications, two eta divisions
        assert payload["mul_passes"] == 2 and payload["div_passes"] == 2

    def test_expand_reports_the_used_limbs_at_the_threshold(self, tmp_path, capsys):
        # D to 19501 reaches 21 limbs of radix 2^24; the spare limbs its
        # array grows by never reach the count
        payload = self.event(tmp_path, capsys, "--spec", "D", "--trunc", "19501")
        assert payload["limb_radix_bits"] == 24 and payload["limbs"] == 21

    def test_expand_counts_no_all_zero_top_limbs(self, tmp_path, capsys):
        # psi(2,5)^30 / psi(3,5)^30 is the series 1: one limb, though the
        # carries of its passes reach three
        spec = '[{"r": 2, "m": 5, "delta": 30}, {"r": 3, "m": 5, "delta": -30}]'
        payload = self.event(tmp_path, capsys, "--spec-json", spec, "--trunc", "1000")
        assert payload["coeff_bits_max"] == 1 and payload["limbs"] == 1

    def test_expand_times_expansion_and_conversion_apart(self, tmp_path, capsys):
        payload = self.event(tmp_path, capsys, "--spec", "D", "--trunc", "300")
        assert payload["expand_s"] >= 0 and payload["convert_s"] >= 0
        # each of the three is rounded to the millisecond
        assert abs(payload["expand_s"] + payload["convert_s"] - payload["seconds"]) <= 0.002

    def test_expand_times_the_sign_read_apart(self, tmp_path, capsys):
        payload = self.event(tmp_path, capsys, "--spec", "D", "--trunc", "300")
        assert payload["signs_s"] >= 0


def test_import_starts_no_process_pool_machinery():
    # concurrent.futures is imported on first use, by xcheck --workers > 1
    code = ("import sys, qsign.analytic, qsign.certify, qsign.circle, qsign.cli\n"
            "print('concurrent.futures' in sys.modules)")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0 and res.stdout.strip() == "False", res.stderr
    assert cli._process_pool_executor().__name__ == "ProcessPoolExecutor"


def test_certify_loads_no_diagnostic_module():
    # the certificate path imports no circle: a fresh `import qsign.certify`
    code = "import sys, qsign.certify\nprint('qsign.circle' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0 and res.stdout.strip() == "False", res.stderr


def test_parser_covers_documented_flags():
    parser = build_parser()
    text = parser.format_help()
    for sub in ("expand", "certify", "delta", "dominance", "xcheck"):
        assert sub in text


#: the flags each subcommand reads, and no others
SUBCOMMAND_FLAGS = {
    "expand": {"--spec", "--spec-json", "--trunc", "--format", "--out"},
    "certify": {"--target", "--precision", "--out"},
    "delta": {"--spec", "--spec-json", "--format", "--out"},
    "dominance": {"--spec", "--n", "--precision", "--out"},
    "xcheck": {"--identity", "--samples", "--precision", "--seed", "--workers", "--out"},
}


def test_each_subcommand_has_exactly_its_flags():
    parser = build_parser()
    subparsers = next(a for a in parser._actions if a.choices and "expand" in a.choices)
    assert set(subparsers.choices) == set(SUBCOMMAND_FLAGS)
    for name, sub in subparsers.choices.items():
        flags = {opt for action in sub._actions for opt in action.option_strings
                 if opt not in ("-h", "--help")}
        assert flags == SUBCOMMAND_FLAGS[name], name
    formats = {name: next(a.choices for a in subparsers.choices[name]._actions
                          if "--format" in a.option_strings) for name in ("expand", "delta")}
    assert set(formats["expand"]) == {"csv", "json", "table"}
    assert set(formats["delta"]) == {"csv", "json"}


@pytest.mark.parametrize("argv", [
    ["certify", "--target", "A5n", "--workers", "2"],
    ["expand", "--spec", "A", "--trunc", "5", "--precision", "96"],
    ["certify", "--target", "A5n", "--seed", "1"],
])
def test_unread_flags_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["certify", "--target", "A5n", "--precision", "2048"],
    ["certify", "--target", "A5n", "--precision", "7"],
    ["dominance", "--spec", "A", "--n", "805", "--precision", "1025"],
    ["xcheck", "--identity", "psi", "--precision", "4"],
    ["dominance", "--spec", "A", "--n", "805", "--precision", "abc"],
    ["xcheck", "--identity", "psi", "--samples", "0"],
    ["xcheck", "--identity", "psi", "--samples", "-3"],
    ["dominance", "--spec", "C", "--n", "805"],
    ["dominance", "--spec", "A", "--n", "5"],
    ["expand", "--spec", "A", "--trunc", "-1"],
    ["xcheck", "--identity", "psi", "--workers", "0"],
    ["xcheck", "--identity", "psi", "--workers", "-2"],
])
def test_out_of_range_values_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error: argument --" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["--spec-json", "{not json"], "--spec-json: Expecting property name"),
    (["--spec-json", '{"r": 1, "m": 5, "delta": 1}'], "--spec-json: spec literal must be a JSON"),
    (["--spec-json", '[{"r": 1, "m": 5}]'],
     "--spec-json: each factor needs integer r, m and delta, got {'r': 1, 'm': 5}"),
    (["--spec-json", '[{"r": 1, "m": 5, "delta": 1.5}]'], "--spec-json: each factor needs integer"),
    (["--spec-json", '[{"r": 1, "m": 5, "delta": "2"}]'], "--spec-json: each factor needs integer"),
    (["--spec-json", "[[1, 5, 1]]"], "--spec-json: each factor needs integer r, m and delta, got"),
    (["--spec-json", '[{"r": 5, "m": 5, "delta": 1}]'], "--spec-json: need 1 <= r < m, got (r, m)"),
    (["--spec-json", '[{"r": 1, "m": 5, "delta": 0}]'], "--spec-json: delta must be nonzero"),
    (["--spec-json", "[]"], "--spec-json: product spec needs at least one factor"),
    (["--spec-json", "@missing-spec.json"], "--spec-json: [Errno 2] No such file or directory"),
    (["--spec", "bogus"], "--spec: unknown spec 'bogus'; registered specs: A, B, C, D, c, d"),
    (["--spec", "A", "--spec-json", '[{"r": 1, "m": 5, "delta": 1}]'],
     "--spec-json: not allowed with argument --spec"),
])
def test_malformed_spec_is_a_usage_error(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # where missing-spec.json does not exist
    with pytest.raises(SystemExit) as exc:
        main(["expand", "--trunc", "5", *argv])
    assert exc.value.code == 2
    assert f"error: argument {message}" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["expand", "--trunc", "5"], "one of the arguments --spec --spec-json is required"),
    (["delta"], "one of the arguments --spec --spec-json is required"),
    (["delta", "--spec", "A", "--spec-json", '[{"r": 1, "m": 5, "delta": 1}]'],
     "argument --spec-json: not allowed with argument --spec"),
    (["delta", "--spec", "bogus"], "argument --spec: unknown spec 'bogus'"),
    (["delta", "--spec-json", "{not json"], "argument --spec-json: Expecting property name"),
    (["dominance", "--spec", "bogus", "--n", "805"], "argument --spec: unknown spec 'bogus'"),
    (["dominance", "--spec", "c", "--n", "805"], "argument --spec: spec ((2, 5, 1), (1, 5, -1)): "
                                                 "no explicit error constant"),
    (["dominance", "--spec", "A", "--n", "5"], "argument --n: error bound stated only for n >= 20"),
    (["expand", "--spec", "c", "--trunc", "3", "--out", "missing/out.txt"],
     "argument --out: [Errno 2] No such file or directory"),
    (["certify", "--target", "A5n", "--out", "missing/out.txt"], "argument --out: [Errno 2]"),
    (["xcheck", "--identity", "psi", "--out", "missing/out.txt"], "argument --out: [Errno 2]"),
])
def test_usage_errors_print_the_subcommands_usage(argv, message, tmp_path, monkeypatch, capsys):
    # also those found after parsing (--out, dominance's --n and --spec)
    monkeypatch.chdir(tmp_path)  # where missing/ does not exist
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith(f"usage: qsign {argv[0]} ")
    assert lines[-1].startswith(f"qsign {argv[0]}: error: {message}")


@pytest.mark.parametrize("argv", [
    ["expand", "--spec", "c", "--trunc", "3"],
    ["certify", "--target", "C5n1"],
    ["certify"],
])
def test_unwritable_out_is_a_usage_error(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "missing" / "out.txt")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --out: [Errno 2] No such file or directory" in err
    # --out is opened before any work: no expand, target or scan event
    assert stderr_events(err) == []


CERTIFIED_KEYS = [key for key, target in TARGETS.items()
                  if target.pattern.threshold_index is not None]


@pytest.mark.parametrize("argv,code,events", [
    (["expand", "--spec", "c", "--trunc", "50"], 0, ["expand"]),
    (["certify", "--target", "A5n"], 0, ["target"]),
    (["certify", "--target", "C5n1"], 3, ["target"]),
    (["certify"], 0, ["target"] * len(CERTIFIED_KEYS) + ["scan", "scan"]),
    (["delta", "--spec", "A"], 0, []),
    (["dominance", "--spec", "A", "--n", "805"], 0, []),
    (["xcheck", "--identity", "psi", "--samples", "1", "--workers", "1"], 0, []),
])
def test_stderr_is_json_lines(argv, code, events, capsys):
    """Progress is one JSON object per stderr line; delta, dominance and xcheck write none."""
    assert main(argv) == code
    err = capsys.readouterr().err
    records = stderr_events(err)
    assert len(records) == len(err.splitlines())  # every line is an event
    assert [r["event"] for r in records] == events
    targets = [r for r in records if r["event"] == "target"]
    if argv[0] == "certify":
        assert [r["key"] for r in targets] == (argv[2:] or CERTIFIED_KEYS)
    assert all(r["exit_code"] == code and ("invalid" in r) == (code != 0) for r in targets)
    assert all(r["ok"] is True for r in records if r["event"] == "scan")


class TestParserReuse:
    """main() builds its parser once per process; each call still parses on its own."""

    def test_defaults_do_not_carry_over(self, capsys):
        argv = ["expand", "--spec", "c", "--trunc", "4"]
        assert main([*argv, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["trunc"] == 4
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[0] == "index,coefficient"

    def test_usage_error_on_every_call(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["dominance", "--spec", "A", "--n", "5"])
            assert exc.value.code == 2
            assert "error: argument --n" in capsys.readouterr().err
        assert build_parser() is build_parser()
