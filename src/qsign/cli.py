"""Command line front end.

The five subcommands and their flags (each flag is attached only where it is read):

* ``expand``     stream exact coefficients of a registered or inline product,
                 and report on stderr the engine's pass counts, limb radix,
                 final limb count, division block sizes and division strides
                 (``qseries.limb_plan``), the largest coefficient in bits and
                 the times of the limb expansion, the conversion to ints and
                 apart the read of every sign off the limbs ("signs_s", not
                 in "seconds"); --spec, --spec-json, --trunc, --format
                 (csv/json/table), --out
* ``certify``    build a sign-pattern certificate; --target (a class of a
                 pattern, one of ``certify.TARGETS``; another name is a
                 usage error, exit 2), --precision, --out.  Without --target,
                 one JSON document: the certificate of each class whose
                 pattern has a dominance threshold ("certificates") and the
                 exact scans from index 0 ("patterns", "eventual_patterns";
                 a violated scan is {"violation": message}).  Exit 0 all
                 certified, 2 a sign violation, else 3 a finite-only target
                 or a dominance still refused
* ``delta``      growth-exponent table per residue class; the json form adds
                 Omega as an exact fraction string (``modular.omega_exact``,
                 "-24/5" for c) and the Lpos classes;
                 --spec, --spec-json, --format (csv/json), --out
* ``dominance``  certified main-term vs error-bound comparison at one index
                 (exit 0 main term above, 1 below, 3 still undecided at
                 ``analytic.PRECISION_CAP``); --spec (one without an explicit
                 error constant: a usage error, exit 2), --n (outside the
                 error bound's range: exit 2), --precision, --out
* ``xcheck``     randomized residual checks of the transformation identities;
                 a sample whose left side may vanish (sigma drawn as 0) is
                 refused with ``circle.ConvergenceRefused``; --identity
                 (eta, theta, quasiperiodicity, psi or product; another name
                 is a usage error, exit 2), --samples, --precision, --seed,
                 --workers (at most one per sample and per CPU), --out.
                 Each sample runs in its own ``circle.one_sample()`` scope,
                 in-process or in a pool worker: it evaluates each of its
                 Pochhammer products and nomes once, and nothing carries
                 over to the next sample, which may repeat its inputs

Data output goes to stdout (or --out); progress goes to stderr as one JSON
object per line, each with an "event" key ("expand"; "target" per certify
target; "scan" per certify scan), so piped output stays machine-clean.
delta, dominance and xcheck write no progress.  expand and delta take one
of --spec and --spec-json: argparse refuses both ("not allowed with") and
neither ("one of the arguments ... is required"), and an unknown --spec or
a malformed --spec-json (or its @file) is a usage error on that flag.  Each
usage error exits 2 under its subcommand's usage line, also one found after
parsing: an unwritable --out (opened before any work), or dominance's --n
or --spec.  All randomness is driven by --seed.
Only ``--precision`` sets the bits, default ``enclosure.DEFAULT_PRECISION``
(192); one that ``analytic.precision_schedule`` refuses (outside [8,
``analytic.PRECISION_CAP``]) is a usage error (exit 2).  The bits are
passed down, never set process wide: ``certify`` and ``dominance``
start there and double up to the cap while undecided, and each xcheck
sample is built at them; expand and delta are exact.

The delta tables are one call per spec::

    qsign delta --spec A --out delta_A.csv

and the identity sweep is a shell loop.  Exit 1 there is a residual above
1e-25, and also, until refusals get an exit code of their own, a sample
refused with ``circle.ConvergenceRefused`` (its traceback on stderr)::

    for k in eta theta quasiperiodicity psi product; do
        qsign xcheck --identity $k --samples 100 --workers 2 || echo "$k failed"
    done
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from math import gcd
from typing import Callable, Iterator, Sequence, TextIO

from . import __version__
from .analytic import CertificateRefused, UsageError, dominance, precision_schedule
from .certify import (TARGETS, SignViolation, certify, richmond_szekeres_scan,
                      verify_known_theorems)
from .circle import (check_product_transform, csqrt_upper, eta, one_sample, psi, psi_by_theta,
                     relative_residual, theta)
from .enclosure import DEFAULT_PRECISION, ComplexHP, e_pi_i_half_turns, e_two_pi_i
from .modular import GammaMatrix, delta_table_rows, omega_exact
from .qseries import ProductSpec, QSeries, expand_limbs, limb_plan, registered_spec


@contextmanager
def _output(args) -> Iterator[TextIO]:
    """The --out file (closed afterwards), or stdout when it is unset or '-'."""
    if args.out and args.out != "-":
        try:
            fh = open(args.out, "w", encoding="utf-8")
        except OSError as exc:
            raise argparse.ArgumentError(None, f"argument --out: {exc}") from None
        with fh:
            yield fh
    else:
        yield sys.stdout


def _write_json(out: TextIO, payload: dict) -> None:
    json.dump(payload, out, indent=2)
    out.write("\n")


def _emit(event: str, **fields) -> None:
    """One progress event: a JSON object on its own stderr line."""
    print(json.dumps({"event": event, **fields}), file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_expand(args, out: TextIO) -> int:
    name, spec = args.spec
    t0 = time.perf_counter()
    plan = limb_plan(spec, args.trunc)
    limbs = expand_limbs(plan)
    t1 = time.perf_counter()
    series = QSeries.from_limbs(limbs, plan.radix_bits)
    series.signs  # read off the limbs, timed apart from the conversion
    t2 = time.perf_counter()
    coeffs = series.coeffs
    t3 = time.perf_counter()
    _emit("expand", spec=name, trunc=args.trunc,
          seconds=round((t1 - t0) + (t3 - t2), 3),
          expand_s=round(t1 - t0, 3), convert_s=round(t3 - t2, 3), signs_s=round(t2 - t1, 4),
          last_coefficient_digits=len(str(abs(coeffs[-1]))),
          mul_passes=len(plan.mul_passes), div_passes=len(plan.div_passes),
          limb_radix_bits=plan.radix_bits, limbs=limbs.shape[1],
          div_blocks=list(plan.div_blocks), div_strides=list(plan.div_strides),
          coeff_bits_max=max(abs(c).bit_length() for c in coeffs))
    if args.format == "csv":
        out.write("index,coefficient\n")
        for n, c in enumerate(coeffs):
            out.write(f"{n},{c}\n")
    elif args.format == "json":
        json.dump({"spec": name, "trunc": args.trunc,
                   "coeffs": [str(c) for c in coeffs]}, out)
        out.write("\n")
    else:
        for n, c in enumerate(coeffs):
            out.write(f"{n:>8}  {c}\n")
    return 0


def cmd_certify(args, out: TextIO) -> int:
    """One target's certificate, or without --target every certificate and both scans."""
    keys = [args.target] if args.target else [
        key for key, target in TARGETS.items() if target.pattern.threshold_index is not None]
    certificates, codes = {}, {0}
    for key in keys:
        t0 = time.perf_counter()
        result = certify(key, precision_bits=args.precision)
        invalid = {} if result.ok else {"invalid": result.certificate["meta"]["invalid"]}
        _emit("target", key=key, exit_code=result.exit_code,
              seconds=round(time.perf_counter() - t0, 3), **invalid)
        certificates[key] = result.certificate
        codes.add(result.exit_code)
    if args.target:
        _write_json(out, certificates[args.target])
        return result.exit_code
    doc = {"certificates": certificates}
    for section, scan, row in (
            ("patterns", verify_known_theorems,
             lambda s: {"checked_hi": s.checked_hi, "exceptions": s.exceptions}),
            ("eventual_patterns", richmond_szekeres_scan, lambda s: {
                "checked_hi": s.checked_hi, "cutoff": s.cutoff, "exceptions": s.exceptions})):
        t0 = time.perf_counter()
        try:
            scans = scan()
        except SignViolation as exc:
            doc[section] = status = {"violation": str(exc)}
            codes.add(2)
        else:
            doc[section] = {name: row(s) for name, s in scans.items()}
            status = {"ok": True}
        _emit("scan", section=section, **status, seconds=round(time.perf_counter() - t0, 3))
    _write_json(out, doc)
    return 2 if 2 in codes else max(codes)  # a violation outranks a refusal (3)


def cmd_delta(args, out: TextIO) -> int:
    name, spec = args.spec
    rows = list(delta_table_rows(name, spec))
    if args.format == "json":
        json.dump({"spec": name, "omega": str(omega_exact(spec)),
                   "lpos": sorted((r["aleph"], r["l"]) for r in rows if r["in_Lpos"]),
                   "rows": rows}, out, default=str)
        out.write("\n")
    else:
        cols = list(rows[0].keys())
        out.write(",".join(cols) + "\n")
        for row in rows:
            out.write(",".join(str(row[c]) for c in cols) + "\n")
    return 0


def cmd_dominance(args, out: TextIO) -> int:
    name, spec = args.spec
    try:
        res = dominance(spec, args.n, start_bits=args.precision)
    except UsageError as exc:  # n outside the bound's range (argparse has checked --precision)
        raise argparse.ArgumentError(None, f"argument --n: {exc}") from None
    except CertificateRefused as exc:  # no error bound for this spec
        raise argparse.ArgumentError(None, f"argument --spec: {exc}") from None
    payload = {
        "spec": name,
        "n": args.n,
        "main_lo": res.main.str_lo(25),
        "main_hi": res.main.str_hi(25),
        "bound_hi": res.bound.str_hi(25),
        "verdict": res.verdict,
        "precision_bits": res.main.bits,
    }
    _write_json(out, payload)
    return {True: 0, False: 1, "unknown": 3}[res.verdict]  # "unknown": undecided at the cap


# -- xcheck ------------------------------------------------------------------

def _sample_tau(rng: random.Random, bits: int) -> ComplexHP:
    return ComplexHP.from_fractions(Fraction(rng.randint(-500, 500), 1000),
                                    Fraction(rng.randint(500, 2000), 1000), bits)


def _sample_sigma(rng: random.Random, bits: int) -> ComplexHP:
    return ComplexHP.from_fractions(Fraction(rng.randint(-300, 300), 1000),
                                    Fraction(rng.randint(-200, 200), 1000), bits)


def _sample_transform(rng: random.Random,
                      bits: int) -> tuple[GammaMatrix, ComplexHP, ComplexHP, ComplexHP]:
    """gamma = (a b; c d) with 1 <= c <= 20, then tau; also c tau + d and gamma tau."""
    c = rng.randint(1, 20)
    d = rng.choice([d for d in range(1, c + 1) if gcd(d, c) == 1])
    a = pow(d % c, -1, c) if c > 1 else 1
    gamma = GammaMatrix(a, (a * d - 1) // c, c, d)
    tau = _sample_tau(rng, bits)
    ctd = tau.scale(c) + ComplexHP.from_fractions(d, 0, bits)
    gt = (tau.scale(a) + ComplexHP.from_fractions(gamma.b, 0, bits)) / ctd
    return gamma, tau, ctd, gt


def _residual_eta(seed: int, bits: int) -> float:
    gamma, tau, ctd, gt = _sample_transform(random.Random(seed), bits)
    chi = e_pi_i_half_turns(gamma.chi_exponent(), bits)
    lhs = eta(gt)
    rhs = chi * csqrt_upper(ctd) * eta(tau)
    return float(relative_residual(lhs, rhs))


def _residual_theta(seed: int, bits: int) -> float:
    rng = random.Random(seed)
    gamma, tau, ctd, gt = _sample_transform(rng, bits)
    sig = _sample_sigma(rng, bits)
    chi3 = e_pi_i_half_turns(gamma.chi_exponent() * 3, bits)
    lhs = theta(sig / ctd, gt)
    w = (sig * sig).scale(gamma.c) / ctd  # quad = e^{pi i c sigma^2 / (c tau + d)}
    quad = e_two_pi_i(w.scale(Fraction(1, 2)))
    rhs = chi3 * csqrt_upper(ctd) * quad * theta(sig, tau)
    return float(relative_residual(lhs, rhs))


def _residual_quasi(seed: int, bits: int) -> float:
    rng = random.Random(seed)
    tau = _sample_tau(rng, bits)
    sig = _sample_sigma(rng, bits)
    aa, bb = rng.randint(-2, 2), rng.randint(-2, 2)
    lhs = theta(sig + tau.scale(aa) + ComplexHP.from_fractions(bb, 0, bits), tau)
    # (-1)^{A+B} e^{-pi i A^2 tau} e^{-2 pi i A sigma}
    head = e_two_pi_i(-(tau.scale(Fraction(aa * aa, 2)) + sig.scale(aa)))
    sgn = -1 if (aa + bb) % 2 else 1
    rhs = (head * theta(sig, tau)).scale(sgn)
    return float(relative_residual(lhs, rhs))


def _residual_psi(seed: int, bits: int) -> float:
    rng = random.Random(seed)
    tau = _sample_tau(rng, bits)
    sig = _sample_sigma(rng, bits)
    direct = psi(sig, tau)
    via = psi_by_theta(sig, tau)
    mirrored = psi(tau - sig, tau)
    return float(max(relative_residual(direct, via), relative_residual(direct, mirrored)))


def _residual_product(seed: int, bits: int) -> float:
    rng = random.Random(seed)
    name = rng.choice(["A", "B", "D", "c", "d"])
    spec = registered_spec(name)
    k = rng.randint(1, 15)
    hs = [h for h in range(k) if gcd(h, k) == 1] or [0]
    h = rng.choice(hs)
    z = ComplexHP.from_fractions(Fraction(rng.randint(300, 1500), 1000),
                                 Fraction(rng.randint(-800, 800), 1000), bits)
    res, _, _ = check_product_transform(spec, h, k, z)
    return float(res)


_XCHECK_KINDS: dict[str, Callable[[int, int], float]] = {
    "eta": _residual_eta,
    "theta": _residual_theta,
    "quasiperiodicity": _residual_quasi,
    "psi": _residual_psi,
    "product": _residual_product,
}


def _process_pool_executor() -> type:
    """``concurrent.futures.ProcessPoolExecutor``, imported on first use.

    Only ``xcheck --workers`` above 1 starts a pool, so no other run pays
    for importing it (``DEFERRED_IMPORTS`` in ``tests/test_imports.py``).
    """
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor


def _xcheck_worker(kind_seed_bits: tuple[str, int, int]) -> float:
    kind, seed, bits = kind_seed_bits
    with one_sample():
        return _XCHECK_KINDS[kind](seed, bits)


def cmd_xcheck(args, out: TextIO) -> int:
    jobs = [(args.identity, args.seed * 100_000 + i, args.precision)
            for i in range(args.samples)]
    t0 = time.perf_counter()
    workers = min(args.workers or len(jobs), len(jobs))
    if workers > 1:  # os.cpu_count() reads /sys on Linux; one worker never needs it
        workers = min(workers, os.cpu_count() or 1)
    if workers > 1:
        with _process_pool_executor()(max_workers=workers) as pool:
            residuals = list(pool.map(_xcheck_worker, jobs))
    else:
        residuals = [_xcheck_worker(job) for job in jobs]
    payload = {
        "identity": args.identity,
        "samples": args.samples,
        "max_residual": max(residuals),
        "precision_bits": args.precision,
        "seed": args.seed,
        "elapsed_s": round(time.perf_counter() - t0, 3),
    }
    _write_json(out, payload)
    return 0 if payload["max_residual"] < 1e-25 else 1


# ---------------------------------------------------------------------------

def _precision_bits(text: str) -> int:
    """An argparse type: bits that ``precision_schedule`` accepts, which names its range.

    Every failure is an ``ArgumentTypeError`` with its own message, so
    argparse never prints this function's name.
    """
    try:
        bits = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer value: {text!r}") from None
    try:
        return precision_schedule(bits)[0]
    except UsageError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _spec_name(name: str) -> tuple[str, ProductSpec]:
    """An argparse type: (name, spec) of a registered spec; an unknown name lists them."""
    try:
        return name, registered_spec(name)
    except KeyError as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None


def _spec_json(text: str) -> tuple[str, ProductSpec]:
    """An argparse type: ("inline", spec) of a JSON spec literal, or of the file after '@'."""
    try:
        if text.startswith("@"):
            with open(text[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        return "inline", ProductSpec.from_json(text)
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_at_least(low: int) -> Callable[[str], int]:
    """An argparse type: an int >= low ("invalid integer value" for other text)."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below {low}")
        return value
    return integer


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The qsign parser, built once per process (parse_args keeps no state on it)."""
    parser = argparse.ArgumentParser(
        prog="qsign",
        description="exact q-series expansion and certified sign-pattern verification",
    )
    parser.add_argument("--version", action="version", version=f"qsign {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {
        "--precision": dict(type=_precision_bits, default=DEFAULT_PRECISION,
                            help="working precision in bits (default %(default)s)"),
        "--seed": dict(type=int, default=20250810, help="RNG seed"),
        "--out": dict(default=None, help="output path (default stdout)"),
    }
    spec_name = dict(type=_spec_name, help="registered spec name")

    def add(name: str, summary: str, func, own: dict, *flags: str,
            spec_json: bool = False) -> None:
        p = sub.add_parser(name, help=summary)
        for flag, kw in own.items():
            p.add_argument(flag, **kw)
        if spec_json:  # the product is named exactly once, either way, into one dest
            one = p.add_mutually_exclusive_group(required=True)
            one.add_argument("--spec", **spec_name)
            one.add_argument("--spec-json", type=_spec_json, dest="spec", metavar="SPEC_JSON",
                             help='inline JSON [{"r":..,"m":..,"delta":..}, ...] or @file')
        for flag in flags:
            p.add_argument(flag, **shared[flag])
        p.set_defaults(func=func, parser=p)

    add("expand", "stream exact coefficients", cmd_expand,
        {"--trunc": dict(type=_int_at_least(0), required=True),
         "--format": dict(choices=("csv", "json", "table"), default="csv")},
        "--out", spec_json=True)
    add("certify", "build a sign-pattern certificate", cmd_certify,
        {"--target": dict(choices=sorted(TARGETS), help="one claim (default: every claim)")},
        "--precision", "--out")
    add("delta", "growth exponent table per residue class", cmd_delta,
        {"--format": dict(choices=("csv", "json"), default="csv")},
        "--out", spec_json=True)
    add("dominance", "main term vs error bound at one index", cmd_dominance,
        {"--spec": dict(spec_name, required=True), "--n": dict(type=int, required=True)},
        "--precision", "--out")
    add("xcheck", "randomized identity residual checks", cmd_xcheck,
        {"--identity": dict(required=True, choices=sorted(_XCHECK_KINDS)),
         "--samples": dict(type=_int_at_least(1), default=100),
         "--workers": dict(type=_int_at_least(1),
                           help="pool size (default: one per sample and per CPU)")},
        "--precision", "--seed", "--out")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _output(args) as out:  # opened before any work, so a bad --out costs none
            return args.func(args, out)
    except argparse.ArgumentError as exc:  # a value argparse cannot check on its own
        args.parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
