"""The benchmark's workloads: seeded inputs, one measured pass, output checks.

Every workload runs at 192-bit interval precision, passed explicitly, in
one single-threaded process (``certify`` starts one fresh interpreter per
pass, one at a time).  A pass is a fixed list of operations built from the
workload seed; the runner repeats passes until its time is up, so repeated
passes do identical work.  Outputs are checked outside the timed region and
every operation that fails a check counts as failed.

``README.md`` next to this file says why each workload is in the benchmark
and which end-to-end metric each layer should move.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from math import gcd
from pathlib import Path
from time import perf_counter

import mpmath

from qsign import certify as certify_mod
from qsign import circle, cli, modular, qseries
from qsign.enclosure import iv, precision

import draws
from reference import probe, rescale
from spans import Tracer

PRECISION_BITS = draws.PRECISION_BITS
RESIDUAL_LIMIT = 1e-25
QUAD_REL_TOL = 1e-6
CHILD_TIMEOUT_S = 170
#: probe runs around the one-to-three-second calls of certify and quadrature
LONG_OP_PROBE_REPS = 15


@dataclass
class PassResult:
    """What one pass did: timed segments, reference probes and the checks' verdicts.

    A pass is `ops` operations made of the timed segments in `op_times`
    (one segment per operation, except for ``certify`` whose one operation
    is five calls).  `probes[i]` is the reference loop run just before
    segment i; the last probe ran after the last segment.
    """

    op_times: list[float]
    probes: list[float]
    ops: int
    attempted: int
    failures: list[str] = field(default_factory=list)
    #: exact per-layer values read off the outputs (margins, residuals, ...)
    exact: dict = field(default_factory=dict)
    #: peak RSS of the process that ran the pass, when that is not this one
    child_rss_kb: int | None = None
    #: tracer digest of a traced pass that ran in a child process
    trace: dict | None = None

    #: reference-loop runs per probe (see reference.probe)
    probe_reps: int = 1

    def timed(self, fn, *args):
        """Call fn(*args) as one timed segment and probe the machine after it."""
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self.op_times.append(perf_counter() - t0)
            self.probes.append(probe(self.probe_reps))


def new_pass(ops: int, attempted: int, probe_reps: int = 1) -> PassResult:
    return PassResult([], [probe(probe_reps)], ops, attempted, probe_reps=probe_reps)


# ---------------------------------------------------------------------------
# certify: the calls of scripts/run_certification.py, cold, in a fresh process
# ---------------------------------------------------------------------------

TARGET_KEYS = ("A5n", "B5n", "D5n1")
DESK_TRUNC = 800
SCAN_TRUNC = 2000


def certify_child(trace: bool, spans_out: str | None) -> dict:
    """One cold certification pass; runs inside a fresh interpreter."""
    tracer = Tracer().install() if trace else None
    failures: list[str] = []
    res = new_pass(1, len(TARGET_KEYS) + 2, LONG_OP_PROBE_REPS)
    t0 = perf_counter()
    try:
        with precision(PRECISION_BITS):
            prec_seen = iv.prec
            results = {key: res.timed(certify_mod.certify, key, PRECISION_BITS)
                       for key in TARGET_KEYS}
            try:
                tables = res.timed(certify_mod.verify_known_theorems, DESK_TRUNC)
            except certify_mod.SignViolation as exc:
                tables = {}
                failures.append(f"verify_known_theorems: {exc}")
            scans = res.timed(certify_mod.richmond_szekeres_scan, SCAN_TRUNC)
    finally:
        if tracer is not None:
            tracer.uninstall()
    checked = sum(len(qseries.slice_indices(t.residue, t.modulus, t.start_index,
                                            t.finite_last_index))
                  for t in (certify_mod.TARGETS[k] for k in TARGET_KEYS))
    checked += sum(len(qseries.slice_indices(residue, t.modulus, start, t.checked_hi))
                   for t in tables.values() for residue, start, _ in t.patterns)
    checked += sum(s.checked_hi + 1 for s in scans.values())
    if tracer is not None and spans_out:
        tracer.write_jsonl(spans_out, origin=t0)
    return {
        "op_times": res.op_times,
        "probes": res.probes,
        "precision_bits": prec_seen,
        "certificates": {k: r.certificate for k, r in results.items()},
        "exit_codes": {k: r.exit_code for k, r in results.items()},
        "ok": {k: r.ok for k, r in results.items()},
        "tables_ok": bool(tables) and all(t.ok for t in tables.values()),
        "scan_exceptions": {n: list(s.exceptions) for n, s in scans.items()},
        "indices_checked": checked,
        "failures": failures,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.summary() if tracer is not None else None,
    }


def certificate_hash_ok(cert: dict) -> bool:
    """Re-derive meta.hash: sha256 of the compact JSON body with an empty hash."""
    body = json.loads(json.dumps(cert))
    claimed = body["meta"]["hash"]
    body["meta"]["hash"] = ""
    digest = hashlib.sha256(json.dumps(body, separators=(",", ":")).encode()).hexdigest()
    return digest == claimed


def margin_log2(cert: dict) -> float:
    """log2(main_lo / bound_hi) from the certificate's decimal strings."""
    with mpmath.workdps(60):
        lo = mpmath.mpf(cert["asymptotic"]["main_lo"])
        hi = mpmath.mpf(cert["asymptotic"]["bound_hi"])
        return float(mpmath.log(lo / hi, 2))


class Certify:
    name = "certify"
    predicted_largest = "qseries"

    def __init__(self, runner: Path):
        self.runner = runner

    def generate(self, seed: int, tiny: bool = False) -> dict:
        # the certification calls take no input; the seed is unused
        return {"targets": list(TARGET_KEYS), "desk_trunc": DESK_TRUNC, "scan_trunc": SCAN_TRUNC}

    def prepare(self, inputs: dict):
        return None

    def ops_per_pass(self, inputs: dict) -> int:
        return 1  # the whole cold pass is the operation

    def run_pass(self, state, traced: bool, spans_out: str | None) -> PassResult:
        cmd = [sys.executable, str(self.runner), "--child", "certify",
               "--trace", "1" if traced else "0"]
        if traced and spans_out:
            cmd += ["--spans-out", spans_out]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        attempted = len(TARGET_KEYS) + 2
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return PassResult([], [], 1, attempted,
                              [f"certify child exited {proc.returncode}: {tail[0]}"] * attempted)
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        failures = list(out["failures"])
        exact = {"precision_bits": out["precision_bits"], "indices_checked": out["indices_checked"]}
        for key in TARGET_KEYS:
            cert = out["certificates"][key]
            if not (out["ok"][key] and out["exit_codes"][key] == 0 and cert["finite"]["all_ok"]):
                failures.append(f"{key}: not certified (exit {out['exit_codes'][key]})")
                continue
            if not certificate_hash_ok(cert):
                failures.append(f"{key}: meta.hash does not re-derive from the body")
                continue
            exact[f"precision_bits.{key}"] = cert["asymptotic"]["precision_bits"]
            exact[f"margin_log2.{key}"] = margin_log2(cert)
        if not out["tables_ok"] and not out["failures"]:
            failures.append("verify_known_theorems: a documented pattern failed")
        late = {n: [e for e in ex if e >= 100] for n, ex in out["scan_exceptions"].items()}
        if any(late.values()):
            failures.append(f"richmond_szekeres_scan: exceptions at or past 100: {late}")
        return PassResult(out["op_times"], out["probes"], 1, attempted, failures, exact,
                          child_rss_kb=out["rss_kb"], trace=out["trace"])


# ---------------------------------------------------------------------------
# identities: qsign xcheck samples, one CLI call each
# ---------------------------------------------------------------------------

#: per identity, the predicted Pochhammer factor counts the sample set is
#: built from (see draws.py); each sample lands within 5% of its target.
#: Near |q| = 1 the products need thousands of factors; at Im tau >= 0.5
#: they need tens, and fixed per-call costs weigh as much as the products.
NEAR_TARGETS = {"eta": (1000, 4000), "theta": (2000, 8000), "product": (1000, 4000)}
SMALL_TARGETS = {"psi": (95, 110, 130, 160, 200, 260),
                 "quasiperiodicity": (70, 80, 100, 130, 170, 220)}
TINY_TARGETS = {"eta": (300,), "theta": (600,), "product": (400,),
                "psi": (110,), "quasiperiodicity": (90,)}
TARGET_SLACK = 0.05


def pick_samples(seed: int, targets: dict[str, tuple[float, ...]],
                 repeats: int) -> list[tuple[str, int]]:
    """CLI seeds whose predicted cost sits within TARGET_SLACK of each target."""
    out: list[tuple[str, int]] = []
    for identity, costs in targets.items():
        rng = random.Random(f"{seed}:{identity}")
        for cost in costs:
            for _ in range(repeats):
                for _attempt in range(200_000):
                    cli_seed = rng.randrange(1, 2 ** 31)
                    pred = draws.predicted_factors(identity, cli_seed)
                    if abs(pred / cost - 1) <= TARGET_SLACK and (identity, cli_seed) not in out:
                        out.append((identity, cli_seed))
                        break
                else:
                    raise RuntimeError(f"no {identity} sample near {cost} factors")
    return out


class Identities:
    predicted_largest = "circle.pochhammer_product"

    def __init__(self, name: str, targets: dict, repeats: int):
        self.name = name
        self.targets = targets
        self.repeats = repeats

    def generate(self, seed: int, tiny: bool = False) -> dict:
        if tiny:
            targets = {k: TINY_TARGETS[k] for k in self.targets}
            return {"samples": pick_samples(seed, targets, 1)}
        return {"samples": pick_samples(seed, self.targets, self.repeats)}

    def prepare(self, inputs: dict):
        return [tuple(s) for s in inputs["samples"]]

    def ops_per_pass(self, inputs: dict) -> int:
        return len(inputs["samples"])

    def run_pass(self, samples, traced: bool, spans_out: str | None) -> PassResult:
        res = new_pass(len(samples), len(samples))
        worst: dict[str, float] = {}
        refused = 0
        for identity, cli_seed in samples:
            argv = ["xcheck", "--identity", identity, "--samples", "1",
                    "--seed", str(cli_seed), "--workers", "1",
                    "--precision", str(PRECISION_BITS)]
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = res.timed(cli.main, argv)
            except circle.ConvergenceRefused as exc:
                refused += 1
                res.failures.append(f"{identity} seed {cli_seed}: refused: {exc}")
                continue
            payload = json.loads(buf.getvalue())
            residual = payload["max_residual"]
            res.exact["precision_bits"] = payload["precision_bits"]
            worst[identity] = max(worst.get(identity, 0.0), residual)
            if code != 0 or not residual < RESIDUAL_LIMIT:
                res.failures.append(f"{identity} seed {cli_seed}: residual {residual:.3e}")
        per_identity: dict[str, list[float]] = {}
        for i, ((identity, _), t) in enumerate(zip(samples, res.op_times)):
            per_identity.setdefault(identity, []).append(rescale([t], res.probes[i:i + 2]))
        res.exact.update(refused=refused, worst_residual=worst, identity_s=per_identity)
        return res


# ---------------------------------------------------------------------------
# explore: try new inline products, as `qsign expand/delta --spec-json` would
# ---------------------------------------------------------------------------

EXPLORE_LEVELS = (5, 10, 25)
EXPLORE_FACTORS = 3
REFERENCE_PREFIX = 150


def random_spec(rng: random.Random, level: int) -> list[tuple[int, int, int]]:
    """Factors (r, m, delta) of level `level`, |delta| <= 2, one with m = level."""
    moduli = [level] + [rng.choice((5, level)) for _ in range(EXPLORE_FACTORS - 1)]
    return [(rng.randint(1, m - 1), m, rng.choice((-2, -1, 1, 2))) for m in moduli]


def farey_set(order: int) -> list[tuple[int, int]]:
    """Every reduced h/k in [0, 1) with k <= order, ordered by (k, h)."""
    return [(h, k) for k in range(1, order + 1) for h in range(k) if gcd(h, k) == 1]


class Explore:
    name = "explore"
    predicted_largest = "modular"

    def generate(self, seed: int, tiny: bool = False) -> dict:
        rng = random.Random(f"{seed}:explore")
        per_level = 1 if tiny else 4
        specs = [random_spec(rng, level) for level in EXPLORE_LEVELS for _ in range(per_level)]
        return {"specs": specs, "trunc": 300 if tiny else 1000, "farey_order": 6 if tiny else 20}

    def prepare(self, inputs: dict):
        specs = [qseries.ProductSpec(tuple(tuple(f) for f in s)) for s in inputs["specs"]]
        return specs, inputs["trunc"], farey_set(inputs["farey_order"])

    def ops_per_pass(self, inputs: dict) -> int:
        return len(inputs["specs"])

    def run_pass(self, state, traced: bool, spans_out: str | None) -> PassResult:
        specs, trunc, fractions = state
        res = new_pass(len(specs), len(specs))

        def job(spec):
            with precision(PRECISION_BITS):
                series = qseries.expand_product(spec, trunc)
                signs = [qseries.slice_signs(series, r, 5, 0, trunc) for r in range(5)]
                sign_table = [(s.count(1), s.count(-1), s.count(0)) for s in signs]
                rows = list(modular.delta_table_rows("inline", spec))
                lpos = modular.lpos_set(spec)
                tds = [modular.transform_data(spec, h, k) for h, k in fractions]
                res.exact["precision_bits"] = iv.prec
            return series, sign_table, rows, lpos, tds

        for spec in specs:
            problem = self._check(spec, *res.timed(job, spec), fractions)
            if problem:
                res.failures.append(f"{spec.to_json()}: {problem}")
        return res

    @staticmethod
    def _check(spec, series, sign_table, rows, lpos, tds, fractions) -> str | None:
        ref = qseries.expand_product_reference(spec, REFERENCE_PREFIX)
        if series.coeffs[:REFERENCE_PREFIX + 1] != ref.coeffs:
            return "expansion disagrees with expand_product_reference"
        if sum(map(sum, sign_table)) != series.trunc_order + 1:
            return "sign table does not cover every index"
        if {(r["aleph"], r["l"]) for r in rows if r["in_Lpos"]} != lpos:
            return "delta table and lpos_set disagree"
        if any((r["delta_num"] > 0) != r["in_Lpos"] for r in rows):
            return "Lpos membership does not match the sign of Delta"
        if [(td.h, td.k) for td in tds] != fractions:
            return "transform data out of order"
        return None


# ---------------------------------------------------------------------------
# quadrature: diagnostic coefficient recovery on the plain-mpmath path
# ---------------------------------------------------------------------------

QUAD_SPEC = "A"
QUAD_ORDER = 2
QUAD_DPS = 30
QUAD_TOL = 1e-9
#: Romberg depth, and so cost, is set by the largest index; each stratum
#: keeps the depth of its pick fixed across seeds
QUAD_STRATA = ((1, 2, 3), (4, 5))
QUAD_TINY_STRATA = ((1,), (2, 3))


class Quadrature:
    name = "quadrature"
    predicted_largest = "circle.numeric_coefficients"

    def generate(self, seed: int, tiny: bool = False) -> dict:
        rng = random.Random(f"{seed}:quadrature")
        ns = [rng.choice(s) for s in (QUAD_TINY_STRATA if tiny else QUAD_STRATA)]
        return {"spec": QUAD_SPEC, "order": QUAD_ORDER, "dps": QUAD_DPS,
                "tol": QUAD_TOL, "ns": ns}

    def prepare(self, inputs: dict):
        spec = qseries.registered_spec(inputs["spec"])
        exact = qseries.expand_product(spec, max(inputs["ns"]))
        return spec, inputs, exact

    def ops_per_pass(self, inputs: dict) -> int:
        return 1

    def run_pass(self, state, traced: bool, spans_out: str | None) -> PassResult:
        spec, inputs, exact = state
        ns = inputs["ns"]
        res = new_pass(1, len(ns), LONG_OP_PROBE_REPS)
        with precision(PRECISION_BITS):
            got = res.timed(circle.numeric_coefficients, spec, ns, inputs["order"],
                            inputs["dps"], inputs["tol"])
            prec_seen = iv.prec
        worst = 0.0
        for n in ns:
            ref = exact.coeff(n)
            rel = abs(float(got[n]) - ref) / max(1, abs(ref))
            worst = max(worst, rel)
            if not rel <= QUAD_REL_TOL:
                res.failures.append(f"n={n}: relative error {rel:.3e}")
        res.exact = {"quad_rel_err_max": worst, "precision_bits": prec_seen}
        return res


def make_workloads(runner: Path) -> dict:
    return {
        "certify": Certify(runner),
        "identities_nearq": Identities("identities_nearq", NEAR_TARGETS, 1),
        "identities_smallq": Identities("identities_smallq", SMALL_TARGETS, 2),
        "explore": Explore(),
        "quadrature": Quadrature(),
    }
