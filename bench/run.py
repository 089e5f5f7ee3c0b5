#!/usr/bin/env python3
"""qsign benchmark: one workload, measured for a set time, outputs checked.

    python3 bench/run.py --workload certify --seed 1 --seconds 12 --trace 0

Run it from a checkout of the repository; it imports qsign from ``src/``
of that checkout and exits with code 2, printing no result, when there is
none.  Workloads and metrics are listed in ``BENCHMARK.json`` and explained
in ``bench/README.md``.

With ``--trace 0`` the last line of stdout is one JSON object carrying every
end-to-end metric; with ``--trace 1`` it carries every per-layer metric,
taken from a traced second half of the run (the first half runs untraced,
and the difference between the halves is the tracing overhead).  The line
before it is a JSON report: run metadata, the metrics under the names the
workloads were specified with, per-layer self times and where the spans
were written (``.bench_out/`` in the checkout).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from draws import PRECISION_BITS
from reference import NOMINAL_S, probe, rescale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
SETUP_PROBES = 9
SETUP_MODULES = ("qseries", "enclosure", "modular", "analytic", "circle", "certify", "cli")
WORKLOAD_NAMES = ("certify", "identities_nearq", "identities_smallq", "explore", "quadrature")

END_TO_END = (("setup_s", "s"), ("op_s", "s"), ("peak_rss_mb", "MB"))

#: (name, unit) of every per-layer metric, in BENCHMARK.json order.  A
#: layer that does not run on a workload reports 0 there.
PER_LAYER = (
    ("qseries.expand_product.calls", "count"),
    ("qseries.expand_product.self_frac", "ratio"),
    ("qseries.expand_product.coeffs", "count"),
    ("qseries.coeff_bits_max", "bits"),
    ("certify.certify.self_frac", "ratio"),
    ("certify.expansion_cache.hit_ratio", "ratio"),
    ("certify.indices_checked", "count"),
    ("analytic.eventual_dominance_certificate.calls", "count"),
    ("analytic.eventual_dominance_certificate.self_frac", "ratio"),
    ("analytic.precision_bits.A5n", "bits"),
    ("analytic.precision_bits.B5n", "bits"),
    ("analytic.precision_bits.D5n1", "bits"),
    ("analytic.margin_log2.A5n", "log2"),
    ("analytic.margin_log2.B5n", "log2"),
    ("analytic.margin_log2.D5n1", "log2"),
    ("modular.dedekind_sum.calls", "count"),
    ("modular.dedekind_sum.self_frac", "ratio"),
    ("modular.transform_data.calls", "count"),
    ("modular.transform_data.self_frac", "ratio"),
    ("modular.delta_table_rows.self_frac", "ratio"),
    ("modular.lpos_set.self_frac", "ratio"),
    ("circle.pochhammer_product.calls", "count"),
    ("circle.pochhammer_product.self_frac", "ratio"),
    ("circle.eta.self_frac", "ratio"),
    ("circle.theta.self_frac", "ratio"),
    ("circle.psi.self_frac", "ratio"),
    ("circle.check_product_transform.self_frac", "ratio"),
    ("circle.residual_log10_max.eta", "log10"),
    ("circle.residual_log10_max.theta", "log10"),
    ("circle.residual_log10_max.quasiperiodicity", "log10"),
    ("circle.residual_log10_max.psi", "log10"),
    ("circle.residual_log10_max.product", "log10"),
    ("circle.refused", "count"),
    ("circle.numeric_coefficients.calls", "count"),
    ("circle.numeric_coefficients.self_frac", "ratio"),
    ("circle.farey_arcs.count", "count"),
    ("circle.quad_rel_err_max", "ratio"),
    ("cli.main.self_frac", "ratio"),
    ("enclosure.precision_bits", "bits"),
    ("trace.overhead.op_s", "s"),
    ("trace.overhead.peak_rss_mb", "MB"),
    ("trace.spans", "count"),
    ("trace.largest_as_predicted", "count"),
)

#: the name op_s goes by in the report line of these workloads
OP_NAMES = {"certify": "certify_s", "explore": "explore_s", "quadrature": "quad_s"}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=12)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small inputs, for the benchmark's own tests")
    p.add_argument("--child", choices=("setup", "certify"), help=argparse.SUPPRESS)
    p.add_argument("--spans-out", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child is None and args.workload is None:
        p.error("--workload is required")
    return args


def fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# child processes: set-up timing and cold certification passes
# ---------------------------------------------------------------------------

def child_setup() -> dict:
    """Import every qsign module and build one interval constant at working precision.

    Reference probes run just before and after; their medians rescale the
    wall time like every other timing (see reference.py).  The probes load
    `fractions` first, so its import is not part of the measured time.
    """
    import importlib

    before = statistics.median(probe() for _ in range(SETUP_PROBES))
    t0 = perf_counter()
    for name in SETUP_MODULES:
        importlib.import_module("qsign." + name)
    from qsign.enclosure import Enclosure, precision

    with precision(PRECISION_BITS):
        Enclosure.pi().hi
    wall = perf_counter() - t0
    after = statistics.median(probe() for _ in range(SETUP_PROBES))
    return {"wall_s": wall, "setup_s": rescale([wall], [before, after])}


def run_child(kind: str) -> dict:
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child", kind],
                          capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{kind} child failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def measure(wl, state, seconds: float, traced: bool, spans_stem: str):
    """Passes until `seconds` are used up (at least one); returns them with a trace digest."""
    from spans import Tracer

    tracer = Tracer().install() if traced and wl.name != "certify" else None
    passes = []
    start = perf_counter()
    try:
        while not passes or perf_counter() - start < seconds:
            spans_out = str(OUT_DIR / f"{spans_stem}-pass{len(passes)}.jsonl") if traced else None
            passes.append(wl.run_pass(state, traced, spans_out))
    finally:
        if tracer is not None:
            tracer.uninstall()
    if not traced:
        return passes, None
    if tracer is not None:
        tracer.write_jsonl(OUT_DIR / f"{spans_stem}.jsonl", origin=start)
        return passes, tracer.summary()
    return passes, merge_digests([p.trace for p in passes if p.trace])


def merge_digests(digests: list[dict]) -> dict:
    out = {"self_s": {}, "counters": {}, "cache_misses": 0, "spans": 0}
    for d in digests:
        for key in ("self_s", "counters"):
            for name, v in d[key].items():
                if name == "qseries.coeff_bits_max":
                    out[key][name] = max(out[key].get(name, 0), v)
                else:
                    out[key][name] = out[key].get(name, 0) + v
        out["cache_misses"] += d["cache_misses"]
        out["spans"] += d["spans"]
    return out


def op_s(passes, raw: bool = False) -> float:
    """Median over passes of the mean time of one operation, rescaled unless `raw`."""
    return statistics.median((sum(p.op_times) if raw else rescale(p.op_times, p.probes)) / p.ops
                             for p in passes if p.op_times)


def peak_rss_mb(passes) -> float:
    import resource

    child = [p.child_rss_kb for p in passes if p.child_rss_kb]
    kb = max(child) if child else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024


def exact_values(passes) -> dict:
    """Exact outputs merged over passes: worst residuals and errors, counts as read."""
    out: dict = {"worst_residual": {}, "refused": 0, "identity_s": {}}
    for p in passes:
        for key, v in p.exact.items():
            if key == "worst_residual":
                for ident, r in v.items():
                    out[key][ident] = max(out[key].get(ident, 0.0), r)
            elif key == "refused":
                out[key] += v
            elif key == "identity_s":
                for ident, times in v.items():
                    out[key].setdefault(ident, []).append(statistics.fmean(times))
            elif key == "quad_rel_err_max":
                out[key] = max(out.get(key, 0.0), v)
            else:
                out[key] = v
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def largest(self_s: dict, total: float) -> dict:
    """Largest self time by function and by layer; 'bench' is time outside every span."""
    by_layer: dict[str, float] = {}
    for name, v in self_s.items():
        by_layer[layer_of(name)] = by_layer.get(layer_of(name), 0.0) + v
    by_layer["bench"] = total - sum(self_s.values())
    fn = max(self_s, key=self_s.get) if self_s else "bench"
    return {"function": fn, "layer": max(by_layer, key=by_layer.get),
            "layer_self_s": by_layer}


def per_layer_metrics(wl, traced_passes, digest, exact, overhead) -> tuple[dict, dict]:
    n = len(traced_passes)
    total = sum(sum(p.op_times) for p in traced_passes)  # raw: shares need no rescaling
    self_s = digest["self_s"]
    counters = digest["counters"]

    def frac(name):
        return self_s.get(name, 0.0) / total if total > 0 else 0.0

    def per_pass(key):
        v = counters.get(key, 0) / n
        return int(v) if float(v).is_integer() else v

    top = largest(self_s, total)
    predicted = wl.predicted_largest
    holds = top["layer" if "." not in predicted else "function"] == predicted
    cached = counters.get("certify.cached_expansion.calls", 0)
    values = {}
    for name, unit in PER_LAYER:
        if name.endswith(".self_frac"):
            v = frac(name[: -len(".self_frac")])
        elif name.endswith(".calls") or name in ("qseries.expand_product.coeffs",
                                                  "circle.farey_arcs.count"):
            v = per_pass(name)
        elif name == "qseries.coeff_bits_max":
            v = int(counters.get(name, 0))
        elif name == "certify.expansion_cache.hit_ratio":
            v = (cached - digest["cache_misses"]) / cached if cached else 0.0
        elif name == "certify.indices_checked":
            v = exact.get("indices_checked", 0)
        elif name.startswith("analytic.precision_bits.") or name.startswith("analytic.margin_log2."):
            v = exact.get(name.split(".", 1)[1], 0)
        elif name.startswith("circle.residual_log10_max."):
            r = exact["worst_residual"].get(name.rsplit(".", 1)[1])
            v = math.log10(r) if r else 0.0
        elif name == "circle.refused":
            v = exact["refused"]
        elif name == "circle.quad_rel_err_max":
            v = exact.get("quad_rel_err_max", 0.0)
        elif name == "enclosure.precision_bits":
            v = exact.get("precision_bits", 0)
        elif name == "trace.overhead.op_s":
            v = overhead["op_s"]
        elif name == "trace.overhead.peak_rss_mb":
            v = overhead["peak_rss_mb"]
        elif name == "trace.spans":
            v = digest["spans"] / n
        elif name == "trace.largest_as_predicted":
            v = int(holds)
        else:  # pragma: no cover - PER_LAYER and this table are edited together
            raise KeyError(name)
        values[name] = {"value": v, "unit": unit}
    coeff_self = self_s.get("qseries.expand_product", 0.0)
    report = {
        "traced_passes": n,
        "traced_op_s_total": total,
        "self_s_per_pass": {k: v / n for k, v in sorted(self_s.items())},
        "calls_per_pass": {k[: -len(".calls")]: v / n for k, v in sorted(counters.items())
                           if k.endswith(".calls")},
        "qseries.coeffs_per_s": (counters.get("qseries.expand_product.coeffs", 0) / coeff_self
                                 if coeff_self else 0.0),
        "largest": top,
        "predicted_largest": predicted,
        "prediction_holds": holds,
        "overhead": dict(overhead, setup_s=0.0,
                         note="set-up is timed before the tracer is installed"),
    }
    return values, report


# ---------------------------------------------------------------------------
# metadata
# ---------------------------------------------------------------------------

def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30).stdout.strip()
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"], env=env,
                                capture_output=True, text=True, timeout=30).stdout
    except (OSError, subprocess.TimeoutExpired):
        return {"sha": None, "dirty": None}
    return {"sha": sha or None, "dirty": bool(status.strip()) if sha else None}


def metadata(args, inputs: dict, wl) -> dict:
    import mpmath
    import numpy

    return {
        "git": git_state(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "precision_bits": PRECISION_BITS,
        "QSIGN_PRECISION": os.environ.get("QSIGN_PRECISION"),
        "ops_per_pass": wl.ops_per_pass(inputs),
        "inputs": inputs,
    }


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qsign" / "__init__.py").is_file():
        return fail(f"no qsign sources under {SRC}; run from a checkout of the repository")
    if "QSIGN_PRECISION" in os.environ:
        return fail("QSIGN_PRECISION is set; it changes the interval precision at import "
                    "and the benchmark runs at 192 bits only. Unset it.")
    sys.path.insert(1, str(SRC))

    if args.child == "setup":
        print(json.dumps(child_setup()))
        return 0
    if args.child == "certify":
        import workloads

        print(json.dumps(workloads.certify_child(args.trace == 1, args.spans_out)))
        return 0

    setup = [] if args.trace else [run_child("setup") for _ in range(SETUP_REPEATS)]

    import workloads

    wl = workloads.make_workloads(Path(__file__).resolve())[args.workload]
    inputs = wl.generate(args.seed, tiny=args.tiny)
    state = wl.prepare(inputs)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"spans-{args.workload}-seed{args.seed}"

    if args.trace:
        plain, _ = measure(wl, state, args.seconds / 2, False, stem)
        plain_rss = peak_rss_mb(plain)
        traced, digest = measure(wl, state, args.seconds / 2, True, stem)
        passes = plain + traced
    else:
        passes, digest = measure(wl, state, args.seconds, False, stem)

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    exact = exact_values(passes)
    report = {"workload": args.workload, "trace": args.trace,
              "meta": metadata(args, inputs, wl),
              "passes": len(passes),
              "pass_op_wall_s": [sum(p.op_times) / p.ops for p in passes if p.op_times],
              "attempted": attempted, "failed": len(failures),
              "failed_frac": len(failures) / attempted, "failures": failures[:10]}

    if args.trace:
        overhead = {"op_s": op_s(traced) - op_s(plain),
                    "peak_rss_mb": peak_rss_mb(traced) - plain_rss,
                    "untraced_op_s": op_s(plain), "traced_op_s": op_s(traced),
                    "untraced_op_wall_s": op_s(plain, raw=True),
                    "traced_op_wall_s": op_s(traced, raw=True)}
        metrics, report["layers"] = per_layer_metrics(wl, traced, digest, exact, overhead)
        report["spans_files"] = str(OUT_DIR.relative_to(ROOT) / f"{stem}*.jsonl")
    else:
        values = {"setup_s": statistics.median(s["setup_s"] for s in setup),
                  "op_s": op_s(passes), "peak_rss_mb": peak_rss_mb(passes)}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        named = {OP_NAMES[args.workload]: values["op_s"]} if args.workload in OP_NAMES else {}
        for ident, means in exact["identity_s"].items():
            named[f"xcheck_{ident}_s"] = statistics.median(means)
        report["metrics"] = dict(metrics, **{k: {"value": v, "unit": "s"} for k, v in named.items()},
                                 failed_frac={"value": report["failed_frac"], "unit": "ratio"})
        report["wall"] = {"setup_s": statistics.median(s["wall_s"] for s in setup),
                          "op_s": op_s(passes, raw=True), "reference_nominal_s": NOMINAL_S}
        report["setup_samples"] = setup
    report["worst_residual"] = exact["worst_residual"]
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
