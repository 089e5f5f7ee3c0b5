"""Tests of the benchmark itself.

    python3 -m pytest -q bench/

They run every workload at a tiny size through the real command line, check
the printed metric names against BENCHMARK.json, check that inputs and
exact counts repeat for a seed and change with it, and check the cost
prediction used to pick identity samples against the CLI it predicts.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(ROOT / "src"))

import draws  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_UNITS = {"count", "bits", "log2", "log10"}


def bench(*args: str, cwd: Path = ROOT, env=None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


_RUNS: dict = {}


def tiny_run(workload: str, trace: int, seed: int = 7, again: bool = False) -> dict:
    key = (workload, trace, seed, again)
    if key not in _RUNS:
        proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "0.1",
                     "--trace", str(trace), "--tiny")
        assert proc.returncode == 0, proc.stderr
        _RUNS[key] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _RUNS[key]


def test_benchmark_json_matches_the_code():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


def test_readme_records_why_and_layer_map():
    readme = (HERE / "README.md").read_text()
    for w in SPEC["workloads"]:
        assert f"`{w['name']}`" in readme
    for m in SPEC["per_layer"]:
        assert f"`{m['name']}`" in readme, m["name"]


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_run_prints_every_metric(workload, trace):
    out = tiny_run(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    if not trace:
        assert all(v["value"] > 0 for v in out["metrics"].values())
    else:
        assert out["metrics"]["trace.largest_as_predicted"]["value"] == 1


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_exact_counts_repeat_for_a_seed(workload):
    first, second = tiny_run(workload, 1), tiny_run(workload, 1, again=True)
    exact = [m["name"] for m in SPEC["per_layer"] if m["unit"] in EXACT_UNITS]
    assert {n: first["metrics"][n] for n in exact} == {n: second["metrics"][n] for n in exact}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_inputs_repeat_for_a_seed_and_change_with_it(workload):
    wl = workloads.make_workloads(HERE / "run.py")[workload]
    assert wl.generate(3) == wl.generate(3)
    seen = {json.dumps(wl.generate(s)) for s in range(1, 6)}
    if workload == "certify":
        assert len(seen) == 1
    else:
        assert len(seen) > 1
        if workload != "quadrature":  # twelve index sets only; two seeds may share one
            assert wl.generate(1) != wl.generate(2)


def test_identity_samples_land_on_their_targets():
    samples = workloads.pick_samples(4, workloads.NEAR_TARGETS, 1)
    costs = [draws.predicted_factors(i, s) for i, s in samples]
    targets = [t for ts in workloads.NEAR_TARGETS.values() for t in ts]
    assert all(abs(c / t - 1) <= workloads.TARGET_SLACK for c, t in zip(costs, targets))


@pytest.mark.parametrize("identity", sorted(draws.COST))
def test_cost_prediction_replays_the_cli_draws(identity, monkeypatch):
    """The replayed estimate equals the same estimate taken from the real arguments."""
    from qsign import circle, cli

    seen = []

    def counting(z0, q, max_factors):
        im_t = -math.log(float(q.abs_enclosure().mid)) / (2 * math.pi)
        im_s = -math.log(float(z0.abs_enclosure().mid)) / (2 * math.pi)
        seen.append(draws.factors(im_s, im_t))
        return circle.ComplexHP.one()

    monkeypatch.setattr(circle, "pochhammer_product", counting)
    for cli_seed in range(1, 30):
        seen.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["xcheck", "--identity", identity, "--samples", "1",
                      "--seed", str(cli_seed), "--workers", "1", "--precision", "192"])
        assert draws.predicted_factors(identity, cli_seed) == pytest.approx(sum(seen), rel=1e-9)


def test_rescale_uses_the_probes_on_either_side():
    # twice the nominal loop time before and after: the machine ran at half speed
    slow = 2 * reference.NOMINAL_S
    assert reference.rescale([4.0], [slow, slow]) == pytest.approx(2.0)
    assert reference.rescale([1.0, 1.0], [slow, reference.NOMINAL_S, slow]) == pytest.approx(
        2 * 2 / 3)
    assert reference.probe(3) > 0


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1],
                    ["d", 5.0, 6.0, 0]]
    assert tracer.self_times() == pytest.approx({"a": 6.0, "b": 2.0, "c": 1.0, "d": 1.0})


def test_tracer_restores_the_program():
    from qsign import certify, qseries

    original = qseries.expand_product
    with Tracer().install():
        assert qseries.expand_product is not original
        assert certify.expand_product is qseries.expand_product
        qseries.expand_product(qseries.registered_spec("c"), 20)
    assert qseries.expand_product is original and certify.expand_product is original


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_refuses_when_precision_is_overridden():
    proc = bench("--workload", "explore", "--seed", "1", "--seconds", "1", "--trace", "0",
                 env=dict(os.environ, QSIGN_PRECISION="256"))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
