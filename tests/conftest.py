import os
from pathlib import Path

import pytest

from qsign.certify import cached_expansion
from qsign.qseries import registered_spec

# pytest puts src/ on sys.path (pyproject's ``pythonpath``); the CLI tests
# start child processes, which get it through PYTHONPATH
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def series_800():
    """Exact expansions of all six registered products to order 800."""
    return {name: cached_expansion(registered_spec(name), 800) for name in "ABCDcd"}


@pytest.fixture(scope="session")
def series_a_1000():
    return cached_expansion(registered_spec("A"), 1000)


@pytest.fixture(scope="session")
def series_b_1000():
    return cached_expansion(registered_spec("B"), 1000)


@pytest.fixture(scope="session")
def series_d_19501():
    return cached_expansion(registered_spec("D"), 19501)


@pytest.fixture
def evaluation_counts(monkeypatch):
    """Calls into the evaluators behind ``circle.one_sample``'s memo, counted by name."""
    from qsign import circle

    calls = {"_pochhammer_product": 0, "e_two_pi_i": 0}
    for name in calls:
        def counted(*args, _real=getattr(circle, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(circle, name, counted)
    return calls
