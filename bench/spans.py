"""In-memory spans around calls into qsign's public functions.

The tracer patches chosen module-level functions of the ``qsign`` package
with wrappers that record one span per call: name, start, end and the index
of the enclosing span.  Every qsign module that imported the function by
name is patched too, so calls between modules are seen as well as calls
from the benchmark.  Nothing inside the program changes; uninstalling puts
the original functions back.

Self time of a span is its duration minus the durations of its direct
children.  Spans stay in memory until ``write_jsonl`` is called at the end
of a run.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable

#: (module, function) pairs that get spans.  Cheap helpers called thousands
#: of times per operation (lambda_pair, class_representative, Enclosure
#: arithmetic) are left out on purpose: their cost lands in the self time of
#: the traced caller, and wrapping them would distort the run.
TRACED: tuple[tuple[str, str], ...] = (
    ("qseries", "expand_product"),
    ("qseries", "slice_signs"),
    ("certify", "certify"),
    ("certify", "cached_expansion"),
    ("certify", "verify_known_theorems"),
    ("certify", "richmond_szekeres_scan"),
    ("analytic", "eventual_dominance_certificate"),
    ("modular", "dedekind_sum"),
    ("modular", "transform_data"),
    ("modular", "delta_table_rows"),
    ("modular", "lpos_set"),
    ("circle", "pochhammer_product"),
    ("circle", "eta"),
    ("circle", "theta"),
    ("circle", "psi"),
    ("circle", "psi_by_theta"),
    ("circle", "check_product_transform"),
    ("circle", "numeric_coefficients"),
    ("circle", "farey_arcs"),
    ("cli", "main"),
)


def _note_expansion(counters: dict, result) -> None:
    counters["qseries.expand_product.coeffs"] += len(result.coeffs)
    bits = max(abs(c).bit_length() for c in result.coeffs)
    counters["qseries.coeff_bits_max"] = max(counters["qseries.coeff_bits_max"], bits)


def _note_arcs(counters: dict, result) -> None:
    counters["circle.farey_arcs.count"] += len(result)


#: exact counts taken from a traced call's return value, after its span ends
NOTES: dict[str, Callable[[dict, object], None]] = {
    "qseries.expand_product": _note_expansion,
    "circle.farey_arcs": _note_arcs,
}


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[list] = []      # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ----------------------------------------------------------

    def install(self) -> "Tracer":
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "qsign" or name.startswith("qsign.")}
        for mod_name, fn_name in TRACED:
            owner = modules["qsign." + mod_name]
            original = getattr(owner, fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self.spans[idx][1] = perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        note = NOTES.get(name)
        counters = self.counters

        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so the consumer's work between items
            # is never charged to the generator
            def gen_wrapper(*args, **kwargs):
                counters[name + ".calls"] += 1
                gen = fn(*args, **kwargs)
                while True:
                    idx = self._open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    yield item

            return gen_wrapper

        def wrapper(*args, **kwargs):
            counters[name + ".calls"] += 1
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if note is not None:
                note(counters, result)
            return result

        return wrapper

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        child_total = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_total[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child_total):
            out[name] += (end - start) - inner
        return dict(out)

    def cache_misses(self, cache: str, fill: str) -> int:
        """Spans named `cache` with a direct child named `fill`."""
        parents = {parent for name, _, _, parent in self.spans
                   if name == fill and parent >= 0}
        return sum(1 for i in parents if self.spans[i][0] == cache)

    def summary(self) -> dict:
        """JSON-ready digest: self times, counters, cache misses and span count."""
        return {
            "self_s": self.self_times(),
            "counters": dict(self.counters),
            "cache_misses": self.cache_misses("certify.cached_expansion",
                                              "qseries.expand_product"),
            "spans": len(self.spans),
        }

    def write_jsonl(self, path, origin: float = 0.0) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent}) + "\n")
