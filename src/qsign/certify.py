"""The sign claims, ``TARGETS``, and their certificates: exact checks plus dominance.

A certificate for one claim does exactly what a careful desk verification
would: expand the product exactly to a truncation past the asymptotic
threshold, check every claimed sign on the finite range, and attach an
eventual-dominance certificate showing the Bessel main term beats the
explicit error bound for every index of the residue class at and beyond the
threshold.  The finite range always reaches the threshold, so the two parts
overlap and the combined claim covers all indices.  A claim without a
threshold is finite-only: checked exactly, never certified.  A claim's
residue class is taken mod the k of its spec's main term.

Certificates serialize to JSON with a fixed field order and carry a sha256
content hash; rebuilding a certificate from the same parameters is
bit-identical.  Failures produce partial certificates marked invalid.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass

from . import __version__
from .analytic import (CertificateRefused, class_constant, error_bound,
                       eventual_dominance_certificate, main_term_data, precision_schedule)
from .qseries import ProductSpec, QSeries, expand_product, registered_spec, sign_exceptions

SCHEMA_VERSION = 1


class SignViolation(AssertionError):
    """An exact coefficient contradicts a claimed sign pattern."""


@dataclass(frozen=True)
class TargetSpec:
    """One claim: the sign of a spec's coefficients on a residue class mod the main term's k.

    The analytic layer is keyed by the spec; this record is the only place a
    claim's residue class and sign are written down.  The sign must be that
    of the class constant (``_check_target``).  An ``eventual`` claim's start
    is an observed cutoff.
    """

    key: str
    spec_name: str
    residue: int
    sign: int                  # +1 or -1
    start_index: int           # first index carrying the claim
    finite_last_index: int     # last exactly-checked index, also the truncation
    threshold_index: int | None = None  # dominance certified from here; None: finite-only
    eventual: bool = False     # scanned by richmond_szekeres_scan, else verify_known_theorems

    @property
    def modulus(self) -> int:
        """The modulus of the residue classes: the k of the spec's main term."""
        return main_term_data(registered_spec(self.spec_name)).k


#: every claim: key, spec, residue, sign, start, last checked index, dominance threshold
TARGETS: dict[str, TargetSpec] = {target.key: target for target in (
    # A = 1/R^5 and B = R^5: the paper proves A(5n) < 0 and B(5n) < 0 for n >= 1
    TargetSpec("A5n", "A", 0, -1, 5, 1000, 801),
    TargetSpec("A5n1", "A", 1, 1, 1, 1000, 801),
    TargetSpec("A5n2", "A", 2, 1, 2, 1000, 801),
    TargetSpec("A5n3", "A", 3, 1, 3, 1000, 801),
    TargetSpec("A5n4", "A", 4, -1, 4, 1000, 801),
    TargetSpec("B5n", "B", 0, -1, 5, 1000, 801),
    TargetSpec("B5n1", "B", 1, -1, 1, 1000, 801),
    TargetSpec("B5n2", "B", 2, 1, 2, 1000, 801),
    TargetSpec("B5n3", "B", 3, -1, 3, 1000, 801),
    TargetSpec("B5n4", "B", 4, 1, 4, 1000, 801),
    # D = R(q^5)/R^5(q): the paper proves D(5n+1) > 0 for n >= 0
    TargetSpec("D5n", "D", 0, -1, 5, 19501, 19001),
    TargetSpec("D5n1", "D", 1, 1, 1, 19501, 19001),
    TargetSpec("D5n2", "D", 2, 1, 2, 19501, 19001),
    TargetSpec("D5n3", "D", 3, 1, 3, 19501, 19001),
    TargetSpec("D5n4", "D", 4, -1, 4, 19501, 19001),
    # C = R^5(q)/R(q^5): Baruah and Sarma's pattern, no stated E(n)
    TargetSpec("C5n", "C", 0, -1, 5, 800),
    TargetSpec("C5n1", "C", 1, -1, 1, 800),
    TargetSpec("C5n2", "C", 2, 1, 2, 800),
    TargetSpec("C5n3", "C", 3, -1, 3, 800),
    TargetSpec("C5n4", "C", 4, 1, 4, 800),
    # c = 1/R and d = R: Richmond and Szekeres's eventual patterns
    TargetSpec("c5n", "c", 0, 1, 10, 2000, eventual=True),
    TargetSpec("c5n1", "c", 1, 1, 10, 2000, eventual=True),
    TargetSpec("c5n2", "c", 2, -1, 10, 2000, eventual=True),
    TargetSpec("c5n3", "c", 3, -1, 10, 2000, eventual=True),
    TargetSpec("c5n4", "c", 4, -1, 10, 2000, eventual=True),
    TargetSpec("d5n", "d", 0, 1, 24, 2000, eventual=True),
    TargetSpec("d5n1", "d", 1, -1, 24, 2000, eventual=True),
    TargetSpec("d5n2", "d", 2, 1, 24, 2000, eventual=True),
    TargetSpec("d5n3", "d", 3, -1, 24, 2000, eventual=True),
    TargetSpec("d5n4", "d", 4, -1, 24, 2000, eventual=True),
)}


#: the most specs ``cached_expansion`` keeps an expansion of
_CACHE_ENTRIES = 8
_EXPANSION_CACHE: OrderedDict[ProductSpec, QSeries] = OrderedDict()


def cached_expansion(spec: ProductSpec, trunc_order: int) -> QSeries:
    """An expansion of `spec` to at least `trunc_order`, memoized per spec content.

    The memo holds one series per spec, the longest expanded so far: a
    request it reaches is served by that series as it is, and a longer one
    expands and replaces it.  Callers pass their index range to the sign
    scans, so a longer series reads the same signs.  Two equal specs
    (``ProductSpec`` compares canonical factors) share their entry.  The
    memo keeps the _CACHE_ENTRIES most recently used specs.  Nothing here or
    in the sign scans reads a coefficient as an int, so a certificate
    converts none.
    """
    series = _EXPANSION_CACHE.get(spec)
    if series is None or series.trunc_order < trunc_order:
        series = _EXPANSION_CACHE[spec] = expand_product(spec, trunc_order)
    _EXPANSION_CACHE.move_to_end(spec)
    if len(_EXPANSION_CACHE) > _CACHE_ENTRIES:
        _EXPANSION_CACHE.popitem(last=False)
    return series


@dataclass(frozen=True)
class CertifyResult:
    certificate: dict
    exit_code: int             # 0 certified, 2 sign violation, 3 asymptotic part not certified

    @property
    def ok(self) -> bool:
        return self.exit_code == 0


def _finish(cert: dict) -> dict:
    body = json.dumps(cert, separators=(",", ":")).encode()  # with meta.hash still ""
    cert["meta"]["hash"] = hashlib.sha256(body).hexdigest()
    return cert


def _check_target(target: TargetSpec, spec: ProductSpec, bits: int) -> None:
    """Refuse a target with a gap before n0, no E(n0) or a sign M denies at `bits`."""
    n0 = target.threshold_index
    if n0 is not None:
        if target.finite_last_index < n0:
            raise ValueError(f"target {target.key}: finite range ends at "
                             f"{target.finite_last_index}, before the dominance threshold {n0}")
        error_bound(spec, n0, bits)
    const = class_constant(spec, target.residue, bits)
    if not (const.is_positive() if target.sign > 0 else const.is_negative()):
        raise ValueError(f"target {target.key}: residue {target.residue}, claimed sign "
                         f"{target.sign} is not the sign of the derived class constant "
                         f"Re S = {const!r}")


def certify(target_key: str, precision_bits: int = 192) -> CertifyResult:
    """Build the certificate for one registered target.

    A precision outside ``precision_schedule``'s range, a finite range that
    stops short of the threshold, a spec without an error bound and a
    claimed sign that is not the sign of the derived class constant (at the
    first scheduled precision) are refused before anything is expanded.
    Then exact signs on the finite range, then the eventual-dominance
    certificate at the threshold, retried along
    ``precision_schedule(precision_bits)`` while it is refused.  Exit code 2
    names the first violating index; 3 reports a finite-only target or a
    dominance still refused at the last precision.
    """
    try:
        target = TARGETS[target_key]
    except KeyError:
        known = ", ".join(sorted(TARGETS))
        raise KeyError(f"unknown target {target_key!r}; registered: {known}") from None
    schedule = precision_schedule(precision_bits)
    spec = registered_spec(target.spec_name)
    _check_target(target, spec, schedule[0])
    series = cached_expansion(spec, target.finite_last_index)
    exceptions = sign_exceptions(series, target.residue, target.modulus,
                                 target.start_index, target.finite_last_index, target.sign)

    cert: dict = {
        "schema_version": SCHEMA_VERSION,
        "target": target.key,
        "spec": {
            "name": target.spec_name,
            "factors": [{"r": r, "m": m, "delta": d} for r, m, d in spec.factors],
            "digest": hashlib.sha256(spec.to_json().encode()).hexdigest()[:16],
        },
        "finite": {
            "lo": target.start_index,
            "hi": target.finite_last_index,
            "trunc": target.finite_last_index,
            "all_ok": not exceptions,
            "exceptions": exceptions[:64],
        },
        "asymptotic": {"n0": target.threshold_index, **dict.fromkeys(
            ("precision_bits", "main_lo", "bound_hi", "monotone_ok"))},
        "meta": {"version": __version__, "hash": ""},
    }

    if exceptions:
        cert["meta"]["invalid"] = f"sign violation at index {exceptions[0]}"
        return CertifyResult(_finish(cert), exit_code=2)
    if target.threshold_index is None:
        cert["meta"]["invalid"] = "finite-only target: no dominance threshold, not certified"
        return CertifyResult(_finish(cert), exit_code=3)

    for bits in schedule:
        try:
            eventual = eventual_dominance_certificate(spec, target.residue,
                                                      target.threshold_index, bits)
            break
        except CertificateRefused as exc:
            refusal = exc
    else:
        cert["meta"]["invalid"] = f"dominance not certified at {bits} bits: {refusal}"
        return CertifyResult(_finish(cert), exit_code=3)

    # issuing the certificate is what certifies the monotone extension
    cert["asymptotic"].update({
        "precision_bits": eventual.precision_bits,
        "main_lo": eventual.wang_main_lo,
        "bound_hi": eventual.bound_hi,
        "monotone_ok": True,
    })
    return CertifyResult(_finish(cert), exit_code=0)


@dataclass(frozen=True)
class PatternScan:
    """Exact signs of one spec's claimed residue classes on [0, checked_hi]."""

    spec_name: str
    modulus: int
    checked_hi: int
    patterns: tuple[tuple[int, int, int], ...]  # (residue, start_index, sign)
    exceptions: tuple[int, ...]  # every index from 0 off its class's sign, ascending

    @property
    def cutoff(self) -> int:
        """The least index from which every claimed class has its sign."""
        return self.exceptions[-1] + 1 if self.exceptions else 0

    @property
    def violations(self) -> tuple[int, ...]:
        """The exceptions at or past their class's start index."""
        starts = {residue: start for residue, start, _ in self.patterns}
        return tuple(e for e in self.exceptions if e >= starts[e % self.modulus])

    @property
    def ok(self) -> bool:
        return not self.violations


def _scan(eventual: bool, trunc_order: int) -> dict[str, PatternScan]:
    """Scan the ``TARGETS`` rows with this ``eventual`` flag from index 0, one expansion per spec.

    A violated claim is a hard failure naming the first violating index.
    """
    claims: dict[str, list[TargetSpec]] = {}
    for t in TARGETS.values():
        if t.eventual == eventual:
            claims.setdefault(t.spec_name, []).append(t)
    out: dict[str, PatternScan] = {}
    for name, rows in claims.items():
        s = cached_expansion(registered_spec(name), trunc_order)
        bad = sorted(i for t in rows
                     for i in sign_exceptions(s, t.residue, t.modulus, 0, trunc_order, t.sign))
        scan = PatternScan(name, rows[0].modulus, trunc_order,
                           tuple((t.residue, t.start_index, t.sign) for t in rows), tuple(bad))
        if scan.violations:
            raise SignViolation(f"claimed pattern for {name} fails at index "
                                f"{scan.violations[0]} (checked to {trunc_order})")
        out[name] = scan
    return out


def verify_known_theorems(trunc_order: int = 800) -> dict[str, PatternScan]:
    """Exact check of every claim that holds from its first index: A, B, C and D."""
    return _scan(False, trunc_order)


def richmond_szekeres_scan(trunc_order: int = 2000) -> dict[str, PatternScan]:
    """Exact scan of the eventual patterns of 1/R and R (no explicit cutoff on record)."""
    return _scan(True, trunc_order)
