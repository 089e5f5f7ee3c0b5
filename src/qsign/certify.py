"""Certificates combining exact finite sign checks with certified dominance.

A certificate for one sign-pattern target does exactly what a careful desk
verification would: expand the product exactly to a truncation past the
asymptotic threshold, check every claimed sign on the finite range, and
attach an eventual-dominance certificate showing the Bessel main term beats
the explicit error bound for every index of the residue class at and beyond
the threshold.  The finite range always reaches the threshold, so the two
parts overlap and the combined claim covers all indices.

Certificates serialize to JSON with a fixed field order and carry a sha256
content hash; rebuilding a certificate from the same parameters is
bit-identical.  Failures produce partial certificates marked invalid.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass
from typing import ClassVar

from . import __version__
from .analytic import (CertificateRefused, class_constant, error_bound,
                       eventual_dominance_certificate, main_term_data, precision_schedule)
from .enclosure import precision
from .qseries import ProductSpec, QSeries, expand_product, registered_spec, sign_exceptions

SCHEMA_VERSION = 1


class SignViolation(AssertionError):
    """An exact coefficient contradicts a claimed sign pattern."""


@dataclass(frozen=True)
class TargetSpec:
    """One claim: the sign of a spec's coefficients on a residue class mod 5.

    The analytic layer is keyed by the spec; this record is the only place a
    claim's residue class and sign are written down.  The modulus must be the
    k of the spec's main term (``_check_target``).
    """

    modulus: ClassVar[int] = 5
    key: str
    spec_name: str
    residue: int
    sign: int                  # +1 or -1
    start_index: int           # first index carrying the claim
    finite_last_index: int     # last exactly-checked index, also the truncation
    threshold_index: int       # certified dominance for class indices >= this
    statement: str


TARGETS: dict[str, TargetSpec] = {
    "A5n": TargetSpec(
        key="A5n", spec_name="A", residue=0, sign=-1,
        start_index=5, finite_last_index=1000, threshold_index=801,
        statement="coefficients of 1/R^5 at indices 5n are negative for n >= 1",
    ),
    "B5n": TargetSpec(
        key="B5n", spec_name="B", residue=0, sign=-1,
        start_index=5, finite_last_index=1000, threshold_index=801,
        statement="coefficients of R^5 at indices 5n are negative for n >= 1",
    ),
    "D5n1": TargetSpec(
        key="D5n1", spec_name="D", residue=1, sign=1,
        start_index=1, finite_last_index=19501, threshold_index=19001,
        statement="coefficients of R(q^5)/R^5(q) at indices 5n+1 are positive for n >= 0",
    ),
}


#: the most expansions ``cached_expansion`` keeps
_CACHE_ENTRIES = 8
_EXPANSION_CACHE: OrderedDict[tuple[ProductSpec, int], QSeries] = OrderedDict()


def cached_expansion(spec: ProductSpec, trunc_order: int) -> QSeries:
    """Expansion memo shared by certification and verification, keyed by spec content.

    An exact (spec, N) entry wins, then the prefix of the spec's shortest
    longer expansion; only a miss expands, and only a miss is stored, in
    place of the spec's shorter entries, which are its prefixes.  Two equal
    specs share their entries.  The memo keeps the _CACHE_ENTRIES most
    recently used entries.
    """
    key = (spec, trunc_order)
    if key not in _EXPANSION_CACHE:
        cached = [n for s, n in _EXPANSION_CACHE if s == spec]
        longer = [n for n in cached if n > trunc_order]
        if longer:
            key = (spec, min(longer))
            _EXPANSION_CACHE.move_to_end(key)
            return QSeries(trunc_order, _EXPANSION_CACHE[key].coeffs[:trunc_order + 1])
        for n in cached:
            del _EXPANSION_CACHE[(spec, n)]
        _EXPANSION_CACHE[key] = expand_product(spec, trunc_order)
        if len(_EXPANSION_CACHE) > _CACHE_ENTRIES:
            _EXPANSION_CACHE.popitem(last=False)
    _EXPANSION_CACHE.move_to_end(key)
    return _EXPANSION_CACHE[key]


@dataclass(frozen=True)
class CertifyResult:
    certificate: dict
    ok: bool
    exit_code: int             # 0 certified, 2 sign violation, 3 dominance unknown


def _canonical_json(cert: dict) -> str:
    return json.dumps(cert, separators=(",", ":"), sort_keys=False)


def _finish(cert: dict) -> dict:
    cert["meta"]["hash"] = hashlib.sha256(_canonical_json(cert).encode()).hexdigest()
    return cert


def _check_target(target: TargetSpec, spec: ProductSpec) -> None:
    """Refuse a target with a gap before n0, a modulus other than k, no E(n0) or a sign M denies."""
    if target.finite_last_index < target.threshold_index:
        raise ValueError(f"target {target.key}: finite range ends at "
                         f"{target.finite_last_index}, before the dominance "
                         f"threshold {target.threshold_index}")
    k = main_term_data(spec).k
    if target.modulus != k:
        raise ValueError(f"target {target.key}: classes mod {target.modulus}, but the "
                         f"main term of {target.spec_name} has k = {k}")
    error_bound(spec, target.threshold_index)
    const = class_constant(spec, target.residue)
    if not (const.is_positive() if target.sign > 0 else const.is_negative()):
        raise ValueError(f"target {target.key}: residue {target.residue}, claimed sign "
                         f"{target.sign} is not the sign of the derived class constant "
                         f"Re S = {const!r}")


def certify(target_key: str, precision_bits: int = 192) -> CertifyResult:
    """Build the certificate for one registered target.

    A precision outside ``precision_schedule``'s range, a finite range that
    stops short of the threshold, a modulus other than the main term's k, a
    spec without an error bound and a claimed sign that is not the sign of
    the derived class constant are refused before anything is expanded.
    Then exact signs on the finite range, then the eventual-dominance
    certificate at the threshold, retried along
    ``precision_schedule(precision_bits)`` while it is refused.  Any exact
    sign violation fails loudly with the violating index; a dominance still
    refused at the last precision is reported via exit code 3.
    """
    try:
        target = TARGETS[target_key]
    except KeyError:
        known = ", ".join(sorted(TARGETS))
        raise KeyError(f"unknown target {target_key!r}; registered: {known}") from None
    schedule = precision_schedule(precision_bits)
    spec = registered_spec(target.spec_name)
    _check_target(target, spec)
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
        "asymptotic": {
            "n0": target.threshold_index,
            "precision_bits": None,
            "main_lo": None,
            "bound_hi": None,
            "monotone_ok": None,
        },
        "meta": {"version": __version__, "hash": ""},
    }

    if exceptions:
        cert["meta"]["invalid"] = f"sign violation at index {exceptions[0]}"
        return CertifyResult(_finish(cert), ok=False, exit_code=2)

    for bits in schedule:
        try:
            with precision(bits):
                eventual = eventual_dominance_certificate(spec, target.residue,
                                                          target.threshold_index)
            break
        except CertificateRefused as exc:
            refusal = exc
    else:
        cert["meta"]["invalid"] = f"dominance not certified at {bits} bits: {refusal}"
        return CertifyResult(_finish(cert), ok=False, exit_code=3)

    # issuing the certificate is what certifies the monotone extension
    cert["asymptotic"].update({
        "precision_bits": eventual.precision_bits,
        "main_lo": eventual.wang_main_lo,
        "bound_hi": eventual.bound_hi,
        "monotone_ok": True,
    })
    return CertifyResult(_finish(cert), ok=True, exit_code=0)


# ---------------------------------------------------------------------------
# desk-scale verification of the documented sign patterns
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignTable:
    """Verdicts of one spec's residue patterns over an exactly checked range."""

    spec_name: str
    modulus: int
    checked_hi: int
    patterns: tuple[tuple[int, int, int], ...]  # (residue, start_index, sign)
    exceptions: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.exceptions


#: residue -> (first index carrying the claim, sign); the residue-0 rows are
#: stated as 5n+5, so they start at index 5.
KNOWN_PATTERNS: dict[str, tuple[tuple[int, int, int], ...]] = {
    "A": ((1, 1, 1), (2, 2, 1), (3, 3, 1), (4, 4, -1)),
    "B": ((1, 1, -1), (2, 2, 1), (3, 3, -1), (4, 4, 1)),
    "C": ((1, 1, -1), (2, 2, 1), (3, 3, -1), (4, 4, 1), (0, 5, -1)),
    "D": ((2, 2, 1), (3, 3, 1), (4, 4, -1), (0, 5, -1)),
}


def verify_known_theorems(trunc_order: int = 800) -> dict[str, SignTable]:
    """Exact check of every established residue pattern for A, B, C, D.

    Any violation is a hard failure naming the index; on success the sign
    tables are returned for reporting.
    """
    out: dict[str, SignTable] = {}
    for name, patterns in KNOWN_PATTERNS.items():
        series = cached_expansion(registered_spec(name), trunc_order)
        bad = [idx for residue, start, sign in patterns
               for idx in sign_exceptions(series, residue, 5, start, trunc_order, sign)]
        if bad:
            raise SignViolation(
                f"documented pattern for {name} fails at index {min(bad)} "
                f"(checked to {trunc_order})"
            )
        out[name] = SignTable(name, 5, trunc_order, patterns, tuple(bad))
    return out


#: eventual residue signs of 1/R and R
RICHMOND_SZEKERES_PATTERNS: dict[str, dict[int, int]] = {
    "c": {0: 1, 1: 1, 2: -1, 3: -1, 4: -1},
    "d": {0: 1, 1: -1, 2: 1, 3: -1, 4: -1},
}


@dataclass(frozen=True)
class EventualPatternScan:
    spec_name: str
    checked_hi: int
    cutoff: int                 # minimal index past which the pattern holds
    exceptions: tuple[int, ...]  # all violations, necessarily below cutoff


def richmond_szekeres_scan(trunc_order: int = 2000) -> dict[str, EventualPatternScan]:
    """Empirical cutoff scan for the eventual sign patterns of 1/R and R.

    The patterns hold only for sufficiently large index with no explicit
    constant on record, so this reports the minimal cutoff observed in the
    exact expansion together with every exception below it.
    """
    out: dict[str, EventualPatternScan] = {}
    for name, pattern in RICHMOND_SZEKERES_PATTERNS.items():
        series = cached_expansion(registered_spec(name), trunc_order)
        bad = sorted(idx for residue, sign in pattern.items()
                     for idx in sign_exceptions(series, residue, 5, 0, trunc_order, sign))
        cutoff = (max(bad) + 1) if bad else 0
        out[name] = EventualPatternScan(name, trunc_order, cutoff, tuple(bad))
    return out
