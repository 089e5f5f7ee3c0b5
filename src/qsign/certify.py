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
from dataclasses import dataclass

from . import __version__
from .analytic import (CertificateRefused, EventualDominanceCertificate, FamilyModel,
                       class_constant, eventual_dominance_certificate, family)
from .enclosure import precision
from .qseries import QSeries, expand_product, registered_spec, sign_exceptions

SCHEMA_VERSION = 1


class SignViolation(AssertionError):
    """An exact coefficient contradicts a claimed sign pattern."""


@dataclass(frozen=True)
class TargetSpec:
    """One conjectured pattern: sign of spec coefficients on a residue class."""

    key: str
    spec_name: str
    residue: int
    modulus: int
    sign: int                  # +1 or -1
    start_index: int           # first index carrying the claim
    finite_last_index: int     # last exactly-checked index
    trunc_order: int
    family_name: str
    threshold_index: int       # certified dominance for class indices >= this
    statement: str


TARGETS: dict[str, TargetSpec] = {
    "A5n": TargetSpec(
        key="A5n", spec_name="A", residue=0, modulus=5, sign=-1,
        start_index=5, finite_last_index=1000, trunc_order=1000,
        family_name="A", threshold_index=801,
        statement="coefficients of 1/R^5 at indices 5n are negative for n >= 1",
    ),
    "B5n": TargetSpec(
        key="B5n", spec_name="B", residue=0, modulus=5, sign=-1,
        start_index=5, finite_last_index=1000, trunc_order=1000,
        family_name="B", threshold_index=801,
        statement="coefficients of R^5 at indices 5n are negative for n >= 1",
    ),
    "D5n1": TargetSpec(
        key="D5n1", spec_name="D", residue=1, modulus=5, sign=1,
        start_index=1, finite_last_index=19501, trunc_order=19501,
        family_name="D", threshold_index=19001,
        statement="coefficients of R(q^5)/R^5(q) at indices 5n+1 are positive for n >= 0",
    ),
}


_EXPANSION_CACHE: dict[tuple[str, int], QSeries] = {}


def cached_expansion(spec_name: str, trunc_order: int) -> QSeries:
    """Expansion memo shared by certification and verification.

    An exact (name, N) entry wins, then the prefix of the spec's shortest
    longer expansion; only a miss expands, and only a miss is stored.
    """
    key = (spec_name, trunc_order)
    if key not in _EXPANSION_CACHE:
        longer = [n for name, n in _EXPANSION_CACHE if name == spec_name and n > trunc_order]
        if longer:
            coeffs = _EXPANSION_CACHE[(spec_name, min(longer))].coeffs
            return QSeries(trunc_order, coeffs[:trunc_order + 1])
        _EXPANSION_CACHE[key] = expand_product(registered_spec(spec_name), trunc_order)
    return _EXPANSION_CACHE[key]


@dataclass(frozen=True)
class CertifyResult:
    certificate: dict
    ok: bool
    exit_code: int             # 0 certified, 2 sign violation, 3 dominance unknown
    eventual: EventualDominanceCertificate | None


def _canonical_json(cert: dict) -> str:
    return json.dumps(cert, separators=(",", ":"), sort_keys=False)


def _finish(cert: dict) -> dict:
    cert["meta"]["hash"] = hashlib.sha256(_canonical_json(cert).encode()).hexdigest()
    return cert


def _check_binding(target: TargetSpec, fam: FamilyModel) -> None:
    """Refuse a target that its family model, or its derived main term, does not describe."""
    if target.spec_name != fam.spec_name:
        raise ValueError(f"target {target.key}: spec {target.spec_name} is not "
                         f"family {fam.name}'s spec {fam.spec_name}")
    if target.modulus != 5:
        raise ValueError(f"target {target.key}: modulus {target.modulus}, "
                         f"family models cover residue classes mod 5")
    if target.residue % 5 != fam.residue:
        raise ValueError(f"target {target.key}: residue {target.residue} is not "
                         f"family {fam.name}'s class {fam.residue} (mod 5)")
    if fam.claimed_sign != target.sign:
        raise ValueError(f"target {target.key}: sign {target.sign} differs from "
                         f"family {fam.name}'s claimed sign {fam.claimed_sign}")
    if target.finite_last_index < target.threshold_index:
        raise ValueError(f"target {target.key}: finite range ends at "
                         f"{target.finite_last_index}, before the dominance "
                         f"threshold {target.threshold_index}")
    const = class_constant(fam, fam.residue)
    if not (const.is_positive() if target.sign > 0 else const.is_negative()):
        raise ValueError(f"target {target.key}: sign {target.sign} is not the sign of "
                         f"the derived class constant Re S = {const!r}")


def certify(target_key: str, precision_bits: int = 192,
            precision_cap: int = 1024) -> CertifyResult:
    """Build the certificate for one registered target.

    The target must match its family model (spec, modulus 5, residue class,
    claimed and derived sign) and its finite range must reach the threshold;
    otherwise it is refused before anything is expanded.  Then exact signs on
    the finite range, then the eventual-dominance certificate at the threshold
    (escalating precision on 'unknown' up to the cap).  Any exact sign
    violation fails loudly with the violating index; a dominance verdict
    stuck at 'unknown' at the precision cap is reported via exit code 3.
    """
    try:
        target = TARGETS[target_key]
    except KeyError:
        known = ", ".join(sorted(TARGETS))
        raise KeyError(f"unknown target {target_key!r}; registered: {known}") from None
    fam = family(target.family_name)
    _check_binding(target, fam)
    spec = registered_spec(target.spec_name)
    series = cached_expansion(target.spec_name, target.trunc_order)
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
            "trunc": target.trunc_order,
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
        return CertifyResult(_finish(cert), ok=False, exit_code=2, eventual=None)

    eventual = None
    bits = precision_bits
    last_refusal: str | None = None
    while bits <= precision_cap:
        try:
            with precision(bits):
                eventual = eventual_dominance_certificate(fam, target.threshold_index)
            break
        except CertificateRefused as exc:
            last_refusal = str(exc)
            if bits == precision_cap:
                break
            bits = min(2 * bits, precision_cap)
    if eventual is None:
        cert["meta"]["invalid"] = f"dominance not certified at {precision_cap} bits: {last_refusal}"
        return CertifyResult(_finish(cert), ok=False, exit_code=3, eventual=None)

    cert["asymptotic"].update({
        "precision_bits": eventual.precision_bits,
        "main_lo": eventual.wang_main_lo,
        "bound_hi": eventual.bound_hi,
        "monotone_ok": eventual.monotone_ok,
    })
    return CertifyResult(_finish(cert), ok=True, exit_code=0, eventual=eventual)


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
        series = cached_expansion(name, trunc_order)
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
        series = cached_expansion(name, trunc_order)
        bad = sorted(idx for residue, sign in pattern.items()
                     for idx in sign_exceptions(series, residue, 5, 0, trunc_order, sign))
        cutoff = (max(bad) + 1) if bad else 0
        out[name] = EventualPatternScan(name, trunc_order, cutoff, tuple(bad))
    return out
