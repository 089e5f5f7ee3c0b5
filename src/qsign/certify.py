"""The sign patterns, ``PATTERNS``, their classes, ``TARGETS``, and the certificates.

A claim is one ``Pattern`` per product: a sign per residue class mod the k
of the spec's main term.  A certificate for one class (a ``TARGETS`` key,
"A5n1" for A's class 1 mod 5) does exactly what a careful desk verification
would: expand the product exactly to a truncation past the asymptotic
threshold, check every claimed sign on the finite range, and attach an
eventual-dominance certificate showing the Bessel main term beats the
explicit error bound for every index of the residue class at and beyond the
threshold.  The finite range always reaches the threshold, so the two parts
overlap and the combined claim covers all indices.  A pattern without a
threshold is finite-only: checked exactly, never certified.

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
from .analytic import (CertificateRefused, class_constant, error_constant,
                       eventual_dominance_certificate, main_term_data, precision_schedule)
from .enclosure import DEFAULT_PRECISION
from .qseries import ProductSpec, QSeries, expand_product, registered_spec, sign_exceptions

SCHEMA_VERSION = 1


class SignViolation(AssertionError):
    """An exact coefficient contradicts a claimed sign pattern."""


@dataclass(frozen=True)
class Pattern:
    """One product's claim: the sign signs[r] at every n >= start with n = r mod len(signs).

    The only place a claim is written; each sign must be that of its class
    constant (``_check_target``).  Past start 1 it is eventual, from a cutoff.
    """

    spec_name: str
    signs: tuple[int, ...]     # by residue, each +1 or -1
    finite_last_index: int     # last exactly-checked index, also the truncation
    threshold_index: int | None = None  # dominance certified from here; None: finite-only
    start: int = 1             # first claimed index

    def __post_init__(self):
        name, hi, n0 = self.spec_name, self.finite_last_index, self.threshold_index
        if not self.signs or set(self.signs) - {1, -1}:
            raise ValueError(f"pattern for {name}: signs {self.signs} are not +1 or -1")
        if not 1 <= self.start <= hi:
            raise ValueError(f"pattern for {name}: start {self.start} outside [1, {hi}]")
        if n0 is not None and hi < n0:
            raise ValueError(f"pattern for {name}: finite range ends at {hi}, "
                             f"before the dominance threshold {n0}")

    @property
    def eventual(self) -> bool:
        """Scanned by richmond_szekeres_scan, else by verify_known_theorems."""
        return self.start > 1

    @property
    def classes(self) -> tuple[TargetSpec, ...]:
        k = len(self.signs)  # a class's first index: at least start, and never 0
        return tuple(TargetSpec(self, r, sign, k, max(self.start, r or k), self.finite_last_index)
                     for r, sign in enumerate(self.signs))


@dataclass(frozen=True)
class TargetSpec:
    """One residue class of a pattern, the claim ``certify`` certifies; built, never typed."""

    pattern: Pattern
    residue: int
    sign: int
    modulus: int
    start_index: int
    finite_last_index: int


#: every claim: spec, signs by residue, last checked index, dominance threshold, start
PATTERNS = (
    # A = 1/R^5 and B = R^5: the paper proves A(5n) < 0 and B(5n) < 0 for n >= 1
    Pattern("A", (-1, 1, 1, 1, -1), 1000, 801),
    Pattern("B", (-1, -1, 1, -1, 1), 1000, 801),
    # D = R(q^5)/R^5(q): the paper proves D(5n+1) > 0 for n >= 0
    Pattern("D", (-1, 1, 1, 1, -1), 19501, 19001),
    # C = R^5(q)/R(q^5): Baruah and Sarma's pattern, no stated E(n)
    Pattern("C", (-1, -1, 1, -1, 1), 800),
    # c = 1/R and d = R: Richmond and Szekeres's eventual patterns
    Pattern("c", (1, 1, -1, -1, -1), 2000, start=10),
    Pattern("d", (1, -1, 1, -1, -1), 2000, start=24),
)
#: the classes of every pattern, keyed "A5n", "A5n1", ..., "A5n4", "B5n", ...
TARGETS: dict[str, TargetSpec] = {f"{p.spec_name}{t.modulus}n{t.residue or ''}": t
                                  for p in PATTERNS for t in p.classes}


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


def _check_target(key: str, target: TargetSpec, spec: ProductSpec, bits: int) -> None:
    """Refuse a target off its main term's k, without ``error_constant`` or with a sign M denies."""
    if target.modulus != (k := main_term_data(spec).k):
        raise ValueError(f"target {key}: a pattern of {target.modulus} classes on "
                         f"{target.pattern.spec_name}, whose main term has k = {k}")
    if target.pattern.threshold_index is not None:
        error_constant(spec)
    const = class_constant(spec, target.residue, bits)
    if not (const.is_positive() if target.sign > 0 else const.is_negative()):
        raise ValueError(f"target {key}: residue {target.residue}, claimed sign "
                         f"{target.sign} is not the sign of the derived class constant "
                         f"Re S = {const!r}")


def certify(target_key: str, precision_bits: int = DEFAULT_PRECISION) -> CertifyResult:
    """Build the certificate for one registered target.

    A precision outside ``precision_schedule``'s range, a pattern whose
    length is not the k of its spec's main term, a spec without an error
    bound and a claimed sign that is not the sign of the derived class
    constant (at the first scheduled precision) are refused before anything
    is expanded.  Then exact signs on the finite range, then the
    eventual-dominance certificate at the threshold, retried along
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
    spec = registered_spec(target.pattern.spec_name)
    _check_target(target_key, target, spec, schedule[0])
    series = cached_expansion(spec, target.finite_last_index)
    exceptions = sign_exceptions(series, target.residue, target.modulus,
                                 target.start_index, target.finite_last_index, target.sign)

    cert: dict = {
        "schema_version": SCHEMA_VERSION,
        "target": target_key,
        "spec": {
            "name": target.pattern.spec_name,
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
        "asymptotic": {"n0": target.pattern.threshold_index, **dict.fromkeys(
            ("precision_bits", "main_lo", "bound_hi", "monotone_ok"))},
        "meta": {"version": __version__, "hash": ""},
    }

    if exceptions:
        cert["meta"]["invalid"] = f"sign violation at index {exceptions[0]}"
        return CertifyResult(_finish(cert), exit_code=2)
    if target.pattern.threshold_index is None:
        cert["meta"]["invalid"] = "finite-only target: no dominance threshold, not certified"
        return CertifyResult(_finish(cert), exit_code=3)

    for bits in schedule:
        try:
            eventual = eventual_dominance_certificate(spec, target.residue,
                                                      target.pattern.threshold_index, bits)
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
    """Scan the patterns with this ``eventual`` flag from index 0, one expansion per spec.

    A violated claim is a hard failure naming the first violating index.
    """
    out: dict[str, PatternScan] = {}
    for p in [p for p in PATTERNS if p.eventual == eventual]:
        s = cached_expansion(registered_spec(p.spec_name), trunc_order)
        bad = sorted(i for t in p.classes
                     for i in sign_exceptions(s, t.residue, t.modulus, 0, trunc_order, t.sign))
        scan = PatternScan(p.spec_name, len(p.signs), trunc_order,
                           tuple((t.residue, t.start_index, t.sign) for t in p.classes), tuple(bad))
        if scan.violations:
            raise SignViolation(f"claimed pattern for {p.spec_name} fails at index "
                                f"{scan.violations[0]} (checked to {trunc_order})")
        out[p.spec_name] = scan
    return out


def verify_known_theorems(trunc_order: int = 800) -> dict[str, PatternScan]:
    """Exact check of every claim that holds from its first index: A, B, C and D."""
    return _scan(False, trunc_order)


def richmond_szekeres_scan(trunc_order: int = 2000) -> dict[str, PatternScan]:
    """Exact scan of the eventual patterns of 1/R and R (no explicit cutoff on record)."""
    return _scan(True, trunc_order)
