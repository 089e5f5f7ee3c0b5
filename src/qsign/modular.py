"""Exact modular-transformation bookkeeping for psi-product expansions.

All quantities here are exact rationals (``fractions.Fraction``) or integers:
Dedekind sums, the SL2(Z) matrices attached to a Farey fraction h/k and a
factor modulus m, the ceiling data (lambda, lambda*), the growth exponents
Omega and Delta, the root-of-unity phases omega, Upsilon and the finite
product Pi over factors with lambda* = 0.  A phase is kept as its exponent:
the ``Fraction`` t of e^{pi i t}, reduced mod 2.

The layer computes in integers.  The records ``FactorTransform`` and
``TransformData`` hold only integers, and each rational output is a
read-only property that builds one ``Fraction`` from an integer numerator
over a known denominator every time it is read; nothing is cached.  A
Dedekind sum is 6c s(d, c) over 6c, the per-factor fields come from d, m',
k', hbar, lambda and u = lambda d - r h (so lambda* = u/d), and the
exponents summed over the factors use the common denominator L k (L the
level), 6k or L.  Per factor,

    Upsilon:  delta [r h m - r d + 2 r u + hbar d m (lambda^2 - lambda)]/(m k),
    omega:    -delta s(m'h, k')  = -delta (6k' s(m'h, k')) d/(6k),
    Delta:    -delta (2 d^2 + 12 u (u - d))/m.

The definitional ``Fraction`` forms (the formulas in the docstrings) are the
test oracle, in ``tests/oracles.py``.

Each quantity has one function: ``omega_exact`` (Omega), ``delta_at``
(Delta at h/k), ``class_deltas`` (the one class scan, shared by
``lpos_set``, ``delta_table_rows`` and ``analytic.main_term_data``),
``class_representative`` (the smallest coprime h/k of a class (aleph, l),
which only ``main_term_data`` asks for, for its Lpos classes) and
``transform_data`` (matrices, omega, Upsilon, and Pi through
``TransformData.pi_factors``).  The level L is ``ProductSpec.level``,
computed once per spec, so none of them needs it passed in.

Delta by class.  For any h/k in the class (aleph, l), i.e. h = aleph
(mod l) and k = l (mod L), and any factor modulus m | L,

    d = gcd(m, k) = gcd(m, l),   u = (-r h) mod d = (-r aleph) mod d   (d | l),

so L Delta = -sum_j delta_j (L/m_j) (2 d^2 + 12 u (u - d)) is one integer
read off (aleph, l) alone.  ``delta_at`` and ``class_deltas`` share that
kernel, evaluated at (h, k) and at (aleph, l) respectively.  A class has a
coprime representative exactly when gcd(aleph, l, L) = 1: a common factor
of aleph, l and L divides every h and k of the class; conversely, with
G = gcd(l, L), take k = G P for a prime P > 2l with P = l/G (mod L/G)
(Dirichlet), so k = l (mod L), and h = aleph or aleph + l, whichever P does
not divide (h = l when aleph = 0, where G = 1): gcd(h, G) = gcd(aleph, G) =
1.  So the scan tests one gcd per class and searches for nothing.

Conventions.  For a factor psi(r, m) and a Farey fraction h/k write
d = gcd(m, k), m = d m', k = d k'.  The attached matrix is

    gamma = ( hbar  -b ; k'  -m'h ),   hbar m'h = -1 (mod k'),
    b = (hbar m'h + 1)/k',

with hbar the smallest nonnegative solution (hbar = 0 when k' = 1), the only
one computed here.  Any other choice shifts hbar by a multiple of k' and
leaves all derived phases unchanged; the tests check the phases against the
definitional formulas at shifted hbar.

With tau = (h + iz)/k the Moebius action gives the closed forms (as exact
linear expressions in w = i/z)

    gamma(m tau)          = hbar d / k + (d^2/(m k)) w,
    r tau gamma*(m tau) + lambda gamma(m tau)
                          = r d/(m k) + lambda hbar d / k + lambda* (d^2/(m k)) w.

Note the d^2: it comes from 1/(m'k') = d^2/(mk).  The tests recompute both
lines by generic symbolic Moebius evaluation (``gamma_action_coeffs`` in
``tests/oracles.py``) and require the two routes to agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import gcd
from typing import Iterator, NamedTuple

from .qseries import ProductSpec


class NotCoprimeError(ValueError):
    pass


def dedekind_sum(d: int, c: int) -> Fraction:
    """Dedekind sum s(d, c) = sum_{n mod c} ((dn/c)) ((n/c)), gcd(d, c) = 1.

    Computed by the reciprocity-accelerated Euclidean recursion

        s(d, c) = -1/4 + (d^2 + c^2 + 1)/(12dc) - s(c mod d, d),

    which agrees with the direct definitional sum (the test oracle
    ``dedekind_sum_direct``).  The sum is odd and c-periodic in d.
    """
    if c < 1:
        raise ValueError("modulus c must be positive")
    if c > 1 and gcd(d, c) != 1:
        raise NotCoprimeError(f"gcd({d}, {c}) != 1")
    return Fraction(_dedekind_6c(d, c), 6 * c)


def _dedekind_6c(d: int, c: int) -> int:
    """6c s(d, c), an integer for gcd(d, c) = 1 (unchecked here), by the recursion above."""
    c0 = c
    d %= c
    # s = num/den over the common denominator prod 12dc
    num, den, sign = 0, 1, 1
    while c > 1:
        t = 12 * d * c
        num = num * t + sign * (d * d + c * c + 1 - 3 * d * c) * den
        den *= t
        d, c = c % d, d
        sign = -sign
    out, rem = divmod(6 * c0 * num, den)
    if rem:
        raise ArithmeticError(f"6c s(d, c) is not an integer at c = {c0}")
    return out


# ---------------------------------------------------------------------------
# matrices and per-factor transformation data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaMatrix:
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("determinant must be 1")
        if self.c <= 0:
            raise ValueError("lower-left entry must be positive")

    def chi_exponent(self) -> Fraction:
        """t with eta multiplier chi(gamma) = e^{pi i t}, reduced mod 2.

        t = (a + d)/(12c) - s(d, c) - 1/4, as one numerator over 12c:
        (a + d) - 2 (6c s(d, c)) - 3c, reduced mod 24c.
        """
        c = self.c
        num = self.a + self.d - 2 * _dedekind_6c(self.d, c) - 3 * c
        return Fraction(num % (24 * c), 12 * c)


def _check_fraction(h: int, k: int) -> None:
    if not (0 <= h < k):
        raise ValueError("need 0 <= h < k")
    if gcd(h, k) != 1:
        raise NotCoprimeError(f"gcd({h}, {k}) != 1")


class FactorTransform(NamedTuple):
    """Exact transformation data of one factor psi(r, m)^delta at h/k, in integers.

    The transformed arguments are const + wcoef * (i/z): sigma_const =
    (r d + lambda hbar d m)/(m k), sigma_wcoef = u d/(m k), tau_const =
    hbar d/k and tau_wcoef = d^2/(m k), with u = lambda d - r h, so that
    lambda* = u/d.  Each of these four is a property that builds its
    reduced ``Fraction`` on every read.
    """

    r: int
    m: int
    delta: int
    d: int
    m_prime: int
    k_prime: int
    hbar: int
    lam: int
    u: int
    k: int

    @property
    def sigma_const(self) -> Fraction:
        return Fraction(self.d * (self.r + self.lam * self.hbar * self.m), self.m * self.k)

    @property
    def sigma_wcoef(self) -> Fraction:
        return Fraction(self.u * self.d, self.m * self.k)

    @property
    def tau_const(self) -> Fraction:
        return Fraction(self.hbar * self.d, self.k)

    @property
    def tau_wcoef(self) -> Fraction:
        return Fraction(self.d * self.d, self.m * self.k)


# ---------------------------------------------------------------------------
# growth exponents Omega and Delta, residue classes
# ---------------------------------------------------------------------------

def omega_exact(spec: ProductSpec) -> Fraction:
    """Omega = sum_j delta_j (2 m_j - 12 r_j + 12 r_j^2 / m_j), one Fraction over the level."""
    big_l = spec.level
    num = sum(delta * (2 * m * m - 12 * r * m + 12 * r * r) * (big_l // m)
              for r, m, delta in spec.factors)
    return Fraction(num, big_l)


def class_representative(spec: ProductSpec, aleph: int, l: int) -> tuple[int, int] | None:
    """The coprime h/k of the class (aleph, l) with the smallest k, then the smallest h.

    That is h = aleph (mod l), k = l (mod L), gcd(h, k) = 1 and 0 <= h < k.

    Returns None exactly when g = gcd(aleph, l, L) > 1 (e.g. class (0, 5) at
    level 5): g divides every such h and k.  When g = 1 a representative
    exists (see the module docstring), so the search over k = l, l + L, ...
    ends; it only chooses the representative, and with it the k that
    ``analytic.main_term_data`` ranks an Lpos class by.  No class scan calls
    it.
    """
    big_l = spec.level
    if not 1 <= l <= big_l or not 0 <= aleph < l:
        raise ValueError("need 1 <= l <= level and 0 <= aleph < l")
    if gcd(aleph, l, big_l) > 1:
        return None
    for k in count(l, big_l):
        for h in range(aleph, k, l):
            if gcd(h, k) == 1:
                return h, k


def _delta_terms(spec: ProductSpec, k: int) -> list[tuple[int, int, int]]:
    """(delta_j L/m_j, r_j, d_j) per factor, d_j = gcd(m_j, k): the part of L Delta fixed by k."""
    big_l = spec.level
    return [(delta * (big_l // m), r, gcd(m, k)) for r, m, delta in spec.factors]


def _level_delta(terms: list[tuple[int, int, int]], h: int) -> int:
    """L Delta = -sum_j delta_j (L/m_j) (2 d_j^2 + 12 u (u - d_j)), u = (-r_j h) mod d_j.

    The one kernel: ``terms`` is ``_delta_terms`` at k, and (h, k) is a
    fraction or a class (aleph, l), which give the same value (module docstring).
    """
    num = 0
    for w, r, d in terms:
        u = -r * h % d
        num -= w * (2 * d * d + 12 * u * (u - d))
    return num


def delta_at(spec: ProductSpec, h: int, k: int) -> Fraction:
    """Delta at the fraction h/k, in integers: -sum_j delta_j (2 d^2 + 12 u (u - d)) / m_j.

    This is -sum_j delta_j (2 d_j^2/m_j + 12 d_j^2/m_j (lam*^2 - lam*)) with
    d_j = gcd(m_j, k); u = lam d - r h = (-r h) mod d is the integer with
    lam* = u/d, so that d^2 (lam*^2 - lam*) = u (u - d).  The sum is one
    Fraction over the level, from the kernel the class scan uses.
    """
    return Fraction(_level_delta(_delta_terms(spec, k), h), spec.level)


def class_deltas(spec: ProductSpec) -> Iterator[tuple[int, int, int]]:
    """(aleph, l, L Delta) per class with a coprime representative, by (l, aleph).

    Each class is read off (aleph, l) itself: no representative, no Fraction.
    """
    big_l = spec.level
    for l in range(1, big_l + 1):
        terms = _delta_terms(spec, l)
        g = gcd(l, big_l)
        for aleph in range(l):
            if gcd(aleph, g) == 1:
                yield aleph, l, _level_delta(terms, aleph)


def lpos_set(spec: ProductSpec) -> set[tuple[int, int]]:
    """Classes (aleph, l) with a coprime representative and Delta(aleph, l) > 0."""
    return {(aleph, l) for aleph, l, level_delta in class_deltas(spec) if level_delta > 0}


def delta_table_rows(spec_name: str, spec: ProductSpec) -> Iterator[dict]:
    """Rows for the delta-table dump, sorted by (l, aleph); in_Lpos is Delta > 0.

    delta_num/delta_den is Delta in lowest terms, L Delta over L cut by one gcd.
    """
    big_l = spec.level
    for aleph, l, level_delta in class_deltas(spec):
        g = gcd(level_delta, big_l)
        yield {
            "spec": spec_name,
            "aleph": aleph,
            "l": l,
            "delta_num": level_delta // g,
            "delta_den": big_l // g,
            "in_Lpos": level_delta > 0,
        }


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------

class TransformData(NamedTuple):
    """Everything needed to evaluate the product transformation at h/k, in integers.

    The phases are kept as integer numerators over known denominators:
    omega_num over 6k (reduced mod 12k) and upsilon_num over L k (reduced
    mod 2 L k), L the level.  ``omega`` and ``upsilon`` (exponents t of
    e^{pi i t}, in [0, 2)) are properties that build one reduced
    ``Fraction`` on every read.
    """

    h: int
    k: int
    factors: tuple[FactorTransform, ...]
    level: int
    sum_delta: int
    sum_delta_lambda: int
    omega_num: int
    upsilon_num: int

    @property
    def omega(self) -> Fraction:
        return Fraction(self.omega_num, 6 * self.k)

    @property
    def upsilon(self) -> Fraction:
        return Fraction(self.upsilon_num, self.level * self.k)

    def prefactor_phase(self) -> Fraction:
        """t in [0, 2) with e^{pi i t} = i^{sum delta} (-1)^{sum delta lambda} omega^2 Upsilon.

        t = sum delta/2 + sum delta lambda + 2 omega + Upsilon, as one
        numerator over 6 L k reduced mod 12 L k.
        """
        big_l, k = self.level, self.k
        num = (3 * big_l * k * self.sum_delta + 6 * big_l * k * self.sum_delta_lambda
               + 2 * big_l * self.omega_num + 6 * self.upsilon_num)
        return Fraction(num % (12 * big_l * k), 6 * big_l * k)

    def pi_factors(self) -> tuple[tuple[Fraction, int], ...]:
        """(x_j, delta_j) for the factors with lam*_j = 0: Pi = prod (1 - e^{2 pi i x_j})^{delta_j}.

        x_j is the transformed first argument sigma_const, which for lam* = 0
        equals (r d + r hbar m h)/(m k), reduced mod 1.  Each x_j is
        certified non-integral before it is returned.
        """
        out = []
        for ft in self.factors:
            if ft.u == 0:
                x = ft.sigma_const % 1
                if x == 0:
                    raise ArithmeticError(f"vanishing Pi factor at (h, k) = ({self.h}, {self.k}), "
                                          f"(r, m) = ({ft.r}, {ft.m})")
                out.append((x, ft.delta))
        return tuple(out)


def transform_data(spec: ProductSpec, h: int, k: int) -> TransformData:
    """Assemble the exact data of the product transformation at h/k, in integers.

    The per-factor building blocks: matrix data, lambda = ceil(r h/d) and
    u = lambda d - r h (``FactorTransform``), the Dedekind-sum phase
    omega = exp(-pi i sum_j delta_j s(m'_j h, k'_j)) and the correction phase

        Upsilon = exp(pi i sum_j delta_j [ r_j h/k - r_j d_j/(m_j k)
                  + 2 r_j d_j lam*_j/(m_j k) + hbar_j d_j (lam_j^2 - lam_j)/k ]).

    The two exponents are summed as integer numerators over L k and 6k (see
    the module docstring) and reduced mod 2 as integers.  No ``Fraction``
    is built here.
    """
    _check_fraction(h, k)
    big_l = spec.level
    facs = []
    omega_num = ups_num = sum_delta = sum_dl = 0
    # d, m', k', hbar, the omega term (6k' s(m'h, k')) d and L/m depend on m alone
    by_modulus = {}
    for r, m, delta in spec.factors:
        per_m = by_modulus.get(m)
        if per_m is None:
            d = gcd(m, k)
            mp, kp = m // d, k // d
            # the smallest nonnegative hbar with hbar m'h = -1 (mod k'), 0 when k' = 1
            hb = -pow(mp * h, -1, kp) % kp
            per_m = by_modulus[m] = (d, mp, kp, hb, _dedekind_6c(mp * h, kp) * d, big_l // m)
        d, mp, kp, hb, omega_term, l_over_m = per_m
        lam = -(-r * h // d)
        u = lam * d - r * h
        facs.append(FactorTransform(r, m, delta, d, mp, kp, hb, lam, u, k))
        omega_num -= delta * omega_term
        ups_num += (delta * (r * h * m - r * d + 2 * r * u + hb * d * m * (lam * lam - lam))
                    * l_over_m)
        sum_delta += delta
        sum_dl += delta * lam
    return TransformData(h, k, tuple(facs), big_l, sum_delta, sum_dl,
                         omega_num % (12 * k), ups_num % (2 * big_l * k))
