"""Exact modular-transformation bookkeeping for psi-product expansions.

All quantities here are exact rationals (``fractions.Fraction``) or integers:
Dedekind sums, the SL2(Z) matrices attached to a Farey fraction h/k and a
factor modulus m, the ceiling data (lambda, lambda*), the growth exponents
Omega and Delta, the root-of-unity phases omega, Upsilon and the finite
product Pi over factors with lambda* = 0.  A phase is kept as its exponent:
the ``Fraction`` t of e^{pi i t}, reduced mod 2.

The layer computes in integers and builds one ``Fraction`` per output, from
an integer numerator over a known denominator: a Dedekind sum is 6c s(d, c)
over 6c, the per-factor fields come from d, m', k', hbar, lambda and
u = lambda d - r h (so lambda* = u/d), and the exponents summed over the
factors use the common denominator L k (L the level) or 6k.  Per factor,

    Upsilon:  delta [r h m - r d + 2 r u + hbar d m (lambda^2 - lambda)]/(m k),
    omega:    -delta s(m'h, k')  = -delta (6k' s(m'h, k')) d/(6k),
    Delta:    -delta (2 d^2 + 12 u (u - d))/m.

The definitional ``Fraction`` forms (the formulas in the docstrings) are the
test oracle, in ``tests/oracles.py``.

Each quantity has one function: ``omega_exact`` (Omega), ``delta_at``
(Delta at h/k), ``class_representative`` (a coprime h/k in a class (aleph,
l)), ``class_deltas`` (the one class scan, shared by ``lpos_set``,
``delta_table_rows`` and ``analytic.main_term_data``) and ``transform_data``
(matrices, omega, Upsilon, and Pi through ``TransformData.pi_factors``).
The level L is ``ProductSpec.level``, computed once per spec, so none of
them needs it passed in.

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
from math import gcd
from typing import Iterator

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
        """t with eta multiplier chi(gamma) = e^{pi i t}, reduced mod 2."""
        t = Fraction(self.a + self.d, 12 * self.c) - dedekind_sum(self.d, self.c) - Fraction(1, 4)
        return t % 2


def _check_fraction(h: int, k: int) -> None:
    if not (0 <= h < k):
        raise ValueError("need 0 <= h < k")
    if gcd(h, k) != 1:
        raise NotCoprimeError(f"gcd({h}, {k}) != 1")


@dataclass(frozen=True)
class FactorTransform:
    """Exact transformation data of one factor psi(r, m)^delta at h/k.

    sigma_const/sigma_wcoef and tau_const/tau_wcoef give the transformed
    arguments as const + wcoef * (i/z).
    """

    r: int
    m: int
    delta: int
    d: int
    m_prime: int
    k_prime: int
    hbar: int
    lam: int
    lam_star: Fraction
    sigma_const: Fraction
    sigma_wcoef: Fraction
    tau_const: Fraction
    tau_wcoef: Fraction


def factor_transform(r: int, m: int, delta: int, h: int, k: int) -> FactorTransform:
    """The factor's data in integers, each Fraction field built once.

    With u = lambda d - r h (so lambda* = u/d, lambda = ceil(rh/d)):
    sigma_const = (r d + lambda hbar d m)/(m k), sigma_wcoef = u d/(m k),
    tau_const = hbar d/k and tau_wcoef = d^2/(m k).
    """
    if not 1 <= r < m:
        raise ValueError("need 1 <= r < m")
    _check_fraction(h, k)
    d = gcd(m, k)
    mp, kp = m // d, k // d
    # the smallest nonnegative hbar with hbar m'h = -1 (mod k'), 0 when k' = 1
    hb = -pow(mp * h, -1, kp) % kp
    lam = -(-r * h // d)
    u = lam * d - r * h
    mk = m * k
    return FactorTransform(
        r=r, m=m, delta=delta, d=d, m_prime=mp, k_prime=kp, hbar=hb,
        lam=lam, lam_star=Fraction(u, d),
        sigma_const=Fraction(r * d + lam * hb * d * m, mk),
        sigma_wcoef=Fraction(u * d, mk),
        tau_const=Fraction(hb * d, k),
        tau_wcoef=Fraction(d * d, mk),
    )


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
    """Some (h, k) with h = aleph (mod l), k = l (mod L), gcd(h, k) = 1, 0 <= h < k.

    Returns None when no coprime representative exists: at once when
    g = gcd(aleph, l, L) > 1, since g divides every such h and k (e.g. class
    (0, 5) at level 5), else after the 40 denominators k = l + t L, 0 <= t < 40
    (for the levels in scope every class with g = 1 has a representative
    among them; tested).
    """
    big_l = spec.level
    if not 1 <= l <= big_l or not 0 <= aleph < l:
        raise ValueError("need 1 <= l <= level and 0 <= aleph < l")
    if gcd(aleph, l, big_l) > 1:
        return None
    for t in range(40):
        k = l + t * big_l
        for h in range(aleph, k, l):
            if gcd(h, k) == 1:
                return h, k
    return None


def delta_at(spec: ProductSpec, h: int, k: int) -> Fraction:
    """Delta at the fraction h/k, in integers: -sum_j delta_j (2 d^2 + 12 u (u - d)) / m_j.

    This is -sum_j delta_j (2 d_j^2/m_j + 12 d_j^2/m_j (lam*^2 - lam*)) with
    d_j = gcd(m_j, k); u = lam d - r h = (-r h) mod d is the integer with
    lam* = u/d, so that d^2 (lam*^2 - lam*) = u (u - d).  The sum is one
    Fraction over the level.  d_j and lam* depend only on the class of
    (h, k) modulo (l, L), so every coprime representative of a class gives
    the same value (tested).
    """
    big_l = spec.level
    num = 0
    for r, m, delta in spec.factors:
        d = gcd(m, k)
        u = -r * h % d
        num -= delta * (2 * d * d + 12 * u * (u - d)) * (big_l // m)
    return Fraction(num, big_l)


def class_deltas(spec: ProductSpec) -> Iterator[tuple[int, int, int, int, Fraction]]:
    """(aleph, l, h, k, Delta) per class with a coprime representative h/k, by (l, aleph)."""
    for l in range(1, spec.level + 1):
        for aleph in range(l):
            rep = class_representative(spec, aleph, l)
            if rep is not None:
                yield aleph, l, *rep, delta_at(spec, *rep)


def lpos_set(spec: ProductSpec) -> set[tuple[int, int]]:
    """Classes (aleph, l) with a coprime representative and Delta(aleph, l) > 0."""
    return {(aleph, l) for aleph, l, _, _, dv in class_deltas(spec) if dv > 0}


def delta_table_rows(spec_name: str, spec: ProductSpec) -> Iterator[dict]:
    """Rows for the delta-table dump, sorted by (l, aleph); in_Lpos is Delta > 0."""
    for aleph, l, _, _, dv in class_deltas(spec):
        yield {
            "spec": spec_name,
            "aleph": aleph,
            "l": l,
            "delta_num": dv.numerator,
            "delta_den": dv.denominator,
            "in_Lpos": dv > 0,
        }


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransformData:
    """Everything needed to evaluate the product transformation at h/k."""

    h: int
    k: int
    factors: tuple[FactorTransform, ...]
    omega: Fraction       # the phases omega and Upsilon as exponents t of e^{pi i t}, in [0, 2)
    upsilon: Fraction
    omega_exponent: Fraction
    delta_exponent: Fraction
    sum_delta: int
    sum_delta_lambda: int

    def prefactor_phase(self) -> Fraction:
        """t in [0, 2) with e^{pi i t} = i^{sum delta} (-1)^{sum delta lambda} omega^2 Upsilon."""
        t = Fraction(self.sum_delta, 2) + self.sum_delta_lambda + 2 * self.omega + self.upsilon
        return t % 2

    def pi_factors(self) -> tuple[tuple[Fraction, int], ...]:
        """(x_j, delta_j) for the factors with lam*_j = 0: Pi = prod (1 - e^{2 pi i x_j})^{delta_j}.

        x_j is the transformed first argument sigma_const, which for lam* = 0
        equals (r d + r hbar m h)/(m k), reduced mod 1.  Each x_j is
        certified non-integral before it is returned.
        """
        out = []
        for ft in self.factors:
            if ft.lam_star == 0:
                x = ft.sigma_const % 1
                if x == 0:
                    raise ArithmeticError(f"vanishing Pi factor at (h, k) = ({self.h}, {self.k}), "
                                          f"(r, m) = ({ft.r}, {ft.m})")
                out.append((x, ft.delta))
        return tuple(out)


def transform_data(spec: ProductSpec, h: int, k: int) -> TransformData:
    """Assemble the exact data of the product transformation at h/k.

    The per-factor building blocks: matrix data, (lambda, lambda*), the
    transformed arguments (``factor_transform``), the Dedekind-sum phase
    omega = exp(-pi i sum_j delta_j s(m'_j h, k'_j)) and the correction phase

        Upsilon = exp(pi i sum_j delta_j [ r_j h/k - r_j d_j/(m_j k)
                  + 2 r_j d_j lam*_j/(m_j k) + hbar_j d_j (lam_j^2 - lam_j)/k ]).

    The two exponents are summed as integer numerators over L k and 6k (see
    the module docstring), reduced mod 2 as integers, and each becomes one
    Fraction at the end, as do Omega and Delta.
    """
    _check_fraction(h, k)
    big_l = spec.level
    facs = []
    omega_num = ups_num = sum_delta = sum_dl = 0
    for r, m, delta in spec.factors:
        ft = factor_transform(r, m, delta, h, k)
        facs.append(ft)
        d, lam, hb = ft.d, ft.lam, ft.hbar
        u = lam * d - r * h
        omega_num -= delta * _dedekind_6c(ft.m_prime * h, ft.k_prime) * d
        ups_num += (delta * (r * h * m - r * d + 2 * r * u + hb * d * m * (lam * lam - lam))
                    * (big_l // m))
        sum_delta += delta
        sum_dl += delta * lam
    return TransformData(
        h=h, k=k, factors=tuple(facs),
        omega=Fraction(omega_num % (12 * k), 6 * k),
        upsilon=Fraction(ups_num % (2 * big_l * k), big_l * k),
        omega_exponent=omega_exact(spec), delta_exponent=delta_at(spec, h, k),
        sum_delta=sum_delta, sum_delta_lambda=sum_dl,
    )
