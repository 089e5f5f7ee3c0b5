"""Exact and rigorously-enclosed verification of sign patterns of q-series.

Subpackages:

* ``qseries``   -- exact truncated power series over Python ints
* ``modular``   -- Dedekind sums and the exact transformation data of
                   two-variable Pochhammer products under Farey fractions
* ``enclosure`` -- directed-rounded interval arithmetic (mpmath.libmp interval
                   kernels, bit-identical to mpmath.iv)
* ``analytic``  -- Bessel main terms, explicit error bounds, certified
                   dominance and eventual-dominance certificates
* ``circle``    -- high-precision eta/theta/psi evaluation, Farey dissection
                   and diagnostic circle-method quadrature
* ``certify``   -- orchestration into machine-readable certificates
* ``cli``       -- command line front end
"""

__version__ = "0.1.0"
