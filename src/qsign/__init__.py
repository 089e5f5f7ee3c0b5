"""Exact and rigorously-enclosed verification of sign patterns of q-series.

Modules, each importing only those listed above it:

* ``qseries``   -- exact truncated power series over Python ints
* ``modular``   -- Dedekind sums and the exact transformation data of
                   two-variable Pochhammer products under Farey fractions
* ``enclosure`` -- directed-rounded interval arithmetic (mpmath.libmp interval
                   kernels, bit-identical to mpmath.iv) and its complex
                   rectangles
* ``analytic``  -- Bessel main terms, explicit error bounds, certified
                   dominance and eventual-dominance certificates
* ``circle``    -- high-precision eta/theta/psi evaluation, Farey dissection,
                   the diagnostic one-arc integral and circle-method quadrature
* ``certify``   -- orchestration into machine-readable certificates
* ``cli``       -- command line front end

The package holds only what the proof and its diagnostics run: the
definitional oracles and paper-lemma checks it is tested against live in
``tests/oracles.py``.
"""

__version__ = "0.1.0"
