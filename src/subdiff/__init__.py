"""Solvers and certificates for quasilinear subdiffusion equations.

The package discretizes

    d_t^alpha (u - u0) - div(a(u) grad u) = f

with the L1 scheme in time (uniform or graded meshes) and a divergence-form
finite-difference operator in space, and ships the diagnostic machinery used
to certify the qualitative theory numerically: discrete fractional convexity,
comparison against relaxation supersolutions, sup-norm boundedness, and
Mittag-Leffler decay envelopes for the squared L2 norm.

Every name is imported from its module; importing the package loads none.
"""

__version__ = "0.1.0"
