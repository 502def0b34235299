"""Numerical kernels for the error-bound pair loop.

Both entries are numpy, from :mod:`beamtrack.kernels.ref`, and run one
folded mu formula: ``gamma_ub`` logs the bound for one prior or a block of
priors against one sensing matrix, and ``gamma_ub_batch`` scores one prior
against many sensing matrices at once for beam design.  Each call evaluates
the generic pairs, both eigenvalues nonzero, densely in a few arrays that it
reuses, and patches the few other pairs by index.
"""

from . import ref
from .ref import gamma_ub, gamma_ub_batch

# There is no compiled kernel; benchmark records read this to name the path.
IS_COMPILED = False

__all__ = ["IS_COMPILED", "gamma_ub", "gamma_ub_batch", "ref"]
