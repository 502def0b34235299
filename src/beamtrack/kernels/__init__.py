"""Numerical kernels for the error-bound pair loop.

The one entry, ``gamma_ub``, is numpy, from :mod:`beamtrack.kernels.ref`.
It logs the bound of a block of priors against one sensing matrix, and
scores one prior against a stack of sensing matrices for beam design, with
one support rule and one per-item weighted sum, so a design score's bits do
not depend on its batch (``tests/test_kernels.py::TestBatchInvariance``
checks it).
"""

from . import ref
from .ref import gamma_ub

# There is no compiled kernel; benchmark records read this to name the path.
IS_COMPILED = False

__all__ = ["IS_COMPILED", "gamma_ub", "ref"]
