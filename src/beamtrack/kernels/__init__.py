"""Numerical kernels for the error-bound pair loop.

For the scalar ``gamma_ub`` the compiled extension is preferred when
available; the numpy fallback in :mod:`beamtrack.kernels.ref` is selected
otherwise, or when the environment variable ``BEAMTRACK_NO_EXT`` is set
(useful for benchmarking and debugging).  ``gamma_ub_batch``, which scores
many sensing matrices at once for beam design, is always the numpy one.
"""

import os

from . import ref

if os.environ.get("BEAMTRACK_NO_EXT"):
    _impl = ref
else:
    try:
        from . import _pairmu as _impl
    except ImportError:
        _impl = ref

IS_COMPILED = bool(getattr(_impl, "IS_COMPILED", False))
gamma_ub = _impl.gamma_ub

# Always-available reference entry points (diagnostics and tests).
gamma_ub_batch = ref.gamma_ub_batch
pair_terms = ref.pair_terms
mu_cases = ref.mu_cases

__all__ = [
    "IS_COMPILED",
    "gamma_ub",
    "gamma_ub_batch",
    "pair_terms",
    "mu_cases",
    "ref",
]
