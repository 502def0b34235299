"""Numerical kernels for the error-bound pair loop.

For ``gamma_ub`` the compiled extension is preferred when available; the
numpy fallback in :mod:`beamtrack.kernels.ref` is selected otherwise, or when
the environment variable ``BEAMTRACK_NO_EXT`` is set (useful for benchmarking
and debugging).  ``gamma_ub_batch``, which scores many sensing matrices at
once for beam design, is always the numpy one.
"""

import os

import numpy as np

from . import ref

if os.environ.get("BEAMTRACK_NO_EXT"):
    _impl = ref
else:
    try:
        from . import _pairmu as _impl
    except ImportError:
        _impl = ref

IS_COMPILED = bool(getattr(_impl, "IS_COMPILED", False))


def gamma_ub(prior, gram_abs2, norms_sq, snr):
    """Union upper bound on the tracking error probability (unclamped).

    A (N,) prior gives a float.  An (F, N) block of priors against the same
    sensing matrix gives the (F,) bounds, each equal bit for bit to the call
    on its row: the compiled kernel runs once per row, the numpy one scores
    the block in :func:`ref.gamma_ub_rows`.
    """
    prior = np.asarray(prior, dtype=float)
    if prior.ndim == 1:
        return _impl.gamma_ub(prior, gram_abs2, norms_sq, snr)
    if getattr(_impl, "IS_COMPILED", False):
        return np.array([_impl.gamma_ub(row, gram_abs2, norms_sq, snr) for row in prior])
    return ref.gamma_ub_rows(prior, gram_abs2, norms_sq, snr)


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
