"""Numerical kernels for the error-bound pair loop.

Every entry point is numpy, from :mod:`beamtrack.kernels.ref`, and all run
one folded mu formula (``ref._pair_constants`` evaluated by ``ref._mu``):
``gamma_ub`` logs the bound for one prior or a block of priors against one
sensing matrix, each on its effective support (``ref.LOG_EPS``), and
``gamma_ub_batch`` scores many sensing matrices at once for beam design.
"""

import numpy as np

from . import ref

# There is no compiled kernel; benchmark records read this to name the path.
IS_COMPILED = False


def gamma_ub(prior, gram_abs2, norms_sq, snr):
    """Union upper bound on the tracking error probability (unclamped).

    A (N,) prior gives a float.  An (F, N) block of priors against the same
    sensing matrix gives the (F,) bounds, each equal bit for bit to the call
    on its row (see :func:`ref.gamma_ub_rows`).
    """
    prior = np.asarray(prior, dtype=float)
    if prior.ndim == 1:
        return ref.gamma_ub(prior, gram_abs2, norms_sq, snr)
    return ref.gamma_ub_rows(prior, gram_abs2, norms_sq, snr)


gamma_ub_batch = ref.gamma_ub_batch

__all__ = ["IS_COMPILED", "gamma_ub", "gamma_ub_batch", "ref"]
