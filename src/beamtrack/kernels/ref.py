"""Pure-numpy implementation of the pairwise misdetection kernel.

Given the sensing matrix Gram data (squared column norms and squared pairwise
inner products), a prior over grid hypotheses, and the linear training SNR,
this evaluates the union upper bound on the tracking error probability.

The rank-2 quadratic form behind each hypothesis pair reduces to scalars:
with q_k = ||s_k||^2, q_n = ||s_n||^2, g2 = |s_k^H s_n|^2 and
a = snr^2/(1 + snr*q_k), b = snr^2/(1 + snr*q_n), the two nonzero
eigenvalues of the whitened difference form are the eigenvalues of the 2x2
matrix with trace T = a*uu - b*vv and determinant D = -a*b*(uu*vv - uv2),
where uu = q_k*(q_k + 1/snr), uv2 = (q_k + 1/snr)^2 * g2 and
vv = g2 + q_n/snr.  D <= 0 by Cauchy-Schwarz, so one eigenvalue is >= 0 and
the other <= 0.
"""

from __future__ import annotations

import numpy as np

IS_COMPILED = False

# Relative threshold below which an eigenvalue counts as zero for the
# four-way case dispatch.
ZERO_EIG_RTOL = 1e-10
# Relative threshold on the Gram cross term (Cauchy-Schwarz gap) below which
# the product of the two rank-1 directions is treated as rank deficient.
# Cancellation noise in the gap would otherwise be sqrt-amplified into a
# spurious nonzero eigenvalue pair.
RANK_DEFICIENT_RTOL = 1e-12


def mu_cases(lam1: np.ndarray, lam2: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Closed-form P(lam1*E1 + lam2*E2 <= delta), E_i iid unit exponentials.

    Vectorized four-way dispatch on the signs of (lam1, lam2); lam1 >= 0 and
    lam2 <= 0 are assumed.  delta may be +-inf.  Every case needs at most
    exp(-delta/L) with L = lam2 for delta <= 0 and L = lam1 otherwise, so one
    exp serves them all.
    """
    lam1 = np.asarray(lam1, dtype=float)
    lam2 = np.asarray(lam2, dtype=float)
    delta = np.asarray(delta, dtype=float)
    tol = ZERO_EIG_RTOL * np.maximum(1.0, np.maximum(np.abs(lam1), np.abs(lam2)))
    pos1 = lam1 > tol
    neg2 = lam2 < -tol

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        low = delta <= 0
        scale = np.where(low, lam2, lam1)
        tail = np.exp(-delta / scale)
        # both nonzero: t = L/(lam2 - lam1) * tail, mu = t below 0, 1 + t above
        t = scale / (lam2 - lam1) * tail
        case1 = np.where(low, t, 1.0 + t)
    # lam1 > 0 only
    case2 = np.where(delta > 0, 1.0 - tail, 0.0)
    # lam2 < 0 only
    case3 = np.where(delta < 0, tail, 1.0)
    # both zero: the form is identically 0, so P(0 <= delta)
    case4 = np.where(delta < 0, 0.0, 1.0)

    mu = np.where(
        pos1 & neg2, case1, np.where(pos1, case2, np.where(neg2, case3, case4))
    )
    return np.clip(mu, 0.0, 1.0)


def pair_terms(
    prior: np.ndarray, gram_abs2: np.ndarray, norms_sq: np.ndarray, snr: float
):
    """Per-pair (lam1, lam2, delta, mu) matrices for all hypothesis pairs.

    Row index is the true hypothesis, column index the competitor.  Entries
    on the diagonal and in columns with zero prior are set to mu = 0.
    Broadcasts over leading batch axes: ``prior`` (..., N), ``gram_abs2``
    (..., N, N) and ``norms_sq`` (..., N) give (..., N, N) results.
    """
    prior = np.asarray(prior, dtype=float)
    q = np.asarray(norms_sq, dtype=float)
    inv = 1.0 / snr

    a = snr * snr / (1.0 + snr * q)  # (..., N)
    uu = q * (q + inv)
    uv2 = (q + inv)[..., :, None] ** 2 * gram_abs2
    vv = gram_abs2 + (q * inv)[..., None, :]

    pos = (a * uu)[..., :, None] * np.ones_like(vv)
    neg = a[..., None, :] * vv
    cross = uu[..., :, None] * vv - uv2
    trace = pos - neg
    det = -(a[..., :, None] * a[..., None, :]) * np.maximum(cross, 0.0)
    root = np.sqrt(trace * trace - 4.0 * det)
    lam1 = 0.5 * (trace + root)
    lam2 = 0.5 * (trace - root)
    # Rank-deficient pairs (aligned directions): the quadratic would turn
    # cancellation noise in cross into spurious sqrt-amplified eigenvalues.
    aligned = cross <= RANK_DEFICIENT_RTOL * uu[..., :, None] * vv
    if aligned.any():
        both_zero = aligned & (np.abs(trace) <= ZERO_EIG_RTOL * np.maximum(1.0, np.maximum(pos, neg)))
        lam1 = np.where(aligned, np.maximum(trace, 0.0), lam1)
        lam2 = np.where(aligned, np.minimum(trace, 0.0), lam2)
        lam1 = np.where(both_zero, 0.0, lam1)
        lam2 = np.where(both_zero, 0.0, lam2)

    with np.errstate(divide="ignore", invalid="ignore"):
        log_prior = np.log(prior)
        logdet = np.log1p(snr * q)  # log|Sigma| up to the common -M*log(snr) term
        delta = (log_prior[..., None, :] - log_prior[..., :, None]) + (
            logdet[..., :, None] - logdet[..., None, :]
        )

    mu = mu_cases(lam1, lam2, delta)
    n = mu.shape[-1]
    mu[..., np.arange(n), np.arange(n)] = 0.0
    mu = np.where(prior[..., None, :] == 0.0, 0.0, mu)
    return lam1, lam2, delta, mu


def gamma_ub_batch(
    prior: np.ndarray, gram_abs2: np.ndarray, norms_sq: np.ndarray, snr: float
) -> np.ndarray:
    """Union bounds of a batch of sensing matrices against one prior.

    ``prior`` is (S,), normally restricted to its support; ``gram_abs2`` is
    (B, S, S) and ``norms_sq`` (B, S), the Gram data of B sensing matrices on
    the same S columns.  Returns the (B,) unclamped bounds.
    """
    prior = np.asarray(prior, dtype=float)
    mu = pair_terms(prior, gram_abs2, norms_sq, snr)[3]
    return mu.sum(axis=-1) @ prior


def gamma_ub(
    prior: np.ndarray, gram_abs2: np.ndarray, norms_sq: np.ndarray, snr: float
) -> float:
    """Union upper bound on the tracking error probability (unclamped)."""
    prior = np.asarray(prior, dtype=float)
    support = prior > 0.0
    if support.all():
        _, _, _, mu = pair_terms(prior, gram_abs2, norms_sq, snr)
        return float(prior @ mu.sum(axis=1))
    # Restrict to the prior's support; zero-prior rows contribute nothing and
    # zero-prior competitors have mu = 0.
    idx = np.flatnonzero(support)
    sub = pair_terms(
        prior[idx], gram_abs2[np.ix_(idx, idx)], norms_sq[idx], snr
    )[3]
    return float(prior[idx] @ sub.sum(axis=1))
