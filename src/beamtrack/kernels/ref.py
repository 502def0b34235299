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

# Relative threshold below which an eigenvalue counts as zero for the
# four-way case dispatch.
ZERO_EIG_RTOL = 1e-10
# Relative threshold on the Gram cross term (Cauchy-Schwarz gap) below which
# the product of the two rank-1 directions is treated as rank deficient.
# Cancellation noise in the gap would otherwise be sqrt-amplified into a
# spurious nonzero eigenvalue pair.
RANK_DEFICIENT_RTOL = 1e-12
# Hypothesis pairs (rows x support x support) per prior-dependent step of
# gamma_ub_rows.  The step holds about six temporaries of this many doubles,
# so this caps them near 0.4 MB whatever the block size.
ROW_PAIRS = 1 << 13


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


def pair_eigs(gram_abs2: np.ndarray, norms_sq: np.ndarray, snr: float):
    """(lam1, lam2) matrices of all hypothesis pairs; they do not depend on
    the prior.  Broadcasts over leading batch axes like :func:`pair_terms`."""
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
    return lam1, lam2


def _pair_mu(prior, lam1, lam2, norms_sq, snr):
    """(delta, mu) of all hypothesis pairs from the pair eigenvalues."""
    prior = np.asarray(prior, dtype=float)
    q = np.asarray(norms_sq, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_prior = np.log(prior)
        logdet = np.log1p(snr * q)  # log|Sigma| up to the common -M*log(snr) term
        # C order keeps the pair axes innermost for every later elementwise
        # pass; broadcasting alone can put the prior-row axis there.
        delta = np.add(
            log_prior[..., None, :] - log_prior[..., :, None],
            logdet[..., :, None] - logdet[..., None, :],
            order="C",
        )

    mu = mu_cases(lam1, lam2, delta)
    n = mu.shape[-1]
    mu[..., np.arange(n), np.arange(n)] = 0.0
    mu = np.where(prior[..., None, :] == 0.0, 0.0, mu)
    return delta, mu


def pair_terms(
    prior: np.ndarray, gram_abs2: np.ndarray, norms_sq: np.ndarray, snr: float
):
    """Per-pair (lam1, lam2, delta, mu) matrices for all hypothesis pairs.

    Row index is the true hypothesis, column index the competitor.  Entries
    on the diagonal and in columns with zero prior are set to mu = 0.
    Broadcasts over leading batch axes: ``prior`` (..., N), ``gram_abs2``
    (..., N, N) and ``norms_sq`` (..., N) give (..., N, N) results.
    """
    lam1, lam2 = pair_eigs(gram_abs2, norms_sq, snr)
    delta, mu = _pair_mu(prior, lam1, lam2, norms_sq, snr)
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


def _pair_constants(gram_abs2, norms_sq, snr) -> np.ndarray:
    """Prior-independent terms of every hypothesis pair for
    :func:`gamma_ub_rows`, as a (6, N*N) array of flattened pair matrices.

    The rows are the log-determinant part of delta, a threshold, and per
    branch of :func:`mu_cases` the negated eigenvalue -L of its tail
    ``exp(-delta/L)`` and the ratio that multiplies that tail.  The case
    masks are folded into them, so one formula serves every pair::

        mu = 1 + ratio_high * exp(delta / nl_high)   where delta > thr
        mu = ratio_low * exp(delta / nl_low)         elsewhere

    A branch that uses no tail has ratio 0 and an infinite L, so its tail is
    exp(+-0) = 1; ``1 - tail`` is ratio -1.  The threshold is 0 except where
    both eigenvalues are zero and mu = P(0 <= delta): there it is the
    negative subnormal nearest 0, so delta > thr means delta >= 0.  The
    diagonal, whose delta is exactly 0, gets mu = 0.
    """
    lam1, lam2 = pair_eigs(gram_abs2, norms_sq, snr)
    logdet = np.log1p(snr * np.asarray(norms_sq, dtype=float))
    tol = ZERO_EIG_RTOL * np.maximum(1.0, np.maximum(np.abs(lam1), np.abs(lam2)))
    pos1 = lam1 > tol
    neg2 = lam2 < -tol
    both = pos1 & neg2
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = lam2 - lam1
        ratio_low = np.where(both, lam2 / gap, np.where(neg2, 1.0, 0.0))
        ratio_high = np.where(both, lam1 / gap, np.where(pos1, -1.0, 0.0))
    nl_low = np.where(neg2, -lam2, np.inf)
    nl_high = np.where(pos1, -lam1, -np.inf)
    thr = np.where(pos1 | neg2, 0.0, -np.finfo(float).smallest_subnormal)
    np.fill_diagonal(thr, 0.0)
    np.fill_diagonal(ratio_low, 0.0)
    np.fill_diagonal(nl_low, np.inf)
    logdet_diff = logdet[:, None] - logdet[None, :]
    terms = (logdet_diff, thr, nl_low, nl_high, ratio_low, ratio_high)
    return np.stack(terms).reshape(len(terms), -1)


def _rows_mu(prior: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """(G, U, U) mu of a (G, U) prior block from its columns' gathered
    :func:`_pair_constants`, equal to :func:`pair_terms`' mu on every pair of
    support points."""
    logdet, thr, nl_low, nl_high, ratio_low, ratio_high = consts
    g, u = prior.shape
    log_prior = np.log(prior)
    delta = np.add(
        log_prior[:, None, :] - log_prior[:, :, None],
        logdet.reshape(u, u),
        order="C",
    ).reshape(g, u * u)
    high = delta > thr
    tail = np.where(high, nl_high, nl_low)
    np.divide(delta, tail, out=tail)
    np.exp(tail, out=tail)
    mu = np.where(high, ratio_high, ratio_low)
    mu *= tail
    np.add(mu, 1.0, out=mu, where=high)
    np.clip(mu, 0.0, 1.0, out=mu)
    return mu.reshape(g, u, u)


def gamma_ub_rows(
    prior: np.ndarray, gram_abs2: np.ndarray, norms_sq: np.ndarray, snr: float
) -> np.ndarray:
    """Union bounds of an (F, N) block of priors against one sensing matrix.

    Each of the (F,) results equals :func:`gamma_ub` on that row bit for bit.
    Every prior-independent pair term is computed once, on the full grid.
    Rows are scored in groups of equal support, each group on that support
    and at most ``ROW_PAIRS`` pairs at a time.
    """
    prior = np.asarray(prior, dtype=float)
    n = prior.shape[1]
    support = prior > 0.0
    _, first, which, counts = np.unique(
        np.packbits(support, axis=1),
        axis=0,
        return_index=True,
        return_inverse=True,
        return_counts=True,
    )
    groups = np.split(np.argsort(which.ravel(), kind="stable"), np.cumsum(counts)[:-1])
    out = np.empty(len(prior))
    consts = _pair_constants(gram_abs2, norms_sq, snr)
    for rows, row in zip(groups, first):
        cols = np.flatnonzero(support[row])
        if len(cols) == n:
            sub = consts
        else:
            sub = np.take(consts, (cols[:, None] * n + cols).ravel(), axis=1)
        step = max(1, ROW_PAIRS // max(1, len(cols)) ** 2)
        for lo in range(0, len(rows), step):
            chunk = rows[lo : lo + step]
            # Gathered in C order, so each row sum and dot product runs over
            # contiguous memory as on gamma_ub's compacted copies; strided
            # operands are reduced in another order and round differently.
            block = prior[chunk[:, None], cols]
            sums = _rows_mu(block, sub).sum(axis=-1)
            out[chunk] = np.matmul(block[:, None, :], sums[:, :, None])[:, 0, 0]
    return out
