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

One formula gives the pair tail mu from these eigenvalues and the log
threshold delta: :func:`_pair_constants` turns the eigenvalues into one
array of per-pair constants, and :func:`_mu` evaluates them at each prior's
delta.  The one entry, :func:`gamma_ub`, runs it and ends in one per-item
weighted sum, :func:`_bounds`, so no bound's bits depend on its batch.  It
scores a block of priors against one sensing matrix, for logging, and one
prior against one or a stack of them, for beam design.

The prior-independent pass is dense and reuses its buffers: the
eigenvalues of every pair are computed in a few arrays of the pair shape,
written through ``out=``, and so are the constants of the generic pairs,
those with both eigenvalues nonzero.  The rest, rank-deficient (aligned)
pairs and pairs with an eigenvalue within ZERO_EIG_RTOL of zero, are
patched by index, with the constants that :func:`_fold`, the one
statement of the four-case split of mu, gives them; they are few in a
swarm's stack.  Each pair gets the IEEE operations it would get from that
split applied to every pair, so the constants, and every bound, keep
their bits.

:func:`gamma_ub` scores each prior, logged or designed for, on its
effective support, the entries above LOG_EPS / (2 N^2) for a prior of
length N, not on every positive entry.  mu_kn is the probability that the
MAP test prefers n over k when k is true; by Markov's inequality on the
likelihood ratio, mu_kn <= E_k[p_n f_n / (p_k f_k)] = p_n / p_k, so every
pair adds p_k mu_kn <= min(p_k, p_n) to the bound.  A pair that touches a
cut entry therefore adds at most LOG_EPS / (2 N^2), and fewer than 2 N^2
pairs do, so a bound moves by less than LOG_EPS absolute, plus the
rounding of its shorter sums.  For a prior that sums to 1 that is far
below the bound's own scale.  A prior with no positive entry at or below
the threshold keeps the bits of its bound on every positive entry.
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
# Hypothesis pairs per step of a bound-kernel call, items x support x
# support, where the items are a logged block's prior rows or a design's
# stacked sensing matrices; :func:`step_items` alone applies it.  A logging
# step holds at most six arrays of this many doubles at once (measured), so
# this caps them near 0.4 MB whatever the block size.  A design call
# allocates about 15 such arrays and holds at most about ten at once on a
# swarm's stack, 12.5 on codeword subsets, whose non-generic pairs are
# patched (measured), so this caps them near 0.8 MB whatever the swarm size,
# subset count or prior support; at 1 << 16 the kernel's temporaries raised
# the peak RSS of a 64-point beta sweep by 23%.  A 50-particle swarm on an
# 11-point support still fits in one design call.
STEP_PAIRS = 1 << 13
# Smallest tail argument whose exp is computed; below it the tail is 0.
# numpy's exp slows several-fold from about -708 down, where results
# approach the subnormal range.
EXP_FLOOR = -700.0
# Absolute tolerance of a bound: gamma_ub drops the hypotheses
# whose prior is at most LOG_EPS / (2 N^2), which moves the bound by less
# than this (see the module docstring).
LOG_EPS = 1e-16


def step_items(n_support: int) -> int:
    """Items, prior rows or stacked sensing matrices, that one step of a
    bound-kernel call scores on ``n_support`` hypotheses: ``STEP_PAIRS``
    pairs' worth, and at least one."""
    return max(1, STEP_PAIRS // max(1, n_support) ** 2)


def pair_eigs(gram_abs2: np.ndarray, norms_sq: np.ndarray, snr: float):
    """(lam1, lam2) matrices of all hypothesis pairs; they do not depend on
    the prior.  ``gram_abs2`` (..., N, N) and ``norms_sq`` (..., N) give
    (..., N, N) results, row index the true hypothesis.  The diagonal, a
    hypothesis against itself, is 0: its difference form vanishes.

    Every pair is evaluated densely in four arrays of the result's shape,
    reused through ``out=``, two of which are returned; the rank-deficient
    (aligned) pairs, rare off the diagonal unless a sensing matrix has one
    row, are then patched by index.
    """
    q = np.asarray(norms_sq, dtype=float)
    diag = np.arange(q.shape[-1])
    inv = 1.0 / snr
    a = snr * snr / (1.0 + snr * q)  # (..., N)
    q_inv = q + inv
    uu = q * q_inv
    pos = (a * uu)[..., :, None]
    # C order whatever the Gram's layout; the arrays computed from these
    # two, and their buffers, keep it
    vv = np.add(gram_abs2, (q * inv)[..., None, :], order="C")
    neg = a[..., None, :] * vv
    trace = pos - neg
    uv2 = np.multiply((q_inv**2)[..., :, None], gram_abs2, order="C")
    cross = np.subtract(uu[..., :, None] * vv, uv2, out=uv2)
    # Rank-deficient pairs (aligned directions): the quadratic would turn
    # cancellation noise in cross into spurious sqrt-amplified eigenvalues.
    # Their one eigenvalue is the trace, or 0 where that is within
    # ZERO_EIG_RTOL of both its terms.  The diagonal always counts as
    # aligned, so it is set apart.
    aligned = cross <= np.multiply((RANK_DEFICIENT_RTOL * uu)[..., :, None], vv, out=vv)
    aligned[..., diag, diag] = False
    at = np.flatnonzero(aligned) if aligned.any() else None
    if at is not None:
        one = np.take(trace, at)
        larger = np.maximum(np.take(pos, at // len(diag)), np.take(neg, at))
        one[np.abs(one) <= ZERO_EIG_RTOL * np.maximum(1.0, larger)] = 0.0
    # root = sqrt(trace^2 - 4 det), with -det = a_k * a_n * max(cross, 0)
    root = np.multiply(a[..., :, None], a[..., None, :], out=vv)
    root *= np.maximum(cross, 0.0, out=cross)
    root *= 4.0
    root += np.multiply(trace, trace, out=cross)
    np.sqrt(root, out=root)
    lam1 = np.add(trace, root, out=neg)
    lam1 *= 0.5
    lam2 = np.subtract(trace, root, out=trace)
    lam2 *= 0.5
    if at is not None:
        np.put(lam1, at, np.maximum(one, 0.0))
        np.put(lam2, at, np.minimum(one, 0.0))
    lam1[..., diag, diag] = 0.0
    lam2[..., diag, diag] = 0.0
    return lam1, lam2


def _fold(lam1: np.ndarray, lam2: np.ndarray):
    """Fold the four-way case split of mu into per-pair constants
    ``(thr, nl_low, nl_high, ratio_low, ratio_high)`` for :func:`_mu`.

    mu = P(lam1*E1 + lam2*E2 <= delta), E_i iid unit exponentials, with
    lam1 >= 0 >= lam2.  Eigenvalues within ``ZERO_EIG_RTOL`` of zero count
    as zero.  Each case needs at most one tail exp(-delta/L), with L = lam2
    for delta <= 0 and L = lam1 otherwise, so one formula serves them all::

        mu = 1 + ratio_high * exp(delta / nl_high)   where delta > thr
        mu = ratio_low * exp(delta / nl_low)         elsewhere

    ``nl`` is the negated eigenvalue -L of a branch's tail and ``ratio`` the
    factor that multiplies it: L/(lam2 - lam1) when both eigenvalues are
    nonzero.  A branch that uses no tail has ratio 0 and an infinite L, so
    its tail is exp(+-0) = 1; ``1 - tail`` is ratio -1.  The threshold is 0
    except where both eigenvalues are zero and mu = P(0 <= delta): there it
    is the negative subnormal nearest 0, so delta > thr means delta >= 0.
    """
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
    return thr, nl_low, nl_high, ratio_low, ratio_high


def _mu(delta, fold: np.ndarray) -> np.ndarray:
    """Elementwise mu from delta and the five :func:`_fold` constants, stacked.

    Each result lies in [0, 1] without clipping.  For finite delta:
    ``ratio_low`` = lam2/fl(lam2 - lam1) lies in [0, 1] and ``ratio_high``
    in [-1, 0], because fl(lam2 - lam1) rounds monotonically and so is no
    smaller in magnitude than either eigenvalue; the tail argument
    delta/nl is <= 0 on both branches, so its exp lies in [0, 1]; and both
    ``ratio * tail`` and ``1 + ratio * tail`` then round into [0, 1].

    Tail arguments below ``EXP_FLOOR`` are set to -inf, whose exp is
    exactly 0.  This keeps numpy's exp off its slow underflow and subnormal
    path, and moves mu only where exp(delta/nl) < e**EXP_FLOOR, and then by
    less than that.  A bound over S hypotheses, whose prior sums to at most
    1, so moves by less than (S - 1) * e**EXP_FLOOR absolute: below 1e-300
    for S up to 10**4.  No run passes an infinite delta, since the bound
    restricts every prior to its support first; one makes a -inf or nan
    (inf/inf) argument, which fails the floor's comparison and so gives a
    tail of 0, and mu takes its limits: 0 below and 1 above.
    """
    thr, nl_low, nl_high, ratio_low, ratio_high = fold
    high = delta > thr
    tail = np.where(high, nl_high, nl_low)
    np.divide(delta, tail, out=tail)
    tail = np.where(tail >= EXP_FLOOR, tail, -np.inf)
    np.exp(tail, out=tail)
    mu = np.where(high, ratio_high, ratio_low)
    mu *= tail
    mu += high
    return mu


def _pair_constants(gram_abs2, norms_sq, snr) -> np.ndarray:
    """Prior-independent terms of every hypothesis pair, as one C-contiguous
    (6, ..., N*N) array of flattened pair matrices.

    Its six slices are the log-determinant part of delta and the five
    :func:`_fold` constants, each written in place.  ``gram_abs2``
    (..., N, N) and ``norms_sq`` (..., N) may carry leading stack axes.  The
    diagonal, whose delta is exactly 0, gets mu = 0.

    Generic pairs, both eigenvalues nonzero, are evaluated densely: their
    threshold is 0, ``nl`` the negated eigenvalue and ``ratio`` the
    eigenvalue over lam2 - lam1, as :func:`_fold` gives them.  The rest,
    pairs with an eigenvalue within ``ZERO_EIG_RTOL`` of zero (aligned
    pairs among them), get :func:`_fold`'s constants by index.
    """
    lam1, lam2 = pair_eigs(gram_abs2, norms_sq, snr)
    n = lam1.shape[-1]
    diag = np.arange(n)
    consts = np.empty((6, *lam1.shape))
    logdet_diff, thr, nl_low, nl_high, ratio_low, ratio_high = consts
    np.negative(lam2, out=nl_low)
    # With lam1 >= 0 >= lam2, the two tests of _fold in one: the smaller
    # magnitude exceeds ZERO_EIG_RTOL * max(1, larger magnitude).  A wrong
    # sign (an underflowed trace^2) fails it there too.
    scale = np.maximum(lam1, nl_low, out=ratio_high)
    np.maximum(scale, 1.0, out=scale)
    scale *= ZERO_EIG_RTOL
    generic = np.minimum(lam1, nl_low) > scale
    generic[..., diag, diag] = True  # its constants are set below
    gap = np.subtract(lam2, lam1, out=ratio_high)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 only where set below
        np.divide(lam2, gap, out=ratio_low)
        np.divide(lam1, gap, out=ratio_high)
    np.negative(lam1, out=nl_high)
    thr[...] = 0.0
    at = np.flatnonzero(~generic)
    if len(at):
        consts.reshape(6, -1)[1:, at] = _fold(np.take(lam1, at), np.take(lam2, at))
    # _fold's constants for lam1 = lam2 = 0, except the threshold, which
    # stays 0: with P(0 <= 0) = 1 the diagonal's mu would be 1
    for term, value in zip(consts[2:], (np.inf, -np.inf, 0.0, 0.0)):
        term[..., diag, diag] = value
    logdet = np.log1p(snr * np.asarray(norms_sq, dtype=float))
    np.subtract(logdet[..., :, None], logdet[..., None, :], out=logdet_diff)
    return consts.reshape(*consts.shape[:-2], n * n)


def _rows_mu(prior: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """(..., U, U) mu of positive priors from their columns'
    :func:`_pair_constants` array (6, ..., U*U).

    Row index is the true hypothesis, column index the competitor.  A (G, U)
    block against the constants of one sensing matrix gives (G, U, U); one
    (U,) prior against those of a (B,) stack gives (B, U, U).
    """
    u = prior.shape[-1]
    log_prior = np.log(prior)
    # C order keeps the pair axes innermost for every later elementwise
    # pass; broadcasting alone can put the prior-row axis there.
    delta = np.add(
        log_prior[..., None, :] - log_prior[..., :, None],
        consts[0].reshape(*consts.shape[1:-1], u, u),
        order="C",
    )
    mu = _mu(delta.reshape(*delta.shape[:-2], u * u), consts[1:])
    return mu.reshape(delta.shape)


def _bounds(rows: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """Bounds of positive priors (..., U), shaped as :func:`_rows_mu`'s rows:
    each item's row sums weighted by its prior in a dot product of its own,
    in C order, so no item's bits depend on its batch or its rows' layout."""
    rows = np.ascontiguousarray(rows)
    sums = _rows_mu(rows, consts).sum(axis=-1)
    return np.matmul(rows[..., None, :], sums[..., :, None])[..., 0, 0]


def gamma_ub(
    prior: np.ndarray, gram_abs2: np.ndarray, norms_sq: np.ndarray, snr: float
) -> np.ndarray | float:
    """Union upper bounds on the tracking error probability (unclamped) of
    an (F, N) block of priors, as (F,), against the Gram data ``gram_abs2``
    (N, N) and ``norms_sq`` (N) of one sensing matrix; or of one (N,) prior
    against one, as a float, or against a (B,) stack of them, as (B,).

    Each row is scored on its effective support, the entries above
    ``LOG_EPS / (2 N^2)``, so each result lies within ``LOG_EPS`` absolute,
    plus a few ulp of rounding, of the bound on every positive entry (see
    the module docstring); a row with no positive entry at or below the
    threshold keeps those bits exactly.

    Each result equals the call on its row and its sensing matrix alone,
    bit for bit.  Every prior-independent pair term is computed once, on
    the union of the rows' effective supports.  A block of rows is scored in
    groups of equal effective support, each gathered once, with its pair
    constants, and scored at most ``STEP_PAIRS`` pairs at a time.
    """
    prior = np.asarray(prior, dtype=float)
    block = prior.reshape(-1, prior.shape[-1])
    norms_sq = np.asarray(norms_sq, dtype=float)
    stack = norms_sq.shape[:-1]
    if len(block) > 1 and stack:
        raise ValueError("a block of priors is scored against one sensing matrix")
    support = block > LOG_EPS / (2 * block.shape[-1] ** 2)
    union = np.flatnonzero(support.any(axis=0))
    u = len(union)
    if u < block.shape[-1]:
        # cut hypotheses contribute no pair, as true or as competitor
        gram_abs2 = gram_abs2[..., union[:, None], union]
        norms_sq = norms_sq[..., union]
    consts = _pair_constants(gram_abs2, norms_sq, snr)
    out = np.zeros((len(block), *stack))
    if len(block) == 1:
        # one row, as in every design call: its support is the union
        out[0] = _bounds(block[0, union], consts)
    elif u:
        # One bytes key per row: sorting a 1-D void array is much cheaper
        # than np.unique(axis=0) and yields the same groups.
        packed = np.ascontiguousarray(np.packbits(support[:, union], axis=1))
        keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
        _, first, which, counts = np.unique(
            keys, return_index=True, return_inverse=True, return_counts=True
        )
        groups = np.split(np.argsort(which, kind="stable"), np.cumsum(counts)[:-1])
        for rows, row in zip(groups, first):
            pos = np.flatnonzero(support[row, union])
            sub = np.take(consts, (pos[:, None] * u + pos).ravel(), axis=-1)
            group = block[rows[:, None], union[pos]]
            step = step_items(len(pos))
            for lo in range(0, len(rows), step):
                out[rows[lo : lo + step]] = _bounds(group[lo : lo + step], sub)
    if prior.ndim > 1:
        return out
    return out[0] if stack else float(out[0])
