"""Dense references for the closed forms the tests check: the tracker's
rank-one (Sherman-Morrison) likelihood, the bound kernel's rank-two pair
eigenvalues and its four-case pair tail mu, recomputed from the pilot
covariance s s^H + I/snr with ``np.linalg``, or at 60 digits with mpmath.
Test modules import them as ``from oracles import ...``."""

from itertools import permutations

import numpy as np

from beamtrack.kernels import ref


def covariance(s, snr):
    """Pilot covariance s s^H + I/snr under the hypothesis with column s."""
    return np.outer(s, s.conj()) + np.eye(len(s)) / snr


def log_det(s, snr):
    """log |s s^H + I/snr|."""
    return np.linalg.slogdet(covariance(s, snr))[1]


def log_likelihoods(y, s, snr):
    """Complex-Gaussian log-density of pilot y under each column of s, less
    the common M log(snr): -y^H Sigma_k^-1 y - log |Sigma_k| - M log(snr)."""
    quad = [(y.conj() @ np.linalg.inv(covariance(c, snr)) @ y).real for c in s.T]
    return -np.array(quad) - [log_det(c, snr) for c in s.T] - len(y) * np.log(snr)


def brute_force_posterior(prior, y, s, snr):
    """The Bayes update of ``prior`` by pilot y, from the dense likelihoods."""
    ll = log_likelihoods(y, s, snr)
    scores = prior * np.exp(ll - ll.max())
    return scores / scores.sum()


def inverse_difference(s_k, s_n, snr):
    """Sigma_n^-1 - Sigma_k^-1, whose quadratic form in the pilot is the MAP
    test statistic of competitor n against true hypothesis k."""
    return np.linalg.inv(covariance(s_n, snr)) - np.linalg.inv(covariance(s_k, snr))


def rank_two(s_k, s_n, snr):
    """Whether :func:`inverse_difference` has at most one positive and one
    negative eigenvalue above 1e-8 of the largest magnitude."""
    ev = np.linalg.eigvalsh(inverse_difference(s_k, s_n, snr))
    significant = ev[np.abs(ev) > 1e-8 * np.abs(ev).max()]
    return np.sum(significant > 0) <= 1 and np.sum(significant < 0) <= 1


def whitened_eigvals(s_k, s_n, snr):
    """Ascending eigenvalues of the difference whitened by the ``eigh``
    square root of Sigma_k; all but the first and last vanish."""
    w, u = np.linalg.eigh(covariance(s_k, snr))
    half = np.diag(np.sqrt(w))
    return np.linalg.eigvalsh(half @ u.conj().T @ inverse_difference(s_k, s_n, snr) @ u @ half)


def mu_four_cases(l1, l2, d):
    """Scalar P(l1*E1 + l2*E2 <= d), E_i iid unit exponentials, by the four
    cases of which eigenvalue is nonzero.  A tail exp(x) with x below
    ``ref.EXP_FLOOR`` counts as 0, as in the kernel."""
    l1, l2, d = np.float64(l1), np.float64(l2), np.float64(d)
    tol = ref.ZERO_EIG_RTOL * max(1.0, abs(l1), abs(l2))
    pos, neg = l1 > tol, l2 < -tol

    def tail(x):
        return np.exp(x) if x >= ref.EXP_FLOOR else 0.0

    if pos and neg:
        if d <= 0:
            value = l2 / (l2 - l1) * tail(-d / l2)
        else:
            value = 1.0 + l1 / (l2 - l1) * tail(-d / l1)
    elif pos:
        value = 1.0 - tail(-d / l1) if d > 0 else 0.0
    elif neg:
        value = tail(-d / l2) if d < 0 else 1.0
    else:
        value = 1.0 if d >= 0 else 0.0
    return min(max(value, 0.0), 1.0)


def pair_mu(prior, lam1, lam2, logdet):
    """(N, N) :func:`mu_four_cases` of every pair of a positive prior (N,)
    at given pair eigenvalues (N, N) and log-determinants of each column's
    covariance (N,; a common offset cancels), and the pairs' deltas; row
    index the true hypothesis."""
    log_prior = np.log(prior)
    delta = (log_prior[None, :] - log_prior[:, None]) + (logdet[:, None] - logdet[None, :])
    mu = np.zeros(delta.shape)
    for k, j in permutations(range(len(prior)), 2):
        mu[k, j] = mu_four_cases(lam1[k, j], lam2[k, j], delta[k, j])
    return mu, delta


def folded_mu(lam1, lam2, delta):
    """The kernel's folded mu (the code under test) at given eigenvalues and
    thresholds, as arrays."""
    lam1, lam2, delta = (np.asarray(x, dtype=float) for x in (lam1, lam2, delta))
    return ref._mu(delta, np.stack(ref._fold(lam1, lam2)))


def gram_data(s):
    """(gram_abs2, norms_sq) of a (..., M, N) stack of sensing matrices."""
    norms_sq = np.sum(np.abs(s) ** 2, axis=-2)
    gram_abs2 = np.abs(np.swapaxes(s.conj(), -1, -2) @ s) ** 2
    return gram_abs2, norms_sq


def loop_gamma_ub(s, prior, snr):
    """The union bound of sensing matrix s on the prior's support, pair by
    pair: whitened eigenvalues, dense log-determinants, four-case mu."""
    idx = np.flatnonzero(prior)
    cols = s[:, idx].T
    ev = np.array([[whitened_eigvals(a, b, snr)[[-1, 0]] for b in cols] for a in cols])
    lam1, lam2 = np.maximum(ev[..., 0], 0), np.minimum(ev[..., 1], 0)
    mu, _ = pair_mu(prior[idx], lam1, lam2, np.array([log_det(c, snr) for c in cols]))
    return prior[idx] @ mu.sum(axis=1)


def _mp_union(mp, prior, pair):
    """sum_k p_k sum_{j != k} mu_kj at working precision, ``pair(k, j)``
    giving (lam1, lam2, log|Sigma_k| - log|Sigma_j|), both lam nonzero."""
    p = [mp.mpf(x) for x in prior]
    total = mp.mpf(0)
    for k, j in permutations(range(len(p)), 2):
        lam1, lam2, logdet_gap = pair(k, j)
        delta = mp.log(p[j] / p[k]) + logdet_gap
        if delta <= 0:
            total += p[k] * (lam2 / (lam2 - lam1) * mp.exp(-delta / lam2))
        else:
            total += p[k] * (1 + lam1 / (lam2 - lam1) * mp.exp(-delta / lam1))
    return total


def mp_gamma_ub(s, prior, snr):
    """The union bound at 60 digits from the sensing matrix itself: each
    pair's covariances, their inverses and the whitened eigenvalues."""
    import mpmath

    with mpmath.workdps(60):
        mp = mpmath.mp
        cols = [mp.matrix([[mp.mpc(complex(x))] for x in c]) for c in s.T]
        sig = [c * c.H + mp.eye(len(s)) / mp.mpf(snr) for c in cols]
        inv = [mp.inverse(x) for x in sig]
        half = [mp.cholesky(x) for x in sig]
        logdet = [mp.log(mp.re(mp.det(x))) for x in sig]

        def pair(k, j):
            # y = half_k w under k: y^H (inv_j - inv_k) y = sum_i lam_i |w_i|^2
            white = half[k].H * (inv[j] - inv[k]) * half[k]
            lam = sorted(mp.re(x) for x in mp.eighe((white + white.H) / 2, eigvals_only=True))
            return lam[-1], lam[0], logdet[k] - logdet[j]

        return _mp_union(mp, prior, pair)


def mp_gram_gamma_ub(gram_abs2, norms_sq, prior, snr):
    """The union bound at 60 digits from the kernel's float Gram data, by
    the closed form of the ``kernels.ref`` docstring (trace T, determinant
    D).  Against :func:`mp_gamma_ub` it isolates the error that rounding
    the Gram to doubles makes; against the kernel, the kernel's own."""
    import mpmath

    with mpmath.workdps(60):
        mp = mpmath.mp
        snr = mp.mpf(snr)
        q = [mp.mpf(float(x)) for x in norms_sq]

        def pair(k, n):
            g2 = mp.mpf(float(gram_abs2[k, n]))
            a, b = (snr**2 / (1 + snr * q[i]) for i in (k, n))
            uu, vv = q[k] * (q[k] + 1 / snr), g2 + q[n] / snr
            trace = a * uu - b * vv
            det = -a * b * (uu * vv - (q[k] + 1 / snr) ** 2 * g2)
            root = mp.sqrt(trace**2 - 4 * det)
            logdet_gap = mp.log1p(snr * q[k]) - mp.log1p(snr * q[n])
            return (trace + root) / 2, (trace - root) / 2, logdet_gap

        return _mp_union(mp, prior, pair)
