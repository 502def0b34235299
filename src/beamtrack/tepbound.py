"""Closed-form upper bound on the per-period tracking error probability.

For a true hypothesis kappa, a competitor n wins the MAP comparison when an
indefinite quadratic form of the whitened observation falls below a log
threshold.  The form has at most two nonzero eigenvalues (one >= 0, one <= 0),
so its tail probability has a closed form in terms of unit exponentials.
Summing the pairwise misdetection probabilities, weighted by the prior, gives
the union upper bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .tracking import Belief, SensingMatrix

__all__ = [
    "PairTerm",
    "TepBreakdown",
    "pair_eigenvalues",
    "mu_pair",
    "delta_threshold",
    "tep_upper_bound",
]


@dataclass(frozen=True)
class PairTerm:
    """Diagnostics for one (true kappa, competitor n) hypothesis pair."""

    kappa: int
    n: int
    lambda1: float
    lambda2: float
    delta: float
    mu: float


@dataclass(frozen=True)
class TepBreakdown:
    """Union bound value plus optional per-pair terms.

    ``gamma_ub`` is the raw union sum and may exceed 1; ``clamped`` is the
    [0, 1]-truncated convenience value.
    """

    gamma_ub: float
    clamped: float
    terms: tuple[PairTerm, ...] = ()


def pair_eigenvalues(
    s_kappa: np.ndarray, s_n: np.ndarray, snr: float
) -> tuple[float, float]:
    """Extreme eigenvalues of the whitened inverse-covariance difference.

    This is the spectrum of D^{1/2} U^H (Sigma_n^{-1} - Sigma_kappa^{-1}) U
    D^{1/2} with Sigma_kappa = U D U^H; all but two eigenvalues vanish, and
    the surviving pair reduces to scalars built from ||s_kappa||^2,
    ||s_n||^2 and |s_kappa^H s_n|^2.
    """
    if snr <= 0:
        raise ValueError("snr must be positive")
    s_kappa = np.asarray(s_kappa)
    s_n = np.asarray(s_n)
    if s_kappa.shape != s_n.shape:
        raise ValueError("pair vectors must have identical shape")
    pair = np.stack([s_kappa.ravel(), s_n.ravel()], axis=1)
    norms_sq = np.sum(np.abs(pair) ** 2, axis=0)
    gram_abs2 = np.abs(pair.conj().T @ pair) ** 2
    lam1, lam2, _, _ = kernels.pair_terms(np.full(2, 0.5), gram_abs2, norms_sq, snr)
    return float(lam1[0, 1]), float(lam2[0, 1])


def mu_pair(lambda1: float, lambda2: float, delta: float) -> float:
    """P(lambda1*E1 + lambda2*E2 <= delta) for iid unit exponentials E1, E2.

    Requires lambda1 >= 0 >= lambda2.  Eigenvalues within a relative
    threshold of zero are treated as zero when picking the case.
    """
    if lambda1 < 0 or lambda2 > 0:
        raise ValueError("mu_pair requires lambda1 >= 0 >= lambda2")
    return float(kernels.mu_cases(lambda1, lambda2, delta))


def delta_threshold(
    prior_kappa: float, prior_n: float, det_kappa: float, det_n: float
) -> float:
    """Log decision threshold ln(prior_n * det_kappa / (prior_kappa * det_n)).

    Extended values: a zero true-hypothesis prior gives +inf (the term is
    weighted by that same zero prior), a zero competitor prior gives -inf.
    """
    if det_kappa <= 0 or det_n <= 0:
        raise ValueError("determinants must be positive")
    if prior_kappa < 0 or prior_n < 0:
        raise ValueError("priors must be nonnegative")
    if prior_kappa == 0.0:
        return np.inf
    if prior_n == 0.0:
        return -np.inf
    return float(
        np.log(prior_n) + np.log(det_kappa) - np.log(prior_kappa) - np.log(det_n)
    )


def tep_upper_bound(
    prior: Belief,
    sensing: SensingMatrix,
    snr: float,
    include_terms: bool = False,
) -> TepBreakdown:
    """Union upper bound on the tracking error probability for one period."""
    if prior.n_points != sensing.n_points:
        raise ValueError("belief and sensing dimensions differ")
    if snr <= 0:
        raise ValueError("snr must be positive")
    norms_sq = sensing.col_norms_sq
    gram_abs2 = sensing.gram_abs2
    value = kernels.gamma_ub(prior.probs, gram_abs2, norms_sq, snr)
    terms: tuple[PairTerm, ...] = ()
    if include_terms:
        lam1, lam2, delta, mu = kernels.pair_terms(
            prior.probs, gram_abs2, norms_sq, snr
        )
        collected = []
        for k in np.flatnonzero(prior.probs > 0):
            for n in range(prior.n_points):
                if n == int(k):
                    continue
                collected.append(
                    PairTerm(
                        kappa=int(k),
                        n=int(n),
                        lambda1=float(lam1[k, n]),
                        lambda2=float(lam2[k, n]),
                        delta=float(delta[k, n]),
                        mu=float(mu[k, n]),
                    )
                )
        terms = tuple(collected)
    return TepBreakdown(
        gamma_ub=float(value), clamped=float(min(max(value, 0.0), 1.0)), terms=terms
    )
