"""Recursive MAP tracking of the grid-quantized angle of departure.

One tracking period: propagate the previous posterior through the Markov
chain, transmit M training beams, and update the belief from the received
pilot vector.  A beam design is its (n_tx, M) phase matrix, and
:func:`sensing_matrix` alone turns phases into the sensing matrix that the
tracker and the bound read.  All likelihood algebra uses the
Sherman-Morrison and determinant-lemma closed forms of the
rank-one-plus-identity covariance (see :func:`log_likelihood_scores`) and
runs in the log domain.

Every step also takes a block of F frames at once: an (F, N) belief, (F, M)
pilot vectors and an (F, M, N) sensing matrix, one row or slice per frame.
Each frame's row is bitwise equal to what the single-frame call returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .arraymodel import MarkovModel

__all__ = [
    "DegenerateBeliefError",
    "SensingMatrix",
    "Belief",
    "PilotObservation",
    "sensing_matrix",
    "propagate_prior",
    "log_likelihood_scores",
    "posterior",
    "map_estimate",
]


class DegenerateBeliefError(ValueError):
    """Raised when a belief update starts from an all-zero prior."""


@dataclass(frozen=True)
class SensingMatrix:
    """M x N map from the grid indicator to the noiseless pilot vector, or an
    (F, M, N) stack of them, one per frame."""

    matrix: np.ndarray

    @property
    def m_beams(self) -> int:
        return self.matrix.shape[-2]

    @property
    def n_points(self) -> int:
        return self.matrix.shape[-1]

    @cached_property
    def col_norms_sq(self) -> np.ndarray:
        return np.sum(np.abs(self.matrix) ** 2, axis=-2)

    @cached_property
    def gram_abs2(self) -> np.ndarray:
        gram = np.swapaxes(self.matrix.conj(), -1, -2) @ self.matrix
        return np.abs(gram) ** 2


def sensing_matrix(phases: np.ndarray, columns: np.ndarray) -> SensingMatrix:
    """sqrt(n_tx) * F^H * A for the training beams F = exp(j * phases) / sqrt(n_tx)
    and the codebook columns A.

    ``phases`` is one (n_tx, M) design or a (B, n_tx, M) stack of them, and
    ``columns`` an (n_tx, S) selection of codebook columns.  This is the one
    place that turns beam phases into beams, so every entry has modulus
    1/sqrt(n_tx); a stacked design's sensing matrix equals the one built
    from it alone, bit for bit.
    """
    phases = np.asarray(phases, dtype=float)
    n_tx = columns.shape[0]
    if phases.shape[-2] != n_tx:
        raise ValueError(
            f"beam rows ({phases.shape[-2]}) do not match codebook rows ({n_tx})"
        )
    beams = np.multiply(1j, phases)
    np.exp(beams, out=beams)
    beams *= 1.0 / np.sqrt(n_tx)
    np.conjugate(beams, out=beams)
    beams *= np.sqrt(n_tx)
    return SensingMatrix(matrix=np.swapaxes(beams, -1, -2) @ columns)


@dataclass(frozen=True)
class Belief:
    """Probability vector over grid indices, or an (F, N) block of them with
    one row per frame."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim not in (1, 2):
            raise ValueError("belief must be a vector or an (F, N) block of them")
        if (probs < 0).any() or not np.isfinite(probs).all():
            raise ValueError("belief entries must be finite and nonnegative")
        total = probs.sum(axis=-1)
        if (total <= 0).any():
            raise DegenerateBeliefError("belief has no mass")
        off = abs(total - 1.0)
        if (off > 1e-9).any():
            worst = np.asarray(total).flat[off.argmax()]
            raise ValueError(f"belief must sum to 1, got {worst}")
        object.__setattr__(self, "probs", probs)

    @classmethod
    def point_mass(cls, n_points: int, index: int) -> "Belief":
        probs = np.zeros(n_points)
        probs[index] = 1.0
        return cls(probs)

    @classmethod
    def uniform(cls, n_points: int) -> "Belief":
        return cls(np.full(n_points, 1.0 / n_points))

    @property
    def n_points(self) -> int:
        return self.probs.shape[-1]


@dataclass(frozen=True)
class PilotObservation:
    """Received pilot vector, or (F, M) block of them, and the linear training
    SNR they were taken at."""

    y: np.ndarray
    snr: float

    def __post_init__(self):
        y = np.asarray(self.y)
        if not np.isfinite(y).all():
            raise ValueError("observation entries must be finite")
        if self.snr <= 0:
            raise ValueError("snr must be positive")
        object.__setattr__(self, "y", y)


def propagate_prior(posterior_prev: Belief, model: MarkovModel) -> Belief:
    """One Markov step of the belief: prior_k = sum_i P(k|i) * post_i.

    A block is propagated as a stack of 1 x N row-vector products, not one
    (F, N) x (N, N) matrix product, so each row keeps the single-frame bits.
    """
    if posterior_prev.n_points != model.n_points:
        raise ValueError("belief and model dimensions differ")
    probs = np.matmul(posterior_prev.probs[..., None, :], model.transition)[..., 0, :]
    return Belief(probs / probs.sum(axis=-1, keepdims=True))


def log_likelihood_scores(obs: PilotObservation, sensing: SensingMatrix) -> np.ndarray:
    """Per-hypothesis log-likelihoods of y, up to a common additive constant.

    For hypothesis k the observation is CN(0, s_k s_k^H + (1/snr) I); the
    Sherman-Morrison closed forms give
    -y^H Sigma_k^{-1} y - log|Sigma_k|
      = -snr*||y||^2 + snr^2 |s_k^H y|^2 / (1 + snr*q_k) - log(1 + snr*q_k)
    up to the hypothesis-independent M*log(snr) term.  A block of (F, M)
    pilots against (F, M, N) sensing matrices gives (F, N) scores.
    """
    snr = obs.snr
    y = obs.y
    q = sensing.col_norms_sq
    corr = np.matmul(np.swapaxes(sensing.matrix.conj(), -1, -2), y[..., None])
    corr_sq = np.abs(corr[..., 0]) ** 2
    y_sq = np.matmul(y.conj()[..., None, :], y[..., :, None])[..., 0].real
    one_plus = 1.0 + snr * q
    return -snr * y_sq + snr * snr * corr_sq / one_plus - np.log(one_plus)


def posterior(prior: Belief, obs: PilotObservation, sensing: SensingMatrix) -> Belief:
    """Bayes update of the belief from one pilot vector, in the log domain."""
    if prior.n_points != sensing.n_points:
        raise ValueError("belief and sensing dimensions differ")
    support = prior.probs > 0
    if not support.any(axis=-1).all():
        raise DegenerateBeliefError("prior has no support")
    scores = log_likelihood_scores(obs, sensing)
    with np.errstate(divide="ignore"):
        log_post = np.log(prior.probs) + scores
    log_post -= np.where(support, log_post, -np.inf).max(axis=-1, keepdims=True)
    probs = np.exp(log_post)
    probs[~support] = 0.0
    return Belief(probs / probs.sum(axis=-1, keepdims=True))


def map_estimate(belief: Belief) -> int | np.ndarray:
    """Argmax grid index, per row for a block; ties resolve to the lowest index."""
    est = np.argmax(belief.probs, axis=-1)
    return int(est) if belief.probs.ndim == 1 else est
