"""Angular grid, steering vectors, codebook, and Markov AoD dynamics.

The transmitter is a uniform linear array with ``n_tx`` elements.  Directions
are handled as normalized angles (phase progression per element, radians).
The angle of departure lives on a uniform grid of ``n_points`` angles and
hops between grid points following a banded Markov chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Codebook",
    "MarkovModel",
    "steering_vector",
    "build_grid",
    "build_codebook",
    "build_markov",
]


def steering_vector(theta: float, n_tx: int) -> np.ndarray:
    """Unit-norm array response for normalized angle ``theta``.

    Entry k is exp(j*k*theta)/sqrt(n_tx), k = 0..n_tx-1.
    """
    if n_tx < 1:
        raise ValueError(f"n_tx must be >= 1, got {n_tx}")
    if not np.isfinite(theta):
        raise ValueError("theta must be finite")
    return np.exp(1j * theta * np.arange(n_tx)) / np.sqrt(n_tx)


def _wrap_angle(theta: np.ndarray) -> np.ndarray:
    return np.mod(theta + np.pi, 2.0 * np.pi) - np.pi


def build_grid(n_points: int) -> np.ndarray:
    """Grid angles pi/N + 2*pi*n/N for n = 0..N-1, wrapped to [-pi, pi).

    Index order follows the raw grid, so adjacent indices are angular
    neighbours circularly.
    """
    if n_points < 2:
        raise ValueError(f"n_points must be >= 2, got {n_points}")
    raw = np.pi / n_points + 2.0 * np.pi * np.arange(n_points) / n_points
    return _wrap_angle(raw)


@dataclass(frozen=True)
class Codebook:
    """Steering vectors at all grid angles, stacked as columns (n_tx x N)."""

    n_tx: int
    angles: np.ndarray
    matrix: np.ndarray

    @property
    def n_points(self) -> int:
        return len(self.angles)


def build_codebook(angles: np.ndarray, n_tx: int) -> Codebook:
    cols = np.stack([steering_vector(th, n_tx) for th in angles], axis=1)
    return Codebook(n_tx=n_tx, angles=angles, matrix=cols)


@dataclass(frozen=True)
class MarkovModel:
    """Banded row-stochastic transition matrix over grid indices.

    Within a window of ``sigma`` index steps the hop probability decays as
    beta**distance; outside the window it is zero.  The edge mode of
    :func:`build_markov` sets whether index distance wraps around the grid
    ("wrap") or the window is clipped at the edges with per-row
    renormalization ("truncate").

    ``canonical`` and ``shift`` give each row's shift class: row k is row
    ``canonical[k]`` rolled by ``shift[k]`` index steps, up to rounding in
    the last bit of the normalization.  Under wrap every row is row 0
    rolled by k; under truncate a window inside the grid (sigma <= k <
    N - sigma) is row sigma rolled by k - sigma, and an edge row is its own
    class.  The map comes from the construction, not from comparing rows.
    """

    transition: np.ndarray
    canonical: np.ndarray
    shift: np.ndarray

    @property
    def n_points(self) -> int:
        return self.transition.shape[0]

    @cached_property
    def transition_cdf(self) -> np.ndarray:
        """Row-wise CDF of ``transition``, each row divided by its last entry
        as ``Generator.choice`` normalizes ``p``."""
        cdf = np.cumsum(self.transition, axis=1)
        return cdf / cdf[:, -1:]


def build_markov(
    n_points: int, beta: float, sigma: int, edge_mode: str = "wrap"
) -> MarkovModel:
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if n_points < 2 * sigma + 1:
        raise ValueError(
            f"n_points={n_points} too small for sigma={sigma} (window self-overlap)"
        )
    if edge_mode not in ("wrap", "truncate"):
        raise ValueError(f"unknown edge_mode {edge_mode!r}")

    idx = np.arange(n_points)
    dist = np.abs(idx[None, :] - idx[:, None])
    if edge_mode == "wrap":
        dist = np.minimum(dist, n_points - dist)
        canonical, shift = np.zeros_like(idx), idx
    else:
        inside = (sigma <= idx) & (idx < n_points - sigma)
        canonical = np.where(inside, sigma, idx)
        shift = np.where(inside, idx - sigma, 0)

    # 0**0 == 1: beta = 0 yields the identity chain.
    if beta == 0.0:
        weights = (dist == 0).astype(float)
    else:
        weights = np.where(dist <= sigma, float(beta) ** dist, 0.0)
    transition = weights / weights.sum(axis=1, keepdims=True)
    return MarkovModel(transition, canonical, shift)
