"""Training-beam design: particle-swarm search and the directional baseline.

The search space is the raw phase matrix of the beams, so the per-entry
modulus constraint holds by construction.  The objective is the union upper
bound on the tracking error probability for the design prior.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, islice
from math import comb

import numpy as np

from . import kernels
from .arraymodel import Codebook, MarkovModel
from .tracking import Belief, BeamMatrix, SensingMatrix, sensing_matrix

__all__ = [
    "PsaConfig",
    "OptimizationResult",
    "DesignedBeams",
    "beam_objective",
    "optimize_beams",
    "select_directional_pair",
    "directional_mode",
    "steering_phases",
    "BeamScheduler",
]

# Exhaustive codeword-subset search refuses beyond this many candidates.
MAX_EXHAUSTIVE_CANDIDATES = 1_000_000
# Hypothesis pairs (batch x support x support) per batched bound-kernel call.
# The kernel holds about 30 temporaries of this many doubles, so this caps
# them near 2 MB whatever the swarm size, subset count or prior support; at
# 1 << 16 they raised the peak RSS of a 64-point beta sweep by 23%.  A
# 50-particle swarm on an 11-point support still fits in one call.
BATCH_PAIRS = 1 << 13


@dataclass(frozen=True)
class PsaConfig:
    """Swarm hyperparameters; standard constriction-equivalent defaults."""

    swarm_size: int = 50
    max_iters: int = 200
    inertia: float = 0.72
    cognitive_coeff: float = 1.49
    social_coeff: float = 1.49
    velocity_clamp: float = np.pi
    seed: int = 0
    stall_iters: int = 30
    stall_tol: float = 1e-8

    def __post_init__(self):
        for name in ("swarm_size", "max_iters", "seed", "stall_iters"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"psa.{name} must be an integer, got {value!r}")
        if self.swarm_size < 2:
            raise ValueError("swarm_size must be >= 2")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.seed < 0:
            raise ValueError(f"psa.seed must be >= 0, got {self.seed}")
        if not 0.0 < self.inertia <= 1.0:
            raise ValueError("inertia must lie in (0, 1]")
        if self.cognitive_coeff <= 0 or self.social_coeff <= 0:
            raise ValueError("acceleration coefficients must be positive")
        if self.velocity_clamp <= 0:
            raise ValueError("velocity_clamp must be positive")


@dataclass(frozen=True)
class OptimizationResult:
    beams: BeamMatrix
    score: float
    history: tuple[float, ...]
    evaluations: int


def _batch_size(n_support: int) -> int:
    return max(1, BATCH_PAIRS // (n_support * n_support))


def _bound_scores(sensing: np.ndarray, prior: np.ndarray, snr: float) -> np.ndarray:
    """Union bounds of a (B, M, S) stack of sensing matrices on the prior's
    S support columns, against that (S,) prior."""
    norms_sq = np.sum(np.abs(sensing) ** 2, axis=-2)
    gram_abs2 = np.abs(np.swapaxes(sensing.conj(), -1, -2) @ sensing) ** 2
    return kernels.gamma_ub_batch(prior, gram_abs2, norms_sq, snr)


def _phase_scores(
    phases: np.ndarray, columns: np.ndarray, prior: np.ndarray, snr: float
) -> np.ndarray:
    """Union bounds of the (B, n_tx * M) phase vectors, scored in batches.

    ``columns`` holds the codebook columns on the prior's support and
    ``prior`` the matching (S,) probabilities.
    """
    n_tx = columns.shape[0]
    scores = np.empty(len(phases))
    step = _batch_size(len(prior))
    for lo in range(0, len(phases), step):
        block = phases[lo : lo + step]
        beams = np.exp(1j * block.reshape(len(block), n_tx, -1)) / np.sqrt(n_tx)
        sensing = np.sqrt(n_tx) * np.swapaxes(beams.conj(), 1, 2) @ columns
        scores[lo : lo + step] = _bound_scores(sensing, prior, snr)
    return scores


def _support(prior: Belief) -> tuple[np.ndarray, np.ndarray]:
    """Support indices of the prior and its probabilities on them."""
    idx = np.flatnonzero(prior.probs > 0.0)
    return idx, prior.probs[idx]


def beam_objective(
    beams: BeamMatrix, codebook: Codebook, prior: Belief, snr: float
) -> float:
    """Union-bound score of a beam matrix against a design prior."""
    idx, probs = _support(prior)
    phases = beams.phases.reshape(1, -1)
    return float(_phase_scores(phases, codebook.matrix[:, idx], probs, snr)[0])


def steering_phases(codebook: Codebook, indices) -> np.ndarray:
    """Phase matrix of the codebook steering vectors at the given indices."""
    angles = codebook.grid.angles[np.asarray(indices, dtype=int)]
    return np.outer(np.arange(codebook.n_tx), angles)


def directional_mode(n_points: int, m_beams: int) -> str:
    """Exhaustive subset search when within the candidate budget, else greedy."""
    if comb(n_points, m_beams) > MAX_EXHAUSTIVE_CANDIDATES:
        return "greedy"
    return "exhaustive"


def select_directional_pair(
    prior: Belief,
    codebook: Codebook,
    snr: float,
    m_beams: int,
    mode: str = "exhaustive",
) -> tuple[tuple[int, ...], float]:
    """Best size-``m_beams`` codeword subset under the union-bound score.

    Exhaustive over all subsets by default; among scores equal in floating
    point the lexicographically smallest index set wins.  Subsets tied only
    mathematically (circular shifts of one subset under a uniform prior)
    score differently in their last bits, so rounding picks among them.
    ``mode="greedy"`` adds one
    codeword at a time and is the fallback when the candidate count exceeds
    the exhaustive budget (see :func:`directional_mode`).
    """
    n = codebook.n_points
    if not 1 <= m_beams <= n:
        raise ValueError("m_beams must lie in [1, n_points]")
    if mode not in ("exhaustive", "greedy"):
        raise ValueError(f"unknown mode {mode!r}")
    idx, probs = _support(prior)
    gram = codebook.matrix.conj().T @ codebook.matrix
    # row i = sensing row of codeword i, on the prior's support columns
    rows = np.sqrt(codebook.n_tx) * gram[:, idx]
    step = _batch_size(len(idx))

    def best_of(subsets) -> tuple[tuple[int, ...], float]:
        """First subset with the lowest score, scoring in batches."""
        best, best_score = (), np.inf
        while block := list(islice(subsets, step)):
            block = np.array(block, dtype=int)
            scores = _bound_scores(rows[block], probs, snr)
            k = int(np.argmin(scores))
            if scores[k] < best_score:
                best, best_score = tuple(int(i) for i in block[k]), float(scores[k])
        return best, best_score

    if mode == "exhaustive":
        if directional_mode(n, m_beams) != "exhaustive":
            raise ValueError(
                "exhaustive subset search exceeds the candidate budget; "
                "use mode='greedy'"
            )
        return best_of(combinations(range(n), m_beams))
    chosen: tuple[int, ...] = ()
    for _ in range(m_beams):
        chosen, best_score = best_of((*chosen, c) for c in range(n) if c not in chosen)
    return chosen, best_score


def optimize_beams(
    prior: Belief,
    codebook: Codebook,
    snr: float,
    m_beams: int,
    config: PsaConfig,
    seed_phases: list[np.ndarray] | None = None,
    seed_directional: bool = True,
) -> OptimizationResult:
    """Particle-swarm minimization of the union bound over beam phases.

    The swarm is seeded with the directional-codeword baseline and with
    steering vectors at the prior's strongest modes, so the result never
    scores worse than either candidate.  Deterministic given ``config.seed``.
    """
    if m_beams < 1:
        raise ValueError("m_beams must be >= 1")
    n_tx = codebook.n_tx
    dim = n_tx * m_beams
    rng = np.random.default_rng(config.seed)

    seeds: list[np.ndarray] = []
    if seed_phases:
        seeds.extend(np.asarray(s, dtype=float).reshape(dim) for s in seed_phases)
    if seed_directional:
        mode = directional_mode(codebook.n_points, m_beams)
        indices, _ = select_directional_pair(prior, codebook, snr, m_beams, mode)
        seeds.append(steering_phases(codebook, indices).reshape(dim))
    top_modes = np.argsort(prior.probs, kind="stable")[::-1][:m_beams]
    if len(top_modes) == m_beams:
        seeds.append(steering_phases(codebook, np.sort(top_modes)).reshape(dim))
    seeds = seeds[: config.swarm_size]

    positions = rng.uniform(0.0, 2.0 * np.pi, size=(config.swarm_size, dim))
    for i, s in enumerate(seeds):
        positions[i] = s
    velocities = rng.uniform(
        -config.velocity_clamp, config.velocity_clamp, size=(config.swarm_size, dim)
    )
    velocities[: len(seeds)] = 0.0

    idx, probs = _support(prior)
    columns = codebook.matrix[:, idx]
    scores = _phase_scores(positions, columns, probs, snr)
    evaluations = config.swarm_size
    best_positions = positions.copy()
    best_scores = scores.copy()
    g = int(np.argmin(best_scores))
    global_best = best_positions[g].copy()
    global_score = float(best_scores[g])
    history = [global_score]

    stall = 0
    for _ in range(config.max_iters):
        r1 = rng.uniform(size=(config.swarm_size, dim))
        r2 = rng.uniform(size=(config.swarm_size, dim))
        velocities = (
            config.inertia * velocities
            + config.cognitive_coeff * r1 * (best_positions - positions)
            + config.social_coeff * r2 * (global_best[None, :] - positions)
        )
        np.clip(velocities, -config.velocity_clamp, config.velocity_clamp, out=velocities)
        positions = positions + velocities
        scores = _phase_scores(positions, columns, probs, snr)
        evaluations += config.swarm_size

        improved = scores < best_scores
        best_positions[improved] = positions[improved]
        best_scores[improved] = scores[improved]
        g = int(np.argmin(best_scores))
        if best_scores[g] < global_score - config.stall_tol:
            stall = 0
        else:
            stall += 1
        if best_scores[g] < global_score:
            global_score = float(best_scores[g])
            global_best = best_positions[g].copy()
        history.append(global_score)
        if stall >= config.stall_iters:
            break

    beams = BeamMatrix(phases=global_best.reshape(n_tx, m_beams))
    return OptimizationResult(
        beams=beams,
        score=global_score,
        history=tuple(history),
        evaluations=evaluations,
    )


@dataclass(frozen=True)
class DesignedBeams:
    """A beam design bundled with its sensing matrix and bound score.

    A design derived by a circular shift records its ``base`` design and the
    ``roll``: its sensing matrix is the base's with the columns rolled by
    ``roll``.  Any other design is its own base with roll 0.
    """

    beams: BeamMatrix
    sensing: SensingMatrix
    score: float
    codeword_indices: tuple[int, ...] | None = None
    base: DesignedBeams | None = field(default=None, repr=False, compare=False)
    roll: int = 0

    def __post_init__(self):
        if self.base is None:
            object.__setattr__(self, "base", self)


class BeamScheduler:
    """Per-period beam design with caching.

    Designs are keyed by a fingerprint of the design prior (and implicitly
    the SNR fixed at construction).  For the wrap-around Markov model the
    design problem is circularly shift-invariant, so designs for the prior
    propagated from a point estimate are derived from a single base design
    by a per-element phase ramp, whose sensing matrix is the base's with its
    columns rolled.
    """

    def __init__(
        self,
        model: MarkovModel,
        codebook: Codebook,
        snr: float,
        m_beams: int,
        policy: str,
        psa_config: PsaConfig | None = None,
    ):
        if policy not in ("psa_optimized", "directional_tep"):
            raise ValueError(f"unknown design policy {policy!r}")
        if model.n_points != codebook.n_points:
            raise ValueError("model and codebook grids differ")
        self.model = model
        self.codebook = codebook
        self.snr = float(snr)
        self.m_beams = int(m_beams)
        self.policy = policy
        self.psa_config = psa_config or PsaConfig()
        self.design_count = 0
        self._prior_cache: dict[bytes, DesignedBeams] = {}
        self._index_cache: dict[int, DesignedBeams] = {}

    def _design(self, prior: Belief) -> DesignedBeams:
        self.design_count += 1
        if self.policy == "directional_tep":
            mode = directional_mode(self.codebook.n_points, self.m_beams)
            indices, score = select_directional_pair(
                prior, self.codebook, self.snr, self.m_beams, mode
            )
            beams = BeamMatrix(phases=steering_phases(self.codebook, indices))
            return DesignedBeams(
                beams=beams,
                sensing=sensing_matrix(beams, self.codebook),
                score=score,
                codeword_indices=indices,
            )
        result = optimize_beams(
            prior, self.codebook, self.snr, self.m_beams, self.psa_config
        )
        return DesignedBeams(
            beams=result.beams,
            sensing=sensing_matrix(result.beams, self.codebook),
            score=result.score,
        )

    def beams_for_prior(self, prior: Belief) -> DesignedBeams:
        # Keyed by the exact bits, so the design is a function of the prior
        # alone, whatever order priors are looked up in.
        key = prior.probs.tobytes()
        cached = self._prior_cache.get(key)
        if cached is None:
            cached = self._design(prior)
            self._prior_cache[key] = cached
        return cached

    def _shift(self, base: DesignedBeams, offset: int) -> DesignedBeams:
        n = self.model.n_points
        ramp = 2.0 * np.pi * offset / n * np.arange(self.codebook.n_tx)
        beams = BeamMatrix(phases=base.beams.phases + ramp[:, None])
        indices = None
        if base.codeword_indices is not None:
            indices = tuple(sorted((i + offset) % n for i in base.codeword_indices))
        # The ramp moves every beam's gain pattern by ``offset`` grid steps, so
        # the sensing matrix is the base's with its columns rolled.  Rolling
        # makes that exact; rebuilding from the ramped beams would differ in
        # the last bits (<= 2.6e-13 at N=64).
        rolled = np.roll(base.sensing.matrix, offset, axis=-1)
        return DesignedBeams(
            beams=beams,
            sensing=SensingMatrix(matrix=rolled),
            score=base.score,
            codeword_indices=indices,
            base=base,
            roll=offset,
        )

    def beams_for_index(self, index: int) -> DesignedBeams:
        """Design for the prior propagated from a point estimate at ``index``."""
        cached = self._index_cache.get(index)
        if cached is not None:
            return cached
        if self.model.edge_mode == "wrap":
            base = self._index_cache.get(0)
            if base is None:
                base = self.beams_for_prior(Belief(self.model.transition[0]))
                self._index_cache[0] = base
            designed = base if index == 0 else self._shift(base, index)
        else:
            designed = self.beams_for_prior(Belief(self.model.transition[index]))
        self._index_cache[index] = designed
        return designed
