"""Training-beam design: particle-swarm search and the directional baseline.

The search space is the raw phase matrix of the beams, so the per-entry
modulus constraint holds by construction; a design is its (n_tx, M) phase
matrix, and :func:`beamtrack.tracking.sensing_matrix` builds every sensing
matrix from phases, one swarm batch or one design at a time.  The objective
is the union upper bound on the tracking error probability for the design
prior.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from math import comb

import numpy as np

from . import kernels
from .arraymodel import Codebook, MarkovModel
from .tracking import Belief, SensingMatrix, sensing_matrix

__all__ = [
    "DESIGNED",
    "PsaConfig",
    "OptimizationResult",
    "DesignedBeams",
    "optimize_beams",
    "select_directional_pair",
    "directional_mode",
    "steering_phases",
    "BeamScheduler",
]

# Codeword-subset search is exhaustive up to this many candidates, else greedy.
MAX_EXHAUSTIVE_CANDIDATES = 1_000_000
# The policies whose beams :class:`BeamScheduler` designs.
DESIGNED = ("psa_optimized", "directional_tep")


def check_int(name: str, value, lo: int, hi: float = np.inf) -> None:
    """Raise a ValueError naming ``name`` unless ``value`` is an integer, not
    a bool, in [lo, hi]."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < lo:
        raise ValueError(f"{name} must be >= {lo}, got {value}")
    if value > hi:
        raise ValueError(f"{name} must be <= {hi}, got {value}")


def check_real(name: str, value, lo: float, hi: float = np.inf, *, open_lo=False) -> None:
    """Raise a ValueError naming ``name`` unless ``value`` is a real number,
    not a bool or a string, that is finite and lies in [lo, hi], or in
    (lo, hi] when ``open_lo``.  nan lies in no range."""
    real = isinstance(value, (int, float, np.integer, np.floating))
    if isinstance(value, bool) or not real:
        raise ValueError(f"{name} must be a number, got {value!r}")
    inside = (lo < value if open_lo else lo <= value) and value <= hi
    if not (inside and abs(value) <= np.finfo(float).max):  # a finite double
        span = f"{'(' if open_lo else '['}{lo:g}, {hi:g}{']' if hi < np.inf else ')'}"
        raise ValueError(f"{name} must be finite and lie in {span}, got {value!r}")


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
        check_int("psa.swarm_size", self.swarm_size, 2)
        check_int("psa.max_iters", self.max_iters, 1)
        check_int("psa.seed", self.seed, 0)
        check_int("psa.stall_iters", self.stall_iters, 1)
        check_real("psa.inertia", self.inertia, 0.0, 1.0, open_lo=True)
        for name in ("cognitive_coeff", "social_coeff"):
            check_real(f"psa.{name}", getattr(self, name), 0.0, open_lo=True)
        # the initial velocities are uniform on [-clamp, clamp], whose width
        # must stay a finite double
        check_real(
            "psa.velocity_clamp", self.velocity_clamp, 0.0, np.finfo(float).max / 2,
            open_lo=True,
        )
        check_real("psa.stall_tol", self.stall_tol, 0.0)


@dataclass(frozen=True)
class OptimizationResult:
    phases: np.ndarray
    score: float
    history: tuple[float, ...]
    evaluations: int


def _phase_scores(
    phases: np.ndarray, columns: np.ndarray, prior: np.ndarray, snr: float
) -> np.ndarray:
    """Union bounds of the (B, n_tx, M) phase matrices, scored in batches.

    ``columns`` holds the codebook columns on the prior's support and
    ``prior`` the matching (S,) probabilities.
    """
    scores = np.empty(len(phases))
    step = kernels.ref.step_items(len(prior))
    for lo in range(0, len(phases), step):
        stack = sensing_matrix(phases[lo : lo + step], columns)
        scores[lo : lo + step] = kernels.gamma_ub(prior, stack.gram_abs2, stack.col_norms_sq, snr)
    return scores


def _support(prior: Belief) -> tuple[np.ndarray, np.ndarray]:
    """Support indices of the prior and its probabilities on them."""
    idx = np.flatnonzero(prior.probs > 0.0)
    return idx, prior.probs[idx]


def steering_phases(codebook: Codebook, indices) -> np.ndarray:
    """Phase matrix of the codebook steering vectors at the given indices."""
    angles = codebook.angles[np.asarray(indices, dtype=int)]
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
) -> tuple[tuple[int, ...], float]:
    """Best size-``m_beams`` codeword subset under the union-bound score.

    Exhaustive over all subsets within the candidate budget; among scores
    equal in floating point the lexicographically smallest index set wins.
    Subsets tied only mathematically (circular shifts of one subset under a
    uniform prior) score differently in their last bits, so rounding picks
    among them.  Beyond the budget the search is greedy, adding one codeword
    at a time (see :func:`directional_mode`).
    """
    n = codebook.n_points
    if not 1 <= m_beams <= n:
        raise ValueError("m_beams must lie in [1, n_points]")
    idx, probs = _support(prior)
    gram = codebook.matrix.conj().T @ codebook.matrix
    # row i = sensing row of codeword i, on the prior's support columns
    rows = np.sqrt(codebook.n_tx) * gram[:, idx]
    step = kernels.ref.step_items(len(idx))

    def best_of(subsets) -> tuple[tuple[int, ...], float]:
        """First subset with the lowest score, scoring in batches."""
        best, best_score = (), np.inf
        while block := list(islice(subsets, step)):
            block = np.array(block, dtype=int)
            stack = SensingMatrix(matrix=rows[block])
            scores = kernels.gamma_ub(probs, stack.gram_abs2, stack.col_norms_sq, snr)
            k = int(np.argmin(scores))
            if scores[k] < best_score:
                best, best_score = tuple(int(i) for i in block[k]), float(scores[k])
        return best, best_score

    if directional_mode(n, m_beams) == "exhaustive":
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
    directional: tuple[int, ...],
) -> OptimizationResult:
    """Particle-swarm minimization of the union bound over beam phases.

    The swarm is seeded with steering vectors at the ``directional``
    codeword indices, the baseline that :func:`select_directional_pair`
    returns for this prior, and at the prior's strongest modes, so the
    result never scores worse than either candidate.  Deterministic given
    ``config.seed``.
    """
    if not 1 <= m_beams <= codebook.n_points:
        raise ValueError("m_beams must lie in [1, n_points]")
    shape = (config.swarm_size, codebook.n_tx, m_beams)
    rng = np.random.default_rng(config.seed)

    top_modes = np.sort(np.argsort(prior.probs, kind="stable")[::-1][:m_beams])
    positions = rng.uniform(0.0, 2.0 * np.pi, size=shape)
    positions[0] = steering_phases(codebook, directional)
    positions[1] = steering_phases(codebook, top_modes)
    velocities = rng.uniform(-config.velocity_clamp, config.velocity_clamp, size=shape)
    velocities[:2] = 0.0

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
    r1, r2, pull = (np.empty_like(positions) for _ in range(3))
    for _ in range(config.max_iters):
        # v = w v + (c1 r1) (pbest - x) + (c2 r2) (gbest - x), in place and
        # in that order; random(out=) draws the bits of uniform(size=)
        rng.random(out=r1)
        rng.random(out=r2)
        r1 *= config.cognitive_coeff
        r1 *= np.subtract(best_positions, positions, out=pull)
        r2 *= config.social_coeff
        r2 *= np.subtract(global_best, positions, out=pull)
        velocities *= config.inertia
        velocities += r1
        velocities += r2
        np.clip(velocities, -config.velocity_clamp, config.velocity_clamp, out=velocities)
        positions += velocities
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

    return OptimizationResult(
        phases=global_best,
        score=global_score,
        history=tuple(history),
        evaluations=evaluations,
    )


def _present(keys: np.ndarray) -> np.ndarray:
    """The distinct values of the nonnegative integer ``keys``, sorted, as
    np.unique gives them.  Plain np.unique imports numpy.ma on numpy 2, which
    costs a run about 0.7 MB of resident memory and 10-17 ms."""
    return np.flatnonzero(np.bincount(keys.ravel()))


@dataclass(frozen=True)
class DesignedBeams:
    """A beam design's phases bundled with its sensing matrix and bound
    score."""

    phases: np.ndarray
    sensing: SensingMatrix
    score: float
    codeword_indices: tuple[int, ...] | None = None


class BeamScheduler:
    """Per-period beam design for both designed policies, with caching.

    Each period's beams are designed for the prior propagated from the
    previous point estimate, ``model.transition[index]``.  A per-element
    phase ramp moves every beam's gain pattern by k grid steps, so the
    design for row ``model.canonical[index]`` ramped by ``model.shift[index]``
    serves ``index`` with the same bound: its sensing matrix is the
    canonical one with the columns rolled by the shift (exact; rebuilding
    from the ramped beams would differ in the last bits, <= 2.6e-13 at
    N=64), and its bound on a prior is the canonical design's bound on that
    prior rolled back by the shift.  So designs are cached by policy and
    canonical index (the SNR is fixed at construction): one per policy under
    wrap, at most 2 * sigma + 1 under truncate.  The directional search on a
    canonical prior runs once and serves both the directional design and the
    PSA seed.  :meth:`serve` and :meth:`log_bounds` alone apply the symmetry.
    """

    def __init__(
        self,
        model: MarkovModel,
        codebook: Codebook,
        snr: float,
        m_beams: int,
        psa_config: PsaConfig | None = None,
    ):
        if model.n_points != codebook.n_points:
            raise ValueError("model and codebook grids differ")
        self.model = model
        self.codebook = codebook
        self.snr = float(snr)
        self.m_beams = int(m_beams)
        self.psa_config = psa_config or PsaConfig()
        self.design_count = 0
        self._designs: dict[tuple[str, int], DesignedBeams] = {}
        self._searches: dict[int, tuple[tuple[int, ...], float]] = {}

    def _design(self, policy: str, index: int) -> DesignedBeams:
        self.design_count += 1
        prior = Belief(self.model.transition[index])
        if index not in self._searches:
            self._searches[index] = select_directional_pair(
                prior, self.codebook, self.snr, self.m_beams
            )
        indices, score = self._searches[index]
        if policy == "directional_tep":
            phases = steering_phases(self.codebook, indices)
        else:
            result = optimize_beams(
                prior, self.codebook, self.snr, self.m_beams, self.psa_config, indices
            )
            phases, score, indices = result.phases, result.score, None
        return DesignedBeams(
            phases=phases,
            sensing=sensing_matrix(phases, self.codebook.matrix),
            score=score,
            codeword_indices=indices,
        )

    def beams_for_index(self, policy: str, index: int) -> DesignedBeams:
        """``policy``'s design for the canonical row of ``index``, which
        :meth:`serve` rolls by the row's shift to serve ``index``."""
        if policy not in DESIGNED:
            raise ValueError(f"unknown design policy {policy!r}")
        key = int(self.model.canonical[index])
        designed = self._designs.get((policy, key))
        if designed is None:
            designed = self._designs[policy, key] = self._design(policy, key)
        return designed

    def design_all(self, policies) -> None:
        """Design every canonical index for each of ``policies``, so that a
        copy of this scheduler, such as a pool worker's, designs nothing."""
        for policy in policies:
            for key in _present(self.model.canonical):
                self.beams_for_index(policy, int(key))

    def serve(
        self, policy: str, prev_est: np.ndarray, priors: np.ndarray
    ) -> tuple[SensingMatrix, np.ndarray, np.ndarray]:
        """Beams for a block of frames whose previous point estimates are
        the (F,) ``prev_est`` and whose propagated priors are the (F, N)
        ``priors``.

        Returns each frame's (F, M, N) sensing matrices, its prior rolled
        back by its shift into its design's coordinates, and its canonical
        index, the key that :meth:`log_bounds` takes with that prior.
        """
        n = self.model.n_points
        keys, shifts = self.model.canonical[prev_est], self.model.shift[prev_est]
        rolled = np.take_along_axis(priors, (np.arange(n) + shifts[:, None]) % n, axis=1)
        designs = _present(keys)
        which = np.searchsorted(designs, keys)
        matrices = np.stack([self.beams_for_index(policy, k).sensing.matrix for k in designs])
        cols = (np.arange(n) - shifts[:, None]) % n
        served = matrices[which[:, None, None], np.arange(self.m_beams)[:, None], cols[:, None, :]]
        return SensingMatrix(matrix=served), rolled, keys

    def log_bounds(self, policy: str, priors: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Union bound of each stored prior against the design at its key.

        ``priors`` (..., N) holds priors as :meth:`serve` returns them, and
        ``keys`` (...) their designed indices.  One kernel call scores the
        priors of each designed index; a block with one (every wrap block)
        is scored in place.  Returns the bounds in the shape of ``keys``.
        """
        flat = priors.reshape(-1, priors.shape[-1])
        keys = keys.ravel()
        out = np.empty(len(keys))
        for key in _present(keys):
            rows = np.flatnonzero(keys == key)
            sensing = self.beams_for_index(policy, int(key)).sensing
            out[rows] = kernels.gamma_ub(
                flat if len(rows) == len(flat) else flat[rows],
                sensing.gram_abs2,
                sensing.col_norms_sq,
                self.snr,
            )
        return out.reshape(priors.shape[:-1])
