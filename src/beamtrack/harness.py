"""Monte-Carlo experiment engine: tracking error rates per period, per
Markov-rate value, and per SNR, with the union bound logged alongside.

Frames are independent; every random draw is keyed by (seed, frame, period),
so runs are reproducible bit-for-bit and different beam policies see the
same channel trajectories and noise (common random numbers).  Frames run in
blocks that advance one tracking period at a time; each frame's trial rows
equal those of a frame-by-frame loop bit for bit.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import kernels
from .arraymodel import build_codebook, build_grid, build_markov
from .optimizer import BeamScheduler, PsaConfig
from .tracking import (
    Belief,
    BeamMatrix,
    PilotObservation,
    SensingMatrix,
    map_estimate,
    posterior,
    propagate_prior,
    sensing_matrix,
)

__all__ = [
    "POLICIES",
    "ExperimentConfig",
    "TRIAL_DTYPE",
    "SummaryRow",
    "run_experiment",
    "sweep",
    "beam_cycling_probes",
    "beam_cycling_estimate",
]

POLICIES = ("psa_optimized", "directional_tep", "beam_cycling")
INT_FIELDS = ("n_tx", "n_grid", "m_beams", "sigma", "p_ttis", "n_frames", "seed")

# Frames advanced together, one tracking period at a time.  A block's
# beliefs, sensing matrices and noise take O(BLOCK_FRAMES * N * M) memory
# whatever n_frames is.
BLOCK_FRAMES = 256

TRIAL_DTYPE = np.dtype(
    [
        ("frame", "i4"),
        ("tti", "i2"),
        ("true_index", "i2"),
        ("est_index", "i2"),
        ("error", "i1"),
        ("gamma_ub", "f8"),
    ]
)


@dataclass(frozen=True)
class SummaryRow:
    group_key: str
    policy: str
    tep_mean: float
    tep_stderr: float
    mean_gamma_ub: float
    n_frames: int


@dataclass(frozen=True)
class ExperimentConfig:
    """Experiment settings; defaults mirror the reference study setup."""

    n_tx: int = 32
    n_grid: int = 64
    m_beams: int = 2
    sigma: int = 5
    p_ttis: int = 10
    beta: float | list = 0.2
    snr_db: float | list = 10.0
    n_frames: int = 10_000
    policy: str | list = "psa_optimized"
    psa: PsaConfig = field(default_factory=PsaConfig)
    seed: int = 0
    edge_mode: str = "wrap"
    noiseless: bool = False
    design_prior: str = "estimate"

    def __post_init__(self):
        for name in INT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.psa, PsaConfig):
            raise ValueError(f"psa must be an object of swarm settings, got {self.psa!r}")
        for pol in self.policies:
            if pol not in POLICIES:
                raise ValueError(f"unknown policy {pol!r}")
        if self.design_prior not in ("estimate", "belief"):
            raise ValueError(f"unknown design_prior {self.design_prior!r}")
        if self.p_ttis < 2:
            raise ValueError("p_ttis must be >= 2")
        if self.n_frames < 1:
            raise ValueError("n_frames must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def policies(self) -> tuple[str, ...]:
        if isinstance(self.policy, str):
            return (self.policy,)
        return tuple(self.policy)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["policy"] = list(self.policies)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = dict(d)
        psa = d.pop("psa", None)
        if isinstance(psa, dict):
            d["psa"] = PsaConfig(**psa)
        elif psa is not None:
            d["psa"] = psa
        unknown = set(d) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**d)


def _require_scalar(value, name: str) -> float:
    if isinstance(value, (list, tuple, np.ndarray)):
        raise ValueError(f"{name} must be scalar for a single experiment run")
    return float(value)


def beam_cycling_probes(n_tx: int, codebook) -> SensingMatrix:
    """Sensing matrix of the n_tx-direction probe sweep baseline.

    Probes are steering vectors at a uniform grid of n_tx angles (mutually
    orthogonal), one channel use per direction.
    """
    probe_grid = build_grid(n_tx)
    beams = BeamMatrix(
        phases=np.outer(np.arange(n_tx), probe_grid.angles)
    )
    return sensing_matrix(beams, codebook)


def beam_cycling_estimate(y: np.ndarray, sensing: SensingMatrix) -> int | np.ndarray:
    """Single-atom matched filter: argmax of |s_n^H y| over grid columns.

    An (F, n_tx) block of pilot vectors gives the (F,) estimates.
    """
    y = np.asarray(y)
    corr = np.matmul(sensing.matrix.conj().T, y[..., None])[..., 0]
    est = np.argmax(np.abs(corr), axis=-1)
    return int(est) if y.ndim == 1 else est


def _trajectories(config: ExperimentConfig, model, frames) -> list[tuple]:
    """Shared-per-frame channel realizations: index walk plus per-period gains.

    Frame f draws from ``default_rng([seed, f, 0])``; the streams of all
    frames are seeded in one step.  Each hop draws one uniform against the
    current row's transition CDF, which is what ``rng.choice(n, p=row)``
    does, so the walk is the same.
    """
    # Imported here: numpy.random adds to every run's import time.
    from .streams import generators

    cdf = model.transition_cdf
    root2 = np.sqrt(2.0)
    walks = []
    for rng in generators(config.seed, frames, 0):
        init = int(rng.integers(model.n_points))
        indices = [init]
        gains = []
        for _ in range(2, config.p_ttis + 1):
            indices.append(int(cdf[indices[-1]].searchsorted(rng.random(), side="right")))
            re, im = rng.standard_normal(2)
            gains.append(complex(re, im) / root2)
        walks.append((init, indices[1:], gains))
    return walks


def _trajectory(config: ExperimentConfig, model, frame: int):
    """One frame's :func:`_trajectories` entry."""
    return _trajectories(config, model, [frame])[0]


def _noise_normals(config: ExperimentConfig, frames, tti: int, width: int) -> np.ndarray:
    """First ``width`` normals of each frame's ``default_rng([seed, frame,
    tti, 1])`` noise stream, all seeded in one step.

    One row per frame.  Every policy slices its own prefix of the row, so all
    policies see the same noise draws.
    """
    from .streams import generators

    out = np.empty((len(frames), width))
    for row, rng in zip(out, generators(config.seed, frames, tti, 1)):
        rng.standard_normal(out=row)
    return out


def _noise(normals: np.ndarray, m: int, snr: float) -> np.ndarray:
    """CN(0, (1/snr) I) noise on m channel uses from each row of normals."""
    return (normals[:, :m] + 1j * normals[:, m : 2 * m]) * np.sqrt(0.5 / snr)


def _designs(config: ExperimentConfig, scheduler: BeamScheduler, prior: Belief, prev_est):
    """Designs used this period and each frame's index into them."""
    if config.design_prior == "estimate":
        indices, which = np.unique(prev_est, return_inverse=True)
        return [scheduler.beams_for_index(int(i)) for i in indices], which
    found = [scheduler.beams_for_prior(Belief(row)) for row in prior.probs]
    slots: dict[int, int] = {}
    which = np.array([slots.setdefault(id(d), len(slots)) for d in found])
    return list({id(d): d for d in found}.values()), which


def _log_bounds(
    priors: np.ndarray, slots: np.ndarray, rolls: np.ndarray, bases: list, snr: float
) -> np.ndarray:
    """Union bound of each (period, frame) prior against the design it used,
    one kernel call per base design.

    ``priors`` is (n_steps, F, N); ``slots`` (n_steps, F) indexes ``bases``
    and ``rolls`` gives how far each design is rolled from that base.  A
    design's bound on a prior is its base's bound on the prior rolled back
    by the design's roll.  Returns the (F, n_steps) bounds.
    """
    n = priors.shape[-1]
    shift = (np.arange(n) + rolls.reshape(-1, 1)) % n
    rolled = np.take_along_axis(priors.reshape(-1, n), shift, axis=1)
    slots = slots.ravel()
    out = np.empty(len(slots))
    for k, base in enumerate(bases):
        rows = np.flatnonzero(slots == k)
        sensing = base.sensing
        out[rows] = kernels.gamma_ub(
            rolled[rows], sensing.gram_abs2, sensing.col_norms_sq, snr
        )
    return out.reshape(priors.shape[:2]).T


def _run_block(config: ExperimentConfig, frames: range, model, snr, schedulers, cycling):
    """Simulate a block of frames, all advancing one period at a time.

    The bound never feeds back into tracking, so each designed policy keeps
    its period priors and the base design and roll each (period, frame)
    used, and logs the bounds once the block's periods are done.
    """
    n_steps = config.p_ttis - 1
    walks = _trajectories(config, model, frames)
    init = np.array([w[0] for w in walks])
    true = np.array([w[1] for w in walks]).reshape(len(frames), n_steps)
    gains = np.array([w[2] for w in walks]).reshape(len(frames), n_steps)
    rows = np.arange(len(frames))
    widths = [
        cycling.m_beams if pol == "beam_cycling" else config.m_beams
        for pol in config.policies
    ]

    est = {pol: np.empty((len(frames), n_steps), dtype=int) for pol in config.policies}
    gub = {pol: np.full((len(frames), n_steps), np.nan) for pol in config.policies}
    priors = {pol: np.empty((n_steps, len(frames), config.n_grid)) for pol in schedulers}
    slots = {pol: np.empty((n_steps, len(frames)), dtype=int) for pol in schedulers}
    rolls = {pol: np.empty((n_steps, len(frames)), dtype=int) for pol in schedulers}
    used = {pol: {} for pol in schedulers}  # id(base) -> (slot, base)
    beliefs = {pol: Belief(np.eye(config.n_grid)[init]) for pol in schedulers}
    prev_est = {pol: init for pol in schedulers}
    for step in range(n_steps):
        tti = step + 2
        normals = (
            None
            if config.noiseless
            else _noise_normals(config, frames, tti, 2 * max(widths))
        )
        for pol in config.policies:
            if pol == "beam_cycling":
                y = gains[:, step, None] * cycling.matrix.T[true[:, step]]
                if normals is not None:
                    y = y + _noise(normals, cycling.m_beams, snr)
                est[pol][:, step] = beam_cycling_estimate(y, cycling)
                continue

            prior = propagate_prior(beliefs[pol], model)
            priors[pol][step] = prior.probs
            designs, which = _designs(config, schedulers[pol], prior, prev_est[pol])
            slot = [
                used[pol].setdefault(id(d.base), (len(used[pol]), d.base))[0]
                for d in designs
            ]
            slots[pol][step] = np.asarray(slot)[which]
            rolls[pol][step] = np.array([d.roll for d in designs])[which]
            sensing = SensingMatrix(
                matrix=np.stack([d.sensing.matrix for d in designs])[which]
            )
            y = gains[:, step, None] * sensing.matrix[rows, :, true[:, step]]
            if normals is not None:
                y = y + _noise(normals, config.m_beams, snr)
            beliefs[pol] = posterior(prior, PilotObservation(y=y, snr=snr), sensing)
            prev_est[pol] = est[pol][:, step] = map_estimate(beliefs[pol])
    for pol in schedulers:
        bases = [d for _, d in used[pol].values()]
        gub[pol] = _log_bounds(priors[pol], slots[pol], rolls[pol], bases, snr)

    out = {}
    for pol in config.policies:
        trials = np.empty(len(frames) * n_steps, dtype=TRIAL_DTYPE)
        trials["frame"] = np.repeat(np.asarray(frames), n_steps)
        trials["tti"] = np.tile(np.arange(2, config.p_ttis + 1), len(frames))
        trials["true_index"] = true.ravel()
        trials["est_index"] = est[pol].ravel()
        trials["error"] = est[pol].ravel() != true.ravel()
        trials["gamma_ub"] = gub[pol].ravel()
        out[pol] = trials
    return out


def _run_frames(config: ExperimentConfig, frame_lo: int, frame_hi: int):
    """Simulate frames [frame_lo, frame_hi) for every configured policy, in
    blocks of up to BLOCK_FRAMES frames."""
    beta = _require_scalar(config.beta, "beta")
    snr_db = _require_scalar(config.snr_db, "snr_db")
    snr = 10.0 ** (snr_db / 10.0)

    grid = build_grid(config.n_grid)
    codebook = build_codebook(grid, config.n_tx)
    model = build_markov(config.n_grid, beta, config.sigma, edge_mode=config.edge_mode)

    schedulers = {
        pol: BeamScheduler(
            model, codebook, snr, config.m_beams, pol, psa_config=config.psa
        )
        for pol in config.policies
        if pol != "beam_cycling"
    }
    cycling = (
        beam_cycling_probes(config.n_tx, codebook)
        if "beam_cycling" in config.policies
        else None
    )

    blocks = [
        _run_block(
            config,
            range(lo, min(lo + BLOCK_FRAMES, frame_hi)),
            model,
            snr,
            schedulers,
            cycling,
        )
        for lo in range(frame_lo, frame_hi, BLOCK_FRAMES)
    ]
    return {
        pol: np.concatenate([block[pol] for block in blocks])
        for pol in config.policies
    }


def _worker_count() -> int:
    value = os.environ.get("BEAMTRACK_THREADS", "1")
    try:
        return max(1, int(value))
    except ValueError:
        return 1


def _summarize(trials: np.ndarray, keys: np.ndarray, key_fmt) -> list[tuple]:
    rows = []
    for key in np.unique(keys):
        cell = trials[keys == key]
        n = len(cell)
        p = float(cell["error"].mean())
        stderr = float(np.sqrt(p * (1.0 - p) / n))
        finite = np.isfinite(cell["gamma_ub"])
        mean_ub = float(cell["gamma_ub"][finite].mean()) if finite.any() else float("nan")
        rows.append((key_fmt(key), p, stderr, mean_ub, n))
    return rows


def run_experiment(
    config: ExperimentConfig,
) -> tuple[dict[str, np.ndarray], list[SummaryRow]]:
    """Simulate all frames; returns per-policy trial arrays and per-period
    summary rows (grouped by tracked period index)."""
    workers = _worker_count()
    if workers == 1 or config.n_frames < 2 * workers:
        trials = _run_frames(config, 0, config.n_frames)
    else:
        bounds = np.linspace(0, config.n_frames, workers + 1, dtype=int)
        blocks = [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]
        # Imported here: multiprocessing costs every serial run's import time.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(
                pool.map(_run_frames, [config] * len(blocks), *zip(*blocks))
            )
        trials = {
            pol: np.concatenate([part[pol] for part in parts])
            for pol in config.policies
        }

    summary: list[SummaryRow] = []
    for pol in config.policies:
        for key, p, stderr, mean_ub, n in _summarize(
            trials[pol], trials[pol]["tti"], lambda t: f"tti={int(t)}"
        ):
            summary.append(
                SummaryRow(
                    group_key=key,
                    policy=pol,
                    tep_mean=p,
                    tep_stderr=stderr,
                    mean_gamma_ub=mean_ub,
                    n_frames=int(n),
                )
            )
    return trials, summary


def _swept_param(config: ExperimentConfig) -> str:
    beta_swept = isinstance(config.beta, (list, tuple))
    snr_swept = isinstance(config.snr_db, (list, tuple))
    if beta_swept and snr_swept:
        raise ValueError("exactly one parameter may be swept, got two")
    if beta_swept:
        return "beta"
    if snr_swept:
        return "snr_db"
    raise ValueError("no swept parameter: beta and snr_db are both scalar")


def sweep(
    config: ExperimentConfig, param: str | None = None
) -> tuple[dict[float, dict[str, np.ndarray]], list[SummaryRow]]:
    """Run one experiment per swept value with shared frame seeding.

    Returns the per-value trial arrays and one pooled summary row per
    (swept value, policy), errors pooled over all tracked periods.
    """
    swept = _swept_param(config)
    if param is not None and param != swept:
        raise ValueError(f"requested sweep over {param!r} but {swept!r} is list-valued")
    values = list(getattr(config, swept))
    if not values:
        raise ValueError("sweep list is empty")

    results: dict[float, dict[str, np.ndarray]] = {}
    summary: list[SummaryRow] = []
    for value in values:
        point = replace(config, **{swept: float(value)})
        trials, _ = run_experiment(point)
        results[float(value)] = trials
        for pol in point.policies:
            arr = trials[pol]
            n = len(arr)
            p = float(arr["error"].mean())
            stderr = float(np.sqrt(p * (1.0 - p) / n))
            finite = np.isfinite(arr["gamma_ub"])
            mean_ub = float(arr["gamma_ub"][finite].mean()) if finite.any() else float("nan")
            summary.append(
                SummaryRow(
                    group_key=f"{swept}={float(value):g}",
                    policy=pol,
                    tep_mean=p,
                    tep_stderr=stderr,
                    mean_gamma_ub=mean_ub,
                    n_frames=n,
                )
            )
    return results, summary
