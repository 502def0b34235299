"""Monte-Carlo experiment engine: tracking error rates per period, per
Markov-rate value, and per SNR, with the union bound logged alongside.

Frames are independent; every random draw is keyed by (seed, frame, period),
so runs are reproducible bit-for-bit and different beam policies see the
same channel trajectories and noise (common random numbers).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import kernels
from .arraymodel import build_codebook, build_grid, build_markov
from .optimizer import BeamScheduler, PsaConfig, steering_phases
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
    "TrialRecord",
    "TRIAL_DTYPE",
    "SummaryRow",
    "run_experiment",
    "sweep",
    "beam_cycling_probes",
    "beam_cycling_estimate",
]

POLICIES = ("psa_optimized", "directional_tep", "beam_cycling")
INT_FIELDS = ("n_tx", "n_grid", "m_beams", "sigma", "p_ttis", "n_frames", "seed")

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
class TrialRecord:
    frame: int
    tti: int
    true_index: int
    est_index: int
    error: bool
    gamma_ub: float


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


def beam_cycling_estimate(y: np.ndarray, sensing: SensingMatrix) -> int:
    """Single-atom matched filter: argmax of |s_n^H y| over grid columns."""
    return int(np.argmax(np.abs(sensing.matrix.conj().T @ np.asarray(y))))


def _trajectory(config: ExperimentConfig, model, frame: int):
    """Shared-per-frame channel realization: index walk plus per-period gains."""
    rng = np.random.default_rng([config.seed, frame, 0])
    n = model.n_points
    init = int(rng.integers(n))
    indices = [init]
    gains = []
    for _ in range(2, config.p_ttis + 1):
        indices.append(int(rng.choice(n, p=model.transition[indices[-1]])))
        re, im = rng.standard_normal(2)
        gains.append(complex(re, im) / np.sqrt(2.0))
    return init, indices[1:], gains


def _noise(config: ExperimentConfig, frame: int, tti: int, m: int, snr: float):
    rng = np.random.default_rng([config.seed, frame, tti, 1])
    re_im = rng.standard_normal(2 * m)
    return (re_im[:m] + 1j * re_im[m:]) * np.sqrt(0.5 / snr)


def _run_frames(config: ExperimentConfig, frame_lo: int, frame_hi: int):
    """Simulate frames [frame_lo, frame_hi) for every configured policy."""
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

    out = {pol: [] for pol in config.policies}
    for frame in range(frame_lo, frame_hi):
        init, true_indices, gains = _trajectory(config, model, frame)
        for pol in config.policies:
            rows = out[pol]
            if pol == "beam_cycling":
                for step, (true_idx, gain) in enumerate(zip(true_indices, gains)):
                    tti = step + 2
                    y = gain * cycling.matrix[:, true_idx]
                    if not config.noiseless:
                        y = y + _noise(config, frame, tti, config.n_tx, snr)
                    est = beam_cycling_estimate(y, cycling)
                    rows.append((frame, tti, true_idx, est, est != true_idx, np.nan))
                continue

            scheduler = schedulers[pol]
            belief = Belief.point_mass(config.n_grid, init)
            prev_est = init
            for step, (true_idx, gain) in enumerate(zip(true_indices, gains)):
                tti = step + 2
                prior = propagate_prior(belief, model)
                if config.design_prior == "estimate":
                    designed = scheduler.beams_for_index(prev_est)
                else:
                    designed = scheduler.beams_for_prior(prior)
                sensing = designed.sensing
                y = gain * sensing.matrix[:, true_idx]
                if not config.noiseless:
                    y = y + _noise(config, frame, tti, config.m_beams, snr)
                obs = PilotObservation(y=y, snr=snr)
                belief = posterior(prior, obs, sensing)
                est = map_estimate(belief)
                gub = kernels.gamma_ub(
                    prior.probs, sensing.gram_abs2, sensing.col_norms_sq, snr
                )
                rows.append((frame, tti, true_idx, est, est != true_idx, gub))
                prev_est = est

    return {
        pol: np.array(rows, dtype=TRIAL_DTYPE) for pol, rows in out.items()
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
