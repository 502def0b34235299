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
from .optimizer import BeamScheduler, PsaConfig, check_int, check_real
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
# Smallest accepted value of each integer field.
INT_MINIMA = dict(n_tx=1, n_grid=2, m_beams=1, sigma=0, p_ttis=2, n_frames=1, seed=0)

# Accepted range of each real-valued field, or of each value of its sweep
# list; a sweep runs over one of these fields.  The bound kernel squares the
# linear SNR and its inverse, which overflow beyond about +-1540 dB, so
# snr_db stops well inside that, and far beyond any link budget.
FLOAT_RANGES = {"beta": (0.0, 1.0), "snr_db": (-300.0, 300.0)}

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

    def __post_init__(self):
        """Check every field, so that a config that loads can run."""
        for name, lo in INT_MINIMA.items():
            check_int(name, getattr(self, name), lo)
        if self.n_grid < 2 * self.sigma + 1:
            raise ValueError(
                f"n_grid must be >= 2*sigma + 1 = {2 * self.sigma + 1}, so that the "
                f"hop window does not overlap itself, got {self.n_grid}"
            )
        if self.m_beams > self.n_grid:
            raise ValueError(f"m_beams must be <= n_grid = {self.n_grid}, got {self.m_beams}")
        if not isinstance(self.psa, PsaConfig):
            raise ValueError(f"psa must be an object of swarm settings, got {self.psa!r}")
        if not isinstance(self.policy, (str, list, tuple)) or not self.policies:
            raise ValueError(
                f"policy must be a policy name or a non-empty list of them, got {self.policy!r}"
            )
        for pol in self.policies:
            if pol not in POLICIES:
                raise ValueError(f"unknown policy {pol!r}: policy must be one of {POLICIES}")
        if len(set(self.policies)) < len(self.policies):
            raise ValueError(f"policy must not repeat an entry, got {list(self.policies)}")
        if self.edge_mode not in ("wrap", "truncate"):
            raise ValueError(f"unknown edge_mode {self.edge_mode!r}")
        if not isinstance(self.noiseless, bool):
            raise ValueError(f"noiseless must be true or false, got {self.noiseless!r}")
        for name, (lo, hi) in FLOAT_RANGES.items():
            value = getattr(self, name)
            values = value if isinstance(value, (list, tuple)) else [value]
            if not values:
                raise ValueError(f"{name} list is empty")
            for v in values:
                check_real(name, v, lo, hi)
        if all(isinstance(getattr(self, name), (list, tuple)) for name in FLOAT_RANGES):
            raise ValueError("beta and snr_db are both lists: exactly one parameter may be swept")

    @property
    def swept(self) -> str | None:
        """The list-valued field a sweep runs over, "beta" or "snr_db", or
        None when both are numbers."""
        for name in FLOAT_RANGES:
            if isinstance(getattr(self, name), (list, tuple)):
                return name
        return None

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


def _trajectories(config: ExperimentConfig, model, frames):
    """Shared-per-frame channel realizations: index walk plus per-period gains.

    Returns the (F,) initial indices and the (F, p_ttis - 1) indices and
    complex gains of the tracked periods.  Frame f draws from
    ``default_rng([seed, f, 0])``; the streams of all frames are seeded in
    one step.  Each stream gives one integer, then one uniform and two
    normals per hop.  A hop moves to the number of transition-CDF entries of
    the current row at or below its uniform, which is what
    ``rng.choice(n, p=row)`` picks, so the walk is the same.
    """
    # Imported here: numpy.random adds to every run's import time.
    from .streams import generators

    n_steps = config.p_ttis - 1
    init = np.empty(len(frames), dtype=int)
    uniforms = np.empty((len(frames), n_steps))
    normals = np.empty((len(frames), n_steps, 2))
    for f, rng in enumerate(generators(config.seed, frames, 0)):
        init[f] = rng.integers(model.n_points)
        for step in range(n_steps):
            uniforms[f, step] = rng.random()
            rng.standard_normal(out=normals[f, step])

    cdf = model.transition_cdf
    indices = np.empty((len(frames), n_steps), dtype=int)
    current = init
    for step in range(n_steps):
        current = (cdf[current] <= uniforms[:, step, None]).sum(axis=1)
        indices[:, step] = current
    # Part by part, as complex(re, im) / sqrt(2) divides; numpy's
    # complex-by-real division multiplies by the reciprocal instead.
    root2 = np.sqrt(2.0)
    gains = np.empty((len(frames), n_steps), dtype=complex)
    gains.real = normals[..., 0] / root2
    gains.imag = normals[..., 1] / root2
    return init, indices, gains


def _trajectory(config: ExperimentConfig, model, frame: int):
    """One frame's :func:`_trajectories` entry as (init, indices, gains)
    Python scalars and lists."""
    init, indices, gains = _trajectories(config, model, [frame])
    return int(init[0]), indices[0].tolist(), gains[0].tolist()


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


def _log_bounds(priors: np.ndarray, slots: np.ndarray, bases: list, snr: float) -> np.ndarray:
    """Union bound of each (period, frame) prior against the design it used,
    one kernel call per base design.

    ``priors`` is (n_steps, F, N), each prior stored in the coordinates of
    its design's base: a design's bound on a prior is its base's bound on
    the prior rolled back by the design's roll.  ``slots`` (n_steps, F)
    indexes ``bases``.  Returns the (F, n_steps) bounds.
    """
    flat = priors.reshape(-1, priors.shape[-1])
    slots = slots.ravel()
    out = np.empty(len(slots))
    for k, base in enumerate(bases):
        rows = np.flatnonzero(slots == k)
        sensing = base.sensing
        # A block with one base (every wrap block) is scored in place.
        out[rows] = kernels.gamma_ub(
            flat if len(rows) == len(flat) else flat[rows],
            sensing.gram_abs2,
            sensing.col_norms_sq,
            snr,
        )
    return out.reshape(priors.shape[:2]).T


def _run_block(config: ExperimentConfig, frames: range, model, snr, schedulers, cycling):
    """Simulate a block of frames, all advancing one period at a time.

    The bound never feeds back into tracking, so each designed policy keeps
    its period priors, rolled back into the coordinates of the base design
    each (period, frame) used, and logs the bounds once the block's periods
    are done.
    """
    n_steps = config.p_ttis - 1
    init, true, gains = _trajectories(config, model, frames)
    rows = np.arange(len(frames))
    widths = [
        cycling.m_beams if pol == "beam_cycling" else config.m_beams
        for pol in config.policies
    ]

    est = {pol: np.empty((len(frames), n_steps), dtype=int) for pol in config.policies}
    gub = {pol: np.full((len(frames), n_steps), np.nan) for pol in config.policies}
    priors = {pol: np.empty((n_steps, len(frames), config.n_grid)) for pol in schedulers}
    slots = {pol: np.empty((n_steps, len(frames)), dtype=int) for pol in schedulers}
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
            indices, which = np.unique(prev_est[pol], return_inverse=True)
            designs = [schedulers[pol].beams_for_index(int(i)) for i in indices]
            slot = [
                used[pol].setdefault(id(d.base), (len(used[pol]), d.base))[0]
                for d in designs
            ]
            slots[pol][step] = np.asarray(slot)[which]
            roll = np.array([d.roll for d in designs])[which]
            shift = (np.arange(config.n_grid) + roll[:, None]) % config.n_grid
            priors[pol][step] = np.take_along_axis(prior.probs, shift, axis=1)
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
        gub[pol] = _log_bounds(priors[pol], slots[pol], bases, snr)

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
    snr = 10.0 ** (float(config.snr_db) / 10.0)

    grid = build_grid(config.n_grid)
    codebook = build_codebook(grid, config.n_tx)
    model = build_markov(
        config.n_grid, float(config.beta), config.sigma, edge_mode=config.edge_mode
    )

    searches: dict = {}  # one directional search per prior for both policies
    schedulers = {
        pol: BeamScheduler(
            model,
            codebook,
            snr,
            config.m_beams,
            pol,
            psa_config=config.psa,
            searches=searches,
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
    """Worker processes from ``BEAMTRACK_THREADS``: an integer from 1 to the
    CPU count, 1 when unset."""
    value = os.environ.get("BEAMTRACK_THREADS", "1")
    cap = os.cpu_count() or 1
    try:
        workers = int(value)
    except ValueError:
        workers = 0
    if not 1 <= workers <= cap:
        raise ValueError(f"BEAMTRACK_THREADS must be an integer in [1, {cap}], got {value!r}")
    return workers


def _summary_row(group_key: str, policy: str, trials: np.ndarray) -> SummaryRow:
    """Error rate, its standard error and the mean finite bound of one
    group of trials."""
    n = len(trials)
    p = float(trials["error"].mean())
    finite = np.isfinite(trials["gamma_ub"])
    return SummaryRow(
        group_key=group_key,
        policy=policy,
        tep_mean=p,
        tep_stderr=float(np.sqrt(p * (1.0 - p) / n)),
        mean_gamma_ub=float(trials["gamma_ub"][finite].mean()) if finite.any() else np.nan,
        n_frames=n,
    )


def run_experiment(
    config: ExperimentConfig,
) -> tuple[dict[str, np.ndarray], list[SummaryRow]]:
    """Simulate all frames; returns per-policy trial arrays and per-period
    summary rows (grouped by tracked period index).  ``beta`` and
    ``snr_db`` must be numbers; :func:`sweep` runs a list of them."""
    if config.swept is not None:
        raise ValueError(f"{config.swept} must be scalar for a single experiment run")
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

    summary = [
        _summary_row(f"tti={int(tti)}", pol, trials[pol][trials[pol]["tti"] == tti])
        for pol in config.policies
        for tti in np.unique(trials[pol]["tti"])
    ]
    return trials, summary


def sweep(
    config: ExperimentConfig, param: str | None = None
) -> tuple[dict[float, dict[str, np.ndarray]], list[SummaryRow]]:
    """Run one experiment per swept value with shared frame seeding.

    Returns the per-value trial arrays and one pooled summary row per
    (swept value, policy), errors pooled over all tracked periods.
    """
    swept = config.swept
    if swept is None:
        raise ValueError("no swept parameter: beta and snr_db are both scalar")
    if param is not None and param != swept:
        raise ValueError(f"requested sweep over {param!r} but {swept!r} is list-valued")
    values = list(getattr(config, swept))

    results: dict[float, dict[str, np.ndarray]] = {}
    summary: list[SummaryRow] = []
    for value in values:
        point = replace(config, **{swept: float(value)})
        trials, _ = run_experiment(point)
        results[float(value)] = trials
        summary.extend(
            _summary_row(f"{swept}={float(value):g}", pol, trials[pol])
            for pol in point.policies
        )
    return results, summary
