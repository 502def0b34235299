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

from .arraymodel import build_codebook, build_grid, build_markov
from .optimizer import DESIGNED, BeamScheduler, PsaConfig, check_int, check_real
from .tracking import (
    Belief,
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
    "prepare",
    "run_experiment",
    "sweep",
    "beam_cycling_probes",
    "beam_cycling_estimate",
]

POLICIES = (*DESIGNED, "beam_cycling")
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

# Smallest accepted value of each integer field.
INT_MINIMA = dict(n_tx=1, n_grid=2, m_beams=1, sigma=0, p_ttis=2, n_frames=1, seed=0)
# Largest accepted value of each integer field that a trial column stores:
# tti runs up to p_ttis, the indices to n_grid - 1 and frame to n_frames - 1.
INT_MAXIMA = dict(
    p_ttis=np.iinfo(TRIAL_DTYPE["tti"]).max,
    n_grid=np.iinfo(TRIAL_DTYPE["true_index"]).max + 1,
    n_frames=np.iinfo(TRIAL_DTYPE["frame"]).max + 1,
)

# Accepted range of each real-valued field, or of each value of its sweep
# list; a sweep runs over one of these fields.  The bound kernel squares the
# linear SNR and its inverse, which overflow beyond about +-1540 dB, so
# snr_db stops well inside that, and far beyond any link budget.
FLOAT_RANGES = {"beta": (0.0, 1.0), "snr_db": (-300.0, 300.0)}

# Frames advanced together, one tracking period at a time.  A block's
# beliefs, sensing matrices and noise take O(BLOCK_FRAMES * N * M) memory
# whatever n_frames is.
BLOCK_FRAMES = 256
# Frame-periods (frames x (p_ttis - 1)) a block holds at most.  Its trial
# rows and walk take about 80 B per frame-period, so beyond p_ttis 1024 a
# block runs fewer frames instead of growing with p_ttis.
BLOCK_PERIODS = BLOCK_FRAMES * 1023

# Prior rows (frames x periods, at least one period) a block stores per
# designed policy before it logs their bounds, so the stored priors do not
# grow with p_ttis.  A full default block (256 frames x 9 periods) still logs
# once per policy: fewer rows per kernel call cost more calls and more
# support groups.
LOG_ROWS = 2304


def _from_fields(cls, d: dict, prefix: str = ""):
    """``cls(**d)`` once every key of ``d`` names a field of the dataclass
    ``cls``; an unknown key raises a ValueError naming it after ``prefix``."""
    unknown = sorted(f"{prefix}{key}" for key in set(d) - set(cls.__dataclass_fields__))
    if unknown:
        raise ValueError(f"unknown config fields: {unknown}")
    return cls(**d)


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
            check_int(name, getattr(self, name), lo, INT_MAXIMA.get(name, np.inf))
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
        if "beam_cycling" in self.policies and self.n_tx < 2:
            raise ValueError(f"n_tx must be >= 2 with policy beam_cycling, got {self.n_tx}")
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
            # Each sweep point keys its results and, printed as :g, names its
            # trials file and summary rows.
            labels = {f"{float(v):g}" for v in values}
            if min(len(labels), len({float(v) for v in values})) < len(values):
                raise ValueError(
                    f"{name} list values must differ as numbers and as printed, "
                    f"got {list(values)}"
                )
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
        if isinstance(d.get("psa"), dict):
            d["psa"] = _from_fields(PsaConfig, d["psa"], "psa.")
        return _from_fields(cls, d)


def beam_cycling_probes(n_tx: int, codebook) -> SensingMatrix:
    """Sensing matrix of the n_tx-direction probe sweep baseline.

    Probes are steering vectors at a uniform grid of n_tx angles (mutually
    orthogonal), one channel use per direction.
    """
    phases = np.outer(np.arange(n_tx), build_grid(n_tx))
    return sensing_matrix(phases, codebook.matrix)


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

    Returns the (F,) initial indices and the (F, p_ttis - 1) indices, in the
    trial rows' index type, and complex gains of the tracked periods.  Frame
    f draws from ``default_rng([seed, f, 0])``; the streams of all frames are
    seeded in one step.  Each stream gives one integer, then one uniform and
    two normals per hop.  A hop moves to the number of transition-CDF
    entries of the current row at or below its uniform, which is what
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
    indices = np.empty((len(frames), n_steps), dtype=TRIAL_DTYPE["true_index"])
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


def _run_block(frames: range, config: ExperimentConfig, scheduler, cycling):
    """Simulate a block of frames, all advancing one period at a time.

    ``scheduler`` serves the beams of the designed policies, with its model
    and SNR; ``cycling`` is the probe sweep of ``beam_cycling``.  Each
    policy's (F, p_ttis - 1) trial rows take its estimates as the periods
    run; a designed policy's beams are served for the last estimates in
    its rows (``init`` at the first period).  The bound never feeds back into
    tracking, so each designed policy stores its period priors as the
    scheduler returns them, with their designed indices, and logs their
    bounds into its rows when ``LOG_ROWS`` rows are stored or the periods end.
    """
    model, snr = scheduler.model, scheduler.snr
    designed = [pol for pol in config.policies if pol in DESIGNED]
    n_steps = config.p_ttis - 1
    init, true, gains = _trajectories(config, model, frames)
    rows = np.arange(len(frames))
    # two normals per channel use of the policy that uses the most
    width = 2 * max(
        config.m_beams if pol in DESIGNED else cycling.m_beams for pol in config.policies
    )

    trials = {pol: np.empty((len(frames), n_steps), TRIAL_DTYPE) for pol in config.policies}
    for block in trials.values():
        block["frame"] = np.asarray(frames)[:, None]
        block["tti"] = np.arange(2, config.p_ttis + 1)
        block["true_index"] = true
        block["gamma_ub"] = np.nan
    stored = min(n_steps, max(1, LOG_ROWS // len(frames)))
    priors = {pol: np.empty((stored, len(frames), config.n_grid)) for pol in designed}
    keys = {pol: np.empty((stored, len(frames)), dtype=int) for pol in designed}
    beliefs = {pol: Belief(np.eye(config.n_grid)[init]) for pol in designed}
    for step in range(n_steps):
        tti, slot = step + 2, step % stored
        normals = None if config.noiseless else _noise_normals(config, frames, tti, width)
        for pol in config.policies:
            est = trials[pol]["est_index"]
            if pol not in DESIGNED:
                y = gains[:, step, None] * cycling.matrix.T[true[:, step]]
                if normals is not None:
                    y = y + _noise(normals, cycling.m_beams, snr)
                est[:, step] = beam_cycling_estimate(y, cycling)
                continue

            prior = propagate_prior(beliefs[pol], model)
            sensing, priors[pol][slot], keys[pol][slot] = scheduler.serve(
                pol, est[:, step - 1] if step else init, prior.probs
            )
            y = gains[:, step, None] * sensing.matrix[rows, :, true[:, step]]
            if normals is not None:
                y = y + _noise(normals, config.m_beams, snr)
            beliefs[pol] = posterior(prior, PilotObservation(y=y, snr=snr), sensing)
            est[:, step] = map_estimate(beliefs[pol])
        if slot == stored - 1 or step == n_steps - 1:
            for pol in designed:
                trials[pol]["gamma_ub"][:, step - slot : step + 1] = scheduler.log_bounds(
                    pol, priors[pol][: slot + 1], keys[pol][: slot + 1]
                ).T

    for block in trials.values():
        block["error"] = block["est_index"] != block["true_index"]
    return {pol: block.ravel() for pol, block in trials.items()}


def prepare(config: ExperimentConfig) -> dict:
    """The operating point of a run whose ``beta`` and ``snr_db`` are
    numbers: the scheduler and probe sweep that all of its blocks share,
    with the config, as keywords of :func:`_run_block`."""
    snr = 10.0 ** (float(config.snr_db) / 10.0)
    codebook = build_codebook(build_grid(config.n_grid), config.n_tx)
    model = build_markov(
        config.n_grid, float(config.beta), config.sigma, edge_mode=config.edge_mode
    )
    scheduler = BeamScheduler(model, codebook, snr, config.m_beams, psa_config=config.psa)
    cycling = (
        beam_cycling_probes(config.n_tx, codebook)
        if "beam_cycling" in config.policies
        else None
    )
    return dict(config=config, scheduler=scheduler, cycling=cycling)


# A pool worker's keywords of _run_block, handed over once by _init_worker.
_worker_state: dict = {}


def _init_worker(state: dict) -> None:
    _worker_state.update(state)


def _run_pooled(frames: range):
    return _run_block(frames, **_worker_state)


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
    n_steps = config.p_ttis - 1
    # Every worker gets frames; one worker runs blocks of BLOCK_FRAMES, or
    # fewer when their periods would pass BLOCK_PERIODS.
    size = min(BLOCK_FRAMES, -(-config.n_frames // workers), max(1, BLOCK_PERIODS // n_steps))
    frames = range(config.n_frames)
    blocks = [frames[lo : lo + size] for lo in frames[::size]]
    trials = {pol: np.empty(len(frames) * n_steps, TRIAL_DTYPE) for pol in config.policies}

    def fill(parts):
        for block, part in zip(blocks, parts):
            for pol in config.policies:
                trials[pol][block.start * n_steps : block.stop * n_steps] = part[pol]

    state = prepare(config)
    if workers == 1 or len(blocks) == 1:
        fill(_run_block(block, **state) for block in blocks)
    else:
        # Imported here: multiprocessing costs every serial run's import time.
        from concurrent.futures import ProcessPoolExecutor

        # Each worker gets one copy of the scheduler, with every design made.
        state["scheduler"].design_all(p for p in config.policies if p in DESIGNED)
        with ProcessPoolExecutor(workers, initializer=_init_worker, initargs=(state,)) as pool:
            fill(pool.map(_run_pooled, blocks))

    # Rows run frame by frame, period by period, so column k of a policy's
    # (n_frames, p_ttis - 1) rows holds every frame's period tti = k + 2.
    summary = [
        _summary_row(f"tti={step + 2}", pol, trials[pol].reshape(-1, n_steps)[:, step])
        for pol in config.policies
        for step in range(n_steps)
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
