"""Command-line front end: beam optimization, simulation, and sweeps.

Configs are JSON files whose keys mirror ExperimentConfig (all optional).
SNR is given in dB.  Outputs are CSV tables plus a JSON run manifest with
content digests of every written file.

Exit codes: 0 success, 2 configuration error (a config whose run does not
fit in memory among them), 3 output I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .arraymodel import MarkovModel
from .harness import TRIAL_DTYPE, ExperimentConfig, SummaryRow, prepare, run_experiment, sweep
from .optimizer import directional_mode, optimize_beams, select_directional_pair
from .tracking import Belief

# Each table's columns are the fields of the type that holds its rows.
SUMMARY_COLUMNS = tuple(f.name for f in fields(SummaryRow))
TRIAL_COLUMNS = ("policy", *TRIAL_DTYPE.names)
# Trial rows formatted and written per piece: the text of a run's trials is
# never held whole, whatever n_frames is.
CHUNK_ROWS = 4096

# glibc's mallopt parameters (malloc.h) and the values main pins them to.
# Left dynamic, both thresholds start at 128 KiB and rise whenever a run
# frees an mmapped chunk above the mmap threshold (to its size, and twice
# that), so a run's page faults and peak resident memory depend on which
# array it happens to free first.  A 4 MiB trim threshold keeps a freed heap
# top mapped for the next period's temporaries; a 1 MiB mmap threshold keeps
# larger arrays out of the heap, so that freeing them returns their pages.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
TRIM_THRESHOLD_BYTES = 4 << 20
MMAP_THRESHOLD_BYTES = 1 << 20


class ConfigError(Exception):
    pass


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    try:
        return ExperimentConfig.from_dict(data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


def _write(path: Path, pieces) -> str:
    """Write the text pieces to ``path`` one at a time, as UTF-8 bytes.

    Returns the SHA-256 of the bytes on disk, fed piece by piece, so that
    only one piece is held as text or bytes at a time.
    """
    digest = hashlib.sha256()
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            for piece in pieces:
                data = piece.encode()
                fh.write(data)
                digest.update(data)
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}") from exc
    return digest.hexdigest()


def _summary_csv(rows) -> str:
    lines = [",".join(SUMMARY_COLUMNS)]
    for r in rows:
        cells = (getattr(r, name) for name in SUMMARY_COLUMNS)
        lines.append(",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in cells))
    return "\n".join(lines) + "\n"


def _trials_pieces(trials_by_policy: dict[str, np.ndarray]):
    """The text of trials.csv, CHUNK_ROWS rows at a time."""
    yield ",".join(TRIAL_COLUMNS) + "\n"
    for policy in sorted(trials_by_policy):
        trials = trials_by_policy[policy]
        for lo in range(0, len(trials), CHUNK_ROWS):
            chunk = trials[lo : lo + CHUNK_ROWS]
            # Column-wise: tolist() gives Python ints and floats, formatted
            # as summary.csv formats its cells (a NaN of either sign prints
            # "nan").
            columns = [chunk[name].tolist() for name in TRIAL_COLUMNS[1:]]
            yield "".join(
                f"{policy},{frame},{tti},{true},{est},{err},{ub:.12g}\n"
                for frame, tti, true, est, err, ub in zip(*columns)
            )


def _write_outputs(out: Path, config: ExperimentConfig, started: float, summary, trials) -> None:
    """Write summary.csv, each trials file of ``trials`` (file name -> trial
    arrays by policy), then manifest.json with the digests of the others."""
    digests = {"summary.csv": _write(out / "summary.csv", [_summary_csv(summary)])}
    for name, by_policy in trials.items():
        digests[name] = _write(out / name, _trials_pieces(by_policy))
    payload = {
        "version": __version__,
        "seed": config.seed,
        "config": config.to_dict(),
        "duration_s": round(time.perf_counter() - started, 3),
        "outputs": digests,
    }
    _write(out / "manifest.json", [json.dumps(payload, indent=2, sort_keys=True) + "\n"])


def parse_prior_spec(spec: str, model: MarkovModel) -> Belief:
    """The design prior that ``spec`` names on the grid of ``model``."""
    n = model.n_points
    if spec == "uniform":
        return Belief.uniform(n)
    if spec.startswith("point:"):
        return Belief.point_mass(n, _parse_index(spec, n))
    if spec.startswith("propagated:"):
        return Belief(model.transition[_parse_index(spec, n)])
    if spec.startswith("file:"):
        path = spec.split(":", 1)[1]
        try:
            probs = np.loadtxt(path)
        except OSError as exc:
            raise ConfigError(f"cannot read prior file: {exc}") from exc
        if probs.shape != (n,):
            raise ConfigError(
                f"prior file must hold one list of n_grid = {n} weights, "
                f"got {probs.size} in shape {probs.shape}"
            )
        if (probs < 0).any() or not np.isfinite(probs).all():
            raise ConfigError("prior file weights must be finite and nonnegative")
        with np.errstate(over="ignore"):
            total = np.sum(probs)
        if total == 0:
            raise ConfigError("prior file weights sum to zero: the prior has no mass")
        if not np.isfinite(total):
            raise ConfigError("prior file weights sum to infinity: scale them down")
        try:
            return Belief(probs / total)
        except ValueError as exc:
            raise ConfigError(f"invalid prior file: {exc}") from exc
    raise ConfigError(
        f"invalid prior spec {spec!r}; expected point:<i>, propagated:<i>, "
        "uniform, or file:<path>"
    )


def _parse_index(spec: str, n: int) -> int:
    raw = spec.split(":", 1)[1]
    try:
        idx = int(raw)
    except ValueError as exc:
        raise ConfigError(f"invalid grid index {raw!r}") from exc
    if not 0 <= idx < n:
        raise ConfigError(f"grid index {idx} out of range [0, {n})")
    return idx


def cmd_optimize(args) -> int:
    config = load_config(args.config)
    if config.swept is not None:  # beams for the first sweep point
        config = replace(config, **{config.swept: float(getattr(config, config.swept)[0])})
    try:
        scheduler = prepare(config)["scheduler"]
        codebook, snr = scheduler.codebook, scheduler.snr
        prior = parse_prior_spec(args.prior, scheduler.model)
        indices, directional_score = select_directional_pair(
            prior, codebook, snr, config.m_beams
        )
        result = optimize_beams(prior, codebook, snr, config.m_beams, config.psa, indices)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    payload = {
        "n_tx": config.n_tx,
        "m_beams": config.m_beams,
        "snr_db": float(config.snr_db),
        "prior_spec": args.prior,
        "seed": config.psa.seed,
        "phases": [[float(f"{v:.17g}") for v in row] for row in result.phases],
        "gamma_ub": result.score,
        "gamma_ub_clamped": min(max(result.score, 0.0), 1.0),
        "evaluations": result.evaluations,
        "directional_baseline": {
            "codeword_indices": list(indices),
            "gamma_ub": directional_score,
            "mode": directional_mode(config.n_grid, config.m_beams),
        },
    }
    _write(Path(args.out), [json.dumps(payload, indent=2, sort_keys=True) + "\n"])
    return 0


def cmd_simulate(args) -> int:
    started = time.perf_counter()
    config = load_config(args.config)
    try:
        trials, summary = run_experiment(config)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _write_outputs(Path(args.out), config, started, summary, {"trials.csv": trials})
    return 0


def cmd_sweep(args) -> int:
    started = time.perf_counter()
    config = load_config(args.config)
    param = {"beta": "beta", "snr": "snr_db"}[args.param]
    try:
        results, summary = sweep(config, param=param)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    trials = {f"trials_{param}_{val:g}.csv": part for val, part in results.items()}
    _write_outputs(Path(args.out), config, started, summary, trials)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beamtrack",
        description="mmWave MISO beam tracking: simulation and beam design",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="design training beams for one prior")
    p_opt.add_argument("--config", required=True)
    p_opt.add_argument(
        "--prior",
        required=True,
        help="point:<i> | propagated:<i> | uniform | file:<path>",
    )
    p_opt.add_argument("--out", required=True, help="output JSON file")
    p_opt.set_defaults(func=cmd_optimize)

    p_sim = sub.add_parser("simulate", help="Monte-Carlo tracking run")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_swp = sub.add_parser("sweep", help="sweep beta or SNR")
    p_swp.add_argument("--config", required=True)
    p_swp.add_argument("--param", required=True, choices=("beta", "snr"))
    p_swp.add_argument("--out", required=True, help="output directory")
    p_swp.set_defaults(func=cmd_sweep)
    return parser


def pin_heap_thresholds() -> None:
    """Fix glibc's heap trim and mmap thresholds for this process and the
    workers it forks; a no-op where the C library has no ``mallopt``."""
    import ctypes  # imported here, as only a run needs it

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # TypeError: Windows loads no None
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)


def main(argv=None) -> int:
    pin_heap_thresholds()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"beamtrack: config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a valid config whose run cannot be allocated
        print(f"beamtrack: out of memory: {str(exc) or 'run too large'}", file=sys.stderr)
        return 2
    except IOError as exc:
        print(f"beamtrack: i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
