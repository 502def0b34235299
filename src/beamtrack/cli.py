"""Command-line front end: beam optimization, simulation, and sweeps.

Configs are JSON files whose keys mirror ExperimentConfig (all optional).
SNR is given in dB.  Outputs are CSV tables plus a JSON run manifest with
content digests of every written file.

Exit codes: 0 success, 2 configuration error, 3 output I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .arraymodel import build_codebook, build_grid, build_markov
from .harness import ExperimentConfig, run_experiment, sweep
from .optimizer import directional_mode, optimize_beams, select_directional_pair
from .tracking import Belief

SUMMARY_COLUMNS = (
    "group_key",
    "policy",
    "tep_mean",
    "tep_stderr",
    "mean_gamma_ub",
    "n_frames",
)
TRIAL_COLUMNS = (
    "policy",
    "frame",
    "tti",
    "true_index",
    "est_index",
    "error",
    "gamma_ub",
)
# Trial rows formatted and written per piece: the text of a run's trials is
# never held whole, whatever n_frames is.
CHUNK_ROWS = 4096


class ConfigError(Exception):
    pass


def _fmt(x: float) -> str:
    if isinstance(x, float) and np.isnan(x):
        return "nan"
    return f"{x:.12g}"


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
        lines.append(
            ",".join(
                [
                    r.group_key,
                    r.policy,
                    _fmt(r.tep_mean),
                    _fmt(r.tep_stderr),
                    _fmt(r.mean_gamma_ub),
                    str(r.n_frames),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _trials_pieces(trials_by_policy: dict[str, np.ndarray]):
    """The text of trials.csv, CHUNK_ROWS rows at a time."""
    yield ",".join(TRIAL_COLUMNS) + "\n"
    for policy in sorted(trials_by_policy):
        trials = trials_by_policy[policy]
        for lo in range(0, len(trials), CHUNK_ROWS):
            chunk = trials[lo : lo + CHUNK_ROWS]
            # Column-wise: tolist() gives Python ints and floats, which format
            # as _fmt formats each cell (a NaN of either sign prints "nan").
            columns = [chunk[name].tolist() for name in TRIAL_COLUMNS[1:]]
            yield "".join(
                f"{policy},{frame},{tti},{true},{est},{err},{ub:.12g}\n"
                for frame, tti, true, est, err, ub in zip(*columns)
            )


def _manifest(config: ExperimentConfig, digests: dict[str, str], started: float) -> str:
    payload = {
        "version": __version__,
        "seed": config.seed,
        "config": config.to_dict(),
        "duration_s": round(time.time() - started, 3),
        "outputs": digests,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def parse_prior_spec(spec: str, config: ExperimentConfig) -> Belief:
    n = config.n_grid
    if spec == "uniform":
        return Belief.uniform(n)
    if spec.startswith("point:"):
        return Belief.point_mass(n, _parse_index(spec, n))
    if spec.startswith("propagated:"):
        beta = config.beta[0] if config.swept == "beta" else config.beta
        model = build_markov(n, float(beta), config.sigma, edge_mode=config.edge_mode)
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
    started = time.time()
    config = load_config(args.config)
    snr_db = config.snr_db[0] if config.swept == "snr_db" else config.snr_db
    try:
        snr = 10.0 ** (float(snr_db) / 10.0)
        prior = parse_prior_spec(args.prior, config)
        grid = build_grid(config.n_grid)
        codebook = build_codebook(grid, config.n_tx)
        indices, directional_score = select_directional_pair(
            prior, codebook, snr, config.m_beams
        )
        result = optimize_beams(
            prior,
            codebook,
            snr,
            config.m_beams,
            config.psa,
            indices,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    payload = {
        "n_tx": config.n_tx,
        "m_beams": config.m_beams,
        "snr_db": float(snr_db),
        "prior_spec": args.prior,
        "seed": config.psa.seed,
        "phases": [[float(f"{v:.17g}") for v in row] for row in result.beams.phases],
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
    started = time.time()
    config = load_config(args.config)
    try:
        trials, summary = run_experiment(config)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = Path(args.out)
    digests = {
        "summary.csv": _write(out / "summary.csv", [_summary_csv(summary)]),
        "trials.csv": _write(out / "trials.csv", _trials_pieces(trials)),
    }
    _write(out / "manifest.json", [_manifest(config, digests, started)])
    return 0


def cmd_sweep(args) -> int:
    started = time.time()
    config = load_config(args.config)
    param = {"beta": "beta", "snr": "snr_db"}[args.param]
    try:
        results, summary = sweep(config, param=param)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = Path(args.out)
    digests = {"summary.csv": _write(out / "summary.csv", [_summary_csv(summary)])}
    for val, trials in results.items():
        name = f"trials_{param}_{val:g}.csv"
        digests[name] = _write(out / name, _trials_pieces(trials))
    _write(out / "manifest.json", [_manifest(config, digests, started)])
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"beamtrack: config error: {exc}", file=sys.stderr)
        return 2
    except IOError as exc:
        print(f"beamtrack: i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
