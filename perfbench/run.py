"""beamtrack benchmark: time to a simulate or sweep result, its quality,
and a per-layer trace.

    python3 perfbench/run.py --workload fig2_track --seed 1 --seconds 60 --trace 0

Each measured unit is one fresh process (``perfbench/child.py``) that
imports beamtrack and calls ``beamtrack.cli.main`` on config files written
here from ``--seed``; units run one at a time, serially
(``BEAMTRACK_THREADS`` unset, one OpenBLAS thread).  Every output file is
checked and digested.  With ``--trace 0`` the last stdout line reports the
end-to-end metrics; with ``--trace 1`` it reports the per-layer metrics of
traced units, the bound-kernel table and the tracing overhead.  A readable
table, the error rate included, goes to stderr; a full run record with
metadata and digests goes to ``perfbench/_runs/``.  See README.md.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if not (ROOT / "src" / "beamtrack" / "cli.py").is_file():
    sys.exit(f"perfbench: no beamtrack source under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

FIG2 = {
    "n_tx": 32,
    "n_grid": 64,
    "m_beams": 2,
    "sigma": 5,
    "p_ttis": 10,
    "beta": 0.2,
    "snr_db": 10.0,
    "edge_mode": "wrap",
}
POLICIES = ["psa_optimized", "directional_tep", "beam_cycling"]
DESIGNED = ("psa_optimized", "directional_tep")
# Frames per unit.  Fig. 2 needs enough frames that the one-off beam design
# is a small share of the run; the sweep needs few, so design dominates.
FIG2_FRAMES = 1000
SWEEP_FRAMES = 100
SWEEP_BETAS = [0.1, 0.3, 0.5, 0.7, 0.9]
SETUP_PROBES = 2  # import-only processes before each unit and at the end
RUN_LIMIT_S = 170.0  # every run ends well inside the 180 s allowed
REL_TOL = 1e-9

# Units of the end-to-end figures.  tep_psa goes to the table and the run
# record but not to the result line: at few frames per sweep point its
# spread across seeds is wider than any bound a later change could be held to.
UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "tep_psa": "1",
    "gamma_ub_psa": "1",
    "gamma_ub_directional": "1",
}
GATED = ("wall_s", "setup_s", "peak_rss_mb", "gamma_ub_psa", "gamma_ub_directional")
WORKLOADS = ("fig2_track", "beta_sweep")


def workload_calls(name: str, seed: int, work: Path, base: dict | None = None) -> list[dict]:
    """CLI calls of one unit of ``name``; writes their config files.

    ``base`` replaces the Fig. 2 array and channel settings (tests use a
    smaller array).
    """
    base = dict(FIG2 if base is None else base)
    common = {**base, "seed": seed, "psa": {"seed": seed}}
    calls = []

    def add(kind, cfg, tag, extra=()):
        path = work / f"{tag}.json"
        path.write_text(json.dumps(cfg, indent=1))
        out = work / f"{tag}_out"
        argv = [kind, "--config", str(path), *extra, "--out", str(out)]
        calls.append({"kind": kind, "argv": argv, "config": str(path), "out": str(out)})

    if name == "fig2_track":
        add("simulate", {**common, "n_frames": base.get("n_frames", FIG2_FRAMES),
                         "policy": POLICIES}, "fig2")
    elif name == "beta_sweep":
        add("sweep", {**common, "beta": SWEEP_BETAS, "snr_db": 20.0,
                      "n_frames": base.get("n_frames", SWEEP_FRAMES),
                      "policy": list(DESIGNED)}, "sweep", ("--param", "beta"))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return calls


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


class Quality:
    """Pooled quality figures of one unit's outputs."""

    def __init__(self):
        self.psa_errors = self.psa_trials = 0
        self.psa_gub: list[float] = []
        self.dir_gub: list[float] = []

    def metrics(self) -> dict:
        return {
            "tep_psa": self.psa_errors / self.psa_trials if self.psa_trials else math.nan,
            "gamma_ub_psa": float(np.mean(self.psa_gub)) if self.psa_gub else math.nan,
            "gamma_ub_directional": float(np.mean(self.dir_gub)) if self.dir_gub else math.nan,
        }


def _read_trials(path: Path) -> dict[str, list[tuple]]:
    by_policy: dict[str, list[tuple]] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            by_policy.setdefault(row["policy"], []).append(
                (int(row["frame"]), int(row["tti"]), int(row["true_index"]),
                 int(row["est_index"]), int(row["error"]), float(row["gamma_ub"]))
            )
    return by_policy


def _summary_cell(rows: list[tuple]) -> tuple:
    err = np.array([r[4] for r in rows], dtype=float)
    gub = np.array([r[5] for r in rows])
    p = float(err.mean())
    finite = np.isfinite(gub)
    mean_ub = float(gub[finite].mean()) if finite.any() else math.nan
    return p, math.sqrt(p * (1.0 - p) / len(rows)), mean_ub, len(rows)


def check_tracking(call: dict, quality: Quality) -> list[str]:
    """Checks of a ``simulate`` or ``sweep`` output directory."""
    cfg = json.loads(Path(call["config"]).read_text())
    out = Path(call["out"])
    problems = []
    periods = cfg["p_ttis"] - 1
    n, frames, policies = cfg["n_grid"], cfg["n_frames"], cfg["policy"]
    if call["kind"] == "simulate":
        files = {"": out / "trials.csv"}
    else:
        files = {f"beta={b:g}": out / f"trials_beta_{b:g}.csv" for b in cfg["beta"]}

    expected = {}
    for group, path in files.items():
        trials = _read_trials(path)
        if sorted(trials) != sorted(policies):
            problems.append(f"{path.name}: policies {sorted(trials)}")
            continue
        for pol, rows in trials.items():
            if len(rows) != frames * periods:
                problems.append(f"{path.name}/{pol}: {len(rows)} rows, want {frames * periods}")
            for frame, tti, true_idx, est, err, gub in rows:
                if not (0 <= frame < frames and 2 <= tti <= cfg["p_ttis"]
                        and 0 <= true_idx < n and 0 <= est < n
                        and err == int(true_idx != est)):
                    problems.append(f"{path.name}/{pol}: bad row {frame},{tti},{true_idx},{est},{err}")
                    break
                if not (math.isfinite(gub) if pol in DESIGNED else math.isnan(gub)):
                    problems.append(f"{path.name}/{pol}: gamma_ub {gub} at frame {frame}")
                    break
            cells = {group: rows} if group else {
                f"tti={t}": [r for r in rows if r[1] == t] for t in range(2, cfg["p_ttis"] + 1)
            }
            expected.update({(key, pol): _summary_cell(cell) for key, cell in cells.items() if cell})
            if pol == "psa_optimized":
                quality.psa_errors += sum(r[4] for r in rows)
                quality.psa_trials += len(rows)
                quality.psa_gub.extend(r[5] for r in rows)
            elif pol == "directional_tep":
                quality.dir_gub.extend(r[5] for r in rows)

    with open(out / "summary.csv", newline="") as fh:
        summary = {(r["group_key"], r["policy"]): r for r in csv.DictReader(fh)}
    if set(summary) != set(expected):
        problems.append(f"summary.csv groups {sorted(summary)} != {sorted(expected)}")
    for key, (p, se, mean_ub, count) in expected.items():
        row = summary.get(key)
        if row is None:
            continue
        got = (float(row["tep_mean"]), float(row["tep_stderr"]), float(row["mean_gamma_ub"]))
        if not all(map(_close, got, (p, se, mean_ub))) or int(row["n_frames"]) != count:
            problems.append(f"summary.csv {key}: {got} does not recompute to {(p, se, mean_ub)}")

    manifest = json.loads((out / "manifest.json").read_text())
    for name, digest in manifest["outputs"].items():
        if sha256(out / name) != digest:
            problems.append(f"manifest digest of {name} does not match the file")
    return problems


def output_digests(call: dict) -> dict[str, str]:
    out = Path(call["out"])
    return {p.name: sha256(p) for p in sorted(out.iterdir()) if p.is_file()}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("BEAMTRACK_THREADS", None)  # the program stays serial
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Runner:
    """Runs child processes one at a time inside one run's time limit."""

    def __init__(self, work: Path, started: float):
        self.work = work
        self.started = started
        self.env = child_env()
        self.jobs = 0

    def child(self, job: dict) -> dict | None:
        self.jobs += 1
        job_path = self.work / f"job{self.jobs}.json"
        result_path = self.work / f"result{self.jobs}.json"
        job_path.write_text(json.dumps(job))
        timeout = max(5.0, RUN_LIMIT_S - (time.perf_counter() - self.started))
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), str(job_path), str(result_path)],
                env=self.env, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            print(f"child timed out after {timeout:.0f} s", file=sys.stderr)
            return None
        if proc.returncode != 0 or not result_path.exists():
            print(f"child exited {proc.returncode}: {proc.stderr[-2000:]}", file=sys.stderr)
            return None
        result = json.loads(result_path.read_text())
        result["stderr"] = proc.stderr[-2000:]
        return result


def run_unit(runner: Runner, calls: list[dict], trace: bool, corrupt=None) -> dict:
    """One unit: its CLI calls in one fresh process, then every check."""
    for call in calls:
        shutil.rmtree(call["out"], ignore_errors=True)
    result = runner.child({"argvs": [c["argv"] for c in calls], "trace": trace})
    unit = {"trace": trace, "ok": [], "problems": [], "digests": {}, "quality": None}
    if result is None:
        unit["ok"] = [False] * len(calls)
        return unit
    unit.update({k: result[k] for k in ("setup_s", "wall_s", "peak_rss_mb", "codes", "meta")})
    unit["layers"] = result.get("layers")
    if unit["layers"] is not None:
        unit["layers"]["cli.rows_written"] = sum(
            path.read_text().count("\n") - 1
            for call in calls
            for path in Path(call["out"]).glob("*.csv")
        )
    if corrupt is not None:
        corrupt(calls)
    quality = Quality()
    for call, code in zip(calls, result["codes"]):
        if code != 0:
            problems = [f"exit code {code}: {result['stderr']}"]
        else:
            try:
                problems = check_tracking(call, quality)
                unit["digests"].update(output_digests(call))
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        unit["ok"].append(not problems)
        unit["problems"].extend(f"{call['kind']}: {p}" for p in problems)
    unit["quality"] = quality.metrics()
    return unit


def _stable(digests: dict) -> dict:
    """Digests of the outputs that repeat byte for byte (not the manifest,
    which records the run duration)."""
    return {k: v for k, v in digests.items() if k != "manifest.json"}


def _median(values):
    values = [v for v in values if v is not None]
    return float(statistics.median(values)) if values else math.nan


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def measure(workload: str, seed: int, seconds: float, trace: bool,
            base: dict | None = None, corrupt=None) -> tuple[dict, dict]:
    """One benchmark run; returns the printed result and the run record."""
    started = time.perf_counter()
    work = BENCH / "_work" / f"{workload}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(work, started)
        calls = workload_calls(workload, seed, work, base)
        setups = []

        def probe_setup():
            # Spread over the run, the samples see more of the host's slow
            # swings in speed than a burst at the start would.
            for _ in range(SETUP_PROBES):
                probe = runner.child({"argvs": []})
                if probe is not None:
                    setups.append(probe["setup_s"])

        # Untraced and traced units alternate; a run has at least one of each kind.
        minimum = 2 if trace else 1
        units: list[dict] = []
        unit_s = 0.0
        while True:
            elapsed = time.perf_counter() - started
            if len(units) >= minimum and elapsed + unit_s > seconds:
                break
            if units and elapsed + unit_s > RUN_LIMIT_S - 10.0:
                break
            t0 = time.perf_counter()
            probe_setup()
            unit = run_unit(runner, calls, trace and len(units) % 2 == 1, corrupt)
            unit_s = max(unit_s, time.perf_counter() - t0)
            units.append(unit)
            if unit.get("codes") is None:
                break  # the process itself failed; repeating would not help
        probe_setup()
        kernel = runner.child({"argvs": [], "kernels": True, "seed": seed}) if trace else None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(u["ok"]) for u in units)
    failed = sum(not ok for u in units for ok in u["ok"])
    reference = next((u for u in units if all(u["ok"])), None)
    for u in units:
        if all(u["ok"]) and _stable(u["digests"]) != _stable(reference["digests"]):
            u["ok"] = [False] * len(u["ok"])
            u["problems"].append("outputs differ from an earlier unit of the same seed")
            failed += len(u["ok"])
    correct = failed == 0

    plain = [u for u in units if not u["trace"] and u.get("codes") is not None]
    traced = [u for u in units if u["trace"] and u.get("codes") is not None]
    quality = reference["quality"] if reference else {}
    e2e = {
        "wall_s": _median(u["wall_s"] for u in plain),
        "setup_s": _median(setups + [u["setup_s"] for u in units if "setup_s" in u]),
        "peak_rss_mb": _median(u["peak_rss_mb"] for u in plain),
        **{k: quality.get(k, math.nan) for k in ("tep_psa", "gamma_ub_psa", "gamma_ub_directional")},
    }
    if trace:
        layer_names = traced[0]["layers"] if traced else {}
        metrics = {k: _median(u["layers"][k] for u in traced) for k in layer_names}
        metrics["trace.overhead_frac"] = _median(u["wall_s"] for u in traced) / e2e["wall_s"] - 1.0
        if kernel is None:
            correct = False
        else:
            metrics.update(kernel["kernel_table"])
            correct = correct and kernel["kernel_mismatches"] == 0
        printed = {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}
    else:
        printed = {k: {"value": e2e[k], "unit": UNITS[k]} for k in GATED}

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": printed}
    meta = dict(next((u["meta"] for u in units if "meta" in u), {}))
    meta.update({"git_sha": git_sha(), "seed": seed, "workload": workload,
                 "seconds": seconds, "trace": trace, "cpu_affinity": "not pinned"})
    record = {
        "meta": meta,
        "result": result,
        "end_to_end": e2e,
        "error_rate": failed / attempted if attempted else math.nan,
        "setup_samples": setups,
        "units": [{k: v for k, v in u.items() if k != "layers"} for u in units],
        "kernel": kernel,
    }
    return result, record


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if name.endswith(("_us", ".us_per_call", "_us_per_frame_period")):
        return "us"
    if name.endswith(("_s", ".s", ".s_per_call")):
        return "s"
    if name.endswith(("_frac", "_ratio")):
        return "1"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    runs = BENCH / "_runs"
    runs.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    (runs / name).write_text(json.dumps(record, indent=1, default=str))
    if math.isnan(record["end_to_end"]["wall_s"]):
        for unit in record["units"]:
            print("\n".join(unit["problems"]), file=sys.stderr)
        sys.exit(f"perfbench: no unit completed; see {runs / name}")

    table = {k: {"value": v, "unit": UNITS[k]} for k, v in record["end_to_end"].items()}
    if args.trace:
        table.update(result["metrics"])
    for key, m in table.items():
        print(f"{key:48s} {m['value']:>16.6g} {m['unit']}", file=sys.stderr)
    print(f"{'error_rate':48s} {record['error_rate']:>16.6g} 1"
          f"  ({result['failed']} of {result['attempted']} calls failed)", file=sys.stderr)
    for unit in record["units"]:
        for problem in unit["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
