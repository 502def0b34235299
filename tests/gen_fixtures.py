"""Regenerate the committed output fixtures that ``test_fixtures.py`` checks.

    PYTHONPATH=src python tests/gen_fixtures.py

Each case runs the CLI on a small config and keeps the outputs a run makes
(not the manifest, whose duration changes from run to run).  A change of
study behaviour regenerates the fixtures in the same commit, and its log
names the cells that moved.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from beamtrack import cli

FIXTURES = Path(__file__).resolve().parent / "fixtures"

POLICIES = ["psa_optimized", "directional_tep", "beam_cycling"]
# Fig. 2 settings are the config defaults.
FIG2 = {"n_frames": 48, "policy": POLICIES, "seed": 1}
CASES = {
    "fig2_wrap": (["simulate"], FIG2),
    "fig2_truncate": (["simulate"], {**FIG2, "edge_mode": "truncate"}),
    "beta_sweep": (
        ["sweep", "--param", "beta"],
        {**FIG2, "n_frames": 16, "beta": [0.1, 0.5, 0.9], "snr_db": 20.0},
    ),
    "optimize_propagated17": (["optimize", "--prior", "propagated:17"], {}),
}
# Beam designs at the β-sweep's design points (20 dB) and at 40 dB, where the
# bound kernel is least accurate against its oracle; with the Fig. 2 design
# above, seven operating points.
DESIGN_POINTS = [(0.1, 20), (0.3, 20), (0.5, 20), (0.7, 20), (0.9, 20), (0.2, 40)]
for beta, snr_db in DESIGN_POINTS:
    CASES[f"optimize_propagated0_beta{beta:g}_{snr_db}db"] = (
        ["optimize", "--prior", "propagated:0"],
        {"beta": beta, "snr_db": float(snr_db)},
    )


def generate(out: Path, cases=CASES) -> list[Path]:
    """Run each case into ``out/<case>``; returns the output files, relative
    to ``out``, in sorted order."""
    for name, (command, config) in cases.items():
        case = out / name
        case.mkdir(parents=True, exist_ok=True)
        config_path = out / f"{name}.config.json"
        config_path.write_text(json.dumps(config))
        target = case / "out.json" if command[0] == "optimize" else case
        code = cli.main([*command, "--config", str(config_path), "--out", str(target)])
        if code != 0:
            raise RuntimeError(f"case {name} exited {code}")
        config_path.unlink()
        (case / "manifest.json").unlink(missing_ok=True)
    return sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())


if __name__ == "__main__":
    for path in generate(FIXTURES):
        print(path, (FIXTURES / path).stat().st_size, file=sys.stderr)
