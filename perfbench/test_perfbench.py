"""Smoke test of the benchmark driver on a tiny config (n_tx 16, N 32, sigma 3).

Run with ``python -m pytest perfbench``.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

TINY = {
    "n_tx": 16,
    "n_grid": 32,
    "m_beams": 2,
    "sigma": 3,
    "p_ttis": 5,
    "beta": 0.4,
    "snr_db": 10.0,
    "edge_mode": "wrap",
    "n_frames": 10,
}
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
LAYERS = ("cli", "harness", "tracking", "kernels", "optimizer")  # plus arraymodel.build_s


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_printed_with_its_unit(trace, section):
    result, record = run.measure("fig2_track", 3, 0.0, trace, base=TINY)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {k: m["unit"] for k, m in result["metrics"].items()}
    assert printed == _units(section)
    assert set(record["units"][0]["digests"]) == {"summary.csv", "trials.csv", "manifest.json"}
    if trace:
        values = {k: m["value"] for k, m in result["metrics"].items()}
        layers = values["arraymodel.build_s"] + sum(values[f"{lay}.self_s"] for lay in LAYERS)
        assert layers == pytest.approx(values["trace.wall_s"], rel=0.05)
        assert values["optimizer.optimize_beams.evaluations"] == 10_050


def _flip_error_column(calls):
    path = Path(calls[0]["out"]) / "trials.csv"
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[5] = "0" if cells[5] == "1" else "1"
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_corrupted_output_counts_as_failed():
    result, record = run.measure("fig2_track", 3, 0.0, False, base=TINY, corrupt=_flip_error_column)
    assert result["failed"] == 1 and not result["correct"]
    assert record["error_rate"] == 1 / result["attempted"]
    assert record["units"][0]["problems"]
