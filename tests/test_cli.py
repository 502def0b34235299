"""Command-line interface tests: file contracts, determinism, exit codes."""

import ctypes
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import beamtrack
from beamtrack import cli, harness, kernels
from beamtrack.cli import (
    SUMMARY_COLUMNS,
    TRIAL_COLUMNS,
    ConfigError,
    _trials_pieces,
    _write,
    load_config,
    main,
    parse_prior_spec,
)
from beamtrack.harness import TRIAL_DTYPE
from beamtrack.tracking import sensing_matrix

BASE_CONFIG = {
    "n_tx": 8,
    "n_grid": 16,
    "m_beams": 2,
    "sigma": 2,
    "p_ttis": 3,
    "beta": 0.3,
    "snr_db": 10.0,
    "n_frames": 2,
    "policy": ["directional_tep", "beam_cycling"],
    "psa": {"swarm_size": 8, "max_iters": 15},
    "seed": 3,
}


def _never_called(*args, **kwargs):
    raise AssertionError("a run started on an invalid config")


def _write_config(tmp_path, overrides=None, name="config.json"):
    data = dict(BASE_CONFIG)
    if overrides:
        data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestConfigLoading:
    def test_round_trip(self, tmp_path):
        path = _write_config(tmp_path)
        cfg = load_config(path)
        assert cfg.n_tx == 8 and cfg.policies == ("directional_tep", "beam_cycling")
        assert cfg.psa.swarm_size == 8

    def test_prior_specs(self, tmp_path):
        model = harness.prepare(load_config(_write_config(tmp_path)))["scheduler"].model
        uni = parse_prior_spec("uniform", model)
        np.testing.assert_allclose(uni.probs, 1 / 16)
        pm = parse_prior_spec("point:5", model)
        assert pm.probs[5] == 1.0
        prop = parse_prior_spec("propagated:0", model)
        assert prop.probs.sum() == pytest.approx(1.0)
        assert prop.probs[0] > prop.probs[1] > 0

    def test_prior_file(self, tmp_path):
        model = harness.prepare(load_config(_write_config(tmp_path)))["scheduler"].model
        pfile = tmp_path / "prior.txt"
        pfile.write_text("\n".join(["1"] * 16))
        belief = parse_prior_spec(f"file:{pfile}", model)
        np.testing.assert_allclose(belief.probs, 1 / 16)

    @pytest.mark.parametrize(
        "text,count",
        [("1 2 3 4 5", 5), ("1\n" * 17, 17), ("1 1 1 1\n" * 4, 16), ("1", 1)],
        ids=["short", "long", "two-d", "scalar"],
    )
    def test_prior_file_length(self, tmp_path, capsys, text, count):
        # the file must hold exactly n_grid = 16 weights in one list
        cfg = _write_config(tmp_path)
        pfile = tmp_path / "prior.txt"
        pfile.write_text(text)
        out = tmp_path / "x.json"
        code = main(["optimize", "--config", cfg, "--prior", f"file:{pfile}", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "n_grid = 16 weights" in err and f"got {count}" in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "weights,message",
        [
            (["0"] * 16, "sum to zero"),
            (["1"] * 15 + ["inf"], "finite and nonnegative"),
            (["1"] * 15 + ["nan"], "finite and nonnegative"),
            (["1"] * 15 + ["-1"], "finite and nonnegative"),
            (["1e308"] * 16, "sum to infinity"),
        ],
        ids=["zero", "inf", "nan", "negative", "overflow"],
    )
    def test_prior_file_weights(self, tmp_path, capsys, weights, message):
        # weights are checked before they are normalized: one message per
        # fault and no numpy warning (made an error here) on the way
        cfg = _write_config(tmp_path)
        pfile = tmp_path / "prior.txt"
        pfile.write_text("\n".join(weights))
        out = tmp_path / "x.json"
        code = main(["optimize", "--config", cfg, "--prior", f"file:{pfile}", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and message in err[0]
        assert not out.exists()

    # (field named in the message, config overrides): one bad value or more
    # per field of ExperimentConfig and PsaConfig.  BASE_CONFIG has n_grid 16
    # and sigma 2.
    BAD_VALUES = [
        ("n_tx", {"n_tx": 0}),
        ("n_tx", {"n_tx": "8"}),
        ("n_grid", {"n_grid": 1}),
        ("n_grid", {"n_grid": 4}),
        ("n_grid", {"n_grid": 16.0}),
        ("m_beams", {"m_beams": 0}),
        ("m_beams", {"m_beams": 17}),
        ("sigma", {"sigma": -1}),
        ("sigma", {"sigma": 8}),
        ("p_ttis", {"p_ttis": 1}),
        ("beta", {"beta": 1.5}),
        ("beta", {"beta": []}),
        ("snr_db", {"snr_db": "10"}),
        ("snr_db", {"snr_db": float("nan")}),
        ("beta and snr_db", {"beta": [0.1], "snr_db": [10.0]}),
        ("n_frames", {"n_frames": 0}),
        ("n_frames", {"n_frames": None}),
        ("policy", {"policy": []}),
        ("policy", {"policy": ["directional_tep", "directional_tep"]}),
        ("policy", {"policy": "oracle"}),
        ("policy", {"policy": 3}),
        ("psa", {"psa": [8]}),
        ("psa", {"psa": None}),
        ("seed", {"seed": -1}),
        ("seed", {"seed": True}),
        ("edge_mode", {"edge_mode": "circular"}),
        ("noiseless", {"noiseless": "false"}),
        ("noiseless", {"noiseless": 0}),
        ("noiseless", {"noiseless": None}),
        # a removed field: a config that still has it is refused by name
        ("design_prior", {"design_prior": "oracle"}),
        ("psa.swarm_size", {"psa": {"swarm_size": 1}}),
        ("psa.max_iters", {"psa": {"max_iters": 0}}),
        ("psa.inertia", {"psa": {"inertia": 0}}),
        ("psa.inertia", {"psa": {"inertia": True}}),
        ("psa.cognitive_coeff", {"psa": {"cognitive_coeff": -1.0}}),
        ("psa.social_coeff", {"psa": {"social_coeff": "1.49"}}),
        ("psa.velocity_clamp", {"psa": {"velocity_clamp": "1"}}),
        ("psa.velocity_clamp", {"psa": {"velocity_clamp": float("inf")}}),
        # finite, but the swarm's initial velocity range [-clamp, clamp] is not
        ("psa.velocity_clamp", {"psa": {"velocity_clamp": 1e308}}),
        ("psa.seed", {"psa": {"seed": 1.5}}),
        ("psa.stall_iters", {"psa": {"stall_iters": 0}}),
        ("psa.stall_tol", {"psa": {"stall_tol": "x"}}),
        ("psa.stall_tol", {"psa": {"stall_tol": -1e-9}}),
    ]

    # Largest value of each field that a trial column stores: tti (i2) holds
    # p_ttis, the indices (i2) n_grid - 1 and frame (i4) n_frames - 1.
    COLUMN_LIMITS = [("p_ttis", 32767), ("n_grid", 32768), ("n_frames", 2**31)]

    @pytest.mark.parametrize("field,limit", COLUMN_LIMITS)
    def test_column_limits(self, tmp_path, capsys, monkeypatch, field, limit):
        # the limit loads and one past it exits 2 naming the field; neither runs
        assert getattr(load_config(_write_config(tmp_path, {field: limit})), field) == limit
        monkeypatch.setattr(harness, "prepare", _never_called)
        monkeypatch.setattr(harness, "_run_block", _never_called)
        cfg = _write_config(tmp_path, {field: limit + 1})
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert f"{field} must be <= {limit}" in capsys.readouterr().err
        assert not out.exists()

    def test_beam_cycling_needs_two_antennas(self, tmp_path, capsys, monkeypatch):
        # the probe sweep builds an n_tx-point grid, which needs n_tx >= 2;
        # without beam_cycling one antenna loads
        single = {"n_tx": 1, "policy": "directional_tep"}
        assert load_config(_write_config(tmp_path, single)).n_tx == 1
        monkeypatch.setattr(harness, "prepare", _never_called)
        monkeypatch.setattr(harness, "_run_block", _never_called)
        cfg = _write_config(tmp_path, {"n_tx": 1})
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert "n_tx must be >= 2 with policy beam_cycling, got 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field,overrides",
        BAD_VALUES,
        ids=[json.dumps(o, separators=(",", ":")) for _, o in BAD_VALUES],
    )
    def test_bad_value_names_field(self, tmp_path, field, overrides):
        path = _write_config(tmp_path, overrides)
        with pytest.raises(ConfigError, match=re.escape(field)):
            load_config(path)


class TestSimulate:
    def test_outputs_and_exit_code(self, tmp_path):
        cfg = _write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == ",".join(SUMMARY_COLUMNS)
        # (p_ttis - 1) groups per policy
        assert len(summary) == 1 + 2 * 2
        trials = (out / "trials.csv").read_text().splitlines()
        assert trials[0] == ",".join(TRIAL_COLUMNS)
        assert len(trials) == 1 + 2 * 2 * 2  # policies * frames * periods
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 3
        assert manifest["config"]["n_grid"] == 16
        for name, digest in manifest["outputs"].items():
            body = (out / name).read_text().encode()
            assert hashlib.sha256(body).hexdigest() == digest

    def test_duration_ignores_wall_clock_steps(self, tmp_path, monkeypatch):
        # the wall clock steps back an hour at every read; the manifest's
        # duration comes from a monotonic clock
        clock = iter(range(10**9, 0, -3600))
        monkeypatch.setattr(cli.time, "time", lambda: float(next(clock)))
        out = tmp_path / "run"
        assert main(["simulate", "--config", _write_config(tmp_path), "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["duration_s"] >= 0

    def test_reruns_byte_identical(self, tmp_path):
        cfg = _write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out_b)]) == 0
        for name in ("summary.csv", "trials.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_single_frame(self, tmp_path):
        cfg = _write_config(
            tmp_path, {"n_frames": 1, "policy": "beam_cycling", "p_ttis": 4}
        )
        out = tmp_path / "single"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        trials = (out / "trials.csv").read_text().splitlines()
        assert len(trials) == 1 + 3

    def test_directional_beyond_budget(self, tmp_path):
        # comb(64, 5) exceeds the exhaustive budget; the directional policy
        # falls back to the greedy codeword search instead of exiting 2
        cfg = _write_config(
            tmp_path,
            {"n_grid": 64, "m_beams": 5, "n_frames": 3, "policy": "directional_tep"},
        )
        out = tmp_path / "m5"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        trials = (out / "trials.csv").read_text().splitlines()
        assert len(trials) == 1 + 3 * 2
        assert all(line.split(",")[-1] != "nan" for line in trials[1:])

    def test_exit_2_on_bad_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_exit_2_on_unknown_field(self, tmp_path):
        cfg = _write_config(tmp_path, {"bogus_field": 1})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_exit_2_on_unknown_psa_field(self, tmp_path, capsys):
        # refused by the check that refuses an unknown top-level field
        cfg = _write_config(tmp_path, {"psa": {"bogus": 1}})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "invalid config: unknown config fields: ['psa.bogus']" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("value", ["abc", "0", "1.5", "CPUS+1"])
    def test_exit_2_on_bad_worker_count(self, tmp_path, capsys, monkeypatch, command, value):
        # checked before any design or worker starts: either fails the test
        from concurrent import futures

        cap = os.cpu_count()
        value = str(cap + 1) if value == "CPUS+1" else value
        monkeypatch.setenv("BEAMTRACK_THREADS", value)
        monkeypatch.setattr(futures, "ProcessPoolExecutor", _never_called)
        monkeypatch.setattr(harness, "prepare", _never_called)
        monkeypatch.setattr(harness, "_run_block", _never_called)
        cfg = _write_config(tmp_path, {"beta": [0.3]} if command == "sweep" else None)
        extra = ["--param", "beta"] if command == "sweep" else []
        code = main([command, "--config", cfg, *extra, "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"BEAMTRACK_THREADS must be an integer in [1, {cap}], got {value!r}" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("message", ["Unable to allocate 342. GiB for an array", ""])
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_exit_2_on_memory_error(self, tmp_path, capsys, monkeypatch, command, message):
        # a valid config whose run cannot be allocated (n_frames 2**31 needs
        # 342 GiB of trial rows); the run is stubbed, as a real allocation
        # may succeed lazily under memory overcommit and then run for hours
        def out_of_memory(*args, **kwargs):
            raise MemoryError(message)

        run = "run_experiment" if command == "simulate" else "sweep"
        monkeypatch.setattr(cli, run, out_of_memory)
        overrides = {"n_frames": 2**31, "policy": ["directional_tep"]}
        if command == "sweep":
            overrides["beta"] = [0.1, 0.3]
        cfg = _write_config(tmp_path, overrides)
        extra = ["--param", "beta"] if command == "sweep" else []
        code = main([command, "--config", cfg, *extra, "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("beamtrack: out of memory: ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_exit_2_on_missing_config(self, tmp_path):
        assert (
            main(
                [
                    "simulate",
                    "--config",
                    str(tmp_path / "absent.json"),
                    "--out",
                    str(tmp_path / "o"),
                ]
            )
            == 2
        )

    def test_exit_2_on_list_param(self, tmp_path):
        cfg = _write_config(tmp_path, {"beta": [0.1, 0.2]})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "overrides",
        [
            {"psa": 3},
            {"psa": [8]},
            {"n_frames": 2.5},
            {"sigma": "2"},
            {"seed": True},
            {"noiseless": "false"},
            {"psa": {"stall_tol": "x"}},
            {"policy": []},
            {"policy": ["directional_tep", "directional_tep"]},
        ],
    )
    def test_exit_2_on_wrong_type(self, tmp_path, capsys, overrides):
        cfg = _write_config(tmp_path, overrides)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"seed": -1}, "invalid config: seed must be >= 0"),
            ({"psa": {"swarm_size": 8, "seed": -1}}, "psa.seed must be >= 0"),
        ],
        ids=["seed", "psa.seed"],
    )
    def test_exit_2_on_negative_seed(self, tmp_path, capsys, overrides, message):
        cfg = _write_config(tmp_path, overrides)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field,raw,message",
        [
            ("snr_db", '"10"', "snr_db must be a number"),
            ("snr_db", '"nan"', "snr_db must be a number"),
            ("snr_db", "NaN", "snr_db must be finite"),
            ("snr_db", "1e400", "snr_db must be finite"),
            ("snr_db", "4000", "snr_db must be finite and lie in [-300, 300]"),
            ("snr_db", "true", "snr_db must be a number"),
            ("beta", "1.5", "beta must be finite and lie in [0, 1]"),
            ("beta", "-0.1", "beta must be finite and lie in [0, 1]"),
            ("beta", '"0.2"', "beta must be a number"),
            ("beta", "null", "beta must be a number"),
        ],
        ids=[
            "snr-string",
            "snr-nan-string",
            "snr-nan",
            "snr-overflow",
            "snr-range",
            "snr-bool",
            "beta-above",
            "beta-below",
            "beta-string",
            "beta-null",
        ],
    )
    def test_exit_2_on_invalid_real(
        self, tmp_path, capsys, monkeypatch, field, raw, message
    ):
        # rejected at config load, before any design or frame runs
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**BASE_CONFIG, field: "VALUE"}).replace('"VALUE"', raw))
        monkeypatch.setattr(harness, "_run_block", _never_called)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_exit_3_on_unwritable_out(self, tmp_path):
        cfg = _write_config(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        out = blocker / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 3


def _streamed(trials, path):
    """trials.csv as the writer puts it on disk, checked against its digest."""
    digest = _write(path, _trials_pieces(trials))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    return path.read_text()


def _small_trials():
    """A 7-row, two-policy table with NaN bounds of both signs."""
    rows = np.zeros(7, dtype=TRIAL_DTYPE)
    rows["frame"] = [0, 1, 2, 3, 40000, 5, 6]
    rows["tti"] = [2, 3, 4, 5, 6, 7, 8]
    rows["true_index"] = [0, 63, 5, 7, 1, 2, 3]
    rows["est_index"] = [0, 62, 5, 6, 1, 2, 4]
    rows["error"] = rows["true_index"] != rows["est_index"]
    rows["gamma_ub"] = [np.nan, 1e-300, 0.0, 1.5, 0.123456789012345, -np.nan, 2e-7]
    return {"psa_optimized": rows, "beam_cycling": rows[::-1]}


class TestTrialsCsv:
    def test_matches_per_row_formatting(self, tmp_path):
        # the column-wise writer prints every cell as the per-row one did
        trials = _small_trials()
        want = [",".join(TRIAL_COLUMNS)]
        for policy in sorted(trials):
            for row in trials[policy]:
                cells = [str(int(row[name])) for name in TRIAL_COLUMNS[1:-1]]
                want.append(",".join([policy, *cells, f"{float(row['gamma_ub']):.12g}"]))
        got = _streamed(trials, tmp_path / "trials.csv")
        assert got == "\n".join(want) + "\n"
        assert {"nan", "1e-300", "0"} <= {line.split(",")[-1] for line in got.split()}

    def test_chunk_size_keeps_text(self, tmp_path, monkeypatch):
        # pieces of 3 rows split both policies mid-table; the file is the same
        trials = _small_trials()
        whole = _streamed(trials, tmp_path / "whole.csv")
        monkeypatch.setattr(cli, "CHUNK_ROWS", 3)
        assert _streamed(trials, tmp_path / "pieces.csv") == whole

    def test_peak_memory_is_one_piece(self, tmp_path):
        # 400k rows make an 18 MB file; formatting it whole traced 98 MB
        rng = np.random.default_rng(0)
        rows = np.zeros(200_000, dtype=TRIAL_DTYPE)
        rows["frame"] = np.arange(len(rows)) // 9
        rows["tti"] = np.arange(len(rows)) % 9 + 2
        rows["true_index"] = rng.integers(64, size=len(rows))
        rows["est_index"] = rng.integers(64, size=len(rows))
        rows["gamma_ub"] = rng.random(len(rows))
        trials = {"psa_optimized": rows, "directional_tep": rows}
        path = tmp_path / "trials.csv"
        tracemalloc.start()
        try:
            _write(path, _trials_pieces(trials))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 16e6
        assert peak < 4e6


class TestSweepCommand:
    def test_beta_sweep_outputs(self, tmp_path):
        cfg = _write_config(tmp_path, {"beta": [0.1, 0.5], "policy": "beam_cycling"})
        out = tmp_path / "swp"
        assert main(["sweep", "--config", cfg, "--param", "beta", "--out", str(out)]) == 0
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == ",".join(SUMMARY_COLUMNS)
        keys = [line.split(",")[0] for line in summary[1:]]
        assert keys == ["beta=0.1", "beta=0.5"]
        assert (out / "trials_beta_0.1.csv").exists()
        assert (out / "trials_beta_0.5.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["outputs"]) == {
            "summary.csv",
            "trials_beta_0.1.csv",
            "trials_beta_0.5.csv",
        }
        for name, digest in manifest["outputs"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    def test_snr_sweep(self, tmp_path):
        cfg = _write_config(tmp_path, {"snr_db": [0.0, 10.0], "policy": "beam_cycling"})
        out = tmp_path / "snr"
        assert main(["sweep", "--config", cfg, "--param", "snr", "--out", str(out)]) == 0
        keys = [
            line.split(",")[0]
            for line in (out / "summary.csv").read_text().splitlines()[1:]
        ]
        assert keys == ["snr_db=0", "snr_db=10"]

    @pytest.mark.parametrize(
        "overrides,flag", [({"beta": [0.1, 0.5]}, "beta"), ({"snr_db": [0.0, 10.0]}, "snr")]
    )
    def test_param_is_optional(self, tmp_path, overrides, flag):
        # without --param the swept field comes from the config, and the
        # outputs are the bytes the run with --param writes
        cfg = _write_config(tmp_path, {**overrides, "policy": "directional_tep"})
        checked, bare = tmp_path / "checked", tmp_path / "bare"
        assert main(["sweep", "--config", cfg, "--param", flag, "--out", str(checked)]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(bare)]) == 0
        names = sorted(p.name for p in checked.glob("*.csv"))
        assert names == sorted(p.name for p in bare.glob("*.csv")) and len(names) == 3
        for name in names:
            assert (bare / name).read_bytes() == (checked / name).read_bytes()

    def test_exit_2_on_param_not_swept(self, tmp_path, capsys, monkeypatch):
        # --param must name the config's list-valued field
        cfg = _write_config(tmp_path, {"beta": [0.1, 0.5]})
        monkeypatch.setattr(harness, "_run_block", _never_called)
        out = tmp_path / "o"
        assert main(["sweep", "--config", cfg, "--param", "snr", "--out", str(out)]) == 2
        assert "requested sweep over 'snr_db' but 'beta' is list-valued" in capsys.readouterr().err
        assert not out.exists()

    def test_exit_2_on_scalar_param(self, tmp_path):
        cfg = _write_config(tmp_path)
        code = main(["sweep", "--config", cfg, "--param", "beta", "--out", str(tmp_path / "o")])
        assert code == 2

    def test_exit_2_on_empty_list(self, tmp_path):
        cfg = _write_config(tmp_path, {"beta": []})
        code = main(["sweep", "--config", cfg, "--param", "beta", "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize(
        "param,raw,message",
        [
            ("beta", '[0.1, "nan"]', "beta must be a number"),
            ("beta", "[0.1, NaN]", "beta must be finite"),
            ("beta", "[0.1, 2]", "beta must be finite and lie in [0, 1]"),
            ("snr_db", '[10, "nan"]', "snr_db must be a number"),
            ("snr_db", "[10, 1e400]", "snr_db must be finite"),
            ("snr_db", "[]", "snr_db list is empty"),
        ],
        ids=[
            "beta-string",
            "beta-nan",
            "beta-range",
            "snr-string",
            "snr-overflow",
            "snr-empty",
        ],
    )
    def test_exit_2_before_first_point(
        self, tmp_path, capsys, monkeypatch, param, raw, message
    ):
        # a bad value anywhere in the list fails before the first point runs
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**BASE_CONFIG, param: "VALUE"}).replace('"VALUE"', raw))
        monkeypatch.setattr(harness, "_run_block", _never_called)
        flag = {"beta": "beta", "snr_db": "snr"}[param]
        out = str(tmp_path / "o")
        code = main(["sweep", "--config", str(cfg), "--param", flag, "--out", out])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "param,values",
        [
            ("beta", [0.1, 0.1000001]),
            ("beta", [0.0, -0.0]),
            ("beta", [0.5, 0.3, 0.5]),
            ("snr_db", [10, 10.0]),
            ("snr_db", [-5.0, -5.0000001]),
        ],
        ids=["beta-label", "beta-signed-zero", "beta-repeat", "snr-int-float", "snr-label"],
    )
    def test_exit_2_on_colliding_points(self, tmp_path, capsys, monkeypatch, param, values):
        # two points that are equal as numbers or print the same :g label
        # would share a results key, a trials file or summary labels
        cfg = _write_config(tmp_path, {param: values})
        monkeypatch.setattr(harness, "_run_block", _never_called)
        flag = {"beta": "beta", "snr_db": "snr"}[param]
        out = tmp_path / "o"
        code = main(["sweep", "--config", cfg, "--param", flag, "--out", str(out)])
        assert code == 2
        assert f"{param} list values must differ" in capsys.readouterr().err
        assert not out.exists()


class TestOptimizeCommand:
    def test_output_contract(self, tmp_path):
        cfg = _write_config(tmp_path)
        out = tmp_path / "beams.json"
        code = main(
            ["optimize", "--config", cfg, "--prior", "propagated:0", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        phases = np.array(payload["phases"])
        assert phases.shape == (8, 2)
        assert payload["n_tx"] == 8 and payload["m_beams"] == 2
        assert 0 <= payload["gamma_ub_clamped"] <= 1
        baseline = payload["directional_baseline"]
        assert len(baseline["codeword_indices"]) == 2
        assert baseline["mode"] == "exhaustive"
        # optimizer never loses to its directional seed
        assert payload["gamma_ub"] <= baseline["gamma_ub"] + 1e-12
        # the stored phases reproduce the reported score
        scheduler = harness.prepare(load_config(cfg))["scheduler"]
        prior = parse_prior_spec("propagated:0", scheduler.model)
        idx = np.flatnonzero(prior.probs)
        sensing = sensing_matrix(phases, scheduler.codebook.matrix[:, idx])
        score = kernels.gamma_ub(
            prior.probs[idx], sensing.gram_abs2, sensing.col_norms_sq, 10.0
        )
        assert score == payload["gamma_ub"]

    def test_greedy_baseline_beyond_budget(self, tmp_path):
        # comb(64, 5) exceeds the exhaustive budget for the directional
        # baseline and the swarm's seed; both fall back to the greedy search
        cfg = _write_config(
            tmp_path,
            {"n_grid": 64, "m_beams": 5, "psa": {"swarm_size": 2, "max_iters": 1}},
        )
        out = tmp_path / "beams.json"
        code = main(
            ["optimize", "--config", cfg, "--prior", "propagated:0", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["directional_baseline"]["mode"] == "greedy"
        assert len(payload["directional_baseline"]["codeword_indices"]) == 5
        assert np.isfinite(payload["gamma_ub"])

    @pytest.mark.parametrize(
        "overrides",
        [{"sigma": 40}, {"n_tx": 0}, {"m_beams": 0}, {"snr_db": "x"}],
    )
    def test_exit_2_on_invalid_value(self, tmp_path, capsys, overrides):
        cfg = _write_config(tmp_path, overrides)
        out = str(tmp_path / "x.json")
        code = main(["optimize", "--config", cfg, "--prior", "propagated:0", "--out", out])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_deterministic_output(self, tmp_path):
        cfg = _write_config(tmp_path)
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        main(["optimize", "--config", cfg, "--prior", "uniform", "--out", str(out_a)])
        main(["optimize", "--config", cfg, "--prior", "uniform", "--out", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_exit_2_on_bad_prior(self, tmp_path):
        cfg = _write_config(tmp_path)
        out = str(tmp_path / "x.json")
        assert main(["optimize", "--config", cfg, "--prior", "point:99", "--out", out]) == 2
        assert main(["optimize", "--config", cfg, "--prior", "nonsense", "--out", out]) == 2
        assert (
            main(
                [
                    "optimize",
                    "--config",
                    cfg,
                    "--prior",
                    f"file:{tmp_path / 'missing.txt'}",
                    "--out",
                    out,
                ]
            )
            == 2
        )


def test_import_leaves_numpy_random_unloaded():
    # numpy.random adds 12-15 ms to the import every run pays; the harness
    # loads it when a run first draws
    code = "import sys, beamtrack, beamtrack.cli; print('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(beamtrack.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"


def test_runs_load_no_mask_or_pool_modules(tmp_path):
    # A serial run loads neither numpy.ma (plain np.unique checks for masked
    # input on numpy 2: 10-17 ms and 0.7 MB) nor the process-pool modules.
    # Compared with what the import loaded, as numpy 1.x loads numpy.ma with
    # numpy itself.
    sim = _write_config(tmp_path, {"policy": list(harness.POLICIES)}, name="sim.json")
    swp = _write_config(tmp_path, {"snr_db": [0.0, 10.0]}, name="sweep.json")
    argvs = [
        ["simulate", "--config", sim, "--out", str(tmp_path / "sim")],
        ["sweep", "--config", swp, "--param", "snr", "--out", str(tmp_path / "sweep")],
        ["optimize", "--config", sim, "--prior", "uniform", "--out", str(tmp_path / "b.json")],
    ]
    code = (
        "import json, sys\n"
        "import beamtrack.cli as cli\n"
        "loaded = set(sys.modules)\n"
        f"codes = [cli.main(argv) for argv in {argvs!r}]\n"
        "print(json.dumps([codes, sorted(set(sys.modules) - loaded)]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(beamtrack.__file__).parents[1])}
    env.pop("BEAMTRACK_THREADS", None)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    codes, added = json.loads(out.stdout.splitlines()[-1])
    assert codes == [0, 0, 0]
    banned = ("numpy.ma", "concurrent.futures", "multiprocessing")
    assert [m for m in added if any(m == b or m.startswith(b + ".") for b in banned)] == []


def test_pins_heap_thresholds(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    cli.pin_heap_thresholds()
    assert calls == [(-1, 4 << 20), (-3, 1 << 20)]
    assert mallopt.argtypes == (ctypes.c_int, ctypes.c_int)


def _no_library(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [_no_library, lambda name: object()], ids=["oserror", "no-mallopt"])
def test_runs_without_mallopt(tmp_path, monkeypatch, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    cfg = _write_config(tmp_path)
    argv = ["optimize", "--config", cfg, "--prior", "uniform", "--out", str(tmp_path / "b.json")]
    assert main(argv) == 0
