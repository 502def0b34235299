"""The names the benchmark's child process wraps or reads still exist.

``perfbench/child.py`` traces each layer by replacing functions at the
module-level names their callers use, and skips a name that is missing, so
renaming or deleting one would blank a per-layer metric without an error.
"""

import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import beamtrack
from beamtrack import kernels, optimizer

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def _child_module():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child


def test_traced_names_exist():
    child = _child_module()

    class Recorder(child.Tracer):
        """Records each name that ``Tracer.wrap`` would skip; wraps none."""

        def __init__(self):
            super().__init__()
            self.missing = []

        def wrap(self, owner, attr, name, capture=None):
            if getattr(owner, attr, None) is None:
                self.missing.append((owner.__name__, attr))

    recorder = Recorder()
    child.install(recorder)
    # beams_for_prior left the scheduler long ago; ROADMAP item 1 tracks it
    assert recorder.missing == [("BeamScheduler", "beams_for_prior")]


def test_design_calls_traced(tmp_path):
    # Beam design scores through the traced kernel entry: one call per swarm
    # evaluation round and one per codeword-subset batch, on the tiny sweep
    # that CI runs through the console script
    tiny = {
        "n_grid": 16, "n_tx": 4, "sigma": 2, "p_ttis": 3, "n_frames": 2,
        "psa": {"swarm_size": 4, "max_iters": 5, "stall_iters": 3}, "beta": [0.1, 0.3],
    }
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(tiny))
    argv = ["sweep", "--param", "beta", "--config", str(config), "--out", str(tmp_path / "out")]
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"argvs": [argv], "trace": True}))
    env = {**os.environ, "PYTHONPATH": str(Path(beamtrack.__file__).parents[1])}
    env.pop("BEAMTRACK_THREADS", None)
    subprocess.run(
        [sys.executable, str(CHILD), str(job), str(tmp_path / "result.json")],
        capture_output=True, check=True, env=env,
    )
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["codes"] == [0]
    layers = result["layers"]
    calls = layers["kernels.gamma_ub.design.calls"]
    rounds = layers["optimizer.optimize_beams.evaluations"] / tiny["psa"]["swarm_size"]
    assert calls > 0
    assert calls == rounds + layers["optimizer.select_directional_pair.subsets"]


def test_read_names_exist():
    # metadata() and kernel_table() read these directly
    assert isinstance(kernels.IS_COMPILED, bool)
    assert callable(kernels.ref.gamma_ub)
    # the optimize_beams span reads its swarm settings from args[4]
    params = list(inspect.signature(optimizer.optimize_beams).parameters)
    assert params[4] == "config"


def test_every_export_resolves():
    names = [
        info.name
        for info in pkgutil.walk_packages(beamtrack.__path__, "beamtrack.")
    ]
    assert "beamtrack.kernels.ref" in names
    for name in ["beamtrack", *names]:
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            assert hasattr(module, attr), f"{name}.{attr}"
