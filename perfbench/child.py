"""One fresh benchmark process: import beamtrack, run CLI calls, report.

Usage: python3 perfbench/child.py JOB.json RESULT.json

The job names a list of ``beamtrack`` argument vectors to pass to
``beamtrack.cli.main`` in this process, whether to trace them, and whether
to time the bound kernel table afterwards.  The result records the import
time, the wall time inside ``cli.main``, the exit codes, the peak resident
memory, the run metadata and, when traced, the per-layer aggregates.
"""

import json
import resource
import sys
import time

_t0 = time.perf_counter()
import beamtrack  # noqa: E402
import beamtrack.cli  # noqa: E402

SETUP_S = time.perf_counter() - _t0

import os  # noqa: E402
import platform  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

# Optimizer entry points whose calls count as beam design.
DESIGN_SPANS = ("optimizer.optimize_beams", "optimizer.select_directional_pair")
SCHEDULER_SPAN = "optimizer.scheduler"
TRACKING_FUNCS = ("propagate_prior", "posterior", "map_estimate", "sensing_matrix")
# Layers reported as <layer>.self_s; the leaf arraymodel layer is arraymodel.build_s.
LAYERS = ("cli", "harness", "tracking", "kernels", "optimizer")


class Tracer:
    """Spans with parent links, recorded by wrapping functions from outside.

    Each span is ``[name, parent_index, start, end, info]``; a parent
    always precedes its children in ``spans``.  ``info`` is what the span's
    ``capture`` function read from the call's arguments and result, for the
    few spans whose counts come from there.
    """

    def __init__(self):
        self.spans = []
        self._stack = []

    def call(self, name, fn, args=(), kwargs=None, capture=None):
        spans, stack = self.spans, self._stack
        rec = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
        spans.append(rec)
        stack.append(len(spans) - 1)
        rec[2] = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            rec[3] = time.perf_counter()
            stack.pop()
        if capture is not None:
            rec[4] = capture(args, kwargs or {}, result)
        return result

    def wrap(self, owner, attr, name, capture=None):
        """Replace ``owner.attr`` by a traced wrapper; skip missing names."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, capture)

        setattr(owner, attr, traced)


def _frame_periods(args, kwargs, result):
    return sum(len(arr) for arr in result[0].values())


def _support(args, kwargs, result):
    return int(np.count_nonzero(args[0] if args else kwargs["prior"]))


def _psa_run(args, kwargs, result):
    psa = kwargs["config"] if "config" in kwargs else args[4]
    return result.evaluations, len(result.history) - 1, psa.max_iters


def install(tracer):
    """Wrap each layer's public functions at the names their callers use."""
    from beamtrack import cli, harness, kernels, optimizer

    for fn in ("build_grid", "build_codebook", "build_markov"):
        tracer.wrap(harness, fn, "arraymodel.build")
    for mod in (cli, harness):
        tracer.wrap(mod, "run_experiment", "harness.run_experiment", _frame_periods)
    tracer.wrap(cli, "sweep", "harness.sweep")
    for fn in TRACKING_FUNCS:
        tracer.wrap(harness, fn, f"tracking.{fn}")
    tracer.wrap(optimizer, "sensing_matrix", "tracking.sensing_matrix")
    tracer.wrap(kernels, "gamma_ub", "kernels.gamma_ub", _support)
    tracer.wrap(optimizer, "optimize_beams", "optimizer.optimize_beams", _psa_run)
    tracer.wrap(optimizer, "select_directional_pair", "optimizer.select_directional_pair")
    for meth in ("beams_for_index", "beams_for_prior"):
        tracer.wrap(optimizer.BeamScheduler, meth, SCHEDULER_SPAN)


def _per(total, count, scale=1.0):
    return total / count * scale if count else 0.0


def layer_metrics(spans):
    """Per-layer counts and times from the recorded spans."""
    n = len(spans)
    names = np.array([s[0] for s in spans] or [""])[:n]
    parent = np.array([s[1] for s in spans], dtype=int)
    dur = np.array([s[3] - s[2] for s in spans], dtype=float)
    child = np.zeros(n)
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    self_t = dur - child
    parent_name = np.where(nested, names[np.maximum(parent, 0)], "")

    # A span is under design when it or an ancestor is a design entry point;
    # parents precede children, so one forward pass settles every span.
    is_design = np.isin(names, DESIGN_SPANS)
    under, par = is_design.tolist(), parent.tolist()
    for i, p in enumerate(par):
        if p >= 0 and under[p]:
            under[i] = True
    under_design = np.array(under, dtype=bool)
    parent_design = nested & under_design[np.maximum(parent, 0)]

    m = {}
    layer = np.array([name.split(".")[0] for name in names] or [""])[:n]
    for lay in LAYERS:
        m[f"{lay}.self_s"] = float(self_t[layer == lay].sum())
    m["trace.wall_s"] = float(dur[~nested].sum())

    info = [s[4] for s in spans]
    frame_periods = sum(info[i] for i in np.flatnonzero(names == "harness.run_experiment"))
    m["harness.frame_periods"] = frame_periods
    m["harness.self_us_per_frame_period"] = _per(m["harness.self_s"], frame_periods, 1e6)
    m["arraymodel.build_s"] = float(dur[names == "arraymodel.build"].sum())

    for fn in TRACKING_FUNCS:
        key = f"tracking.{fn}"
        sel = names == key
        m[f"{key}.calls"] = int(sel.sum())
        m[f"{key}.us_per_call"] = _per(float(dur[sel].sum()), int(sel.sum()), 1e6)

    kernel = names == "kernels.gamma_ub"
    for kind, sel in (("log", kernel & ~under_design), ("design", kernel & under_design)):
        idx = np.flatnonzero(sel)
        secs = float(dur[idx].sum())
        pairs = sum(info[i] ** 2 for i in idx)
        m[f"kernels.gamma_ub.{kind}.calls"] = len(idx)
        m[f"kernels.gamma_ub.{kind}.us_per_call"] = _per(secs, len(idx), 1e6)
        m[f"kernels.gamma_ub.{kind}.pairs"] = pairs
        m[f"kernels.gamma_ub.{kind}.s"] = secs

    m["optimizer.design_s"] = float(dur[is_design & ~parent_design].sum())
    opt = np.flatnonzero(names == "optimizer.optimize_beams")
    iterations = evaluations = stall_exits = 0
    for i in opt:
        evals, iters, max_iters = info[i]
        evaluations += evals
        iterations += iters
        stall_exits += iters < max_iters
    m["optimizer.optimize_beams.calls"] = len(opt)
    m["optimizer.optimize_beams.s_per_call"] = _per(float(dur[opt].sum()), len(opt))
    m["optimizer.optimize_beams.self_s"] = float(self_t[opt].sum())
    m["optimizer.optimize_beams.evaluations"] = evaluations
    m["optimizer.optimize_beams.iterations"] = iterations
    m["optimizer.optimize_beams.stall_exits"] = stall_exits

    sdp = "optimizer.select_directional_pair"
    sel = names == sdp
    m[f"{sdp}.calls"] = int(sel.sum())
    m[f"{sdp}.s_per_call"] = _per(float(dur[sel].sum()), int(sel.sum()))
    m[f"{sdp}.subsets"] = int((kernel & (parent_name == sdp)).sum())

    sched = names == SCHEDULER_SPAN
    in_sched = parent_name == SCHEDULER_SPAN
    lookups = int((sched & ~in_sched).sum())
    designs = int((is_design & in_sched).sum())
    m["optimizer.scheduler.lookups"] = lookups
    m["optimizer.scheduler.designs"] = designs
    m["optimizer.scheduler.hit_ratio"] = _per(lookups - designs, lookups)
    m["optimizer.scheduler.self_s"] = float(self_t[sched].sum())
    return m


def kernel_table(seed):
    """Bound-kernel timings at (M, N) = (2,64), (4,64), (8,256).

    ``full`` uses a random full-support prior, ``prop`` a point mass
    propagated one Markov step (2*sigma+1 support points).  Each value is
    cross-checked against the numpy reference kernel.
    """
    from beamtrack import kernels
    from beamtrack.arraymodel import build_markov
    from beamtrack.kernels import ref

    rng = np.random.default_rng([seed, 2])
    snr = 10.0
    out, mismatches = {}, 0
    for m_beams, n in ((2, 64), (4, 64), (8, 256)):
        s = rng.standard_normal((m_beams, n)) + 1j * rng.standard_normal((m_beams, n))
        norms_sq = np.sum(np.abs(s) ** 2, axis=0)
        gram_abs2 = np.abs(s.conj().T @ s) ** 2
        full = rng.random(n)
        full /= full.sum()
        prop = build_markov(n, 0.2, 5).transition[int(rng.integers(n))]
        for kind, prior in (("full", full), ("prop", prop)):
            value = kernels.gamma_ub(prior, gram_abs2, norms_sq, snr)
            expect = ref.gamma_ub(prior, gram_abs2, norms_sq, snr)
            mismatches += not abs(value - expect) <= 1e-9 * max(1.0, abs(expect))
            # Size each batch to ~20 ms from one probe, then take the median batch.
            probe = time.perf_counter()
            kernels.gamma_ub(prior, gram_abs2, norms_sq, snr)
            reps = max(1, int(0.02 / max(time.perf_counter() - probe, 1e-6)))
            batches = []
            for _ in range(7):
                start = time.perf_counter()
                for _ in range(reps):
                    kernels.gamma_ub(prior, gram_abs2, norms_sq, snr)
                batches.append((time.perf_counter() - start) / reps)
            out[f"kernels.gamma_ub.m{m_beams}n{n}.{kind}_us"] = float(np.median(batches)) * 1e6
    return out, mismatches


def _openblas_version():
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return deps["blas"].get("version")
    except (KeyError, TypeError, ValueError):
        return None


def metadata():
    return {
        "kernel_path": "compiled" if beamtrack.kernels.IS_COMPILED else "numpy",
        "beamtrack_version": beamtrack.__version__,
        "nproc": os.cpu_count(),
        "affinity_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _openblas_version(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "beamtrack_threads": os.environ.get("BEAMTRACK_THREADS"),
    }


def main(job_path, result_path):
    job = json.loads(Path(job_path).read_text())
    tracer = Tracer() if job.get("trace") else None
    if tracer is not None:
        install(tracer)
    codes, wall = [], 0.0
    for argv in job["argvs"]:
        start = time.perf_counter()
        if tracer is None:
            code = beamtrack.cli.main(argv)
        else:
            code = tracer.call("cli.main", beamtrack.cli.main, (argv,))
        wall += time.perf_counter() - start
        codes.append(code)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "setup_s": SETUP_S,
        "wall_s": wall,
        "codes": codes,
        "peak_rss_mb": rss_mb,
        "meta": metadata(),
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer.spans)
    if job.get("kernels"):
        result["kernel_table"], result["kernel_mismatches"] = kernel_table(job["seed"])
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
