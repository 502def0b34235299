"""Outputs pinned across commits: a fresh run of each ``gen_fixtures`` case
against the files committed under ``tests/fixtures``.

Integer and text cells must match exactly and float cells within FLOAT_RTOL
relative.  The tolerance exists because bits can depend on the host: the
prior propagation's matmul goes through BLAS, and exp and log use
CPU-dispatched SIMD.  It is far above those last-bit effects and far below
any change of design or tracking.  Whether each file's SHA-256 also matches
is printed, one ``FIXTURE`` line per file.  A run with two worker processes
must write the same bytes as the serial run.
"""

import csv
import hashlib
import json
import math
import os

import pytest

from gen_fixtures import CASES, FIXTURES, generate

FLOAT_RTOL = 1e-9


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _is_int(text):
    try:
        int(text)
    except ValueError:
        return False
    return True


def _close(want, got):
    """Float cells equal within FLOAT_RTOL; nan equals nan."""
    if math.isnan(want) or math.isnan(got):
        return math.isnan(want) and math.isnan(got)
    return math.isclose(want, got, rel_tol=FLOAT_RTOL, abs_tol=0.0)


def _csv_diff(want_path, got_path):
    """The cells of a fresh CSV that differ from the fixture beyond the
    tolerance, as (row, column, fixture, fresh)."""
    with open(want_path, newline="") as fh:
        want = list(csv.reader(fh))
    with open(got_path, newline="") as fh:
        got = list(csv.reader(fh))
    if want[0] != got[0] or len(want) != len(got):
        return [("header or row count", None, (want[0], len(want)), (got[0], len(got)))]
    moved = []
    for r, (want_row, got_row) in enumerate(zip(want[1:], got[1:]), start=1):
        for name, a, b in zip(want[0], want_row, got_row):
            if a == b:
                continue
            if _is_int(a) or _is_int(b) or not _close(float(a), float(b)):
                moved.append((r, name, a, b))
    return moved


def _json_diff(want, got, where=""):
    """Paths into a fresh JSON value that differ from the fixture's."""
    if isinstance(want, dict) and isinstance(got, dict):
        if want.keys() != got.keys():
            return [where or "/"]
        return [d for k in want for d in _json_diff(want[k], got[k], f"{where}/{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [where]
        return [d for i, (a, b) in enumerate(zip(want, got)) for d in _json_diff(a, b, f"{where}/{i}")]
    if isinstance(want, float) and isinstance(got, float):
        return [] if _close(want, got) else [where]
    return [] if want == got and type(want) is type(got) else [where]


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixtures")
    return out, generate(out)


def test_same_files(fresh):
    out, files = fresh
    assert files == sorted(p.relative_to(FIXTURES) for p in FIXTURES.rglob("*") if p.is_file())


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_fixture(fresh, case):
    out, files = fresh
    failures = []
    for path in (p for p in files if p.parts[0] == case):
        want, got = FIXTURES / path, out / path
        same = _sha256(want) == _sha256(got)
        print(f"FIXTURE {path} sha256 {'equal' if same else 'differs'}")
        if path.suffix == ".json":
            moved = _json_diff(json.loads(want.read_text()), json.loads(got.read_text()))
        else:
            moved = _csv_diff(want, got)
        if moved:
            failures.append(f"{path}: {len(moved)} cells moved, first {moved[:3]}")
    assert not failures, "\n".join(failures)


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs")
@pytest.mark.parametrize("case", ["fig2_wrap", "fig2_truncate", "beta_sweep"])
def test_parallel_matches_serial(fresh, tmp_path, monkeypatch, case):
    # two workers split each run into two blocks, the second starting mid-run
    out, files = fresh
    monkeypatch.setenv("BEAMTRACK_THREADS", "2")
    generate(tmp_path, {case: CASES[case]})
    for path in (p for p in files if p.parts[0] == case):
        assert (tmp_path / path).read_bytes() == (out / path).read_bytes(), path
