"""Monte-Carlo harness tests: reproducibility, shared randomness, baselines."""

import multiprocessing
import os
import tracemalloc
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamtrack import harness, kernels, optimizer
from beamtrack.kernels import ref
from beamtrack.arraymodel import build_codebook, build_grid, build_markov
from beamtrack.harness import (
    POLICIES,
    TRIAL_DTYPE,
    ExperimentConfig,
    beam_cycling_estimate,
    beam_cycling_probes,
    run_experiment,
    sweep,
)
from beamtrack.optimizer import BeamScheduler, PsaConfig
from beamtrack.tracking import (
    BeamMatrix,
    Belief,
    PilotObservation,
    SensingMatrix,
    map_estimate,
    posterior,
    propagate_prior,
    sensing_matrix,
)

FAST_PSA = PsaConfig(swarm_size=8, max_iters=20, stall_iters=10)


def _trials_equal(a, b):
    """Field-wise structured-array equality treating NaN bounds as equal."""
    if a.shape != b.shape:
        return False
    for name in a.dtype.names:
        if name == "gamma_ub":
            if not np.array_equal(a[name], b[name], equal_nan=True):
                return False
        elif not np.array_equal(a[name], b[name]):
            return False
    return True


def _trajectory(config, model, frame):
    """One frame's ``harness._trajectories`` entry as (init, indices, gains)
    Python scalars and lists."""
    init, indices, gains = harness._trajectories(config, model, [frame])
    return int(init[0]), indices[0].tolist(), gains[0].tolist()


def _config(**overrides):
    base = dict(
        n_tx=8,
        n_grid=16,
        m_beams=2,
        sigma=2,
        p_ttis=4,
        beta=0.3,
        snr_db=10.0,
        n_frames=40,
        policy=list(POLICIES),
        psa=FAST_PSA,
        seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_round_trip(self):
        cfg = _config()
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_scalar_policy(self):
        cfg = _config(policy="beam_cycling")
        assert cfg.policies == ("beam_cycling",)

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            _config(policy="oracle")

    def test_unknown_field(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            ExperimentConfig.from_dict({"n_tx": 8, "bogus": 1})

    def test_swept(self):
        assert _config().swept is None
        assert _config(beta=[0.1, 0.2]).swept == "beta"
        assert _config(snr_db=[0.0]).swept == "snr_db"

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            _config(p_ttis=1)
        with pytest.raises(ValueError):
            _config(n_frames=0)


class TestStreams:
    """Streams seeded for a whole block equal ``np.random.default_rng(key)``
    bit for bit, whatever the key words: 0, 2**32 - 1, and seeds or periods
    of two or more words.  A frame is one word."""

    KEY = st.one_of(
        st.sampled_from([0, 1, 2**32 - 1, 2**32]),
        st.integers(0, 2**32 - 1),
        st.integers(2**32, 2**80),
    )
    FRAMES = st.lists(
        st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1)),
        min_size=1,
        max_size=5,
    )

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(seed=KEY, frames=FRAMES, tti=st.one_of(st.integers(2, 20), KEY))
    def test_noise_rows(self, seed, frames, tti):
        got = harness._noise_normals(_config(seed=seed), frames, tti, 7)
        assert got.shape == (len(frames), 7)
        for row, frame in zip(got, frames):
            want = np.random.default_rng([seed, frame, tti, 1]).standard_normal(7)
            assert np.array_equal(row, want)

    def test_two_word_frame_rejected(self):
        with pytest.raises(ValueError, match="frames must be < 2\\*\\*32"):
            harness._noise_normals(_config(), [0, 2**32], 2, 7)

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(seed=KEY, frames=FRAMES)
    def test_trajectories(self, seed, frames):
        config = _config(seed=seed, p_ttis=5)
        model = build_markov(config.n_grid, config.beta, config.sigma)
        got_init, got_true, got_gains = harness._trajectories(config, model, frames)
        assert got_init.shape == (len(frames),)
        assert got_true.shape == got_gains.shape == (len(frames), config.p_ttis - 1)
        for i, frame in enumerate(frames):
            walk = (int(got_init[i]), got_true[i].tolist(), got_gains[i].tolist())
            rng = np.random.default_rng([seed, frame, 0])
            init = int(rng.integers(model.n_points))
            indices, gains = [init], []
            for _ in range(config.p_ttis - 1):
                indices.append(int(rng.choice(model.n_points, p=model.transition[indices[-1]])))
                re, im = rng.standard_normal(2)
                gains.append(complex(re, im) / np.sqrt(2.0))
            assert walk == (init, indices[1:], gains)
            assert _trajectory(config, model, frame) == walk


class TestBeamCycling:
    def test_noiseless_exact_recovery(self):
        grid = build_grid(16)
        cb = build_codebook(grid, 8)
        sensing = beam_cycling_probes(8, cb)
        for k in range(16):
            y = (0.3 - 1.1j) * sensing.matrix[:, k]
            assert beam_cycling_estimate(y, sensing) == k

    def test_probe_shape_and_power(self):
        cb = build_codebook(build_grid(16), 8)
        sensing = beam_cycling_probes(8, cb)
        assert sensing.matrix.shape == (8, 16)
        # probes are unit-modulus steering beams, so every sensing column
        # carries the full array gain
        np.testing.assert_allclose(sensing.col_norms_sq, 8.0, atol=1e-9)


class TestRunExperiment:
    def test_deterministic(self):
        cfg = _config(n_frames=15)
        trials_a, summary_a = run_experiment(cfg)
        trials_b, summary_b = run_experiment(cfg)
        for pol in cfg.policies:
            assert _trials_equal(trials_a[pol], trials_b[pol])
        assert len(summary_a) == len(summary_b)
        for ra, rb in zip(summary_a, summary_b):
            assert (ra.group_key, ra.policy, ra.tep_mean, ra.tep_stderr, ra.n_frames) == (
                rb.group_key,
                rb.policy,
                rb.tep_mean,
                rb.tep_stderr,
                rb.n_frames,
            )
            assert ra.mean_gamma_ub == rb.mean_gamma_ub or (
                np.isnan(ra.mean_gamma_ub) and np.isnan(rb.mean_gamma_ub)
            )

    def test_row_counts_and_groups(self):
        cfg = _config(n_frames=12)
        trials, summary = run_experiment(cfg)
        for pol in cfg.policies:
            assert len(trials[pol]) == 12 * (cfg.p_ttis - 1)
            assert set(trials[pol]["tti"]) == {2, 3, 4}
        assert len(summary) == (cfg.p_ttis - 1) * len(cfg.policies)
        keys = {(r.policy, r.group_key) for r in summary}
        assert ("psa_optimized", "tti=2") in keys
        for row in summary:
            assert row.n_frames == 12

    def test_common_random_numbers(self):
        # every policy walks the identical channel trajectory per frame
        cfg = _config(n_frames=20)
        trials, _ = run_experiment(cfg)
        ref = trials[cfg.policies[0]]
        order = np.lexsort((ref["tti"], ref["frame"]))
        for pol in cfg.policies[1:]:
            other = trials[pol]
            other_order = np.lexsort((other["tti"], other["frame"]))
            assert np.array_equal(
                ref["true_index"][order], other["true_index"][other_order]
            )

    def test_static_noiseless_perfect_tracking(self):
        cfg = _config(beta=0.0, noiseless=True, n_frames=25)
        trials, summary = run_experiment(cfg)
        for pol in cfg.policies:
            assert trials[pol]["error"].sum() == 0
        for row in summary:
            assert row.tep_mean == 0.0

    def test_gamma_ub_columns(self):
        cfg = _config(n_frames=10)
        trials, _ = run_experiment(cfg)
        for pol in ("psa_optimized", "directional_tep"):
            g = trials[pol]["gamma_ub"]
            assert np.all(np.isfinite(g)) and np.all(g >= 0)
        assert np.all(np.isnan(trials["beam_cycling"]["gamma_ub"]))

    def test_estimates_live_on_grid(self):
        cfg = _config(n_frames=10)
        trials, _ = run_experiment(cfg)
        for pol in cfg.policies:
            est = trials[pol]["est_index"]
            assert np.all((0 <= est) & (est < cfg.n_grid))
            err = trials[pol]["error"].astype(bool)
            assert np.array_equal(err, est != trials[pol]["true_index"])

    def test_list_valued_param_rejected(self):
        cfg = _config(beta=[0.1, 0.2], n_frames=4)
        with pytest.raises(ValueError, match="scalar"):
            run_experiment(cfg)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_trial_rows_held_once(self, monkeypatch, threads):
        # each policy's rows fill one preallocated array block by block, in
        # serial runs and as a pool's blocks arrive; keeping the blocks and
        # concatenating them peaked at twice the trial bytes, and receiving
        # each worker's part whole at 2.5 times.  Noiseless, so no per-period
        # noise streams: this runs in ~2 s
        if int(threads) > (os.cpu_count() or 1):
            pytest.skip("needs two CPUs")
        monkeypatch.setenv("BEAMTRACK_THREADS", threads)
        cfg = _config(
            n_tx=2, p_ttis=10, n_frames=10_000, policy="beam_cycling", noiseless=True
        )
        run_experiment(replace(cfg, n_frames=2))  # lazy imports stay out of the peak
        tracemalloc.start()
        try:
            trials, _ = run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * trials["beam_cycling"].nbytes

    def test_parallel_matches_serial(self, monkeypatch):
        cfg = _config(n_frames=10, policy="directional_tep")
        serial, _ = run_experiment(cfg)
        monkeypatch.setenv("BEAMTRACK_THREADS", "2")
        parallel, _ = run_experiment(cfg)
        assert np.array_equal(serial["directional_tep"], parallel["directional_tep"])

    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 2 or multiprocessing.get_start_method() != "fork",
        reason="needs two CPUs, and forked workers to see the patch",
    )
    @pytest.mark.parametrize("edge_mode", ["wrap", "truncate"])
    def test_workers_design_nothing(self, monkeypatch, edge_mode):
        # the caller makes every design before the pool starts, so a design
        # in any other process fails the run
        caller = os.getpid()

        def caller_only(fn):
            def wrapped(*args, **kwargs):
                if os.getpid() != caller:
                    raise AssertionError(f"{fn.__name__} ran in a pool worker")
                return fn(*args, **kwargs)

            return wrapped

        for name in ("optimize_beams", "select_directional_pair"):
            monkeypatch.setattr(optimizer, name, caller_only(getattr(optimizer, name)))
        monkeypatch.setenv("BEAMTRACK_THREADS", "2")
        run_experiment(_config(edge_mode=edge_mode))


def _reference_frames(config, rebuild=False):
    """Frame-by-frame, policy-by-policy tracking loop from the single-Belief
    functions, each policy drawing its own (seed, frame, tti) noise stream.

    Estimate i is served by the design of its canonical row with the
    sensing columns rolled by its shift, and its bound is that of the prior
    rolled back by the shift against the canonical design.
    ``rebuild=True`` gives the path before served designs were column rolls:
    the canonical beams get the phase ramp that shifts their gain patterns
    by the shift, the sensing matrix is rebuilt from them, and the bound
    uses that matrix's own Gram data.
    """
    snr = 10.0 ** (config.snr_db / 10.0)
    codebook = build_codebook(build_grid(config.n_grid), config.n_tx)
    model = build_markov(
        config.n_grid, config.beta, config.sigma, edge_mode=config.edge_mode
    )
    scheduler = BeamScheduler(model, codebook, snr, config.m_beams, config.psa)
    cycling = beam_cycling_probes(config.n_tx, codebook)

    def noise(frame, tti, m):
        rng = np.random.default_rng([config.seed, frame, tti, 1])
        re_im = rng.standard_normal(2 * m)
        return (re_im[:m] + 1j * re_im[m:]) * np.sqrt(0.5 / snr)

    out = {pol: [] for pol in config.policies}
    for frame in range(config.n_frames):
        init, true_indices, gains = _trajectory(config, model, frame)
        for pol in config.policies:
            belief, prev_est = Belief.point_mass(config.n_grid, init), init
            for tti, true_idx, gain in zip(range(2, config.p_ttis + 1), true_indices, gains):
                if pol == "beam_cycling":
                    y = gain * cycling.matrix[:, true_idx]
                    if not config.noiseless:
                        y = y + noise(frame, tti, config.n_tx)
                    est = beam_cycling_estimate(y, cycling)
                    out[pol].append((frame, tti, true_idx, est, est != true_idx, np.nan))
                    continue
                prior = propagate_prior(belief, model)
                designed = scheduler.beams_for_index(pol, prev_est)
                shift = model.shift[prev_est]
                if rebuild:
                    ramp = 2.0 * np.pi * shift / config.n_grid * np.arange(config.n_tx)
                    ramped = BeamMatrix(phases=designed.beams.phases + ramp[:, None])
                    sensing = logged = sensing_matrix(ramped, codebook)
                    probs = prior.probs
                else:
                    rolled = np.roll(designed.sensing.matrix, shift, axis=-1)
                    sensing = SensingMatrix(matrix=rolled)
                    logged, probs = designed.sensing, np.roll(prior.probs, -shift)
                y = gain * sensing.matrix[:, true_idx]
                if not config.noiseless:
                    y = y + noise(frame, tti, config.m_beams)
                belief = posterior(prior, PilotObservation(y=y, snr=snr), sensing)
                est = map_estimate(belief)
                gub = ref.gamma_ub(probs, logged.gram_abs2, logged.col_norms_sq, snr)
                out[pol].append((frame, tti, true_idx, est, est != true_idx, gub))
                prev_est = est
    return {pol: np.array(rows, dtype=TRIAL_DTYPE) for pol, rows in out.items()}


@lru_cache(maxsize=None)
def _block_peak(p_ttis):
    """Traced peak of one warmed three-policy Fig. 2 block of BLOCK_FRAMES
    frames, and the designs its scheduler holds."""
    state = harness.prepare(ExperimentConfig(policy=list(POLICIES), p_ttis=p_ttis))
    harness._run_block(range(2), **state)  # designs, imports
    tracemalloc.start()
    try:
        harness._run_block(range(harness.BLOCK_FRAMES), **state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, state["scheduler"].design_count


class TestBlockedLoop:
    """The period-by-period block loop equals the frame-by-frame reference
    bit for bit, gamma_ub included."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"edge_mode": "truncate"},
            {"noiseless": True},
            {"m_beams": 3, "snr_db": 30.0},
            {"beta": 0.9, "snr_db": 20.0, "p_ttis": 7},
            {"beta": 0.0},
        ],
        ids=["wrap", "truncate", "noiseless", "m3", "beta09", "static"],
    )
    def test_matches_reference(self, monkeypatch, overrides):
        # blocks of 16 frames: 40 frames span three blocks, the last partial
        monkeypatch.setattr(harness, "BLOCK_FRAMES", 16)
        cfg = _config(**overrides)
        got, _ = run_experiment(cfg)
        want = _reference_frames(cfg)
        for pol in cfg.policies:
            assert _trials_equal(got[pol], want[pol]), pol

    @pytest.mark.parametrize("edge_mode", ["wrap", "truncate"])
    def test_one_kernel_call_per_block_design(self, monkeypatch, edge_mode):
        # a block's 48 rows fit one logging store, so its bounds are logged
        # once, one kernel call per canonical design the block used: per
        # block and designed policy, one per distinct canonical index of the
        # point estimates its periods were designed from (under wrap that is
        # always one)
        monkeypatch.setattr(harness, "BLOCK_FRAMES", 16)
        calls = []
        gamma_ub = kernels.gamma_ub

        def counted(prior, *args):
            calls.append(len(prior))
            return gamma_ub(prior, *args)

        monkeypatch.setattr(kernels, "gamma_ub", counted)
        cfg = _config(edge_mode=edge_mode)
        trials, _ = run_experiment(cfg)
        model = build_markov(cfg.n_grid, cfg.beta, cfg.sigma, edge_mode=edge_mode)
        init = harness._trajectories(cfg, model, range(cfg.n_frames))[0]
        n_steps = cfg.p_ttis - 1
        expected = 0
        for pol in ("psa_optimized", "directional_tep"):
            est = trials[pol]["est_index"].reshape(cfg.n_frames, n_steps)
            designed_from = np.column_stack([init, est[:, :-1]])
            for lo in range(0, cfg.n_frames, 16):
                expected += len(np.unique(model.canonical[designed_from[lo : lo + 16]]))
        if edge_mode == "wrap":
            assert expected == 2 * len(range(0, cfg.n_frames, 16))
        assert len(calls) == expected
        assert sum(calls) == 2 * cfg.n_frames * n_steps

    def test_matches_rebuilt_designs(self, monkeypatch):
        # Against the path before shifted designs were column rolls, where
        # each was rebuilt from its phase-ramped beams and logged against its
        # own Gram data: the same estimates, and bounds within 1e-10 relative
        # (measured at most 6e-13 on N=64 configs at 10 and 20 dB).
        monkeypatch.setattr(harness, "BLOCK_FRAMES", 16)
        cfg = _config(n_tx=32, n_grid=64, sigma=5, beta=0.2, p_ttis=6, n_frames=40)
        got, _ = run_experiment(cfg)
        want = _reference_frames(cfg, rebuild=True)
        for pol in cfg.policies:
            for name in ("frame", "tti", "true_index", "est_index", "error"):
                assert np.array_equal(got[pol][name], want[pol][name]), (pol, name)
            np.testing.assert_allclose(
                got[pol]["gamma_ub"], want[pol]["gamma_ub"], rtol=1e-10, atol=0.0
            )

    def test_matches_reference_at_block_size(self):
        n_frames = 2 * harness.BLOCK_FRAMES + 37
        cfg = _config(
            n_frames=n_frames, p_ttis=3, policy=["directional_tep", "beam_cycling"]
        )
        got, _ = run_experiment(cfg)
        want = _reference_frames(cfg)
        for pol in cfg.policies:
            assert _trials_equal(got[pol], want[pol]), pol

    def test_frame_range_offset(self, monkeypatch):
        # a block starting mid-run, and across the run's own blocks, sees the
        # same frames, as a pool worker's block does
        monkeypatch.setattr(harness, "BLOCK_FRAMES", 8)
        cfg = _config(n_frames=30)
        whole, _ = run_experiment(cfg)
        tail = harness._run_block(range(13, 30), **harness.prepare(cfg))
        for pol in cfg.policies:
            assert _trials_equal(tail[pol], whole[pol][whole[pol]["frame"] >= 13])

    def test_log_bounds_peak_memory(self):
        # the scheduler returns wrap priors in the index-0 design's
        # coordinates, so a wrap block goes to the kernel in place: logging
        # traces well under one copy of its priors (rolling them at log time
        # traced 16 MB here)
        n_steps, n_frames, n = 9, 1024, 64
        rng = np.random.default_rng(1)
        model = build_markov(n, 0.2, 5)
        priors = model.transition[rng.integers(n, size=(n_steps, n_frames))]
        codebook = build_codebook(build_grid(n), 32)
        scheduler = BeamScheduler(model, codebook, 10.0, 2)
        sensing = scheduler.beams_for_index("directional_tep", 0).sensing
        want = kernels.gamma_ub(
            priors.reshape(-1, n), sensing.gram_abs2, sensing.col_norms_sq, 10.0
        )
        keys = np.zeros((n_steps, n_frames), dtype=int)
        tracemalloc.start()
        try:
            got = scheduler.log_bounds("directional_tep", priors, keys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want.reshape(n_steps, n_frames))
        assert peak < priors.nbytes / 2

    @pytest.mark.parametrize("log_rows", [1, 80])
    @pytest.mark.parametrize("edge_mode", ["wrap", "truncate"])
    def test_logging_chunks_keep_bits(self, monkeypatch, edge_mode, log_rows):
        # a block's priors logged a period at a time, or two at a time with a
        # shorter last chunk, give every bound the bits of one logging call
        cfg = _config(edge_mode=edge_mode, p_ttis=6, policy=["psa_optimized", "directional_tep"])
        whole, _ = run_experiment(cfg)
        monkeypatch.setattr(harness, "LOG_ROWS", log_rows)
        chunked, _ = run_experiment(cfg)
        for pol in cfg.policies:
            assert chunked[pol].tobytes() == whole[pol].tobytes(), pol

    def test_period_budget_shrinks_blocks(self, monkeypatch):
        # a block holds at most BLOCK_PERIODS frame-periods, so long runs
        # advance fewer frames per block, and every output byte stays
        cfg = _config(p_ttis=6, edge_mode="truncate")
        whole, whole_summary = run_experiment(cfg)
        sizes = []
        run_block = harness._run_block

        def recorded(frames, **state):
            sizes.append(len(frames))
            return run_block(frames, **state)

        monkeypatch.setattr(harness, "_run_block", recorded)
        monkeypatch.setattr(harness, "BLOCK_PERIODS", 7 * (cfg.p_ttis - 1) + 3)
        small, small_summary = run_experiment(cfg)
        assert sizes == [7] * 5 + [5]
        for pol in cfg.policies:
            assert small[pol].tobytes() == whole[pol].tobytes(), pol
        assert small_summary == whole_summary

    @pytest.mark.parametrize("p_ttis", [10, 100])
    def test_block_peak_memory(self, p_ttis):
        # with designs warmed, one full three-policy Fig. 2 block traces a
        # fixed peak whatever n_frames is, plus about 80 B per frame-period
        # for its walk and trial rows; its stored priors stop at LOG_ROWS
        # rows (measured 4.9 MB at p_ttis 10 and 6.8 MB at 100, where storing
        # every period's priors traced 34 MB)
        peak, designs = _block_peak(p_ttis)
        assert designs == 2
        assert peak < 6e6 + 128 * harness.BLOCK_FRAMES * (p_ttis - 10)

    def test_block_memory_per_period(self):
        # an added frame-period costs a block its three policies' trial rows
        # (57 B) and its walk's int16 index and complex gain (18 B), plus
        # short-lived temporaries; measured 80 B, where side copies of the
        # estimates and bounds beside the rows traced 105 B
        growth = _block_peak(100)[0] - _block_peak(10)[0]
        assert growth < 96 * harness.BLOCK_FRAMES * (100 - 10)


class TestSweep:
    def test_single_point_matches_run(self):
        swept = _config(beta=[0.3], n_frames=12, policy="beam_cycling")
        point = _config(beta=0.3, n_frames=12, policy="beam_cycling")
        results, summary = sweep(swept)
        trials, _ = run_experiment(point)
        assert _trials_equal(results[0.3]["beam_cycling"], trials["beam_cycling"])
        row = summary[0]
        assert row.group_key == "beta=0.3"
        pooled = trials["beam_cycling"]["error"].mean()
        assert row.tep_mean == pytest.approx(pooled)
        assert row.n_frames == len(trials["beam_cycling"])

    def test_snr_sweep_keys(self):
        cfg = _config(snr_db=[0.0, 10.0], n_frames=6, policy="beam_cycling")
        _, summary = sweep(cfg)
        assert [r.group_key for r in summary] == ["snr_db=0", "snr_db=10"]

    def test_validation(self):
        with pytest.raises(ValueError, match="exactly one"):
            sweep(_config(beta=[0.1], snr_db=[0.0], n_frames=2))
        with pytest.raises(ValueError, match="no swept"):
            sweep(_config(n_frames=2))
        with pytest.raises(ValueError, match="empty"):
            sweep(_config(beta=[], n_frames=2))
        with pytest.raises(ValueError, match="list-valued"):
            sweep(_config(beta=[0.1], n_frames=2), param="snr_db")
