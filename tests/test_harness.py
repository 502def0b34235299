"""Monte-Carlo harness tests: reproducibility, shared randomness, baselines."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamtrack import harness, kernels
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
    bit for bit, whatever the key words: 0, 2**32 - 1, and seeds or frames
    of two or more words."""

    KEY = st.one_of(
        st.sampled_from([0, 1, 2**32 - 1, 2**32]),
        st.integers(0, 2**32 - 1),
        st.integers(2**32, 2**80),
    )
    FRAMES = st.lists(
        st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**40)),
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
            assert harness._trajectory(config, model, frame) == walk


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

    def test_parallel_matches_serial(self, monkeypatch):
        cfg = _config(n_frames=10, policy="directional_tep")
        serial, _ = run_experiment(cfg)
        monkeypatch.setenv("BEAMTRACK_THREADS", "2")
        parallel, _ = run_experiment(cfg)
        assert np.array_equal(serial["directional_tep"], parallel["directional_tep"])


def _reference_frames(config, rebuild=False):
    """Frame-by-frame, policy-by-policy tracking loop from the single-Belief
    functions, each policy drawing its own (seed, frame, tti) noise stream.

    Under wrap dynamics a design for estimate i is the index-0 design rolled
    by i, so its bound is that of the prior rolled back by i against the
    index-0 design; other designs use their own Gram data.  ``rebuild=True``
    gives the path before shifted designs were column rolls: every sensing
    matrix is rebuilt from the design's beams, and the bound uses that
    matrix's own Gram data.
    """
    snr = 10.0 ** (config.snr_db / 10.0)
    codebook = build_codebook(build_grid(config.n_grid), config.n_tx)
    model = build_markov(
        config.n_grid, config.beta, config.sigma, edge_mode=config.edge_mode
    )
    searches: dict = {}
    schedulers = {
        pol: BeamScheduler(
            model, codebook, snr, config.m_beams, pol, config.psa, searches=searches
        )
        for pol in config.policies
        if pol != "beam_cycling"
    }
    cycling = beam_cycling_probes(config.n_tx, codebook)

    def noise(frame, tti, m):
        rng = np.random.default_rng([config.seed, frame, tti, 1])
        re_im = rng.standard_normal(2 * m)
        return (re_im[:m] + 1j * re_im[m:]) * np.sqrt(0.5 / snr)

    out = {pol: [] for pol in config.policies}
    for frame in range(config.n_frames):
        init, true_indices, gains = harness._trajectory(config, model, frame)
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
                designed = schedulers[pol].beams_for_index(prev_est)
                sensing = designed.sensing
                if rebuild:
                    sensing = sensing_matrix(designed.beams, codebook)
                y = gain * sensing.matrix[:, true_idx]
                if not config.noiseless:
                    y = y + noise(frame, tti, config.m_beams)
                belief = posterior(prior, PilotObservation(y=y, snr=snr), sensing)
                est = map_estimate(belief)
                if config.edge_mode == "wrap" and not rebuild:
                    base = schedulers[pol].beams_for_index(0).sensing
                    gub = ref.gamma_ub(
                        np.roll(prior.probs, -prev_est),
                        base.gram_abs2,
                        base.col_norms_sq,
                        snr,
                    )
                else:
                    gub = ref.gamma_ub(
                        prior.probs, sensing.gram_abs2, sensing.col_norms_sq, snr
                    )
                out[pol].append((frame, tti, true_idx, est, est != true_idx, gub))
                prev_est = est
    return {pol: np.array(rows, dtype=TRIAL_DTYPE) for pol, rows in out.items()}


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
        got = harness._run_frames(cfg, 0, cfg.n_frames)
        want = _reference_frames(cfg)
        for pol in cfg.policies:
            assert _trials_equal(got[pol], want[pol]), pol

    @pytest.mark.parametrize("edge_mode", ["wrap", "truncate"])
    def test_one_kernel_call_per_block_design(self, monkeypatch, edge_mode):
        # bounds are logged at block end, one kernel call per base design a
        # block used.  Under wrap every design is the index-0 design rolled,
        # so that is one call per block and designed policy; under truncate,
        # one per distinct point estimate the block's periods were designed
        # from
        monkeypatch.setattr(harness, "BLOCK_FRAMES", 16)
        calls = []
        gamma_ub = kernels.gamma_ub

        def counted(prior, *args):
            calls.append(len(prior))
            return gamma_ub(prior, *args)

        monkeypatch.setattr(kernels, "gamma_ub", counted)
        cfg = _config(edge_mode=edge_mode)
        trials = harness._run_frames(cfg, 0, cfg.n_frames)
        model = build_markov(cfg.n_grid, cfg.beta, cfg.sigma, edge_mode=edge_mode)
        init = [harness._trajectory(cfg, model, f)[0] for f in range(cfg.n_frames)]
        n_steps = cfg.p_ttis - 1
        expected = 0
        for pol in ("psa_optimized", "directional_tep"):
            est = trials[pol]["est_index"].reshape(cfg.n_frames, n_steps)
            designed_from = np.column_stack([init, est[:, :-1]])
            for lo in range(0, cfg.n_frames, 16):
                expected += len(np.unique(designed_from[lo : lo + 16]))
        if edge_mode == "wrap":
            expected = 2 * len(range(0, cfg.n_frames, 16))
        assert len(calls) == expected
        assert sum(calls) == 2 * cfg.n_frames * n_steps

    def test_matches_rebuilt_designs(self, monkeypatch):
        # Against the path before shifted designs were column rolls, where
        # each was rebuilt from its phase-ramped beams and logged against its
        # own Gram data: the same estimates, and bounds within 1e-10 relative
        # (measured at most 6e-13 on N=64 configs at 10 and 20 dB).
        monkeypatch.setattr(harness, "BLOCK_FRAMES", 16)
        cfg = _config(n_tx=32, n_grid=64, sigma=5, beta=0.2, p_ttis=6, n_frames=40)
        got = harness._run_frames(cfg, 0, cfg.n_frames)
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
        got = harness._run_frames(cfg, 0, n_frames)
        want = _reference_frames(cfg)
        for pol in cfg.policies:
            assert _trials_equal(got[pol], want[pol]), pol

    def test_frame_range_offset(self, monkeypatch):
        # a worker's frame range starting mid-run sees the same frames
        monkeypatch.setattr(harness, "BLOCK_FRAMES", 8)
        cfg = _config(n_frames=30)
        whole = harness._run_frames(cfg, 0, 30)
        tail = harness._run_frames(cfg, 13, 30)
        for pol in cfg.policies:
            assert _trials_equal(tail[pol], whole[pol][whole[pol]["frame"] >= 13])

    def test_log_bounds_peak_memory(self):
        # priors are stored in their base design's coordinates, so a wrap
        # block goes to the kernel in place: logging traces well under one
        # copy of its priors (rolling them at log time traced 16 MB here)
        n_steps, n_frames, n = 9, 1024, 64
        rng = np.random.default_rng(1)
        model = build_markov(n, 0.2, 5)
        priors = model.transition[rng.integers(n, size=(n_steps, n_frames))]
        codebook = build_codebook(build_grid(n), 32)
        sensing = sensing_matrix(BeamMatrix(phases=rng.uniform(0, 2 * np.pi, (32, 2))), codebook)
        want = kernels.gamma_ub(
            priors.reshape(-1, n), sensing.gram_abs2, sensing.col_norms_sq, 10.0
        )
        slots = np.zeros((n_steps, n_frames), dtype=int)
        tracemalloc.start()
        try:
            got = harness._log_bounds(priors, slots, [SimpleNamespace(sensing=sensing)], 10.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want.reshape(n_steps, n_frames).T)
        assert peak < priors.nbytes / 2


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
