"""Sensing matrix, belief recursion, and MAP estimate tests."""

import numpy as np
import pytest

from beamtrack.arraymodel import (
    build_codebook,
    build_grid,
    build_markov,
)
from beamtrack.harness import (
    ExperimentConfig,
    _noise,
    _noise_normals,
    _trajectories,
    run_experiment,
)
from beamtrack.tracking import (
    Belief,
    DegenerateBeliefError,
    PilotObservation,
    SensingMatrix,
    map_estimate,
    posterior,
    propagate_prior,
    log_likelihood_scores,
    sensing_matrix,
)
from oracles import brute_force_posterior, covariance, log_likelihoods


def _random_sensing(rng, m, n):
    mat = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    return SensingMatrix(matrix=mat)


class TestSensingMatrix:
    def test_unit_modulus(self):
        # on the orthonormal n_tx-point codebook a sensing row is sqrt(n_tx)
        # times a beam in codebook coordinates, so its squared norm is n_tx
        # exactly when every beam entry has modulus 1/sqrt(n_tx)
        rng = np.random.default_rng(0)
        cb = build_codebook(build_grid(16), 16)
        s = sensing_matrix(rng.uniform(0, 2 * np.pi, size=(16, 3)), cb.matrix)
        np.testing.assert_allclose(np.sum(np.abs(s.matrix) ** 2, axis=1), 16.0, atol=1e-12)

    def test_stack_equals_each_alone(self):
        # a (B, n_tx, M) stack builds each design's sensing matrix bit for bit
        rng = np.random.default_rng(3)
        for n_tx, n, m in ((7, 16, 2), (32, 64, 2), (8, 16, 5)):
            cb = build_codebook(build_grid(n), n_tx)
            phases = rng.uniform(-80.0, 80.0, size=(9, n_tx, m))
            stack = sensing_matrix(phases, cb.matrix).matrix
            assert stack.shape == (9, m, n)
            for item, one in zip(stack, phases):
                assert np.array_equal(item, sensing_matrix(one, cb.matrix).matrix)

    def test_dft_orthogonal_case(self):
        # N == n_tx: codebook columns are orthonormal, so picking the first
        # M as beams gives sqrt(n_tx) * [I | 0]
        n_tx = 8
        grid = build_grid(n_tx)
        cb = build_codebook(grid, n_tx)
        s = sensing_matrix(np.angle(cb.matrix[:, :2]), cb.matrix)
        expected = np.sqrt(n_tx) * np.hstack([np.eye(2), np.zeros((2, n_tx - 2))])
        np.testing.assert_allclose(s.matrix, expected, atol=1e-12)

    def test_single_beam_inner_product(self):
        # beam equal to the steering vector at angle 0
        s = sensing_matrix(np.zeros((2, 1)), np.ones((2, 1)) / np.sqrt(2))
        assert abs(s.matrix[0, 0] - np.sqrt(2)) < 1e-12

    def test_matches_dense_product(self):
        rng = np.random.default_rng(2)
        grid = build_grid(16)
        cb = build_codebook(grid, 8)
        phases = rng.uniform(0, 2 * np.pi, size=(8, 2))
        s = sensing_matrix(phases, cb.matrix)
        # independent dense recomputation from the beams F = exp(j phases) / sqrt(8)
        beams = (np.cos(phases) + 1j * np.sin(phases)) / np.sqrt(8)
        expected = np.zeros((2, 16), dtype=complex)
        for m in range(2):
            for n in range(16):
                expected[m, n] = np.sqrt(8) * np.sum(beams[:, m].conj() * cb.matrix[:, n])
        np.testing.assert_allclose(s.matrix, expected, atol=1e-12)

    def test_dimension_mismatch(self):
        grid = build_grid(16)
        cb = build_codebook(grid, 8)
        with pytest.raises(ValueError, match="beam rows"):
            sensing_matrix(np.zeros((4, 2)), cb.matrix)


class TestObservation:
    """The harness's observation model: y = gain * s_kappa + noise with
    noise ~ CN(0, (1/snr) I), gains from the channel trajectory."""

    def test_noiseless(self):
        # orthogonal probes (n_tx == n_grid) recover every noiseless pilot at
        # any SNR; with noise at -20 dB they do not
        cfg = dict(
            n_tx=16, n_grid=16, sigma=2, p_ttis=4, snr_db=-20.0, n_frames=30,
            policy="beam_cycling", seed=5,
        )
        clean, _ = run_experiment(ExperimentConfig(noiseless=True, **cfg))
        noisy, _ = run_experiment(ExperimentConfig(**cfg))
        assert clean["beam_cycling"]["error"].sum() == 0
        assert noisy["beam_cycling"]["error"].sum() > 0

    def test_zero_gain_noise_variance(self):
        config = ExperimentConfig(seed=1)
        snr, m, n = 4.0, 2, 50_000
        noise = _noise(_noise_normals(config, range(n), 2, 2 * m), m, snr)
        assert np.mean(np.abs(noise) ** 2) == pytest.approx(1 / snr, rel=0.02)
        # real and imaginary parts are independent, each of variance 1/(2 snr)
        assert np.mean(noise.real**2) == pytest.approx(0.5 / snr, rel=0.03)
        assert abs(np.mean(noise.real * noise.imag)) < 3 * 0.5 / snr / np.sqrt(n)

    def test_empirical_covariance(self):
        rng = np.random.default_rng(2)
        grid = build_grid(8)
        cb = build_codebook(grid, 4)
        model = build_markov(8, 0.5, 1)
        s = sensing_matrix(rng.uniform(0, 2 * np.pi, (4, 2)), cb.matrix)
        snr, kappa, n = 5.0, 3, 20_000
        config = ExperimentConfig(n_grid=8, sigma=1, p_ttis=2, seed=2)
        gains = _trajectories(config, model, range(n))[2][:, 0]
        noise = _noise(_noise_normals(config, range(n), 2, 4), 2, snr)
        ys = gains[:, None] * s.matrix[:, kappa] + noise
        emp = ys.T @ ys.conj() / n
        expected = covariance(s.matrix[:, kappa], snr)
        # per-entry standard error scales with the diagonal magnitudes
        tol = 3 * np.max(np.abs(expected)) / np.sqrt(n) * 2
        assert np.max(np.abs(emp - expected)) < tol


class TestBelief:
    def test_simplex_validation(self):
        with pytest.raises(ValueError):
            Belief(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            Belief(np.array([1.2, -0.2]))

    def test_point_mass_and_uniform(self):
        b = Belief.point_mass(4, 2)
        assert b.probs[2] == 1.0 and b.probs.sum() == 1.0
        u = Belief.uniform(5)
        np.testing.assert_allclose(u.probs, 0.2)


class TestPropagate:
    def test_identity_model(self):
        model = build_markov(8, 0.0, 2)
        b = Belief(np.array([0.1, 0.2, 0.3, 0.4, 0, 0, 0, 0.0]))
        np.testing.assert_allclose(propagate_prior(b, model).probs, b.probs)

    def test_point_mass_uniform_window(self):
        model = build_markov(8, 1.0, 1)
        out = propagate_prior(Belief.point_mass(8, 0), model)
        np.testing.assert_allclose(out.probs[[7, 0, 1]], 1 / 3)

    def test_matches_dense_product(self):
        rng = np.random.default_rng(3)
        model = build_markov(16, 0.6, 3)
        probs = rng.random(16)
        probs /= probs.sum()
        out = propagate_prior(Belief(probs), model)
        expected = np.array(
            [sum(model.transition[i, k] * probs[i] for i in range(16)) for k in range(16)]
        )
        np.testing.assert_allclose(out.probs, expected, atol=1e-12)

    def test_simplex_preserved_random(self):
        rng = np.random.default_rng(4)
        model = build_markov(16, 0.4, 2)
        for _ in range(200):
            probs = rng.random(16)
            probs /= probs.sum()
            out = propagate_prior(Belief(probs), model)
            assert out.probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(out.probs >= 0)


class TestShermanMorrison:
    def test_inverse_and_determinant(self):
        # log_likelihood_scores uses the Sherman-Morrison inverse and the
        # determinant lemma; each hypothesis's score equals the dense
        # complex-Gaussian log-density minus the common M*log(snr)
        rng = np.random.default_rng(5)
        for _ in range(1000):
            m = int(rng.integers(1, 5))
            sensing = _random_sensing(rng, m, 6)
            snr = 10.0 ** rng.uniform(-1, 3)
            y = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            got = log_likelihood_scores(PilotObservation(y=y, snr=snr), sensing)
            assert got == pytest.approx(log_likelihoods(y, sensing.matrix, snr), rel=1e-9)


class TestPosterior:
    def test_constant_likelihood(self):
        rng = np.random.default_rng(6)
        col = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        sensing = SensingMatrix(matrix=np.tile(col[:, None], (1, 6)))
        prior = Belief(np.array([0.1, 0.2, 0.3, 0.2, 0.1, 0.1]))
        obs = PilotObservation(y=rng.standard_normal(2) + 0j, snr=3.0)
        out = posterior(prior, obs, sensing)
        np.testing.assert_allclose(out.probs, prior.probs, atol=1e-12)

    def test_point_mass_prior_absorbs(self):
        rng = np.random.default_rng(7)
        sensing = _random_sensing(rng, 2, 5)
        prior = Belief.point_mass(5, 3)
        obs = PilotObservation(y=rng.standard_normal(2) + 0j, snr=2.0)
        out = posterior(prior, obs, sensing)
        np.testing.assert_allclose(out.probs, prior.probs)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(8)
        sensing = _random_sensing(rng, 2, 4)
        probs = np.array([0.4, 0.3, 0.2, 0.1])
        y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        out = posterior(Belief(probs), PilotObservation(y=y, snr=10.0), sensing)
        expected = brute_force_posterior(probs, y, sensing.matrix, 10.0)
        np.testing.assert_allclose(out.probs, expected, atol=1e-10)
        assert map_estimate(out) == int(np.argmax(expected))

    def test_scale_invariance(self):
        # common positive rescaling of the unnormalized scores is a log-domain
        # shift; the normalized posterior and its argmax must not move
        rng = np.random.default_rng(9)
        sensing = _random_sensing(rng, 3, 6)
        probs = rng.random(6)
        probs /= probs.sum()
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        obs = PilotObservation(y=y, snr=1.0)
        out = posterior(Belief(probs), obs, sensing)
        scores = log_likelihood_scores(obs, sensing)
        for shift in (-250.0, 0.0, 123.0):
            raw = probs * np.exp(scores - scores.max() + shift)
            np.testing.assert_allclose(raw / raw.sum(), out.probs, atol=1e-12)
            assert int(np.argmax(raw)) == map_estimate(out)

    def test_simplex_preserved_random(self):
        rng = np.random.default_rng(10)
        for _ in range(500):
            sensing = _random_sensing(rng, 2, 8)
            probs = rng.random(8)
            probs[rng.integers(8)] = 0.0
            probs /= probs.sum()
            y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            out = posterior(Belief(probs), PilotObservation(y=y, snr=5.0), sensing)
            assert out.probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(out.probs >= 0)

    def test_zero_prior_entries_stay_zero(self):
        rng = np.random.default_rng(11)
        sensing = _random_sensing(rng, 2, 4)
        prior = Belief(np.array([0.5, 0.0, 0.5, 0.0]))
        obs = PilotObservation(y=rng.standard_normal(2) + 0j, snr=2.0)
        out = posterior(prior, obs, sensing)
        assert out.probs[1] == 0.0 and out.probs[3] == 0.0

    def test_high_snr_recovers_truth(self):
        # noiseless observation, distinct columns, huge snr: MAP hits the
        # true index whenever the prior there is nonzero
        rng = np.random.default_rng(12)
        grid = build_grid(16)
        cb = build_codebook(grid, 8)
        sensing = sensing_matrix(rng.uniform(0, 2 * np.pi, (8, 4)), cb.matrix)
        snr = 1e5
        for true_idx in range(16):
            prior = np.full(16, 1.0 / 16)
            y = (0.3 + 0.9j) * sensing.matrix[:, true_idx]
            out = posterior(Belief(prior), PilotObservation(y=y, snr=snr), sensing)
            assert map_estimate(out) == true_idx


class TestMapEstimate:
    def test_unique_max(self):
        assert map_estimate(Belief(np.array([0.1, 0.7, 0.2]))) == 1

    def test_tie_breaks_low(self):
        assert map_estimate(Belief(np.array([0.5, 0.5]))) == 0


class TestTrackFrame:
    """Whole-frame tracking through the harness."""

    def _config(self, **overrides):
        cfg = dict(
            n_tx=8, n_grid=16, sigma=2, p_ttis=5, beta=0.7, snr_db=10.0, n_frames=20,
            policy=["psa_optimized", "directional_tep"], seed=13,
        )
        cfg.update(overrides)
        return ExperimentConfig(**cfg)

    def test_stationary_noiseless_exact(self):
        trials, _ = run_experiment(self._config(beta=0.0, noiseless=True))
        for arr in trials.values():
            assert np.array_equal(arr["est_index"], arr["true_index"])
            first = arr["tti"] == 2
            # the angle never moves from the frame's first index
            init = dict(zip(arr["frame"][first], arr["true_index"][first]))
            assert all(init[f] == t for f, t in zip(arr["frame"], arr["true_index"]))

    def test_sigma_zero_never_errs(self):
        # a window of zero steps keeps every prior a point mass, so even at
        # 0 dB the designed policies never err
        trials, _ = run_experiment(self._config(sigma=0, snr_db=0.0))
        for arr in trials.values():
            assert arr["error"].sum() == 0

    def test_degenerate_belief_guard(self):
        with pytest.raises(DegenerateBeliefError):
            Belief(np.zeros(4))


class TestBlock:
    """An (F, N) block advances every row exactly as the single-frame call."""

    F, M, N = 7, 3, 12

    def _block(self, seed):
        rng = np.random.default_rng(seed)
        probs = rng.random((self.F, self.N))
        probs[1, 4:] = 0.0
        probs[2, ::2] = 0.0
        probs[3, 5] = 1e-300
        probs[4] = 0.0
        probs[4, 6] = 1.0
        probs /= probs.sum(axis=1, keepdims=True)
        mats = rng.standard_normal((self.F, self.M, self.N)) + 1j * rng.standard_normal(
            (self.F, self.M, self.N)
        )
        y = rng.standard_normal((self.F, self.M)) + 1j * rng.standard_normal((self.F, self.M))
        return probs, mats, y

    def test_propagate_prior(self):
        probs, _, _ = self._block(20)
        model = build_markov(self.N, 0.4, 2)
        block = propagate_prior(Belief(probs), model)
        for f in range(self.F):
            one = propagate_prior(Belief(probs[f]), model)
            assert np.array_equal(block.probs[f], one.probs)

    @pytest.mark.parametrize("snr", [1e-2, 3.0, 1e4])
    def test_posterior_and_map(self, snr):
        probs, mats, y = self._block(21)
        obs = PilotObservation(y=y, snr=snr)
        sensing = SensingMatrix(matrix=mats)
        scores = log_likelihood_scores(obs, sensing)
        block = posterior(Belief(probs), obs, sensing)
        est = map_estimate(block)
        assert est.shape == (self.F,)
        for f in range(self.F):
            obs_f = PilotObservation(y=y[f], snr=snr)
            sensing_f = SensingMatrix(matrix=mats[f])
            one = posterior(Belief(probs[f]), obs_f, sensing_f)
            assert np.array_equal(scores[f], log_likelihood_scores(obs_f, sensing_f))
            assert np.array_equal(block.probs[f], one.probs)
            assert est[f] == map_estimate(one)

    def test_sensing_stack(self):
        _, mats, _ = self._block(22)
        stack = SensingMatrix(matrix=mats)
        assert (stack.m_beams, stack.n_points) == (self.M, self.N)
        for f in range(self.F):
            one = SensingMatrix(matrix=mats[f])
            assert np.array_equal(stack.col_norms_sq[f], one.col_norms_sq)
            assert np.array_equal(stack.gram_abs2[f], one.gram_abs2)

    def test_block_validation(self):
        good = np.full((2, 4), 0.25)
        assert Belief(good).n_points == 4
        bad = good.copy()
        bad[1, 0] = 0.5
        with pytest.raises(ValueError, match="sum to 1"):
            Belief(bad)
        with pytest.raises(DegenerateBeliefError):
            Belief(np.vstack([good[0], np.zeros(4)]))
        with pytest.raises(ValueError):
            Belief(np.full((2, 2, 2), 0.5))
