"""Grid, steering vector, codebook, and Markov dynamics tests."""

from functools import lru_cache

import numpy as np
import pytest

from beamtrack.arraymodel import (
    build_codebook,
    build_grid,
    build_markov,
    steering_vector,
)
from beamtrack.harness import ExperimentConfig, _trajectories


@lru_cache(maxsize=None)
def _walks(n_grid, beta, sigma, p_ttis, n_frames, seed=0):
    """Channel trajectories the harness draws: (initial index, index walk,
    gains) per frame."""
    config = ExperimentConfig(
        n_grid=n_grid, beta=beta, sigma=sigma, p_ttis=p_ttis, n_frames=n_frames, seed=seed
    )
    model = build_markov(n_grid, beta, sigma)
    init, indices, gains = _trajectories(config, model, range(n_frames))
    return model, [
        (int(i), walk.tolist(), g.tolist()) for i, walk, g in zip(init, indices, gains)
    ]


class TestSteeringVector:
    def test_zero_phase(self):
        np.testing.assert_allclose(steering_vector(0.0, 4), 0.5 * np.ones(4))

    def test_alternating_sign(self):
        np.testing.assert_allclose(
            steering_vector(np.pi, 2), np.array([1.0, -1.0]) / np.sqrt(2), atol=1e-15
        )

    def test_elementwise_definition(self):
        # independent elementwise evaluation
        theta, n_tx = np.pi / 64, 32
        expected = np.array([np.exp(1j * k * theta) for k in range(n_tx)]) / np.sqrt(n_tx)
        np.testing.assert_allclose(steering_vector(theta, n_tx), expected, atol=1e-15)

    def test_unit_norm(self):
        v = steering_vector(1.234, 17)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            steering_vector(0.0, 0)


class TestGrid:
    def test_first_raw_value(self):
        angles = build_grid(64)
        # raw value pi/64 is inside [-pi, pi) already
        assert angles[0] == pytest.approx(np.pi / 64)

    def test_n4_values(self):
        angles = build_grid(4)
        raw = np.array([np.pi / 4, 3 * np.pi / 4, 5 * np.pi / 4, 7 * np.pi / 4])
        wrapped = np.mod(raw + np.pi, 2 * np.pi) - np.pi
        np.testing.assert_allclose(angles, wrapped)

    def test_n2_values(self):
        angles = build_grid(2)
        np.testing.assert_allclose(
            np.sort(angles), np.sort([np.pi / 2, 3 * np.pi / 2 - 2 * np.pi])
        )

    def test_sorted_distinct(self):
        angles = build_grid(64)
        s = np.sort(angles)
        assert np.all(np.diff(s) > 0)
        assert np.all(angles >= -np.pi) and np.all(angles < np.pi)

    def test_invalid(self):
        with pytest.raises(ValueError):
            build_grid(1)


class TestCodebook:
    def test_columns_and_moduli(self):
        angles = build_grid(64)
        cb = build_codebook(angles, 32)
        np.testing.assert_allclose(np.abs(cb.matrix), 1 / np.sqrt(32), atol=1e-12)
        np.testing.assert_allclose(
            np.linalg.norm(cb.matrix, axis=0), 1.0, atol=1e-12
        )
        for n in (0, 7, 63):
            np.testing.assert_allclose(
                cb.matrix[:, n], steering_vector(angles[n], 32)
            )


class TestMarkov:
    def test_beta_zero_identity(self):
        model = build_markov(64, 0.0, 5)
        np.testing.assert_allclose(model.transition, np.eye(64))

    def test_beta_one_uniform_window(self):
        model = build_markov(64, 1.0, 5)
        row = model.transition[10]
        window = [(10 + d) % 64 for d in range(-5, 6)]
        np.testing.assert_allclose(row[window], 1 / 11)
        assert row.sum() == pytest.approx(1.0)

    def test_normalization_value(self):
        # hand-computed: C0 = 1/(1 + 2*(0.5 + 0.25)) = 0.4
        model = build_markov(64, 0.5, 2)
        assert model.transition[0, 0] == pytest.approx(0.4, abs=1e-12)

    @pytest.mark.parametrize("beta", np.round(np.arange(0, 1.01, 0.1), 2).tolist())
    @pytest.mark.parametrize("sigma", [0, 1, 2, 5])
    def test_row_sums(self, beta, sigma):
        model = build_markov(64, float(beta), sigma)
        np.testing.assert_allclose(model.transition.sum(axis=1), 1.0, atol=1e-12)

    def test_window_zeros_and_proportionality(self):
        model = build_markov(32, 0.3, 3)
        for i in range(32):
            for k in range(32):
                d = min(abs(k - i), 32 - abs(k - i))
                if d > 3:
                    assert model.transition[i, k] == 0.0
                else:
                    ratio = model.transition[i, k] / model.transition[i, i]
                    assert ratio == pytest.approx(0.3**d, rel=1e-12)

    def test_truncate_mode(self):
        model = build_markov(16, 0.5, 2, edge_mode="truncate")
        np.testing.assert_allclose(model.transition.sum(axis=1), 1.0, atol=1e-12)
        # no wraparound: first row has no mass at the far end
        assert model.transition[0, -1] == 0.0
        assert model.transition[0, -2] == 0.0

    def test_window_self_overlap(self):
        with pytest.raises(ValueError):
            build_markov(10, 0.5, 5)

    @pytest.mark.parametrize("edge_mode", ["wrap", "truncate"])
    def test_shift_class_map(self, edge_mode):
        # wrap: k -> (0, k); truncate: a window inside the grid is row sigma
        # rolled by k - sigma, an edge row its own class
        model = build_markov(16, 0.5, 2, edge_mode=edge_mode)
        if edge_mode == "wrap":
            want = [(0, k) for k in range(16)]
        else:
            want = [(k, 0) for k in (0, 1)] + [(2, k - 2) for k in range(2, 14)]
            want += [(k, 0) for k in (14, 15)]
        assert list(zip(model.canonical.tolist(), model.shift.tolist())) == want

    @pytest.mark.parametrize("edge_mode", ["wrap", "truncate"])
    @pytest.mark.parametrize("beta", [0.0, 0.1, 0.2, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("n,atol", [(64, 0.0), (256, 2.3e-16)])
    def test_rows_are_rolled_canonical_rows(self, edge_mode, beta, n, atol):
        # bit for bit at N=64; at N=256 a few rows' normalization sums round
        # differently (measured at most 1.1e-16)
        model = build_markov(n, beta, 5, edge_mode=edge_mode)
        for k in range(n):
            rolled = np.roll(model.transition[model.canonical[k]], model.shift[k])
            np.testing.assert_allclose(model.transition[k], rolled, rtol=0, atol=atol)


class TestEvolve:
    """The harness's channel draws: the index walk follows the Markov chain
    and the per-period gains are CN(0, 1)."""

    def test_beta_zero_stationary(self):
        _, walks = _walks(16, 0.0, 3, p_ttis=50, n_frames=4)
        for init, indices, _ in walks:
            assert indices == [init] * 49

    def test_uniform_window_wraparound(self):
        _, walks = _walks(8, 1.0, 1, p_ttis=2, n_frames=6000)
        counts = np.zeros(8)
        for init, indices, _ in walks:
            counts[(indices[0] - init) % 8] += 1
        freqs = counts / len(walks)
        se = np.sqrt((1 / 3) * (2 / 3) / len(walks))
        for hop in (7, 0, 1):
            assert abs(freqs[hop] - 1 / 3) < 3 * se
        assert counts[[2, 3, 4, 5, 6]].sum() == 0
        # the walk wraps around both grid edges
        hops = {(init, indices[0]) for init, indices, _ in walks}
        assert (0, 7) in hops and (7, 0) in hops

    def test_stays_within_window(self):
        _, walks = _walks(32, 0.9, 4, p_ttis=200, n_frames=10)
        for init, indices, _ in walks:
            path = [init, *indices]
            for a, b in zip(path[:-1], path[1:]):
                assert min(abs(b - a), 32 - abs(b - a)) <= 4

    def test_empirical_transition_frequencies(self):
        model, walks = _walks(8, 0.5, 2, p_ttis=101, n_frames=1000)
        counts = np.zeros((8, 8))
        for init, indices, _ in walks:
            path = [init, *indices]
            np.add.at(counts, (path[:-1], path[1:]), 1)
        for i in range(8):
            row_n = counts[i].sum()
            freqs = counts[i] / row_n
            se = np.sqrt(model.transition[i] * (1 - model.transition[i]) / row_n)
            assert np.all(np.abs(freqs - model.transition[i]) <= 3 * se + 1e-12)

    @pytest.mark.parametrize("edge_mode", ["wrap", "truncate"])
    @pytest.mark.parametrize("beta", [0.0, 0.2, 0.9])
    @pytest.mark.parametrize("n_grid", [12, 64])
    def test_matches_choice_reference(self, n_grid, beta, edge_mode):
        # the CDF draw consumes the generator exactly as rng.choice(n, p=row)
        config = ExperimentConfig(
            n_grid=n_grid, beta=beta, sigma=5, p_ttis=10, n_frames=300, seed=7
        )
        model = build_markov(n_grid, beta, 5, edge_mode=edge_mode)
        got_init, got_indices, got_gains = _trajectories(config, model, range(config.n_frames))
        for frame in range(config.n_frames):
            rng = np.random.default_rng([config.seed, frame, 0])
            init = int(rng.integers(n_grid))
            indices, gains = [init], []
            for _ in range(config.p_ttis - 1):
                indices.append(int(rng.choice(n_grid, p=model.transition[indices[-1]])))
                re, im = rng.standard_normal(2)
                gains.append(complex(re, im) / np.sqrt(2.0))
            got = (int(got_init[frame]), got_indices[frame].tolist(), got_gains[frame].tolist())
            assert got == (init, indices[1:], gains)

    def test_gain_moments(self):
        _, walks = _walks(8, 0.5, 2, p_ttis=101, n_frames=1000)
        gains = np.concatenate([g for _, _, g in walks])
        n = len(gains)
        assert abs(gains.mean()) <= 3 / np.sqrt(n)
        assert abs(np.mean(np.abs(gains) ** 2) - 1.0) <= 3 * np.sqrt(2 / n)
