"""Pair eigenvalue, tail probability, and union bound tests."""

import numpy as np
import pytest

from beamtrack.arraymodel import build_codebook, build_grid
from beamtrack.linalg import covariance, covariance_det, covariance_inverse
from beamtrack.tepbound import (
    delta_threshold,
    mu_pair,
    pair_eigenvalues,
    tep_upper_bound,
)
from beamtrack.tracking import (
    Belief,
    BeamMatrix,
    PilotObservation,
    SensingMatrix,
    map_estimate,
    posterior,
    sensing_matrix,
)


def _whitened_difference(s_k, s_n, snr):
    """Dense construction of the whitened inverse-covariance difference."""
    sig_k = covariance(s_k, snr)
    sig_n = covariance(s_n, snr)
    w, u = np.linalg.eigh(sig_k)
    half = np.diag(np.sqrt(w))
    diff = np.linalg.inv(sig_n) - np.linalg.inv(sig_k)
    return half @ u.conj().T @ diff @ u @ half


class TestPairEigenvalues:
    def test_identical_columns(self):
        s = np.array([1 + 2j, 0.5 - 1j])
        l1, l2 = pair_eigenvalues(s, s, 5.0)
        assert l1 == pytest.approx(0.0, abs=1e-12)
        assert l2 == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_equal_norm_closed_form(self):
        # orthogonal equal-norm columns: whitening by the true-hypothesis
        # covariance is asymmetric, so the eigenvalues are lam1 = snr*q and
        # lam2 = -snr*q/(1 + snr*q) with q = c^2 (derived by hand and checked
        # against the dense construction below)
        c, snr = 1.7, 3.0
        q = c * c
        s_k = np.array([c, 0.0 + 0j])
        s_n = np.array([0.0 + 0j, c])
        l1, l2 = pair_eigenvalues(s_k, s_n, snr)
        assert l1 == pytest.approx(snr * q, rel=1e-12)
        assert l2 == pytest.approx(-snr * q / (1.0 + snr * q), rel=1e-12)
        dense = np.linalg.eigvalsh(_whitened_difference(s_k, s_n, snr))
        assert dense.max() == pytest.approx(l1, rel=1e-10)
        assert dense.min() == pytest.approx(l2, rel=1e-10)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_matches_dense_eigensolver(self, m):
        rng = np.random.default_rng(0)
        for _ in range(100):
            s_k = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            s_n = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            snr = 10.0 ** rng.uniform(-1, 2.5)
            dense = np.linalg.eigvalsh(_whitened_difference(s_k, s_n, snr))
            l1, l2 = pair_eigenvalues(s_k, s_n, snr)
            scale = max(1.0, np.abs(dense).max())
            assert abs(l1 - dense.max()) < 1e-8 * scale
            assert abs(l2 - dense.min()) < 1e-8 * scale
            # all remaining eigenvalues vanish
            assert np.all(np.sort(np.abs(dense))[:-2] < 1e-8 * scale)
            assert l1 >= -1e-12 and l2 <= 1e-12

    def test_rank_two_structure_of_difference(self):
        # the raw inverse-covariance difference has at most one positive and
        # one negative significant eigenvalue
        rng = np.random.default_rng(1)
        grid = build_grid(16)
        cb = build_codebook(grid, 8)
        for _ in range(200):
            beams = BeamMatrix(phases=rng.uniform(0, 2 * np.pi, (8, 3)))
            s = sensing_matrix(beams, cb)
            k, n = rng.choice(16, size=2, replace=False)
            snr = 10.0 ** rng.uniform(0, 2)
            diff = covariance_inverse(s.matrix[:, n], snr) - covariance_inverse(
                s.matrix[:, k], snr
            )
            ev = np.linalg.eigvalsh(diff)
            thresh = 1e-8 * np.abs(ev).max()
            significant = ev[np.abs(ev) > thresh]
            assert len(significant) <= 2
            assert np.sum(significant > 0) <= 1 and np.sum(significant < 0) <= 1

    def test_invalid_snr(self):
        with pytest.raises(ValueError):
            pair_eigenvalues(np.ones(2), np.ones(2), 0.0)


class TestMuPair:
    def test_symmetric_half(self):
        assert mu_pair(1.0, -1.0, 0.0) == pytest.approx(0.5)

    def test_case_two_value(self):
        assert mu_pair(2.0, 0.0, 2 * np.log(2)) == pytest.approx(0.5)

    def test_case_three_value(self):
        assert mu_pair(0.0, -2.0, -np.log(4)) == pytest.approx(0.5)

    def test_case_four(self):
        assert mu_pair(0.0, 0.0, -1.0) == 0.0
        assert mu_pair(0.0, 0.0, 1.0) == 1.0
        # identically-zero form: P(0 <= 0) = 1
        assert mu_pair(0.0, 0.0, 0.0) == 1.0

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(2)
        e = rng.exponential(size=(2, 10_000_000))
        l1, l2, d = 1.7, -0.4, -0.3
        emp = float(np.mean(l1 * e[0] + l2 * e[1] <= d))
        se = np.sqrt(emp * (1 - emp) / e.shape[1])
        assert abs(mu_pair(l1, l2, d) - emp) <= 3 * se

    def test_cdf_monotone_in_delta(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            l1 = rng.uniform(0, 5)
            l2 = -rng.uniform(0, 5)
            span = 50.0 * max(l1, -l2, 1.0)
            deltas = np.linspace(-span, span, 201)
            vals = [mu_pair(l1, l2, d) for d in deltas]
            assert np.all(np.diff(vals) >= -1e-12)
            assert vals[0] < 1e-3 and vals[-1] > 1 - 1e-3

    def test_limits(self):
        assert mu_pair(1.0, -1.0, -np.inf) == 0.0
        assert mu_pair(1.0, -1.0, np.inf) == 1.0
        assert mu_pair(2.0, 0.0, -np.inf) == 0.0
        assert mu_pair(0.0, -2.0, np.inf) == 1.0

    def test_case_continuity(self):
        # lam2 -> 0- converges to the lam2 = 0 case away from delta = 0
        for delta in (-1.3, -0.2, 0.4, 2.0):
            near = mu_pair(1.5, -1e-6, delta)
            limit = mu_pair(1.5, 0.0, delta)
            assert abs(near - limit) < 1e-4

    def test_invalid_signs(self):
        with pytest.raises(ValueError):
            mu_pair(-0.5, -1.0, 0.0)
        with pytest.raises(ValueError):
            mu_pair(1.0, 0.5, 0.0)


class TestDeltaThreshold:
    def test_equal_everything(self):
        assert delta_threshold(0.3, 0.3, 2.0, 2.0) == 0.0

    def test_zero_competitor_prior(self):
        assert delta_threshold(0.4, 0.0, 1.0, 1.0) == -np.inf
        assert mu_pair(1.0, -1.0, delta_threshold(0.4, 0.0, 1.0, 1.0)) == 0.0

    def test_zero_true_prior(self):
        assert delta_threshold(0.0, 0.4, 1.0, 1.0) == np.inf

    def test_hand_value(self):
        assert delta_threshold(0.3, 0.1, 2.0, 1.0) == pytest.approx(np.log(2 / 3))

    def test_invalid_determinant(self):
        with pytest.raises(ValueError):
            delta_threshold(0.5, 0.5, -1.0, 1.0)


class TestUpperBound:
    def test_indistinguishable_hypotheses(self):
        col = np.array([1 + 1j, 2 - 1j])
        sensing = SensingMatrix(matrix=np.tile(col[:, None], (1, 2)))
        out = tep_upper_bound(Belief(np.array([0.5, 0.5])), sensing, 10.0)
        assert out.gamma_ub == pytest.approx(1.0, abs=1e-12)

    def test_point_mass_high_snr_orthogonal(self):
        n_tx = 8
        grid = build_grid(n_tx)
        cb = build_codebook(grid, n_tx)  # orthonormal codebook
        beams = BeamMatrix.from_matrix(cb.matrix[:, :2])
        sensing = sensing_matrix(beams, cb)
        # a point-mass prior zeroes every competitor weight, so the bound is 0
        out = tep_upper_bound(Belief.point_mass(n_tx, 0), sensing, 1000.0)
        assert out.gamma_ub == 0.0
        # a nearly concentrated prior keeps the bound small but positive
        probs = np.full(n_tx, 0.01 / (n_tx - 1))
        probs[0] = 0.99
        out = tep_upper_bound(Belief(probs), sensing, 1000.0)
        assert 0 < out.gamma_ub < 0.05

    def test_terms_match_total(self):
        rng = np.random.default_rng(4)
        mat = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
        sensing = SensingMatrix(matrix=mat)
        probs = rng.random(6)
        probs[2] = 0.0
        probs /= probs.sum()
        prior = Belief(probs)
        out = tep_upper_bound(prior, sensing, 7.0, include_terms=True)
        total = sum(prior.probs[t.kappa] * t.mu for t in out.terms)
        assert total == pytest.approx(out.gamma_ub, abs=1e-12)
        assert all(t.lambda1 >= 0 >= t.lambda2 for t in out.terms)
        assert all(0 <= t.mu <= 1 for t in out.terms)
        assert all(t.kappa != 2 for t in out.terms)

    def test_terms_match_scalar_ops(self):
        # per-pair diagnostics agree with the scalar closed forms
        rng = np.random.default_rng(5)
        mat = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        sensing = SensingMatrix(matrix=mat)
        probs = rng.random(4)
        probs /= probs.sum()
        snr = 12.0
        out = tep_upper_bound(Belief(probs), sensing, snr, include_terms=True)
        for t in out.terms:
            l1, l2 = pair_eigenvalues(mat[:, t.kappa], mat[:, t.n], snr)
            assert t.lambda1 == pytest.approx(l1, abs=1e-10)
            assert t.lambda2 == pytest.approx(l2, abs=1e-10)
            d = delta_threshold(
                probs[t.kappa],
                probs[t.n],
                covariance_det(mat[:, t.kappa], snr),
                covariance_det(mat[:, t.n], snr),
            )
            assert t.delta == pytest.approx(d, abs=1e-10)
            assert t.mu == pytest.approx(mu_pair(l1, l2, d), abs=1e-12)

    def test_bound_dominates_monte_carlo(self):
        # simulate the single-period detection problem the bound describes
        rng = np.random.default_rng(6)
        grid = build_grid(12)
        cb = build_codebook(grid, 6)
        beams = BeamMatrix(phases=rng.uniform(0, 2 * np.pi, (6, 2)))
        sensing = sensing_matrix(beams, cb)
        probs = rng.random(12)
        probs /= probs.sum()
        prior = Belief(probs)
        snr = 8.0
        ub = tep_upper_bound(prior, sensing, snr).gamma_ub
        n_trials = 100_000
        ks = rng.choice(12, size=n_trials, p=probs)
        # per trial, in draw order: gain re, gain im, noise re (2), noise im (2)
        z = rng.standard_normal((n_trials, 6))
        gains = (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2)
        y = gains[:, None] * sensing.matrix[:, ks].T + (
            z[:, 2:4] + 1j * z[:, 4:6]
        ) * np.sqrt(0.5 / snr)
        # all trials as one block: one prior row per trial
        block = Belief(np.tile(probs, (n_trials, 1)))
        post = posterior(block, PilotObservation(y=y, snr=snr), sensing)
        errs = np.count_nonzero(map_estimate(post) != ks)
        tep = errs / n_trials
        stderr = np.sqrt(tep * (1 - tep) / n_trials)
        assert ub >= tep - 3 * stderr

    def test_clamped_value(self):
        col = np.array([1 + 1j, 2 - 1j])
        sensing = SensingMatrix(matrix=np.tile(col[:, None], (1, 3)))
        out = tep_upper_bound(Belief.uniform(3), sensing, 10.0)
        assert out.gamma_ub == pytest.approx(2.0, abs=1e-12)
        assert out.clamped == 1.0
