"""Pair eigenvalue, tail probability, and union bound tests.

Each is checked on the bound kernel the run uses, against dense
linear-algebra oracles built with ``np.linalg``.
"""

import numpy as np
import pytest

from beamtrack import kernels
from beamtrack.arraymodel import build_codebook, build_grid
from beamtrack.kernels import ref
from beamtrack.tracking import (
    Belief,
    BeamMatrix,
    PilotObservation,
    SensingMatrix,
    map_estimate,
    posterior,
    sensing_matrix,
)


def covariance(s, snr):
    return np.outer(s, s.conj()) + np.eye(len(s)) / snr


def covariance_inverse(s, snr):
    return np.linalg.inv(covariance(s, snr))


def pair_eigenvalues(s_k, s_n, snr):
    """The kernel's (lam1, lam2) of one pair, from the two-column Gram."""
    pair = np.stack([s_k, s_n], axis=1)
    norms_sq = np.sum(np.abs(pair) ** 2, axis=0)
    gram_abs2 = np.abs(pair.conj().T @ pair) ** 2
    lam1, lam2 = ref.pair_eigs(gram_abs2, norms_sq, snr)
    return float(lam1[0, 1]), float(lam2[0, 1])


def mu_pair(lam1, lam2, delta):
    """The kernel's folded mu at given eigenvalues and threshold(s)."""
    lam1, lam2, delta = (np.asarray(x, dtype=float) for x in (lam1, lam2, delta))
    mu = ref._mu(delta, *ref._fold(lam1, lam2))
    return float(mu) if mu.ndim == 0 else mu


def gamma_ub(probs, sensing, snr):
    return kernels.gamma_ub(probs, sensing.gram_abs2, sensing.col_norms_sq, snr)


def pair_mu_matrix(probs, sensing, snr):
    """Per-pair mu of the kernel on the prior's support (true x competitor)."""
    idx = np.flatnonzero(probs > 0)
    consts = ref._pair_constants(
        sensing.gram_abs2[np.ix_(idx, idx)], sensing.col_norms_sq[idx], snr
    )
    return idx, ref._rows_mu(probs[idx][None], consts)[0]


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
            vals = mu_pair(l1, l2, deltas)
            assert np.all(np.diff(vals) >= -1e-12)
            assert vals[0] < 1e-3 and vals[-1] > 1 - 1e-3

    def test_limits(self):
        # the kernel only sees finite deltas (zero priors are cut away), so
        # the tails are checked at the extreme finite ones; an infinite delta
        # still gives the limits, in every case of which eigenvalue vanishes
        assert mu_pair(1.0, -1.0, -1e300) == 0.0
        assert mu_pair(1.0, -1.0, 1e300) == 1.0
        assert mu_pair(2.0, 0.0, -1e300) == 0.0
        assert mu_pair(0.0, -2.0, 1e300) == 1.0
        with np.errstate(invalid="ignore"):
            for lam1, lam2 in ((1.0, -1.0), (2.0, 0.0), (0.0, -2.0), (0.0, 0.0)):
                assert mu_pair(lam1, lam2, -np.inf) == 0.0
                assert mu_pair(lam1, lam2, np.inf) == 1.0

    def test_within_unit_interval(self):
        # mu is not clipped: random, aligned and scaled columns at extreme
        # SNR, against priors from 1e-300 to 1 and exact ties, stay in [0, 1]
        rng = np.random.default_rng(12)
        s = rng.standard_normal((3, 40)) + 1j * rng.standard_normal((3, 40))
        s[:, 1] = s[:, 0]
        s[:, 2] = 3.0 * s[:, 0]
        s[:, 3] = 1e-8 * s[:, 4]
        norms_sq = np.sum(np.abs(s) ** 2, axis=0)
        gram_abs2 = np.abs(s.conj().T @ s) ** 2
        prior = 10.0 ** rng.uniform(-300.0, 0.0, (6, 40))
        prior[0] = 1.0
        for snr in (1e-3, 1.0, 10.0, 1e3, 1e6):
            mu = ref._rows_mu(prior, ref._pair_constants(gram_abs2, norms_sq, snr))
            assert ((mu >= 0.0) & (mu <= 1.0)).all()

    def test_exp_floor_tolerance(self):
        # a tail below exp(EXP_FLOOR) is dropped: mu keeps its bits wherever
        # the tail is at least that, and moves by less than it elsewhere
        rng = np.random.default_rng(13)
        lam1 = rng.uniform(0.0, 5.0, 20000) * (rng.random(20000) < 0.9)
        lam2 = -rng.uniform(0.0, 5.0, 20000) * (rng.random(20000) < 0.9)
        delta = rng.uniform(-4000.0, 4000.0, 20000)
        thr, nl_low, nl_high, ratio_low, ratio_high = ref._fold(lam1, lam2)
        high = delta > thr
        arg = delta / np.where(high, nl_high, nl_low)
        tail = np.exp(arg)
        want = np.where(high, 1.0 + ratio_high * tail, ratio_low * tail)
        got = mu_pair(lam1, lam2, delta)
        kept = arg >= ref.EXP_FLOOR
        assert (~kept).any() and kept.any()
        assert np.array_equal(got[kept], want[kept])
        assert (np.abs(got - want)[~kept] < np.exp(ref.EXP_FLOOR)).all()

    def test_case_continuity(self):
        # lam2 -> 0- converges to the lam2 = 0 case away from delta = 0
        for delta in (-1.3, -0.2, 0.4, 2.0):
            near = mu_pair(1.5, -1e-6, delta)
            limit = mu_pair(1.5, 0.0, delta)
            assert abs(near - limit) < 1e-4

    def test_invalid_signs(self):
        # the folded mu assumes lam1 >= 0 >= lam2; the kernel's eigenvalues
        # never break it, on random, aligned and scaled pairs at any SNR
        rng = np.random.default_rng(7)
        s = rng.standard_normal((3, 40)) + 1j * rng.standard_normal((3, 40))
        s[:, 1] = s[:, 0]
        s[:, 2] = 3.0 * s[:, 0]
        s[:, 3] = 1e-8 * s[:, 4]
        norms_sq = np.sum(np.abs(s) ** 2, axis=0)
        gram_abs2 = np.abs(s.conj().T @ s) ** 2
        for snr in (1e-3, 1.0, 10.0, 1e3, 1e6):
            lam1, lam2 = ref.pair_eigs(gram_abs2, norms_sq, snr)
            assert (lam1 >= 0.0).all() and (lam2 <= 0.0).all()


class TestDeltaThreshold:
    """delta = ln(p_n |Sigma_k| / (p_k |Sigma_n|)): the log prior ratio plus
    the log-determinant row of the kernel's pair constants."""

    def test_equal_everything(self):
        s = np.array([[1 + 2j, 1 + 2j], [0.5 - 1j, 0.5 - 1j]])
        norms_sq = np.sum(np.abs(s) ** 2, axis=0)
        gram_abs2 = np.abs(s.conj().T @ s) ** 2
        logdet = ref._pair_constants(gram_abs2, norms_sq, 3.0)[0]
        assert (logdet == 0.0).all()
        # equal priors on equal columns: delta == 0, and both eigenvalues
        # vanish, so mu = P(0 <= 0) = 1
        assert kernels.gamma_ub(np.full(2, 0.5), gram_abs2, norms_sq, 3.0) == 1.0

    def test_zero_competitor_prior(self):
        # a zero-prior competitor takes no part: its Gram data cannot move
        # the bound
        rng = np.random.default_rng(1)
        mat = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
        probs = rng.random(6)
        probs[3] = 0.0
        probs /= probs.sum()
        base = gamma_ub(probs, SensingMatrix(matrix=mat), 5.0)
        mat[:, 3] = mat[:, 0]
        moved = SensingMatrix(matrix=mat)
        assert gamma_ub(probs, moved, 5.0) == base
        batch = kernels.gamma_ub_batch(
            probs, moved.gram_abs2[None], moved.col_norms_sq[None], 5.0
        )
        assert batch[0] == pytest.approx(base, rel=1e-12)

    def test_zero_true_prior(self):
        # a zero-prior true hypothesis adds no term: every entry equals
        # its call restricted to the support
        rng = np.random.default_rng(2)
        mat = rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7))
        probs = rng.random(7)
        probs[[0, 5]] = 0.0
        probs /= probs.sum()
        idx = np.flatnonzero(probs)
        full = SensingMatrix(matrix=mat)
        cut = SensingMatrix(matrix=mat[:, idx])
        assert gamma_ub(probs, full, 9.0) == gamma_ub(probs[idx], cut, 9.0)
        both = kernels.gamma_ub_batch(
            probs, full.gram_abs2[None], full.col_norms_sq[None], 9.0
        )
        alone = kernels.gamma_ub_batch(
            probs[idx], cut.gram_abs2[None], cut.col_norms_sq[None], 9.0
        )
        assert both[0] == alone[0]

    def test_hand_value(self):
        # snr*q = (1, 0) gives |Sigma_0| / |Sigma_1| = 2; priors (0.3, 0.1)
        s = np.array([[1.0 + 0j, 0.0]])
        norms_sq = np.sum(np.abs(s) ** 2, axis=0)
        gram_abs2 = np.abs(s.conj().T @ s) ** 2
        logdet = ref._pair_constants(gram_abs2, norms_sq, 1.0)[0].reshape(2, 2)
        delta = np.log(0.1) - np.log(0.3) + logdet[0, 1]
        assert delta == pytest.approx(np.log(2 / 3))


class TestUpperBound:
    def test_indistinguishable_hypotheses(self):
        col = np.array([1 + 1j, 2 - 1j])
        sensing = SensingMatrix(matrix=np.tile(col[:, None], (1, 2)))
        out = gamma_ub(np.array([0.5, 0.5]), sensing, 10.0)
        assert out == pytest.approx(1.0, abs=1e-12)

    def test_point_mass_high_snr_orthogonal(self):
        n_tx = 8
        grid = build_grid(n_tx)
        cb = build_codebook(grid, n_tx)  # orthonormal codebook
        beams = BeamMatrix.from_matrix(cb.matrix[:, :2])
        sensing = sensing_matrix(beams, cb)
        # a point-mass prior zeroes every competitor weight, so the bound is 0
        out = gamma_ub(Belief.point_mass(n_tx, 0).probs, sensing, 1000.0)
        assert out == 0.0
        # a nearly concentrated prior keeps the bound small but positive
        probs = np.full(n_tx, 0.01 / (n_tx - 1))
        probs[0] = 0.99
        out = gamma_ub(probs, sensing, 1000.0)
        assert 0 < out < 0.05

    def test_terms_match_total(self):
        rng = np.random.default_rng(4)
        mat = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
        sensing = SensingMatrix(matrix=mat)
        probs = rng.random(6)
        probs[2] = 0.0
        probs /= probs.sum()
        idx, mu = pair_mu_matrix(probs, sensing, 7.0)
        assert 2 not in idx
        total = sum(probs[k] * mu[a].sum() for a, k in enumerate(idx))
        assert total == pytest.approx(gamma_ub(probs, sensing, 7.0), abs=1e-12)
        assert ((0 <= mu) & (mu <= 1)).all()
        assert (np.diag(mu) == 0.0).all()
        lam1, lam2 = ref.pair_eigs(sensing.gram_abs2, sensing.col_norms_sq, 7.0)
        assert (lam1 >= 0).all() and (lam2 <= 0).all()

    def test_terms_match_scalar_ops(self):
        # per-pair kernel terms agree with the pair taken on its own: its
        # two-column eigenvalues, the dense log-determinants and the mu
        rng = np.random.default_rng(5)
        mat = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        sensing = SensingMatrix(matrix=mat)
        probs = rng.random(4)
        probs /= probs.sum()
        snr = 12.0
        lam1, lam2 = ref.pair_eigs(sensing.gram_abs2, sensing.col_norms_sq, snr)
        _, mu = pair_mu_matrix(probs, sensing, snr)
        for k in range(4):
            for n in range(4):
                if n == k:
                    continue
                l1, l2 = pair_eigenvalues(mat[:, k], mat[:, n], snr)
                assert lam1[k, n] == pytest.approx(l1, abs=1e-10)
                assert lam2[k, n] == pytest.approx(l2, abs=1e-10)
                d = np.log(probs[n] / probs[k]) + (
                    np.linalg.slogdet(covariance(mat[:, k], snr))[1]
                    - np.linalg.slogdet(covariance(mat[:, n], snr))[1]
                )
                assert mu[k, n] == pytest.approx(mu_pair(l1, l2, d), abs=1e-12)

    def test_bound_dominates_monte_carlo(self):
        # simulate the single-period detection problem the bound describes
        rng = np.random.default_rng(6)
        grid = build_grid(12)
        cb = build_codebook(grid, 6)
        beams = BeamMatrix(phases=rng.uniform(0, 2 * np.pi, (6, 2)))
        sensing = sensing_matrix(beams, cb)
        probs = rng.random(12)
        probs /= probs.sum()
        snr = 8.0
        ub = gamma_ub(probs, sensing, snr)
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

    def test_unclamped_value(self):
        # the raw union sum may exceed 1; three indistinguishable
        # hypotheses each lose to both others
        col = np.array([1 + 1j, 2 - 1j])
        sensing = SensingMatrix(matrix=np.tile(col[:, None], (1, 3)))
        out = gamma_ub(Belief.uniform(3).probs, sensing, 10.0)
        assert out == pytest.approx(2.0, abs=1e-12)
