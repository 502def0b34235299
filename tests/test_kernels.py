"""Bound-kernel entry points: agreement with each other and with oracles."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamtrack import kernels
from beamtrack.arraymodel import build_codebook, build_grid, build_markov
from beamtrack.kernels import ref
from beamtrack.tracking import BeamMatrix, SensingMatrix, sensing_matrix


def _mu_four_cases(l1, l2, d):
    """Scalar P(l1*E1 + l2*E2 <= d), E_i iid unit exponentials, by the four
    cases of which eigenvalue is nonzero (reference for the folded mu).  A
    tail exp(x) with x below ``ref.EXP_FLOOR`` counts as 0, as in the kernel
    (which moves mu by less than exp(EXP_FLOOR))."""
    l1, l2, d = np.float64(l1), np.float64(l2), np.float64(d)
    tol = ref.ZERO_EIG_RTOL * max(1.0, abs(l1), abs(l2))
    pos, neg = l1 > tol, l2 < -tol

    def tail(x):
        return np.exp(x) if x >= ref.EXP_FLOOR else 0.0

    if pos and neg:
        if d <= 0:
            value = l2 / (l2 - l1) * tail(-d / l2)
        else:
            value = 1.0 + l1 / (l2 - l1) * tail(-d / l1)
    elif pos:
        value = 1.0 - tail(-d / l1) if d > 0 else 0.0
    elif neg:
        value = tail(-d / l2) if d < 0 else 1.0
    else:
        value = 1.0 if d >= 0 else 0.0
    return min(max(value, 0.0), 1.0)


def _folded_mu(lam1, lam2, delta):
    """The kernel's folded mu at given eigenvalues and thresholds."""
    lam1, lam2, delta = (np.asarray(x, dtype=float) for x in (lam1, lam2, delta))
    return ref._mu(delta, *ref._fold(lam1, lam2))


def _covariance(s, snr):
    return np.outer(s, s.conj()) + np.eye(len(s)) / snr


def _random_problem(rng, m, n):
    s = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    prior = rng.random(n)
    prior /= prior.sum()
    norms_sq = np.sum(np.abs(s) ** 2, axis=0)
    gram_abs2 = np.abs(s.conj().T @ s) ** 2
    return s, prior, norms_sq, gram_abs2


def _gram_data(s):
    """(gram_abs2, norms_sq) of a (..., M, N) stack of sensing matrices."""
    norms_sq = np.sum(np.abs(s) ** 2, axis=-2)
    gram_abs2 = np.abs(np.swapaxes(s.conj(), -1, -2) @ s) ** 2
    return gram_abs2, norms_sq


def _assert_batch_exact(prior, gram_abs2, norms_sq, snr):
    """The design batch's pair mu equals the four-case scalar formula and
    each item's own call, bit for bit; returns the pair eigenvalues."""
    mu = ref._rows_mu(prior, ref._pair_constants(gram_abs2, norms_sq, snr))
    got = ref.gamma_ub_batch(prior, gram_abs2, norms_sq, snr)
    # the bound weights the row sums by the prior; that last product goes
    # through BLAS, which may round an item of a longer stack differently,
    # so the items are compared up to it
    assert np.array_equal(got, mu.sum(axis=-1) @ prior)
    lam1, lam2 = ref.pair_eigs(gram_abs2, norms_sq, snr)
    log_prior = np.log(prior)
    logdet = np.log1p(snr * norms_sq)
    n = len(prior)
    want = np.zeros(mu.shape)
    for b in range(len(mu)):
        for k in range(n):
            for j in range(n):
                if j != k:
                    delta = (log_prior[j] - log_prior[k]) + (logdet[b, k] - logdet[b, j])
                    want[b, k, j] = _mu_four_cases(lam1[b, k, j], lam2[b, k, j], delta)
        one = ref._rows_mu(prior, ref._pair_constants(gram_abs2[b], norms_sq[b], snr))
        assert np.array_equal(mu[b], one)
        single = ref.gamma_ub_batch(prior, gram_abs2[b : b + 1], norms_sq[b : b + 1], snr)
        assert got[b] == pytest.approx(single[0], rel=4 * np.finfo(float).eps, abs=0.0)
    assert np.array_equal(mu, want)
    return lam1, lam2


def _loop_gamma_ub(s, prior, snr):
    """Slow dense-linear-algebra evaluation of the union bound (oracle)."""
    n = s.shape[1]
    total = 0.0
    for k in range(n):
        if prior[k] == 0:
            continue
        for j in range(n):
            if j == k or prior[j] == 0:
                continue
            sig_k, sig_j = _covariance(s[:, k], snr), _covariance(s[:, j], snr)
            diff = np.linalg.inv(sig_j) - np.linalg.inv(sig_k)
            w, u = np.linalg.eigh(sig_k)
            half = np.diag(np.sqrt(w))
            ev = np.linalg.eigvalsh(half @ u.conj().T @ diff @ u @ half)
            delta = np.log(prior[j] / prior[k]) + (
                np.linalg.slogdet(sig_k)[1] - np.linalg.slogdet(sig_j)[1]
            )
            total += prior[k] * _mu_four_cases(max(ev.max(), 0), min(ev.min(), 0), delta)
    return total


class TestKernelAgreement:
    @pytest.mark.parametrize("m,n", [(1, 4), (2, 16), (2, 64), (4, 24)])
    def test_impls_agree(self, m, n):
        # the logging entry, on one prior or a block, and the design batch
        # share the folded formula but reduce differently; each agrees with
        # the one-prior call
        rng = np.random.default_rng(n)
        problems = [_random_problem(rng, m, n) for _ in range(20)]
        snrs = 10.0 ** rng.uniform(-1, 3, size=len(problems))
        for (_, prior, norms_sq, gram_abs2), snr in zip(problems, snrs):
            a = kernels.gamma_ub(prior, gram_abs2, norms_sq, snr)
            block = np.vstack([prior, prior[::-1]])
            rows = kernels.gamma_ub(block, gram_abs2, norms_sq, snr)
            batch = ref.gamma_ub_batch(prior, gram_abs2[None], norms_sq[None], snr)
            assert rows[0] == a
            assert batch[0] == pytest.approx(a, rel=1e-12, abs=1e-12)

    def test_impls_agree_sparse_prior(self):
        rng = np.random.default_rng(7)
        _, prior, norms_sq, gram_abs2 = _random_problem(rng, 2, 32)
        prior[5:] = 0.0
        prior /= prior.sum()
        a = kernels.gamma_ub(prior, gram_abs2, norms_sq, 25.0)
        idx = np.flatnonzero(prior)
        b = ref.gamma_ub_batch(
            prior[idx], gram_abs2[np.ix_(idx, idx)][None], norms_sq[idx][None], 25.0
        )
        assert kernels.gamma_ub(prior[None], gram_abs2, norms_sq, 25.0)[0] == a
        assert b[0] == pytest.approx(a, rel=1e-12)

    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_dense_oracle(self, m):
        rng = np.random.default_rng(m)
        for _ in range(5):
            s, prior, norms_sq, gram_abs2 = _random_problem(rng, m, 6)
            snr = 10.0 ** rng.uniform(0, 2)
            expected = _loop_gamma_ub(s, prior, snr)
            got = kernels.gamma_ub(prior, gram_abs2, norms_sq, snr)
            assert got == pytest.approx(expected, rel=1e-8)

    def test_folded_mu_matches_scalar(self):
        # the vectorized folded formula against the scalar four-case one,
        # including delta == 0 exactly, where mu steps
        rng = np.random.default_rng(9)
        lam1 = rng.uniform(0, 5, size=200)
        lam2 = -rng.uniform(0, 5, size=200)
        lam1[::5] = 0.0
        lam2[::7] = 0.0
        delta = rng.uniform(-5, 5, size=200)
        delta[::11] = 0.0
        vec = _folded_mu(lam1, lam2, delta)
        for i in range(200):
            assert vec[i] == pytest.approx(_mu_four_cases(lam1[i], lam2[i], delta[i]), abs=1e-14)


class TestGammaUbBatch:
    SNRS = [1e-3, 1e-1, 1.0, 10.0, 1e3, 1e6]

    def _batch(self, rng, m, n, b=4):
        """Random Gram data of b sensing matrices; item 0 repeats a row, so
        all of its column pairs are aligned (the rank-deficient branch)."""
        s = rng.standard_normal((b, m, n)) + 1j * rng.standard_normal((b, m, n))
        s[0, 1] = s[0, 0]
        norms_sq = np.sum(np.abs(s) ** 2, axis=-2)
        gram_abs2 = np.abs(np.swapaxes(s.conj(), -1, -2) @ s) ** 2
        return s, norms_sq, gram_abs2

    @pytest.mark.parametrize("snr", SNRS)
    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_per_item(self, m, snr):
        rng = np.random.default_rng(m)
        _, norms_sq, gram_abs2 = self._batch(rng, m, 12)
        prior = rng.random(12)
        prior /= prior.sum()
        got = ref.gamma_ub_batch(prior, gram_abs2, norms_sq, snr)
        assert got.shape == (4,)
        for b in range(4):
            want = ref.gamma_ub(prior, gram_abs2[b], norms_sq[b], snr)
            assert got[b] == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("snr", SNRS)
    def test_prior_with_zero_entries(self, snr):
        # zeros kept in the batch or cut away by restricting to the support
        # give the per-item bound on the full prior
        rng = np.random.default_rng(3)
        _, norms_sq, gram_abs2 = self._batch(rng, 2, 10)
        prior = rng.random(10)
        prior[[0, 4, 5]] = 0.0
        prior[7] = 1e-300
        prior /= prior.sum()
        idx = np.flatnonzero(prior)
        full = ref.gamma_ub_batch(prior, gram_abs2, norms_sq, snr)
        restricted = ref.gamma_ub_batch(
            prior[idx], gram_abs2[:, idx][:, :, idx], norms_sq[:, idx], snr
        )
        for b in range(4):
            want = ref.gamma_ub(prior, gram_abs2[b], norms_sq[b], snr)
            assert full[b] == pytest.approx(want, rel=1e-12, abs=0.0)
            assert restricted[b] == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("snr", SNRS)
    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_dense_oracle(self, m, snr):
        # The closed form's Cauchy-Schwarz gap cancels like snr * eps, so the
        # tolerance grows with the SNR (measured: 3e-14 at 10, 3e-8 at 1e6).
        rng = np.random.default_rng(10 + m)
        s, norms_sq, gram_abs2 = self._batch(rng, m, 6)
        prior = rng.random(6)
        prior[2] = 0.0
        prior /= prior.sum()
        got = ref.gamma_ub_batch(prior, gram_abs2, norms_sq, snr)
        for b in range(4):
            expected = _loop_gamma_ub(s[b], prior, snr)
            assert got[b] == pytest.approx(expected, rel=1e-12 * max(1.0, snr))

    @pytest.mark.parametrize("n,n_tx,sigma", [(16, 4, 2), (64, 32, 5)])
    def test_directional_rows(self, n, n_tx, sigma):
        # sensing rows of codeword subsets, as the directional search scores
        # them: many support columns are near orthogonal to both codewords,
        # so many pairs are non-generic (most of them at the Fig. 2 size)
        # and take the patch
        cb = build_codebook(build_grid(n), n_tx)
        prior = build_markov(n, 0.5, sigma).transition[0]
        idx = np.flatnonzero(prior)
        rows = np.sqrt(n_tx) * (cb.matrix.conj().T @ cb.matrix)[:, idx]
        subsets = np.array(list(combinations(range(n), 2))[:40])
        gram_abs2, norms_sq = _gram_data(rows[subsets])
        for snr in (0.1, 100.0, 1e4):
            lam1, lam2 = _assert_batch_exact(prior[idx], gram_abs2, norms_sq, snr)
            _, nl_low, nl_high, _, _ = ref._fold(lam1, lam2)
            non_generic = np.isinf(nl_low) | np.isinf(nl_high)
            assert non_generic.sum() > len(idx) * len(subsets)  # beyond the diagonal

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        b=st.integers(1, 4),
        m=st.integers(1, 3),
        n=st.integers(2, 7),
        log_snr=st.floats(-3.0, 6.0),
        kinds=st.lists(st.sampled_from(["repeat", "scale", "far", "zero"]), max_size=3),
        log_floor=st.floats(-300.0, 0.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_exact_on_random_stacks(self, b, m, n, log_snr, kinds, log_floor, seed):
        rng = np.random.default_rng(seed)
        s = rng.standard_normal((b, m, n)) + 1j * rng.standard_normal((b, m, n))
        for kind in kinds:
            item, col, other = rng.integers(b), rng.integers(n), rng.integers(n)
            if kind == "repeat":
                s[item, :, col] = s[item, :, other]
            elif kind == "scale":
                s[item, :, col] = rng.uniform(0.5, 3.0) * s[item, :, other]
            elif kind == "far":
                s[item, :, col] *= 1e-9
            else:
                s[item, :, col] = 0.0
        gram_abs2, norms_sq = _gram_data(s)
        prior = 10.0 ** rng.uniform(log_floor, 0.0, n)
        prior /= prior.sum()
        _assert_batch_exact(prior, gram_abs2, norms_sq, 10.0**log_snr)


class TestGammaUbRows:
    """The logging entry scores a block of priors as one-row calls on each
    row, bit for bit."""

    def _block(self, rng, m, n, f=9):
        s = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        s[1] = s[0] if m == 2 else s[1]
        norms_sq = np.sum(np.abs(s) ** 2, axis=0)
        gram_abs2 = np.abs(s.conj().T @ s) ** 2
        prior = rng.random((f, n))
        prior[0, n // 2 :] = 0.0  # contiguous window
        prior[1, ::3] = 0.0  # scattered zeros
        prior[2] = 0.0
        prior[2, 4] = 1.0  # point mass
        prior[3, 5] = 1e-300  # underflow-sized entry
        prior[4, [1, 6]] = 1e-300
        prior[5, :4] = 0.0
        prior[5, 7] = 1e-300
        prior /= prior.sum(axis=1, keepdims=True)
        return prior, gram_abs2, norms_sq

    @pytest.mark.parametrize("snr", [1e-3, 1.0, 10.0, 1e6])
    @pytest.mark.parametrize("m,n", [(2, 12), (3, 16)])
    def test_matches_per_row(self, m, n, snr):
        rng = np.random.default_rng(m * n)
        prior, gram_abs2, norms_sq = self._block(rng, m, n)
        assert kernels.gamma_ub is ref.gamma_ub
        got = ref.gamma_ub(prior, gram_abs2, norms_sq, snr)
        assert got.shape == (len(prior),)
        for f, row in enumerate(prior):
            one = ref.gamma_ub(row, gram_abs2, norms_sq, snr)
            assert type(one) is float and got[f] == one

    def _mixed_block(self, rng, aligned):
        """Fig. 2-sized priors of many support sizes in one block."""
        n = 64
        s = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        if aligned:
            s[1] = s[0]
        norms_sq = np.sum(np.abs(s) ** 2, axis=0)
        gram_abs2 = np.abs(s.conj().T @ s) ** 2
        transition = build_markov(n, 0.2, 5).transition
        arcs = transition[[0, 3, 31, 60, 63]]  # 11-point arcs, two wrapping
        wide = arcs @ transition @ transition  # 31-point arcs
        holes = arcs.copy()
        holes[:, [1, 2, 33, 62]] = 0.0
        full = rng.random((3, n))
        full[1, [5, 40]] = 1e-300
        full[2, ::7] = 1e-300
        point = np.eye(n)[[9]]
        prior = np.vstack([arcs, wide, holes, full, point, arcs[::-1]])
        return prior / prior.sum(axis=1, keepdims=True), gram_abs2, norms_sq

    @pytest.mark.parametrize("aligned", [False, True], ids=["random", "aligned"])
    @pytest.mark.parametrize("snr", [1e-3, 1.0, 10.0, 1e3, 1e6])
    def test_mixed_support_sizes(self, snr, aligned):
        # one call over arcs, arcs with holes, full supports and 1e-300
        # entries equals per-row ref.gamma_ub bit for bit
        rng = np.random.default_rng(int(snr * 1000) % 97)
        prior, gram_abs2, norms_sq = self._mixed_block(rng, aligned)
        assert len(np.unique((prior > 0).sum(axis=1))) >= 5
        got = ref.gamma_ub(prior, gram_abs2, norms_sq, snr)
        want = [ref.gamma_ub(row, gram_abs2, norms_sq, snr) for row in prior]
        assert got.tolist() == want

    def test_groups_by_exact_support(self, monkeypatch):
        # rows with equal effective supports share one step on exactly that
        # support; equal sizes on different arcs, arcs with holes, and rows
        # whose 1e-300 entries or far tails fall under the cut get their own
        blocks = []
        rows_mu = ref._rows_mu

        def recorded(block, consts):
            blocks.append(block)
            return rows_mu(block, consts)

        monkeypatch.setattr(ref, "_rows_mu", recorded)
        monkeypatch.setattr(ref, "ROW_PAIRS", 1 << 20)  # one step per group
        prior, gram_abs2, norms_sq = self._mixed_block(np.random.default_rng(2), False)
        got = ref.gamma_ub(prior, gram_abs2, norms_sq, 10.0)
        effective = prior > ref.LOG_EPS / (2 * 64**2)
        patterns = np.unique(effective, axis=0)
        assert len(patterns) < len(prior)
        assert len(patterns) != len(np.unique(prior > 0.0, axis=0))
        assert len(blocks) == len(patterns)
        assert all((block > ref.LOG_EPS / (2 * 64**2)).all() for block in blocks)
        assert sum(len(block) for block in blocks) == len(prior)
        assert got.tolist() == [ref.gamma_ub(r, gram_abs2, norms_sq, 10.0) for r in prior]

    def test_every_mu_case(self):
        # columns 0, 1 (= 2 * column 0) and 2 (= column 0) make aligned pairs
        # with one or no nonzero eigenvalue; equal prior entries on equal
        # columns give delta == 0 exactly, where mu steps
        rng = np.random.default_rng(8)
        s = rng.standard_normal((2, 8)) + 1j * rng.standard_normal((2, 8))
        s[:, 1] = 2.0 * s[:, 0]
        s[:, 2] = s[:, 0]
        norms_sq = np.sum(np.abs(s) ** 2, axis=0)
        gram_abs2 = np.abs(s.conj().T @ s) ** 2
        lam1, lam2 = ref.pair_eigs(gram_abs2, norms_sq, 10.0)
        tol = ref.ZERO_EIG_RTOL * np.maximum(1.0, np.maximum(abs(lam1), abs(lam2)))
        pos1, neg2 = lam1 > tol, lam2 < -tol
        off = ~np.eye(8, dtype=bool)
        for case in (pos1 & neg2, pos1 & ~neg2, ~pos1 & neg2, ~pos1 & ~neg2):
            assert (case & off).any()
        logdet = np.log1p(10.0 * norms_sq)
        prior = rng.random((4, 8))
        prior[:, 2] = prior[:, 0]
        prior[1, 1] = prior[1, 0]
        prior[2, 3:] = 0.0
        prior /= prior.sum(axis=1, keepdims=True)
        consts = ref._pair_constants(gram_abs2, norms_sq, 10.0)
        ties = 0
        for row in prior:
            idx = np.flatnonzero(row > 0)
            pairs = (idx[:, None] * 8 + idx).ravel()
            got = ref._rows_mu(row[idx][None], [term[pairs] for term in consts])[0]
            log_prior = np.log(row[idx])
            want = np.zeros((len(idx), len(idx)))
            for a, k in enumerate(idx):
                for b, n in enumerate(idx):
                    if k != n:
                        delta = (log_prior[b] - log_prior[a]) + (logdet[k] - logdet[n])
                        ties += delta == 0.0
                        want[a, b] = _mu_four_cases(lam1[k, n], lam2[k, n], delta)
            assert np.array_equal(got, want)
        assert ties > 0
        got = ref.gamma_ub(prior, gram_abs2, norms_sq, 10.0)
        assert got.tolist() == [ref.gamma_ub(r, gram_abs2, norms_sq, 10.0) for r in prior]
        # the design batch on a stack of this matrix and two variants, one
        # with a column far from both rows (its pairs' eigenvalues lie within
        # ZERO_EIG_RTOL of zero) and one with a zero column, against a prior
        # with entries down to 1e-300
        stack = np.stack([s, s, s])
        stack[1, :, 3] *= 1e-9
        stack[2, :, 4] = 0.0
        prior = 10.0 ** rng.uniform(-300.0, 0.0, 8)
        prior[[2, 5]] = [1e-300, 1.0]
        prior /= prior.sum()
        for snr in (1e-3, 10.0, 1e6):
            _assert_batch_exact(prior, *_gram_data(stack), snr)

    def test_stacked_constants_match_per_gram(self):
        # constants folded over a stack of Grams equal each Gram's own, with
        # repeated, scaled, far and zero columns in the stack
        rng = np.random.default_rng(11)
        s = rng.standard_normal((5, 3, 9)) + 1j * rng.standard_normal((5, 3, 9))
        s[0, :, 1] = s[0, :, 0]
        s[1, :, 2] = 2.0 * s[1, :, 0]
        s[2, :, 3] *= 1e-9
        s[3, :, 4] = 0.0
        gram_abs2, norms_sq = _gram_data(s)
        for snr in (1e-3, 10.0, 1e6):
            stacked = ref._pair_constants(gram_abs2, norms_sq, snr)
            assert [term.shape for term in stacked] == [(5, 81)] * 6
            for b in range(5):
                own = ref._pair_constants(gram_abs2[b], norms_sq[b], snr)
                for term, want in zip(stacked, own):
                    assert np.array_equal(term[b], want)
            # the same values in Fortran order and in a strided view
            strided = np.zeros((5, 18, 18))[:, ::2, ::2]
            strided[...] = gram_abs2
            for gram in (np.asfortranarray(gram_abs2), strided):
                for term, want in zip(ref._pair_constants(gram, norms_sq, snr), stacked):
                    assert np.array_equal(term, want)

    def test_pair_eigs_once_per_call(self, monkeypatch):
        calls = []
        pair_eigs = ref.pair_eigs

        def counted(*args):
            calls.append(args)
            return pair_eigs(*args)

        monkeypatch.setattr(ref, "pair_eigs", counted)
        prior, gram_abs2, norms_sq = self._mixed_block(np.random.default_rng(3), False)
        ref.gamma_ub(prior, gram_abs2, norms_sq, 10.0)
        assert len(calls) == 1

    def test_equal_supports_skip_grouping(self):
        # a block whose rows all have the union's support is scored as one
        # group without the grouping pass; a row of smaller support forces
        # that pass, and the other rows keep their bits
        rng = np.random.default_rng(5)
        prior, gram_abs2, norms_sq = self._mixed_block(rng, False)
        full = prior[(prior > 0.0).all(axis=1)]
        arc = rng.random((4, 64)) * (prior[0] > 0.0)
        point = np.eye(64)[[0]]
        for rows in (full, full[:1], arc / arc.sum(axis=1, keepdims=True)):
            alone = ref.gamma_ub(rows, gram_abs2, norms_sq, 10.0)
            grouped = ref.gamma_ub(np.vstack([rows, point]), gram_abs2, norms_sq, 10.0)
            assert np.array_equal(alone, grouped[:-1])

    def test_empty_support_row(self):
        rng = np.random.default_rng(6)
        prior, gram_abs2, norms_sq = self._block(rng, 2, 12)
        prior[3] = 0.0
        got = ref.gamma_ub(prior, gram_abs2, norms_sq, 10.0)
        assert got[3] == 0.0
        assert got.tolist() == [ref.gamma_ub(r, gram_abs2, norms_sq, 10.0) for r in prior]

    def test_split_into_steps(self, monkeypatch):
        # a step budget of two rows gives the same bits as one step
        rng = np.random.default_rng(4)
        prior, gram_abs2, norms_sq = self._block(rng, 2, 12)
        whole = ref.gamma_ub(prior, gram_abs2, norms_sq, 10.0)
        monkeypatch.setattr(ref, "ROW_PAIRS", 2 * 12 * 12)
        split = ref.gamma_ub(prior, gram_abs2, norms_sq, 10.0)
        assert np.array_equal(whole, split)


class TestEffectiveSupport:
    """Logging scores each prior on its entries above LOG_EPS / (2 N^2): the
    pairs it drops each add at most that much, by p_k mu_kn <= p_n."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 12),
        m=st.integers(1, 3),
        log_snr=st.floats(-3.0, 6.0),
        aligned=st.sampled_from(["random", "near", "exact"]),
        log_floor=st.floats(-300.0, -1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_markov_pair_bound(self, n, m, log_snr, aligned, log_floor, seed):
        # mu_kn = P_k(p_n f_n >= p_k f_k) <= E_k[p_n f_n / (p_k f_k)] = p_n / p_k
        rng = np.random.default_rng(seed)
        snr = 10.0**log_snr
        s = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        if aligned != "random":
            jitter = 1e-9 if aligned == "near" else 0.0
            scale = rng.uniform(0.5, 2.0, size=n // 2)
            noise = rng.standard_normal((m, n // 2)) + 1j * rng.standard_normal((m, n // 2))
            s[:, n - n // 2 :] = scale * s[:, : n // 2] + jitter * noise
        norms_sq = np.sum(np.abs(s) ** 2, axis=0)
        gram_abs2 = np.abs(s.conj().T @ s) ** 2
        prior = 10.0 ** rng.uniform(log_floor, 0.0, size=n)
        prior[rng.integers(n)] = 1.0
        prior /= prior.sum()
        mu = ref._rows_mu(prior, ref._pair_constants(gram_abs2, norms_sq, snr))
        assert (prior[:, None] * mu <= prior[None, :] * (1.0 + 1e-12)).all()

    def _tailed_priors(self, rng, n):
        """Priors whose tails run from 1e-18 down to 1e-300: geometric arcs,
        propagated transition rows and random rows with a tiny subset."""
        dist = np.abs(np.arange(n) - rng.integers(n))
        dist = np.minimum(dist, n - dist).astype(float)
        arcs = [r**dist for r in (1e-1, 1e-3, 1e-9, 1e-18)]
        t = build_markov(n, 0.2, 5).transition
        spread = t[3] @ t @ t
        spread[::5] *= 1e-250
        tiny = rng.random((3, n))
        for row, lo in zip(tiny, (-18.0, -100.0, -300.0)):
            cut = rng.random(n) < 0.4
            row[cut] = 10.0 ** rng.uniform(lo, -18.0, size=cut.sum())
        prior = np.vstack([*arcs, spread, *tiny, t[0]])
        return prior / prior.sum(axis=1, keepdims=True)

    @pytest.mark.parametrize("snr", [1e-3, 1.0, 10.0, 1e3, 1e6])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_within_tolerance_of_uncut_batch(self, m, snr):
        # the design batch keeps every positive entry; the logged bound on
        # the effective support is within LOG_EPS plus rounding of it
        rng = np.random.default_rng(m)
        n = 64
        s = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        norms_sq = np.sum(np.abs(s) ** 2, axis=0)
        gram_abs2 = np.abs(s.conj().T @ s) ** 2
        prior = self._tailed_priors(rng, n)
        assert (prior <= ref.LOG_EPS / (2 * n * n)).any(axis=1).sum() >= 6
        got = ref.gamma_ub(prior, gram_abs2, norms_sq, snr)
        for row, value in zip(prior, got):
            want = ref.gamma_ub_batch(row, gram_abs2[None], norms_sq[None], snr)[0]
            assert abs(value - want) <= ref.LOG_EPS + 4 * np.spacing(want)

    @pytest.mark.parametrize("snr", [1e-3, 10.0, 1e6])
    def test_rows_above_cut_keep_bits(self, snr, monkeypatch):
        # rows whose positive entries all lie above the cut score as on the
        # exact support (LOG_EPS = 0), bit for bit, also in a block with rows
        # that are cut; the cut rows move by less than LOG_EPS
        rng = np.random.default_rng(int(np.log10(snr)) + 3)
        n = 64
        s = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        norms_sq = np.sum(np.abs(s) ** 2, axis=0)
        gram_abs2 = np.abs(s.conj().T @ s) ** 2
        t = build_markov(n, 0.2, 5).transition
        kept = np.vstack([t[[0, 9, 40]], rng.random((2, n)), t[[5]] @ t])
        kept /= kept.sum(axis=1, keepdims=True)
        prior = np.vstack([kept, self._tailed_priors(rng, n)])
        cut = ((prior > 0.0) & (prior <= ref.LOG_EPS / (2 * n * n))).any(axis=1)
        assert not cut[: len(kept)].any() and cut[len(kept) :].sum() >= 6
        new = ref.gamma_ub(prior, gram_abs2, norms_sq, snr)
        monkeypatch.setattr(ref, "LOG_EPS", 0.0)
        exact = ref.gamma_ub(prior, gram_abs2, norms_sq, snr)
        assert np.array_equal(new[~cut], exact[~cut])
        assert (np.abs(new - exact)[cut] <= ref.LOG_EPS + 4 * np.spacing(exact[cut])).all()
        alone = ref.gamma_ub(kept, gram_abs2, norms_sq, snr)
        assert np.array_equal(alone, new[: len(kept)])


class TestShiftEquivariance:
    """A design shifted by k is its base with the columns rolled by k, so its
    bound on a prior is the base's bound on the prior rolled back by k."""

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(
        n=st.sampled_from([8, 16, 64]),
        n_tx=st.sampled_from([4, 8, 32]),
        m=st.integers(1, 3),
        log_snr=st.floats(-3.0, 6.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rolled_prior_on_base(self, n, n_tx, m, log_snr, seed):
        rng = np.random.default_rng(seed)
        snr = 10.0**log_snr
        codebook = build_codebook(build_grid(n), n_tx)
        beams = BeamMatrix(phases=rng.uniform(0.0, 2.0 * np.pi, (n_tx, m)))
        base = sensing_matrix(beams, codebook)
        offsets = rng.integers(0, n, size=6)
        prior = rng.random((6, n))
        prior[rng.random((6, n)) < 0.3] = 0.0
        prior[rng.random((6, n)) < 0.1] = 1e-300
        prior[:, 0] = np.maximum(prior[:, 0], 1e-300)  # no empty row
        prior /= prior.sum(axis=1, keepdims=True)
        rolled = np.array([np.roll(p, -k) for p, k in zip(prior, offsets)])

        got = kernels.gamma_ub(rolled, base.gram_abs2, base.col_norms_sq, snr)
        for f, (row, k) in enumerate(zip(prior, offsets)):
            assert got[f] == ref.gamma_ub(
                rolled[f], base.gram_abs2, base.col_norms_sq, snr
            )
            # The shifted design rebuilt from its phase-ramped beams differs
            # from the rolled base in the last bits, which the closed form's
            # Cauchy-Schwarz gap amplifies like the SNR: measured at most
            # 7.5e-12 * max(1, snr) relative over 3000 random cases.
            ramp = 2.0 * np.pi * k / n * np.arange(n_tx)
            shifted = BeamMatrix(phases=beams.phases + ramp[:, None])
            own = sensing_matrix(shifted, codebook)
            want = ref.gamma_ub(row, own.gram_abs2, own.col_norms_sq, snr)
            assert got[f] == pytest.approx(want, rel=1e-10 * max(1.0, snr), abs=0.0)


class TestMpmathOracle:
    """``kernels.gamma_ub`` against a 60-digit oracle that builds each pair's
    covariances, their inverses and the whitened eigenvalues directly, at
    M=3, N=5.  Random beams are iid complex Gaussian columns; nearly aligned
    ones share a column plus a 0.1-scale perturbation (column correlation
    about 0.99).  The bounds are 10x the largest relative error measured at
    the time this test was written, per SNR and kind; the kernel's Gram data
    come from numpy, as a run's do."""

    MEASURED = {  # max relative error of 3 cases, (random, nearly aligned)
        10.0: (4.6e-15, 3.6e-14),
        1e3: (3.9e-13, 1.2e-9),
        1e6: (1.8e-9, 2.7e-7),
    }

    @staticmethod
    def _oracle(mp, s, prior, snr):
        m, n = s.shape
        cols = [mp.matrix([[mp.mpc(complex(x))] for x in s[:, k]]) for k in range(n)]
        sig = [c * c.H + mp.eye(m) / mp.mpf(snr) for c in cols]
        inv = [mp.inverse(x) for x in sig]
        half = [mp.cholesky(x) for x in sig]
        logdet = [mp.log(mp.re(mp.det(x))) for x in sig]
        p = [mp.mpf(x) for x in prior]
        total = mp.mpf(0)
        for k in range(n):
            for j in range(n):
                if j == k:
                    continue
                # y ~ CN(0, sig_k) = half_k w: the test statistic
                # y^H (inv_j - inv_k) y is sum_i lam_i |w_i|^2, with lam the
                # eigenvalues of half_k^H (inv_j - inv_k) half_k (rank two)
                white = half[k].H * (inv[j] - inv[k]) * half[k]
                lam = sorted(mp.re(x) for x in mp.eighe((white + white.H) / 2, eigvals_only=True))
                lam1, lam2 = lam[-1], lam[0]
                delta = mp.log(p[j] / p[k]) + logdet[k] - logdet[j]
                if delta <= 0:
                    mu = lam2 / (lam2 - lam1) * mp.exp(-delta / lam2)
                else:
                    mu = 1 + lam1 / (lam2 - lam1) * mp.exp(-delta / lam1)
                total += p[k] * mu
        return total

    @pytest.mark.parametrize("snr", sorted(MEASURED))
    def test_relative_error(self, snr):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(int(np.log10(snr)))
        errors = {"random": [], "aligned": []}
        for kind in ("random", "random", "random", "aligned", "aligned", "aligned"):
            s = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
            if kind == "aligned":
                s = s[:, :1] + 0.1 * (rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5)))
            prior = rng.random(5)
            prior /= prior.sum()
            sensing = SensingMatrix(matrix=s)
            got = kernels.gamma_ub(prior, sensing.gram_abs2, sensing.col_norms_sq, snr)
            with mpmath.workdps(60):
                want = self._oracle(mpmath.mp, s, prior, snr)
            errors[kind].append(float(abs(got - want) / want))
        for kind, bound in zip(("random", "aligned"), self.MEASURED[snr]):
            print(f"ORACLE snr={snr:g} {kind} max relative error {max(errors[kind]):.3g}")
            assert max(errors[kind]) <= 10 * bound, kind
