"""Bound-kernel entry points: agreement with each other, with the dense
numpy loop over pairs and with the 60-digit mpmath bound of ``oracles``."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamtrack import kernels, optimizer
from beamtrack.arraymodel import build_codebook, build_grid, build_markov
from beamtrack.kernels import ref
from beamtrack.tracking import Belief, SensingMatrix, sensing_matrix
from oracles import (
    folded_mu,
    gram_data,
    loop_gamma_ub,
    mp_gamma_ub,
    mp_gram_gamma_ub,
    mu_four_cases,
    pair_mu,
)


def _random_problem(rng, m, n):
    s = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    prior = rng.random(n)
    prior /= prior.sum()
    return s, prior, *gram_data(s)


def _assert_batch_exact(prior, gram_abs2, norms_sq, snr):
    """A stack's pair mu equals the four-case scalar formula and each
    item's own call, and each stacked bound its one-item call's, bit for
    bit; returns the pair eigenvalues."""
    mu = ref._rows_mu(prior, ref._pair_constants(gram_abs2, norms_sq, snr))
    got = ref.gamma_ub(prior, gram_abs2, norms_sq, snr)
    lam1, lam2 = ref.pair_eigs(gram_abs2, norms_sq, snr)
    logdet = np.log1p(snr * norms_sq)
    for b in range(len(mu)):
        assert np.array_equal(mu[b], pair_mu(prior, lam1[b], lam2[b], logdet[b])[0])
        one = ref._rows_mu(prior, ref._pair_constants(gram_abs2[b], norms_sq[b], snr))
        assert np.array_equal(mu[b], one)
        single = ref.gamma_ub(prior, gram_abs2[b : b + 1], norms_sq[b : b + 1], snr)
        assert got[b] == single[0]
    return lam1, lam2


class TestKernelAgreement:
    @pytest.mark.parametrize("m,n", [(1, 4), (2, 16), (2, 64), (4, 24)])
    def test_impls_agree(self, m, n):
        # one prior, a block and a one-item stack share the folded formula
        # and the per-item reduction; on priors without entries under the
        # cut each equals the one-prior call
        rng = np.random.default_rng(n)
        problems = [_random_problem(rng, m, n) for _ in range(20)]
        snrs = 10.0 ** rng.uniform(-1, 3, size=len(problems))
        for (_, prior, gram_abs2, norms_sq), snr in zip(problems, snrs):
            a = kernels.gamma_ub(prior, gram_abs2, norms_sq, snr)
            block = np.vstack([prior, prior[::-1]])
            rows = kernels.gamma_ub(block, gram_abs2, norms_sq, snr)
            batch = ref.gamma_ub(prior, gram_abs2[None], norms_sq[None], snr)
            assert rows[0] == a
            assert batch[0] == a

    def test_impls_agree_sparse_prior(self):
        rng = np.random.default_rng(7)
        _, prior, gram_abs2, norms_sq = _random_problem(rng, 2, 32)
        prior[5:] = 0.0
        prior /= prior.sum()
        a = kernels.gamma_ub(prior, gram_abs2, norms_sq, 25.0)
        idx = np.flatnonzero(prior)
        b = ref.gamma_ub(
            prior[idx], gram_abs2[np.ix_(idx, idx)][None], norms_sq[idx][None], 25.0
        )
        assert kernels.gamma_ub(prior[None], gram_abs2, norms_sq, 25.0)[0] == a
        assert b[0] == pytest.approx(a, rel=1e-12)

    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_dense_oracle(self, m):
        rng = np.random.default_rng(m)
        for _ in range(5):
            s, prior, gram_abs2, norms_sq = _random_problem(rng, m, 6)
            snr = 10.0 ** rng.uniform(0, 2)
            expected = loop_gamma_ub(s, prior, snr)
            got = kernels.gamma_ub(prior, gram_abs2, norms_sq, snr)
            assert got == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("m", [2, 4])
    def test_kernel_table_shapes(self, m):
        # perfbench's kernel table at (M, N) = (m, 64), SNR 10, its priors and
        # its 1e-9 relative tolerance; (8, 256) is too slow for the loop
        rng = np.random.default_rng(m)
        s, full, gram_abs2, norms_sq = _random_problem(rng, m, 64)
        for prior in (full, build_markov(64, 0.2, 5).transition[int(rng.integers(64))]):
            got = kernels.gamma_ub(prior, gram_abs2, norms_sq, 10.0)
            want = loop_gamma_ub(s, prior, 10.0)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

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
        vec = folded_mu(lam1, lam2, delta)
        for i in range(200):
            assert vec[i] == pytest.approx(mu_four_cases(lam1[i], lam2[i], delta[i]), abs=1e-14)


class TestGammaUbBatch:
    SNRS = [1e-3, 1e-1, 1.0, 10.0, 1e3, 1e6]

    def _batch(self, rng, m, n, b=4):
        """Random Gram data of b sensing matrices; item 0 repeats a row, so
        all of its column pairs are aligned (the rank-deficient branch)."""
        s = rng.standard_normal((b, m, n)) + 1j * rng.standard_normal((b, m, n))
        s[0, 1] = s[0, 0]
        return s, *gram_data(s)

    @pytest.mark.parametrize("snr", SNRS)
    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_per_item(self, m, snr):
        rng = np.random.default_rng(m)
        _, gram_abs2, norms_sq = self._batch(rng, m, 12)
        prior = rng.random(12)
        prior /= prior.sum()
        got = ref.gamma_ub(prior, gram_abs2, norms_sq, snr)
        assert got.shape == (4,)
        for b in range(4):
            assert got[b] == ref.gamma_ub(prior, gram_abs2[b], norms_sq[b], snr)

    def test_block_against_stack_refused(self):
        # a block is logged against one sensing matrix; only one prior is
        # scored against a stack
        rng = np.random.default_rng(2)
        _, gram_abs2, norms_sq = self._batch(rng, 2, 12)
        prior = rng.random((3, 12))
        with pytest.raises(ValueError, match="one sensing matrix"):
            ref.gamma_ub(prior, gram_abs2, norms_sq, 10.0)
        with pytest.raises(ValueError, match="one sensing matrix"):
            ref.gamma_ub(prior[:2], gram_abs2[:1], norms_sq[:1], 10.0)

    @pytest.mark.parametrize("snr", SNRS)
    def test_prior_with_zero_entries(self, snr):
        # zeros kept in the batch or cut away by restricting to the support
        # give the per-item bound on the full prior
        rng = np.random.default_rng(3)
        _, gram_abs2, norms_sq = self._batch(rng, 2, 10)
        prior = rng.random(10)
        prior[[0, 4, 5]] = 0.0
        prior[7] = 1e-300
        prior /= prior.sum()
        idx = np.flatnonzero(prior)
        full = ref.gamma_ub(prior, gram_abs2, norms_sq, snr)
        restricted = ref.gamma_ub(
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
        s, gram_abs2, norms_sq = self._batch(rng, m, 6)
        prior = rng.random(6)
        prior[2] = 0.0
        prior /= prior.sum()
        got = ref.gamma_ub(prior, gram_abs2, norms_sq, snr)
        for b in range(4):
            expected = loop_gamma_ub(s[b], prior, snr)
            assert got[b] == pytest.approx(expected, rel=1e-12 * max(1.0, snr))

    @pytest.mark.parametrize("snr", SNRS)
    @pytest.mark.parametrize("m", [2, 3])
    def test_cut_entry_within_log_eps_of_oracle(self, m, snr):
        # a design prior with an entry in (0, LOG_EPS / (2 N^2)]: its stacked
        # score drops that entry, as true hypothesis and as competitor, and
        # lies within LOG_EPS, plus the rounding tolerance above, of the
        # dense loop on every positive entry
        rng = np.random.default_rng(20 + m)
        s, gram_abs2, norms_sq = self._batch(rng, m, 6)
        prior = rng.random(6)
        prior /= prior.sum()
        prior[4] = ref.LOG_EPS / (2 * 6**2)
        got = ref.gamma_ub(prior, gram_abs2, norms_sq, snr)
        kept = prior.copy()
        kept[4] = 0.0
        assert np.array_equal(got, ref.gamma_ub(kept, gram_abs2, norms_sq, snr))
        for b in range(4):
            expected = loop_gamma_ub(s[b], prior, snr)
            tol = ref.LOG_EPS + 1e-12 * max(1.0, snr) * expected
            assert abs(got[b] - expected) <= tol

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
        gram_abs2, norms_sq = gram_data(rows[subsets])
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
        gram_abs2, norms_sq = gram_data(s)
        prior = 10.0 ** rng.uniform(log_floor, 0.0, n)
        prior /= prior.sum()
        _assert_batch_exact(prior, gram_abs2, norms_sq, 10.0**log_snr)


class TestBatchInvariance:
    """A design score's bits do not depend on the batch it is scored in.

    At the beta 0.5, 20 dB design point of the Fig. 2 codebook (11-point
    support), every item of a 50-particle swarm and of the 2016 two-codeword
    subsets equals its one-item stacked ``gamma_ub`` call and its score in
    stacks of another size, bit for bit."""

    SNR = 100.0

    @pytest.fixture(scope="class")
    def point(self):
        codebook = build_codebook(build_grid(64), 32)
        prior = Belief(build_markov(64, 0.5, 5).transition[0])
        idx = np.flatnonzero(prior.probs)
        assert len(idx) == 11
        return codebook, prior, idx

    def _batched(self, stack, probs, size):
        """Scores of the sensing stack, ``size`` items per kernel call."""
        sensing = SensingMatrix(matrix=stack)
        gram_abs2, norms_sq = sensing.gram_abs2, sensing.col_norms_sq
        return np.concatenate(
            [
                ref.gamma_ub(
                    probs, gram_abs2[lo : lo + size], norms_sq[lo : lo + size], self.SNR
                )
                for lo in range(0, len(stack), size)
            ]
        )

    def test_swarm(self, point, monkeypatch):
        codebook, prior, idx = point
        columns, probs = codebook.matrix[:, idx], prior.probs[idx]
        phases = np.random.default_rng(1).uniform(0.0, 2.0 * np.pi, (50, 32, 2))
        stack = sensing_matrix(phases, columns).matrix
        whole = self._batched(stack, probs, 50)
        for size in (1, 5, 16):
            assert np.flatnonzero(self._batched(stack, probs, size) != whole).tolist() == []
        # the optimizer's own batching: all 50 in one call, 5 per call, 1 per call
        scores = [optimizer._phase_scores(phases, columns, probs, self.SNR)]
        assert np.array_equal(scores[0], whole)
        for pairs in (5 * 11 * 11, 1):
            monkeypatch.setattr(ref, "STEP_PAIRS", pairs)
            scores.append(optimizer._phase_scores(phases, columns, probs, self.SNR))
        assert [np.flatnonzero(s != scores[0]).tolist() for s in scores[1:]] == [[], []]

    def test_codeword_subsets(self, point, monkeypatch):
        codebook, prior, idx = point
        rows = np.sqrt(32) * (codebook.matrix.conj().T @ codebook.matrix)[:, idx]
        subsets = np.array(list(combinations(range(64), 2)))
        assert len(subsets) == 2016
        probs = prior.probs[idx]
        alone = self._batched(rows[subsets], probs, 1)
        for size in (5, 67):
            assert np.flatnonzero(self._batched(rows[subsets], probs, size) != alone).tolist() == []
        pick, score = optimizer.select_directional_pair(prior, codebook, self.SNR, 2)
        assert score == alone[subsets.tolist().index(list(pick))]
        monkeypatch.setattr(ref, "STEP_PAIRS", 5 * 11 * 11)
        assert optimizer.select_directional_pair(prior, codebook, self.SNR, 2) == (pick, score)


class TestGammaUbRows:
    """The logging entry scores a block of priors as one-row calls on each
    row, bit for bit."""

    def _block(self, rng, m, n, f=9):
        s = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        s[1] = s[0] if m == 2 else s[1]
        gram_abs2, norms_sq = gram_data(s)
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
        gram_abs2, norms_sq = gram_data(s)
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
        monkeypatch.setattr(ref, "STEP_PAIRS", 1 << 20)  # one step per group
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
        gram_abs2, norms_sq = gram_data(s)
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
            got = ref._rows_mu(row[idx][None], np.take(consts, pairs, axis=-1))[0]
            sub = np.ix_(idx, idx)
            want, delta = pair_mu(row[idx], lam1[sub], lam2[sub], logdet[idx])
            ties += np.sum(delta[~np.eye(len(idx), dtype=bool)] == 0.0)
            assert np.array_equal(got, want)
        assert ties > 0
        got = ref.gamma_ub(prior, gram_abs2, norms_sq, 10.0)
        assert got.tolist() == [ref.gamma_ub(r, gram_abs2, norms_sq, 10.0) for r in prior]
        # a stacked call on this matrix and two variants, one with a column
        # far from both rows (its pairs' eigenvalues lie within ZERO_EIG_RTOL
        # of zero) and one with a zero column, against a prior with entries
        # down to 1e-300
        stack = np.stack([s, s, s])
        stack[1, :, 3] *= 1e-9
        stack[2, :, 4] = 0.0
        prior = 10.0 ** rng.uniform(-300.0, 0.0, 8)
        prior[[2, 5]] = [1e-300, 1.0]
        prior /= prior.sum()
        for snr in (1e-3, 10.0, 1e6):
            _assert_batch_exact(prior, *gram_data(stack), snr)

    def test_stacked_constants_match_per_gram(self):
        # constants folded over a stack of Grams equal each Gram's own, with
        # repeated, scaled, far and zero columns in the stack
        rng = np.random.default_rng(11)
        s = rng.standard_normal((5, 3, 9)) + 1j * rng.standard_normal((5, 3, 9))
        s[0, :, 1] = s[0, :, 0]
        s[1, :, 2] = 2.0 * s[1, :, 0]
        s[2, :, 3] *= 1e-9
        s[3, :, 4] = 0.0
        gram_abs2, norms_sq = gram_data(s)
        subset = np.array([0, 1, 3, 4, 7])
        pairs = (subset[:, None] * 9 + subset).ravel()
        for snr in (1e-3, 10.0, 1e6):
            stacked = ref._pair_constants(gram_abs2, norms_sq, snr)
            assert stacked.shape == (6, 5, 81) and stacked.flags.c_contiguous
            for b in range(5):
                own = ref._pair_constants(gram_abs2[b], norms_sq[b], snr)
                assert own.shape == (6, 81) and own.flags.c_contiguous
                assert np.array_equal(stacked[:, b], own)
                # a support subset gathered from the constants, as logging
                # gathers a support group's, is the subset Gram's own
                gathered = np.take(own, pairs, axis=-1)
                sub = ref._pair_constants(
                    gram_abs2[b][np.ix_(subset, subset)], norms_sq[b, subset], snr
                )
                assert np.array_equal(gathered, sub)
            # the same values in Fortran order and in a strided view
            strided = np.zeros((5, 18, 18))[:, ::2, ::2]
            strided[...] = gram_abs2
            for gram in (np.asfortranarray(gram_abs2), strided):
                assert np.array_equal(ref._pair_constants(gram, norms_sq, snr), stacked)

    def test_bounds_independent_of_row_order(self):
        # a strided dot product rounds differently from the contiguous one:
        # Fortran-ordered rows and a strided view score as C-ordered rows
        rng = np.random.default_rng(1)
        s = rng.standard_normal((2, 11)) + 1j * rng.standard_normal((2, 11))
        consts = ref._pair_constants(*gram_data(s), 10.0)
        rows = rng.random((9, 11))
        rows /= rows.sum(axis=1, keepdims=True)
        strided = np.zeros((9, 22))[:, ::2]
        strided[...] = rows
        want = ref._bounds(rows, consts)
        for other in (np.asfortranarray(rows), strided):
            assert ref._bounds(other, consts).tolist() == want.tolist()

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
        # group; a row of smaller support adds a group of its own, and the
        # other rows keep their bits
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
        monkeypatch.setattr(ref, "STEP_PAIRS", 2 * 12 * 12)
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
        gram_abs2, norms_sq = gram_data(s)
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
    def test_within_tolerance_of_uncut_batch(self, m, snr, monkeypatch):
        # against a one-item stack scored on every positive entry (LOG_EPS =
        # 0), the bound on the effective support is within LOG_EPS plus
        # rounding
        rng = np.random.default_rng(m)
        n = 64
        s = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        gram_abs2, norms_sq = gram_data(s)
        prior = self._tailed_priors(rng, n)
        assert (prior <= ref.LOG_EPS / (2 * n * n)).any(axis=1).sum() >= 6
        got, eps = ref.gamma_ub(prior, gram_abs2, norms_sq, snr), ref.LOG_EPS
        monkeypatch.setattr(ref, "LOG_EPS", 0.0)
        for row, value in zip(prior, got):
            want = ref.gamma_ub(row, gram_abs2[None], norms_sq[None], snr)[0]
            assert abs(value - want) <= eps + 4 * np.spacing(want)

    @pytest.mark.parametrize("snr", [1e-3, 10.0, 1e6])
    def test_rows_above_cut_keep_bits(self, snr, monkeypatch):
        # rows whose positive entries all lie above the cut score as on the
        # exact support (LOG_EPS = 0), bit for bit, also in a block with rows
        # that are cut; the cut rows move by less than LOG_EPS
        rng = np.random.default_rng(int(np.log10(snr)) + 3)
        n = 64
        s = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        gram_abs2, norms_sq = gram_data(s)
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
        phases = rng.uniform(0.0, 2.0 * np.pi, (n_tx, m))
        base = sensing_matrix(phases, codebook.matrix)
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
            own = sensing_matrix(phases + ramp[:, None], codebook.matrix)
            want = ref.gamma_ub(row, own.gram_abs2, own.col_norms_sq, snr)
            assert got[f] == pytest.approx(want, rel=1e-10 * max(1.0, snr), abs=0.0)


class TestMpmathOracle:
    """``kernels.gamma_ub`` against a 60-digit oracle that builds each pair's
    covariances, their inverses and the whitened eigenvalues directly, at
    M=3, N=5.  Random beams are iid complex Gaussian columns; nearly aligned
    ones share a column plus a 0.1-scale perturbation (column correlation
    about 0.99).  The bounds are 10x the largest relative error measured at
    the time this test was written, per SNR and kind; the kernel's Gram data
    come from numpy, as a run's do.  Each ORACLE line splits the error into
    that of the float Gram (the closed form at 60 digits on it, against the
    oracle) and that of the kernel's arithmetic (against that closed form)."""

    MEASURED = {  # max relative error of 3 cases, (random, nearly aligned)
        10.0: (4.6e-15, 3.6e-14),
        1e3: (3.9e-13, 1.2e-9),
        1e6: (1.8e-9, 2.7e-7),
    }

    @pytest.mark.parametrize("snr", sorted(MEASURED))
    def test_relative_error(self, snr):
        pytest.importorskip("mpmath")
        rng = np.random.default_rng(int(np.log10(snr)))
        errors = {"random": [], "aligned": []}
        for kind in ("random", "random", "random", "aligned", "aligned", "aligned"):
            s = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
            if kind == "aligned":
                s = s[:, :1] + 0.1 * (rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5)))
            prior = rng.random(5)
            prior /= prior.sum()
            data = gram_data(s)
            got = kernels.gamma_ub(prior, *data, snr)
            want, gram = mp_gamma_ub(s, prior, snr), mp_gram_gamma_ub(*data, prior, snr)
            parts = (got - want, gram - want, got - gram)
            errors[kind].append([float(abs(x) / want) for x in parts])
        for kind, bound in zip(("random", "aligned"), self.MEASURED[snr]):
            total, float_gram, kernel = np.max(errors[kind], axis=0)
            print(
                f"ORACLE snr={snr:g} {kind} max relative error {total:.3g} "
                f"(float Gram {float_gram:.3g}, kernel arithmetic {kernel:.3g})"
            )
            assert total <= 10 * bound, kind
