"""Particle-swarm beam design and directional baseline tests."""

from itertools import combinations
from math import comb

import numpy as np
import pytest

from beamtrack import kernels, optimizer
from beamtrack.arraymodel import build_codebook, build_grid, build_markov
from beamtrack.kernels import ref
from beamtrack.optimizer import (
    BeamScheduler,
    PsaConfig,
    directional_mode,
    optimize_beams,
    select_directional_pair,
    steering_phases,
)
from beamtrack.tracking import Belief, sensing_matrix

SMALL = PsaConfig(swarm_size=12, max_iters=40, seed=0)


def _concentrated_prior(n, center, eps=0.05):
    probs = np.full(n, eps / (n - 1))
    probs[center] = 1.0 - eps
    return Belief(probs)


def _ramped(phases, k, n):
    """The beam phases with the per-element phase ramp that moves every gain
    pattern by k steps of an n-point grid."""
    ramp = 2.0 * np.pi * k / n * np.arange(len(phases))
    return phases + ramp[:, None]


def _score(phases, cb, prior, snr):
    """Union bound of a design on the prior's support, as the swarm scores it."""
    idx = np.flatnonzero(prior.probs > 0)
    sensing = sensing_matrix(phases, cb.matrix[:, idx])
    return kernels.gamma_ub(prior.probs[idx], sensing.gram_abs2, sensing.col_norms_sq, snr)


def _optimize(prior, cb, snr, m_beams, config):
    """optimize_beams seeded with the directional search, as BeamScheduler
    seeds it."""
    indices, _ = select_directional_pair(prior, cb, snr, m_beams)
    return optimize_beams(prior, cb, snr, m_beams, config, indices)


class TestPsaConfig:
    def test_defaults_valid(self):
        cfg = PsaConfig()
        assert cfg.swarm_size == 50 and cfg.max_iters == 200

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"swarm_size": 1},
            {"max_iters": 0},
            {"inertia": 0.0},
            {"inertia": 1.5},
            {"cognitive_coeff": -1.0},
            {"velocity_clamp": 0.0},
            {"swarm_size": 2.5},
            {"max_iters": True},
            {"seed": "1"},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            PsaConfig(**kwargs)

    def test_velocity_clamp_bound(self):
        # the swarm draws its first velocities on [-clamp, clamp]: the largest
        # clamp whose width is a finite double runs, the next one is refused
        top = np.finfo(float).max / 2
        cfg = PsaConfig(swarm_size=3, max_iters=1, velocity_clamp=top)
        cb = build_codebook(build_grid(8), 4)
        assert np.isfinite(_optimize(_concentrated_prior(8, 3), cb, 10.0, 2, cfg).score)
        with pytest.raises(ValueError, match="psa.velocity_clamp"):
            PsaConfig(velocity_clamp=np.nextafter(top, np.inf))


class TestOptimizeBeams:
    def test_history_nonincreasing(self):
        grid = build_grid(8)
        cb = build_codebook(grid, 4)
        prior = _concentrated_prior(8, 3)
        out = _optimize(prior, cb, 10.0, 2, SMALL)
        hist = np.array(out.history)
        assert np.all(np.diff(hist) <= 0)
        assert out.score == hist[-1]

    def test_score_matches_recompute(self):
        grid = build_grid(8)
        cb = build_codebook(grid, 4)
        prior = _concentrated_prior(8, 0)
        out = _optimize(prior, cb, 5.0, 2, SMALL)
        # the swarm scores its batches through the same builder and kernel
        assert _score(out.phases, cb, prior, 5.0) == out.score

    def test_unit_modulus(self):
        grid = build_grid(8)
        cb = build_codebook(grid, 4)
        out = _optimize(_concentrated_prior(8, 5), cb, 10.0, 3, SMALL)
        assert out.phases.shape == (4, 3)
        # squared row norms on the orthonormal 4-point codebook are n_tx
        # exactly when every beam entry has modulus 1/2
        orthonormal = build_codebook(build_grid(4), 4)
        s = sensing_matrix(out.phases, orthonormal.matrix).matrix
        np.testing.assert_allclose(np.sum(np.abs(s) ** 2, axis=1), 4.0, atol=1e-12)

    def test_reproducible(self):
        grid = build_grid(8)
        cb = build_codebook(grid, 4)
        prior = _concentrated_prior(8, 2)
        a = _optimize(prior, cb, 10.0, 2, SMALL)
        b = _optimize(prior, cb, 10.0, 2, SMALL)
        assert np.array_equal(a.phases, b.phases)
        assert a.score == b.score and a.history == b.history

    def test_dominates_directional_and_mode_seeds(self):
        # seeded start guarantees the result never scores worse than either
        grid = build_grid(8)
        cb = build_codebook(grid, 4)
        prior = _concentrated_prior(8, 6)
        snr = 10.0
        _, directional_score = select_directional_pair(prior, cb, snr, 2)
        top = np.argsort(prior.probs)[::-1][:2]
        mode_score = _score(steering_phases(cb, np.sort(top)), cb, prior, snr)
        out = _optimize(prior, cb, snr, 2, SMALL)
        assert out.score <= directional_score + 1e-12
        assert out.score <= mode_score + 1e-12

    def test_matched_beam_single_probe(self):
        # with one probe and a tight prior, the matched steering vector is a
        # strong candidate; the optimizer must do at least as well
        grid = build_grid(4)
        cb = build_codebook(grid, 4)
        prior = _concentrated_prior(4, 1, eps=0.02)
        snr = 20.0
        matched_score = _score(steering_phases(cb, [1]), cb, prior, snr)
        out = _optimize(prior, cb, snr, 1, PsaConfig(swarm_size=12, max_iters=60))
        assert out.score <= matched_score + 1e-12

    def test_evaluation_count(self):
        grid = build_grid(8)
        cb = build_codebook(grid, 4)
        cfg = PsaConfig(swarm_size=5, max_iters=7, stall_iters=100)
        out = _optimize(_concentrated_prior(8, 0), cb, 10.0, 2, cfg)
        assert out.evaluations == 5 * (7 + 1)

    def test_greedy_seed_beyond_budget(self):
        # comb(64, 5) exceeds the exhaustive budget; the scheduler takes the
        # directional seed from the greedy search instead of raising
        model = build_markov(64, 0.2, 5)
        cb = build_codebook(build_grid(64), 8)
        cfg = PsaConfig(swarm_size=2, max_iters=1)
        sched = BeamScheduler(model, cb, 10.0, 5, cfg)
        out = sched.beams_for_index("psa_optimized", 0)
        assert np.isfinite(out.score)
        assert out.phases.shape == (8, 5)

    def test_invalid_m_beams(self):
        grid = build_grid(8)
        cb = build_codebook(grid, 4)
        with pytest.raises(ValueError, match="m_beams"):
            optimize_beams(Belief.uniform(8), cb, 10.0, 0, SMALL, ())
        # more beams than codewords
        with pytest.raises(ValueError, match="m_beams"):
            optimize_beams(Belief.uniform(8), cb, 10.0, 9, SMALL, tuple(range(9)))


class TestDirectionalPair:
    @pytest.mark.parametrize(
        "n,m,batch_pairs",
        [
            (6, 2, None),
            (16, 3, None),
            # 56 subsets scored 5 at a time, over 12 batches
            (8, 3, 5 * 8 * 8),
        ],
    )
    def test_matches_brute_force(self, n, m, batch_pairs, monkeypatch):
        if batch_pairs is not None:
            monkeypatch.setattr(ref, "STEP_PAIRS", batch_pairs)
        grid = build_grid(n)
        cb = build_codebook(grid, 4)
        rng = np.random.default_rng(7)
        probs = rng.random(n)
        probs /= probs.sum()
        prior = Belief(probs)
        snr = 12.0
        best, best_score = None, np.inf
        for subset in combinations(range(n), m):
            sensing = sensing_matrix(steering_phases(cb, subset), cb.matrix)
            score = kernels.gamma_ub(probs, sensing.gram_abs2, sensing.col_norms_sq, snr)
            if score < best_score:
                best, best_score = subset, score
        got, got_score = select_directional_pair(prior, cb, snr, m)
        assert got == best
        assert got_score == pytest.approx(best_score, rel=1e-10)
        if n > 6:
            # more subsets than one batch holds
            assert comb(n, m) > ref.STEP_PAIRS // (n * n)

    def test_mode_by_budget(self):
        assert directional_mode(64, 4) == "exhaustive"
        assert directional_mode(64, 5) == "greedy"

    def test_greedy_mode_runs(self, monkeypatch):
        # a budget below comb(8, 2) = 28 candidates forces the greedy search
        monkeypatch.setattr(optimizer, "MAX_EXHAUSTIVE_CANDIDATES", 27)
        assert directional_mode(8, 2) == "greedy"
        grid = build_grid(8)
        cb = build_codebook(grid, 4)
        subset, score = select_directional_pair(Belief.uniform(8), cb, 10.0, 2)
        assert len(subset) == 2 and len(set(subset)) == 2
        assert np.isfinite(score)

    def test_all_codewords_degenerate(self):
        grid = build_grid(4)
        cb = build_codebook(grid, 4)
        subset, _ = select_directional_pair(Belief.uniform(4), cb, 10.0, 4)
        assert subset == (0, 1, 2, 3)

    def test_budget_exceeded(self):
        # comb(64, 10) candidates exceed the budget: the search falls back
        # to greedy instead of refusing
        assert directional_mode(64, 10) == "greedy"
        grid = build_grid(64)
        cb = build_codebook(grid, 8)
        subset, score = select_directional_pair(Belief.uniform(64), cb, 10.0, 10)
        assert len(subset) == 10 and len(set(subset)) == 10
        assert np.isfinite(score)

    def test_invalid_args(self):
        grid = build_grid(4)
        cb = build_codebook(grid, 4)
        with pytest.raises(ValueError):
            select_directional_pair(Belief.uniform(4), cb, 10.0, 5)


def _chunks(total, step):
    """Item counts of the steps that score ``total`` items ``step`` at a time."""
    return [min(step, total - lo) for lo in range(0, total, step)]


class TestStepRule:
    """Every kernel call that beam design makes scores ``ref.step_items`` of
    its support's items at a time, the rule that the kernel's logging
    groups follow, whatever ``ref.STEP_PAIRS`` is."""

    @pytest.fixture
    def stacks(self, monkeypatch):
        """The stack size of each design kernel call, in call order."""
        sizes, real = [], kernels.gamma_ub

        def record(prior, gram_abs2, norms_sq, snr):
            assert np.ndim(prior) == 1 and gram_abs2.shape[-1] == len(prior)
            sizes.append(len(gram_abs2))
            return real(prior, gram_abs2, norms_sq, snr)

        monkeypatch.setattr(kernels, "gamma_ub", record)
        return sizes

    @pytest.mark.parametrize("pairs", [1, 3 * 5 * 5, 7 * 5 * 5 + 4, 1 << 13])
    def test_design_calls(self, stacks, monkeypatch, pairs):
        monkeypatch.setattr(ref, "STEP_PAIRS", pairs)
        cb = build_codebook(build_grid(16), 8)
        prior = Belief(build_markov(16, 0.5, 2).transition[0])
        step = ref.step_items(np.count_nonzero(prior.probs))  # 5-point support
        config = PsaConfig(swarm_size=12, max_iters=3, seed=0)
        indices, _ = select_directional_pair(prior, cb, 10.0, 2)
        assert stacks == _chunks(comb(16, 2), step)
        stacks.clear()
        result = optimize_beams(prior, cb, 10.0, 2, config, indices)
        assert stacks == _chunks(12, step) * (result.evaluations // 12)

    def test_one_source(self, stacks, monkeypatch):
        # the swarm and the search read the rule from the kernel alone
        monkeypatch.setattr(ref, "step_items", lambda n_support: 5)
        cb = build_codebook(build_grid(16), 8)
        prior = Belief(build_markov(16, 0.5, 2).transition[0])
        indices, _ = select_directional_pair(prior, cb, 10.0, 2)
        assert stacks == _chunks(comb(16, 2), 5)
        stacks.clear()
        optimize_beams(prior, cb, 10.0, 2, PsaConfig(swarm_size=12, max_iters=1), indices)
        assert stacks == [5, 5, 2] * 2

    @pytest.mark.parametrize("pairs", [1, 3 * 5 * 5, 1 << 13])
    def test_logging_groups(self, monkeypatch, pairs):
        # a logged block of one support group is scored in the same steps
        monkeypatch.setattr(ref, "STEP_PAIRS", pairs)
        rows, real = [], ref._bounds
        monkeypatch.setattr(ref, "_bounds", lambda r, c: rows.append(len(r)) or real(r, c))
        cb = build_codebook(build_grid(16), 8)
        sensing = sensing_matrix(steering_phases(cb, (0, 3)), cb.matrix)
        block = np.tile(build_markov(16, 0.5, 2).transition[0], (20, 1))
        kernels.gamma_ub(block, sensing.gram_abs2, sensing.col_norms_sq, 10.0)
        assert rows == _chunks(20, ref.step_items(5))


class TestScheduler:
    def _scheduler(self, n=8, n_tx=4, edge_mode="wrap"):
        model = build_markov(n, 0.5, 2, edge_mode=edge_mode)
        cb = build_codebook(build_grid(n), n_tx)
        return BeamScheduler(model, cb, 10.0, 2, SMALL)

    def test_wrap_index_designs_once(self):
        # under wrap every index has designed index 0: designing for all N
        # indices designs once per policy, and each frame is served the
        # index-0 sensing rolled by its estimate, bit for bit
        sched = self._scheduler()
        prev_est = np.arange(8)
        priors = sched.model.transition[prev_est]
        for policy in ("psa_optimized", "directional_tep"):
            designs = [sched.beams_for_index(policy, k) for k in prev_est]
            assert all(d is designs[0] for d in designs)
            sensing, rolled, keys = sched.serve(policy, prev_est, priors)
            base = designs[0].sensing.matrix
            for k in prev_est:
                assert np.array_equal(sensing.matrix[k], np.roll(base, k, axis=-1))
                assert np.array_equal(rolled[k], np.roll(priors[k], -k))
            assert np.array_equal(keys, np.zeros(8, dtype=int))
        assert sched.design_count == 2
        # designing every class first makes the same designs, each once
        policies = ("psa_optimized", "directional_tep")
        eager = self._scheduler()
        eager.design_all(policies)
        eager.design_all(policies)
        assert eager.design_count == 2
        for policy in policies:
            want = sched.beams_for_index(policy, 0).sensing.matrix
            assert np.array_equal(eager.beams_for_index(policy, 5).sensing.matrix, want)

    def test_shift_preserves_score(self):
        # a circular shift of the propagated prior maps the designed beams to
        # a per-element phase ramp with identical bound value
        sched = self._scheduler()
        base = sched.beams_for_index("psa_optimized", 0)
        for k in (1, 3, 7):
            ramped = _ramped(base.phases, k, 8)
            prior_k = Belief(sched.model.transition[k])
            score_k = _score(ramped, sched.codebook, prior_k, 10.0)
            assert score_k == pytest.approx(base.score, rel=1e-10)

    @pytest.mark.parametrize("policy", ["psa_optimized", "directional_tep"])
    @pytest.mark.parametrize("n,n_tx", [(8, 4), (64, 32)])
    def test_shift_is_column_roll(self, policy, n, n_tx):
        # the sensing served for estimate k is the index-0 design's with the
        # columns rolled by k, bit for bit, and within 1e-12 of the one
        # rebuilt from the phase-ramped beams
        model = build_markov(n, 0.5, 2)
        cb = build_codebook(build_grid(n), n_tx)
        sched = BeamScheduler(model, cb, 10.0, 2, SMALL)
        base = sched.beams_for_index(policy, 0)
        prev_est = np.array(sorted({1, 3, n // 2, n - 1}))
        sensing, _, _ = sched.serve(policy, prev_est, model.transition[prev_est])
        for served, k in zip(sensing.matrix, prev_est):
            assert np.array_equal(served, np.roll(base.sensing.matrix, k, axis=-1))
            rebuilt = sensing_matrix(_ramped(base.phases, k, n), cb.matrix).matrix
            np.testing.assert_allclose(served, rebuilt, rtol=0, atol=1e-12)

    def test_unshifted_designs_are_own_base(self):
        # truncate edge rows, truncate row sigma and wrap row 0 are their own
        # canonical rows: they serve their own index in their own
        # coordinates, with unrolled sensing, the prior as given, and the
        # index itself as key
        for edge_mode, k in (("truncate", 1), ("truncate", 2), ("truncate", 7), ("wrap", 0)):
            sched = self._scheduler(edge_mode=edge_mode)
            for policy in ("psa_optimized", "directional_tep"):
                designed = sched.beams_for_index(policy, k)
                prior = sched.model.transition[[k]]
                sensing, served, keys = sched.serve(policy, np.array([k]), prior)
                assert np.array_equal(sensing.matrix[0], designed.sensing.matrix)
                assert np.array_equal(served, prior) and keys.tolist() == [k]

    def test_truncate_interior_is_sigma_rolled(self):
        # under truncate an estimate k inside the grid is served the
        # index-sigma sensing rolled by k - sigma, bit for bit, with key
        # sigma, and its prior rolled back by k - sigma
        sched = self._scheduler(edge_mode="truncate")
        prev_est = np.array([3, 5, 2, 4])
        priors = sched.model.transition[prev_est]
        for policy in ("psa_optimized", "directional_tep"):
            base = sched.beams_for_index(policy, 2).sensing.matrix
            sensing, rolled, keys = sched.serve(policy, prev_est, priors)
            for f, k in enumerate(prev_est):
                assert np.array_equal(sensing.matrix[f], np.roll(base, k - 2, axis=-1))
                assert np.array_equal(rolled[f], np.roll(priors[f], 2 - k))
            assert keys.tolist() == [2, 2, 2, 2]
            assert sched.beams_for_index(policy, 5) is sched.beams_for_index(policy, 2)

    def test_directional_shift_indices(self):
        # the index-0 directional design ramped by k steers at its codewords
        # shifted by k
        sched = self._scheduler()
        base = sched.beams_for_index("directional_tep", 0)
        for k in (1, 3, 7):
            shifted = [(i + k) % 8 for i in base.codeword_indices]
            want = steering_phases(sched.codebook, shifted)
            ramped = _ramped(base.phases, k, 8)
            # equal modulo 2 pi
            off = (ramped - want + np.pi) % (2.0 * np.pi) - np.pi
            np.testing.assert_allclose(off, 0.0, rtol=0, atol=1e-12)

    def test_truncate_mode_designs_per_class(self):
        # one design per policy and shift class, each cached: at N=8 and
        # sigma=2 the classes are the edge rows 0, 1, 6, 7 and row 2
        sched = self._scheduler(edge_mode="truncate")
        for policy in ("directional_tep", "psa_optimized"):
            for k in range(8):
                canonical = int(sched.model.canonical[k])
                assert sched.beams_for_index(policy, k) is sched.beams_for_index(policy, canonical)
        assert sched.design_count == 10

    def test_truncate_designs_bounded(self):
        # serving every index of an N=256, sigma=5 truncate model designs at
        # most 2 * sigma + 1 = 11 times per policy, and so does designing
        # every class first, after which serving designs nothing
        model = build_markov(256, 0.2, 5, edge_mode="truncate")
        cb = build_codebook(build_grid(256), 8)
        policies = ("psa_optimized", "directional_tep")
        prev_est = np.arange(256)
        for eager in (False, True):
            sched = BeamScheduler(model, cb, 10.0, 1, PsaConfig(swarm_size=4, max_iters=2))
            if eager:
                sched.design_all(policies)
                assert sched.design_count == 2 * 11
            for policy in policies:
                sched.serve(policy, prev_est, model.transition)
            assert sched.design_count == 2 * 11

    def test_shared_search_runs_once(self, monkeypatch):
        # one scheduler serving both policies runs the directional search
        # once per canonical index, across both policies, and the PSA design
        # seeds the swarm with its result
        calls = []
        search = optimizer.select_directional_pair

        def counted(*args, **kwargs):
            calls.append(args)
            return search(*args, **kwargs)

        cb = build_codebook(build_grid(16), 8)
        indices = (0, 5, 15, 5, 0)
        for edge_mode, designed in (("wrap", {0}), ("truncate", {0, 2, 15})):
            model = build_markov(16, 0.3, 2, edge_mode=edge_mode)
            sched = BeamScheduler(model, cb, 10.0, 2, SMALL)
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(optimizer, "select_directional_pair", counted)
                for policy in ("psa_optimized", "directional_tep"):
                    for k in indices:
                        sched.beams_for_index(policy, k)
            assert len(calls) == len(designed), edge_mode
            for k in designed:
                prior = Belief(model.transition[k])
                want = _optimize(prior, cb, 10.0, 2, SMALL)
                got = sched.beams_for_index("psa_optimized", k)
                assert np.array_equal(got.phases, want.phases)
                assert got.score == want.score
                got = sched.beams_for_index("directional_tep", k).codeword_indices
                assert got == search(prior, cb, 10.0, 2)[0]

    @pytest.mark.parametrize("edge_mode", ["wrap", "truncate"])
    def test_design_sensing_is_built_from_phases(self, edge_mode):
        # every design's sensing matrix is the builder's on its own phases,
        # bit for bit, for both policies
        sched = self._scheduler(edge_mode=edge_mode)
        for policy in ("psa_optimized", "directional_tep"):
            for k in range(8):
                design = sched.beams_for_index(policy, k)
                want = sensing_matrix(design.phases, sched.codebook.matrix).matrix
                assert np.array_equal(design.sensing.matrix, want)

    def test_invalid_policy(self):
        sched = self._scheduler()
        with pytest.raises(ValueError, match="unknown design policy"):
            sched.beams_for_index("beam_cycling", 0)
