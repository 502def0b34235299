"""End-to-end acceptance checks.

Each test prints one CRITERION line so the suite output doubles as a
checklist.  Monte-Carlo budgets and seeds are pinned; every statistical
tolerance is stated next to the check it guards.
"""

import json

import numpy as np
import pytest

from beamtrack.arraymodel import build_codebook, build_grid
from beamtrack.cli import main as cli_main
from beamtrack.harness import ExperimentConfig, run_experiment, sweep
from beamtrack.tracking import (
    PilotObservation,
    SensingMatrix,
    log_likelihood_scores,
    sensing_matrix,
)
from oracles import folded_mu, log_likelihoods, rank_two

N_TTIS = 9  # tracked periods per frame with the default p_ttis = 10


def _report(num: int, desc: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    line = f"CRITERION {num} [{status}] {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    return ok


def _frame_errors(trials: np.ndarray, n_frames: int) -> np.ndarray:
    """Per-frame, per-period error indicators in frame-major order."""
    return trials["error"].astype(float).reshape(n_frames, N_TTIS)


@pytest.fixture(scope="module")
def fig2_run():
    config = ExperimentConfig(
        beta=0.2,
        snr_db=10.0,
        n_frames=10_000,
        policy=["psa_optimized", "directional_tep", "beam_cycling"],
        seed=0,
    )
    trials, summary = run_experiment(config)
    return config, trials, summary


class TestAcceptance:
    def test_criterion_1_mu_monte_carlo(self):
        rng = np.random.default_rng(100)
        draws = rng.exponential(size=(2, 1_000_000))
        triples = []
        for _ in range(25):  # both eigenvalues active
            triples.append((rng.uniform(0.1, 5), -rng.uniform(0.1, 5), rng.uniform(-3, 3)))
        for _ in range(25):  # positive eigenvalue only
            triples.append((rng.uniform(0.1, 5), 0.0, rng.uniform(-3, 3)))
        for _ in range(25):  # negative eigenvalue only
            triples.append((0.0, -rng.uniform(0.1, 5), rng.uniform(-3, 3)))
        for _ in range(25):  # degenerate zero form
            triples.append((0.0, 0.0, rng.uniform(-3, 3)))
        # the bound kernel's own folded mu at each (lam1, lam2, delta)
        mu = folded_mu(*np.array(triples).T)
        worst = 0.0
        for (l1, l2, d), closed in zip(triples, mu):
            emp = float(np.mean(l1 * draws[0] + l2 * draws[1] <= d))
            worst = max(worst, abs(closed - emp))
        ok = worst <= 3e-3
        assert _report(
            1,
            "closed-form mu matches exponential-form Monte Carlo",
            ok,
            f"worst |error| {worst:.2e} over 100 triples, tol 3e-3",
        )

    def test_criterion_2_rank_two_structure(self):
        rng = np.random.default_rng(200)
        grid = build_grid(64)
        cb = build_codebook(grid, 32)
        violations = 0
        for _ in range(1000):
            s = sensing_matrix(rng.uniform(0, 2 * np.pi, (32, 2)), cb.matrix).matrix
            k, n = rng.choice(64, size=2, replace=False)
            snr = 10.0 ** rng.uniform(-1, 2.5)
            violations += not rank_two(s[:, k], s[:, n], snr)
        ok = violations == 0
        assert _report(
            2,
            "inverse-covariance difference is rank <= 2 with one eigenvalue of each sign",
            ok,
            f"{violations} violations in 1000 draws",
        )

    def test_criterion_3_bound_validity(self, fig2_run):
        _, _, summary = fig2_run
        worst_margin = np.inf
        for row in summary:
            if not np.isfinite(row.mean_gamma_ub):
                continue  # the matched-filter baseline logs no bound
            margin = row.mean_gamma_ub + 3 * row.tep_stderr - row.tep_mean
            worst_margin = min(worst_margin, margin)
        ok = worst_margin >= 0
        assert _report(
            3,
            "mean bound + 3*stderr dominates simulated error rate in every cell",
            ok,
            f"worst margin {worst_margin:.4f}",
        )

    def test_criterion_4_policy_ordering(self, fig2_run):
        config, trials, _ = fig2_run
        psa = _frame_errors(trials["psa_optimized"], config.n_frames)
        directional = _frame_errors(trials["directional_tep"], config.n_frames)
        cycling = _frame_errors(trials["beam_cycling"], config.n_frames)
        per_tti_ok = True
        for t in range(N_TTIS):
            d = directional[:, t] - psa[:, t]
            paired_se = d.std(ddof=1) / np.sqrt(config.n_frames)
            if psa[:, t].mean() > directional[:, t].mean() + 3 * paired_se:
                per_tti_ok = False
        last_gap = abs(psa[:, -1].mean() - cycling[:, -1].mean())
        ok = per_tti_ok and last_gap <= 0.05
        assert _report(
            4,
            "optimized beams beat the directional baseline per period and "
            "stay comparable to beam cycling",
            ok,
            f"final-period gap to cycling {last_gap:.4f}, tol 0.05",
        )

    def test_criterion_5_gap_grows_with_mobility(self):
        betas = [0.1, 0.3, 0.5, 0.7, 0.9]
        n_frames = 2000
        config = ExperimentConfig(
            beta=betas,
            snr_db=20.0,
            n_frames=n_frames,
            policy=["psa_optimized", "directional_tep"],
            seed=0,
        )
        results, _ = sweep(config)
        gaps = {}
        ordering_ok = True
        for b in betas:
            psa = _frame_errors(results[b]["psa_optimized"], n_frames).mean(axis=1)
            directional = _frame_errors(
                results[b]["directional_tep"], n_frames
            ).mean(axis=1)
            gaps[b] = directional - psa
            if psa.mean() > directional.mean():
                ordering_ok = False
        growth = gaps[0.9] - gaps[0.1]  # frames share random numbers across runs
        paired_se = growth.std(ddof=1) / np.sqrt(n_frames)
        ok = ordering_ok and growth.mean() >= 3 * paired_se
        assert _report(
            5,
            "directional-vs-optimized gap widens with the transition rate",
            ok,
            f"growth {growth.mean():.4f} vs 3*paired-se {3 * paired_se:.4f}",
        )

    def test_criterion_6_snr_trends(self):
        snrs = [10.0, 15.0, 20.0, 25.0]
        n_frames = 120
        config = ExperimentConfig(
            beta=0.6,
            snr_db=snrs,
            n_frames=n_frames,
            policy=["psa_optimized", "directional_tep"],
            seed=0,
        )
        results, summary = sweep(config)
        tep = {
            (row.group_key, row.policy): (row.tep_mean, row.tep_stderr)
            for row in summary
        }

        d20, se20 = tep[("snr_db=20", "directional_tep")]
        d25, se25 = tep[("snr_db=25", "directional_tep")]
        floor_ok = abs(d25 - d20) <= 2 * np.hypot(se20, se25) and d25 > 0.02

        psa = [tep[(f"snr_db={v:g}", "psa_optimized")] for v in snrs]
        means = [m for m, _ in psa]
        decrease_ok = all(means[i + 1] < means[i] for i in range(3))
        total_drop = means[0] - means[-1]
        drop_ok = total_drop > 3 * np.hypot(psa[0][1], psa[-1][1])

        tti2_bounds = []
        for v in snrs:
            arr = results[v]["psa_optimized"]
            tti2_bounds.append(float(arr[arr["tti"] == 2]["gamma_ub"].mean()))
        bound_ok = all(np.diff(tti2_bounds) < 0)

        ok = floor_ok and decrease_ok and drop_ok and bound_ok
        assert _report(
            6,
            "directional policy floors while the optimized error rate and "
            "its bound fall with SNR",
            ok,
            f"floor diff {abs(d25 - d20):.4f}, optimized drop {total_drop:.4f}, "
            f"first-period bounds {['%.4f' % b for b in tti2_bounds]}",
        )

    def test_criterion_7_degenerate_exactness(self):
        config = ExperimentConfig(
            beta=0.0,
            noiseless=True,
            n_frames=1000,
            policy=["psa_optimized", "directional_tep", "beam_cycling"],
            seed=0,
        )
        trials, _ = run_experiment(config)
        total_errors = sum(int(trials[p]["error"].sum()) for p in config.policies)
        ok = total_errors == 0
        assert _report(
            7,
            "static channel with no noise is tracked perfectly by every policy",
            ok,
            f"{total_errors} errors over 1000 frames x 3 policies",
        )

    def test_criterion_8_rank_one_identities(self):
        # The tracker's Sherman-Morrison / determinant-lemma log-likelihoods
        # against the dense complex-Gaussian log-density, with the common
        # M*log(snr) term removed, for every hypothesis of a random matrix.
        rng = np.random.default_rng(800)
        worst = 0.0
        for _ in range(1000):
            m = int(rng.integers(1, 7))
            s = rng.standard_normal((m, 8)) + 1j * rng.standard_normal((m, 8))
            snr = 10.0 ** rng.uniform(-2, 3)
            gain = (rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2)
            noise = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            y = gain * s[:, rng.integers(8)] + noise * np.sqrt(0.5 / snr)
            got = log_likelihood_scores(
                PilotObservation(y=y, snr=snr), SensingMatrix(matrix=s)
            )
            dense = log_likelihoods(y, s, snr)
            worst = max(worst, float(np.max(np.abs(got - dense) / np.abs(dense))))
        ok = worst <= 1e-9
        assert _report(
            8,
            "rank-one inverse and determinant closed forms match dense recomputation",
            ok,
            f"worst relative error {worst:.2e}, tol 1e-9",
        )

    def test_criterion_9_cli_determinism(self, tmp_path):
        config = {
            "n_tx": 16,
            "n_grid": 32,
            "sigma": 3,
            "p_ttis": 5,
            "beta": 0.4,
            "snr_db": 10.0,
            "n_frames": 50,
            "policy": ["directional_tep", "beam_cycling"],
            "seed": 7,
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        code_a = cli_main(["simulate", "--config", str(cfg), "--out", str(out_a)])
        code_b = cli_main(["simulate", "--config", str(cfg), "--out", str(out_b)])
        same = (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()
        ok = code_a == 0 and code_b == 0 and same
        assert _report(
            9,
            "repeated simulate runs with one config and seed are byte-identical",
            ok,
            "summary.csv compared",
        )
