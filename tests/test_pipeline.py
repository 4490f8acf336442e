"""run_pipeline's choice of prevalence: a supplied value, the tensor, or
an assumed 1/2 flagged as degenerate when the tensor stage fails."""

import numpy as np
import pytest

from summa import pipeline
from summa.decomposition import TensorRecovery
from summa.inference import prevalence_from_moments
from summa.pipeline import run_pipeline
from summa.ranking import ScoreMatrix, rank_transform
from summa.simulation import SimulationConfig, simulate_ensemble


def ranks_for(**kwargs):
    data = simulate_ensemble(SimulationConfig(**kwargs))
    return rank_transform(data.scores, "midrank")


@pytest.fixture(scope="module")
def not_converged_ranks():
    # a small balanced design on which the tensor stage hits NotConverged
    return ranks_for(n_methods=12, n_samples=400, rho=0.5, seed=5)


@pytest.fixture(scope="module")
def no_signal_ranks():
    # every sample paired with its score-negated mirror: the centred ranks
    # come in +/- pairs, so every third moment is zero and the tensor
    # stage raises NoSignal, while the covariance keeps its signal
    scores = simulate_ensemble(
        SimulationConfig(n_methods=8, n_samples=200, rho=0.3, seed=5)
    ).scores.values
    return rank_transform(ScoreMatrix.from_array(np.hstack([scores, -scores])), "strict")


class TestTensorFailure:
    @pytest.mark.parametrize("fixture, reason", [
        ("not_converged_ranks", "did not converge"),
        ("no_signal_ranks", "found no signal"),
    ])
    def test_reports_flagged_half(self, request, fixture, reason):
        result = run_pipeline(request.getfixturevalue(fixture))
        report = result.report
        assert result.tensor is None
        assert report.rho == 0.5
        assert report.rho_degenerate
        assert report.lambda_t is None
        assert report.beta == 0.0
        assert len(report.notes) == 1 and reason in report.notes[0]
        assert report.to_dict()["rho_source"] == "estimated"

    def test_estimates_equal_an_assumed_half(self, not_converged_ranks):
        failed = run_pipeline(not_converged_ranks).report
        assumed = run_pipeline(not_converged_ranks, prevalence=0.5, use_tensor=False).report
        assert np.array_equal(failed.weights, assumed.weights)
        assert np.array_equal(failed.aurocs, assumed.aurocs)

    @pytest.mark.parametrize("fixture, note", [
        ("not_converged_ranks", "tensor stage did not converge; cross-check skipped"),
        ("no_signal_ranks", "tensor stage found no signal; cross-check skipped"),
    ])
    def test_supplied_prevalence_skips_cross_check(self, request, fixture, note):
        result = run_pipeline(request.getfixturevalue(fixture), prevalence=0.3)
        report = result.report
        assert result.tensor is None
        assert report.rho == 0.3
        assert report.to_dict()["rho_source"] == "assumed"
        assert not report.rho_degenerate
        assert report.notes == (note,)


class TestConvergedTensor:
    def test_rho_from_moments(self):
        result = run_pipeline(ranks_for(n_methods=20, n_samples=2000, rho=0.3, seed=2))
        report = result.report
        rho, beta = prevalence_from_moments(result.recovery.lambda_, result.tensor.lambda_t)
        assert report.rho == rho and report.beta == beta
        assert report.lambda_t == result.tensor.lambda_t
        assert report.to_dict()["rho_source"] == "estimated"
        assert not report.rho_degenerate
        assert report.notes == ()

    def test_supplied_prevalence_wins(self):
        ranks = ranks_for(n_methods=20, n_samples=2000, rho=0.3, seed=2)
        estimated = run_pipeline(ranks).report
        report = run_pipeline(ranks, prevalence=0.35).report
        assert report.rho == 0.35
        assert report.to_dict()["rho_source"] == "assumed"
        assert report.beta == estimated.beta
        assert report.lambda_t == estimated.lambda_t

    def test_degenerate_band_is_flagged(self, monkeypatch):
        # a converged tensor whose value is (numerically) zero: beta falls
        # in the degenerate band, so rho is 1/2 and flagged, with no note
        def flat_tensor(q3, v_hint, tol, max_iter):
            return TensorRecovery(1e-12, np.asarray(v_hint), 3, True, 0.0)

        monkeypatch.setattr(pipeline, "recover_rank1_tensor", flat_tensor)
        result = run_pipeline(ranks_for(n_methods=8, n_samples=300, rho=0.3, seed=2))
        report = result.report
        assert result.tensor is not None
        assert report.rho == 0.5
        assert report.rho_degenerate
        assert report.lambda_t == 1e-12
        assert report.to_dict()["rho_source"] == "estimated"
        assert report.notes == ()
