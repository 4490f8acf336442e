"""Prevalence and AUROC inference tests, built around forward/backward
round trips through the moment formulas."""

import warnings

import numpy as np
import pytest

from summa.exceptions import InvalidInput, InvalidPrevalence, NoSignal
from summa.inference import (
    BETA_DEGENERATE,
    performance_estimates,
    prevalence_from_moments,
)


def forward_moments(rho, deltas):
    """Spectral values a noiseless pipeline would measure along +delta."""
    deltas = np.asarray(deltas, dtype=float)
    norm2 = float(deltas @ deltas)
    lambda_e = rho * (1 - rho) * norm2
    lambda_t = rho * (1 - rho) * (2 * rho - 1) * norm2**1.5
    return lambda_e, lambda_t


class TestPrevalenceFromMoments:
    def test_zero_tensor_value_gives_half(self):
        rho, beta = prevalence_from_moments(2.0, 0.0)
        assert rho == 0.5
        assert beta == 0.0

    def test_forward_backward_minority_positive(self):
        # rho=0.3, ||delta||=10: lambda_e = 21, lambda_t = 0.21*(-0.4)*1000
        lambda_e, lambda_t = forward_moments(0.3, [10.0])
        assert lambda_e == pytest.approx(21.0)
        assert lambda_t == pytest.approx(-84.0)
        rho, beta = prevalence_from_moments(lambda_e, lambda_t)
        assert beta == pytest.approx(0.16 / 0.21, rel=1e-12)
        assert rho == pytest.approx(0.3, abs=1e-9)

    def test_negated_tensor_value_mirrors_rho(self):
        lambda_e, lambda_t = forward_moments(0.3, [10.0])
        rho, beta = prevalence_from_moments(lambda_e, -lambda_t)
        assert rho == pytest.approx(0.7, abs=1e-9)
        rho2, beta2 = prevalence_from_moments(lambda_e, lambda_t)
        assert beta == pytest.approx(beta2, rel=1e-12)

    def test_round_trip_over_rho_grid(self):
        rng = np.random.default_rng(1)
        for rho_true in np.concatenate([np.linspace(0.05, 0.45, 9),
                                        np.linspace(0.55, 0.95, 9)]):
            deltas = rng.uniform(1.0, 30.0, size=6)
            lambda_e, lambda_t = forward_moments(rho_true, deltas)
            rho, beta = prevalence_from_moments(lambda_e, lambda_t)
            assert rho == pytest.approx(rho_true, abs=1e-9)
            assert rho * (1 - rho) == pytest.approx(1 / (beta + 4), abs=1e-9)

    def test_degenerate_band_collapses_to_half(self):
        lambda_e, lambda_t = forward_moments(0.501, [10.0])
        rho, beta = prevalence_from_moments(lambda_e, lambda_t)
        assert beta < BETA_DEGENERATE
        assert rho == 0.5

    def test_nonpositive_lambda_e_rejected(self):
        with pytest.raises(NoSignal):
            prevalence_from_moments(0.0, 1.0)
        with pytest.raises(NoSignal):
            prevalence_from_moments(-1.0, 1.0)


class TestPerformanceEstimates:
    def test_round_trip_known_instance(self):
        # deltas (2,4,4,8), rho 0.3, N=100 -> aurocs (.52,.54,.54,.58)
        deltas = np.array([2.0, 4.0, 4.0, 8.0])
        v = deltas / np.linalg.norm(deltas)
        lambda_e, lambda_t = forward_moments(0.3, deltas)
        rho, beta = prevalence_from_moments(lambda_e, lambda_t)
        report = performance_estimates(
            v, lambda_e, 100, rho=rho, beta=beta, rho_assumed=False
        )
        assert np.abs(report.deltas - deltas).max() < 1e-9
        assert np.allclose(report.aurocs, [0.52, 0.54, 0.54, 0.58], atol=1e-12)
        assert report.delta_norm == pytest.approx(10.0, abs=1e-9)
        assert not report.rho_assumed

    def test_supplied_rho_half(self):
        v = np.full(4, 0.5)
        lambda_e = 0.25 * 64.0  # rho(1-rho) ||delta||^2 at rho = 1/2
        report = performance_estimates(v, lambda_e, 50, rho=0.5)
        assert report.delta_norm == pytest.approx(np.sqrt(4 * lambda_e))
        assert report.rho_assumed
        assert report.beta == pytest.approx(0.0)

    def test_zero_weight_maps_to_half_auroc(self):
        v = np.array([0.0, 1.0, 0.0, 0.0])
        report = performance_estimates(v, 4.0, 20, rho=0.4)
        assert report.aurocs[0] == pytest.approx(0.5)
        assert report.deltas[0] == pytest.approx(0.0)

    def test_auroc_ordering_follows_weights(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=8)
        v /= np.linalg.norm(v)
        report = performance_estimates(v, 5.0, 200, rho=0.35)
        assert np.array_equal(np.argsort(report.weights), np.argsort(report.aurocs))

    def test_measured_beta_scale_matches_rho_scale(self):
        # rho(1-rho) = 1/(beta+4), so the scale rho fixes is sqrt(lambda_e (beta+4))
        deltas = np.array([3.0, 5.0, 2.0, 7.0, 4.0])
        v = deltas / np.linalg.norm(deltas)
        lambda_e, lambda_t = forward_moments(0.25, deltas)
        rho, beta = prevalence_from_moments(lambda_e, lambda_t)
        report = performance_estimates(v, lambda_e, 60, rho=rho, beta=beta, rho_assumed=False)
        assert report.delta_norm == pytest.approx(np.sqrt(lambda_e * (beta + 4.0)), rel=1e-12)
        assert report.delta_norm == pytest.approx(np.linalg.norm(deltas), rel=1e-12)
        assert report.beta == beta

    def test_invalid_prevalence(self):
        v = np.full(4, 0.5)
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(InvalidPrevalence):
                performance_estimates(v, 1.0, 10, rho=bad)

    def test_no_rho_gives_weights_only(self):
        report = performance_estimates(np.full(4, 0.5), 1.0, 10)
        assert report.rho is None and report.aurocs is None
        # the weights-only report is validated like any other
        with pytest.raises(NoSignal):
            performance_estimates(np.full(4, 0.5), 0.0, 10)
        with pytest.raises(InvalidInput):
            performance_estimates(np.full(4, 0.5), 1.0, 10, method_ids=("a", "b"))

    def test_crosscheck_notes_but_succeeds(self):
        v = np.full(4, 0.5)
        # beta measured for rho=0.1 but user claims 0.5
        beta = (1 - 0.2) ** 2 / (0.1 * 0.9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = performance_estimates(v, 1.0, 10, rho=0.5, beta=beta)
        assert report.rho == 0.5
        assert any("disagree" in note for note in report.notes)

    def test_consistent_crosscheck_is_silent(self):
        import warnings as _warnings

        v = np.full(4, 0.5)
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            performance_estimates(v, 1.0, 10, rho=0.3, beta=(0.16 / 0.21))

    def test_report_serialization_clamps(self):
        v = np.array([0.9, 0.1, 0.1, np.sqrt(1 - 0.83)])
        v /= np.linalg.norm(v)
        report = performance_estimates(v, 900.0, 10, rho=0.5)  # huge deltas
        data = report.to_dict()
        assert data["methods"][0]["auroc"] == 1.0
        assert data["methods"][0]["auroc_raw"] > 1.0
        assert report.aurocs[0] > 1.0  # raw kept in memory
        assert data["rho_source"] == "assumed"

    def test_recoverability_flags_propagate(self):
        v = np.array([0.9, 0.1, 0.1, np.sqrt(1 - 0.83)])
        v /= np.linalg.norm(v)
        report = performance_estimates(v, 1.0, 10, rho=0.5)
        assert report.recoverability_flagged[0]
        assert not report.recoverability_flagged[1:].any()

    def test_non_unit_vector_rejected(self):
        with pytest.raises(InvalidInput):
            performance_estimates(np.ones(4), 1.0, 10, rho=0.5)


class TestWeightsOnlyReport:
    def test_fields(self):
        v = np.full(4, 0.5)
        report = performance_estimates(v, 2.0, 30, rho=None)
        assert report.rho is None
        assert report.deltas is None
        assert report.aurocs is None
        data = report.to_dict()
        assert data["rho_source"] is None
        assert "auroc" not in data["methods"][0]
        assert data["methods"][0]["weight"] == 0.5
