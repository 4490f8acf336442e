"""Prevalence and AUROC inference tests, built around forward/backward
round trips through the moment formulas."""

import warnings

import numpy as np
import pytest

from summa.decomposition import TensorRecovery
from summa.exceptions import InvalidInput, InvalidPrevalence, NoSignal
from summa.inference import (
    Z_CUTOFF,
    performance_estimates,
    prevalence_from_moments,
    prevalence_interval,
)


def ids(m):
    return tuple(f"m{i}" for i in range(m))


def forward_moments(rho, deltas):
    """Spectral values a noiseless pipeline would measure along +delta."""
    deltas = np.asarray(deltas, dtype=float)
    norm2 = float(deltas @ deltas)
    lambda_e = rho * (1 - rho) * norm2
    lambda_t = rho * (1 - rho) * (2 * rho - 1) * norm2**1.5
    return lambda_e, lambda_t


def tensor_fit(rho, deltas, z):
    """The tensor stage's fit of a noiseless design, with lambda_t ``z``
    jackknife standard errors away from balance."""
    deltas = np.asarray(deltas, dtype=float)
    lambda_e, lambda_t = forward_moments(rho, deltas)
    return TensorRecovery(lambda_t, lambda_e, abs(lambda_t) / z, deltas / np.linalg.norm(deltas))


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

    def test_near_balance_is_reported_not_snapped(self):
        lambda_e, lambda_t = forward_moments(0.501, [10.0])
        rho, beta = prevalence_from_moments(lambda_e, lambda_t)
        assert rho == pytest.approx(0.501, abs=1e-9)
        assert beta == pytest.approx(0.002**2 / (0.501 * 0.499), rel=1e-9)

    def test_interval_straddling_zero_contains_half(self):
        lambda_e, lambda_t = forward_moments(0.3, [10.0])
        se = abs(lambda_t) / (Z_CUTOFF - 0.5)  # lambda_t is 0.5 se inside the cutoff
        low, high = prevalence_interval(lambda_e, lambda_t, se)
        assert low < 0.3 < 0.5 < high
        # lambda_t -/+ Z_CUTOFF se map to the ends of the interval
        assert low == prevalence_from_moments(lambda_e, lambda_t - Z_CUTOFF * se)[0]
        assert high == prevalence_from_moments(lambda_e, lambda_t + Z_CUTOFF * se)[0]

    def test_interval_clear_of_zero_excludes_half(self):
        lambda_e, lambda_t = forward_moments(0.3, [10.0])
        low, high = prevalence_interval(lambda_e, lambda_t, abs(lambda_t) / (Z_CUTOFF + 1))
        assert low < 0.3 < high < 0.5
        assert prevalence_interval(lambda_e, lambda_t, 0.0) == pytest.approx((0.3, 0.3))

    def test_nonpositive_lambda_e_rejected(self):
        with pytest.raises(NoSignal):
            prevalence_from_moments(0.0, 1.0)
        with pytest.raises(NoSignal):
            prevalence_from_moments(-1.0, 1.0)


class TestPerformanceEstimates:
    def test_round_trip_known_instance(self):
        # deltas (2,4,4,8), rho 0.3, N=100 -> aurocs (.52,.54,.54,.58)
        deltas = np.array([2.0, 4.0, 4.0, 8.0])
        tensor = tensor_fit(0.3, deltas, Z_CUTOFF + 1)
        report = performance_estimates(tensor.u, tensor.lambda_e, 100, ids(4), tensor=tensor)
        assert report.rho == pytest.approx(0.3, abs=1e-9)
        assert np.abs(report.deltas - deltas).max() < 1e-9
        assert np.allclose(report.aurocs, [0.52, 0.54, 0.54, 0.58], atol=1e-12)
        assert report.delta_norm == pytest.approx(10.0, abs=1e-9)
        assert not report.rho_assumed and not report.rho_degenerate
        assert report.lambda_t == tensor.lambda_t
        assert report.notes == ()

    def test_supplied_rho_half(self):
        v = np.full(4, 0.5)
        lambda_e = 0.25 * 64.0  # rho(1-rho) ||delta||^2 at rho = 1/2
        report = performance_estimates(v, lambda_e, 50, ids(4), rho=0.5)
        assert report.delta_norm == pytest.approx(np.sqrt(4 * lambda_e))
        assert report.rho_assumed
        assert report.beta == pytest.approx(0.0)

    def test_zero_weight_maps_to_half_auroc(self):
        v = np.array([0.0, 1.0, 0.0, 0.0])
        report = performance_estimates(v, 4.0, 20, ids(4), rho=0.4)
        assert report.aurocs[0] == pytest.approx(0.5)
        assert report.deltas[0] == pytest.approx(0.0)

    def test_auroc_ordering_follows_weights(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=8)
        v /= np.linalg.norm(v)
        report = performance_estimates(v, 5.0, 200, ids(8), rho=0.35)
        assert np.array_equal(np.argsort(report.weights), np.argsort(report.aurocs))

    def test_measured_beta_scale_matches_rho_scale(self):
        # rho(1-rho) = 1/(beta+4), so the scale rho fixes is sqrt(lambda_e (beta+4))
        deltas = np.array([3.0, 5.0, 2.0, 7.0, 4.0])
        tensor = tensor_fit(0.25, deltas, Z_CUTOFF + 1)
        lambda_e = tensor.lambda_e
        _, beta = prevalence_from_moments(lambda_e, tensor.lambda_t)
        report = performance_estimates(tensor.u, lambda_e, 60, ids(5), tensor=tensor)
        assert report.delta_norm == pytest.approx(np.sqrt(lambda_e * (beta + 4.0)), rel=1e-12)
        assert report.delta_norm == pytest.approx(np.linalg.norm(deltas), rel=1e-12)
        assert report.beta == beta

    def test_invalid_prevalence(self):
        v = np.full(4, 0.5)
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(InvalidPrevalence):
                performance_estimates(v, 1.0, 10, ids(4), rho=bad)

    def test_rejects_no_signal_and_wrong_id_count(self):
        with pytest.raises(NoSignal):
            performance_estimates(np.full(4, 0.5), 0.0, 10, ids(4), rho=0.5)
        with pytest.raises(InvalidInput):
            performance_estimates(np.full(4, 0.5), 1.0, 10, ("a", "b"), rho=0.5)

    def test_rejects_one_sample(self):
        with pytest.raises(InvalidInput, match="at least 2 samples"):
            performance_estimates(np.full(4, 0.5), 1.0, 1, ids(4), rho=0.5)

    def test_tensor_fit_ignores_lambda_e_argument(self):
        # the tensor's jackknifed lambda_e is the scale, so the argument is
        # neither read nor checked
        tensor = tensor_fit(0.3, np.array([2.0, 4.0, 4.0, 8.0, 1.0]), Z_CUTOFF + 1)
        expected = performance_estimates(tensor.u, 7.0, 100, ids(5), tensor=tensor).to_dict()
        for ignored in (0.0, np.nan):
            report = performance_estimates(tensor.u, ignored, 100, ids(5), tensor=tensor)
            assert report.to_dict() == expected
            assert report.lambda_e == tensor.lambda_e

    def test_weights_are_v_as_given(self):
        v = np.array([0.9, 0.1, 0.1, np.sqrt(1 - 0.83)])
        v /= np.linalg.norm(v)
        assert performance_estimates(v, 1.0, 10, ids(4), rho=0.5).weights is v

    def test_crosscheck_notes_but_succeeds(self):
        # the data measured rho in [0.083, 0.121] but the user claims 0.5
        tensor = tensor_fit(0.1, np.full(4, 2.0), 25.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = performance_estimates(tensor.u, tensor.lambda_e, 10, ids(4), rho=0.5,
                                           tensor=tensor)
        assert report.rho == 0.5 and report.rho_assumed
        low, high = report.rho_interval
        assert 0.08 < low < 0.1 < high < 0.125
        assert report.beta == prevalence_from_moments(tensor.lambda_e, tensor.lambda_t)[1]
        assert report.lambda_t == tensor.lambda_t
        assert not report.rho_degenerate
        assert len(report.notes) == 1 and "outside the measured interval" in report.notes[0]

    def test_consistent_crosscheck_is_silent(self):
        # the data measured rho in [0.250, 0.359] and the user claims 0.3
        tensor = tensor_fit(0.3, np.full(4, 2.0), 10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = performance_estimates(tensor.u, tensor.lambda_e, 10, ids(4), rho=0.3,
                                           tensor=tensor)
        assert 0.24 < report.rho_interval[0] < 0.3 < report.rho_interval[1] < 0.36
        assert report.notes == ()

    def test_interval_containing_half_is_degenerate(self):
        # lambda_t half a standard error from 0: rho 0.46 in [0.242, 0.702]
        tensor = tensor_fit(0.46, np.full(4, 2.0), 0.5)
        report = performance_estimates(tensor.u, tensor.lambda_e, 10, ids(4), tensor=tensor)
        assert 0.24 < report.rho_interval[0] < 0.5 < report.rho_interval[1] < 0.71
        assert report.rho_degenerate
        assert report.rho == pytest.approx(0.46, abs=1e-9)  # flagged, not snapped to 1/2
        assert report.notes == ()
        assert not performance_estimates(tensor.u, 1.0, 10, ids(4), rho=0.46).rho_degenerate

    def test_reason_without_tensor_is_the_one_note(self):
        # the tensor stage measured nothing: rho is 1/2 and rules nothing out
        v = np.full(4, 0.5)
        reason = "tensor stage found no signal"
        report = performance_estimates(v, 1.0, 10, ids(4), reason=reason)
        assert report.rho == 0.5 and not report.rho_assumed
        assert report.rho_degenerate and report.rho_interval == (0.0, 1.0)
        assert report.beta == 0.0 and report.lambda_t is None
        assert report.notes == (f"{reason}; rho taken as 1/2 and flagged degenerate",)
        # a supplied rho only loses its cross-check
        report = performance_estimates(v, 1.0, 10, ids(4), rho=0.3, reason=reason)
        assert report.rho == 0.3 and report.rho_assumed
        assert not report.rho_degenerate and report.rho_interval is None
        assert report.notes == (f"{reason}; cross-check skipped",)

    def test_report_serialization_clamps(self):
        v = np.array([0.9, 0.1, 0.1, np.sqrt(1 - 0.83)])
        v /= np.linalg.norm(v)
        report = performance_estimates(v, 900.0, 10, ids(4), rho=0.5)  # huge deltas
        data = report.to_dict()
        assert data["methods"][0]["auroc"] == 1.0
        assert data["methods"][0]["auroc_raw"] > 1.0
        assert report.aurocs[0] > 1.0  # raw kept in memory
        assert data["rho_source"] == "assumed"

    def test_recoverability_flags_propagate(self):
        v = np.array([0.9, 0.1, 0.1, np.sqrt(1 - 0.83)])
        v /= np.linalg.norm(v)
        report = performance_estimates(v, 1.0, 10, ids(4), rho=0.5)
        assert report.recoverability_flagged[0]
        assert not report.recoverability_flagged[1:].any()

    def test_non_unit_vector_rejected(self):
        with pytest.raises(InvalidInput):
            performance_estimates(np.ones(4), 1.0, 10, ids(4), rho=0.5)

