"""run_pipeline's choice of prevalence: a supplied value, the tensor's
estimate with its interval, or an assumed 1/2 flagged as degenerate
when the tensor stage measures nothing; of the one covariance scale and
the one method vector; and its outcomes on tiny, tied tables."""

import tracemalloc
import weakref

import numpy as np
import pytest

from summa import pipeline
from summa.decomposition import TensorRecovery, recover_rank1_matrix, recover_rank1_tensor
from summa.ensemble import summa_scores
from summa.exceptions import NoSignal, SummaError
from summa.inference import prevalence_from_moments, prevalence_interval
from summa.moments import covariance_matrix, third_moment_offdiag
from summa.pipeline import run_pipeline
from summa.ranking import ScoreMatrix, rank_transform
from summa.simulation import SimulationConfig, simulate_ensemble


# 4 methods (rows) by 3 samples, m0 constant: a matrix-stage step puts
# the whole factor on one method
ONE_METHOD_FACTOR = np.array([
    [1.0, 1.0, 1.0],
    [0.35537271, -0.65382861, -0.12961363],
    [0.78397547, 1.49343115, -1.25906553],
    [1.51392377, 1.34587542, 0.7813114],
])
# 6 methods by 3 samples: a leave-out fit of the tensor stage's jackknife
# collapses onto fewer than three methods
COLLAPSED_LEAVE_OUT = np.array([
    [0, 1, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1], [0, 0, 0], [1, 1, 0],
], dtype=float)


def ranks_for(**kwargs):
    data = simulate_ensemble(SimulationConfig(**kwargs))
    return rank_transform(data.scores, "midrank")


@pytest.fixture(scope="module")
def no_signal_ranks():
    # every sample paired with its score-negated mirror: the centred ranks
    # come in +/- pairs, so every third moment is zero and the tensor
    # stage raises NoSignal, while the covariance keeps its signal
    scores = simulate_ensemble(
        SimulationConfig(n_methods=8, n_samples=200, rho=0.3, seed=5)
    ).scores.values
    return rank_transform(ScoreMatrix.from_array(np.hstack([scores, -scores])), "strict")


@pytest.fixture(scope="module")
def skewed_ranks():
    return ranks_for(n_methods=20, n_samples=2000, rho=0.3, seed=2)


class TestTensorFailure:
    def test_reports_flagged_half(self, no_signal_ranks):
        result = run_pipeline(no_signal_ranks)
        report = result.report
        assert result.tensor is None
        assert report.rho == 0.5
        assert report.rho_degenerate
        assert report.lambda_t is None
        assert report.beta == 0.0
        assert report.lambda_e == result.recovery.lambda_
        assert len(report.notes) == 1 and "found no signal" in report.notes[0]
        assert report.to_dict()["rho_source"] == "estimated"
        assert "tensor" not in result.to_dict()

    def test_estimates_equal_an_assumed_half(self, no_signal_ranks):
        failed = run_pipeline(no_signal_ranks).report
        assumed = run_pipeline(no_signal_ranks, prevalence=0.5).report
        assert np.array_equal(failed.weights, assumed.weights)
        assert np.array_equal(failed.aurocs, assumed.aurocs)

    def test_supplied_prevalence_skips_cross_check(self, no_signal_ranks):
        result = run_pipeline(no_signal_ranks, prevalence=0.3)
        report = result.report
        assert result.tensor is None
        assert report.rho == 0.3
        assert report.to_dict()["rho_source"] == "assumed"
        assert not report.rho_degenerate
        assert report.notes == ("tensor stage found no signal; cross-check skipped",)


class TestConvergedTensor:
    def test_rho_from_moments(self, skewed_ranks):
        result = run_pipeline(skewed_ranks)
        report, tensor = result.report, result.tensor
        rho, beta = prevalence_from_moments(tensor.lambda_e, tensor.lambda_t)
        assert report.rho == rho and report.beta == beta
        assert report.lambda_t == tensor.lambda_t
        assert report.rho_interval == prevalence_interval(
            tensor.lambda_e, tensor.lambda_t, tensor.lambda_t_se)
        assert report.rho_interval[0] < rho < report.rho_interval[1] < 0.5
        assert report.to_dict()["rho_source"] == "estimated"
        assert not report.rho_degenerate
        assert report.notes == ()
        block = result.to_dict()["tensor"]
        assert block == {"lambda_t_se": tensor.lambda_t_se, "z": tensor.z,
                         "rho_interval": list(report.rho_interval)}

    def test_one_covariance_scale(self, skewed_ranks):
        # the jackknifed lambda_e that gives rho also sizes every delta
        result = run_pipeline(skewed_ranks)
        report = result.report
        assert report.lambda_e == result.tensor.lambda_e
        assert result.to_dict()["lambda_e"] == result.tensor.lambda_e
        rho = report.rho
        assert report.delta_norm**2 * rho * (1 - rho) == pytest.approx(report.lambda_e, rel=1e-12)
        assert np.array_equal(report.deltas, report.weights * report.delta_norm)

    def test_supplied_prevalence_wins(self, skewed_ranks):
        estimated = run_pipeline(skewed_ranks).report
        low, high = estimated.rho_interval
        report = run_pipeline(skewed_ranks, prevalence=0.5 * (low + high)).report
        assert report.rho == 0.5 * (low + high)
        assert report.to_dict()["rho_source"] == "assumed"
        assert report.beta == estimated.beta
        assert report.lambda_t == estimated.lambda_t
        assert report.rho_interval == estimated.rho_interval
        # inside the measured interval: no note
        assert report.notes == ()

    def test_supplied_prevalence_outside_interval_is_noted(self, skewed_ranks):
        report = run_pipeline(skewed_ranks, prevalence=0.7).report
        assert report.rho == 0.7
        assert len(report.notes) == 1
        assert "outside the measured interval" in report.notes[0]

    def test_degenerate_band_is_flagged(self, monkeypatch):
        # a tensor value within a few standard errors of zero: the
        # interval contains 1/2, so rho is flagged, not snapped to 1/2
        def flat_tensor(c, v_hint):
            return TensorRecovery(1.0, 50.0, 10.0, np.asarray(v_hint))

        monkeypatch.setattr(pipeline, "recover_rank1_tensor", flat_tensor)
        result = run_pipeline(ranks_for(n_methods=8, n_samples=300, rho=0.3, seed=2))
        report = result.report
        assert result.tensor is not None
        assert report.rho == prevalence_from_moments(50.0, 1.0)[0]
        assert 0.5 < report.rho < report.rho_interval[1]
        assert report.rho_interval[0] < 0.5
        assert report.rho_degenerate
        assert report.lambda_t == 1.0
        assert report.to_dict()["rho_source"] == "estimated"
        assert report.notes == ()


@pytest.mark.parametrize("design", [(8, 200, 0.3), (12, 400, 0.3)])
def test_tensor_scale_sizes_aurocs_no_worse_than_matrix_scale(design):
    # over seeds 0-39, the AUROCs sized by the tensor stage's jackknifed
    # lambda_e are no further from the truth than the same v sized by the
    # matrix stage's lambda; a declined run has neither
    m, n, rho = design
    tensor_rmse, matrix_rmse = [], []
    for seed in range(40):
        data = simulate_ensemble(SimulationConfig(n_methods=m, n_samples=n, rho=rho, seed=seed))
        try:
            result = run_pipeline(rank_transform(data.scores, "midrank"))
        except SummaError:
            continue
        report = result.report
        scale = np.sqrt(result.recovery.lambda_ / (report.rho * (1 - report.rho)))
        matrix_aurocs = report.weights * scale / n + 0.5
        tensor_rmse.append(np.sqrt(np.mean((report.aurocs - data.true_aurocs) ** 2)))
        matrix_rmse.append(np.sqrt(np.mean((matrix_aurocs - data.true_aurocs) ** 2)))
    assert len(tensor_rmse) >= 30
    assert np.median(tensor_rmse) <= np.median(matrix_rmse)


@pytest.mark.parametrize("design", [(30, 1000, 0.3), (12, 400, 0.5)])
def test_one_method_vector(design):
    # the matrix stage's unit v is the tensor fit's u and the report's weights
    m, n, rho = design
    for seed in range(10):
        result = run_pipeline(ranks_for(n_methods=m, n_samples=n, rho=rho, seed=seed))
        v = result.recovery.v
        assert not v.flags.writeable
        assert result.report.weights is v and result.tensor.u is v


@pytest.mark.parametrize("case", ["default", "four methods", "collapsed leave-out"])
def test_centred_ranks_dropped_before_aggregation(monkeypatch, case):
    # the centred ranks are as large as the ranks, so none may still be
    # alive when the aggregation builds its own M x N temporary, whether
    # the tensor stage measures, is refused, or finds no signal
    ranks = {
        "default": lambda: ranks_for(n_methods=30, n_samples=1000, rho=0.3, seed=0),
        "four methods": lambda: ranks_for(n_methods=4, n_samples=300, rho=0.3, seed=1),
        "collapsed leave-out": lambda: rank_transform(
            ScoreMatrix.from_array(COLLAPSED_LEAVE_OUT), "midrank"),
    }[case]()
    refs, alive = [], []

    def centre(ranks):
        centred = third_moment_offdiag(ranks)
        refs.append(weakref.ref(centred))
        return centred

    def aggregate(ranks, v):
        alive.extend(ref() is not None for ref in refs)
        return summa_scores(ranks, v)

    monkeypatch.setattr(pipeline, "third_moment_offdiag", centre)
    monkeypatch.setattr(pipeline, "summa_scores", aggregate)
    run_pipeline(ranks)
    assert alive == [False]


def test_peak_memory_is_linear_in_ranks_and_gram():
    # the stages hold the grouped centred ranks, one M x M Gram matrix and
    # a few M x M and O(MN) temporaries.  An M x M matrix per jackknife
    # block is kept only where it is no larger than its block,
    # M <= ceil(N / 20), as at (30, 3000): at M = N = 300 twenty block
    # matrices of M x M floats would alone take 14 MB, twice the bound
    for m, n in ((300, 300), (30, 3000)):
        ranks = ranks_for(n_methods=m, n_samples=n, rho=0.3, seed=0)
        tracemalloc.start()
        try:
            run_pipeline(ranks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 8 * (m * n + m * m), (m, n, peak)


class TestWeakRegimes:
    def test_factor_on_one_method_is_no_signal(self):
        ranks = rank_transform(ScoreMatrix.from_array(ONE_METHOD_FACTOR), "midrank")
        with pytest.raises(NoSignal, match="the update puts the whole factor on one method"):
            run_pipeline(ranks)

    def test_collapsed_leave_out_fit_reports_degenerate_half(self):
        ranks = rank_transform(ScoreMatrix.from_array(COLLAPSED_LEAVE_OUT), "midrank")
        centred = third_moment_offdiag(ranks)
        v = recover_rank1_matrix(covariance_matrix(centred)).v
        with pytest.raises(NoSignal, match="leave-out fit collapses"):
            recover_rank1_tensor(centred, v)
        result = run_pipeline(ranks)
        report = result.report
        assert result.tensor is None
        assert report.rho == 0.5 and report.rho_degenerate
        assert report.notes == ("tensor stage found no signal; "
                                "rho taken as 1/2 and flagged degenerate",)
        assert np.isfinite(report.aurocs).all()

    def test_seeded_sweep_returns_a_rho_or_raises(self):
        # tables of 4-8 methods and 3-5 samples, half of them tied 0/1/2
        # integers and every third with a constant method: each run gives
        # rho in (0, 1) with finite AUROCs or a SummaError, never another
        # exception or a warning
        rng = np.random.default_rng(0)
        for table in range(200):
            m, n = int(rng.integers(4, 9)), int(rng.integers(3, 6))
            if table % 2:
                values = rng.integers(0, 3, size=(m, n)).astype(float)
            else:
                values = rng.standard_normal((m, n))
            if table % 3 == 0:
                values[rng.integers(m)] = 1.0
            for ties in ("midrank", "strict"):
                ranks = rank_transform(ScoreMatrix.from_array(values), ties)
                try:
                    report = run_pipeline(ranks).report
                except SummaError:
                    continue
                assert 0.0 < report.rho < 1.0, (table, ties)
                assert np.isfinite(report.aurocs).all(), (table, ties)
