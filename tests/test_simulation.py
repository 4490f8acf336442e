"""Synthetic generator tests: the AUROC/separation mapping (validated by
Monte Carlo), determinism, stream splitting, and agreement between the
sampled moments and the conditional-independence factorization."""

import numpy as np
import pytest
from scipy.special import ndtri

from summa.exceptions import InvalidInput
from summa.moments import covariance_matrix
from summa.ranking import auroc_rectangle, rank_transform
from summa.simulation import (
    SimulationConfig,
    SimulatedDataset,
    separation_for_auroc,
    simulate_ensemble,
)

from oracles import delta


class TestSeparationForAuroc:
    def test_half_is_zero(self):
        assert separation_for_auroc(0.5) == 0.0

    def test_antisymmetry(self):
        for a in (0.55, 0.7, 0.9, 0.99):
            assert separation_for_auroc(a) == pytest.approx(
                -separation_for_auroc(1 - a), rel=1e-12
            )

    def test_frozen_value(self):
        assert separation_for_auroc(0.8) == pytest.approx(1.19023, abs=5e-6)

    def test_matches_scipy_ndtri(self):
        # scipy's ndtri is the oracle only; the package never imports scipy
        p = np.concatenate([
            np.linspace(1e-12, 1 - 1e-12, 4001),
            np.logspace(-12, -1, 500),
            1 - np.logspace(-12, -1, 500),
            [0.5],
        ])
        ours = np.array([separation_for_auroc(x) for x in p])
        theirs = np.sqrt(2.0) * ndtri(p)
        assert ours[p == 0.5].tolist() == [0.0]
        np.testing.assert_allclose(ours, theirs, rtol=4e-15, atol=0)

    def test_monte_carlo_oracle(self):
        # independent check: fraction of positive-negative pairs where the
        # positive sample wins should equal the target
        rng = np.random.default_rng(123)
        n = 1_000_000
        for target in (0.6, 0.8):
            d = separation_for_auroc(target)
            wins = (rng.standard_normal(n) + d) > rng.standard_normal(n)
            assert wins.mean() == pytest.approx(target, abs=0.002)

    def test_bounds_rejected(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(InvalidInput):
                separation_for_auroc(bad)


class TestConfigValidation:
    def test_bad_prevalence(self):
        with pytest.raises(InvalidInput):
            SimulationConfig(rho=0.0)
        with pytest.raises(InvalidInput):
            SimulationConfig(rho=1.0)

    def test_bad_auroc_range(self):
        with pytest.raises(InvalidInput):
            SimulationConfig(auroc_low=0.8, auroc_high=0.4)
        with pytest.raises(InvalidInput):
            SimulationConfig(auroc_low=0.0)

    def test_empty_class_rejected(self):
        with pytest.raises(InvalidInput):
            SimulationConfig(n_samples=10, rho=0.01)


class TestSimulateEnsemble:
    def test_deterministic(self):
        config = SimulationConfig(n_methods=5, n_samples=100, seed=42)
        a = simulate_ensemble(config)
        b = simulate_ensemble(config)
        assert np.array_equal(a.scores.values, b.scores.values)
        assert np.array_equal(a.true_aurocs, b.true_aurocs)
        assert np.array_equal(a.labels.labels, b.labels.labels)

    def test_seed_changes_data(self):
        a = simulate_ensemble(SimulationConfig(n_methods=3, n_samples=50, seed=1))
        b = simulate_ensemble(SimulationConfig(n_methods=3, n_samples=50, seed=2))
        assert not np.array_equal(a.scores.values, b.scores.values)

    def test_method_streams_split_cleanly(self):
        # growing the ensemble must not perturb existing methods
        small = simulate_ensemble(SimulationConfig(n_methods=4, n_samples=200, seed=9))
        large = simulate_ensemble(SimulationConfig(n_methods=12, n_samples=200, seed=9))
        assert np.array_equal(small.scores.values, large.scores.values[:4])
        assert np.array_equal(small.true_aurocs, large.true_aurocs[:4])

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    @pytest.mark.parametrize("m", [1, 30])
    def test_rows_are_fresh_philox_streams(self, seed, m):
        # every row is a fresh Philox(key=(seed, i))'s standard normals
        # plus the shift, and the targets come from stream 2**64 - 1
        def fresh(stream):
            key = np.array([seed, stream], dtype=np.uint64)
            return np.random.Generator(np.random.Philox(key=key))

        config = SimulationConfig(n_methods=m, n_samples=300, rho=0.3, seed=seed)
        data = simulate_ensemble(config)
        targets = fresh(2**64 - 1).uniform(config.auroc_low, config.auroc_high, size=m)
        assert np.array_equal(data.true_aurocs, targets)
        shift = data.labels.labels.astype(float)
        for i in range(m):
            row = fresh(i).standard_normal(300) + separation_for_auroc(targets[i]) * shift
            assert np.array_equal(data.scores.values[i], row), i

    def test_exact_class_counts(self):
        for rho in (0.1, 0.3, 0.5, 0.77):
            data = simulate_ensemble(SimulationConfig(n_methods=2, n_samples=1000, rho=rho))
            assert data.labels.n_positive == round(rho * 1000)

    def test_null_config_aurocs_near_half(self):
        config = SimulationConfig(
            n_methods=8, n_samples=2500, auroc_low=0.5, auroc_high=0.5, seed=3
        )
        data = simulate_ensemble(config)
        ranks = rank_transform(data.scores, "strict")
        bound = 3 / np.sqrt(config.n_samples)
        for row in ranks.ranks:
            assert auroc_rectangle(row, data.labels) == pytest.approx(0.5, abs=bound)

    def test_empirical_auroc_tracks_target(self):
        config = SimulationConfig(n_methods=30, n_samples=10_000, seed=17)
        data = simulate_ensemble(config)
        ranks = rank_transform(data.scores, "strict")
        for row, target in zip(ranks.ranks, data.true_aurocs):
            assert auroc_rectangle(row, data.labels) == pytest.approx(target, abs=0.02)

    def test_conditional_independence_by_construction(self):
        config = SimulationConfig(n_methods=6, n_samples=10_000, seed=23)
        data = simulate_ensemble(config)
        ranks = rank_transform(data.scores, "strict").ranks
        labels = data.labels.labels
        for mask in (labels == 1, labels == 0):
            within = np.corrcoef(ranks[:, mask])
            off = within[~np.eye(6, dtype=bool)]
            assert np.abs(off).max() < 0.05

    def test_covariance_matches_factorized_prediction(self):
        """Sampled Q2(i,j) ~ rho(1-rho) delta_i delta_j within 5 SE of the
        30-replicate mean."""
        m, n = 4, 2000
        pair_values = {(i, j): [] for i in range(m) for j in range(i + 1, m)}
        predictions = {k: [] for k in pair_values}
        for seed in range(30):
            config = SimulationConfig(
                n_methods=m, n_samples=n, rho=0.35,
                auroc_low=0.6, auroc_high=0.8, seed=1000 + seed,
            )
            data = simulate_ensemble(config)
            ranks = rank_transform(data.scores, "strict")
            q2 = covariance_matrix(ranks)
            rho_hat = data.labels.n_positive / n
            deltas = [delta(row, data.labels) for row in ranks.ranks]
            for i, j in pair_values:
                pair_values[(i, j)].append(q2[i, j])
                predictions[(i, j)].append(rho_hat * (1 - rho_hat) * deltas[i] * deltas[j])
        for key, values in pair_values.items():
            gap = np.asarray(values) - np.asarray(predictions[key])
            se = gap.std(ddof=1) / np.sqrt(len(gap))
            assert abs(gap.mean()) < 5 * se + 1e-9, key


def test_dataset_fields():
    data = simulate_ensemble(SimulationConfig(n_methods=3, n_samples=40, seed=5))
    assert isinstance(data, SimulatedDataset)
    assert data.scores.n_methods == 3
    assert data.true_aurocs.shape == (3,)
    assert all(0.4 <= a <= 0.8 for a in data.true_aurocs)
