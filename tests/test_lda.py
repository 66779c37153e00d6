import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lda_oracle
from handover_intent.features import pca_fit
from handover_intent.lda import lda_decision, lda_fit, lda_predict_proba


def bayes_posterior(x, mu0, mu1, cov, prior1=0.5):
    """Oracle: closed-form two-class Gaussian posterior with true parameters."""
    inv = np.linalg.inv(cov)
    def log_like(mu):
        d = x - mu
        return -0.5 * np.einsum("ij,jk,ik->i", d, inv, d)
    a = log_like(mu1) + np.log(prior1)
    b = log_like(mu0) + np.log(1 - prior1)
    return 1.0 / (1.0 + np.exp(b - a))


class TestFit:
    def test_symmetric_classes_put_the_boundary_at_zero(self):
        # Exactly mirrored training data: means +-1, equal priors.
        x1 = np.array([0.0, 0.5, 1.0, 1.5, 2.0]) + 0.0
        x = np.concatenate([-x1 - 0.0, x1]).reshape(-1, 1)
        y = np.array([0] * 5 + [1] * 5)
        model = lda_fit(x, y, shrinkage=0.0)
        assert abs(lda_decision(model, np.array([[0.0]]))) < 1e-9
        assert lda_predict_proba(model, np.array([[0.0]]))[0] == pytest.approx(0.5, abs=1e-9)

    def test_label_swap_negates_the_decision(self, rng):
        x = rng.normal(size=(40, 3))
        y = np.array([0, 1] * 20)
        d_orig = lda_decision(lda_fit(x, y), x)
        d_swap = lda_decision(lda_fit(x, 1 - y), x)
        assert np.abs(d_orig + d_swap).max() < 1e-9

    def test_single_class_rejected(self, rng):
        x = rng.normal(size=(10, 2))
        with pytest.raises(ValueError, match="both classes"):
            lda_fit(x, np.zeros(10, dtype=int))

    def test_posterior_matches_bayes_oracle_at_large_n(self, rng):
        mu0 = np.array([-1.0, 0.5])
        mu1 = np.array([1.0, -0.5])
        cov = np.array([[1.0, 0.3], [0.3, 2.0]])
        chol = np.linalg.cholesky(cov)
        n = 10000
        x0 = rng.normal(size=(n // 2, 2)) @ chol.T + mu0
        x1 = rng.normal(size=(n // 2, 2)) @ chol.T + mu1
        x = np.vstack([x0, x1])
        y = np.array([0] * (n // 2) + [1] * (n // 2))
        model = lda_fit(x, y, shrinkage=1e-8)
        grid = rng.normal(scale=1.5, size=(400, 2))
        p_model = lda_predict_proba(model, grid)
        p_true = bayes_posterior(grid, mu0, mu1, cov)
        kl = p_true * np.log(p_true / p_model) + (1 - p_true) * np.log(
            (1 - p_true) / (1 - p_model)
        )
        assert kl.mean() < 0.01

    def test_point_at_separated_class_mean_is_confident(self):
        x = np.vstack([np.random.default_rng(1).normal(size=(50, 2)) - 8.0,
                       np.random.default_rng(2).normal(size=(50, 2)) + 8.0])
        y = np.array([0] * 50 + [1] * 50)
        model = lda_fit(x, y)
        p = lda_predict_proba(model, np.array([[8.0, 8.0]]))
        assert p[0] > 0.99

    def test_shrinkage_keeps_high_dimensional_fit_solvable(self, rng):
        x = rng.normal(size=(20, 50))  # n < D
        y = np.array([0, 1] * 10)
        model = lda_fit(x, y, shrinkage=1e-4)
        p = lda_predict_proba(model, x)
        assert np.all((p > 0.0) & (p < 1.0))

    def test_priors_reflect_class_frequencies(self, rng):
        x = np.vstack([rng.normal(size=(30, 2)), rng.normal(size=(10, 2))])
        y = np.array([0] * 30 + [1] * 10)
        model = lda_fit(x, y)
        assert np.exp(model.log_priors).tolist() == pytest.approx([0.75, 0.25])

    def test_shrinkage_validation(self, rng):
        x = rng.normal(size=(10, 2))
        y = np.array([0, 1] * 5)
        with pytest.raises(ValueError):
            lda_fit(x, y, shrinkage=1.5)


class TestPredict:
    def test_probability_monotone_along_discriminant_axis(self, rng):
        x = np.vstack([rng.normal(size=(100, 2)) - 2.0, rng.normal(size=(100, 2)) + 2.0])
        y = np.array([0] * 100 + [1] * 100)
        model = lda_fit(x, y)
        direction = model.class_means[1] - model.class_means[0]
        line = np.outer(np.linspace(-5, 5, 61), direction)
        p = lda_predict_proba(model, line)
        assert np.all(np.diff(p) >= 0)

    def test_dimension_mismatch(self, rng):
        model = lda_fit(rng.normal(size=(10, 3)), np.array([0, 1] * 5))
        with pytest.raises(ValueError):
            lda_predict_proba(model, np.ones((2, 5)))

    def test_affine_invariance_of_decisions(self, rng):
        x = np.vstack([rng.normal(size=(60, 3)) - 1.0, rng.normal(size=(60, 3)) + 1.0])
        y = np.array([0] * 60 + [1] * 60)
        a = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)  # invertible
        b = rng.normal(size=3)
        x_mapped = x @ a.T + b
        p_orig = lda_predict_proba(lda_fit(x, y, shrinkage=0.0), x)
        p_mapped = lda_predict_proba(lda_fit(x_mapped, y, shrinkage=0.0), x_mapped)
        assert np.abs(p_orig - p_mapped).max() < 1e-8
        assert np.array_equal(p_orig > 0.5, p_mapped > 0.5)


def random_problem(seed: int, n: int, d: int):
    """Training data with unequal column scales and offsets, labels holding
    both classes, and held-out rows."""
    rng = np.random.default_rng(seed)
    scales = rng.uniform(0.1, 5.0, size=d)
    x = rng.normal(size=(n, d)) * scales + rng.normal(scale=10.0, size=d)
    y = rng.permutation(np.arange(n) % 2)
    x_test = rng.normal(size=(15, d)) * scales + x.mean(axis=0)
    return x, y, x_test


def relative_gap(decision, oracle):
    return np.abs(decision - oracle).max() / np.abs(oracle).max()


def matches_oracle(x, y, x_test, shrinkage) -> float:
    got = lda_decision(lda_fit(x, y, shrinkage), x_test)
    return relative_gap(got, lda_oracle.lda_decision(lda_oracle.lda_fit(x, y, shrinkage), x_test))


class TestSampleSpaceSolve:
    """``lda_fit`` solves in the smaller of feature and sample space; the
    feature-space Cholesky oracle must give the same decisions."""

    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(6, 40),
        shape=st.sampled_from(["d<n", "d=n", "d>>n"]),
        log_shrinkage=st.floats(-4.0, 0.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_decisions_and_pca_match_the_oracles(self, seed, n, shape, log_shrinkage):
        d = {"d<n": max(1, n // 3), "d=n": n, "d>>n": 12 * n}[shape]
        x, y, x_test = random_problem(seed, n, d)
        assert matches_oracle(x, y, x_test, 10.0**log_shrinkage) <= 1e-9
        target = np.random.default_rng(seed).uniform(0.5, 1.0)
        model = pca_fit(x, target)
        components, ratio = lda_oracle.pca_fit(x, target)
        assert model.components.shape[0] == components.shape[0]
        assert np.abs(model.explained_variance_ratio - ratio).max() <= 1e-9
        cosines = np.linalg.svd(
            np.linalg.qr(model.components.T)[0].T @ np.linalg.qr(components.T)[0],
            compute_uv=False,
        )
        assert cosines.min() >= 1.0 - 1e-9

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("shrinkage", [1e-4, 0.3, 1.0])
    def test_both_sides_of_the_switch_match_the_oracle(self, offset, shrinkage):
        n = 24
        x, y, x_test = random_problem(7 + offset, n, n + offset)
        assert matches_oracle(x, y, x_test, shrinkage) <= 1e-9

    @pytest.mark.parametrize("d", [5, 200])
    def test_full_shrinkage_is_the_scaled_identity(self, d):
        x, y, x_test = random_problem(3, 20, d)
        with np.errstate(all="raise"):
            model = lda_fit(x, y, shrinkage=1.0)
        means = model.class_means
        centered = x - means[y]
        tau = (centered**2).sum() / centered.size
        expected = (x_test - means.mean(axis=0)) @ (means[1] - means[0]) / tau
        expected += model.log_priors[1] - model.log_priors[0]
        assert relative_gap(lda_decision(model, x_test), expected) <= 1e-12

    def test_zero_shrinkage_with_more_features_than_trials_is_singular(self):
        x, y, _ = random_problem(5, 12, 30)
        with pytest.raises(ValueError, match="singular even after shrinkage"):
            lda_fit(x, y, shrinkage=0.0)
        with pytest.raises(ValueError, match="singular even after shrinkage"):
            lda_oracle.lda_fit(x, y, shrinkage=0.0)

    def test_identical_trials_within_each_class_are_singular(self):
        # Zero pooled covariance: the identity target tau * I is zero too.
        x = np.repeat([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], 4, axis=0)
        y = np.repeat([0, 1], 4)
        for shrinkage in (1e-4, 1.0):
            with pytest.raises(ValueError, match="singular even after shrinkage"):
                lda_fit(x, y, shrinkage)
            with pytest.raises(ValueError, match="singular even after shrinkage"):
                lda_fit(np.tile(x, 3), y, shrinkage)


class TestNonFiniteInput:
    @pytest.mark.parametrize("d", [3, 40])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_fit_rejects(self, d, bad):
        x, y, _ = random_problem(1, 10, d)
        x[4, d - 1] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            lda_fit(x, y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_decision_and_proba_reject(self, bad):
        x, y, x_test = random_problem(2, 10, 40)
        model = lda_fit(x, y)
        x_test[3, 0] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            lda_decision(model, x_test)
        with pytest.raises(ValueError, match="infs or NaNs"):
            lda_predict_proba(model, x_test[3])
