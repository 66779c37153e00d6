"""Feature-space shrinkage LDA and SVD PCA: the oracles that the package's
``lda_fit``/``lda_decision`` and ``pca_fit`` must reproduce.

This is the package's implementation as it stood before LDA solved in the
smaller of feature and sample space and PCA took the eigenvectors of the
sample Gram: a D x D Cholesky factor of the shrunk pooled covariance, scored
as the difference of two quadratic forms, and the SVD of the centred data.
Test-only code: keep it unchanged, so that a change to the package cannot
move the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky, solve_triangular


@dataclass(frozen=True)
class OracleLdaModel:
    class_means: np.ndarray  # (2, D)
    covariance_factor: np.ndarray  # lower Cholesky factor of the shrunk pooled cov
    log_priors: np.ndarray  # (2,)
    shrinkage: float


def lda_fit(x: np.ndarray, y: np.ndarray, shrinkage: float) -> OracleLdaModel:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    n, d = x.shape
    means = np.stack([x[y == c].mean(axis=0) for c in (0, 1)])
    pooled = np.zeros((d, d))
    for c in (0, 1):
        centered = x[y == c] - means[c]
        pooled += centered.T @ centered
    pooled /= n  # population convention, weights the classes by frequency
    target = np.trace(pooled) / d
    shrunk = (1.0 - shrinkage) * pooled
    shrunk[np.diag_indices(d)] += shrinkage * target
    try:
        factor = cholesky(shrunk, lower=True)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            "pooled covariance is singular even after shrinkage; "
            "increase the shrinkage fraction"
        ) from exc
    priors = np.array([(y == c).mean() for c in (0, 1)])
    return OracleLdaModel(
        class_means=means,
        covariance_factor=factor,
        log_priors=np.log(priors),
        shrinkage=shrinkage,
    )


def lda_decision(model: OracleLdaModel, x: np.ndarray) -> np.ndarray:
    """Log posterior odds of class 1 vs class 0 per row."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    log_like = np.empty((x.shape[0], 2))
    for c in (0, 1):
        z = solve_triangular(
            model.covariance_factor, (x - model.class_means[c]).T, lower=True
        )
        log_like[:, c] = -0.5 * np.sum(z**2, axis=0) + model.log_priors[c]
    return log_like[:, 1] - log_like[:, 0]


def pca_fit(x: np.ndarray, variance_target: float) -> tuple[np.ndarray, np.ndarray]:
    """(components (k, D), explained variance ratio (k,)) from the SVD of the
    mean-centred data, with the package's null cut and variance rule."""
    x = np.asarray(x, dtype=float)
    centered = x - x.mean(axis=0)
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    variances = svals**2
    total = variances.sum()
    if total <= 0.0:
        components = np.zeros((1, x.shape[1]))
        components[0, 0] = 1.0
        return components, np.array([1.0])
    ratio = variances / total
    keep = variances > variances[0] * 1e-12
    cumulative = np.cumsum(ratio[keep])
    k = int(np.searchsorted(cumulative, variance_target - 1e-12) + 1)
    k = min(k, int(keep.sum()))
    return vt[:k], ratio[:k]
