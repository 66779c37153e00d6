"""Two-class Gaussian LDA with a shrinkage-regularized pooled covariance.

The pooled covariance is shrunk toward its scaled-identity target,
(1 - a) * S + a * (tr(S)/D) * I, which keeps the solve well posed when the
flattened feature dimension exceeds the sample count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_SHRINKAGE = 1e-4


@dataclass(frozen=True)
class LdaModel:
    class_means: np.ndarray  # (2, D)
    covariance_factor: np.ndarray  # lower Cholesky factor of the shrunk pooled cov
    log_priors: np.ndarray  # (2,)
    shrinkage: float


def lda_fit(x: np.ndarray, y: np.ndarray, shrinkage: float = DEFAULT_SHRINKAGE) -> LdaModel:
    from scipy.linalg import cholesky

    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError(f"x {x.shape} and y {y.shape} are inconsistent")
    if not 0.0 <= shrinkage <= 1.0:
        raise ValueError(f"shrinkage must be in [0, 1], got {shrinkage}")
    classes = np.unique(y)
    if not np.array_equal(classes, [0, 1]):
        raise ValueError(f"need both classes 0 and 1 in y, got {classes.tolist()}")
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
    return LdaModel(
        class_means=means,
        covariance_factor=factor,
        log_priors=np.log(priors),
        shrinkage=shrinkage,
    )


def lda_decision(model: LdaModel, x: np.ndarray) -> np.ndarray:
    """Log posterior odds of class 1 vs class 0 per row."""
    from scipy.linalg import solve_triangular

    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    x = np.atleast_2d(x)
    if x.shape[1] != model.class_means.shape[1]:
        raise ValueError(
            f"input has {x.shape[1]} features, model expects "
            f"{model.class_means.shape[1]}"
        )
    log_like = np.empty((x.shape[0], 2))
    for c in (0, 1):
        z = solve_triangular(
            model.covariance_factor, (x - model.class_means[c]).T, lower=True
        )
        log_like[:, c] = -0.5 * np.sum(z**2, axis=0) + model.log_priors[c]
    decision = log_like[:, 1] - log_like[:, 0]
    return decision[0] if squeeze else decision


def lda_predict_proba(model: LdaModel, x: np.ndarray) -> np.ndarray:
    """Class-1 posterior per row (softmax of log Gaussian likelihood + prior)."""
    decision = lda_decision(model, x)
    with np.errstate(over="ignore"):
        p = 1.0 / (1.0 + np.exp(-decision))
    return np.clip(p, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
