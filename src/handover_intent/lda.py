"""Two-class Gaussian LDA with a shrinkage-regularized pooled covariance.

The pooled covariance S = Xc^T Xc / n of the within-class-centred training
data Xc (n, D) is shrunk toward its scaled-identity target,
Sigma = (1 - a) * S + a * tau * I with tau = tr(S) / D, which keeps the solve
well posed when the flattened feature dimension exceeds the sample count.

Equal class covariances make the log posterior odds linear in x, so the
model is a weight vector w = Sigma^-1 (mu_1 - mu_0) and an intercept; no
quadratic form is evaluated at scoring time.  w is solved in the smaller of
the two spaces: the D x D system when D <= n, otherwise the n x n system of
the push-through (Woodbury) identity,

    w = (v - (1 - a) Xc^T M^-1 Xc v) / (a tau),
    M = (1 - a) Xc Xc^T + n a tau I,  v = mu_1 - mu_0,

which costs O(n^2 D + n^3) instead of O(n D^2 + D^3) and has no division by
1 - a, so a = 1 gives Sigma = tau * I exactly.  Shrinkage LDA on ERP-style
features: Blankertz et al., NeuroImage 56 (2011).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_SHRINKAGE = 1e-4

_SINGULAR = (
    "pooled covariance is singular even after shrinkage; "
    "increase the shrinkage fraction"
)


@dataclass(frozen=True)
class LdaModel:
    class_means: np.ndarray  # (2, D)
    weights: np.ndarray  # (D,), Sigma^-1 (mu_1 - mu_0)
    intercept: float  # log-odds at x = 0
    log_priors: np.ndarray  # (2,)
    shrinkage: float


def _require_finite(x: np.ndarray) -> None:
    # LAPACK would not reject them; a NaN score would turn into a NaN AUC
    # instead of a recorded window error.
    if not np.isfinite(x).all():
        raise ValueError("array must not contain infs or NaNs")


def lda_fit(x: np.ndarray, y: np.ndarray, shrinkage: float = DEFAULT_SHRINKAGE) -> LdaModel:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError(f"x {x.shape} and y {y.shape} are inconsistent")
    if not 0.0 <= shrinkage <= 1.0:
        raise ValueError(f"shrinkage must be in [0, 1], got {shrinkage}")
    classes = np.unique(y)
    if not np.array_equal(classes, [0, 1]):
        raise ValueError(f"need both classes 0 and 1 in y, got {classes.tolist()}")
    _require_finite(x)
    n, d = x.shape
    a = shrinkage
    is_one = y == 1
    means = np.stack([x[~is_one].mean(axis=0), x[is_one].mean(axis=0)])
    xc = x - means[is_one.astype(np.intp)]
    tau = np.vdot(xc, xc) / (n * d)
    v = means[1] - means[0]
    if d <= n:
        shrunk = ((1.0 - a) / n) * (xc.T @ xc)
        shrunk[np.diag_indices(d)] += a * tau
        try:
            factor = np.linalg.cholesky(shrunk)
        except np.linalg.LinAlgError as exc:
            raise ValueError(_SINGULAR) from exc
        weights = np.linalg.solve(factor.T, np.linalg.solve(factor, v))
    else:
        # Sigma has rank <= n - 2 < D without the identity term.
        if a * tau <= 0.0:
            raise ValueError(_SINGULAR)
        system = (1.0 - a) * (xc @ xc.T)
        system[np.diag_indices(n)] += n * a * tau
        weights = (v - (1.0 - a) * (xc.T @ np.linalg.solve(system, xc @ v))) / (a * tau)
    log_priors = np.log([(~is_one).mean(), is_one.mean()])
    intercept = log_priors[1] - log_priors[0] - 0.5 * (means[0] + means[1]) @ weights
    return LdaModel(
        class_means=means,
        weights=weights,
        intercept=float(intercept),
        log_priors=log_priors,
        shrinkage=shrinkage,
    )


def lda_decision(model: LdaModel, x: np.ndarray) -> np.ndarray:
    """Log posterior odds of class 1 vs class 0 per row."""
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    x = np.atleast_2d(x)
    if x.shape[1] != model.weights.shape[0]:
        raise ValueError(
            f"input has {x.shape[1]} features, model expects {model.weights.shape[0]}"
        )
    _require_finite(x)
    decision = x @ model.weights + model.intercept
    return decision[0] if squeeze else decision


def lda_predict_proba(model: LdaModel, x: np.ndarray) -> np.ndarray:
    """Class-1 posterior per row (logistic of the log posterior odds)."""
    decision = lda_decision(model, x)
    with np.errstate(over="ignore"):
        p = 1.0 / (1.0 + np.exp(-decision))
    return np.clip(p, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
