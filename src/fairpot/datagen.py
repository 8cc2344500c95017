"""Synthetic two-group cohort with a built-in logistic scorer.

Randomness comes from PCG64 generators keyed by (seed, stage, substream)
through SeedSequence spawn keys, so every stage reads an independent,
platform-stable stream:

    stage 0  features      (substream 0 = group a, 1 = group b)
    stage 1  coefficients  (substream 0 = group a, 1 = group b)
    stage 2  labels        (substream 0 = group a, 1 = group b)
    stage 3  train/test split shuffling
    stage 4  bootstrap resampling

Gaussians are drawn by pushing uniform variates through the normal inverse
CDF rather than a rejection sampler, keeping the stream layout independent of
the platform's math library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import sigmoid
from .metrics import GROUP_A, GROUP_B

STAGE_FEATURES = 0
STAGE_COEFFS = 1
STAGE_LABELS = 2
STAGE_SPLIT = 3
STAGE_BOOTSTRAP = 4

_CALIBRATION_TOL = 1e-3
_GD_ITERATIONS = 500
_GD_STEP = 0.1
_GD_L2 = 1e-4


def stream(seed: int, stage: int, substream: int = 0) -> np.random.Generator:
    """Independent generator for one (seed, stage, substream) slot."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(stage, substream))
    return np.random.Generator(np.random.PCG64(seq))


def _standard_normal(rng: np.random.Generator, shape) -> np.ndarray:
    # imported here, so that only runs drawing a cohort load scipy
    from scipy.special import ndtri

    u = rng.random(shape)
    # rng.random lives in [0, 1); keep the inverse CDF finite at the left edge
    u = np.where(u == 0.0, 2.0**-54, u)
    return ndtri(u)


@dataclass(frozen=True)
class SyntheticConfig:
    """Cohort recipe: size, per-group feature means, target positive rates."""

    n_samples: int = 3000
    n_features: int = 5
    mean_a: float = 0.8
    mean_b: float = 0.1
    std: float = 1.0
    target_pos_rate_a: float = 0.3
    target_pos_rate_b: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError("n_samples must be positive")
        if self.n_features < 0:
            raise ValueError("n_features must be non-negative")
        if self.std <= 0:
            raise ValueError("std must be positive")
        for rate in (self.target_pos_rate_a, self.target_pos_rate_b):
            if not 0.0 < rate < 1.0:
                raise ValueError(f"target positive rates must be in (0, 1), got {rate}")


@dataclass(frozen=True, eq=False)
class SyntheticCohort:
    """Feature table with labels and a group column, group a rows first."""

    features: np.ndarray
    labels: np.ndarray
    groups: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)


def calibrate_intercept(linear_term: np.ndarray, target_rate: float) -> float:
    """Bisect the intercept until the mean sigmoid score is within 1e-3 of the
    target positive rate."""
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        mean_score = float(np.mean(sigmoid(linear_term + mid)))
        if abs(mean_score - target_rate) <= _CALIBRATION_TOL:
            return mid
        if mean_score < target_rate:
            lo = mid
        else:
            hi = mid
    raise RuntimeError("intercept calibration did not converge")


def generate_synthetic(cfg: SyntheticConfig) -> SyntheticCohort:
    """Draw the two-group cohort: group-specific Gaussian features, per-group
    logistic scoring functions with calibrated intercepts, Bernoulli labels."""
    n_a = math.ceil(cfg.n_samples / 2)
    n_b = cfg.n_samples - n_a

    blocks = []
    label_blocks = []
    group_blocks = []
    specs = ((GROUP_A, 0, n_a, cfg.mean_a, cfg.target_pos_rate_a),
             (GROUP_B, 1, n_b, cfg.mean_b, cfg.target_pos_rate_b))
    for group, sub, n_g, mean_g, rate_g in specs:
        if n_g == 0:
            continue
        x = mean_g + cfg.std * _standard_normal(
            stream(cfg.seed, STAGE_FEATURES, sub), (n_g, cfg.n_features)
        )
        coeffs = _standard_normal(stream(cfg.seed, STAGE_COEFFS, sub), cfg.n_features)
        linear = x @ coeffs
        intercept = calibrate_intercept(linear, rate_g)
        prob = sigmoid(linear + intercept)
        u = stream(cfg.seed, STAGE_LABELS, sub).random(n_g)
        labels = (u < prob).astype(np.int64)
        blocks.append(x)
        label_blocks.append(labels)
        group_blocks.append(np.full(n_g, group, dtype="U1"))

    return SyntheticCohort(
        features=np.vstack(blocks),
        labels=np.concatenate(label_blocks),
        groups=np.concatenate(group_blocks),
    )


@dataclass(frozen=True, eq=False)
class LogisticScorer:
    """Pooled logistic model: scores are sigmoid(X @ weights + intercept)."""

    weights: np.ndarray
    intercept: float

    def score(self, features) -> np.ndarray:
        x = np.asarray(features, dtype=float)
        return sigmoid(x @ self.weights + self.intercept)


def fit_logistic_scorer(features, labels) -> LogisticScorer:
    """Full-batch gradient descent on L2-regularized log loss.

    Fixed recipe (500 iterations, step 0.1, weight decay 1e-4 on the weights
    only), so the fit is deterministic given the data order.
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    if x.ndim != 2 or len(x) != len(y):
        raise ValueError("features must be (n, d) aligned with labels")
    if len(np.unique(y)) < 2:
        raise ValueError("training data must contain both label classes")
    n, d = x.shape
    w = np.zeros(d)
    b = 0.0
    for _ in range(_GD_ITERATIONS):
        resid = sigmoid(x @ w + b) - y
        grad_w = x.T @ resid / n + _GD_L2 * w
        grad_b = float(np.add.reduce(resid)) / n
        w -= _GD_STEP * grad_w
        b -= _GD_STEP * grad_b
    return LogisticScorer(weights=w, intercept=b)
