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
the platform's math library. The inverse CDF is a numpy port of Cephes
``ndtri``, bit-identical to ``scipy.special.ndtri``: the same rational
approximations in the same Horner order, with only exact IEEE operations
(``*``, ``+``, ``/``, ``sqrt``) done in numpy and the tail's ``log`` taken
from libm through ``math.log``, as the compiled Cephes code does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import sigmoid
from .metrics import GROUPS

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


# Cephes ndtri.c coefficients, highest power first; each Q has the implicit
# leading 1 of Cephes p1evl written out (1.0 * x is exact, so the bits agree).
# x / sqrt(2 pi) = w + w^3 P0(w^2) / Q0(w^2), w = y - 0.5, for exp(-2) < y <= 1 - exp(-2)
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
       1.39312609387279679503E1, -1.23916583867381258016E0)
_Q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
       -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
# tail correction for 2 <= sqrt(-2 log y) < 8, i.e. exp(-32) < y <= exp(-2)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
       4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_Q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
       1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
# tail correction for sqrt(-2 log y) >= 8
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
       1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_Q2 = (1.0, 6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
       2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242  # sqrt(2 pi)


def _polevl(x: np.ndarray, coef) -> np.ndarray:
    """Cephes polevl: Horner's rule, one rounded multiply and add per step."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _libm_log(a: np.ndarray) -> np.ndarray:
    # np.log may use its own SIMD kernels, which differ from libm in the last bit
    return np.fromiter(map(math.log, a.tolist()), dtype=float, count=a.size)


def _ndtri(y0: np.ndarray) -> np.ndarray:
    """Inverse of the standard normal CDF for ``0 < y0 < 1``, elementwise.

    A port of Cephes ``ndtri`` giving the bits ``scipy.special.ndtri`` gives.
    """
    y0 = np.asarray(y0, dtype=float)
    upper = y0 > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - y0, y0)
    out = np.empty_like(y)

    central = y > _EXP_M2
    yc = y[central] - 0.5
    y2 = yc * yc
    out[central] = (yc + yc * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))) * _S2PI

    tail = ~central
    x = np.sqrt(-2.0 * _libm_log(y[tail]))
    x0 = x - _libm_log(x) / x
    z = 1.0 / x
    x1 = z * _polevl(z, _P1) / _polevl(z, _Q1)
    far = x >= 8.0  # y < exp(-32): all but never reached by uniform draws
    x1[far] = z[far] * _polevl(z[far], _P2) / _polevl(z[far], _Q2)
    x = x0 - x1
    out[tail] = np.where(upper[tail], x, -x)
    return out


def _standard_normal(rng: np.random.Generator, shape) -> np.ndarray:
    u = rng.random(shape)
    # rng.random lives in [0, 1); keep the inverse CDF finite at the left edge
    u = np.where(u == 0.0, 2.0**-54, u)
    return _ndtri(u)


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
    specs = ((0, n_a, cfg.mean_a, cfg.target_pos_rate_a),
             (1, n_b, cfg.mean_b, cfg.target_pos_rate_b))
    for sub, n_g, mean_g, rate_g in specs:
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

    return SyntheticCohort(
        features=np.vstack(blocks),
        labels=np.concatenate(label_blocks),
        groups=np.repeat(GROUPS, [n_a, n_b]),
    )


@dataclass(frozen=True, eq=False)
class LogisticScorer:
    """Pooled logistic model: scores are sigmoid(X @ weights + intercept)."""

    weights: np.ndarray
    intercept: float

    def score(self, features) -> np.ndarray:
        x = np.asarray(features, dtype=float)
        return sigmoid(x @ self.weights + self.intercept)


def _holds_two_values(y: np.ndarray) -> bool:
    """``len(np.unique(y)) >= 2``, where nans count as one value and -0.0
    equals 0.0, by comparison with the first value: ``np.unique`` imports
    ``numpy.ma``, which no other step of a run needs."""
    flat = y.ravel()
    if len(flat) == 0:
        return False
    if np.isnan(flat[0]):
        return not np.all(np.isnan(flat))
    return bool(np.any(flat != flat[0]))


def fit_logistic_scorer(features, labels) -> LogisticScorer:
    """Full-batch gradient descent on L2-regularized log loss.

    Fixed recipe (500 iterations, step 0.1, weight decay 1e-4 on the weights
    only), so the fit is deterministic given the data order.
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    if x.ndim != 2 or len(x) != len(y):
        raise ValueError("features must be (n, d) aligned with labels")
    if not _holds_two_values(y):
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
