"""Small numeric helpers shared across modules."""

from __future__ import annotations

import math

import numpy as np

# Guard against float over-count at exact multiples, e.g. 0.07 * 100 -> 7.000000000000001.
_CEIL_GUARD = 1e-12


def ceil_count(fraction: float, n: int) -> int:
    """Number of items in the top ``fraction`` of ``n``, i.e. ceil(fraction * n).

    The product is nudged down by a tiny epsilon before the ceiling so that
    fractions whose product is an exact integer are not rounded up by
    floating-point noise.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    count = math.ceil(fraction * n - _CEIL_GUARD)
    return max(0, min(n, count))


def position_dtype(n: int) -> type:
    """The dtype of an array of positions in ``[0, n)`` that is kept between
    steps: int32 for a set of fewer than 2**31 records, int64 from there.
    Positions are only ever used to index; any sum or product of them is to
    be taken in int64, since int32 arithmetic wraps silently."""
    return np.int32 if n < 2**31 else np.int64


def is_sorted(values: np.ndarray) -> bool:
    """Whether ``values`` is nondecreasing (a NaN makes it not), so that a
    stable argsort of it is the identity and a gather by that sort a copy."""
    return bool(np.all(values[:-1] <= values[1:]))


def top_mask(scores: np.ndarray, k: int) -> np.ndarray:
    """Mask of the ``k`` highest of ``scores`` (which hold no NaN), ties at
    the k-th taken toward the lower position: the first ``k`` positions of a
    stable descending argsort, found in O(n) without the sort. Zeros of both
    signs are one tie group, as they are to a sort."""
    if k <= 0:
        return np.zeros(len(scores), dtype=bool)
    threshold = np.partition(scores, -k)[-k]
    mask = scores > threshold
    mask[np.flatnonzero(scores == threshold)[: k - np.count_nonzero(mask)]] = True
    return mask


def sigmoid(x):
    """Numerically stable logistic function, elementwise."""
    x = np.asarray(x, dtype=float)
    # exp(-|x|) never overflows; it is exp(-x) where x >= 0 and exp(x) below
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e) / (1.0 + e)
    if out.ndim == 0:
        return float(out)
    return out
