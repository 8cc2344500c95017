"""Rank statistics over scored, labeled, group-tagged records.

All estimators count strictly-greater score pairs with integer arithmetic and
divide once at the end, so an O(N log N) implementation returns bit-identical
results to brute-force pair enumeration. Ties never earn credit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._util import ceil_count

GROUP_A = "a"
GROUP_B = "b"
GROUPS = (GROUP_A, GROUP_B)


def _check_scores(scores: np.ndarray) -> None:
    if scores.size and (not np.all(np.isfinite(scores)) or scores.min() < 0.0 or scores.max() > 1.0):
        raise ValueError("scores must be finite and in [0, 1]")


@dataclass(frozen=True, eq=False)
class ScoreSet:
    """Ordered collection of scored records backed by parallel arrays."""

    scores: np.ndarray
    labels: np.ndarray
    groups: np.ndarray

    def __post_init__(self) -> None:
        scores = np.asarray(self.scores, dtype=float)
        labels = np.asarray(self.labels, dtype=np.int64)
        groups = np.asarray(self.groups, dtype="U1")
        if not (scores.ndim == labels.ndim == groups.ndim == 1):
            raise ValueError("scores, labels and groups must be 1-dimensional")
        if not (len(scores) == len(labels) == len(groups)):
            raise ValueError("scores, labels and groups must have equal length")
        _check_scores(scores)
        if not np.all((labels == 0) | (labels == 1)):
            raise ValueError("labels must be 0 or 1")
        if not np.all(np.isin(groups, GROUPS)):
            raise ValueError(f"groups must be one of {GROUPS}")
        for name, arr in (("scores", scores), ("labels", labels), ("groups", groups)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.scores)

    @cached_property
    def n_pos(self) -> int:
        return int(np.sum(self.labels == 1))

    @cached_property
    def n_neg(self) -> int:
        return int(np.sum(self.labels == 0))

    def count(self, label: int, group: str) -> int:
        return int(np.sum((self.labels == label) & (self.groups == group)))

    def group_mask(self, group: str) -> np.ndarray:
        if group not in GROUPS:
            raise ValueError(f"group must be one of {GROUPS}, got {group!r}")
        return self.groups == group

    def group_scores(self, group: str) -> np.ndarray:
        """Scores of one group, in record order."""
        return self.scores[self.group_mask(group)]

    def class_scores(self, label: int, group: str | None = None) -> np.ndarray:
        mask = self.labels == label
        if group is not None:
            mask &= self.group_mask(group)
        return self.scores[mask]

    @classmethod
    def _derived(cls, scores, labels, groups) -> "ScoreSet":
        """Set over records taken from already-validated sets: the checks in
        ``__post_init__`` are not rerun. The arrays are made read-only."""
        out = object.__new__(cls)
        for name, arr in (("scores", scores), ("labels", labels), ("groups", groups)):
            arr.setflags(write=False)
            object.__setattr__(out, name, arr)
        return out

    def subset(self, indices: np.ndarray) -> "ScoreSet":
        """New set containing the records at ``indices``, in the given order."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.ndim != 1:
            raise ValueError("indices must be 1-dimensional")
        return ScoreSet._derived(self.scores[idx], self.labels[idx], self.groups[idx])

    def replace_group_scores(self, group: str, new_scores: np.ndarray) -> "ScoreSet":
        """Copy with one group's scores replaced, aligned to that group's record
        order. Labels and groups are shared with this set."""
        mask = self.group_mask(group)
        new_scores = np.asarray(new_scores, dtype=float)
        if new_scores.shape != (int(mask.sum()),):
            raise ValueError(
                f"expected {int(mask.sum())} scores for group {group!r}, got {new_scores.shape}"
            )
        _check_scores(new_scores)
        scores = self.scores.copy()
        scores[mask] = new_scores
        return ScoreSet._derived(scores, self.labels, self.groups)


def require_both_groups(score_set: ScoreSet, name: str) -> None:
    """Raise ``ValueError`` unless ``score_set`` holds records of both groups."""
    for g in GROUPS:
        if not np.any(score_set.group_mask(g)):
            raise ValueError(f"{name} set contains no group {g!r} records")


@dataclass(frozen=True)
class TopAlphaRegion:
    """The ceil(alpha * N) highest-scoring indices of a ScoreSet.

    Ties at the threshold are broken toward lower original index so the region
    always contains exactly ``n_alpha`` members.
    """

    alpha: float
    n_alpha: int
    threshold: float
    member_indices: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        idx = np.asarray(self.member_indices, dtype=np.int64)
        idx.setflags(write=False)
        object.__setattr__(self, "member_indices", idx)
        if len(idx) != self.n_alpha:
            raise ValueError("member_indices size must equal n_alpha")


def _pairs_above(pos_scores: np.ndarray, neg_scores: np.ndarray) -> int:
    """Count (positive, negative) pairs with strictly greater positive score."""
    if len(pos_scores) == 0 or len(neg_scores) == 0:
        return 0
    neg_sorted = np.sort(neg_scores)
    below = np.searchsorted(neg_sorted, pos_scores, side="left")
    return int(below.sum())


def auc(s: ScoreSet) -> float:
    """Fraction of (positive, negative) pairs ranked correctly, strict inequality.

    Returns 0.0 when either class is empty: no valid comparisons exist.
    """
    pos = s.class_scores(1)
    neg = s.class_scores(0)
    if len(pos) == 0 or len(neg) == 0:
        return 0.0
    return _pairs_above(pos, neg) / (len(pos) * len(neg))


def xauc(s: ScoreSet, from_group: str, to_group: str) -> float:
    """Fraction of cross-group pairs where a ``from_group`` positive outranks a
    ``to_group`` negative. Empty index sets yield 0.0 by convention."""
    if from_group == to_group:
        raise ValueError("xauc requires two distinct groups")
    pos = s.class_scores(1, from_group)
    neg = s.class_scores(0, to_group)
    if len(pos) == 0 or len(neg) == 0:
        return 0.0
    return _pairs_above(pos, neg) / (len(pos) * len(neg))


def xauc_disparity(s: ScoreSet) -> float:
    """Absolute gap between the two cross-group ranking probabilities."""
    return abs(xauc(s, GROUP_A, GROUP_B) - xauc(s, GROUP_B, GROUP_A))


def top_alpha_region(s: ScoreSet, alpha: float) -> TopAlphaRegion:
    """Select the ceil(alpha * N) records with the highest scores.

    Ties at the threshold keep the record with the lower original index, so the
    selection is deterministic and has exactly the requested size.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    n = len(s)
    if n < 1:
        raise ValueError("cannot take a top region of an empty ScoreSet")
    n_alpha = max(1, ceil_count(alpha, n))
    if n_alpha == n:
        # The whole set needs no sort: the record ranked last by the stable
        # sort below is the last one holding the lowest score.
        last = n - 1 - int(np.argmin(s.scores[::-1]))
        return TopAlphaRegion(
            alpha=alpha, n_alpha=n, threshold=float(s.scores[last]), member_indices=np.arange(n)
        )
    order = np.argsort(-s.scores, kind="stable")
    chosen = order[:n_alpha]
    threshold = float(s.scores[chosen[-1]])
    return TopAlphaRegion(
        alpha=alpha,
        n_alpha=n_alpha,
        threshold=threshold,
        member_indices=np.sort(chosen),
    )


def pauc(s: ScoreSet, region: TopAlphaRegion) -> float:
    """AUC restricted to the region's records.

    Degenerate regions use the top-region conventions: no positives gives 0.0
    (failed separation, checked first), no negatives gives 1.0 (perfect
    separation).
    """
    labels = s.labels[region.member_indices]
    scores = s.scores[region.member_indices]
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if len(pos) == 0:
        return 0.0
    if len(neg) == 0:
        return 1.0
    return _pairs_above(pos, neg) / (len(pos) * len(neg))


def pxauc(s: ScoreSet, region: TopAlphaRegion, from_group: str, to_group: str) -> float:
    """Cross-group ranking probability restricted to the region; 0.0 on empty sets."""
    if from_group == to_group:
        raise ValueError("pxauc requires two distinct groups")
    labels = s.labels[region.member_indices]
    scores = s.scores[region.member_indices]
    groups = s.groups[region.member_indices]
    pos = scores[(labels == 1) & (groups == from_group)]
    neg = scores[(labels == 0) & (groups == to_group)]
    if len(pos) == 0 or len(neg) == 0:
        return 0.0
    return _pairs_above(pos, neg) / (len(pos) * len(neg))


def pxauc_disparity(s: ScoreSet, region: TopAlphaRegion) -> float:
    """Absolute cross-group gap among the region's records."""
    return abs(
        pxauc(s, region, GROUP_A, GROUP_B) - pxauc(s, region, GROUP_B, GROUP_A)
    )


def evaluate(s: ScoreSet, mode: str) -> tuple[float, float]:
    """(accuracy, disparity) of an evaluated set: AUC and xAUC disparity in
    global mode; in partial mode, where ``s`` holds the top region's records,
    pAUC and pxAUC disparity over all of them."""
    if mode == "global":
        return auc(s), xauc_disparity(s)
    whole = top_alpha_region(s, 1.0)
    return pauc(s, whole), pxauc_disparity(s, whole)
