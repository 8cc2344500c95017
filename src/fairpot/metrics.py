"""Rank statistics over scored, labeled, group-tagged records.

All estimators count strictly-greater score pairs with integer arithmetic and
divide once at the end, so an O(N log N) implementation returns bit-identical
results to brute-force pair enumeration. Ties never earn credit.

Each ScoreSet counts its pairs once, in one table (``ScoreSet.pair_counts``):
the records are split into the four (label, group) cells, each cell is sorted
once, and C[g, h], the number of group-g positives scored strictly above
group-h negatives, is read off with sorted queries. AUC is sum(C) / (P * N)
and xAUC(g -> h) is C[g, h] / (P_g * N_h), so ``auc`` and ``xauc_disparity``
on one set share the table; ``pauc`` and ``pxauc`` read the table of the
region's records, which is the set's own when the region holds all of it.

A sweep goes from a replicate's draw to its points through ``select_region``,
the records a method is fitted or evaluated on, ``region_cells``, those
records' cells as positions in the test set, and ``evaluate_cells``, the
metrics of one lambda's mapped scores on them; ``transport.evaluate_grid``
walks them over every replicate and lambda.

The top-alpha region of ``top_alpha_region`` and ``select_region`` is taken
on a score array by ``_util.top_mask``: the k highest scores, ties toward the
lower position. The top-lambda move of ``transport.fit_and_map`` selects by
the same function. A ``TopAlphaRegion`` is nothing but its members'
positions, which ``pauc`` and ``pxauc`` read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._util import ceil_count, position_dtype, top_mask

GROUP_A = "a"
GROUP_B = "b"
GROUPS = (GROUP_A, GROUP_B)


def _check_group(group: str) -> None:
    if group not in GROUPS:
        raise ValueError(f"group must be one of {GROUPS}, got {group!r}")


def _check_scores(scores: np.ndarray) -> None:
    if scores.size and (not np.all(np.isfinite(scores)) or scores.min() < 0.0 or scores.max() > 1.0):
        raise ValueError("scores must be finite and in [0, 1]")


def _all_in(values: np.ndarray, allowed: tuple, kinds: str) -> bool:
    """Whether each of ``values``, as given and not cast, is one of ``allowed``.
    A dtype kind outside ``kinds`` is not compared: numpy 1.24 warns on
    comparing strings with numbers."""
    return values.size == 0 or (
        values.dtype.kind in kinds and np.logical_or.reduce([values == v for v in allowed]).all()
    )


def _positions(indices) -> np.ndarray:
    """``indices`` as an array: integers of any width, or an empty input of
    any dtype. A bool mask or floats are not read as positions."""
    idx = np.asarray(indices)
    if idx.size and idx.dtype.kind not in "iu":
        raise ValueError(f"indices must be integers, got dtype {idx.dtype}")
    return idx


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False, init=False)
class ScoreSet:
    """Ordered collection of scored records, built from parallel arrays of
    scores, 0/1 labels and ``GROUPS`` tags. A record is stored as 10 bytes:
    its float64 score and two bool masks, ``is_pos`` (label 1) and
    ``in_group_a`` (every other record is in group b). All three arrays are
    read-only; a set of the same records with new scores shares the masks."""

    scores: np.ndarray
    is_pos: np.ndarray
    in_group_a: np.ndarray

    def __init__(self, scores, labels, groups) -> None:
        scores = np.asarray(scores, dtype=float)
        labels, groups = np.asarray(labels), np.asarray(groups)
        if not (scores.ndim == labels.ndim == groups.ndim == 1):
            raise ValueError("scores, labels and groups must be 1-dimensional")
        if not (len(scores) == len(labels) == len(groups)):
            raise ValueError("scores, labels and groups must have equal length")
        _check_scores(scores)
        if not _all_in(labels, (0, 1), "biuf"):
            raise ValueError("labels must be 0 or 1")
        if not _all_in(groups, GROUPS, "UO"):
            raise ValueError(f"groups must be one of {GROUPS}")
        # cast only once checked: a cast to int64 or one character would turn
        # 0.5 into 0 and "ab" into "a"
        is_pos = labels.astype(np.int64, copy=False) == 1
        in_group_a = groups.astype("U1", copy=False) == GROUP_A
        for name, arr in (("scores", scores), ("is_pos", is_pos), ("in_group_a", in_group_a)):
            object.__setattr__(self, name, _read_only(arr))

    def __len__(self) -> int:
        return len(self.scores)

    @property
    def labels(self) -> np.ndarray:
        """The records' labels, as a read-only int64 array of 0s and 1s made
        on each call."""
        return _read_only(self.is_pos.astype(np.int64))

    @property
    def groups(self) -> np.ndarray:
        """The records' groups, as a read-only one-character (``U1``) array
        made on each call."""
        return _read_only(np.where(self.in_group_a, GROUP_A, GROUP_B))

    @cached_property
    def cells(self) -> dict[tuple[int, str], np.ndarray]:
        """Positions of the records of each (label, group) cell, in record
        order, 4 bytes each below 2**31 records (``_util.position_dtype``).
        Read-only, since sets that hold the same records' labels and groups
        share them."""
        masks = _cell_masks(self.is_pos, self.in_group_a)
        dtype = position_dtype(len(self))
        return {
            cell: _read_only(np.flatnonzero(mask).astype(dtype, copy=False))
            for cell, mask in masks.items()
        }

    @cached_property
    def pair_counts(self) -> "PairCounts":
        """Strict pair counts of this set, by group; see ``PairCounts``."""
        return PairCounts.of_ranked(
            {cell: np.sort(self.scores[idx]) for cell, idx in self.cells.items()}
        )

    def group_mask(self, group: str) -> np.ndarray:
        _check_group(group)
        return self.in_group_a if group == GROUP_A else ~self.in_group_a

    def group_scores(self, group: str) -> np.ndarray:
        """Scores of one group, in record order."""
        return self.scores[self.group_mask(group)]

    @classmethod
    def _derived(cls, scores, is_pos, in_group_a, **cached) -> "ScoreSet":
        """Set over already-validated records, such as records taken from
        another set: the checks of ``__init__`` are not rerun. The arrays are
        made read-only; ``cached`` presets cached properties (``cells``,
        ``pair_counts``) that must hold for these records."""
        out = object.__new__(cls)
        for name, arr in (("scores", scores), ("is_pos", is_pos), ("in_group_a", in_group_a)):
            object.__setattr__(out, name, _read_only(arr))
        out.__dict__.update(cached)
        return out

    def subset(self, indices: np.ndarray) -> "ScoreSet":
        """New set containing the records at ``indices``, in the given order.
        Signed integer indices of any width are used as given, not copied,
        and unsigned ones are cast to int64; any other dtype, such as a bool
        mask or floats, is a ValueError unless ``indices`` is empty."""
        idx = _positions(indices)
        if idx.dtype.kind != "i":
            idx = idx.astype(np.int64)
        if idx.ndim != 1:
            raise ValueError("indices must be 1-dimensional")
        return ScoreSet._derived(self.scores[idx], self.is_pos[idx], self.in_group_a[idx])

    def with_scores(self, scores: np.ndarray) -> "ScoreSet":
        """The same records holding ``scores``, one per record in record order.
        The label and group masks are shared with this set, and so are its
        cells once this set holds them; no set computes cells it never
        reads."""
        scores = np.asarray(scores, dtype=float)
        if scores.shape != self.scores.shape:
            raise ValueError(f"expected {len(self)} scores, got {scores.shape}")
        _check_scores(scores)
        cached = {"cells": self.cells} if "cells" in self.__dict__ else {}
        return ScoreSet._derived(scores, self.is_pos, self.in_group_a, **cached)

    def replace_group_scores(self, group: str, new_scores: np.ndarray) -> "ScoreSet":
        """The same records, as ``with_scores`` gives them, with one group's
        scores replaced by ``new_scores`` in that group's record order."""
        mask = self.group_mask(group)
        new_scores = np.asarray(new_scores, dtype=float)
        if new_scores.shape != (int(mask.sum()),):
            raise ValueError(
                f"expected {int(mask.sum())} scores for group {group!r}, got {new_scores.shape}"
            )
        scores = self.scores.copy()
        scores[mask] = new_scores
        return self.with_scores(scores)


def _cell_masks(is_pos: np.ndarray, is_a: np.ndarray) -> dict[tuple[int, str], np.ndarray]:
    """Each (label, group) cell's mask over records with these positive and
    group-a masks."""
    return {
        (1, GROUP_A): is_pos & is_a,
        (1, GROUP_B): is_pos & ~is_a,
        (0, GROUP_A): ~is_pos & is_a,
        (0, GROUP_B): ~is_pos & ~is_a,
    }


def require_both_groups(
    score_set: ScoreSet, name: str, indices: np.ndarray | None = None
) -> None:
    """Raise ``ValueError`` unless ``score_set`` (its records at ``indices``,
    if given) holds records of both groups; group a is checked first."""
    in_a = score_set.in_group_a if indices is None else score_set.in_group_a[indices]
    for g, present in ((GROUP_A, in_a.any()), (GROUP_B, not in_a.all())):
        if not present:
            raise ValueError(f"{name} set contains no group {g!r} records")


@dataclass(frozen=True)
class TopAlphaRegion:
    """The records of a ScoreSet that ``pauc`` and ``pxauc`` read, as their
    positions in it; ``top_alpha_region`` gives the ceil(alpha * N)
    highest-scoring ones. ``member_indices`` takes integers of any width, and
    is kept read-only, in the ``_util.position_dtype`` of the smallest set it
    can index, one record past its largest member: 4 bytes each below 2**31.
    """

    member_indices: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        idx = _positions(self.member_indices)
        idx = idx.astype(position_dtype(int(idx.max()) + 1 if idx.size else 0), copy=False)
        idx.setflags(write=False)
        object.__setattr__(self, "member_indices", idx)

    @property
    def n_alpha(self) -> int:
        """The number of members."""
        return len(self.member_indices)


def count_pairs_above(pos_scores: np.ndarray, sorted_neg_scores: np.ndarray) -> int:
    """Count (positive, negative) pairs with strictly greater positive score.

    ``sorted_neg_scores`` must be sorted ascending. The positives may come in
    any order; sorted ones make the search run faster.
    """
    return int(np.searchsorted(sorted_neg_scores, pos_scores, side="left").sum())


@dataclass(frozen=True)
class PairCounts:
    """Strict pair counts of a ScoreSet by group.

    ``above[g, h]`` is the number of (group-g positive, group-h negative) pairs
    where the positive scores strictly higher; ``n_pos[g]`` and ``n_neg[g]``
    are group g's class sizes.
    """

    above: dict[tuple[str, str], int]
    n_pos: dict[str, int]
    n_neg: dict[str, int]

    @classmethod
    def of_ranked(cls, ranked: dict[tuple[int, str], np.ndarray]) -> "PairCounts":
        """Counts from each (label, group) cell's scores, sorted ascending."""
        return cls(
            above={
                (g, h): count_pairs_above(ranked[1, g], ranked[0, h])
                for g in GROUPS
                for h in GROUPS
            },
            n_pos={g: len(ranked[1, g]) for g in GROUPS},
            n_neg={g: len(ranked[0, g]) for g in GROUPS},
        )

    def auc(self, if_no_pos: float = 0.0, if_no_neg: float = 0.0) -> float:
        """Share of all (positive, negative) pairs ranked correctly; the given
        value when a class is empty, the positives checked first."""
        n_pos, n_neg = sum(self.n_pos.values()), sum(self.n_neg.values())
        if n_pos == 0:
            return if_no_pos
        if n_neg == 0:
            return if_no_neg
        return sum(self.above.values()) / (n_pos * n_neg)

    def xauc(self, from_group: str, to_group: str) -> float:
        """Share of the (``from_group`` positive, ``to_group`` negative) pairs
        ranked correctly; 0.0 when either side is empty. The groups must be
        the two distinct ``GROUPS``."""
        if from_group == to_group:
            raise ValueError("xauc requires two distinct groups")
        _check_group(from_group)
        _check_group(to_group)
        pairs = self.n_pos[from_group] * self.n_neg[to_group]
        return self.above[from_group, to_group] / pairs if pairs else 0.0

    def xauc_disparity(self) -> float:
        return abs(self.xauc(GROUP_A, GROUP_B) - self.xauc(GROUP_B, GROUP_A))


def auc(s: ScoreSet) -> float:
    """Fraction of (positive, negative) pairs ranked correctly, strict inequality.

    Returns 0.0 when either class is empty: no valid comparisons exist.
    """
    return s.pair_counts.auc()


def xauc(s: ScoreSet, from_group: str, to_group: str) -> float:
    """Fraction of cross-group pairs where a ``from_group`` positive outranks a
    ``to_group`` negative. Empty index sets yield 0.0 by convention; groups
    that are not two distinct ``GROUPS`` are a ValueError."""
    return s.pair_counts.xauc(from_group, to_group)


def xauc_disparity(s: ScoreSet) -> float:
    """Absolute gap between the two cross-group ranking probabilities."""
    return s.pair_counts.xauc_disparity()


def top_alpha_region(s: ScoreSet, alpha: float) -> TopAlphaRegion:
    """The region of the ceil(alpha * N) records with the highest scores (at
    least one), those of ``select_region(s, "partial", alpha)``.

    Ties at the lowest score taken keep the records with the lower positions,
    so the selection is deterministic and has exactly the requested size.
    """
    return TopAlphaRegion(select_region(s, "partial", alpha))


def _region_counts(s: ScoreSet, region: TopAlphaRegion) -> PairCounts:
    """Pair counts of the region's records: the set's own table when the
    region holds every record of ``s`` in order."""
    idx = region.member_indices
    if len(idx) == len(s) and np.array_equal(idx, np.arange(len(s))):
        return s.pair_counts
    return s.subset(idx).pair_counts


def pauc(s: ScoreSet, region: TopAlphaRegion) -> float:
    """AUC restricted to the region's records.

    Degenerate regions use the top-region conventions: no positives gives 0.0
    (failed separation, checked first), no negatives gives 1.0 (perfect
    separation).
    """
    return _region_counts(s, region).auc(if_no_pos=0.0, if_no_neg=1.0)


def pxauc(s: ScoreSet, region: TopAlphaRegion, from_group: str, to_group: str) -> float:
    """Cross-group ranking probability restricted to the region; 0.0 on empty
    sets. Its groups are checked as ``xauc`` checks them."""
    return _region_counts(s, region).xauc(from_group, to_group)


def pxauc_disparity(s: ScoreSet, region: TopAlphaRegion) -> float:
    """Absolute cross-group gap among the region's records."""
    return _region_counts(s, region).xauc_disparity()


def select_region(
    s: ScoreSet, mode: str, alpha: float | None, draw: np.ndarray | None = None
) -> np.ndarray | None:
    """Positions in ``s`` of the records a method is fitted or evaluated on,
    or None for every record in order. In global mode these are the records
    at ``draw`` (every record when there is no draw); in partial mode, the
    top-``alpha`` region of those records, ranked on their scores: the
    ceil(alpha * n) highest of the n (at least one), ties toward the lower
    position (in ``draw``, when given; see ``_util.top_mask``)."""
    if mode == "global":
        return draw
    if alpha is None:
        raise ValueError("partial mode requires alpha")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    scores = s.scores if draw is None else s.scores[draw]
    if len(scores) < 1:
        raise ValueError("cannot take a top region of an empty ScoreSet")
    top = np.flatnonzero(top_mask(scores, max(1, ceil_count(alpha, len(scores)))))
    return top.astype(position_dtype(len(s)), copy=False) if draw is None else draw[top]


def region_set(s: ScoreSet, mode: str, alpha: float | None) -> ScoreSet:
    """The records of ``s`` that ``select_region`` picks: ``s`` itself in
    global mode."""
    idx = select_region(s, mode, alpha)
    return s if idx is None else s.subset(idx)


def region_cells(s: ScoreSet, region: np.ndarray | None) -> dict[tuple[int, str], np.ndarray]:
    """The positions in ``s`` of the records at ``region`` in each (label,
    group) cell, as in ``ScoreSet.cells``: ``region`` holds ``select_region``
    positions, which may repeat a record, or None for every record once. The
    positions have the dtype of ``region`` (of ``s.cells`` for None): 4 bytes
    each for a draw or region taken from a set below 2**31 records. No copy
    of the region's scores, labels or groups is kept."""
    if region is None:
        return s.cells
    masks = _cell_masks(s.is_pos[region], s.in_group_a[region])
    return {cell: region[np.flatnonzero(mask)] for cell, mask in masks.items()}


def evaluate_cells(
    cells: dict[tuple[int, str], np.ndarray], scores: np.ndarray, mode: str
) -> tuple[float, float]:
    """``(accuracy, disparity)`` of the records at ``cells`` (from
    ``region_cells``) scored by ``scores``, one per record of the set they
    were taken from: AUC and xAUC disparity in global mode, pAUC and pxAUC
    disparity over all of them in partial mode. They are evaluated as one set
    in cell order, each cell's scores sorted in place and its pair counts
    read off those sorted runs. A position outside ``scores`` is a
    ValueError."""
    for idx in cells.values():
        if len(idx) and (idx.min() < 0 or idx.max() >= len(scores)):
            raise ValueError(f"cells reach past the {len(scores)} scores given")
    sizes = [len(idx) for idx in cells.values()]
    ranked = np.empty(sum(sizes))
    runs, start = {}, 0
    for (cell, idx), size in zip(cells.items(), sizes):
        run = ranked[start : start + size]
        # written in place: with mode "raise", np.take buffers its output
        np.take(scores, idx, out=run, mode="clip")
        run.sort()
        runs[cell] = run
        start += size
    is_pos = np.repeat([label == 1 for label, _ in cells], sizes)
    in_group_a = np.repeat([group == GROUP_A for _, group in cells], sizes)
    s = ScoreSet._derived(ranked, is_pos, in_group_a, pair_counts=PairCounts.of_ranked(runs))
    if mode == "global":
        return auc(s), xauc_disparity(s)
    whole = top_alpha_region(s, 1.0)
    return pauc(s, whole), pxauc_disparity(s, whole)

