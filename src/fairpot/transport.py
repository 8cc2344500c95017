"""Proportional transport of risk scores and its test-set generalization.

The training-side map moves the highest-scoring fraction ``lam`` of the moving
group onto the reference group's score support via a shared optimal-transport
plan; everything below the top portion keeps its original score. Test scores
are then pushed through a piecewise-linear map built from the (original,
transported) training pairs, clamping outside the training range.

At ``lam == 0`` the whole pipeline is the identity, bit for bit: the learned
map is known to be the identity, so no interpolation (and in particular no
boundary clamping) is applied to test scores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from . import metrics
from ._util import ceil_count
from .metrics import GROUP_A, GROUP_B, ScoreSet, require_both_groups
from .ot import TransportPlan, barycentric_projection, solve_ot_1d
from .pareto import TradeoffPoint

Direction = Literal["b_to_a", "a_to_b"]
Mode = Literal["global", "partial"]

DIRECTIONS = ("b_to_a", "a_to_b")
MODES = ("global", "partial")


@dataclass(frozen=True)
class PartialTransportResult:
    """Training scores after moving the top-``lam`` portion, in record order."""

    lam: float
    transported_scores: np.ndarray
    transported_index_set: np.ndarray = field(repr=False)
    n_transported: int = 0

    def __post_init__(self) -> None:
        scores = np.asarray(self.transported_scores, dtype=float)
        idx = np.asarray(self.transported_index_set, dtype=np.int64)
        scores.setflags(write=False)
        idx.setflags(write=False)
        object.__setattr__(self, "transported_scores", scores)
        object.__setattr__(self, "transported_index_set", idx)
        if len(idx) != self.n_transported:
            raise ValueError("transported_index_set size must equal n_transported")


@dataclass(frozen=True)
class ScoreMap:
    """Piecewise-linear monotone-knot map from original to transported scores.

    Knot x-values are strictly increasing; duplicate original scores collapse
    into one knot carrying the mean transported value. Queries outside the knot
    range return the nearest boundary's transported value.
    """

    knots_x: np.ndarray
    knots_y: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.knots_x, dtype=float)
        y = np.asarray(self.knots_y, dtype=float)
        if len(x) == 0:
            raise ValueError("score map needs at least one knot")
        if len(x) != len(y):
            raise ValueError("knot arrays must have equal length")
        if np.any(np.isnan(x)):
            raise ValueError("knot x-values must not be nan")
        if np.any(np.diff(x) <= 0):
            raise ValueError("knot x-values must be strictly increasing")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "knots_x", x)
        object.__setattr__(self, "knots_y", y)

    def __len__(self) -> int:
        return len(self.knots_x)

    def evaluate(self, values) -> np.ndarray:
        # np.interp returns a knot's y, bit for bit, for a query equal to its x
        return np.interp(np.asarray(values, dtype=float), self.knots_x, self.knots_y)


def fit_transport(scores_a_train, scores_b_train) -> TransportPlan:
    """Optimal coupling from the group-b score cloud onto the group-a cloud."""
    a = np.asarray(scores_a_train, dtype=float)
    b = np.asarray(scores_b_train, dtype=float)
    if len(a) == 0:
        raise ValueError("group a has no training scores to transport onto")
    if len(b) == 0:
        raise ValueError("group b has no training scores to transport")
    return solve_ot_1d(b, a)


def apply_phi(
    scores_b_train, plan: TransportPlan, scores_a_train, lam: float
) -> PartialTransportResult:
    """Replace the top ceil(lam * n_b) group-b scores with their projections.

    The plan must have been fitted on exactly these score vectors. Ties at the
    selection boundary prefer the lower original index; all other scores are
    returned unchanged, in original record order.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam must be in [0, 1], got {lam}")
    b = np.asarray(scores_b_train, dtype=float)
    a = np.asarray(scores_a_train, dtype=float)
    if plan.source_n != len(b) or plan.target_n != len(a):
        raise ValueError("plan dimensions do not match the given score vectors")
    n_top = ceil_count(lam, len(b))
    if n_top == 0:
        out, top = b.copy(), np.empty(0, dtype=np.int64)
    else:
        order = np.argsort(-b, kind="stable")
        out = _move_top(b, order, barycentric_projection(plan, a), n_top)
        top = np.sort(order[:n_top])
    return PartialTransportResult(
        lam=lam,
        transported_scores=out,
        transported_index_set=top,
        n_transported=n_top,
    )


def _move_top(scores: np.ndarray, desc_order: np.ndarray, projected: np.ndarray, n_top: int):
    """``scores`` with its ``n_top`` highest entries, taken in ``desc_order``
    (descending, ties by lower index), replaced by their projections."""
    top = desc_order[:n_top]
    out = scores.copy()
    out[top] = projected[top]
    return out


def build_score_map(original_train, transported_train) -> ScoreMap:
    """Knots from aligned (original, transported) training pairs.

    Records sharing an original score are merged into a single knot whose value
    is the mean of their transported scores, keeping the map a function.
    """
    x = np.asarray(original_train, dtype=float)
    y = np.asarray(transported_train, dtype=float)
    if len(x) == 0:
        raise ValueError("cannot build a score map from no training pairs")
    if len(x) != len(y):
        raise ValueError("original and transported score vectors must align")
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    # each tie group is one run of the sorted pairs, in their stable order
    start = np.flatnonzero(np.append(True, xs[1:] != xs[:-1]))
    counts = np.diff(start, append=len(xs))
    return ScoreMap(knots_x=xs[start], knots_y=np.add.reduceat(ys, start) / counts)


def apply_psi(score_map: ScoreMap, scores_b_test) -> np.ndarray:
    """Push test scores through the interpolation map, clamped at the boundary."""
    return score_map.evaluate(scores_b_test)


def _moving_reference(direction: str) -> tuple[str, str]:
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    return (GROUP_B, GROUP_A) if direction == "b_to_a" else (GROUP_A, GROUP_B)


def fit_and_map(
    train: ScoreSet,
    test: ScoreSet,
    lambdas,
    mode: Mode = "global",
    alpha: float | None = None,
    direction: Direction = "b_to_a",
) -> list[tuple[float, ScoreSet]]:
    """Fit on ``train`` (its top-``alpha`` region in partial mode) and map the
    moving group's scores of every ``test`` record, once per lambda.

    Each test record's new score depends only on its own score and group, so
    any subset of a mapped set equals that subset mapped. Returns
    ``(lam, mapped test set)`` in the order of ``lambdas``; at ``lam == 0`` the
    mapped set is ``test`` itself.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    lambdas = [float(l) for l in lambdas]
    for lam in lambdas:
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"lambda values must lie in [0, 1], got {lam}")
    moving, reference = _moving_reference(direction)
    require_both_groups(train, "train")
    train = metrics.region_set(train, mode, alpha)
    mov_train = train.group_scores(moving)
    ref_train = train.group_scores(reference)
    if len(mov_train) == 0 or len(ref_train) == 0:
        raise ValueError("top region of the training set is missing a group")
    mov_test = test.group_scores(moving)

    # Everything but the top-k slice is lambda-independent: project once, rank
    # the moving group once, and presort the score-map knots and test queries.
    # Pairs are presorted stably by original score, so each build_score_map
    # merges its tie groups in the same order as on the unsorted pairs.
    plan = fit_transport(ref_train, mov_train)
    projected = barycentric_projection(plan, ref_train)
    desc_order = np.argsort(-mov_train, kind="stable")
    knot_order = np.argsort(mov_train, kind="stable")
    sorted_train = mov_train[knot_order]
    test_order = np.argsort(mov_test, kind="stable")
    sorted_test = mov_test[test_order]

    mapped = []
    for lam in lambdas:
        if lam == 0.0:
            mapped.append((lam, test))
            continue
        moved = _move_top(mov_train, desc_order, projected, ceil_count(lam, len(mov_train)))
        score_map = build_score_map(sorted_train, moved[knot_order])
        transformed = np.empty_like(mov_test)
        transformed[test_order] = apply_psi(score_map, sorted_test)
        mapped.append((lam, test.replace_group_scores(moving, transformed)))
    return mapped


def sweep(
    train: ScoreSet,
    test: ScoreSet,
    lambdas,
    mode: Mode = "global",
    alpha: float | None = None,
    direction: Direction = "b_to_a",
    method_tag: str = "fairpot",
    replicate_id: int = 0,
) -> list[TradeoffPoint]:
    """Trade-off points for each lambda: fit on train, transform the moving
    group's test scores, evaluate accuracy and disparity on the merged test set.

    In partial mode the top region is taken once from the merged pre-transport
    scores (train for fitting, test for evaluation) and held fixed; metrics are
    computed within the region members only. The points are those of a
    ``fairpot sweep`` on these sets without a bootstrap.
    """
    mapped = fit_and_map(train, test, lambdas, mode, alpha, direction)
    require_both_groups(test, "test")
    region = metrics.select_region(test, mode, alpha)
    return [
        TradeoffPoint(lam, accuracy, disparity, method_tag, replicate_id)
        for lam, accuracy, disparity in metrics.evaluate_region(test, region, mapped, mode)
    ]
