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
from typing import Callable, Iterator, Literal

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
    out = b.copy()
    if n_top == 0:
        top = np.empty(0, dtype=np.int64)
    else:
        top = np.sort(np.argsort(-b, kind="stable")[:n_top])
        out[top] = barycentric_projection(plan, a)[top]
    return PartialTransportResult(
        lam=lam,
        transported_scores=out,
        transported_index_set=top,
        n_transported=n_top,
    )


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


class MappedSets:
    """``(lam, mapped test set)`` for each lambda of one fit, in lambda order.
    A set is built when a pass reaches it and is not kept, so a pass holds
    one at a time; every pass builds the same sets, bit for bit."""

    def __init__(self, lambdas: tuple[float, ...], build: Callable[[float], ScoreSet]):
        self.lambdas = lambdas
        self._build = build

    def __len__(self) -> int:
        return len(self.lambdas)

    def __iter__(self) -> Iterator[tuple[float, ScoreSet]]:
        # keeps no reference to a set it has yielded while it builds the next
        return ((lam, self._build(lam)) for lam in self.lambdas)


def fit_and_map(
    train: ScoreSet,
    test: ScoreSet,
    lambdas,
    mode: Mode = "global",
    alpha: float | None = None,
    direction: Direction = "b_to_a",
) -> MappedSets:
    """Fit on ``train`` (its top-``alpha`` region in partial mode) and map the
    moving group's scores of every ``test`` record, once per lambda.

    Each test record's new score depends only on its own score and group, so
    any subset of a mapped set equals that subset mapped. Returns the
    ``(lam, mapped test set)`` sequence in the order of ``lambdas``; at
    ``lam == 0`` the set is ``test`` itself. The fit is made here, and each
    set is built when a pass reaches it (``MappedSets``), so a caller that
    takes lambda as its outer loop, as a sweep with more lambdas than
    replicates does, works in O(n) memory whatever the number of lambdas.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    lambdas = tuple(float(l) for l in lambdas)
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

    # Everything but the top-k slice is lambda-independent: project once, rank
    # the moving group once, and presort the score-map knots and test queries.
    # Pairs are presorted stably by original score, so each build_score_map
    # merges its tie groups in the same order as on the unsorted pairs. The
    # top k records in descending order (ties by lower index) are those of
    # descending rank below k.
    projected = barycentric_projection(fit_transport(ref_train, mov_train), ref_train)
    desc_rank = np.empty(len(mov_train), dtype=np.int64)
    desc_rank[np.argsort(-mov_train, kind="stable")] = np.arange(len(mov_train))
    knot_order = np.argsort(mov_train, kind="stable")
    knots_x, projected_y = mov_train[knot_order], projected[knot_order]
    knot_rank = desc_rank[knot_order]
    test_at = np.flatnonzero(test.group_mask(moving))
    test_order = np.argsort(test.scores[test_at], kind="stable")
    test_at = test_at[test_order]
    queries = test.scores[test_at]

    def build(lam: float) -> ScoreSet:
        if lam == 0.0:
            return test
        moved = knot_rank < ceil_count(lam, len(knots_x))
        score_map = build_score_map(knots_x, np.where(moved, projected_y, knots_x))
        scores = test.scores.copy()
        scores[test_at] = apply_psi(score_map, queries)
        return test.with_scores(scores)

    return MappedSets(lambdas, build)


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
