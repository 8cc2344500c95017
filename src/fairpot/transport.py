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
from ._util import ceil_count, is_sorted, position_dtype, top_mask
from .metrics import GROUP_A, GROUP_B, ScoreSet, require_both_groups
from .ot import TransportPlan, barycentric_projection, solve_ot_1d
from .pareto import TradeoffPoint

Direction = Literal["b_to_a", "a_to_b"]
Mode = Literal["global", "partial"]

DIRECTIONS = ("b_to_a", "a_to_b")
MODES = ("global", "partial")


@dataclass(frozen=True)
class ScoreMap:
    """Piecewise-linear monotone-knot map from original to transported scores.

    Knot x-values are strictly increasing; duplicate original scores collapse
    into one knot carrying the mean transported value. Queries outside the knot
    range return the nearest boundary's transported value.
    """

    knots_x: np.ndarray
    knots_y: np.ndarray
    # writable views of the read-only knots, for np.interp, which copies
    # read-only inputs on every call
    _interp_knots: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

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
        views = []
        for name, knots in (("knots_x", x), ("knots_y", y)):
            if not knots.flags.writeable:
                knots = knots.copy()
            views.append(knots.view())  # stays writable once its base is not
            knots.setflags(write=False)
            object.__setattr__(self, name, knots)
        object.__setattr__(self, "_interp_knots", tuple(views))

    def __len__(self) -> int:
        return len(self.knots_x)


def fit_transport(scores_a_train, scores_b_train) -> TransportPlan:
    """Optimal coupling from the group-b score cloud onto the group-a cloud."""
    a = np.asarray(scores_a_train, dtype=float)
    b = np.asarray(scores_b_train, dtype=float)
    if len(a) == 0:
        raise ValueError("group a has no training scores to transport onto")
    if len(b) == 0:
        raise ValueError("group b has no training scores to transport")
    return solve_ot_1d(b, a)


def build_score_map(original_train, transported_train) -> ScoreMap:
    """Knots from aligned (original, transported) training pairs.

    Records sharing an original score are merged into a single knot whose value
    is the mean of their transported scores, keeping the map a function, clamped
    to their range: equal scores keep their value, and ordered groups stay so.
    """
    x = np.asarray(original_train, dtype=float)
    y = np.asarray(transported_train, dtype=float)
    if len(x) == 0:
        raise ValueError("cannot build a score map from no training pairs")
    if len(x) != len(y):
        raise ValueError("original and transported score vectors must align")
    xs, ys = x, y
    if not is_sorted(x):  # fit_and_map's pairs are in order already
        order = np.argsort(x, kind="stable")
        xs, ys = x[order], y[order]
        del order
    # each tie group is one run of the sorted pairs, in their stable order
    start = np.flatnonzero(np.append(True, xs[1:] != xs[:-1]))
    knots_y = np.add.reduceat(ys, start)
    knots_y /= np.diff(start, append=len(xs))  # each group's mean
    np.clip(knots_y, np.minimum.reduceat(ys, start), np.maximum.reduceat(ys, start), out=knots_y)
    return ScoreMap(knots_x=xs[start], knots_y=knots_y)


def apply_psi(score_map: ScoreMap, scores_b_test) -> np.ndarray:
    """Push test scores through the interpolation map, clamped at the boundary."""
    # np.interp returns a knot's y, bit for bit, for a query equal to its x
    return np.interp(np.asarray(scores_b_test, dtype=float), *score_map._interp_knots)


def _moving_reference(direction: str) -> tuple[str, str]:
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    return (GROUP_B, GROUP_A) if direction == "b_to_a" else (GROUP_A, GROUP_B)


class MappedSets:
    """``(lam, mapped test set)`` for each lambda of one fit, in lambda order,
    each built when a pass reaches it and not kept, so a pass holds one at a
    time and every pass builds the same sets, bit for bit. ``check``, if any,
    raises ValueError for a replicate whose draw and evaluated region of the
    test set (``metrics.select_region`` positions) the fit cannot score."""

    def __init__(self, lambdas: tuple[float, ...], build: Callable[[float], ScoreSet], check=None):
        self.lambdas = lambdas
        self._build = build
        self.check = check

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
    Its check needs both groups among a replicate's drawn records; a region
    without the moving group is scored as it is. An empty ``lambdas`` is a
    ValueError, as it is in ``io.ExperimentConfig``.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    lambdas = tuple(float(l) for l in lambdas)
    if not lambdas:
        raise ValueError("lambdas must be non-empty")
    for lam in lambdas:
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"lambda values must lie in [0, 1], got {lam}")
    moving, reference = _moving_reference(direction)
    require_both_groups(train, "train")
    train = metrics.region_set(train, mode, alpha)
    mov_train = train.group_scores(moving)
    mov_train.sort(kind="stable")
    ref_train = train.group_scores(reference)
    if len(mov_train) == 0 or len(ref_train) == 0:
        raise ValueError("top region of the training set is missing a group")

    # Everything but the top-k slice is lambda-independent, and all of it
    # reads one stable sort of the moving cloud: the plan is fitted on it, so
    # the projection comes out in its order; the top k moving records, which
    # Phi moves onto their projections, are taken from it per lambda (ties
    # toward the lower position, by ``_util.top_mask``, the rule of the
    # top-alpha region); and it is the knots' x. A stable sort keeps tied
    # scores, zeros of both signs included, in record order, so the plan,
    # the moved records and each build_score_map's tie merges are those of
    # the unsorted cloud, bit for bit. Test queries are presorted too; each
    # is mapped on its own, so their order among ties is free. Their
    # positions are held for every lambda, so they are kept as narrow as the
    # test set allows.
    projected = barycentric_projection(fit_transport(ref_train, mov_train), ref_train)
    test_at = np.flatnonzero(test.group_mask(moving))
    test_at = test_at[np.argsort(test.scores[test_at])]
    test_at = test_at.astype(position_dtype(len(test)), copy=False)
    queries = test.scores[test_at]

    def build(lam: float) -> ScoreSet:
        if lam == 0.0:
            return test
        moved = top_mask(mov_train, ceil_count(lam, len(mov_train)))
        score_map = build_score_map(mov_train, np.where(moved, projected, mov_train))
        scores = test.scores.copy()
        scores[test_at] = apply_psi(score_map, queries)
        return test.with_scores(scores)

    return MappedSets(lambdas, build, lambda draw, region: require_both_groups(test, "test", draw))


def evaluate_grid(
    test: ScoreSet,
    mapped: MappedSets,
    mode: Mode,
    alpha: float | None,
    n_reps: int = 1,
    draw: Callable[[int], np.ndarray | None] = lambda rep: None,
) -> list[list[tuple[float, float, float]] | str]:
    """Each replicate's ``(lambda, accuracy, disparity)`` points, or the
    message of the error that failed it: replicate r evaluates the records
    of ``test`` at ``draw(r)`` (None: all), once its draw and region pass
    ``mapped.check``, on each set of ``mapped``, which holds ``test``'s
    records with new scores. A replicate whose draw, region or check fails
    gets its message once, and no set is evaluated for it; a ValueError
    while the sets are built or evaluated fails every replicate with its
    message. Only the shorter axis of this R x L grid is held, so working
    memory is O(n) per item of it: a mapped set's 8 bytes per record, or a
    replicate's ``metrics.region_cells``, one position per record of its
    region in the dtype of its draw (4 bytes for a file sweep's draw; see
    ``_util.position_dtype``)."""

    def drawn_cells(rep: int) -> dict | str:
        try:
            drawn = draw(rep)
            region = metrics.select_region(test, mode, alpha, drawn)
            if mapped.check is not None:
                mapped.check(drawn, region)
            return metrics.region_cells(test, region)
        except (ValueError, RuntimeError) as exc:
            return str(exc)

    def points(cells: dict | str, sets) -> list | str:
        """A replicate's message, or its points on each ``(lam, set)``."""
        if isinstance(cells, str):
            return cells
        return [(lam, *metrics.evaluate_cells(cells, s.scores, mode)) for lam, s in sets]

    # With more lambdas than replicates, every replicate is drawn, checked
    # and has its cells taken once, and those are kept while each mapped set
    # is built, evaluated by every replicate and dropped. Otherwise the
    # mapped sets are kept and each replicate is drawn, evaluated on all of
    # them and dropped.
    try:
        if len(mapped) > n_reps:
            replicates = [drawn_cells(rep) for rep in range(n_reps)]
            outcomes = [points(cells, ()) for cells in replicates]
            for lam, mapped_set in mapped:
                for outcome, cells in zip(outcomes, replicates):
                    if not isinstance(outcome, str):
                        outcome.extend(points(cells, [(lam, mapped_set)]))
                del mapped_set  # before the next set is built
            return outcomes
        sets = list(mapped)
        return [points(drawn_cells(rep), sets) for rep in range(n_reps)]
    except ValueError as exc:
        return [str(exc)] * n_reps


def sweep(
    train: ScoreSet,
    test: ScoreSet,
    lambdas,
    mode: Mode = "global",
    alpha: float | None = None,
    direction: Direction = "b_to_a",
) -> list[TradeoffPoint]:
    """Trade-off points for each lambda: fit on train, transform the moving
    group's test scores, evaluate accuracy and disparity on the merged test set.

    In partial mode the top region is taken once from the merged pre-transport
    scores (train for fitting, test for evaluation) and held fixed; metrics are
    computed within the region members only. The points are those of a
    ``fairpot sweep`` on these sets without a bootstrap, by the same path; an
    error that would fail its one replicate is raised as a ValueError. Each
    point carries the method tag ``"fairpot"`` and replicate 0.
    """
    mapped = fit_and_map(train, test, lambdas, mode, alpha, direction)
    [outcome] = evaluate_grid(test, mapped, mode, alpha)
    if isinstance(outcome, str):
        raise ValueError(outcome)
    return [TradeoffPoint(*point, "fairpot") for point in outcome]
