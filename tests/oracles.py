"""Independent reference implementations used to verify the fast paths.

Everything here is deliberately naive: all-pairs enumeration for rank metrics
and dominance, and a generic LP solver for transport plans. None of it shares
code with the library, except the ``loop_*`` references: straightforward loop
versions of vectorized library paths, which the fast paths must match; and
``phi``, which takes the top-lambda records by a sort of its own and moves
them with the library's fit and projection, in record order.
``moved_by_the_sweep`` is no reference: it runs the sweep's own map, the
code that ``phi`` checks.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

from fairpot.baselines import (
    DEFAULT_OFFSET,
    DEFAULT_SCALE_GRID,
    PostLogitParams,
    apply_post_logit,
)
from fairpot._util import ceil_count
from fairpot.io import SCORE_HEADER, ScoreFileError
from fairpot.metrics import GROUPS, GROUP_A, GROUP_B, ScoreSet, TopAlphaRegion, xauc_disparity
from fairpot.ot import TransportPlan, barycentric_projection
from fairpot.pareto import TradeoffPoint
from fairpot.transport import fit_and_map, fit_transport


def brute_pairs_above(pos_scores, neg_scores) -> int:
    pos = np.asarray(pos_scores, dtype=float)
    neg = np.asarray(neg_scores, dtype=float)
    if len(pos) == 0 or len(neg) == 0:
        return 0
    return int(np.sum(pos[:, None] > neg[None, :]))


def brute_auc(s: ScoreSet) -> float:
    pos = s.scores[s.labels == 1]
    neg = s.scores[s.labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        return 0.0
    return brute_pairs_above(pos, neg) / (len(pos) * len(neg))


def brute_xauc(s: ScoreSet, from_group: str, to_group: str) -> float:
    pos = s.scores[(s.labels == 1) & (s.groups == from_group)]
    neg = s.scores[(s.labels == 0) & (s.groups == to_group)]
    if len(pos) == 0 or len(neg) == 0:
        return 0.0
    return brute_pairs_above(pos, neg) / (len(pos) * len(neg))


def brute_xauc_disparity(s: ScoreSet) -> float:
    return abs(brute_xauc(s, GROUP_A, GROUP_B) - brute_xauc(s, GROUP_B, GROUP_A))


def brute_pauc(s: ScoreSet, member_indices) -> float:
    idx = np.asarray(member_indices, dtype=np.int64)
    scores = s.scores[idx]
    labels = s.labels[idx]
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if len(pos) == 0:
        return 0.0
    if len(neg) == 0:
        return 1.0
    return brute_pairs_above(pos, neg) / (len(pos) * len(neg))


def brute_pxauc(s: ScoreSet, member_indices, from_group: str, to_group: str) -> float:
    idx = np.asarray(member_indices, dtype=np.int64)
    scores = s.scores[idx]
    labels = s.labels[idx]
    groups = s.groups[idx]
    pos = scores[(labels == 1) & (groups == from_group)]
    neg = scores[(labels == 0) & (groups == to_group)]
    if len(pos) == 0 or len(neg) == 0:
        return 0.0
    return brute_pairs_above(pos, neg) / (len(pos) * len(neg))


def brute_pxauc_disparity(s: ScoreSet, member_indices) -> float:
    return abs(
        brute_pxauc(s, member_indices, GROUP_A, GROUP_B)
        - brute_pxauc(s, member_indices, GROUP_B, GROUP_A)
    )


def lp_transport(source_support, target_support):
    """Solve the coupling LP between two score clouds, each point of mass 1/n,
    exactly with a generic simplex solver.

    Returns (optimal cost, dense plan). Intended for tiny instances only.
    """
    zs = np.asarray(source_support, dtype=float)
    zt = np.asarray(target_support, dtype=float)
    n, m = len(zs), len(zt)
    u, v = np.full(n, 1.0 / n), np.full(m, 1.0 / m)
    cost = ((zs[:, None] - zt[None, :]) ** 2).reshape(-1)

    # equality constraints: row sums = u, column sums = v
    a_eq = np.zeros((n + m, n * m))
    for i in range(n):
        a_eq[i, i * m : (i + 1) * m] = 1.0
    for j in range(m):
        a_eq[n + j, j::m] = 1.0
    b_eq = np.concatenate([u, v])
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.status == 0, f"LP oracle failed: {res.message}"
    return float(res.fun), res.x.reshape(n, m)


def plan_cost(plan: TransportPlan, source_support, target_support) -> float:
    """Total squared-distance cost of a plan between the given supports."""
    zs = np.asarray(source_support, dtype=float)
    zt = np.asarray(target_support, dtype=float)
    diff = zs[plan.source_idx] - zt[plan.target_idx]
    return float(np.sum(plan.masses * diff * diff))


def dense_plan(plan: TransportPlan) -> np.ndarray:
    """The coupling matrix of a plan, source rows by target columns."""
    gamma = np.zeros((plan.source_n, plan.target_n))
    np.add.at(gamma, (plan.source_idx, plan.target_idx), plan.masses)
    return gamma


def loop_uniform_plan(source_support, target_support):
    """Monotone coupling of two uniform measures by walking both sorted
    supports one cell at a time, in integer units of 1/(n*m) of mass.

    Returns (source index, target index, mass) arrays sorted by (source,
    target) in the original index order.
    """
    n, m = len(source_support), len(target_support)
    src_order = np.argsort(np.asarray(source_support, dtype=float), kind="stable")
    tgt_order = np.argsort(np.asarray(target_support, dtype=float), kind="stable")
    cells = []
    p = q = 0
    row_left, col_left = m, n
    while p < n and q < m:
        take = min(row_left, col_left)
        cells.append((int(src_order[p]), int(tgt_order[q]), take * (1.0 / (n * m))))
        row_left -= take
        col_left -= take
        if row_left == 0:
            p += 1
            row_left = m
        if col_left == 0:
            q += 1
            col_left = n
    cells.sort(key=lambda c: (c[0], c[1]))
    src, tgt, mass = zip(*cells)
    return np.array(src), np.array(tgt), np.array(mass)


def loop_barycentric_projection(source_idx, target_idx, masses, target_support, n_source):
    """Per-row mass-weighted target mean: a single coupled target is returned
    as is, several are averaged with ``np.dot`` and clamped to their range."""
    src, tgt, mass = np.asarray(source_idx), np.asarray(target_idx), np.asarray(masses)
    zt = np.asarray(target_support, dtype=float)
    out = np.full(n_source, np.nan)
    for i in range(n_source):
        rows = np.flatnonzero(src == i)
        rows = rows[np.argsort(tgt[rows], kind="stable")]
        vals = zt[tgt[rows]]
        w = mass[rows]
        if len(rows) == 1:
            out[i] = vals[0]
        elif len(rows) > 1:
            avg = float(np.dot(w, vals) / w.sum())
            out[i] = min(max(avg, vals.min()), vals.max())
    return out


def loop_tie_merge(original, transported):
    """Knots of the score map: sorted distinct originals, each carrying the
    mean of its records' transported scores (merged in record order)."""
    x = np.asarray(original, dtype=float)
    y = np.asarray(transported, dtype=float)
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    knots_x, knots_y, sizes = [], [], []
    lo = 0
    while lo < len(xs):
        hi = lo
        while hi < len(xs) and xs[hi] == xs[lo]:
            hi += 1
        knots_x.append(xs[lo])
        knots_y.append(ys[lo:hi].mean())
        sizes.append(hi - lo)
        lo = hi
    return np.array(knots_x), np.array(knots_y), np.array(sizes)


def loop_fit_post_logit(
    train: ScoreSet,
    grid=DEFAULT_SCALE_GRID,
    offset: float = DEFAULT_OFFSET,
) -> PostLogitParams:
    """Scale search that rebuilds the rescaled training set for every grid
    scale and scores it with ``xauc_disparity``; ties go to the smallest scale."""
    grid = tuple(float(g) for g in grid)
    if not grid:
        raise ValueError("post-logit scale grid is empty")
    for group in (GROUP_A, GROUP_B):
        if not np.any(train.group_mask(group)):
            raise ValueError(f"train set contains no group {group!r} records")
    scores_b = train.group_scores(GROUP_B)
    best_scale = None
    best_disparity = np.inf
    for scale in sorted(grid):
        candidate = PostLogitParams(scale=scale, offset=offset)
        transformed = train.replace_group_scores(
            GROUP_B, apply_post_logit(candidate, scores_b)
        )
        disparity = xauc_disparity(transformed)
        if disparity < best_disparity:
            best_disparity = disparity
            best_scale = scale
    return PostLogitParams(scale=best_scale, offset=offset)


def unique_quantile_maps(train_scores):
    """``baselines._group_quantile_maps`` with the distinct values taken by
    ``np.unique`` and each one's last order-statistic position by
    ``np.unique(return_index=True)`` on the reversed sorted scores."""
    s = np.sort(train_scores)
    n = len(s)
    uniq = np.unique(s)
    if n == 1:
        levels_of_uniq = grid_levels = np.array([0.5])
    else:
        _, last = np.unique(s[::-1], return_index=True)
        levels_of_uniq = (n - 1 - last) / (n - 1)
        grid_levels = np.linspace(0.0, 1.0, n)
    return (
        lambda x: np.interp(x, uniq, levels_of_uniq),
        lambda t: np.interp(t, grid_levels, s),
    )


def masked_sigmoid(x):
    """Logistic function evaluated separately on the non-negative and the
    negative entries, so that ``exp`` only ever sees non-positive values."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    if out.ndim == 0:
        return float(out)
    return out


def sorted_top_positions(scores: np.ndarray, k: int) -> np.ndarray:
    """Positions, ascending, of the first ``k`` of a stable descending sort."""
    return np.sort(np.argsort(-np.asarray(scores, dtype=float), kind="stable")[:k])


def phi(reference, moving, lam: float) -> np.ndarray:
    """The moving scores after the top-``lam`` move, in record order: the
    first ceil(lam * n) of a stable descending sort take their projections
    onto the reference cloud, and the rest keep their scores."""
    mov = np.asarray(moving, dtype=float)
    out = mov.copy()
    top = sorted_top_positions(mov, ceil_count(lam, len(mov)))
    out[top] = barycentric_projection(fit_transport(reference, mov), reference)[top]
    return out


def sorted_top_alpha_region(s: ScoreSet, alpha: float) -> TopAlphaRegion:
    """Top region taken by a stable descending sort for every alpha,
    including the whole set."""
    n_alpha = max(1, ceil_count(alpha, len(s)))
    order = np.argsort(-s.scores, kind="stable")
    return TopAlphaRegion(np.sort(order[:n_alpha]))


def loop_read_score_file(path) -> ScoreSet:
    """Score-file reader that parses one ``csv`` row at a time and checks each
    field in turn, raising at the first bad one."""
    path = Path(path)
    scores: list[float] = []
    labels: list[int] = []
    groups: list[str] = []
    seen_ids: set[str] = set()
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != SCORE_HEADER:
                raise ScoreFileError(f"{path}:1: expected header {','.join(SCORE_HEADER)}")
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 4:
                    raise ScoreFileError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
                rid, score_s, label_s, group = row
                if rid in seen_ids:
                    raise ScoreFileError(f"{path}:{lineno}: duplicate id {rid!r}")
                seen_ids.add(rid)
                try:
                    score = float(score_s)
                except ValueError:
                    raise ScoreFileError(
                        f"{path}:{lineno}: unparseable score {score_s!r}"
                    ) from None
                if not math.isfinite(score) or not 0.0 <= score <= 1.0:
                    raise ScoreFileError(f"{path}:{lineno}: score {score_s} outside [0, 1]")
                if label_s not in ("0", "1"):
                    raise ScoreFileError(
                        f"{path}:{lineno}: label must be 0 or 1, got {label_s!r}"
                    )
                if group not in GROUPS:
                    raise ScoreFileError(
                        f"{path}:{lineno}: group must be one of {GROUPS}, got {group!r}"
                    )
                scores.append(score)
                labels.append(int(label_s))
                groups.append(group)
        except csv.Error as exc:  # such as a field over csv.field_size_limit()
            raise ScoreFileError(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError:
            raise ScoreFileError(f"{path}: not UTF-8 text") from None
    return ScoreSet(
        scores=np.array(scores, dtype=float),
        labels=np.array(labels, dtype=np.int64),
        groups=np.array(groups, dtype="U1"),
    )


def dominates(p: TradeoffPoint, q: TradeoffPoint) -> bool:
    return (
        p.disparity <= q.disparity
        and p.accuracy >= q.accuracy
        and (p.disparity < q.disparity or p.accuracy > q.accuracy)
    )


def brute_frontier(points: list[TradeoffPoint]) -> list[TradeoffPoint]:
    """All-pairs dominance check, then the library's dedup and ordering rules."""
    survivors = [p for p in points if not any(dominates(q, p) for q in points)]
    best: dict[tuple[float, float], TradeoffPoint] = {}
    for p in survivors:
        key = (p.disparity, p.accuracy)
        cur = best.get(key)
        if cur is None or (p.lam, p.method_tag, p.replicate_id) < (
            cur.lam,
            cur.method_tag,
            cur.replicate_id,
        ):
            best[key] = p
    return sorted(best.values(), key=lambda p: (p.disparity, -p.accuracy))


def moved_by_the_sweep(scores_a, scores_b, lam: float) -> np.ndarray:
    """Group b's scores as ``transport.fit_and_map`` maps them onto group a
    at ``lam``, the set of both groups' records (labels 0) taken as its own
    training and test set. With no tied b scores, psi hits each knot
    exactly: these are the top-lambda move's output, bit for bit."""
    scores = np.concatenate([np.asarray(scores_a, float), np.asarray(scores_b, float)])
    groups = np.repeat([GROUP_A, GROUP_B], [len(scores_a), len(scores_b)])
    s = ScoreSet(scores=scores, labels=np.zeros(len(scores), dtype=int), groups=groups)
    [(_, mapped)] = fit_and_map(s, s, [lam])
    return mapped.group_scores(GROUP_B)


def random_score_set(rng: np.random.Generator, n: int, score_pool=None) -> ScoreSet:
    """Random records; a small score pool forces plenty of ties."""
    if score_pool is None:
        scores = rng.random(n)
    else:
        scores = rng.choice(np.asarray(score_pool, dtype=float), size=n)
    return ScoreSet(
        scores=scores,
        labels=rng.integers(0, 2, size=n),
        groups=np.where(rng.random(n) < 0.5, GROUP_A, GROUP_B),
    )
