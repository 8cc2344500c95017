"""Exact optimal transport between 1D empirical score clouds.

Each cloud is a 1-D array of finite scores, every point of mass 1/n (a point
repeated k times carries k/n). On the line, the monotone coupling -- sort both
supports and match their quantile functions -- solves the coupling LP for
every convex cost, including squared distance and |x - y| (Peyre & Cuturi,
*Computational Optimal Transport*, Sec. 2.6), so no general-purpose solver is
needed. The coupling is computed without a loop in integer units of 1/(n*m),
so plan masses are exact and the point that holds a grid level is found by
integer division. Plans are stored as sparse (source, target, mass) triples;
a monotone plan has at most n + m - 1 of them. Triples are put in (source,
target) order by sorting the one int64 key ``source * target_n + target``,
which orders as the pair does and sorts in a fraction of the time of a
two-key ``np.lexsort`` of the pair. The barycentric projection reduces the
triples per source row with ``np.add.reduceat``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import is_sorted

_MARGINAL_TOL = 1e-10


def _support(values, name: str) -> np.ndarray:
    support = np.asarray(values, dtype=float)
    if support.ndim != 1:
        raise ValueError(f"{name} support must be 1-dimensional")
    if len(support) == 0:
        raise ValueError(f"{name} support needs at least one point")
    if not np.all(np.isfinite(support)):
        raise ValueError(f"{name} support points must be finite")
    return support


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """Sparse coupling of ``source_n`` source rows and ``target_n`` target
    columns, each point carrying mass 1/n of its side.

    Marginal feasibility is checked at construction: row sums must equal
    1/source_n and column sums 1/target_n within 1e-10.
    """

    source_idx: np.ndarray
    target_idx: np.ndarray
    masses: np.ndarray
    source_n: int
    target_n: int

    def __post_init__(self) -> None:
        src = np.asarray(self.source_idx, dtype=np.int64)
        tgt = np.asarray(self.target_idx, dtype=np.int64)
        mass = np.asarray(self.masses, dtype=float)
        n, m = self.source_n, self.target_n
        if n < 1 or m < 1:
            raise ValueError("a plan needs at least one source and one target point")
        if not (len(src) == len(tgt) == len(mass)):
            raise ValueError("triple arrays must have equal length")
        if np.any(mass < 0):
            raise ValueError("plan masses must be non-negative")
        row_sums = np.bincount(src, weights=mass, minlength=n)
        col_sums = np.bincount(tgt, weights=mass, minlength=m)
        if np.max(np.abs(row_sums - 1.0 / n)) > _MARGINAL_TOL:
            raise ValueError("plan row sums do not match 1/source_n")
        if np.max(np.abs(col_sums - 1.0 / m)) > _MARGINAL_TOL:
            raise ValueError("plan column sums do not match 1/target_n")
        for name, arr in (("source_idx", src), ("target_idx", tgt), ("masses", mass)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _monotone_levels(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid levels of the monotone coupling of ``n`` sorted source points onto
    ``m`` sorted target points, in integer units of 1/(n*m): a source point
    holds m units and a target point n. Every interval between consecutive
    grid levels belongs to exactly one source point and one target point, the
    first ones whose cumulative units reach the interval's upper end. Returns
    the upper ends, ascending, and each interval's length in units.
    """
    # A stable sort merges the two sorted runs of cumulative units in linear
    # time (np.union1d takes a much slower hash path on int64); a level both
    # runs share adds no interval.
    levels = np.concatenate(
        (np.arange(1, n + 1, dtype=np.int64) * m, np.arange(1, m + 1, dtype=np.int64) * n)
    )
    levels.sort(kind="stable")
    units = np.diff(levels, prepend=0)
    keep = units > 0
    return levels[keep], units[keep]


def solve_ot_1d(source_support, target_support) -> TransportPlan:
    """Cost-minimizing coupling of two score clouds, each point of mass 1/n,
    for squared-distance cost on the line.

    Both supports are sorted ascending, mass is matched monotonically, and the
    resulting triples are mapped back to the original index order. The masses
    are exact multiples of 1/(n*m). A support given in ascending order is not
    sorted again, and each temporary is dropped once it is dead.
    """
    zs, zt = _support(source_support, "source"), _support(target_support, "target")
    n, m = len(zs), len(zt)
    levels, units = _monotone_levels(n, m)
    mass = units * (1.0 / (n * m))
    del units
    # The first source point whose cumulative units reach a level L is the
    # one numbered ceil(L / m), at rank (L - 1) // m; likewise for targets.
    # A stable sort of an ascending support is the identity: each rank is
    # the point's index.
    levels -= 1
    src_idx = levels // m
    if not is_sorted(zs):
        src_idx = np.argsort(zs, kind="stable")[src_idx]
    tgt_idx = levels // n
    del levels
    if not is_sorted(zt):
        tgt_idx = np.argsort(zt, kind="stable")[tgt_idx]
    # every (source, target) pair occurs once, so any sort gives one order
    order = np.argsort(src_idx * m + tgt_idx)
    src_idx = src_idx[order]
    tgt_idx = tgt_idx[order]
    mass = mass[order]
    del order
    return TransportPlan(
        source_idx=src_idx, target_idx=tgt_idx, masses=mass, source_n=n, target_n=m
    )


def barycentric_projection(plan: TransportPlan, target_support) -> np.ndarray:
    """Map each source point to the mass-weighted mean of its coupled targets.

    The triples are sorted stably by (source, target), unless they are in
    that order already, so each source row is one contiguous run and
    repeated pairs keep their plan order;
    ``np.add.reduceat`` over the runs gives every row's coupled mass and
    mass-weighted target sum at once, and
    ``np.minimum.reduceat``/``np.maximum.reduceat`` its coupled hull. Each
    row is clamped to the range of its own targets, so the output never
    leaves the coupled hull by floating-point dust, and a row with a single
    coupled target returns that target value exactly. The target scores must
    be finite.
    """
    zt = _support(target_support, "target")
    if len(zt) != plan.target_n:
        raise ValueError(
            f"target support has {len(zt)} points but plan expects {plan.target_n}"
        )
    src, tgt, mass = plan.source_idx, plan.target_idx, plan.masses
    key = src * plan.target_n + tgt
    if not is_sorted(key):  # a plan of solve_ot_1d is in order already
        order = np.argsort(key, kind="stable")
        src, tgt, mass = src[order], tgt[order], mass[order]
        del order
    del key
    vals = zt[tgt]
    starts = np.flatnonzero(np.diff(src, prepend=-1))  # first triple of each row
    with np.errstate(invalid="ignore"):  # a massless row gives nan, reported below
        avg = np.add.reduceat(mass * vals, starts) / np.add.reduceat(mass, starts)
    row = np.clip(avg, np.minimum.reduceat(vals, starts), np.maximum.reduceat(vals, starts))
    out = np.full(plan.source_n, np.nan)
    out[src[starts]] = row
    if np.any(np.isnan(out)):
        missing = np.flatnonzero(np.isnan(out))
        raise ValueError(f"plan carries no mass for source rows {missing.tolist()}")
    return out


def wasserstein1_distance(p_support, q_support) -> float:
    """Exact W1 distance between two score clouds, each point of mass 1/n
    (validated as the source and target of ``solve_ot_1d``): the monotone
    coupling is optimal for |x - y| too, so W1 is the mass-weighted gap
    between the quantile functions."""
    plan = solve_ot_1d(p_support, q_support)
    p, q = np.asarray(p_support, dtype=float), np.asarray(q_support, dtype=float)
    gap = np.abs(p[plan.source_idx] - q[plan.target_idx])
    return float(np.sum(plan.masses * gap))
