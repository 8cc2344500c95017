"""Exact optimal transport between 1D empirical distributions.

On the line, the monotone coupling -- sort both supports and match their
quantile functions -- solves the coupling LP for every convex cost, including
squared distance and |x - y| (Peyre & Cuturi, *Computational Optimal
Transport*, Sec. 2.6), so no general-purpose solver is needed. The coupling is
computed without a loop: the cumulative masses (``np.cumsum``) of both sorted
measures are merged into one grid of distinct levels, and each grid interval
is assigned to the source and target point whose cumulative mass first
reaches its upper end (``np.searchsorted``). For uniform measures the grid is kept in integer units
of 1/(n*m), so plan masses are exact. Plans are stored as sparse (source,
target, mass) triples; a monotone plan has at most n + m - 1 of them. The
barycentric projection reduces those triples per source row with
``np.add.reduceat``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MARGINAL_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class EmpiricalMeasure:
    """Weighted point masses on the real line."""

    support: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        support = np.asarray(self.support, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if support.ndim != 1 or weights.ndim != 1:
            raise ValueError("support and weights must be 1-dimensional")
        if len(support) == 0:
            raise ValueError("empirical measure needs at least one support point")
        if len(support) != len(weights):
            raise ValueError("support and weights must have equal length")
        if not np.all(np.isfinite(support)):
            raise ValueError("support points must be finite")
        if np.any(weights < 0):
            raise ValueError("weights must be non-negative")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {weights.sum()!r}")
        support.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def uniform(cls, values) -> "EmpiricalMeasure":
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            raise ValueError("empirical measure needs at least one support point")
        return cls(support=values, weights=np.full(len(values), 1.0 / len(values)))

    def __len__(self) -> int:
        return len(self.support)

    @property
    def is_uniform(self) -> bool:
        return bool(np.all(self.weights == self.weights[0]))


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """Sparse coupling with source rows and target columns.

    Marginal feasibility is checked at construction: row sums must match the
    source weights and column sums the target weights within 1e-10.
    """

    source_idx: np.ndarray
    target_idx: np.ndarray
    masses: np.ndarray
    source_weights: np.ndarray
    target_weights: np.ndarray

    def __post_init__(self) -> None:
        src = np.asarray(self.source_idx, dtype=np.int64)
        tgt = np.asarray(self.target_idx, dtype=np.int64)
        mass = np.asarray(self.masses, dtype=float)
        sw = np.asarray(self.source_weights, dtype=float)
        tw = np.asarray(self.target_weights, dtype=float)
        if not (len(src) == len(tgt) == len(mass)):
            raise ValueError("triple arrays must have equal length")
        if np.any(mass < 0):
            raise ValueError("plan masses must be non-negative")
        row_sums = np.bincount(src, weights=mass, minlength=len(sw))
        col_sums = np.bincount(tgt, weights=mass, minlength=len(tw))
        if np.max(np.abs(row_sums - sw)) > _MARGINAL_TOL:
            raise ValueError("plan row sums do not match source weights")
        if np.max(np.abs(col_sums - tw)) > _MARGINAL_TOL:
            raise ValueError("plan column sums do not match target weights")
        for name, arr in (
            ("source_idx", src),
            ("target_idx", tgt),
            ("masses", mass),
            ("source_weights", sw),
            ("target_weights", tw),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def source_n(self) -> int:
        return len(self.source_weights)

    @property
    def target_n(self) -> int:
        return len(self.target_weights)

    def to_dense(self) -> np.ndarray:
        """Materialize the coupling matrix, source rows by target columns."""
        gamma = np.zeros((self.source_n, self.target_n))
        np.add.at(gamma, (self.source_idx, self.target_idx), self.masses)
        return gamma


def _monotone_merge(cu: np.ndarray, cv: np.ndarray):
    """Cells of the monotone coupling between two sorted measures.

    ``cu`` and ``cv`` are the cumulative masses of the sorted source and target
    weights. The coupling fills mass along the merged grid of both: every
    interval between consecutive grid levels belongs to exactly one source
    point and one target point, the first ones whose cumulative mass reaches
    the interval's upper end. Returns (source ranks, target ranks, masses).
    """
    # A stable sort merges the two sorted runs in linear time (np.union1d takes
    # a much slower hash path on int64). Repeated levels and zero-mass points
    # add no interval, and past the smaller total (the larger can overshoot it
    # by float dust) nothing is left to couple.
    levels = np.sort(np.concatenate((cu, cv)), kind="stable")
    levels = levels[(np.diff(levels, prepend=0) > 0) & (levels <= min(cu[-1], cv[-1]))]
    take = np.diff(levels, prepend=0)
    return np.searchsorted(cu, levels), np.searchsorted(cv, levels), take


def solve_ot_1d(source: EmpiricalMeasure, target: EmpiricalMeasure) -> TransportPlan:
    """Cost-minimizing coupling for squared-distance cost on the line.

    Both supports are sorted ascending, mass is matched monotonically, and the
    resulting triples are mapped back to the original index order. For uniform
    weights the masses are exact multiples of 1/(n*m).
    """
    n, m = len(source), len(target)
    src_order = np.argsort(source.support, kind="stable")
    tgt_order = np.argsort(target.support, kind="stable")

    if source.is_uniform and target.is_uniform:
        # Integer bookkeeping: a source point holds m units, a target point n
        # units, one unit being 1/(n*m) of mass. Exact by construction.
        p, q, units = _monotone_merge(
            np.arange(1, n + 1, dtype=np.int64) * m, np.arange(1, m + 1, dtype=np.int64) * n
        )
        mass = units * (1.0 / (n * m))
    else:
        p, q, mass = _monotone_merge(
            np.cumsum(source.weights[src_order]), np.cumsum(target.weights[tgt_order])
        )

    src_idx = src_order[p]
    tgt_idx = tgt_order[q]
    order = np.lexsort((tgt_idx, src_idx))
    return TransportPlan(
        source_idx=src_idx[order],
        target_idx=tgt_idx[order],
        masses=mass[order],
        source_weights=source.weights,
        target_weights=target.weights,
    )


def plan_cost(plan: TransportPlan, source_support, target_support) -> float:
    """Total squared-distance cost of a plan between the given supports."""
    zs = np.asarray(source_support, dtype=float)
    zt = np.asarray(target_support, dtype=float)
    diff = zs[plan.source_idx] - zt[plan.target_idx]
    return float(np.sum(plan.masses * diff * diff))


def barycentric_projection(plan: TransportPlan, target_support) -> np.ndarray:
    """Map each source point to the mass-weighted mean of its coupled targets.

    The triples are sorted by (source, target), so each source row is one
    contiguous run; ``np.add.reduceat`` over the runs gives every row's
    coupled mass and mass-weighted target sum at once, and
    ``np.minimum.reduceat``/``np.maximum.reduceat`` its coupled hull. Rows
    with a single coupled target return that target value exactly; rows with
    several are clamped to the range of their own targets so the output never
    leaves the coupled hull by floating-point dust.
    """
    zt = np.asarray(target_support, dtype=float)
    if len(zt) != plan.target_n:
        raise ValueError(
            f"target support has {len(zt)} points but plan expects {plan.target_n}"
        )
    order = np.lexsort((plan.target_idx, plan.source_idx))
    src = plan.source_idx[order]
    vals = zt[plan.target_idx[order]]
    mass = plan.masses[order]
    starts = np.flatnonzero(np.diff(src, prepend=-1))  # first triple of each row
    with np.errstate(invalid="ignore"):  # a massless row gives nan, reported below
        avg = np.add.reduceat(mass * vals, starts) / np.add.reduceat(mass, starts)
    row = np.clip(avg, np.minimum.reduceat(vals, starts), np.maximum.reduceat(vals, starts))
    single = np.diff(starts, append=len(src)) == 1
    row[single] = vals[starts[single]]
    out = np.full(plan.source_n, np.nan)
    out[src[starts]] = row
    if np.any(np.isnan(out)):
        missing = np.flatnonzero(np.isnan(out))
        raise ValueError(f"plan carries no mass for source rows {missing.tolist()}")
    return out


def wasserstein1_distance(p: EmpiricalMeasure, q: EmpiricalMeasure) -> float:
    """Exact W1 distance: the monotone coupling is optimal for |x - y| too,
    so W1 is the mass-weighted gap between the quantile functions."""
    plan = solve_ot_1d(p, q)
    gap = np.abs(p.support[plan.source_idx] - q.support[plan.target_idx])
    return float(np.sum(plan.masses * gap))
