"""Non-dominated filtering in the (disparity, accuracy) plane.

A point dominates another when it has no higher disparity and no lower
accuracy, with strict improvement in at least one of the two.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TradeoffPoint:
    """One evaluated configuration: lower disparity and higher accuracy are better."""

    lam: float
    accuracy: float
    disparity: float
    method_tag: str = ""
    replicate_id: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError(f"accuracy must be in [0, 1], got {self.accuracy}")
        if not 0.0 <= self.disparity <= 1.0:
            raise ValueError(f"disparity must be in [0, 1], got {self.disparity}")


def _dedup_key(p: TradeoffPoint) -> tuple:
    return (p.lam, p.method_tag, p.replicate_id)


def pareto_frontier(points: list[TradeoffPoint]) -> list[TradeoffPoint]:
    """The non-dominated subset, sorted by ascending disparity.

    Coordinate-identical duplicates collapse to a single representative, the
    one with the lowest lambda (then method tag, then replicate id). One scan
    in O(n log n): the points sorted by disparity, then descending accuracy,
    then that key, each kept when its accuracy beats the last kept point's.
    """
    frontier = []
    best_accuracy = -1.0
    for p in sorted(points, key=lambda p: (p.disparity, -p.accuracy, _dedup_key(p))):
        if p.accuracy > best_accuracy:
            frontier.append(p)
            best_accuracy = p.accuracy
    return frontier
