"""Post-processing baselines: group-b sigmoid rescaling and quantile matching
to the two groups' W1 barycenter."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import sigmoid
from .metrics import GROUP_A, GROUP_B, PairCounts, ScoreSet, count_pairs_above, require_both_groups

# Fixed defaults so runs are reproducible: offset pinned at zero, scale
# searched over 50 log-spaced values in [0.1, 10].
DEFAULT_OFFSET = 0.0
DEFAULT_SCALE_GRID = tuple(np.geomspace(0.1, 10.0, 50))


@dataclass(frozen=True)
class PostLogitParams:
    """Chosen sigmoid rescaling for group b: s -> sigmoid(scale * s + offset)."""

    scale: float
    offset: float

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")


def apply_post_logit(params: PostLogitParams, scores_b) -> np.ndarray:
    """Elementwise sigmoid(scale * s + offset); strictly increasing, so the
    within-group ordering is preserved exactly."""
    s = np.asarray(scores_b, dtype=float)
    return sigmoid(params.scale * s + params.offset)


def fit_post_logit(
    train: ScoreSet,
    grid=DEFAULT_SCALE_GRID,
    offset: float = DEFAULT_OFFSET,
) -> PostLogitParams:
    """Pick the grid scale minimizing the training disparity after rescaling
    group b only; ties go to the smallest scale.

    Group a never changes, so its positives and negatives are sorted once;
    group b's are sorted once before any rescaling, and each scale maps them,
    sorts the mapped negatives and counts the two cross-group strict pair
    counts with sorted queries. ``PairCounts.xauc_disparity`` turns them into
    the disparity, as ``xauc_disparity`` does on the rescaled set.
    """
    grid = tuple(float(g) for g in grid)
    if not grid:
        raise ValueError("post-logit scale grid is empty")
    if not np.any(train.group_mask(GROUP_A)) or not np.any(train.group_mask(GROUP_B)):
        raise ValueError("post-logit fitting needs both groups in the training set")
    a_pos, a_neg, b_pos, b_neg = (
        np.sort(train.scores[train.cells[label, group]])
        for label, group in ((1, GROUP_A), (0, GROUP_A), (1, GROUP_B), (0, GROUP_B))
    )
    n_pos = {GROUP_A: len(a_pos), GROUP_B: len(b_pos)}
    n_neg = {GROUP_A: len(a_neg), GROUP_B: len(b_neg)}
    best_scale = None
    best_disparity = np.inf
    for scale in sorted(grid):
        candidate = PostLogitParams(scale=scale, offset=offset)
        new_pos = apply_post_logit(candidate, b_pos)
        new_neg = apply_post_logit(candidate, b_neg)
        if not (np.all(np.isfinite(new_pos)) and np.all(np.isfinite(new_neg))):
            raise ValueError("scores must be finite and in [0, 1]")
        # The map is increasing, so the mapped positives stay sorted queries
        # (a rounding slip would only slow the search); the negatives are the
        # searched side, so they are sorted again in case rounding broke it.
        new_neg = np.sort(new_neg)
        above = {
            (GROUP_A, GROUP_B): count_pairs_above(a_pos, new_neg),
            (GROUP_B, GROUP_A): count_pairs_above(new_pos, a_neg),
        }
        disparity = PairCounts(above, n_pos, n_neg).xauc_disparity()
        if disparity < best_disparity:
            best_disparity = disparity
            best_scale = scale
    return PostLogitParams(scale=best_scale, offset=offset)


def _group_quantile_maps(train_scores: np.ndarray):
    """Forward (score -> level) and inverse (level -> score) empirical quantile
    maps with linear interpolation between order statistics."""
    s = np.sort(train_scores)
    n = len(s)
    # each distinct value is one run of the sorted scores; its level is the
    # run's last order-statistic position / (n - 1)
    first = np.flatnonzero(np.append(True, s[1:] != s[:-1]))
    uniq = s[first]
    if n > 1:
        levels_of_uniq = np.append(first[1:] - 1, n - 1) / (n - 1)
        grid_levels = np.linspace(0.0, 1.0, n)
    else:
        levels_of_uniq = grid_levels = np.array([0.5])

    def score_to_level(x):
        return np.interp(x, uniq, levels_of_uniq)

    def level_to_score(t):
        return np.interp(t, grid_levels, s)

    return score_to_level, level_to_score


def wasserstein_fair(train: ScoreSet, test: ScoreSet) -> ScoreSet:
    """Map both groups' test scores to the shared barycenter quantile function.

    Group quantile functions are estimated on the training split; the
    barycenter averages them with weights proportional to group training
    sizes. Test scores outside the training range clamp to boundary quantiles.
    """
    require_both_groups(train, "train")
    require_both_groups(test, "test")

    train_a = train.group_scores(GROUP_A)
    train_b = train.group_scores(GROUP_B)
    w_a = len(train_a) / (len(train_a) + len(train_b))
    w_b = 1.0 - w_a

    to_level_a, to_score_a = _group_quantile_maps(train_a)
    to_level_b, to_score_b = _group_quantile_maps(train_b)

    def barycenter_at(levels):
        return w_a * to_score_a(levels) + w_b * to_score_b(levels)

    out = test.replace_group_scores(
        GROUP_A, barycenter_at(to_level_a(test.group_scores(GROUP_A)))
    )
    return out.replace_group_scores(
        GROUP_B, barycenter_at(to_level_b(test.group_scores(GROUP_B)))
    )
