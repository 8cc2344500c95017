"""Tests for the rank-statistic estimators."""

import numpy as np
import pytest

from fairpot.io import read_score_file, write_score_file
from fairpot.metrics import (
    GROUP_A,
    GROUP_B,
    ScoreSet,
    TopAlphaRegion,
    auc,
    evaluate_cells,
    pauc,
    pxauc,
    pxauc_disparity,
    region_cells,
    select_region,
    top_alpha_region,
    xauc,
    xauc_disparity,
)

import oracles


def make_set(scores, labels, groups):
    return ScoreSet(
        scores=np.asarray(scores, dtype=float),
        labels=np.asarray(labels),
        groups=np.asarray(groups),
    )


class TestScoreSet:
    def test_counts(self):
        # class sizes by group, as the pair-count table holds them
        s = make_set([0.9, 0.8, 0.7, 0.6, 0.5], [1, 0, 1, 0, 0], ["a", "a", "b", "b", "b"])
        assert s.pair_counts.n_pos == {GROUP_A: 1, GROUP_B: 1}
        assert s.pair_counts.n_neg == {GROUP_A: 1, GROUP_B: 2}

    def test_replace_group_scores(self):
        s = make_set([0.2, 0.9, 0.5], [1, 0, 1], ["a", "b", "a"])
        out = s.replace_group_scores(GROUP_A, np.array([0.3, 0.6]))
        assert list(out.scores) == [0.3, 0.9, 0.6]
        assert list(s.scores) == [0.2, 0.9, 0.5]

    @pytest.mark.parametrize("bad", [1.5, -0.1, np.nan, np.inf])
    def test_replace_group_scores_rejects_out_of_range(self, bad):
        s = make_set([0.2, 0.9, 0.5], [1, 0, 1], ["a", "b", "a"])
        with pytest.raises(ValueError, match=r"scores must be finite and in \[0, 1\]"):
            s.replace_group_scores(GROUP_A, np.array([0.3, bad]))

    def test_derived_sets_are_read_only(self):
        s = make_set([0.2, 0.9, 0.5], [1, 0, 1], ["a", "b", "a"])
        derived = (s.subset([2, 0, 2]), s.replace_group_scores(GROUP_B, np.array([0.1])))
        for d in derived:
            for arr in (d.scores, d.is_pos, d.in_group_a, d.labels, d.groups):
                assert not arr.flags.writeable
        assert derived[0].scores is not s.scores
        # replacing scores keeps the records: their label and group masks are shared
        assert derived[1].is_pos is s.is_pos and derived[1].in_group_a is s.in_group_a
        assert list(derived[1].scores) == [0.2, 0.1, 0.5]

    @pytest.mark.parametrize(
        "path", ["init", "subset", "with_scores", "replace_group_scores", "parse"]
    )
    def test_labels_and_groups_read_back_as_given(self, path, tmp_path):
        # a record is stored as its score and two masks; labels and groups
        # are derived from the masks with the dtypes they were given in
        labels, groups = [1, 0, 1, 0], ["a", "b", "b", "a"]
        s = make_set([0.2, 0.9, 0.5, 0.4], labels, groups)
        if path == "parse":
            write_score_file(s, tmp_path / "scores.csv")
        picks = [3, 1, 1] if path == "subset" else range(4)
        built = {
            "init": lambda: s,
            "subset": lambda: s.subset(picks),
            "with_scores": lambda: s.with_scores(np.array([0.1, 0.2, 0.3, 0.4])),
            "replace_group_scores": lambda: s.replace_group_scores(GROUP_B, np.array([0.7, 0.8])),
            "parse": lambda: read_score_file(tmp_path / "scores.csv"),
        }[path]()
        for arr, want, dtype in (
            (built.labels, [labels[i] for i in picks], np.int64),
            (built.groups, [groups[i] for i in picks], "U1"),
            (built.is_pos, [labels[i] == 1 for i in picks], bool),
            (built.in_group_a, [groups[i] == "a" for i in picks], bool),
        ):
            assert arr.dtype == np.dtype(dtype) and arr.tolist() == want
            assert not arr.flags.writeable

    def test_with_scores_shares_cells_once_computed(self):
        s = make_set([0.2, 0.9, 0.5], [1, 0, 1], ["a", "b", "a"])
        assert "cells" not in s.with_scores(np.array([0.1, 0.2, 0.3])).__dict__
        cells = s.cells
        assert s.with_scores(np.array([0.1, 0.2, 0.3])).cells is cells

    def test_shared_cells_are_read_only(self):
        # a write into one set's cells would move the records of every set
        # that shares them
        s = make_set([0.2, 0.9, 0.5, 0.4], [1, 0, 1, 0], ["b", "b", "a", "a"])
        with pytest.raises(ValueError, match="read-only"):
            s.cells[1, GROUP_A][0] = 3
        assert s.with_scores(np.array([0.1, 0.2, 0.3, 0.4])).cells[1, GROUP_A].tolist() == [2]
        assert not any(idx.flags.writeable for idx in s.cells.values())

    def test_subset_rejects_2d_indices(self):
        s = make_set([0.2, 0.9, 0.5], [1, 0, 1], ["a", "b", "a"])
        with pytest.raises(ValueError):
            s.subset(np.array([[0, 1]]))

    @pytest.mark.parametrize(
        "indices",
        [np.array([True, False, True]), [0.0, 1.7], np.array([1.0])],
        ids=["bool-mask", "floats", "float-array"],
    )
    def test_subset_rejects_non_integer_indices(self, indices):
        # a bool mask is not a list of positions: [True, False, True] is not records 1, 0, 1
        s = make_set([0.2, 0.9, 0.5], [1, 0, 1], ["a", "b", "a"])
        with pytest.raises(ValueError, match="^indices must be integers, got dtype "):
            s.subset(indices)

    @pytest.mark.parametrize(
        "indices, want",
        [([], []), (np.array([2, 0], dtype=np.uint8), [0.5, 0.2]),
         (np.array([1, 1], dtype=np.int16), [0.9, 0.9])],
        ids=["empty", "unsigned", "signed"],
    )
    def test_subset_takes_integers_of_any_width_and_empty_input(self, indices, want):
        s = make_set([0.2, 0.9, 0.5], [1, 0, 1], ["a", "b", "a"])
        assert s.subset(indices).scores.tolist() == want

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            make_set([1.2], [1], ["a"])

    @pytest.mark.parametrize(
        "score,label,group",
        [(1.5, 1, "a"), (-0.1, 0, "b"), (float("nan"), 1, "a"), (0.5, 2, "a"), (0.5, 1, "c")],
    )
    def test_invalid(self, score, label, group):
        with pytest.raises(ValueError):
            make_set([score], [label], [group])

    @pytest.mark.parametrize(
        "labels,groups,message",
        [
            ([1, 0.5], ["a", "b"], "labels must be 0 or 1"),
            ([1, 2], ["a", "b"], "labels must be 0 or 1"),
            ([1, "1"], ["a", "b"], "labels must be 0 or 1"),
            ([1, 0], ["a", "alpha"], "groups must be one of"),
            ([1, 0], ["a", "ab"], "groups must be one of"),
        ],
        ids=["0.5", "2", "'1'", "alpha", "ab"],
    )
    def test_values_are_checked_before_they_are_cast(self, labels, groups, message):
        # a cast to int64 / one character would turn 0.5 into 0 and "ab" into "a"
        with pytest.raises(ValueError, match=message):
            ScoreSet([0.2, 0.9], labels, groups)

    def test_in_contract_values_are_cast(self):
        s = ScoreSet([0.2, 0.9, 0.5], [True, 0.0, 1], np.array(["a", "b", "a"], dtype=object))
        assert s.labels.dtype == np.int64 and s.labels.tolist() == [1, 0, 1]
        assert s.groups.dtype == np.dtype("U1") and s.groups.tolist() == ["a", "b", "a"]
        empty = ScoreSet([], [], [])
        assert empty.labels.dtype == np.int64 and empty.groups.dtype == np.dtype("U1")


class TestAuc:
    def test_perfect_separation(self):
        s = make_set([0.9, 0.8], [1, 0], ["a", "b"])
        assert auc(s) == 1.0

    def test_ties_earn_nothing(self):
        s = make_set([0.5, 0.5], [1, 0], ["a", "b"])
        assert auc(s) == 0.0

    def test_four_record_case(self):
        # brute force over all four positive-negative pairs gives 3/4
        s = make_set([0.9, 0.7, 0.6, 0.2], [1, 0, 1, 0], ["a", "b", "a", "b"])
        assert auc(s) == oracles.brute_auc(s) == 0.75

    def test_degenerate_single_class(self):
        assert auc(make_set([0.9, 0.8], [1, 1], ["a", "b"])) == 0.0
        assert auc(make_set([0.9, 0.8], [0, 0], ["a", "b"])) == 0.0

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(7)
        s = oracles.random_score_set(rng, 60)
        squashed = ScoreSet(scores=s.scores**2, labels=s.labels, groups=s.groups)
        assert auc(s) == auc(squashed)


class TestXauc:
    def test_separated_groups(self):
        s = make_set([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0], ["a", "a", "b", "b"])
        assert xauc(s, GROUP_A, GROUP_B) == 1.0

    def test_empty_side_is_zero(self):
        s = make_set([0.9, 0.1], [0, 0], ["a", "b"])
        assert xauc(s, GROUP_A, GROUP_B) == 0.0

    def test_mixed_case_matches_enumeration(self):
        # 3 a-positives x 2 b-negatives
        s = make_set(
            [0.9, 0.55, 0.3, 0.6, 0.2],
            [1, 1, 1, 0, 0],
            ["a", "a", "a", "b", "b"],
        )
        assert xauc(s, GROUP_A, GROUP_B) == oracles.brute_xauc(s, GROUP_A, GROUP_B) == 4 / 6

    def test_same_group_rejected(self):
        s = make_set([0.5], [1], ["a"])
        with pytest.raises(ValueError):
            xauc(s, GROUP_A, GROUP_A)

    @pytest.mark.parametrize("groups", [("a", "c"), ("c", "b"), ("b", "b")])
    def test_region_groups_checked_as_xauc_checks_them(self, groups):
        s = make_set([0.9, 0.1, 0.6, 0.3], [1, 0, 1, 0], ["a", "a", "b", "b"])
        with pytest.raises(ValueError) as expected:
            xauc(s, *groups)
        with pytest.raises(ValueError) as got:
            pxauc(s, top_alpha_region(s, 0.5), *groups)
        assert str(got.value) == str(expected.value)


class TestXaucDisparity:
    def test_symmetric_data(self):
        s = make_set(
            [0.9, 0.1, 0.9, 0.1],
            [1, 0, 1, 0],
            ["a", "a", "b", "b"],
        )
        assert xauc_disparity(s) == 0.0

    def test_definition(self):
        rng = np.random.default_rng(3)
        s = oracles.random_score_set(rng, 40)
        assert xauc_disparity(s) == abs(xauc(s, "a", "b") - xauc(s, "b", "a"))


class TestTopAlphaRegion:
    def test_alpha_one_takes_all(self):
        s = make_set([0.3, 0.8, 0.5], [1, 0, 1], ["a", "b", "a"])
        r = top_alpha_region(s, 1.0)
        assert list(r.member_indices) == [0, 1, 2]
        assert r.n_alpha == 3

    def test_ceiling(self):
        s = make_set(np.linspace(0.05, 0.95, 10), [1] * 10, ["a"] * 10)
        assert top_alpha_region(s, 0.25).n_alpha == 3

    def test_threshold_is_kth_largest(self):
        scores = [0.1, 0.9, 0.4, 0.8, 0.3, 0.7, 0.2]
        s = make_set(scores, [1] * 7, ["a"] * 7)
        r = top_alpha_region(s, 0.3)  # ceil(2.1) = 3
        assert r.n_alpha == 3
        assert s.scores[r.member_indices].min() == 0.7
        assert sorted(s.scores[r.member_indices], reverse=True) == [0.9, 0.8, 0.7]

    def test_tie_break_prefers_low_index(self):
        s = make_set([0.5, 0.9, 0.5, 0.5], [1, 0, 1, 0], ["a", "b", "a", "b"])
        r = top_alpha_region(s, 0.75)  # 3 of 4
        assert list(r.member_indices) == [0, 1, 2]

    @pytest.mark.parametrize("alpha", [0.0, -0.2, 1.1])
    def test_alpha_domain(self, alpha):
        s = make_set([0.5], [1], ["a"])
        with pytest.raises(ValueError):
            top_alpha_region(s, alpha)

    @pytest.mark.parametrize(
        "members", [[0.2, 1.9], np.array([True, True])], ids=["floats", "bool-mask"]
    )
    def test_non_integer_members_rejected(self, members):
        with pytest.raises(ValueError, match="^indices must be integers, got dtype "):
            TopAlphaRegion(members)

    def test_members_of_any_integer_width_or_none(self):
        r = TopAlphaRegion(np.array([1, 2], dtype=np.uint64))
        assert r.member_indices.tolist() == [1, 2] and r.member_indices.dtype == np.int32
        assert r.n_alpha == 2
        assert TopAlphaRegion([]).n_alpha == 0


class TestPauc:
    def test_alpha_one_equals_auc(self):
        rng = np.random.default_rng(11)
        s = oracles.random_score_set(rng, 80)
        assert pauc(s, top_alpha_region(s, 1.0)) == auc(s)

    def test_all_positive_region_is_one(self):
        s = make_set([0.9, 0.8, 0.1], [1, 1, 0], ["a", "b", "a"])
        assert pauc(s, top_alpha_region(s, 0.5)) == 1.0

    def test_no_positive_region_is_zero(self):
        s = make_set([0.9, 0.8, 0.1], [0, 0, 1], ["a", "b", "a"])
        assert pauc(s, top_alpha_region(s, 0.5)) == 0.0

    def test_four_record_region(self):
        # 2 pos / 2 neg with one inversion: 3 of 4 pairs correct
        s = make_set([0.9, 0.8, 0.7, 0.6, 0.1], [1, 0, 1, 0, 0], ["a"] * 5)
        r = top_alpha_region(s, 0.8)
        assert r.n_alpha == 4
        assert pauc(s, r) == oracles.brute_pauc(s, r.member_indices) == 0.75


class TestPxaucDisparity:
    def test_alpha_one_reduces_to_global(self):
        rng = np.random.default_rng(13)
        s = oracles.random_score_set(rng, 70)
        assert pxauc_disparity(s, top_alpha_region(s, 1.0)) == xauc_disparity(s)

    def test_single_group_region_is_zero(self):
        s = make_set([0.9, 0.8, 0.1, 0.05], [1, 0, 1, 0], ["a", "a", "b", "b"])
        assert pxauc_disparity(s, top_alpha_region(s, 0.5)) == 0.0

    def test_mixed_region_matches_enumeration(self):
        rng = np.random.default_rng(17)
        s = oracles.random_score_set(rng, 6)
        r = top_alpha_region(s, 1.0)
        assert pxauc_disparity(s, r) == oracles.brute_pxauc_disparity(s, r.member_indices)


class TestOracleEquivalence:
    """Fast estimators must equal all-pairs counting bit for bit, ties included."""

    @pytest.mark.parametrize("seed", range(30))
    def test_random_sets(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(1, 120))
        pool = rng.random(max(2, n // 4)) if seed % 2 else None
        s = oracles.random_score_set(rng, n, score_pool=pool)
        assert auc(s) == oracles.brute_auc(s)
        assert xauc(s, "a", "b") == oracles.brute_xauc(s, "a", "b")
        assert xauc(s, "b", "a") == oracles.brute_xauc(s, "b", "a")
        alpha = float(rng.uniform(0.05, 1.0))
        region = top_alpha_region(s, alpha)
        assert pauc(s, region) == oracles.brute_pauc(s, region.member_indices)
        assert pxauc_disparity(s, region) == oracles.brute_pxauc_disparity(
            s, region.member_indices
        )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        s = oracles.random_score_set(rng, 50)
        perm = rng.permutation(50)
        p = s.subset(perm)
        assert auc(s) == auc(p)
        assert xauc_disparity(s) == xauc_disparity(p)
        assert pauc(s, top_alpha_region(s, 0.4)) == pauc(p, top_alpha_region(p, 0.4))

    def test_bounds(self):
        rng = np.random.default_rng(23)
        for seed in range(10):
            s = oracles.random_score_set(np.random.default_rng(seed), 30)
            region = top_alpha_region(s, 0.5)
            for value in (
                auc(s),
                xauc(s, "a", "b"),
                xauc_disparity(s),
                pauc(s, region),
                pxauc_disparity(s, region),
            ):
                assert 0.0 <= value <= 1.0


class TestEvaluateCells:
    @pytest.mark.parametrize("mode", ["global", "partial"])
    def test_matches_the_region_subset(self, mode):
        rng = np.random.default_rng(31)
        s = oracles.random_score_set(rng, 60)
        draw = rng.integers(0, 60, size=60)
        region = select_region(s, mode, 0.5, draw)
        sub = s.subset(region)
        got = evaluate_cells(region_cells(s, region), s.scores, mode)
        if mode == "global":
            assert got == (auc(sub), xauc_disparity(sub))
        else:
            whole = top_alpha_region(sub, 1.0)
            assert got == (pauc(sub, whole), pxauc_disparity(sub, whole))

    @pytest.mark.parametrize("drawn", [False, True])
    def test_cells_of_a_larger_set_rejected(self, drawn):
        rng = np.random.default_rng(32)
        big = oracles.random_score_set(rng, 40)
        region = rng.integers(0, 40, size=40) if drawn else None
        cells = region_cells(big, region)
        small = big.subset(np.arange(30))
        with pytest.raises(ValueError, match="past the 30 scores"):
            evaluate_cells(cells, small.scores, "global")

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("position", [-1, 30])
    def test_position_outside_the_scores_rejected_at_either_width(self, position, dtype):
        s = oracles.random_score_set(np.random.default_rng(33), 30)
        cells = dict(s.cells)
        cells[1, GROUP_A] = np.append(cells[1, GROUP_A], position).astype(dtype)
        with pytest.raises(ValueError, match="past the 30 scores"):
            evaluate_cells(cells, s.scores, "global")
