"""Tests for the score, sweep-result, and config file formats."""

import json
import math

import numpy as np
import pytest

from fairpot.io import (
    ConfigError,
    DEFAULT_LAMBDAS,
    ExperimentConfig,
    ScoreFileError,
    SweepRow,
    read_config,
    read_score_file,
    read_sweep_results,
    write_score_file,
    write_sweep_results,
    write_sweep_summary,
)
from fairpot.svg import render_tradeoff_svg
import oracles


class TestScoreFile:
    def test_single_row(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("id,score,label,group\nx1,0.75,1,a\n")
        s = read_score_file(path)
        assert len(s) == 1
        assert (s.scores[0], s.labels[0], s.groups[0]) == (0.75, 1, "a")

    def test_empty_body(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("id,score,label,group\n")
        assert len(read_score_file(path)) == 0

    def test_round_trip_synthetic(self, tmp_path):
        rng = np.random.default_rng(50)
        s = oracles.random_score_set(rng, 200)
        path = tmp_path / "scores.csv"
        write_score_file(s, path)
        back = read_score_file(path)
        # scores survive to printed precision, labels and groups exactly
        np.testing.assert_allclose(back.scores, s.scores, rtol=1e-9, atol=0)
        assert np.array_equal(back.labels, s.labels)
        assert np.array_equal(back.groups, s.groups)

    def test_write_read_write_stable(self, tmp_path):
        rng = np.random.default_rng(51)
        s = oracles.random_score_set(rng, 50)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_score_file(s, p1)
        write_score_file(read_score_file(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("score,label\n")
        with pytest.raises(ScoreFileError, match=":1:"):
            read_score_file(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,score,label,group\nx1,0.5,1,a\nx2,0.5\n")
        with pytest.raises(ScoreFileError, match=":3:"):
            read_score_file(path)

    def test_out_of_range_score(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,score,label,group\nx1,1.5,1,a\n")
        with pytest.raises(ScoreFileError, match="outside"):
            read_score_file(path)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,score,label,group\nx1,0.5,1,a\nx1,0.6,0,b\n")
        with pytest.raises(ScoreFileError, match="duplicate"):
            read_score_file(path)

    @pytest.mark.parametrize("row", ["x1,0.5,2,a", "x1,0.5,1,c", "x1,abc,1,a"])
    def test_bad_fields(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"id,score,label,group\n{row}\n")
        with pytest.raises(ScoreFileError):
            read_score_file(path)


class TestSweepResultFile:
    def test_round_trip(self, tmp_path):
        rows = [
            SweepRow("fairpot", 0.1, 1.0, 0, 0.7512345678, 0.2012345678, True),
            SweepRow("fairpot", 0.1, 1.0, 1, float("nan"), float("nan"), False),
            SweepRow("unadjusted", 0.0, 1.0, 0, 0.75, 0.25, False),
        ]
        path = tmp_path / "rows.csv"
        write_sweep_results(rows, path)
        back = read_sweep_results(path)
        assert len(back) == 3
        assert back[0] == rows[0]
        assert back[1].failed and not back[0].failed
        assert math.isnan(back[1].accuracy)
        assert back[2].on_frontier is False

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("method,lambda\n")
        with pytest.raises(ScoreFileError):
            read_sweep_results(path)

    def test_ten_significant_digits(self, tmp_path):
        rows = [SweepRow("fairpot", 0.1, 1.0, 0, 1 / 3, 2 / 3, False)]
        path = tmp_path / "rows.csv"
        write_sweep_results(rows, path)
        body = path.read_text().splitlines()[1]
        assert "0.3333333333" in body and "0.6666666667" in body


class TestAtomicWrites:
    ROWS = [
        SweepRow("fairpot", 0.0, 1.0, 0, 0.75, 0.25, True),
        SweepRow("fairpot", 0.5, 1.0, 0, 0.7, 0.2, False),
    ]
    WRITERS = {
        "score": lambda path: write_score_file(
            oracles.random_score_set(np.random.default_rng(52), 5), path
        ),
        "results": lambda path: write_sweep_results(TestAtomicWrites.ROWS, path),
        "summary": lambda path: write_sweep_summary(TestAtomicWrites.ROWS, path),
        "svg": lambda path: render_tradeoff_svg(path, series=[("m", [(0.1, 0.7), (0.2, 0.8)])]),
    }

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_exception_mid_write_keeps_earlier_file(self, tmp_path, monkeypatch, writer):
        path = tmp_path / "out"
        self.WRITERS[writer](path)
        earlier = path.read_bytes()

        def boom(*args):
            raise RuntimeError("interrupted")

        if writer == "svg":
            # the SVG bytes are serialized inside the open temporary file
            monkeypatch.setattr("fairpot.svg.ET.tostring", boom)
        else:
            # the header is written before the first formatted number
            monkeypatch.setattr("fairpot.io._fmt", boom)
        with pytest.raises(RuntimeError, match="interrupted"):
            self.WRITERS[writer](path)
        assert path.read_bytes() == earlier
        assert [p.name for p in tmp_path.iterdir()] == ["out"]


class TestExperimentConfig:
    def test_empty_config_all_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{}")
        cfg = read_config(path)
        assert cfg == ExperimentConfig()
        assert cfg.lambdas == DEFAULT_LAMBDAS
        assert cfg.alpha == 0.3
        assert cfg.bootstrap_n == 20
        assert cfg.direction == "b_to_a"
        assert cfg.split_ratio == 0.8

    def test_alpha_override(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"alpha": 0.1}')
        assert read_config(path).alpha == 0.1

    def test_two_point_grid(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"lambdas": [0, 1]}')
        assert read_config(path).lambdas == (0.0, 1.0)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"lambda_grid": [0, 1]}')
        with pytest.raises(ConfigError, match="unknown"):
            read_config(path)

    def test_type_mismatch_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"alpha": "large"}')
        with pytest.raises(ConfigError, match="type"):
            read_config(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{alpha: 0.3}")
        with pytest.raises(ConfigError, match="JSON"):
            read_config(path)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            read_config(path)

    @pytest.mark.parametrize(
        "payload",
        [
            {"alpha": 0.0},
            {"alpha": 1.5},
            {"lambdas": [0.5, 2.0]},
            {"mode": "windowed"},
            {"direction": "sideways"},
            {"method": "magic"},
            {"method": "post-logit", "direction": "a_to_b"},
            {"bootstrap_n": -1},
            {"split_ratio": 1.0},
        ],
    )
    def test_value_validation(self, tmp_path, payload):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError):
            read_config(path)

    def test_bool_is_not_an_int(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"seed": true}')
        with pytest.raises(ConfigError):
            read_config(path)
