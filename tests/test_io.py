"""Tests for the score, sweep-result, and config file formats."""

import csv
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairpot.io import (
    ConfigError,
    DEFAULT_LAMBDAS,
    ExperimentConfig,
    SWEEP_HEADER,
    ScoreFileError,
    SweepRow,
    read_config,
    read_score_file,
    read_sweep_results,
    write_score_file,
    write_sweep_results,
    write_sweep_summary,
)
from fairpot import io as fairpot_io
from fairpot.io import _canonical_decimals
from fairpot.metrics import ScoreSet
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


HEADER = "id,score,label,group"

# Every malformed score file above and a few more, with the full error text
# after "<path>:". The line number counts csv rows, blank ones included.
ERROR_CASES = {
    "bad header": ("score,label\n", "1: expected header id,score,label,group"),
    "no header": ("", "1: expected header id,score,label,group"),
    "header with BOM": ("\ufeff" + HEADER + "\nx1,0.5,1,a\n",
                        "1: expected header id,score,label,group"),
    "short row": (HEADER + "\nx1,0.5,1,a\nx2,0.5\n", "3: expected 4 fields, got 2"),
    "long row": (HEADER + "\nx1,0.5,1,a,\n", "2: expected 4 fields, got 5"),
    "out of range": (HEADER + "\nx1,1.5,1,a\n", "2: score 1.5 outside [0, 1]"),
    "negative": (HEADER + "\nx1,0.5,1,a\nx2,-0.5,1,a", "3: score -0.5 outside [0, 1]"),
    "nan": (HEADER + "\nx1,nan,1,a\n", "2: score nan outside [0, 1]"),
    "inf": (HEADER + "\nx1,inf,1,a\n", "2: score inf outside [0, 1]"),
    "duplicate id": (HEADER + "\nx1,0.5,1,a\nx1,0.6,0,b\n", "3: duplicate id 'x1'"),
    "label 2": (HEADER + "\nx1,0.5,2,a\n", "2: label must be 0 or 1, got '2'"),
    "padded label": (HEADER + "\nx1,0.5, 1,a\n", "2: label must be 0 or 1, got ' 1'"),
    "group c": (HEADER + "\nx1,0.5,1,c\n", "2: group must be one of ('a', 'b'), got 'c'"),
    "unparseable": (HEADER + "\nx1,abc,1,a\n", "2: unparseable score 'abc'"),
    "empty score": (HEADER + "\nx1,,1,a\n", "2: unparseable score ''"),
    "CRLF": (HEADER + "\r\nx1,0.5,1,a\r\nx2,0.5,1,c\r\n",
             "3: group must be one of ('a', 'b'), got 'c'"),
    "after a blank row": (HEADER + "\nx1,0.5,1,a\n\nx2,0.5,1\n", "4: expected 4 fields, got 3"),
    "quoted comma": (HEADER + '\n"x,1",0.5,1,a\nx2,0.5,1\n', "3: expected 4 fields, got 3"),
    "NUL": (HEADER + "\nx1,0.5,1,a\0\n", "2: group must be one of ('a', 'b'), got 'a\\x00'"),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_score_file_error_text(tmp_path, case):
    body, message = ERROR_CASES[case]
    path = tmp_path / "bad.csv"
    path.write_bytes(body.encode())
    with pytest.raises(ScoreFileError) as info:
        read_score_file(path)
    assert str(info.value) == f"{path}:{message}"


@pytest.mark.parametrize(
    "body",
    [
        HEADER + "\nx1,0.5,1,a\nx2,0.25,0,b\n",
        HEADER + "\r\nx1,0.5,1,a\r\nx2,0.25,0,b\r\n",
        HEADER + "\nx1,0.5,1,a\nx2,0.25,0,b",
        HEADER + "\r\nx1,0.5,1,a\r\nx2,0.25,0,b",
        HEADER + "\rx1,0.5,1,a\rx2,0.25,0,b\r",
        HEADER + '\n"x1","0.5",1,a\n\nx2,0.25,0,"b"\n',
    ],
    ids=["LF", "CRLF", "LF, no final newline", "CRLF, no final newline", "CR", "quotes, blank row"],
)
def test_score_file_line_endings(tmp_path, body):
    path = tmp_path / "scores.csv"
    path.write_bytes(body.encode())
    s = read_score_file(path)
    assert s.scores.tolist() == [0.5, 0.25]
    assert s.labels.tolist() == [1, 0]
    assert s.groups.tolist() == ["a", "b"]


@pytest.mark.parametrize("body", [HEADER, HEADER + "\n", HEADER + "\r\n"])
def test_header_only_score_file_is_empty(tmp_path, body):
    path = tmp_path / "scores.csv"
    path.write_bytes(body.encode())
    assert len(read_score_file(path)) == 0


# Well-formed rows, and per field the values that fail one check or are csv
# quirks; the last entry holds whole-row quirks.
_clean_rows = st.lists(
    st.tuples(
        st.integers(0, 999).map(str),
        st.floats(0.0, 1.0).flatmap(
            lambda x: st.sampled_from([format(x, f) for f in (".10g", ".15g", ".17g")] + [repr(x)])
        ),
        st.sampled_from(["0", "1"]),
        st.sampled_from(["a", "b"]),
    ).map(list),
    max_size=12,
)
QUIRKS = (
    ["", " r1", "r1 ", "x_9", '"r2"', "é"],
    [
        "0.5", " 0.25", "0.75 ", "+0.5", "0_5", "1_0", "5e-1", "1E0", "1e-400", ".5", "1.",
        "-0", "-0.0", "nan", "-nan", "inf", "Infinity", "1.5", "-1e-9", "abc", "", "0x1",
        '"0.5"', "\t0.5", "\x1c0.5", "0.5\x00", "0.1234567890123456789",
        "0.", "0.0", "00.5", "0.123456789012345", "0.1234567890123456", "0.9999999999999999",
        "1.234567891e-05", "0.5e-1", "0.2_5", "0.1_23456789", "0.5:", "0.5.5",
    ],
    [" 1", "2", "", '"0"', "01"],
    ["c", "A", " a", "", '"b"', "ab"],
    ["", "x9,0.5,1", "x9,0.5,1,a,", '"x,9",0.5,1,a', "x9,0.5,1,a\r"],
)
_terminators = st.sampled_from(["\n", "\n", "\r\n", "\r"])


@st.composite
def score_file_bytes(draw):
    """A score file of well-formed rows with up to two quirks: a bad field or
    a bad row, a bad header, mixed line endings, a byte that is not UTF-8."""
    rows = draw(_clean_rows)
    # short ids and ids longer than eight bytes
    prefix = draw(st.sampled_from(["r", "record-"]))
    for row in rows:
        row[0] = prefix + row[0]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2])) if rows else 0):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        field = draw(st.integers(0, 4))
        if field < len(row):
            row[field] = draw(st.sampled_from(QUIRKS[field]))
        else:
            row[:] = [draw(st.sampled_from(QUIRKS[4]))]
    header = draw(st.sampled_from([HEADER] * 9 + ["\ufeff" + HEADER, "id,score,label"]))
    lines = [header] + [",".join(row) for row in rows]
    if draw(st.booleans()):
        end = draw(_terminators)
        text = end.join(lines) + (end if draw(st.booleans()) else "")
    else:
        text = "".join(line + draw(_terminators) for line in lines)
    data = text.encode()
    if draw(st.sampled_from([False] * 19 + [True])):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@pytest.mark.parametrize("score", QUIRKS[1])
def test_score_quirk_equals_row_loop(tmp_path, score):
    """Each score quirk, in a file that is plain but for it, gives the row
    reader's records or its error."""
    path = tmp_path / "scores.csv"
    path.write_bytes(f"{HEADER}\nr0,0.5,1,a\nrecord1,{score},0,b\nr2,0.25,1,b\n".encode())
    assert _read(read_score_file, path) == _read(oracles.loop_read_score_file, path)


def test_field_over_the_csv_limit(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text(f"{HEADER}\nr0,0.5,1,a\n{'r' * (csv.field_size_limit() + 1)},0.5,1,a\n")
    assert _read(read_score_file, path) == _read(oracles.loop_read_score_file, path)
    assert _read(read_score_file, path) == (
        ScoreFileError, f"{path}:3: field larger than field limit ({csv.field_size_limit()})"
    )


def _records_in_a_child(path, **env) -> str:
    """The records a child process run with ``env`` reads from the score file
    at ``path``, as printed lists, or the last line of its stderr."""
    src = Path(fairpot_io.__file__).resolve().parents[1]
    code = (
        "import sys; from fairpot.io import read_score_file; s = read_score_file(sys.argv[1]); "
        "print(s.scores.tolist(), s.labels.tolist(), s.groups.tolist())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(path)],
        capture_output=True,
        text=True,
        env={**os.environ, **env, "PYTHONPATH": str(src)},
        timeout=120,
    )
    return proc.stdout if proc.returncode == 0 else proc.stderr.splitlines()[-1]


def test_score_file_is_utf8_whatever_the_locale(tmp_path):
    # a byte above 0x7F sends the file to the row reader
    path = tmp_path / "scores.csv"
    path.write_bytes(f"{HEADER}\n\u00e9,0.5,1,a\nr1,0.25,0,b\n".encode())
    no_utf8_mode = {"PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    records = _records_in_a_child(path, LC_ALL="C", **no_utf8_mode)
    assert records == _records_in_a_child(path, LC_ALL="C.UTF-8", **no_utf8_mode)
    assert records == "[0.5, 0.25] [1, 0] ['a', 'b']\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_score_file_from_a_pipe(tmp_path):
    # a pipe cannot be read twice, so it is not counted and parsed in two passes
    rng = np.random.default_rng(55)
    path, pipe = tmp_path / "scores.csv", tmp_path / "pipe"
    write_score_file(oracles.random_score_set(rng, 500), path)
    os.mkfifo(pipe)
    writer = threading.Thread(target=lambda: pipe.write_bytes(path.read_bytes()), daemon=True)
    writer.start()
    got = _read(read_score_file, pipe)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert got == _read(oracles.loop_read_score_file, path)


@pytest.mark.skipif(
    not hasattr(os, "fork") or not os.path.isdir("/dev/fd"), reason="needs fork and /dev/fd"
)
def test_non_plain_score_file_from_a_pipe(tmp_path):
    # a quoted id sends the file to the row reader, which reads the bytes
    # that the bulk parser took from the pipe: a pipe cannot be read twice
    path = tmp_path / "scores.csv"
    path.write_text(f'{HEADER}\n"r0",0.5,1,a\nr1,0.25,0,b\n')
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the writer
        try:
            os.close(read_fd)
            os.write(write_fd, path.read_bytes())
        finally:
            os._exit(0)
    os.close(write_fd)
    try:
        got = _read(read_score_file, f"/dev/fd/{read_fd}")
    finally:
        os.close(read_fd)
        os.waitpid(pid, 0)
    assert got == _read(read_score_file, path)
    assert got[1] == [1, 0]


def test_plain_files_are_parsed_in_bulk(tmp_path, monkeypatch):
    rng = np.random.default_rng(53)
    s = oracles.random_score_set(rng, 300, score_pool=np.round(rng.random(40), 10))
    lf, crlf, long_ids = tmp_path / "lf.csv", tmp_path / "crlf.csv", tmp_path / "long.csv"
    no_end = tmp_path / "no_end.csv"
    write_score_file(s, crlf)  # csv writes CRLF line ends
    lf.write_bytes(crlf.read_bytes().replace(b"\r\n", b"\n"))
    long_ids.write_bytes(lf.read_bytes().replace(b"\nr", b"\nrecord-"))
    no_end.write_bytes(crlf.read_bytes().removesuffix(b"\r\n"))
    files = (lf, crlf, long_ids, no_end)
    expected = [_read(oracles.loop_read_score_file, p) for p in files]

    def row_reader(path, fh):
        raise AssertionError(f"{path} was read row by row")

    monkeypatch.setattr("fairpot.io._read_score_rows", row_reader)
    assert [_read(read_score_file, p) for p in files] == expected


def test_written_scores_are_converted_in_bulk(tmp_path):
    """``write_score_file`` prints a score in [1e-4, 1) as "0." and 1 to 13
    digits, the form whose fields are converted without ``float()``; those
    values are ``float()``'s bit for bit."""
    rng = np.random.default_rng(54)
    n = 20_000
    short = [np.round(rng.random(100), d) for d in range(1, 11)]  # 1 to 10 digits
    scores = np.concatenate((rng.random(n // 2), 10.0 ** rng.uniform(-4, 0, n // 2 - 1000), *short))
    s = ScoreSet(
        scores=np.clip(scores, 1e-4, 0.9999),
        labels=rng.integers(0, 2, size=n),
        groups=np.where(rng.random(n) < 0.5, "a", "b"),
    )
    path = tmp_path / "scores.csv"
    write_score_file(s, path)
    data = path.read_bytes()
    commas = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == ord(","))[3:].reshape(-1, 3)
    values, bulk = _canonical_decimals(data, commas[:, 0] + 1, commas[:, 1])
    assert bulk.all()
    assert set(commas[:, 1] - commas[:, 0] - 3) == set(range(1, 14))  # digits after "0."
    expected = oracles.loop_read_score_file(path).scores
    assert values.view(np.uint64).tolist() == expected.view(np.uint64).tolist()
    assert _read(read_score_file, path) == _read(oracles.loop_read_score_file, path)


def read_rows(path):
    """The records of the score file at ``path`` as the row reader reads them."""
    with open(path, "rb") as fh:
        return fairpot_io._read_score_rows(path, fh)


def _read(read, path):
    try:
        s = read(path)
    except Exception as exc:  # the same exception, whatever its type
        return type(exc), str(exc)
    return s.scores.view(np.uint64).tolist(), s.labels.tolist(), s.groups.tolist(), (
        s.scores.dtype, s.labels.dtype, s.groups.dtype
    )


@settings(max_examples=300)
@given(score_file_bytes())
@example(f"{HEADER}\nr0,0.5,1,a\nr1,-0.0,0,b\nr2,1e-400,1,a\n".encode())
@example(f"{HEADER}\nr0,0.5,1,a\nr0,0.25,0,b\n".encode())
@example(f"{HEADER}\r\nr0,0_5,1,a\r\nr1,+1E0,0,b\r\nr2, .5 ,0,a".encode())
# csv takes the quotes off an id, and so finds a duplicate
@example(f'{HEADER}\nr2,0.5,1,a\n"r2",0.25,0,b\n'.encode())
# a byte that is not UTF-8 inside a field
@example(f"{HEADER}\nr0,0.5,1,a\n".encode().replace(b"r0", b"r\xff0"))
# a lone CR inside a row
@example(f"{HEADER}\nr0,0.5,1,a\nr1,0.5\r,1,a\n".encode())
def test_read_score_file_equals_row_loop(tmp_path_factory, data):
    """Any file gives the row-at-a-time reader's records bit for bit, or its
    exact error."""
    path = tmp_path_factory.mktemp("scores") / "scores.csv"
    path.write_bytes(data)
    assert _read(read_score_file, path) == _read(oracles.loop_read_score_file, path)


# Rows for a parse in 64-byte blocks: ids of 1 to 14 bytes, scores in the
# writer's form and others that float() parses, each line ended by LF or CRLF.
_EDGE_ID = st.text(alphabet="abcxyz0189-_.", min_size=1, max_size=14)
_EDGE_SCORE = st.one_of(
    st.floats(0.0, 1.0).map(lambda x: format(x, ".10g")),
    st.floats(0.0, 1.0).map(repr),
    st.sampled_from(["0", "1", "1.0", "5e-1", "0.50", "-0.0", "0.12345678901234567"]),
)


@st.composite
def block_edge_files(draw):
    """``(file bytes, plain)``: a score file whose rows straddle 64-byte
    block edges, and whether it is in contract. At most one quirk: a
    duplicate id, far from its first use or not, or a score out of range."""
    ids = draw(st.lists(_EDGE_ID, min_size=1, max_size=24, unique=True))
    rows = [[rid, draw(_EDGE_SCORE), draw(st.sampled_from("01")), draw(st.sampled_from("ab"))]
            for rid in ids]
    quirk = draw(st.sampled_from([None, None, "duplicate id", "score out of range"]))
    if quirk == "duplicate id" and len(rows) > 1:
        first, again = sorted(draw(st.lists(st.integers(0, len(rows) - 1), min_size=2,
                                            max_size=2, unique=True)))
        rows[again][0] = rows[first][0]
    elif quirk == "score out of range":
        rows[draw(st.integers(0, len(rows) - 1))][1] = draw(
            st.sampled_from(["1.5", "-0.5", "1.0000000001", "nan", "inf"])
        )
    else:
        quirk = None
    ends = st.sampled_from(["\n", "\r\n"])
    text = HEADER + draw(ends)
    text += "".join(",".join(row) + draw(ends) for row in rows[:-1]) + ",".join(rows[-1])
    text += draw(st.sampled_from(["", "\n", "\r\n"]))
    return text.encode(), quirk is None


@settings(max_examples=300)
@given(block_edge_files())
# an id of 8 bytes and one of 9, each repeated two blocks on
@example(((HEADER + "\nabcdefgh,0.25,1,a\nabcdefghi,0.5,0,b\n"
           + "".join(f"x{i},0.1,0,a\n" for i in range(8))
           + "abcdefgh,0.75,0,b\nabcdefghi,0.5,0,b\n").encode(), False))
# distinct long ids that share their first or last 10 bytes
@example(((HEADER + "\nxabcdefghij,0.5,1,a\nyabcdefghij,0.5,1,a\n"
           + "abcdefghijx,0.5,1,a\nabcdefghijy,0.5,1,a\n").encode(), True))
# a 16-digit score near a block edge, CRLF line ends, no line end at the end
@example(((HEADER + "\r\n" + "".join(f"r{i},0.5,1,a\r\n" for i in range(4))
           + "r4,0.1234567890123456,0,b\r\nr5,0.5,1,a").encode(), True))
def test_block_parse_equals_the_row_reader(tmp_path_factory, case):
    """Parsed in 64-byte blocks, a plain file gives the row reader's records
    bit for bit without falling back to it, and any other file its exact
    line-numbered error."""
    data, plain = case
    path = tmp_path_factory.mktemp("scores") / "scores.csv"
    path.write_bytes(data)
    with mock.patch.object(fairpot_io, "_BLOCK_BYTES", 64):
        with path.open("rb") as fh:
            bulk = fairpot_io._parse_plain_score_file(fh)
        got = _read(read_score_file, path)
    assert (bulk is not None) == plain
    assert got == _read(read_rows, path)
    if not plain:
        assert got[0] is ScoreFileError and got[1].startswith(f"{path}:")


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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("lambda", "nan"),
            ("lambda", "7"),
            ("lambda", "-inf"),
            ("alpha", "nan"),
            ("alpha", "0"),
            ("replicate", "-1"),
            ("accuracy", "1.5"),
            ("disparity", "-0.25"),
            ("disparity", "inf"),
        ],
    )
    def test_out_of_contract_field_names_its_line(self, tmp_path, field, value):
        rule = {
            "lambda": "in [0, 1]",
            "alpha": "in (0, 1]",
            "replicate": "non-negative",
        }.get(field, "nan or in [0, 1]")
        good = ["fairpot", "0.5", "1", "0", "0.75", "0.25", "false"]
        bad = list(good)
        bad[SWEEP_HEADER.index(field)] = value
        path = tmp_path / "rows.csv"
        path.write_text("\n".join(",".join(r) for r in (SWEEP_HEADER, good, good, bad)) + "\n")
        with pytest.raises(ScoreFileError) as exc:
            read_sweep_results(path)
        assert str(exc.value) == f"{path}:4: {field} must be {rule}, got {value}"

    def test_contract_edges_read(self, tmp_path):
        rows = [
            SweepRow("fairpot", 0.0, 1.0, 0, 0.0, 1.0, False),
            SweepRow("fairpot", 1.0, 5e-324, 0, 1.0, 0.0, False),
            SweepRow("fairpot", 0.0, 0.3, 3, float("nan"), float("nan"), False),
        ]
        path = tmp_path / "rows.csv"
        write_sweep_results(rows, path)
        assert len(read_sweep_results(path)) == 3

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
        "svg": lambda path: render_tradeoff_svg(
            path, "m", [(0.1, 0.7), (0.2, 0.8)], [(0.1, 0.7)], "t"
        ),
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
            monkeypatch.setattr("xml.etree.ElementTree.tostring", boom)
        else:
            # the header is written before the first formatted number
            monkeypatch.setattr("fairpot.io._fmt", boom)
        with pytest.raises(RuntimeError, match="interrupted"):
            self.WRITERS[writer](path)
        assert path.read_bytes() == earlier
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_write_into_a_missing_directory_names_its_file(self, tmp_path, writer):
        path = tmp_path / "missing" / "out"
        with pytest.raises(OSError) as exc:
            self.WRITERS[writer](path)
        assert str(exc.value).startswith(f"cannot write {path}: ")
        assert ".tmp" not in str(exc.value)
        assert list(tmp_path.rglob("*")) == []


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
