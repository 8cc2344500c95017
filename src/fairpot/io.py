"""Bit-exact CSV/JSON formats for scores, sweep results, and experiment config.

Floats are printed with 10 significant digits and a plain decimal point; no
file carries timestamps, so identical inputs produce identical bytes.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, fields
from io import BytesIO, TextIOWrapper
from pathlib import Path

import numpy as np

from .metrics import GROUPS, ScoreSet
from .transport import DIRECTIONS, MODES

SCORE_HEADER = ["id", "score", "label", "group"]
SWEEP_HEADER = ["method", "lambda", "alpha", "replicate", "accuracy", "disparity", "on_frontier"]
SUMMARY_HEADER = [
    "method", "lambda", "alpha", "n_ok",
    "accuracy_mean", "accuracy_se", "disparity_mean", "disparity_se", "on_frontier",
]

DEFAULT_LAMBDAS = tuple(i / 10 for i in range(11))

METHODS = ("fairpot", "post-logit", "wasserstein", "unadjusted")


class ScoreFileError(ValueError):
    """Malformed or out-of-contract score file content."""


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _fmt(x: float) -> str:
    return format(float(x), ".10g")


@contextmanager
def open_atomic(path, mode: str = "w"):
    """Open a temporary file beside ``path`` for writing and move it over
    ``path`` only when the block completes, so readers see the old file or
    the whole new one. On an exception the temporary file is removed; an
    ``OSError`` is raised again as ``cannot write <path>: <reason>``."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open(mode, newline=None if "b" in mode else "") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise OSError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


def write_score_file(score_set: ScoreSet, path) -> None:
    with open_atomic(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(SCORE_HEADER)
        for i, (s, y, g) in enumerate(
            zip(score_set.scores, score_set.labels, score_set.groups)
        ):
            writer.writerow([f"r{i}", _fmt(s), int(y), str(g)])


def read_score_file(path) -> ScoreSet:
    """Records of a score file, in file order.

    A file in the plain form ``write_score_file`` writes is parsed in bulk,
    one block of lines at a time. Any other file, and any file with an
    invalid field or a duplicate id, is read row by row, which raises the
    error for the first bad row.
    """
    path = Path(path)
    with path.open("rb") as fh:
        # a pipe cannot be read twice: both readers read its bytes from memory
        data = fh if fh.seekable() else BytesIO(fh.read())
        records = _parse_plain_score_file(data)
        return records if records is not None else _read_score_rows(path, data)


# What a plain score file is made of: printable ASCII other than the quote
# character, line feeds, and carriage returns just before a line feed. Any
# other byte, and a lone CR, is left to the row reader.
_PLAIN_BYTES = bytes(range(0x20, 0x7F)).replace(b'"', b"") + b"\r\n"
_HEADER_LINE = ",".join(SCORE_HEADER).encode()
_NL, _CR, _COMMA, _DOT, _ZERO, _ONE, _A, _B = b"\n\r,.01ab"  # byte values
# A plain file is read in blocks of this many bytes and parsed one block of
# whole lines at a time, so a parse's temporaries are a few block-sized
# arrays whatever the size of the file.
_BLOCK_BYTES = 1 << 18
# Bytes of the file kept before each block of lines: the fields' last 8 or
# 16 bytes are read as words, which may start before the block's first row.
_LOOKBACK = 16
# Ids of at most this many bytes are checked for duplicates as sorted integers.
_ID_KEY_BYTES = 8
# Masks of the last w bytes of a big-endian word, and of the last w bytes of a
# little-endian one, for w = 0..8.
_LOW_BYTES = np.array([(1 << 8 * w) - 1 for w in range(9)], dtype=np.uint64)
_HIGH_BYTES = np.array([(1 << 64) - (1 << 64 - 8 * w) for w in range(9)], dtype=np.uint64)
# A score field in canonical form is "0." and 1 to this many digits: its
# digits read as an integer stay below 10**15 < 2**53.
_MAX_DIGITS = 15
_POW10 = np.array([float(10**k) for k in range(_MAX_DIGITS + 1)])
# One byte value repeated in all 8 bytes of a word.
_BYTES_0F, _BYTES_F0, _BYTES_30, _BYTES_06 = (
    np.uint64(b * 0x0101010101010101) for b in (0x0F, 0xF0, 0x30, 0x06)
)


def _parse_plain_score_file(fh) -> ScoreSet | None:
    """Records of the plain score file open for binary reading as ``fh``,
    parsed in bulk, or None for any other file. Plain means: the header
    line, then one or more lines that each hold one row
    ``id,score,label,group``; LF or CRLF line ends; no quotes and no blank
    rows; one-byte labels and groups; scores that ``float`` parses into
    [0, 1]; unique ids. On such a file the row reader gives the same
    records, bit for bit.

    The rows are counted first, so the records are written once into arrays
    of their final size, beside one 8-byte key per id of at most 8 bytes
    that is checked for duplicates at the end. The lines are parsed one
    block at a time; a parse holds a few block-sized temporaries besides,
    and a copy of every longer id."""
    header = fh.readline(len(_HEADER_LINE) + 2)
    if header not in (_HEADER_LINE + b"\n", _HEADER_LINE + b"\r\n"):
        return None
    n = _count_rows(fh)
    if n == 0:
        return None
    fh.seek(len(header))
    scores, is_pos, in_group_a = np.empty(n), np.empty(n, dtype=bool), np.empty(n, dtype=bool)
    short_keys = np.empty(n, dtype=np.uint64)
    long_ids = {}  # by width
    at = n_short = 0
    for block in _line_blocks(fh, header):
        rows = _parse_rows(block)
        if rows is None or at + len(rows[0]) > n:
            return None  # not plain, or the file grew since it was counted
        end = at + len(rows[0])
        scores[at:end], is_pos[at:end], in_group_a[at:end], keys, ids = rows
        short_keys[n_short : n_short + len(keys)] = keys
        n_short += len(keys)
        for w, same_width in ids.items():
            long_ids.setdefault(w, []).append(same_width)
        at = end
    # Fewer rows: a line too long for csv, or a file that shrank. An id of
    # at most 8 bytes never equals a longer one.
    if at != n or not _distinct(short_keys[:n_short]):
        return None
    if not all(_distinct(np.concatenate(ids)) for ids in long_ids.values()):
        return None
    return ScoreSet._derived(scores, is_pos, in_group_a)


def _count_rows(fh) -> int:
    """Lines left in ``fh`` from its position on, the last one counted
    whether or not it ends with a line feed."""
    rows, last = 0, b"\n"
    while chunk := fh.read(_BLOCK_BYTES):
        rows += np.count_nonzero(np.frombuffer(chunk, dtype=np.uint8) == _NL)
        last = chunk[-1:]
    return rows + (last != b"\n")


def _line_blocks(fh, before: bytes):
    """Each block of whole lines left in ``fh`` (the file's last line may
    have no line end) behind the ``_LOOKBACK`` bytes of the file before it,
    which end with a line feed; ``before`` ends with those bytes before the
    first block. Stops early at a line longer than ``csv.field_size_limit()``,
    which no plain file holds."""
    tail, rest = before[-_LOOKBACK:], b""
    while chunk := fh.read(_BLOCK_BYTES):
        rest += chunk
        cut = rest.rfind(b"\n") + 1
        if cut:
            block = tail + rest[:cut]
            tail, rest = block[-_LOOKBACK:], rest[cut:]
            yield block
        elif len(rest) > csv.field_size_limit() + 1:  # + 1 for a CR
            return
    if rest:
        yield tail + rest


def _parse_rows(data: bytes):
    """``(scores, is_pos, in_group_a, keys, long_ids)`` of the rows of a
    block from ``_line_blocks``, or None when one of them is not a plain
    row; ``keys`` and ``long_ids`` are its ids as ``_id_keys`` gives them."""
    if data.translate(None, _PLAIN_BYTES):
        return None
    arr = np.frombuffer(data, dtype=np.uint8)
    # A line ends at a LF, or at the CR just before it; the last line may
    # have no line end. A CR elsewhere ends a csv row too: the row reader
    # takes that file.
    mask = arr == _NL  # reused below for the commas
    mask[: _LOOKBACK - 1] = False  # keep the LF that ends the line before
    newlines = np.flatnonzero(mask)
    line_ends = newlines[1:]
    n_cr = np.count_nonzero(arr[_LOOKBACK:] == _CR)
    if n_cr:
        crlf = arr[line_ends - 1] == _CR
        if n_cr != np.count_nonzero(crlf):
            return None
        line_ends = line_ends - crlf
    if not data.endswith(b"\n"):
        line_ends = np.append(line_ends, len(arr))
    # each row runs from just after the LF before it to its line end
    before, ends = newlines[: len(line_ends)], line_ends
    if (ends - before).max() - 1 > csv.field_size_limit():
        return None
    # A row's last four bytes are a comma, its label, a comma and its group.
    # With those commas and the ones before the block cleared, the one comma
    # left in each row, after the LF before it and before its label comma,
    # ends its id.
    label_comma = ends - 4
    del line_ends, ends
    comma, label, comma2, group = (arr[k:][label_comma] for k in range(4))
    if not (
        np.all((comma == _COMMA) & (comma2 == _COMMA))
        and np.all((label == _ZERO) | (label == _ONE))
        and np.all((group == _A) | (group == _B))
    ):
        return None
    np.equal(arr, _COMMA, out=mask)
    mask[:_LOOKBACK] = False
    mask[label_comma] = False
    mask[2:][label_comma] = False  # the group comma, two bytes on
    id_end = np.flatnonzero(mask)
    del mask
    if not (
        len(id_end) == len(label_comma)
        and np.all(id_end > before)
        and np.all(id_end < label_comma)
    ):
        return None
    id_width = id_end - before - 1
    del newlines, before
    keys, long_ids = _id_keys(data, id_end, id_width)
    del id_width
    # the score field runs from just after the id's comma to the label comma
    first = id_end + 1
    del id_end
    scores, bulk = _canonical_decimals(data, first, label_comma)
    rest = np.flatnonzero(~bulk)
    try:
        # On printable ASCII, float() parses bytes exactly as it parses the
        # str the row reader passes it.
        scores[rest] = [
            float(data[a:b]) for a, b in zip(first[rest].tolist(), label_comma[rest].tolist())
        ]
    except ValueError:
        return None
    if not (scores.min() >= 0.0 and scores.max() <= 1.0):
        return None  # out of range, infinite, or nan, which min and max return
    return scores, label == _ONE, group == _A, keys, long_ids


def _words(data: bytes, dtype: str) -> np.ndarray:
    """The 8-byte word of ``dtype`` that starts at each offset of ``data``: a
    read-only view, so a gather from it reads 8 bytes per index."""
    return np.ndarray((len(data) - 7,), dtype=dtype, buffer=data, strides=(1,))


def _id_keys(data: bytes, stops: np.ndarray, width: np.ndarray):
    """``(keys, long_ids)`` of the id fields ``data[stops[i] -
    width[i]:stops[i]]``, each ending at least 8 bytes into ``data``: the
    integer key of each id of at most 8 bytes, and by width, each longer id
    as a fixed-width bytes (``S``) value. No id holds a zero byte, so equal
    keys, and equal ``S`` values, mean equal ids."""
    short = width <= _ID_KEY_BYTES
    # the big-endian integer of the 8 bytes that end with the id, the bytes
    # before the id zeroed
    keys = _words(data, ">u8")[stops[short] - 8]
    keys &= _LOW_BYTES[width[short]]
    # ids of different widths differ, so each width is one unpadded array
    long_ids = {}
    for w in set(width[~short].tolist()):
        at = (stops[width == w] - w)[:, None] + np.arange(w)
        long_ids[w] = np.frombuffer(data, dtype=np.uint8)[at].view(f"S{w}").ravel()
    return keys, long_ids


def _distinct(keys: np.ndarray) -> bool:
    """Whether ``keys`` holds no value twice; sorts it in place."""
    keys.sort()
    return not np.any(keys[1:] == keys[:-1])


def _canonical_decimals(data: bytes, first: np.ndarray, stop: np.ndarray):
    """``(values, bulk)`` for the fields ``data[first[i]:stop[i]]``, each
    ending at least 16 bytes into ``data`` and followed by another byte, all
    of ``data`` being printable ASCII or line ends. ``bulk`` marks the fields
    in canonical form, "0." and then 1 to 15 digits, and ``values`` holds
    their ``float()`` values; every other entry of ``values`` is to be
    replaced.

    A canonical field with k digits is the integer d of its digits over
    10**k. Both are exact binary64 values, so one IEEE division returns the
    decimal correctly rounded, as ``float()`` does (W. D. Clinger, "How to
    Read Floating Point Numbers Accurately", PLDI 1990). The digits are read
    8 at a time from the two 8-byte words that end with the field."""
    arr = np.frombuffer(data, dtype=np.uint8)
    words = _words(data, "<u8")
    k = stop - first - 2
    ok = (k >= 1) & (k <= _MAX_DIGITS) & (arr[first] == _ZERO) & (arr[first + 1] == _DOT)
    low, low_ok = _eight_digits(words[stop - 8], np.clip(k, 0, 8))
    high, high_ok = _eight_digits(words[stop - 16], np.clip(k - 8, 0, 8))
    digits = high * np.uint64(10**8) + low
    return digits.astype(float) / _POW10[np.clip(k, 0, _MAX_DIGITS)], ok & low_ok & high_ok


def _eight_digits(words: np.ndarray, n: np.ndarray):
    """``(value, ok)``: the last ``n[i]`` bytes of each little-endian
    ``words[i]`` read as a decimal integer, and whether they are all digits."""
    keep = _HIGH_BYTES[n]
    # b is a digit when b & 0xF0 and (b + 6) & 0xF0 are both 0x30; adding 6
    # to a printable ASCII byte carries nothing into the next byte.
    wrong = ((words & _BYTES_F0) ^ _BYTES_30) | (((words + _BYTES_06) & _BYTES_F0) ^ _BYTES_30)
    # Digit values with the first digit in the lowest byte, behind zeros:
    # merge neighbouring bytes, then 2-byte lanes, then 4-byte lanes.
    x = words & _BYTES_0F & keep
    x = (x * np.uint64(10) + (x >> np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    x = (x * np.uint64(100) + (x >> np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    x = (x * np.uint64(10000) + (x >> np.uint64(32))) & np.uint64(0xFFFFFFFF)
    return x, (wrong & keep) == 0


def _csv_rows(path: Path, fh, header: list[str]):
    """``(line number, fields)`` of each non-blank row after its header of
    the csv file at ``path``, open for binary reading as ``fh``, which is
    read from its start and closed once the rows are read or abandoned;
    raises ``ScoreFileError`` for a header other than ``header`` and for a
    row with another number of fields."""
    fh.seek(0)
    with TextIOWrapper(fh, newline="") as text:
        reader = csv.reader(text)
        if next(reader, None) != header:
            raise ScoreFileError(f"{path}:1: expected header {','.join(header)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ScoreFileError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                )
            yield lineno, row


def _read_score_rows(path: Path, fh) -> ScoreSet:
    """Records of the score file at ``path``, open for binary reading as
    ``fh``, read one ``csv`` row at a time; raises ``ScoreFileError`` naming
    the line of the first bad row."""
    scores: list[float] = []
    labels: list[int] = []
    groups: list[str] = []
    seen_ids: set[str] = set()
    for lineno, (rid, score_s, label_s, group) in _csv_rows(path, fh, SCORE_HEADER):
        if rid in seen_ids:
            raise ScoreFileError(f"{path}:{lineno}: duplicate id {rid!r}")
        seen_ids.add(rid)
        try:
            score = float(score_s)
        except ValueError:
            raise ScoreFileError(f"{path}:{lineno}: unparseable score {score_s!r}") from None
        if not math.isfinite(score) or not 0.0 <= score <= 1.0:
            raise ScoreFileError(f"{path}:{lineno}: score {score_s} outside [0, 1]")
        if label_s not in ("0", "1"):
            raise ScoreFileError(f"{path}:{lineno}: label must be 0 or 1, got {label_s!r}")
        if group not in GROUPS:
            raise ScoreFileError(f"{path}:{lineno}: group must be one of {GROUPS}, got {group!r}")
        scores.append(score)
        labels.append(int(label_s))
        groups.append(group)
    return ScoreSet(
        scores=np.array(scores, dtype=float),
        labels=np.array(labels, dtype=np.int64),
        groups=np.array(groups, dtype="U1"),
    )


@dataclass(frozen=True)
class SweepRow:
    """One evaluated (method, lambda, replicate) result; nan metrics mark a
    failed replicate."""

    method: str
    lam: float
    alpha: float
    replicate: int
    accuracy: float
    disparity: float
    on_frontier: bool

    @property
    def failed(self) -> bool:
        return math.isnan(self.accuracy) or math.isnan(self.disparity)


def write_sweep_results(rows: list[SweepRow], path) -> None:
    with open_atomic(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_HEADER)
        for r in rows:
            writer.writerow(
                [
                    r.method,
                    _fmt(r.lam),
                    _fmt(r.alpha),
                    r.replicate,
                    _fmt(r.accuracy),
                    _fmt(r.disparity),
                    "true" if r.on_frontier else "false",
                ]
            )


def group_sweep_rows(rows: list[SweepRow]) -> dict[tuple[str, float], list[SweepRow]]:
    """Successful rows by (method, lambda), keys in sorted order, each group's
    rows in input order."""
    groups: dict[tuple[str, float], list[SweepRow]] = defaultdict(list)
    for r in rows:
        if not r.failed:
            groups[(r.method, r.lam)].append(r)
    return dict(sorted(groups.items()))


def _stderr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    return float(np.std(values, ddof=1) / np.sqrt(len(values)))


def write_sweep_summary(rows: list[SweepRow], path) -> None:
    """Per-(method, lambda) replicate count, means and standard errors of the
    successful rows; alpha and the frontier flag come from those rows."""
    with open_atomic(path) as fh:
        fh.write(",".join(SUMMARY_HEADER) + "\n")
        for (method, lam), group in group_sweep_rows(rows).items():
            acc = [r.accuracy for r in group]
            disp = [r.disparity for r in group]
            flag = "true" if group[0].on_frontier else "false"
            fh.write(
                f"{method},{_fmt(lam)},{_fmt(group[0].alpha)},{len(acc)},"
                f"{_fmt(np.mean(acc))},{_fmt(_stderr(acc))},"
                f"{_fmt(np.mean(disp))},{_fmt(_stderr(disp))},{flag}\n"
            )


def read_sweep_results(path) -> list[SweepRow]:
    """Rows of a sweep results file, in file order; raises ``ScoreFileError``
    naming the line of the first row that does not parse, or whose lambda is
    outside [0, 1], alpha outside (0, 1], replicate negative, or accuracy or
    disparity neither nan (a failed row) nor in [0, 1]."""
    path = Path(path)
    rows: list[SweepRow] = []
    for lineno, row in _csv_rows(path, path.open("rb"), SWEEP_HEADER):
        try:
            r = SweepRow(
                method=row[0],
                lam=float(row[1]),
                alpha=float(row[2]),
                replicate=int(row[3]),
                accuracy=float(row[4]),
                disparity=float(row[5]),
                on_frontier={"true": True, "false": False}[row[6]],
            )
        except (ValueError, KeyError):
            raise ScoreFileError(f"{path}:{lineno}: unparseable row {row!r}") from None
        for column, ok, rule in (
            (1, 0.0 <= r.lam <= 1.0, "in [0, 1]"),
            (2, 0.0 < r.alpha <= 1.0, "in (0, 1]"),
            (3, r.replicate >= 0, "non-negative"),
            (4, math.isnan(r.accuracy) or 0.0 <= r.accuracy <= 1.0, "nan or in [0, 1]"),
            (5, math.isnan(r.disparity) or 0.0 <= r.disparity <= 1.0, "nan or in [0, 1]"),
        ):
            if not ok:
                raise ScoreFileError(
                    f"{path}:{lineno}: {SWEEP_HEADER[column]} must be {rule}, got {row[column]}"
                )
        rows.append(r)
    return rows


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep settings; every field has a documented default."""

    lambdas: tuple[float, ...] = DEFAULT_LAMBDAS
    alpha: float = 0.3
    mode: str = "global"
    direction: str = "b_to_a"
    method: str = "fairpot"
    seed: int = 0
    bootstrap_n: int = 20
    split_ratio: float = 0.8
    train_path: str | None = None
    test_path: str | None = None
    output_dir: str = "."

    def __post_init__(self) -> None:
        object.__setattr__(self, "lambdas", tuple(float(l) for l in self.lambdas))
        for lam in self.lambdas:
            if not 0.0 <= lam <= 1.0:
                raise ConfigError(f"lambdas must lie in [0, 1], got {lam}")
        if not self.lambdas:
            raise ConfigError("lambdas must be non-empty")
        if len(set(self.lambdas)) != len(self.lambdas):
            raise ConfigError(f"lambdas must be distinct, got {list(self.lambdas)}")
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be {_either(MODES)}, got {self.mode!r}")
        if self.direction not in DIRECTIONS:
            raise ConfigError(f"direction must be {_either(DIRECTIONS)}, got {self.direction!r}")
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.method == "post-logit" and self.direction != "b_to_a":
            raise ConfigError(
                f"post-logit rescales group b only; direction must be 'b_to_a', "
                f"got {self.direction!r}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.bootstrap_n < 0:
            raise ConfigError("bootstrap_n must be non-negative")
        if not 0.0 < self.split_ratio < 1.0:
            raise ConfigError(f"split_ratio must be in (0, 1), got {self.split_ratio}")


def _either(values: tuple[str, ...]) -> str:
    return " or ".join(map(repr, values))


_CONFIG_TYPES = {
    "lambdas": (list, tuple),
    "alpha": (int, float),
    "mode": (str,),
    "direction": (str,),
    "method": (str,),
    "seed": (int,),
    "bootstrap_n": (int,),
    "split_ratio": (int, float),
    "train_path": (str, type(None)),
    "test_path": (str, type(None)),
    "output_dir": (str,),
}


def read_config(path) -> ExperimentConfig:
    """Parse a flat JSON config; unknown keys and type mismatches are errors."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    known = {f.name for f in fields(ExperimentConfig)}
    for key, value in raw.items():
        if key not in known:
            raise ConfigError(f"{path}: unknown config key {key!r}")
        expected = _CONFIG_TYPES[key]
        if isinstance(value, bool) or not isinstance(value, expected):
            raise ConfigError(
                f"{path}: key {key!r} has type {type(value).__name__}, "
                f"expected {'/'.join(t.__name__ for t in expected if t is not type(None))}"
            )
        if key == "lambdas" and not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
            raise ConfigError(f"{path}: lambdas must be a list of numbers")
    return ExperimentConfig(**raw)
