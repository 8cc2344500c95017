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
from pathlib import Path

import numpy as np

from .metrics import GROUP_A, GROUP_B, GROUPS, ScoreSet
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
    the whole new one. On an exception the temporary file is removed."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open(mode, newline=None if "b" in mode else "") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
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

    A file in the plain form ``write_score_file`` writes is parsed in bulk.
    Any other file, and any file with an invalid field or a duplicate id, is
    read row by row, which raises the error for the first bad row.
    """
    path = Path(path)
    records = _parse_plain_score_file(path.read_bytes())
    return records if records is not None else _read_score_rows(path)


# What a plain score file is made of: printable ASCII other than the quote
# character, line feeds, and carriage returns just before a line feed. Any
# other byte, and a lone CR, is left to the row reader.
_PLAIN_BYTES = bytes(range(0x20, 0x7F)).replace(b'"', b"") + b"\r\n"
_HEADER_LINE = ",".join(SCORE_HEADER).encode()
_NL, _CR, _COMMA, _DOT, _ZERO, _ONE, _A, _B = b"\n\r,.01ab"  # byte values
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


def _parse_plain_score_file(data: bytes) -> ScoreSet | None:
    """Records of a plain score file, parsed in bulk, or None for any other
    file. Plain means: the header line, then one or more lines that each
    hold one row ``id,score,label,group``; LF or CRLF line ends; no quotes
    and no blank rows; one-byte labels and groups; scores that ``float``
    parses into [0, 1]; unique ids. On such a file the row reader gives the
    same records, bit for bit."""
    if data.translate(None, _PLAIN_BYTES) or not data.startswith(_HEADER_LINE):
        return None
    arr = np.frombuffer(data, dtype=np.uint8)
    # A line ends at a LF, or at the CR just before it; the last line may
    # have no line end. A CR elsewhere ends a csv row too: the row reader
    # takes that file.
    newlines = np.flatnonzero(arr == _NL)
    crlf = arr[newlines - 1] == _CR
    if np.count_nonzero(arr == _CR) != np.count_nonzero(crlf):
        return None
    line_ends = newlines - crlf
    if not data.endswith(b"\n"):
        line_ends = np.append(line_ends, len(arr))
    if len(line_ends) < 2 or line_ends[0] != len(_HEADER_LINE):
        return None
    starts, ends = newlines[: len(line_ends) - 1] + 1, line_ends[1:]
    if (ends - starts).max() > csv.field_size_limit():
        return None
    # Three commas per row, the last two just before a one-byte label and a
    # one-byte group. Row i takes the commas ranked 3i to 3i + 2 after the
    # header's three; once its third sits two bytes before row i's end, after
    # which there is no comma, rows 0 to i hold exactly 3(i + 1) commas
    # between them.
    commas = np.flatnonzero(arr == _COMMA)[3:]
    if len(commas) != 3 * len(ends):
        return None
    commas = commas.reshape(-1, 3)
    label_at, group_at = commas[:, 1] + 1, commas[:, 2] + 1
    if np.any(commas[:, 2] != label_at + 1) or np.any(ends != group_at + 1):
        return None
    label, group = arr[label_at], arr[group_at]
    if not (np.all((label == _ZERO) | (label == _ONE)) and np.all((group == _A) | (group == _B))):
        return None
    if not _ids_unique(data, starts, commas[:, 0]):
        return None
    first, stop = commas[:, 0] + 1, commas[:, 1]
    scores, bulk = _canonical_decimals(data, first, stop)
    rest = np.flatnonzero(~bulk)
    try:
        # On printable ASCII, float() parses bytes exactly as it parses the
        # str the row reader passes it.
        scores[rest] = [float(data[a:b]) for a, b in zip(first[rest].tolist(), stop[rest].tolist())]
    except ValueError:
        return None
    if not (scores.min() >= 0.0 and scores.max() <= 1.0):
        return None  # out of range, infinite, or nan, which min and max return
    in_group_a = group == _A
    return ScoreSet._derived(
        scores,
        (label == _ONE).astype(np.int64),
        np.where(in_group_a, GROUP_A, GROUP_B),
        in_group_a=in_group_a,
    )


def _words(data: bytes, dtype: str) -> np.ndarray:
    """The 8-byte word of ``dtype`` that starts at each offset of ``data``: a
    read-only view, so a gather from it reads 8 bytes per index."""
    return np.ndarray((len(data) - 7,), dtype=dtype, buffer=data, strides=(1,))


def _ids_unique(data: bytes, starts: np.ndarray, stops: np.ndarray) -> bool:
    """Whether the id fields ``data[starts[i]:stops[i]]``, each ending at
    least 8 bytes into ``data``, are distinct."""
    width = stops - starts
    if width.max() > _ID_KEY_BYTES:
        return len({data[a:b] for a, b in zip(starts.tolist(), stops.tolist())}) == len(starts)
    # Each id as the big-endian integer of the 8 bytes that end with it, the
    # bytes before the id zeroed: no id holds a zero byte, so equal keys mean
    # equal ids.
    keys = _words(data, ">u8")[stops - 8] & _LOW_BYTES[width]
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
    k = stop - first - 2
    bulk = (k >= 1) & (k <= _MAX_DIGITS) & (arr[first] == _ZERO) & (arr[first + 1] == _DOT)
    words = _words(data, "<u8")
    low, low_ok = _eight_digits(words[stop - 8], np.clip(k, 0, 8))
    high, high_ok = _eight_digits(words[stop - 16], np.clip(k - 8, 0, 8))
    bulk &= low_ok & high_ok
    digits = high * np.uint64(10**8) + low
    return digits.astype(float) / _POW10[np.clip(k, 0, _MAX_DIGITS)], bulk


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


def _read_score_rows(path: Path) -> ScoreSet:
    """Records of a score file read one ``csv`` row at a time; raises
    ``ScoreFileError`` naming the line of the first bad row."""
    scores: list[float] = []
    labels: list[int] = []
    groups: list[str] = []
    seen_ids: set[str] = set()
    with path.open("r", newline="") as fh:
        reader = csv.reader(fh)
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
    path = Path(path)
    rows: list[SweepRow] = []
    with path.open("r", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != SWEEP_HEADER:
            raise ScoreFileError(f"{path}:1: expected header {','.join(SWEEP_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 7:
                raise ScoreFileError(f"{path}:{lineno}: expected 7 fields, got {len(row)}")
            try:
                rows.append(
                    SweepRow(
                        method=row[0],
                        lam=float(row[1]),
                        alpha=float(row[2]),
                        replicate=int(row[3]),
                        accuracy=float(row[4]),
                        disparity=float(row[5]),
                        on_frontier={"true": True, "false": False}[row[6]],
                    )
                )
            except (ValueError, KeyError):
                raise ScoreFileError(f"{path}:{lineno}: unparseable row {row!r}") from None
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
