"""Output checks on one pass of a workload.

Every function returns a list of problems; an empty list means the check
passed. Values are compared as the CLI printed them, so "bit for bit" means
byte-identical CSV fields.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

from workloads import LAMBDAS, Workload

RESULTS_HEADER = ["method", "lambda", "alpha", "replicate", "accuracy", "disparity", "on_frontier"]


def read_rows(path: Path) -> tuple[list[str] | None, list[list[str]]]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return (rows[0] if rows else None), [r for r in rows[1:] if r]


def _unit_value(text: str) -> bool:
    try:
        v = float(text)
    except ValueError:
        return False
    return math.isfinite(v) and 0.0 <= v <= 1.0


def check_results(path: Path, method: str, lambdas, replicates: int) -> list[str]:
    """Exactly one row per expected (method, lambda, replicate) key, each with
    finite accuracy and disparity in [0, 1]."""
    if not path.exists():
        return [f"{path.name}: missing"]
    header, rows = read_rows(path)
    if header != RESULTS_HEADER:
        return [f"{path.name}: unexpected header {header}"]
    problems = []
    expected = {(method, float(lam), rep) for lam in lambdas for rep in range(replicates)}
    seen = set()
    for row in rows:
        if len(row) != len(RESULTS_HEADER):
            problems.append(f"{path.name}: malformed row {row}")
            continue
        try:
            key = (row[0], float(row[1]), int(row[3]))
        except ValueError:
            problems.append(f"{path.name}: unparseable key in {row}")
            continue
        if key in seen:
            problems.append(f"{path.name}: duplicate key {key}")
        seen.add(key)
        if not (_unit_value(row[4]) and _unit_value(row[5])):
            problems.append(f"{path.name}: accuracy/disparity not finite in [0, 1] in {row}")
    if seen != expected:
        missing, extra = sorted(expected - seen), sorted(seen - expected)
        problems.append(f"{path.name}: keys differ; missing {missing[:3]}, unexpected {extra[:3]}")
    return problems


def count_failed_replicates(path: Path) -> int:
    """Rows the CLI wrote with nan metrics, its mark for a failed replicate."""
    if not path.exists():
        return 0
    _, rows = read_rows(path)
    return sum(1 for r in rows if len(r) > 5 and "nan" in (r[4].lower(), r[5].lower()))


def check_lambda_zero_identity(fairpot_path: Path, unadjusted_path: Path) -> list[str]:
    """The fairpot lambda=0 row equals the unadjusted row of the same replicate."""
    _, fp = read_rows(fairpot_path)
    _, un = read_rows(unadjusted_path)
    zero = {r[3]: (r[4], r[5]) for r in fp if float(r[1]) == 0.0}
    base = {r[3]: (r[4], r[5]) for r in un}
    problems = []
    if not zero:
        problems.append(f"{fairpot_path.name}: no lambda=0 rows")
    for rep, values in sorted(zero.items()):
        if base.get(rep) != values:
            problems.append(
                f"{fairpot_path.name}: lambda=0 replicate {rep} is {values}, "
                f"unadjusted has {base.get(rep)}"
            )
    return problems


def check_disparity_reduced(fairpot_path: Path) -> list[str]:
    """Mean fairpot disparity at lambda=1 is below the mean at lambda=0."""
    _, rows = read_rows(fairpot_path)
    by_lam = {0.0: [], 1.0: []}
    for r in rows:
        if float(r[1]) in by_lam:
            by_lam[float(r[1])].append(float(r[5]))
    if not by_lam[0.0] or not by_lam[1.0]:
        return [f"{fairpot_path.name}: lambda 0 or 1 missing"]
    d0 = sum(by_lam[0.0]) / len(by_lam[0.0])
    d1 = sum(by_lam[1.0]) / len(by_lam[1.0])
    if not d1 < d0:
        return [f"{fairpot_path.name}: mean disparity {d1} at lambda=1 is not below {d0} at lambda=0"]
    return []


def check_frontier(path: Path, source_paths: list[Path]) -> list[str]:
    """A non-empty merged frontier whose points come from the merged methods."""
    if not path.exists():
        return [f"{path.name}: missing"]
    header, rows = read_rows(path)
    if header != RESULTS_HEADER or not rows:
        return [f"{path.name}: empty or bad header"]
    methods = set()
    for p in source_paths:
        methods.update(r[0] for r in read_rows(p)[1])
    problems = []
    for r in rows:
        if len(r) != len(RESULTS_HEADER) or r[0] not in methods or r[6] != "true":
            problems.append(f"{path.name}: unexpected frontier row {r}")
        elif not (_unit_value(r[4]) and _unit_value(r[5])):
            problems.append(f"{path.name}: frontier values not in [0, 1] in {r}")
    return problems


def output_files(workload: Workload, out_dir: Path) -> list[Path]:
    """Every deterministic file a pass writes, in a fixed order."""
    files = []
    for sw in workload.sweeps:
        files += [out_dir / f"{sw.prefix}_results.csv", out_dir / f"{sw.prefix}_summary.csv"]
        if sw.plot:
            files.append(out_dir / f"{sw.prefix}.svg")
    files += [out_dir / f"frontier_{mode}.csv" for mode in workload.merges]
    return files


def digests(workload: Workload, out_dir: Path) -> dict[str, str]:
    out = {}
    for path in output_files(workload, out_dir):
        out[path.name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"
    return out


def combined_digest(file_digests: dict[str, str]) -> str:
    """One digest over every output file's name and digest."""
    lines = "".join(f"{name}:{d}\n" for name, d in sorted(file_digests.items()))
    return hashlib.sha256(lines.encode()).hexdigest()


def check_pass(workload: Workload, out_dir: Path) -> list[str]:
    """All output checks for one pass of ``workload`` written to ``out_dir``."""
    replicates = workload.bootstrap_n
    results = {sw: out_dir / f"{sw.prefix}_results.csv" for sw in workload.sweeps}
    problems = []
    for sw, path in results.items():
        lambdas = LAMBDAS if sw.method == "fairpot" else (0.0,)
        problems += check_results(path, sw.method, lambdas, replicates)
    if problems:
        return problems
    for sw, path in results.items():
        if sw.method != "fairpot":
            continue
        # The reduction is the package's claim for global mode (acceptance
        # criterion 05). In partial mode the synthetic cohort's top region
        # holds about 180 test records and the reduction is small enough to
        # reverse on some seeds (28 and 790384657 among the first 32 tried),
        # so there it is no correctness property.
        if sw.mode == "global":
            problems += check_disparity_reduced(path)
        unadjusted = [p for s, p in results.items() if s.method == "unadjusted" and s.mode == sw.mode]
        for other in unadjusted:
            problems += check_lambda_zero_identity(path, other)
    for mode in workload.merges:
        sources = [p for s, p in results.items() if s.mode == mode]
        problems += check_frontier(out_dir / f"frontier_{mode}.csv", sources)
    for path in output_files(workload, out_dir):
        if not path.exists():
            problems.append(f"{path.name}: missing")
    return problems
