"""fairpot benchmark runner.

Runs one workload as a closed loop of real ``fairpot`` CLI subprocesses, one
at a time, for at least ``--seconds``, checks every output, and prints the
end-to-end metrics. With ``--trace 1`` it instead runs the workload's
invocations in-process (``tracer.py``), once untraced and once with span
wrappers, and prints the per-layer metrics. Run from the checkout root:

    python3 perfbench/run.py --workload synth-protocol --seed 1 --seconds 33 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Scratch files go to
``.perfbench-work/`` under the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, Workload, invocations, make_inputs, records_evaluated  # noqa: E402

# A run must end within 180 s; stop starting work well before that.
RUN_BUDGET_S = 165.0
# set-up launches per run; their median is setup_s
SETUP_LAUNCHES = 7
SETUP_CODE = (
    "import sys\nimport fairpot.cli\nfrom fairpot.io import read_score_file\n"
    "for path in sys.argv[1:]:\n    read_score_file(path)\n"
)
FACTS_CODE = """
import json, os, sys
import numpy, scipy
blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
threads = {k: os.environ.get(k, "unset") for k in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
    "scipy": scipy.__version__, "blas": blas.get("name", "unknown"),
    "blas_config": blas.get("openblas configuration", ""), "blas_threads_env": threads}))
"""
REFERENCE_DIGESTS = HERE / "reference_digests.json"


class Launcher:
    """Starts one child at a time, times it from spawn to reaping, and reads
    its peak RSS from ``os.wait4``. Children past the run deadline are killed."""

    def __init__(self, root: Path, env: dict, log_dir: Path, deadline: float) -> None:
        self.root, self.env, self.log_dir, self.deadline = root, env, log_dir, deadline
        self.n = 0

    def run(self, argv: list[str]) -> tuple[float, int, float]:
        """(wall seconds, exit code, peak RSS in MiB) of one child."""
        self.n += 1
        with (self.log_dir / f"child{self.n:04d}.log").open("wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=log, stderr=log)
            killer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024.0


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def machine_facts(env: dict) -> dict:
    """CPU, caches, and the Python, numpy, scipy and BLAS settings children see."""
    facts = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        facts["cpu_model"] = "unknown"
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches.append(f"L{level} {kind} {size}")
    facts["caches"] = caches
    child = subprocess.run(
        [sys.executable, "-c", FACTS_CODE], env=env, capture_output=True, text=True, timeout=60
    )
    try:
        facts.update(json.loads(child.stdout))
    except json.JSONDecodeError:
        facts["children"] = f"unavailable: {child.stderr.strip()[-200:]}"
    return facts


class Tally:
    """Attempted and failed units: invocations, replicates and pass checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add_pass(self, workload: Workload, out_dir: Path, exit_codes, labels, previous) -> dict:
        """Check one pass against the checks and the previous pass's digests;
        return its own digests."""
        self.attempted += len(exit_codes) + 1
        self.attempted += len(workload.sweeps) * workload.bootstrap_n
        bad_exits = [f"{lab}: exit code {rc}" for lab, rc in zip(labels, exit_codes) if rc != 0]
        self.failed += len(bad_exits)
        for sw in workload.sweeps:
            self.failed += checks.count_failed_replicates(out_dir / f"{sw.prefix}_results.csv")
        problems = bad_exits + checks.check_pass(workload, out_dir)
        digests = checks.digests(workload, out_dir)
        if previous is not None and digests != previous:
            changed = sorted(k for k in digests if digests[k] != previous.get(k))
            problems.append(f"output bytes differ between repeats of one run: {changed}")
        if problems:
            self.failed += 1
            self.problems += [f"{out_dir.name}: {p}" for p in problems]
        return digests


def median(values) -> float:
    return float(statistics.median(values))


def run_end_to_end(workload, seed, seconds, launcher, inputs, work) -> tuple[dict, Tally, dict]:
    input_args = [str(p) for p in inputs] if inputs else []
    setup = []
    for _ in range(SETUP_LAUNCHES):
        wall, rc, _ = launcher.run([sys.executable, "-c", SETUP_CODE, *input_args])
        if rc != 0:
            raise RuntimeError(f"set-up launch exited {rc}; see {launcher.log_dir}")
        setup.append(wall)

    tally = Tally()
    walls, peak_rss, per_call = [], 0.0, {}
    digests = None
    start = time.perf_counter()
    # Whole passes only (the checks need them): start another while it is
    # expected to end less than half a pass past the measuring time.
    while not walls or (
        time.perf_counter() - start + statistics.mean(walls) / 2 < seconds
        and time.monotonic() + statistics.mean(walls) < launcher.deadline
    ):
        out_dir = work / f"pass{len(walls)}"
        calls = invocations(workload, seed, inputs, out_dir)
        exit_codes = []
        pass_start = time.perf_counter()
        for inv in calls:
            wall, rc, rss = launcher.run([sys.executable, "-m", "fairpot.cli", *inv.argv])
            exit_codes.append(rc)
            peak_rss = max(peak_rss, rss)
            per_call.setdefault(inv.label, []).append(wall)
        walls.append(time.perf_counter() - pass_start)
        digests = tally.add_pass(workload, out_dir, exit_codes, [c.label for c in calls], digests)

    records = sum(records_evaluated(workload, sw) for sw in workload.sweeps)
    wall_s = median(walls)
    metrics = {
        "wall_s": (wall_s, "s"),
        "records_per_s": (records / wall_s, "1/s"),
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (peak_rss, "MiB"),
        "ok_share": (1.0 - tally.failed / tally.attempted, "share"),
    }
    detail = {
        "samples": {"wall_s": len(walls), "setup_s": len(setup)},
        "pass_wall_s": walls,
        "setup_launch_s": setup,
        "records_per_pass": records,
        "invocation_median_s": {k: median(v) for k, v in per_call.items()},
        "digests": digests,
    }
    return metrics, tally, detail


def run_traced(workload, seed, launcher, inputs, work, root) -> tuple[dict, Tally, dict]:
    passes = []
    for name, traced in (("untraced", False), ("traced", True)):
        out_dir = work / f"inproc-{name}"
        calls = invocations(workload, seed, inputs, out_dir)
        passes.append({"name": name, "traced": traced, "out_dir": str(out_dir),
                       "calls": [list(c.argv) for c in calls], "labels": [c.label for c in calls]})
    plan_path, trace_path = work / "plan.json", work / "trace.json"
    plan_path.write_text(json.dumps({"run_id": f"{workload.name}/seed{seed}", "passes": passes}))
    _, rc, _ = launcher.run([sys.executable, str(HERE / "tracer.py"), "--root", str(root),
                             "--plan", str(plan_path), "--out", str(trace_path)])
    if rc != 0:
        raise RuntimeError(f"traced run exited {rc}; see {launcher.log_dir}")
    trace = json.loads(trace_path.read_text())

    tally = Tally()
    digests = None
    for plan_pass, result in zip(passes, trace["passes"]):
        digests = tally.add_pass(workload, Path(plan_pass["out_dir"]), result["exit_codes"],
                                 plan_pass["labels"], digests)
    # A target the wrappers missed reads 0 and would pass for a gain.
    tally.problems += tracer.trace_problems(trace)
    values = tracer.layer_metrics(trace["spans"])
    untraced, traced = (p["wall_s"] for p in trace["passes"])
    values.update({"trace.untraced_wall_s": untraced, "trace.traced_wall_s": traced,
                   "trace.overhead_s": traced - untraced})
    metrics = {name: (values[name], unit) for name, unit in tracer.per_layer_metrics()}
    detail = {
        "spans": len(trace["spans"]),
        "absent": trace["absent"],
        "count_errors": trace["count_errors"],
        "digests": digests,
    }
    return metrics, tally, detail


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description="fairpot benchmark runner")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = Path.cwd()
    if not (root / "src" / "fairpot" / "cli.py").is_file():
        print(f"error: {root} holds no src/fairpot; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))  # the input generator writes with fairpot.io
    workload = WORKLOADS[args.workload]
    work = root / ".perfbench-work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    (work / "logs").mkdir(parents=True)
    env = child_env(root)
    launcher = Launcher(root, env, work / "logs", time.monotonic() + RUN_BUDGET_S)

    facts = machine_facts(env)
    inputs = make_inputs(workload, args.seed, work / "inputs")
    if args.trace:
        metrics, tally, detail = run_traced(workload, args.seed, launcher, inputs, work, root)
    else:
        metrics, tally, detail = run_end_to_end(
            workload, args.seed, args.seconds, launcher, inputs, work
        )

    # Output bytes are a function of (code, workload, seed); a recorded
    # digest that no longer matches shows a byte change across commits.
    detail["digest"] = checks.combined_digest(detail["digests"])
    recorded = json.loads(REFERENCE_DIGESTS.read_text()).get(workload.name, {}).get(str(args.seed))
    if recorded is not None:
        detail["digest_matches_reference"] = recorded == detail["digest"]

    report = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "machine": facts,
        "detail": detail,
        "problems": tally.problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (work / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    print(f"machine: {json.dumps(facts)}")
    print(f"detail: {json.dumps(detail)}")
    for p in tally.problems:
        print(f"problem: {p}")
    print(json.dumps({
        "correct": not tally.problems and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
