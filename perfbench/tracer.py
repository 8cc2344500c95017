"""Traced in-process runs: spans around each layer's public functions.

Run as a script, this file executes a plan of ``fairpot`` CLI invocations
in-process through ``fairpot.cli.main``: a pass with no wrappers and a pass
with timing wrappers installed, interleaved call by call, and writes the
spans and pass wall times as JSON when the run ends. Imported, it offers the
span arithmetic run.py uses to turn spans into per-layer metrics; importing
it loads no part of ``fairpot``.

    python3 perfbench/tracer.py --root . --plan plan.json --out trace.json
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _arrays_key(*arrays) -> str:
    h = hashlib.sha1()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def _score_set_key(s) -> str:
    return _arrays_key(s.scores, s.labels, s.groups)


@dataclass(frozen=True)
class Target:
    """One wrapped function. ``count`` gives the work count recorded on its
    span; ``key`` identifies the training set a fit was made on."""

    module: str
    func: str
    count_name: str | None = None
    count: Callable | None = None
    key: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.func}"


TARGETS = (
    Target("datagen", "generate_synthetic", "rows", lambda a, k, r: len(r)),
    Target("datagen", "fit_logistic_scorer", "rows", lambda a, k, r: len(_arg(a, k, 0, "features"))),
    Target("ot", "solve_ot_1d", "plan_triples", lambda a, k, r: len(r.masses)),
    Target("ot", "barycentric_projection", "rows", lambda a, k, r: len(r)),
    Target("transport", "sweep"),
    Target(
        "transport",
        "fit_transport",
        key=lambda a, k: _arrays_key(
            _arg(a, k, 0, "scores_a_train"), _arg(a, k, 1, "scores_b_train")
        ),
    ),
    Target("transport", "build_score_map", "knots", lambda a, k, r: len(r)),
    Target("transport", "apply_psi", "scores", lambda a, k, r: len(r)),
    Target("metrics", "auc", "records", lambda a, k, r: len(_arg(a, k, 0, "s"))),
    Target("metrics", "xauc_disparity", "records", lambda a, k, r: len(_arg(a, k, 0, "s"))),
    Target("metrics", "pauc", "records", lambda a, k, r: _arg(a, k, 1, "region").n_alpha),
    Target("metrics", "pxauc_disparity", "records", lambda a, k, r: _arg(a, k, 1, "region").n_alpha),
    Target("metrics", "top_alpha_region", "records", lambda a, k, r: len(_arg(a, k, 0, "s"))),
    Target("baselines", "fit_post_logit", key=lambda a, k: _score_set_key(_arg(a, k, 0, "train"))),
    Target("baselines", "wasserstein_fair"),
    Target("io", "read_score_file", "rows", lambda a, k, r: len(r)),
    Target("io", "write_sweep_results", "rows", lambda a, k, r: len(_arg(a, k, 0, "rows"))),
    Target("pareto", "pareto_frontier", "points_in", lambda a, k, r: len(_arg(a, k, 0, "points"))),
    Target("svg", "render_tradeoff_svg"),
    Target("cli", "main"),
)

# Waste ratios (ideal 1). Per fit: calls of one target per call of another.
PER_FIT = {"ot.projections_per_fit": ("ot.barycentric_projection", "ot.solve_ot_1d")}
# Per training set: a fit's calls per distinct training set it was given.
PER_TRAIN_SET = {
    "transport.fits_per_train_set": "transport.fit_transport",
    "baselines.post_logit_fits_per_train_set": "baselines.fit_post_logit",
}
TRACE_METRICS = ("trace.untraced_wall_s", "trace.traced_wall_s", "trace.overhead_s")


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for t in TARGETS:
        if t.name == "cli.main":
            out.append(("cli.s", "s"))
            continue
        out += [(f"{t.name}.calls", "count"), (f"{t.name}.s", "s")]
        if t.count_name:
            out.append((f"{t.name}.{t.count_name}", "count"))
    out += [(name, "ratio") for name in (*PER_FIT, *PER_TRAIN_SET)]
    out += [(name, "s") for name in TRACE_METRICS]
    return out


class Tracer:
    """Records one span per wrapped call: name, start, end, parent span index
    and run id, plus the target's work count and training-set key."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.count_errors: dict[str, str] = {}
        self.run_id = ""
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, target: Target, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            span = {
                "name": target.name,
                "run": self.run_id,
                "parent": self._stack[-1] if self._stack else None,
            }
            self.spans.append(span)
            self._stack.append(idx)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            try:
                if target.count:
                    span["count"] = int(target.count(args, kwargs, result))
                if target.key:
                    span["key"] = target.key(args, kwargs)
            except (AttributeError, IndexError, KeyError, TypeError) as exc:
                # a later signature change must not crash the run
                self.count_errors.setdefault(target.name, repr(exc))
            return result

        return wrapper

    def install(self, modules: dict[str, object]) -> list[str]:
        """Wrap every target and every module-level alias of it, across all
        given modules (``from x import f`` copies are separate bindings).
        Returns the names of targets that no longer exist."""
        absent = []
        for target in TARGETS:
            fn = getattr(modules.get(target.module), target.func, None)
            if not callable(fn):
                absent.append(target.name)
                continue
            wrapper = self._wrap(target, fn)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._restore.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        return absent

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            children[s["parent"]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        lo_run = hi_run = None
        for c in sorted(children[i], key=lambda c: spans[c]["start"]):
            lo = max(spans[c]["start"], s["start"])
            hi = min(spans[c]["end"], s["end"])
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out.append((s["end"] - s["start"]) - covered)
    return out


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer calls, self time and work counts, aggregated by target."""
    selfs = self_times(spans)
    calls, self_s, counts = defaultdict(int), defaultdict(float), defaultdict(int)
    keys = defaultdict(set)
    for span, st in zip(spans, selfs):
        name = span["name"]
        calls[name] += 1
        self_s[name] += st
        counts[name] += span.get("count", 0)
        if "key" in span:
            keys[name].add(span["key"])
    out: dict[str, float] = {}
    for t in TARGETS:
        if t.name == "cli.main":
            out["cli.s"] = self_s[t.name]
            continue
        out[f"{t.name}.calls"] = calls[t.name]
        out[f"{t.name}.s"] = self_s[t.name]
        if t.count_name:
            out[f"{t.name}.{t.count_name}"] = counts[t.name]
    for name, (num, den) in PER_FIT.items():
        out[name] = calls[num] / calls[den] if calls[den] else 0.0
    for name, fit in PER_TRAIN_SET.items():
        out[name] = calls[fit] / len(keys[fit]) if keys[fit] else 0.0
    return out


def trace_problems(trace: dict) -> list[str]:
    """Targets whose per-layer metrics were not recorded: absent functions
    and work counts or keys that could not be read."""
    problems = [f"traced target absent: {name}" for name in trace["absent"]]
    problems += [
        f"traced target {name}: count or key not recorded ({err})"
        for name, err in sorted(trace["count_errors"].items())
    ]
    return problems


def _run_plan(root: Path, plan: dict) -> dict:
    sys.path.insert(0, str(root / "src"))
    import fairpot.cli  # noqa: F401  (loads every fairpot module)

    modules = {
        name.split(".", 1)[1] if "." in name else name: mod
        for name, mod in sys.modules.items()
        if name == "fairpot" or name.startswith("fairpot.")
    }
    cli = modules["cli"]
    tracer = Tracer()
    absent: list[str] = []
    passes = [{"name": p["name"], "wall_s": 0.0, "exit_codes": []} for p in plan["passes"]]
    n_calls = len(plan["passes"][0]["calls"])
    for i in range(n_calls):
        # alternate which pass goes first so drift and warm-up fall on both
        order = range(len(passes)) if i % 2 == 0 else reversed(range(len(passes)))
        for k in order:
            p, out = plan["passes"][k], passes[k]
            if p["traced"]:
                absent = tracer.install(modules)
            tracer.run_id = f"{plan['run_id']}/{p['name']}/{i}"
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    out["exit_codes"].append(int(cli.main(list(p["calls"][i]))))
            except Exception:  # one broken invocation must not end the run
                traceback.print_exc()
                out["exit_codes"].append(1)
            out["wall_s"] += time.perf_counter() - start
            tracer.uninstall()
    return {
        "passes": passes,
        "spans": tracer.spans,
        "absent": absent,
        "count_errors": tracer.count_errors,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, help="checkout root holding src/fairpot")
    parser.add_argument("--plan", required=True, help="JSON plan of passes and CLI argv lists")
    parser.add_argument("--out", required=True, help="where to write spans and pass timings")
    args = parser.parse_args(argv)
    plan = json.loads(Path(args.plan).read_text())
    result = _run_plan(Path(args.root).resolve(), plan)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
