"""The estermann benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.  With
--trace 0 the run is untraced and reports the end-to-end metrics; with
--trace 1 it solves each instance untraced and traced, interleaved, and
reports the per-layer metrics and the tracing overhead.  Every result is checked by
an independent referee outside the timed region.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  Each run
also leaves a record (seed, host, sizes per instance) and, when traced, its
spans under perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass
from importlib.metadata import version
from pathlib import Path
from typing import Optional

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_REPEATS = 7
WORKLOAD_NAMES = ("count-large", "arcs-exact", "crosscheck")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


@dataclass
class Outcome:
    case_id: int
    seconds: float
    output: object
    error: Optional[str]


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="instance sizes; tiny is for the benchmark's own tests")
    p.add_argument("--setup-only", action="store_true",
                   help="import and generate the plan, then exit (one set-up sample)")
    return p.parse_args(argv)


def load_program():
    """Import the workloads (and with them ./src/estermann) from this checkout."""
    import workloads

    where = Path(workloads.estermann.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"estermann imported from {where}, not from {ROOT / 'src'}")
    return workloads


def measure_setup(args) -> list[float]:
    """Wall time of fresh interpreters that import the package and build the plan."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--size", args.size]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples


def solve_one(workload, case, tracer=None) -> Outcome:
    if tracer is not None:
        tracer.instance = case.id
    t0 = time.perf_counter()
    try:
        output, error = workload.solve(case), None
    except Exception as exc:  # a crash is a failed instance, not a stopped run
        output, error = None, f"{type(exc).__name__}: {exc}"
    return Outcome(case.id, time.perf_counter() - t0, output, error)


def timed_loop(workload, plan, seconds: float):
    """Closed loop, one client: solve plan[0], plan[1], ... until the time is up."""
    outcomes: list[Outcome] = []
    start = time.perf_counter()
    while not outcomes or time.perf_counter() - start < seconds:
        outcomes.append(solve_one(workload, plan[len(outcomes) % len(plan)]))
    return outcomes, time.perf_counter() - start


def judge_all(wl, workload, plan, outcomes, seed: int):
    """Referee every outcome, outside the timed region; a crash is a failure."""
    by_id = {case.id: case for case in plan}
    rng = random.Random(f"referee:{workload.name}:{seed}")
    verdicts = []
    for o in outcomes:
        case = by_id[o.case_id]
        error = o.error
        if error is None:
            try:
                verdicts.append(workload.judge(case, o.output, rng))
                continue
            except Exception as exc:  # malformed output fails the instance
                error = f"referee: {type(exc).__name__}: {exc}"
        verdicts.append(wl.Verdict(False, error, {"N": case.N, "H": case.H}))
    return verdicts


def tail(times: list[float]) -> tuple[Optional[float], Optional[float], int]:
    """Highest listed percentile with at least ten samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        k = max(0, math.ceil(n * pct / 100.0) - 1)  # nearest-rank percentile
        if n - 1 - k >= 10:
            return pct, ordered[k], n - 1 - k
    return None, None, 0


def host_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": version("numpy"), "mpmath": version("mpmath")}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def emit(name: str, value, unit: str, note: str = "") -> None:
    print(f"metric {name} = {value} {unit}{'  (' + note + ')' if note else ''}")


def run(args) -> int:
    try:
        wl = load_program()
    except ImportError as exc:
        print(f"error: cannot load the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    plan = wl.make_plan(workload, args.seed, args.seconds, args.size)
    if args.setup_only:
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload.name)
    os.environ.pop("ESTERMANN_CACHE", None)  # no cache file: runs stay independent

    record = {
        "workload": workload.name, "why": why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "size": args.size,
        "threads": wl.THREADS, "mem_mb": wl.MEM_MB, "host": host_info(),
    }
    print(f"info workload {workload.name}: {why}")
    print(f"info seed {args.seed}  threads {wl.THREADS}  --mem-mb {wl.MEM_MB}  "
          f"size {args.size}  host {json.dumps(record['host'])}")

    if args.trace:
        outcomes, verdicts, metrics = traced_run(wl, workload, plan, args, record)
    else:
        setup = measure_setup(args)
        outcomes, wall = timed_loop(workload, plan, args.seconds)
        rss = peak_rss_mb()
        verdicts = judge_all(wl, workload, plan, outcomes, args.seed)
        solved = sum(v.ok for v in verdicts)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "instances_per_s": (solved / wall, "1/s"),
            "instance_p50_s": (statistics.median(o.seconds for o in outcomes), "s"),
            "peak_rss_mb": (rss, "MB"),
        }
        record.update(setup_samples_s=setup, wall_s=wall)

    attempted = len(outcomes)
    failed = attempted - sum(v.ok for v in verdicts)
    pct, tail_s, beyond = tail([o.seconds for o in outcomes])
    errs = [v.arc_sum_err for v in verdicts if v.arc_sum_err is not None]
    for name, (value, unit) in metrics.items():
        emit(name, value, unit)
    # workload-specific figures: printed and recorded, not in the gated set
    emit("failed_frac", failed / attempted, "1", f"{failed} of {attempted}")
    if tail_s is None:
        emit("instance_tail_s", "n/a", "s",
             f"p75 has fewer than 10 samples beyond it, n={attempted}")
    else:
        emit("instance_tail_s", tail_s, "s", f"p{pct:g}, {beyond} samples beyond, n={attempted}")
    if errs:
        emit("arc_sum_err_max", max(errs), "count", f"--tol {wl.TOL}")
    for v in verdicts:
        if not v.ok:
            print(f"fail N={v.sizes.get('N')} H={v.sizes.get('H')}: {v.detail}")

    metric_doc = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record.update({
        "attempted": attempted, "failed": failed, "metrics": metric_doc,
        "instance_tail": {"percentile": pct, "seconds": tail_s, "beyond": beyond},
        "arc_sum_err_max": max(errs, default=None),
        "instances": [dict(v.sizes, seconds=o.seconds, ok=v.ok, detail=v.detail)
                      for o, v in zip(outcomes, verdicts)],
    })
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metric_doc}))
    return 0


def traced_run(wl, workload, plan, args, record):
    """Each instance twice, untraced and traced, in alternating order.

    Interleaving makes the overhead estimate immune to the host's speed
    drifting during the run.  The untraced solves go through the installed
    wrappers with tracing switched off, which costs one flag test per call.
    """
    tracer = layers.Tracer()
    restore = layers.install(tracer, wl.estermann)
    untraced, outcomes = [], []
    start = time.perf_counter()
    try:
        while not outcomes or time.perf_counter() - start < args.seconds:
            case = plan[len(outcomes) % len(plan)]
            for traced in (False, True) if len(outcomes) % 2 else (True, False):
                tracer.enabled = traced
                (outcomes if traced else untraced).append(solve_one(workload, case, tracer))
    finally:
        tracer.enabled = False
        restore()
    wall = sum(o.seconds for o in outcomes)
    untraced_wall = sum(o.seconds for o in untraced)
    spans = tracer.spans
    calls = Counter(s.name for s in spans)
    missing = [name for name in workload.layers if calls.get(name, 0) == 0]
    if missing:
        raise RuntimeError(f"expected layers recorded no calls: {', '.join(missing)}")
    verdicts = judge_all(wl, workload, plan, outcomes, args.seed)

    metrics = layers.layer_metrics(spans)
    self_sum = sum(s.seconds for s in spans if s.parent is None)
    errs = [v.arc_sum_err for v in verdicts if v.arc_sum_err is not None]
    metrics.update({
        "quadrature.arc_sum_err_max": (max(errs, default=0.0), "count"),
        "trace.wall_s": (wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_frac": (wall / untraced_wall - 1.0, "1"),
        "trace.self_sum_s": (self_sum, "s"),
        "trace.accounted_frac": (self_sum / wall, "1"),
        "trace.spans": (len(spans), "count"),
    })
    record.update(layer_calls=dict(calls), wall_s=wall, untraced_wall_s=untraced_wall)

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload.name}-seed{args.seed}-spans.jsonl.gz"
    with gzip.open(path, "wt") as fh:
        for sid, s in enumerate(spans):
            fh.write(json.dumps({"id": sid, **asdict(s)}) + "\n")
    return outcomes, verdicts, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
