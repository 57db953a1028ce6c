"""Seeded workloads: the instance plans, the timed call and the referee.

Each workload is a closed loop with one client: it solves one instance after
another in this process, with threads=1.  Instances come from a seed through
a randomly shifted low-discrepancy sequence, so every N is log-uniform on its
range while any prefix of the plan covers that range evenly; this keeps the
mix of instance sizes in a fixed-length run nearly the same from seed to
seed.
"""

from __future__ import annotations

import io
import json
import math
import random
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import estermann  # noqa: E402  (needs the checkout's src/ on the path)
from estermann import circle, cli, counting  # noqa: E402

import referee  # noqa: E402

THREADS = 1
MEM_MB = 2048  # the CLI default; the CLI reads it as mega-entries
MEM_ENTRIES = MEM_MB << 20  # what `--mem-mb 2048` resolves to inside the CLI
TOL = 1e-6
# brute_force_count takes ~0.1 s at N = 1e5, longer than the instance it checks;
# it referees a seeded one-in-twelve sample of crosscheck instances.
BRUTE_FORCE_EVERY = 12

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# The R2 sequence: the plastic number gives a 2-D Kronecker sequence.
PLASTIC = 1.32471795724474602596
R2 = (1.0 / PLASTIC, 1.0 / (PLASTIC * PLASTIC))

C_SET = ("3/2", "5/3", "7/4")
CROSSCHECK_C_SET = ("3/2", "5/3", "7/4", "5/2")
MU_SET = (("1/3", "1/3", "1/3"), ("1/4", "1/4", "1/2"), ("2/5", "1/5", "2/5"))


@dataclass(frozen=True)
class Case:
    """One generated instance: its flags as strings and the built instance."""

    id: int
    N: int
    c: str
    mu: tuple[str, str, str]
    H: int
    inst: estermann.ProblemInstance
    argv: tuple[str, ...]  # CLI arguments for the CLI workloads, else ()


@dataclass(frozen=True)
class Verdict:
    ok: bool
    detail: str
    sizes: dict
    arc_sum_err: Optional[float] = None


@dataclass(frozen=True)
class Workload:
    name: str
    ranges: dict  # size -> (N_lo, N_hi)
    max_rate: float  # upper estimate of instances/s at full size; sizes the plan
    layers: tuple[str, ...]  # span names the traced run must see called
    plan: Callable[[random.Random, int, float, float], list[Case]]
    solve: Callable[[Case], object]
    judge: Callable[[Case, object, random.Random], Verdict]


def log_uniform(lo: float, hi: float, u: float) -> int:
    return int(round(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))))


def _case(i: int, N: int, c: str, mu, H: int, command: tuple[str, ...]) -> Case:
    mu = tuple(mu)
    inst = estermann.build_instance(N, c, mu, H)
    argv = ()
    if command:
        argv = (
            command[0], "--N", str(N), "--c", c, "--mu", ",".join(mu), "--H", str(H),
            *command[1:], "--threads", str(THREADS), "--mem-mb", str(MEM_MB),
        )
    return Case(i, N, c, mu, H, inst, argv)


def _ladder_plan(exponent: float, command: tuple[str, ...]):
    """N log-uniform, H = ceil(N^exponent); c and mu cycle through fixed sets."""

    def plan(rng: random.Random, count: int, lo: float, hi: float) -> list[Case]:
        shift, c_off, mu_off = rng.random(), rng.randrange(3), rng.randrange(3)
        cases = []
        for i in range(count):
            N = log_uniform(lo, hi, (shift + i * GOLDEN) % 1.0)
            c = C_SET[(i + c_off) % 3]
            mu = MU_SET[(i // 3 + mu_off) % 3]
            cases.append(_case(i, N, c, mu, math.ceil(N ** exponent), command))
        return cases

    return plan


def crosscheck_plan(rng: random.Random, count: int, lo: float, hi: float) -> list[Case]:
    """Instances drawn the way verify.random_instances draws them.

    N is log-uniform on [lo, hi] and H uniform on
    [ceil(N^0.5), min(ceil(N^0.8), min_k mu_k N)], the pair taken from a
    shifted R2 sequence; c cycles through four exponents and the mu come
    from the seeded generator.
    """
    s1, s2, c_off = rng.random(), rng.random(), rng.randrange(4)
    cases = []
    for i in range(count):
        u, w = (s1 + i * R2[0]) % 1.0, (s2 + i * R2[1]) % 1.0
        N = log_uniform(lo, hi, u)
        d1, d2 = rng.randint(2, 9), rng.randint(2, 9)
        mu1 = Fraction(rng.randint(1, d1 - 1), 2 * d1)
        mu2 = Fraction(rng.randint(1, d2 - 1), 2 * d2)
        mu = (mu1, mu2, 1 - mu1 - mu2)
        h_lo = math.ceil(N ** 0.5)
        h_hi = min(math.ceil(N ** 0.8), math.floor(min(mu) * N))
        H = h_lo + int(w * (h_hi - h_lo + 1))
        mu_text = tuple(f"{m.numerator}/{m.denominator}" for m in mu)
        cases.append(_case(i, N, CROSSCHECK_C_SET[(i + c_off) % 4], mu_text, H, ()))
    return cases


def run_cli(case: Case) -> tuple[int, str]:
    """One in-process `estermann` invocation; returns (status, stdout)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        status = cli.main(list(case.argv))
    return status, buf.getvalue()


def solve_crosscheck(case: Case):
    """The `sweep` row: the convolution count plus the model-mode arcs."""
    total = circle.exact_convolution_count(case.inst, mem_entries=MEM_ENTRIES)
    report = circle.integrate_arcs(
        case.inst, mode="model", tol=TOL, threads=THREADS, mem_entries=MEM_ENTRIES
    )
    return total, report


def program_sizes(case: Case) -> dict:
    """Window sizes as the program sees them (computed outside the timed region)."""
    p1 = counting.window_primes(case.inst, 1)
    p2 = counting.window_primes(case.inst, 2)
    _, values = counting.admissible_floor_values(case.inst)
    sizes = {"N": case.N, "c": case.c, "mu": list(case.mu), "H": case.H,
             "primes_w1": len(p1), "primes_w2": len(p2), "n_count": len(values)}
    if len(p1) and len(p2):
        sizes["conv_len"] = int(p1[-1] - p1[0] + 1) + int(p2[-1] - p2[0] + 1)
    return sizes


def _cli_doc(out) -> tuple[Optional[dict], str]:
    status, text = out
    if status != 0:
        return None, f"exit status {status}"
    return json.loads(text), ""


def judge_count(case: Case, out, rng: random.Random) -> Verdict:
    sizes = program_sizes(case)
    doc, why = _cli_doc(out)
    if doc is None:
        return Verdict(False, why, sizes)
    rows = len(doc["per_n"])
    picks = sorted({0, rows - 1, *(rng.randrange(rows) for _ in range(4))}) if rows else []
    err = referee.check_count_output(doc, case.N, case.c, case.mu, case.H, picks)
    return Verdict(err is None, err or "ok", sizes)


def judge_arcs(case: Case, out, rng: random.Random) -> Verdict:
    sizes = program_sizes(case)
    doc, why = _cli_doc(out)
    if doc is None:
        return Verdict(False, why, sizes)
    sizes["n_evals"] = doc["n_evals"]
    arc_sum = doc["I_major"][0] + doc["I_minor_plus"][0] + doc["I_minor_minus"][0]
    err = abs(arc_sum - doc["exact_total"])
    want = counting.fast_count(case.inst, mem_entries=MEM_ENTRIES).total
    if doc["exact_total"] != want:
        return Verdict(False, f"exact_total {doc['exact_total']} != fast_count {want}", sizes, err)
    if not doc["additivity_error"] < 0.5:
        return Verdict(False, f"additivity_error {doc['additivity_error']}", sizes, err)
    return Verdict(True, "ok", sizes, err)


def judge_crosscheck(case: Case, out, rng: random.Random) -> Verdict:
    sizes = program_sizes(case)
    total, report = out
    sizes["n_evals"] = report.n_evals
    if total != report.exact_total:
        return Verdict(False, f"convolution {total} != exact_total {report.exact_total}", sizes)
    if rng.randrange(BRUTE_FORCE_EVERY) == 0 and case.N <= counting.ORACLE_LIMIT_DEFAULT:
        want = counting.brute_force_count(case.inst).total
        if total != want:
            return Verdict(False, f"convolution {total} != brute force {want}", sizes)
    return Verdict(True, "ok", sizes)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="count-large",
            ranges={"full": (5e6, 1e7), "tiny": (2e4, 5e4)},
            max_rate=20.0,
            layers=("cli", "instance.build_instance", "sieve", "arith", "counting.fast_count"),
            plan=_ladder_plan(0.8, ("count",)),
            solve=run_cli,
            judge=judge_count,
        ),
        Workload(
            name="arcs-exact",
            ranges={"full": (3e3, 6e3), "tiny": (300, 600)},
            max_rate=3.0,
            layers=("cli", "instance.build_instance", "instance.derive_params", "sieve",
                    "arith", "circle.integrate_arcs", "circle.convolution",
                    "circle.integrand", "quadrature"),
            plan=_ladder_plan(0.7, ("arcs", "--mode", "exact", "--tol", str(TOL))),
            solve=run_cli,
            judge=judge_arcs,
        ),
        Workload(
            name="crosscheck",
            ranges={"full": (1e3, 1e5), "tiny": (400, 2000)},
            max_rate=60.0,
            layers=("instance.derive_params", "sieve", "arith", "counting.fast_count",
                    "circle.convolution", "circle.integrate_arcs", "circle.integrand",
                    "quadrature"),
            plan=crosscheck_plan,
            solve=solve_crosscheck,
            judge=judge_crosscheck,
        ),
    )
}


def make_plan(workload: Workload, seed: int, seconds: float, size: str) -> list[Case]:
    """The seeded instance plan, long enough that a run rarely wraps around."""
    lo, hi = workload.ranges[size]
    count = max(16, int(workload.max_rate * seconds) + 8)
    return workload.plan(random.Random(f"{workload.name}:{seed}"), count, lo, hi)
