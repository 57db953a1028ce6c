"""Command-line front end.

Commands: count, arcs, expsum, verify, sweep.  Rationals travel as "p/q"
strings so exactness survives the flag boundary; every JSON artifact embeds
the resolved run configuration under "config".
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import sieve
from .arith import parse_rational
from .circle import integrate_arcs
from .counting import brute_force_count, fast_count
from .errors import EstermannError, MemoryBudgetExceeded
from .expsums import (
    approx_prime_sum,
    approx_S1,
    approx_S_c,
    eval_prime_sum,
    eval_S1,
    eval_S_c,
    floor_pow_values,
)
from .instance import build_instance, derive_params, hypothesis_report
from .sieve import lambda_segment, primes_in
from .verify import run_verify

CACHE_ENV = "ESTERMANN_CACHE"

EXPSUM_KINDS = ("Sc", "S1", "prime", "Sc_sinc", "Sc_integral", "S1_approx", "prime_approx")


def fmt_real(x: float) -> str:
    """17 significant digits: a binary64 round-trips losslessly."""
    return format(float(x), ".17g")


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation; round-trips losslessly through JSON."""

    command: str
    N: Optional[int] = None
    c: Optional[str] = None
    mu: Optional[str] = None
    H: Optional[int] = None
    tol: float = 1e-6
    threads: int = 1
    mem_mb: int = 2048
    out: Optional[str] = None
    format: str = "json"
    mode: str = "exact"
    method: str = "fast"
    kind: Optional[str] = None
    alpha_grid: Optional[str] = None
    quick: bool = False
    N_list: Optional[str] = None
    H_exponent: float = 0.8

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        return cls(**json.loads(text))

    @property
    def mem_entries(self) -> int:
        """--mem-mb in 8-byte entries, the widest the budgeted arrays hold."""
        return self.mem_mb * (1 << 20) // 8


def _positive_int(text: str) -> int:
    """argparse type for counts and budgets: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _instance_from(cfg: RunConfig):
    if cfg.N is None or cfg.c is None or cfg.mu is None or cfg.H is None:
        raise EstermannError("this command needs --N, --c, --mu and --H")
    mu = tuple(parse_rational(part) for part in cfg.mu.split(","))
    return build_instance(cfg.N, cfg.c, mu, cfg.H)


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _with_config(cfg: RunConfig, payload: dict) -> str:
    doc = dict(payload)
    doc["config"] = json.loads(cfg.to_json())
    return json.dumps(doc, indent=2, sort_keys=True)


def _cmd_count(cfg: RunConfig) -> int:
    inst = _instance_from(cfg)
    if cfg.method == "brute":
        breakdown = brute_force_count(inst)
    else:
        breakdown = fast_count(inst, mem_entries=cfg.mem_entries)
    if cfg.format == "csv":
        _emit(cfg, breakdown.to_csv())
    else:
        _emit(cfg, _with_config(cfg, json.loads(breakdown.to_json())))
    return 0


def _cmd_arcs(cfg: RunConfig) -> int:
    inst = _instance_from(cfg)
    dp = derive_params(inst)
    report = integrate_arcs(
        inst,
        mode=cfg.mode,
        tol=cfg.tol,
        threads=cfg.threads,
        mem_entries=cfg.mem_entries,
        dp=dp,
    )
    doc = json.loads(report.to_json())
    doc["hypotheses"] = json.loads(hypothesis_report(inst, dp).to_json())
    _emit(cfg, _with_config(cfg, doc))
    return 0


def _parse_grid(text: str) -> np.ndarray:
    start, stop, count = text.split(":")
    return np.linspace(float(start), float(stop), int(count))


def _cmd_expsum(cfg: RunConfig) -> int:
    if cfg.kind not in EXPSUM_KINDS:
        raise EstermannError(f"--kind must be one of {', '.join(EXPSUM_KINDS)}")
    if not cfg.alpha_grid:
        raise EstermannError("--alpha-grid start:stop:count is required")
    inst = _instance_from(cfg)
    dp = derive_params(inst)
    grid = _parse_grid(cfg.alpha_grid)

    kind = cfg.kind
    if kind == "Sc":
        values = floor_pow_values(dp.n3, dp.h3, inst.c)
        f = lambda a: eval_S_c(a, dp.n3, dp.h3, inst.c, values=values)
    elif kind == "S1":
        n1 = float(dp.n1)
        lam = lambda_segment(int(n1) - 2 * inst.H + 1, int(n1))
        f = lambda a: eval_S1(a, n1, 2.0 * inst.H, lam=lam)
    elif kind == "prime":
        n1 = float(dp.n1)
        prim = primes_in(int(n1) - 2 * inst.H + 1, int(n1))
        f = lambda a: eval_prime_sum(a, n1, 2.0 * inst.H, primes=prim)
    elif kind == "Sc_sinc":
        f = lambda a: approx_S_c(a, dp, inst.c, form="sinc")
    elif kind == "Sc_integral":
        f = lambda a: approx_S_c(a, dp, inst.c, form="integral")
    elif kind == "S1_approx":
        f = lambda a: approx_S1(a, float(dp.n1), 2.0 * inst.H)
    else:  # prime_approx
        f = lambda a: approx_prime_sum(a, float(dp.n1), inst.H, inst.mu[0], inst.N)

    lines = ["alpha,re,im,abs"]
    for a in grid:
        z = f(float(a))
        lines.append(
            f"{fmt_real(a)},{fmt_real(z.real)},{fmt_real(z.imag)},{fmt_real(abs(z))}"
        )
    _emit(cfg, "\n".join(lines) + "\n")
    return 0


def _cmd_verify(cfg: RunConfig) -> int:
    ok = run_verify(quick=cfg.quick)
    return 0 if ok else 1


def _cmd_sweep(cfg: RunConfig) -> int:
    if not cfg.N_list:
        raise EstermannError("--N-list is required, e.g. 10000,100000,1000000")
    if cfg.c is None or cfg.mu is None:
        raise EstermannError("sweep needs --c and --mu")
    rows = ["N,c,H,kappa,exact_total,main_term,ratio,I_major_re,I_minor_abs"]
    for n_text in cfg.N_list.split(","):
        N = int(n_text)
        H = math.ceil(N ** cfg.H_exponent)
        mu = tuple(parse_rational(p) for p in cfg.mu.split(","))
        inst = build_instance(N, cfg.c, mu, H)
        report = integrate_arcs(
            inst,
            mode="model",
            tol=cfg.tol,
            threads=cfg.threads,
            mem_entries=cfg.mem_entries,
        )
        ratio = report.ratio_exact_to_main
        rows.append(
            ",".join(
                [
                    str(N),
                    cfg.c,
                    str(H),
                    fmt_real(report.kappa),
                    str(report.exact_total),
                    fmt_real(report.main_term),
                    fmt_real(ratio) if ratio is not None else "nan",
                    fmt_real(report.I_major.real),
                    fmt_real(abs(report.I_minor_plus)),
                ]
            )
        )
    _emit(cfg, "\n".join(rows) + "\n")
    return 0


_COMMANDS = {
    "count": _cmd_count,
    "arcs": _cmd_arcs,
    "expsum": _cmd_expsum,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="estermann",
        description="Count representations N = p1 + p2 + floor(n^c) in "
        "almost-proportional windows and analyze the counting integral.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, instance=True):
        if instance:
            p.add_argument("--N", type=int, help="target integer")
            p.add_argument("--c", type=str, help="exponent as p/q, e.g. 3/2")
            p.add_argument("--mu", type=str, help="three rationals, e.g. 1/3,1/3,1/3")
            p.add_argument("--H", type=int, help="window half-width")
        p.add_argument("--tol", type=float, default=1e-6)
        p.add_argument("--threads", type=_positive_int, default=1)
        p.add_argument("--mem-mb", dest="mem_mb", type=_positive_int, default=2048,
                       help="memory budget for window arrays, in MB")
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p_count = sub.add_parser("count", help="exact representation count")
    add_common(p_count)
    p_count.add_argument("--method", choices=("fast", "brute"), default="fast")

    p_arcs = sub.add_parser("arcs", help="major/minor arc integrals")
    add_common(p_arcs)
    p_arcs.add_argument("--mode", choices=("exact", "model"), default="exact")

    p_exp = sub.add_parser("expsum", help="exponential-sum grid to CSV")
    add_common(p_exp)
    p_exp.add_argument("--kind", choices=EXPSUM_KINDS, required=True)
    p_exp.add_argument("--alpha-grid", dest="alpha_grid", type=str, required=True)

    p_ver = sub.add_parser("verify", help="run the property suite")
    add_common(p_ver, instance=False)
    p_ver.add_argument("--quick", action="store_true")

    p_sweep = sub.add_parser("sweep", help="ratio exact/main-term over an N grid")
    add_common(p_sweep)
    p_sweep.add_argument("--N-list", dest="N_list", type=str)
    p_sweep.add_argument("--H-exponent", dest="H_exponent", type=float, default=0.8)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = {k: v for k, v in vars(args).items() if v is not None}
    return RunConfig(**fields)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = config_from_args(args)

    cache_path = os.environ.get(CACHE_ENV)
    if cache_path:
        sieve.load_base_prime_cache(cache_path)
    try:
        status = _COMMANDS[cfg.command](cfg)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
    except BrokenPipeError:
        # The reader of stdout has gone.  Point stdout at /dev/null so the
        # flush at exit does not fail again, and exit 1 without a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        status = 1
    except (EstermannError, ValueError) as exc:
        # covers non-rational flag syntax ("--c 1.41") and bad instances
        hint = "; raise --mem-mb" if isinstance(exc, MemoryBudgetExceeded) else ""
        print(f"error: {exc}{hint}", file=sys.stderr)
        return 2
    if cache_path:
        try:
            sieve.write_base_prime_cache(cache_path, sieve._base_limit)
        except OSError:
            pass
    return status


if __name__ == "__main__":
    sys.exit(main())
