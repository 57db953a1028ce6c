"""Command-line front end.

Commands: count, arcs, expsum, verify, sweep.  Rationals travel as "p/q"
strings so exactness survives the flag boundary; every JSON artifact embeds
the resolved run configuration under "config".
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from .arith import floor_pow_values, parse_rational, pow_range
from .circle import integrate_arcs
from .counting import brute_force_count, fast_count
from .errors import EstermannError, MemoryBudgetExceeded
from .expsums import approx_prime_sum, approx_S1, approx_S_c, char_sum, eval_S1
from .instance import build_instance, derive_params, hypothesis_report
from .quadrature import _BAND_TOL
from .sieve import lambda_segment, primes_in

EXPSUM_KINDS = ("Sc", "S1", "prime", "Sc_sinc", "Sc_integral", "S1_approx", "prime_approx")


def fmt_real(x: float) -> str:
    """17 significant digits: a binary64 round-trips losslessly."""
    return format(float(x), ".17g")


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation; embedded in every JSON artifact."""

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

    @property
    def mem_entries(self) -> int:
        """--mem-mb in 8-byte entries; the counters charge their arrays' bytes to it."""
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


def _finite_float(text: str) -> float:
    """argparse type for --H-exponent."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _tol(text: str) -> float:
    """argparse type for --tol: a finite number of at least _BAND_TOL (2^-53).

    integrate_arcs refuses a smaller tol for library callers; the parser
    refuses it first, so the flag has one rule, reported as the flag's error.
    """
    value = _finite_float(text)
    if value < _BAND_TOL:
        raise argparse.ArgumentTypeError(
            f"expected a number of at least 2^-53 ({_BAND_TOL:.3g}), got {text!r}"
        )
    return value


def _instance_from(cfg: RunConfig):
    mu = tuple(parse_rational(part) for part in cfg.mu.split(","))
    return build_instance(cfg.N, cfg.c, mu, cfg.H)


def _emit(cfg: RunConfig, text: str) -> None:
    """Write text to --out, or else to stdout, ending in a newline either way."""
    with open(cfg.out, "w") if cfg.out else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")


def _with_config(cfg: RunConfig, payload: dict) -> str:
    doc = dict(payload)
    doc["config"] = asdict(cfg)
    return json.dumps(doc, indent=2, sort_keys=True)


def _count_json(cfg: RunConfig, breakdown) -> str:
    """_with_config's bytes for a count, with the per_n rows written here.

    json.dumps with indent runs the pure-Python encoder, which is slow on
    many rows.  The rows are integer triples, so they are formatted in its
    layout and spliced into the dump of the rest of the document.  JSON
    strings hold no raw newline, so a newline, two spaces and "per_n" can
    only be the top-level key.
    """
    text = _with_config(cfg, replace(breakdown, per_n=()).to_dict())
    if not breakdown.per_n:
        return text
    rows = ",\n".join(
        f"    [\n      {n},\n      {v},\n      {r}\n    ]" for n, v, r in breakdown.per_n
    )
    return text.replace('\n  "per_n": []', f'\n  "per_n": [\n{rows}\n  ]', 1)


def _cmd_count(cfg: RunConfig) -> int:
    inst = _instance_from(cfg)
    if cfg.method == "brute":
        breakdown = brute_force_count(inst)
    else:
        breakdown = fast_count(inst, mem_entries=cfg.mem_entries)
    if cfg.format == "csv":
        _emit(cfg, breakdown.to_csv())
    else:
        _emit(cfg, _count_json(cfg, breakdown))
    return 0


def _cmd_arcs(cfg: RunConfig) -> int:
    dp = derive_params(_instance_from(cfg))
    report = integrate_arcs(dp, mode=cfg.mode, tol=cfg.tol, mem_entries=cfg.mem_entries)
    doc = report.to_dict()
    doc["hypotheses"] = hypothesis_report(dp).to_dict()
    _emit(cfg, _with_config(cfg, doc))
    return 0


def _alpha_grid(text: str) -> str:
    """argparse type for --alpha-grid: checks start:stop:count, returns the text."""
    try:
        start, stop, count = text.split(":")
        ok = math.isfinite(float(start)) and math.isfinite(float(stop)) and int(count) >= 1
    except ValueError:
        ok = False
    if not ok:
        raise argparse.ArgumentTypeError(
            "expected start:stop:count (two finite numbers and a count of at least 1), "
            f"got {text!r}"
        )
    return text


def _n_list(text: str) -> str:
    """argparse type for --N-list: checks comma-separated integers, returns the text."""
    try:
        list(map(int, text.split(",")))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return text


def _parse_grid(text: str) -> np.ndarray:
    start, stop, count = text.split(":")
    return np.linspace(float(start), float(stop), int(count))


def _cmd_expsum(cfg: RunConfig) -> int:
    inst = _instance_from(cfg)
    dp = derive_params(inst)
    grid = _parse_grid(cfg.alpha_grid)

    kind = cfg.kind
    # S_c runs over mu3*N - H < n^c <= mu3*N + H; S1 and the prime sum over
    # the 2H integers up to floor(mu1*N + H).
    top1 = math.floor(inst.mu_N(1) + inst.H)
    if kind == "Sc":
        center = inst.mu_N(3)
        points = floor_pow_values(*pow_range(center - inst.H, center + inst.H, inst.c), inst.c)
        f = lambda a: char_sum(a, points)
    elif kind == "S1":
        lam = lambda_segment(top1 - 2 * inst.H + 1, top1)
        f = lambda a: eval_S1(a, lam)
    elif kind == "prime":
        prim = primes_in(top1 - 2 * inst.H + 1, top1)
        f = lambda a: char_sum(a, prim)
    elif kind == "Sc_sinc":
        f = lambda a: approx_S_c(a, dp, "sinc")
    elif kind == "Sc_integral":
        f = lambda a: approx_S_c(a, dp, "integral")
    elif kind == "S1_approx":
        f = lambda a: approx_S1(a, inst.mu_N(1) + inst.H, 2 * inst.H)
    else:  # prime_approx
        f = lambda a: approx_prime_sum(a, inst.H, inst.mu[0], inst.N)

    lines = ["alpha,re,im,abs"]
    for a in grid:
        z = f(float(a))
        lines.append(
            f"{fmt_real(a)},{fmt_real(z.real)},{fmt_real(z.imag)},{fmt_real(abs(z))}"
        )
    _emit(cfg, "\n".join(lines) + "\n")
    return 0


def _cmd_verify(cfg: RunConfig) -> int:
    from .verify import run_verify  # loads mpmath, which count never needs

    ok = run_verify(quick=cfg.quick)
    return 0 if ok else 1


def _cmd_sweep(cfg: RunConfig) -> int:
    rows = ["N,c,H,kappa,exact_total,main_term,ratio,I_major_re,I_minor_abs"]
    for n_text in cfg.N_list.split(","):
        N = int(n_text)
        try:
            # a negative N, refused below, to a fractional power is complex
            H = math.ceil(N ** cfg.H_exponent) if N >= 0 else 0
        except ArithmeticError:  # overflow, or 0 to a negative power
            raise ValueError(f"H = N^{cfg.H_exponent} (--H-exponent) fails at N={N}") from None
        if N < 1:
            raise ValueError(f"--N-list holds N={N}; N must be a positive integer")
        report = integrate_arcs(
            _instance_from(replace(cfg, N=N, H=H)),
            mode="model",
            tol=cfg.tol,
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


# Flags shared by several commands.  A command accepts only the flags it
# reads.  The parser sets no defaults: a flag that is not given, or that the
# command does not take, takes RunConfig's default, so every config block
# lists the same fields.
_FLAGS = {
    "--N": dict(type=int, required=True, help="target integer"),
    "--c": dict(type=str, required=True, help="exponent as p/q, e.g. 3/2"),
    "--mu": dict(type=str, required=True, help="three rationals, e.g. 1/3,1/3,1/3"),
    "--H": dict(type=int, required=True, help="window half-width"),
    "--tol": dict(type=_tol),
    "--threads": dict(type=_positive_int),
    "--mem-mb": dict(dest="mem_mb", type=_positive_int,
                     help="memory budget for window arrays, in MB"),
    "--out": dict(type=str),
    "--format": dict(choices=("json", "csv")),
}


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    # allow_abbrev=False everywhere: a prefix of another command's flag
    # (sweep --H for --H-exponent) must be an error, not a silent remap.
    parser = argparse.ArgumentParser(
        prog="estermann",
        description="Count representations N = p1 + p2 + floor(n^c) in "
        "almost-proportional windows and analyze the counting integral.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, summary, *flags):
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        return p

    instance = ("--N", "--c", "--mu", "--H")
    # count and arcs read no thread count; they take --threads only because the
    # benchmark harness in perfbench/workloads.py passes "--threads 1" to both.
    p_count = add_command("count", "exact representation count", *instance,
                          "--threads", "--mem-mb", "--out", "--format")
    p_count.add_argument("--method", choices=("fast", "brute"))

    p_arcs = add_command("arcs", "major/minor arc integrals", *instance,
                         "--tol", "--threads", "--mem-mb", "--out")
    p_arcs.add_argument("--mode", choices=("exact", "model"))

    p_exp = add_command("expsum", "exponential-sum grid to CSV", *instance, "--out")
    p_exp.add_argument("--kind", choices=EXPSUM_KINDS, required=True)
    p_exp.add_argument("--alpha-grid", dest="alpha_grid", type=_alpha_grid, required=True)

    p_ver = add_command("verify", "run the property suite")
    p_ver.add_argument("--quick", action="store_true")

    p_sweep = add_command("sweep", "ratio exact/main-term over an N grid",
                          "--c", "--mu", "--tol", "--mem-mb", "--out")
    p_sweep.add_argument("--N-list", dest="N_list", type=_n_list, required=True)
    p_sweep.add_argument("--H-exponent", dest="H_exponent", type=_finite_float)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = {k: v for k, v in vars(args).items() if v is not None}
    return RunConfig(**fields)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = config_from_args(args)
    try:
        if cfg.out:
            # A path that cannot be written fails here, before the work.
            # Appending leaves an existing file as it is, and a file that
            # the check itself made is removed again.
            existed = os.path.lexists(cfg.out)
            open(cfg.out, "a").close()
            if not existed:
                os.remove(cfg.out)
        status = _COMMANDS[cfg.command](cfg)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
    except BrokenPipeError:
        # The reader of stdout has gone.  Point stdout at /dev/null so the
        # flush at exit does not fail again, and exit 1 without a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        status = 1
    except OSError as exc:
        # the only file a command opens is --out (a missing directory, say)
        if not cfg.out:
            raise
        print(f"error: cannot write --out {cfg.out}: {exc.strerror}", file=sys.stderr)
        return 2
    except (EstermannError, ValueError) as exc:
        # covers non-rational flag syntax ("--c 1.41") and bad instances
        hint = "; raise --mem-mb" if isinstance(exc, MemoryBudgetExceeded) else ""
        print(f"error: {exc}{hint}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
