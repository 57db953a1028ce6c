"""Outside-in tracing of the package's layers.

The package binds its functions with `from .x import y`, so one function can
sit under several module names (`counting.fast_count`, `circle.fast_count`,
`cli.fast_count`, ...).  `install` replaces every such binding with one
wrapper and then checks that no module still reaches an unwrapped original.
Each wrapper records a span: name, parent span, instance id, start, end, and
a few sizes read from the arguments or the result after the span has ended.
Spans stay in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    parent: Optional[int]
    instance: Optional[int]
    start: float
    end: float
    attrs: Optional[dict] = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Optional[Span]] = []
        self.instance: Optional[int] = None
        self.enabled = False
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, attrs: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[sid] = Span(name, parent, tracer.instance, start, end)
            if attrs is not None:
                tracer.spans[sid].attrs = attrs(args, result)
            return result

        return traced


def _sieve_attrs(args, primes) -> dict:
    a, b = args[0], args[1]
    n = len(primes)
    return {"span": max(b - a + 1, 0), "primes": n,
            "first": int(primes[0]) if n else None, "last": int(primes[-1]) if n else None}


def _arith_attrs(args, result) -> dict:
    return {"n_values": len(result[1])}


def _quadrature_attrs(args, result) -> dict:
    return {"evals": result[2]}


def _points_attrs(args, result) -> dict:
    return {"points": len(args[1])}


# (span name, defining module, attribute, attrs); a module attribute that is
# a class is given as "Class.method" and wrapped on the class.
TARGETS = (
    ("cli", "cli", "main", None),
    ("instance.build_instance", "instance", "build_instance", None),
    ("instance.derive_params", "instance", "derive_params", None),
    ("sieve", "sieve", "primes_in", _sieve_attrs),
    ("arith", "counting", "admissible_floor_values", _arith_attrs),
    ("counting.fast_count", "counting", "fast_count", None),
    ("circle.convolution", "circle", "exact_convolution_count", None),
    ("circle.integrate_arcs", "circle", "integrate_arcs", None),
    ("circle.integrand", "circle", "ExactIntegrand.__call__", _points_attrs),
    ("circle.integrand", "circle", "ModelIntegrand.__call__", _points_attrs),
    ("expsums.phase_reduce", "expsums", "PhaseReducer.frac", None),
    ("quadrature", "quadrature", "adaptive_complex", _quadrature_attrs),
)


def install(tracer: Tracer, package) -> Callable[[], None]:
    """Wrap every binding of every target; returns the function that undoes it.

    Raises RuntimeError when a target is missing or when some module of the
    package still binds an original after the wrappers are in place.
    """
    prefix = package.__name__
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == prefix or name.startswith(prefix + "."))]
    undo: list[tuple[object, str, object]] = []
    originals = []
    try:
        for span_name, module, attr, attrs in TARGETS:
            home = sys.modules.get(f"{prefix}.{module}")
            if home is None:
                raise RuntimeError(f"module {prefix}.{module} is not loaded")
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(home, owner_name)
                original = owner.__dict__[method]
                undo.append((owner, method, original))
                setattr(owner, method, tracer.wrap(span_name, original, attrs))
                originals.append(original)
                continue
            original = getattr(home, attr)
            wrapper = tracer.wrap(span_name, original, attrs)
            originals.append(original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        undo.append((m, key, original))
                        setattr(m, key, wrapper)
        stale = [f"{m.__name__}.{key}" for m in modules for key, value in vars(m).items()
                 if any(value is o for o in originals)]
        if stale:
            raise RuntimeError(f"unwrapped bindings remain: {', '.join(stale)}")
    except BaseException:
        _restore(undo)
        raise
    return lambda: _restore(undo)


def _restore(undo) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer busy time, self time and work counts from a span list.

    busy_s sums the spans of a layer that have no ancestor in the same layer;
    self_s subtracts from each span the time of its child spans.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for sid, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(sid)

    def self_s(sid: int) -> float:
        return spans[sid].seconds - sum(spans[k].seconds for k in children[sid])

    def in_layer(name: str, layer: str) -> bool:
        return name == layer or name.startswith(layer + ".")

    def busy(layer: str) -> float:
        total = 0.0
        for s in spans:
            if not in_layer(s.name, layer):
                continue
            p = s.parent
            while p is not None and not in_layer(spans[p].name, layer):
                p = spans[p].parent
            if p is None:
                total += s.seconds
        return total

    by_name: dict[str, list[int]] = defaultdict(list)
    for sid, s in enumerate(spans):
        by_name[s.name].append(sid)

    def calls(name: str) -> int:
        return len(by_name[name])

    def self_sum(name: str) -> float:
        return sum((self_s(sid) for sid in by_name[name]), 0.0)

    def attr_sum(name: str, key: str) -> int:
        return sum(spans[sid].attrs[key] for sid in by_name[name] if spans[sid].attrs)

    def kids(sid: int, name: str) -> list[Span]:
        return [spans[k] for k in children[sid] if spans[k].name == name]

    # fast_count sieves window 1, inverts the floor range, then sieves window 2
    # only when the pair loop is going to run: |V|*|P1| probes.
    pair_probes = 0
    for sid in by_name["counting.fast_count"]:
        sieves, ariths = kids(sid, "sieve"), kids(sid, "arith")
        if len(sieves) == 2 and ariths:
            pair_probes += sieves[0].attrs["primes"] * ariths[0].attrs["n_values"]
    # the convolution length and product count come from the prime spans
    conv_len = conv_mults = 0
    for sid in by_name["circle.convolution"]:
        sieves, ariths = kids(sid, "sieve"), kids(sid, "arith")
        if len(sieves) == 2 and ariths and ariths[0].attrs["n_values"] \
                and all(s.attrs["primes"] for s in sieves):
            s1, s2 = (s.attrs["last"] - s.attrs["first"] + 1 for s in sieves)
            conv_len += s1 + s2
            conv_mults += s1 * s2

    return {
        "sieve.busy_s": (busy("sieve"), "s"),
        "sieve.calls": (calls("sieve"), "count"),
        "sieve.primes": (attr_sum("sieve", "primes"), "count"),
        "sieve.span": (attr_sum("sieve", "span"), "count"),
        "arith.busy_s": (busy("arith"), "s"),
        "arith.n_values": (attr_sum("arith", "n_values"), "count"),
        "instance.busy_s": (busy("instance"), "s"),
        "instance.derive_params.calls": (calls("instance.derive_params"), "count"),
        "counting.fast_count.self_s": (self_sum("counting.fast_count"), "s"),
        "counting.pair_probes": (pair_probes, "count"),
        "circle.convolution.self_s": (self_sum("circle.convolution"), "s"),
        "circle.convolution.len": (conv_len, "count"),
        "circle.convolution.mults": (conv_mults, "count"),
        "circle.integrand.busy_s": (busy("circle.integrand"), "s"),
        "circle.integrand.points": (attr_sum("circle.integrand", "points"), "count"),
        "expsums.phase_reduce.busy_s": (busy("expsums.phase_reduce"), "s"),
        "expsums.phase_reduce.calls": (calls("expsums.phase_reduce"), "count"),
        "quadrature.self_s": (self_sum("quadrature"), "s"),
        "quadrature.calls": (calls("quadrature"), "count"),
        "quadrature.evals": (attr_sum("quadrature", "evals"), "count"),
        "circle.integrate_arcs.self_s": (self_sum("circle.integrate_arcs"), "s"),
        "cli.self_s": (self_sum("cli"), "s"),
    }
