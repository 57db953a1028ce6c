"""Tests of the benchmark itself: python -m pytest perfbench

They run every workload at the tiny size, check the printed metric set
against BENCHMARK.json, and check that a wrong program output is caught.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*extra, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, section):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = _result(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name, unit in want.items():
        assert any(line.startswith(f"metric {name} = ") and f" {unit}" in line
                   for line in proc.stdout.splitlines()), name
    assert "metric failed_frac = 0.0 1" in proc.stdout


def _wrong_breakdown(real):
    def fast_count(inst, **kwargs):
        good = real(inst, **kwargs)
        rows = tuple((n, v, r + 1) for n, v, r in good.per_n)
        return type(good)(total=sum(r for _, _, r in rows), per_n=rows, n_range=good.n_range)

    return fast_count


def _wrong_total(real):
    def count(inst, **kwargs):
        return real(inst, **kwargs) + 1

    return count


@pytest.mark.parametrize("workload,module,name,make", [
    ("count-large", "cli", "fast_count", _wrong_breakdown),
    ("arcs-exact", "circle", "exact_convolution_count", _wrong_total),
    ("crosscheck", "circle", "exact_convolution_count", _wrong_total),
])
def test_wrong_count_is_a_failure(workload, module, name, make, monkeypatch, capsys):
    target = getattr(workloads.estermann, module)
    monkeypatch.setattr(target, name, make(getattr(target, name)))
    assert run.main(["--workload", workload, "--seed", "5", "--seconds", "0.5",
                     "--size", "tiny"]) == 0
    out = capsys.readouterr().out
    result = _result(out)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert "metric failed_frac = 1.0 1" in out


def test_malformed_output_is_a_failure(monkeypatch, capsys):
    monkeypatch.setattr(workloads.cli, "main", lambda argv: print("not json") or 0)
    assert run.main(["--workload", "count-large", "--seed", "5", "--seconds", "0.2",
                     "--size", "tiny"]) == 0
    out = capsys.readouterr().out
    result = _result(out)
    assert result["failed"] == result["attempted"] >= 1
    assert "referee: JSONDecodeError" in out


def test_tail_leaves_ten_samples_beyond():
    assert run.tail([float(i) for i in range(200)]) == (95.0, 189.0, 10)
    assert run.tail([1.0] * 39) == (None, None, 0)


def test_count_referee_catches_a_wrong_total():
    plan = workloads.make_plan(workloads.WORKLOADS["count-large"], 2, 1, "tiny")
    doc = json.loads(workloads.run_cli(plan[0])[1])
    args = (plan[0].N, plan[0].c, plan[0].mu, plan[0].H, [0])
    assert workloads.referee.check_count_output(doc, *args) is None
    doc["total"] += 1
    assert "sum of r" in workloads.referee.check_count_output(doc, *args)


def test_install_wraps_every_binding_and_restores():
    est = workloads.estermann
    original, quad = est.counting.fast_count, est.quadrature.adaptive_complex
    restore = layers.install(layers.Tracer(), est)
    try:
        for module in (est.counting, est.circle, est.cli, est):
            assert module.fast_count is not original
        assert est.circle.adaptive_complex is not quad
        assert est.circle.adaptive_complex is est.expsums.adaptive_complex
    finally:
        restore()
    assert est.cli.fast_count is original and est.circle.fast_count is original
    assert est.circle.adaptive_complex is quad


def test_traced_run_fails_when_an_expected_layer_is_silent(monkeypatch):
    spec = workloads.WORKLOADS["count-large"]
    monkeypatch.setitem(workloads.WORKLOADS, "count-large",
                        type(spec)(**{**spec.__dict__, "layers": spec.layers + ("quadrature",)}))
    with pytest.raises(RuntimeError, match="quadrature"):
        run.main(["--workload", "count-large", "--seed", "1", "--seconds", "0.5",
                  "--trace", "1", "--size", "tiny"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "crosscheck", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
