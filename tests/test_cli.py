import json
import os
import subprocess
import sys

import pytest

from estermann import circle, cli, instance
from estermann.cli import RunConfig, main
from estermann.counting import DEFAULT_MEM_ENTRIES
from estermann.instance import build_instance, hypothesis_report


def run_cli(args, capsys):
    status = main(args)
    out = capsys.readouterr().out
    return status, out


def test_count_command_json(capsys):
    status, out = run_cli(
        ["count", "--N", "12", "--c", "3/2", "--mu", "1/4,1/4,1/2", "--H", "3"], capsys
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["total"] == 3
    assert doc["config"]["N"] == 12
    assert doc["config"]["command"] == "count"


def test_count_command_csv(capsys):
    status, out = run_cli(
        ["count", "--N", "12", "--c", "3/2", "--mu", "1/4,1/4,1/2", "--H", "3",
         "--format", "csv"],
        capsys,
    )
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,v,r"
    assert lines[1:] == ["3,5,2", "4,8,1"]


def test_count_brute_method_agrees(capsys):
    s1, out1 = run_cli(
        ["count", "--N", "1000", "--c", "5/3", "--mu", "1/3,1/3,1/3", "--H", "100"],
        capsys,
    )
    s2, out2 = run_cli(
        ["count", "--N", "1000", "--c", "5/3", "--mu", "1/3,1/3,1/3", "--H", "100",
         "--method", "brute"],
        capsys,
    )
    assert s1 == s2 == 0
    assert json.loads(out1)["total"] == json.loads(out2)["total"]


def test_expsum_grid_csv(capsys, tmp_path):
    out_path = tmp_path / "grid.csv"
    status, _ = run_cli(
        ["expsum", "--kind", "Sc", "--N", "100000", "--c", "3/2",
         "--mu", "1/3,1/3,1/3", "--H", "2000",
         "--alpha-grid", "0:0.5:1001", "--out", str(out_path)],
        capsys,
    )
    assert status == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "alpha,re,im,abs"
    assert len(lines) == 1002  # header + 1001 rows


def test_expsum_all_kinds_run(capsys):
    for kind in ("S1", "prime", "Sc_sinc", "Sc_integral", "S1_approx", "prime_approx"):
        status, out = run_cli(
            ["expsum", "--kind", kind, "--N", "20000", "--c", "3/2",
             "--mu", "1/3,1/3,1/3", "--H", "500", "--alpha-grid", "0:0.01:3"],
            capsys,
        )
        assert status == 0
        assert len(out.strip().splitlines()) == 4


def test_arcs_command(capsys):
    status, out = run_cli(
        ["arcs", "--N", "500", "--c", "3/2", "--mu", "1/3,1/3,1/3", "--H", "100"],
        capsys,
    )
    assert status == 0
    doc = json.loads(out)
    assert round(doc["I_major"][0] + 2 * doc["I_minor_plus"][0]) == doc["exact_total"]
    assert "hypotheses" in doc and "cond_H" in doc["hypotheses"]


def test_arcs_derives_params_once(capsys, monkeypatch):
    calls = []
    original = instance.derive_params

    def counting(inst):
        calls.append(inst)
        return original(inst)

    for module in (instance, circle, cli):
        monkeypatch.setattr(module, "derive_params", counting)
    status, out = run_cli(
        ["arcs", "--N", "500", "--c", "3/2", "--mu", "1/3,1/3,1/3", "--H", "100"], capsys
    )
    assert status == 0 and len(calls) == 1
    inst = build_instance(500, "3/2", ("1/3", "1/3", "1/3"), 100)
    assert json.loads(out)["hypotheses"] == json.loads(hypothesis_report(inst).to_json())


def test_consecutive_calls_match_fresh_processes(capsys):
    # non-default flags first, then defaults: a flag value kept by the shared
    # parser would change a later call's output
    calls = [
        ["count", "--N", "1000", "--c", "5/3", "--mu", "1/3,1/3,1/3", "--H", "100",
         "--method", "brute", "--format", "csv", "--tol", "1e-7"],
        ["arcs", "--N", "500", "--c", "3/2", "--mu", "1/3,1/3,1/3", "--H", "100",
         "--mode", "model"],
        ["count", "--N", "12", "--c", "3/2", "--mu", "1/4,1/4,1/2", "--H", "3"],
    ]
    for args in calls:
        status, out = run_cli(args, capsys)
        fresh = subprocess.run(
            [sys.executable, "-m", "estermann", *args], capture_output=True, text=True
        )
        assert status == fresh.returncode == 0
        assert out == fresh.stdout


def test_verify_quick_exit_zero(capsys):
    status, out = run_cli(["verify", "--quick"], capsys)
    assert status == 0
    assert "[PASS]" in out


def test_sweep_csv(capsys):
    status, out = run_cli(
        ["sweep", "--N-list", "10000,20000", "--c", "3/2", "--mu", "1/3,1/3,1/3"],
        capsys,
    )
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,c,H,kappa,exact_total,main_term,ratio,I_major_re,I_minor_abs"
    assert len(lines) == 3


def test_flag_error_exit_2():
    proc = subprocess.run(
        [sys.executable, "-m", "estermann", "count", "--N", "nope"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


def test_invalid_instance_exit_2(capsys):
    status, _ = run_cli(
        ["count", "--N", "100", "--c", "3/2", "--mu", "1/2,1/3,1/4", "--H", "5"], capsys
    )
    assert status == 2


def test_mem_mb_counts_megabytes(capsys):
    # window 2 spans 200000 entries: more than 1 MB of 8-byte entries (2^17)
    # and fewer than 2^20, so 1 MB must not admit it and 2 MB must
    args = ["count", "--N", "1000000", "--c", "3/2", "--mu", "1/3,1/3,1/3", "--H", "100000"]
    assert main([*args, "--mem-mb", "1"]) == 2
    assert "--mem-mb" in capsys.readouterr().err
    status, out = run_cli([*args, "--mem-mb", "2"], capsys)
    assert status == 0 and json.loads(out)["total"] > 0
    assert RunConfig(command="count").mem_entries == DEFAULT_MEM_ENTRIES


@pytest.mark.parametrize("command", ["count", "arcs"])
@pytest.mark.parametrize("flag", ["--mem-mb", "--threads"])
@pytest.mark.parametrize("value", ["0", "-5"])
def test_non_positive_budget_flags_exit_2(command, flag, value, capsys):
    args = [command, "--N", "100", "--c", "3/2", "--mu", "1/3,1/3,1/3", "--H", "5"]
    with pytest.raises(SystemExit) as exc:
        main([*args, flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err


def test_non_rational_exponent_rejected(capsys):
    status, _ = run_cli(
        ["count", "--N", "100", "--c", "1.414", "--mu", "1/3,1/3,1/3", "--H", "5"], capsys
    )
    assert status == 2


def test_determinism_byte_identical(tmp_path, capsys):
    args = ["expsum", "--kind", "Sc", "--N", "50000", "--c", "5/2",
            "--mu", "1/4,1/4,1/2", "--H", "800", "--alpha-grid", "0:0.4:101"]
    s1, out1 = run_cli(args, capsys)
    s2, out2 = run_cli(args, capsys)
    assert s1 == s2 == 0
    assert out1 == out2


def test_runconfig_json_roundtrip():
    cfg = RunConfig(command="count", N=12, c="3/2", mu="1/4,1/4,1/2", H=3, tol=1e-7)
    assert RunConfig.from_json(cfg.to_json()) == cfg
    cfg2 = RunConfig(command="sweep", N_list="1,2", H_exponent=0.75, format="csv")
    assert RunConfig.from_json(cfg2.to_json()) == cfg2


def test_prime_cache_env(tmp_path):
    cache = tmp_path / "primes.bin"
    env = dict(os.environ, ESTERMANN_CACHE=str(cache))
    proc = subprocess.run(
        [sys.executable, "-m", "estermann", "count", "--N", "1000", "--c", "3/2",
         "--mu", "1/3,1/3,1/3", "--H", "100"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert cache.exists()
    with open(cache, "rb") as fh:
        assert fh.read(5) == b"ESPR1"
    # second run loads the cache it just wrote
    proc2 = subprocess.run(
        [sys.executable, "-m", "estermann", "count", "--N", "1000", "--c", "3/2",
         "--mu", "1/3,1/3,1/3", "--H", "100"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc2.returncode == 0
    assert json.loads(proc.stdout)["total"] == json.loads(proc2.stdout)["total"]


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_quietly(unbuffered):
    # The read end is closed before the child starts, so every write to
    # stdout fails with EPIPE however the child is scheduled.  Buffered, the
    # failure comes at the flush; unbuffered, at the write itself.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "estermann", "count", "--N", "12", "--c", "3/2",
             "--mu", "1/4,1/4,1/2", "--H", "3"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 1
