import json
import os
import subprocess
import sys

import pytest

from estermann import cli, counting, instance
from estermann.cli import RunConfig, main
from estermann.counting import DEFAULT_MEM_ENTRIES
from estermann.instance import build_instance, derive_params, hypothesis_report


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
    for H in ("500", "0"):  # at H = 0 every window is empty: a zero grid
        for kind in cli.EXPSUM_KINDS:
            status, out = run_cli(
                ["expsum", "--kind", kind, "--N", "20000", "--c", "3/2",
                 "--mu", "1/3,1/3,1/3", "--H", H, "--alpha-grid", "0:0.01:3"],
                capsys,
            )
            assert status == 0, (kind, H)
            assert len(out.strip().splitlines()) == 4


def test_expsum_sc_excludes_exact_power_lower_edge(capsys):
    # mu3*N - H = 119 - 92 = 27 = 9^(3/2): n = 9 is outside, so n = 10..35
    status, out = run_cli(
        ["expsum", "--N", "357", "--c", "3/2", "--mu", "1/3,1/3,1/3", "--H", "92",
         "--kind", "Sc", "--alpha-grid", "0:0:1"],
        capsys,
    )
    assert status == 0
    assert out.splitlines() == ["alpha,re,im,abs", "0,26,0,26"]


@pytest.mark.parametrize(
    "grid", ["0:1", "0:1:-3", "0:1:0", "a:1:3", "0:1:2.5", "nan:0.5:3", "0:inf:3", "0:nan:3"]
)
def test_malformed_alpha_grid_exit_2(grid, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["expsum", "--N", "100", "--c", "3/2", "--mu", "1/3,1/3,1/3", "--H", "5",
              "--kind", "Sc", "--alpha-grid", grid])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --alpha-grid" in err and "start:stop:count" in err


@pytest.mark.parametrize("n_list", ["1000,,2000", "1e4", "", "1000,"])
def test_malformed_n_list_exit_2(n_list, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--N-list", n_list, "--c", "3/2", "--mu", "1/3,1/3,1/3"])
    assert exc.value.code == 2
    assert "argument --N-list: expected comma-separated integers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,flag,value",
    [("arcs", "--tol", v) for v in ("nan", "inf", "0", "-1e-6")]
    + [("sweep", "--tol", "nan"), ("sweep", "--H-exponent", "inf"),
       ("sweep", "--H-exponent", "nan")],
)
def test_nonfinite_number_flag_exit_2(command, flag, value, capsys):
    # rejected by the parser, before any work: a nan tolerance is never met,
    # so arcs would otherwise run until the quadrature budget is spent
    with pytest.raises(SystemExit) as exc:
        main([*BASE_ARGS[command], f"{flag}={value}"])
    assert exc.value.code == 2
    assert f"argument {flag}: expected a " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["arcs", "sweep"])
def test_tol_below_double_rounding_exit_2(command, capsys):
    # positive, so the parser takes it, but below the 2^-53 that every band
    # rule already meets: refining further would only chase rounding
    assert main([*BASE_ARGS[command], "--tol", "1e-300"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: tol must be at least 2^-53")


@pytest.mark.parametrize("n_list,exponent", [("10000", "1e300"), ("0", "-0.5")])
def test_h_exponent_out_of_range_exit_2(n_list, exponent, capsys):
    # N^exponent overflows, or is 0 to a negative power: an error, not a traceback
    status = main(["sweep", "--N-list", n_list, "--c", "3/2", "--mu", "1/3,1/3,1/3",
                   f"--H-exponent={exponent}"])
    assert status == 2
    assert "--H-exponent" in capsys.readouterr().err


def test_negative_alpha_grid_start(capsys):
    status, out = run_cli(
        ["expsum", "--N", "100", "--c", "3/2", "--mu", "1/3,1/3,1/3", "--H", "5",
         "--kind", "Sc", "--alpha-grid=-0.5:0.5:3"],
        capsys,
    )
    assert status == 0
    assert [line.split(",")[0] for line in out.splitlines()] == ["alpha", "-0.5", "0", "0.5"]


def test_arcs_command(capsys):
    status, out = run_cli(
        ["arcs", "--N", "500", "--c", "3/2", "--mu", "1/3,1/3,1/3", "--H", "100"],
        capsys,
    )
    assert status == 0
    doc = json.loads(out)
    assert round(doc["I_major"][0] + 2 * doc["I_minor_plus"][0]) == doc["exact_total"]
    assert "hypotheses" in doc and "cond_H" in doc["hypotheses"]


@pytest.mark.parametrize("mode", ["exact", "model"])
def test_arcs_json_keys(mode, capsys):
    status, out = run_cli(
        ["arcs", "--N", "500", "--c", "3/2", "--mu", "1/3,1/3,1/3", "--H", "100",
         "--mode", mode],
        capsys,
    )
    assert status == 0
    assert list(json.loads(out)) == [
        "I_major", "I_minor_minus", "I_minor_plus", "achieved_error", "additivity_error",
        "arc_split", "config", "exact_total", "hypotheses", "kappa", "main_term",
        "mode", "model_major", "n_evals", "ratio_exact_to_main", "ratio_major_to_model",
        "tol",
    ]


def test_arcs_derives_params_once(capsys, monkeypatch):
    calls = count_calls(monkeypatch, instance, "derive_params")
    status, out = run_cli(
        ["arcs", "--N", "500", "--c", "3/2", "--mu", "1/3,1/3,1/3", "--H", "100"], capsys
    )
    assert status == 0 and len(calls) == 1
    dp = derive_params(build_instance(500, "3/2", ("1/3", "1/3", "1/3"), 100))
    assert json.loads(out)["hypotheses"] == hypothesis_report(dp).to_dict()


def count_calls(monkeypatch, home, name):
    """Route every estermann module's binding of home.name through a counter."""
    original = getattr(home, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "estermann" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


_INSTANCE_FLAGS = ["--N", "3000", "--c", "3/2", "--mu", "1/3,1/3,1/3", "--H", "300"]


@pytest.mark.parametrize("argv, derived, built", [
    (["arcs", *_INSTANCE_FLAGS, "--mode", "exact"], 1, 1),
    (["arcs", *_INSTANCE_FLAGS, "--mode", "model"], 1, 1),
    (["expsum", *_INSTANCE_FLAGS, "--kind", "Sc_integral", "--alpha-grid", "0:0.5:3"], 1, 0),
    (["sweep", "--c", "3/2", "--mu", "1/3,1/3,1/3", "--N-list", "1000,2000,5000"], 3, 3),
], ids=["arcs-exact", "arcs-model", "expsum", "sweep"])
def test_commands_derive_and_sieve_once_per_instance(argv, derived, built, capsys, monkeypatch):
    # each instance's parameters are derived once and its windows built once
    derive_calls = count_calls(monkeypatch, instance, "derive_params")
    window_calls = count_calls(monkeypatch, counting, "build_windows")
    status, _ = run_cli(argv, capsys)
    assert status == 0
    assert (len(derive_calls), len(window_calls)) == (derived, built)


def test_sc_integral_window_at_zero_exit_2(capsys):
    # H = mu3*N is a valid instance, but the integral form's amplitude
    # u^(1/c - 1) is singular at its lower end u = mu3*N - H = 0
    status = main(["expsum", "--N", "99", "--c", "3/2", "--mu", "1/3,1/3,1/3", "--H", "33",
                   "--kind", "Sc_integral", "--alpha-grid", "0.1:0.5:2"])
    captured = capsys.readouterr()
    assert status == 2 and captured.out == ""
    assert captured.err == "error: mu3*N - H must be > 0 for the integral form of S_c, got 0\n"


def test_consecutive_calls_match_fresh_processes(capsys):
    # non-default flags first, then defaults: a flag value kept by the shared
    # parser would change a later call's output
    calls = [
        ["count", "--N", "1000", "--c", "5/3", "--mu", "1/3,1/3,1/3", "--H", "100",
         "--method", "brute", "--format", "csv"],
        ["arcs", "--N", "500", "--c", "3/2", "--mu", "1/3,1/3,1/3", "--H", "100",
         "--mode", "model", "--tol", "1e-7"],
        ["count", "--N", "12", "--c", "3/2", "--mu", "1/4,1/4,1/2", "--H", "3"],
    ]
    for args in calls:
        status, out = run_cli(args, capsys)
        fresh = subprocess.run(
            [sys.executable, "-m", "estermann", *args], capture_output=True, text=True
        )
        assert status == fresh.returncode == 0
        assert out == fresh.stdout


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_out_file_ends_in_newline(fmt, tmp_path, capsys):
    # --out gets the text stdout gets, final newline included
    args = ["count", "--N", "12", "--c", "3/2", "--mu", "1/4,1/4,1/2", "--H", "3",
            "--format", fmt]
    out_path = tmp_path / f"count.{fmt}"
    status, printed = run_cli(args, capsys)
    status_out, nothing = run_cli(args + ["--out", str(out_path)], capsys)
    assert status == status_out == 0 and nothing == ""
    written = out_path.read_text()
    assert printed.endswith("\n") and written.endswith("\n")
    if fmt == "csv":
        assert written == printed
    else:
        assert json.loads(written)["config"]["out"] == str(out_path)


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


# mu_k N <= 1 for k = 1 or 2: ln(mu_k N) <= 0, and at N = 1 and 2 also ln N
# or ln ln N.  Each must exit 2 with one message, not a traceback.
SMALL_CENTRE_CASES = [(1, "1/3,1/3,1/3"), (2, "1/3,1/3,1/3"), (3, "1/3,1/3,1/3"),
                      (4, "1/4,1/4,1/2")]


@pytest.mark.parametrize("N, mu", SMALL_CENTRE_CASES)
@pytest.mark.parametrize("mode", ["exact", "model"])
def test_arcs_small_centres_exit_2(N, mu, mode, capsys):
    status = main(["arcs", "--N", str(N), "--c", "3/2", "--mu", mu, "--H", "0", "--mode", mode])
    assert status == 2
    assert "mu_k N > 1, k = 1, 2" in capsys.readouterr().err


@pytest.mark.parametrize("N, mu", SMALL_CENTRE_CASES)
def test_sweep_small_centres_exit_2(N, mu, capsys):
    # --H-exponent 0 gives H = 1, which is wider than the windows at N = 1, 2
    status = main(["sweep", "--N-list", str(N), "--c", "3/2", "--mu", mu, "--H-exponent", "0"])
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert ("mu_k N > 1, k = 1, 2" in err) == (N > 2)


@pytest.mark.parametrize("N, mu", [(3, "1/3,1/3,1/3"), (2, "1/4,1/4,1/2")])
def test_expsum_prime_approx_small_centre_exit_2(N, mu, capsys):
    # mu1 N = 1 divided by ln 1 = 0; mu1 N = 1/2 scaled the rows by ln(1/2) < 0
    status = main(["expsum", "--N", str(N), "--c", "3/2", "--mu", mu, "--H", "0",
                   "--kind", "prime_approx", "--alpha-grid", "0:0.5:2"])
    assert status == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "mu_k N > 1" in err


def test_mem_mb_counts_megabytes(capsys):
    # fast_count flags window 2 in one byte per integer: a span of 1200000
    # bytes is more than 1 MB (2^20 bytes) and less than 2 MB, so 1 MB must
    # not admit it and 2 MB must
    args = ["count", "--N", "4000000", "--c", "5/2", "--mu", "1/3,1/3,1/3", "--H", "600000"]
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
    for c, mu in (("1.414", "1/3,1/3,1/3"), ("3/0", "1/3,1/3,1/3"), ("3/2", "1/3,1/0,1/3")):
        status = main(["count", "--N", "100", "--c", c, "--mu", mu, "--H", "5"])
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("where", ["missing/x.json", "."])
def test_unwritable_out_exits_2(where, tmp_path, capsys):
    out = tmp_path / where
    status = main(["count", "--N", "100", "--c", "3/2", "--mu", "1/3,1/3,1/3", "--H", "5",
                   "--out", str(out)])
    assert status == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and "Traceback" not in err
    assert err.startswith(f"error: cannot write --out {out}")


def test_unwritable_out_exits_before_the_work(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the count ran although --out cannot be written")

    monkeypatch.setattr(cli, "fast_count", never)
    out = tmp_path / "missing" / "x.json"
    status = main(["count", "--N", "10000000", "--c", "3/2", "--mu", "1/3,1/3,1/3",
                   "--H", "398108", "--out", str(out)])
    assert status == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write --out {out}")


def test_failed_command_leaves_out_as_it_was(tmp_path, capsys):
    args = ["count", "--N", "100", "--c", "1.41", "--mu", "1/3,1/3,1/3", "--H", "5", "--out"]
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_text("kept\n")
    assert main([*args, str(new)]) == 2 and not new.exists()
    assert main([*args, str(old)]) == 2 and old.read_text() == "kept\n"


def test_determinism_byte_identical(tmp_path, capsys):
    args = ["expsum", "--kind", "Sc", "--N", "50000", "--c", "5/2",
            "--mu", "1/4,1/4,1/2", "--H", "800", "--alpha-grid", "0:0.4:101"]
    s1, out1 = run_cli(args, capsys)
    s2, out2 = run_cli(args, capsys)
    assert s1 == s2 == 0
    assert out1 == out2


def test_prime_cache_env_writes_nothing(tmp_path):
    # the variable is not read: no file appears and no output byte changes
    args = [sys.executable, "-m", "estermann", "count", "--N", "1000", "--c", "3/2",
            "--mu", "1/3,1/3,1/3", "--H", "100"]
    env = dict(os.environ, ESTERMANN_CACHE=str(tmp_path / "primes.bin"))
    env_without = {k: v for k, v in os.environ.items() if k != "ESTERMANN_CACHE"}
    with_var = subprocess.run(args, capture_output=True, env=env)
    without = subprocess.run(args, capture_output=True, env=env_without)
    assert with_var.returncode == without.returncode == 0
    assert with_var.stdout == without.stdout
    assert os.listdir(tmp_path) == []


INSTANCE = ["--N", "100", "--c", "3/2", "--mu", "1/3,1/3,1/3", "--H", "5"]
BASE_ARGS = {
    "count": ["count", *INSTANCE],
    "arcs": ["arcs", *INSTANCE],
    "expsum": ["expsum", *INSTANCE, "--kind", "Sc", "--alpha-grid", "0:0.1:3"],
    "verify": ["verify", "--quick"],
    "sweep": ["sweep", "--N-list", "10000", "--c", "3/2", "--mu", "1/3,1/3,1/3"],
}
FLAG_VALUES = {"--tol": "1e-6", "--threads": "1", "--mem-mb": "2048", "--out": "unused.out",
               "--format": "json", "--N": "5", "--H": "5", "--meth": "brute", "--mo": "model",
               "--alpha": "0:0.1:3", "--H-exp": "0.7"}


# Flags the command does not read, then abbreviations of flags it does read.
# sweep --N and --H would be read as --N-list and --H-exponent if argparse
# accepted abbreviations.
@pytest.mark.parametrize(
    "command,flag",
    [("count", "--tol"), ("arcs", "--format")]
    + [("expsum", f) for f in ("--tol", "--threads", "--mem-mb", "--format")]
    + [("verify", f) for f in ("--tol", "--threads", "--mem-mb", "--out", "--format")]
    + [("sweep", f) for f in ("--N", "--H", "--threads", "--format")]
    + [("count", "--meth"), ("arcs", "--mo"), ("expsum", "--alpha"), ("sweep", "--H-exp")],
)
def test_unread_or_abbreviated_flag_exit_2(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*BASE_ARGS[command], flag, FLAG_VALUES[flag]])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def _bench_config(command, H):
    return {
        "H": H, "H_exponent": 0.8, "N": 2000, "N_list": None, "alpha_grid": None,
        "c": "5/3", "command": command, "format": "json", "kind": None, "mem_mb": 2048,
        "method": "fast", "mode": "exact", "mu": "1/4,1/4,1/2", "out": None,
        "quick": False, "threads": 1, "tol": 1e-06,
    }


@pytest.mark.parametrize(
    "command,H,extra",
    [("count", 438, []), ("arcs", 205, ["--mode", "exact", "--tol", "1e-06"])],
)
def test_benchmark_argv_accepted(command, H, extra, capsys):
    # the argv perfbench/workloads.py builds for count-large and arcs-exact
    args = [command, "--N", "2000", "--c", "5/3", "--mu", "1/4,1/4,1/2", "--H", str(H),
            *extra, "--threads", "1", "--mem-mb", "2048"]
    status, out = run_cli(args, capsys)
    assert status == 0
    assert json.loads(out)["config"] == _bench_config(command, H)


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


# Run in a fresh interpreter: modules this test process has imported would
# otherwise show up in sys.modules.
_IMPORT_FOOTPRINT = """
import io, json, sys
from contextlib import redirect_stdout

def heavy():
    return sorted(m for m in ("mpmath", "numpy.polynomial", "numpy.random") if m in sys.modules)

status, seen, docs = {}, {}, {}

def run(name, argv):
    out = io.StringIO()
    with redirect_stdout(out):
        status[name] = estermann.cli.main(argv)
    seen[name] = heavy()
    return out.getvalue()

import estermann
seen["import estermann"] = heavy()
import estermann.cli
seen["import estermann.cli"] = heavy()
instance = ["--N", "10000", "--c", "3/2", "--mu", "1/3,1/3,1/3", "--H", "500"]
docs["count"] = json.loads(run("count", ["count", *instance]))
for mode in ("exact", "model"):
    docs[mode] = json.loads(run(f"arcs {mode}", ["arcs", *instance, "--mode", mode]))
run("sweep", ["sweep", "--N-list", "1000,10000", "--c", "3/2", "--mu", "1/3,1/3,1/3"])
for kind in estermann.cli.EXPSUM_KINDS:
    run(f"expsum {kind}", ["expsum", *instance, "--kind", kind, "--alpha-grid", "0:0.5:5"])
estermann.singular_integral_J(10 ** 4, 0.01)
seen["singular_integral_J"] = heavy()
run("verify --quick", ["verify", "--quick"])
print(json.dumps({"seen": seen, "status": status, "count": docs["count"]["total"],
                  "arcs": [docs[m]["exact_total"] for m in ("exact", "model")],
                  "kappa": [docs[m]["kappa"] for m in ("exact", "model")]}))
"""


def test_count_loads_neither_mpmath_nor_numpy_random():
    # count, arcs (both modes), sweep, every expsum kind and
    # singular_integral_J load none of mpmath, numpy.polynomial and
    # numpy.random; verify is the one command that needs mpmath
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_FOOTPRINT],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    runs = ["count", "arcs exact", "arcs model", "sweep"]
    runs += [f"expsum {kind}" for kind in cli.EXPSUM_KINDS]
    assert doc["seen"] == {
        "import estermann": [],
        "import estermann.cli": [],
        **{name: [] for name in runs},
        "singular_integral_J": [],
        "verify --quick": ["mpmath"],
    }
    assert doc["status"] == {name: 0 for name in runs + ["verify --quick"]}
    assert doc["count"] == 564 and doc["arcs"] == [564, 564]
    inst = build_instance(10 ** 4, "3/2", ("1/3", "1/3", "1/3"), 500)
    assert doc["kappa"] == [instance.derive_params(inst).kappa] * 2
