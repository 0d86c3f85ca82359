import argparse
import ast
import contextlib
import csv
import inspect
import io
import json
import math
import os
import resource
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schlicht import _kernels, cli, suites
from schlicht import legendre as lg
from schlicht import univalent as uv
from schlicht import weinstein as ws
from schlicht.errors import NonFiniteCoefficients, TrajectoryEscaped
from schlicht.report import BoundReport
from schlicht.series import PowerSeries


def run_cli(*args):
    """Run the CLI in this process, with the exit code a CLI process would give.

    Any exception other than SystemExit propagates and fails the test: a
    process would print a traceback and exit 1.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(args))
        except SystemExit as exc:  # argparse rejected the argv
            rc = exc.code
    return SimpleNamespace(returncode=rc, stdout=out.getvalue(), stderr=err.getvalue())


def test_module_entry_point_in_a_process():
    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "schlicht.cli", *args], capture_output=True, text=True
        )

    proc = run("table", "--kind", "legendre", "--n", "2")
    assert proc.returncode == 0
    assert proc.stdout.startswith("degree,x^0,x^1,x^2\n")
    proc = run("verify", "--suite", "milin", "--n", "3", "--function", "koebe-rot:abc")
    assert proc.returncode == 3
    assert proc.stderr.startswith("numeric error: ") and "Traceback" not in proc.stderr


def test_a_non_finite_angle_is_refused_before_any_arithmetic():
    # one line on stderr: no NumPy RuntimeWarning block comes before it
    proc = subprocess.run(
        [sys.executable, "-m", "schlicht.cli", "verify", "--suite", "milin", "--n", "3",
         "--function", "koebe-rot:inf"],
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stderr) == (
        3, "numeric error: malformed function 'koebe-rot:inf': the angle must be finite\n"
    )


def _fresh_python(code, **env):
    """stdout of code in a fresh interpreter; OPENBLAS_NUM_THREADS is unset unless given."""
    full = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    full.update(env)
    proc = subprocess.run([sys.executable, "-c", code], env=full, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_importing_the_package_loads_no_numpy():
    assert _fresh_python("import sys, schlicht; print('numpy' in sys.modules)") == "False"


def test_the_cli_sets_one_openblas_thread():
    code = "import os, schlicht.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _fresh_python(code) == "1"


def test_the_cli_keeps_the_users_openblas_thread_count():
    code = "import os, schlicht.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _fresh_python(code, OPENBLAS_NUM_THREADS="2") == "2"


def test_the_cli_process_runs_one_thread():
    if not sys.platform.startswith("linux"):
        pytest.skip("only Linux lists a process's threads in /proc/self/task")
    code = (
        "import os, schlicht.cli, numpy\n"
        "tasks = len(os.listdir('/proc/self/task'))\n"
        "try:\n"
        "    blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']['name']\n"
        "except Exception:\n"
        "    blas = 'unknown'\n"
        "print(tasks, blas)"
    )
    tasks, blas = _fresh_python(code).split(maxsplit=1)
    if "openblas" not in blas.lower():
        pytest.skip(f"NumPy's BLAS is {blas}, not OpenBLAS, which alone reads OPENBLAS_NUM_THREADS")
    assert tasks == "1"


_GATE = "cli.main(['verify', '--suite', 'all', '--seed', '1', '--out', os.devnull])"


def test_the_gate_never_imports_numpy_random():
    # the seeded suites draw from random.Random, whose stream no NumPy release changes
    code = (
        f"import os, sys; from schlicht import cli; rc = {_GATE}; "
        "print(rc, 'numpy.random' in sys.modules)"
    )
    assert _fresh_python(code) == "0 False"


def test_only_the_trace_imports_orjson():
    # orjson's import (with zoneinfo) costs milliseconds that gate and decompose need not pay
    code = (
        "import os, sys; from schlicht import cli; seen = ['orjson' in sys.modules]; "
        f"rc = {_GATE}; seen.append('orjson' in sys.modules); "
        "rc += cli.main(['weinstein', 'decompose', '--n', '20', '--out', os.devnull]); "
        "seen.append('orjson' in sys.modules); "
        "rc += cli.main(['loewner', 'trace', '--T', '0.1', '--step', '1e-2', '--out', os.devnull]); "
        "print(rc, *seen, 'orjson' in sys.modules)"
    )
    assert _fresh_python(code) == "0 False False False True"


def test_the_gate_and_a_wide_trace_never_fork():
    code = (
        "import os\n"
        "forks, fork = [], os.fork\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "from schlicht import cli\n"
        f"rc = {_GATE}\n"
        "trace = ['loewner', 'trace', '--grid', 'polar:64x64', '--T', '1', '--out', os.devnull]\n"
        "rc += cli.main(trace)\n"
        "print(rc, len(forks))"
    )
    assert _fresh_python(code) == "0 0"


def test_verify_pass_exit_zero(tmp_path):
    out = tmp_path / "rep.json"
    proc = run_cli("verify", "--suite", "area", "--seed", "7", "--out", str(out))
    assert proc.returncode == 0
    data = json.loads(out.read_text())
    assert data["pass"] is True
    assert data["seed"] == 7
    assert data["suites"][0]["suite"] == "area"


def test_verify_report_written_even_on_failure(tmp_path):
    out = tmp_path / "milin.json"
    proc = run_cli(
        "verify", "--suite", "milin", "--n", "2", "--function", "coeffs:[0,1,3]",
        "--out", str(out),
    )
    assert proc.returncode == 1  # a_2 = 3 is not univalent: the check honestly fails
    data = json.loads(out.read_text())
    assert data["pass"] is False


@pytest.fixture
def raised_a2(monkeypatch):
    """Every from_quotient map with a_2 raised by 1e-6, a fault in the chain."""
    exact = uv.from_quotient

    def raised(*args):
        c = exact(*args).coeffs.copy()
        c[2:3] += 1e-6  # an order-1 map has no a_2
        return uv.ClassSFunction(PowerSeries(c))

    monkeypatch.setattr(uv, "from_quotient", raised)


def test_a_chain_fault_fails_the_log_coefficient_case(raised_a2):
    report = suites.run_suite("loewner")[0]
    assert "koebe-chain-log-coeffs" in {case.id for case in report.failures}


def test_a_chain_fault_exits_one_with_the_report(tmp_path, raised_a2):
    out = tmp_path / "loewner.json"
    proc = run_cli("verify", "--suite", "loewner", "--out", str(out))
    assert proc.returncode == 1
    data = json.loads(out.read_text())
    assert data["pass"] is False
    assert len(data["suites"][0]["cases"]) == 37


@pytest.fixture
def scaled_legendre(monkeypatch):
    """Every row of the Legendre recurrence scaled by 1 + 1e-5, a fault in P_n."""
    exact = lg._seminormalized_rows

    def scaled(*args):
        for row in exact(*args):
            yield row * (1.0 + 1e-5)

    monkeypatch.setattr(lg, "_seminormalized_rows", scaled)


def test_a_legendre_fault_fails_the_schlafli_case(scaled_legendre):
    report = suites.run_suite("legendre")[0]
    assert "schlafli-vs-polynomial" in {case.id for case in report.failures}


def test_a_legendre_fault_exits_one_with_the_report(tmp_path, scaled_legendre):
    out = tmp_path / "gate.json"
    proc = run_cli("verify", "--suite", "all", "--seed", "1", "--out", str(out))
    assert proc.returncode == 1, proc.stderr
    data = json.loads(out.read_text())
    assert data["pass"] is False
    assert sum(len(s["cases"]) for s in data["suites"]) == 277


_PAIRING_FAULTS = {
    "scaled": (lambda a: a * (1.0 + 1e-9), "identity", "decomposition-identity-relative"),
    "bumped": (lambda a: a + 1e-9, "koebe", "decomposition-koebe-rhs-limit"),
}


@pytest.mark.parametrize("fault", sorted(_PAIRING_FAULTS))
def test_a_pairing_fault_fails_the_decomposition(tmp_path, monkeypatch, fault):
    # the one A_k of the chain reaches both verdicts: the command's and the gate's
    perturb, function, case = _PAIRING_FAULTS[fault]
    exact = ws.a_k_pairing
    monkeypatch.setattr(ws, "a_k_pairing", lambda *args: perturb(exact(*args)))
    proc = run_cli("weinstein", "decompose", "--function", function, "--n", "20")
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)["pass"] is False
    out = tmp_path / "gate.json"
    proc = run_cli("verify", "--suite", "all", "--seed", "1", "--out", str(out))
    assert proc.returncode == 1, proc.stderr
    data = json.loads(out.read_text())
    assert sum(len(s["cases"]) for s in data["suites"]) == 277
    weinstein = next(s for s in data["suites"] if s["suite"] == "weinstein")
    assert not next(c for c in weinstein["cases"] if c["id"] == case)["pass"]


def test_an_escaping_rk4_step_is_a_numeric_error(monkeypatch):
    # every stage moves the state by 1e3 h: the first step leaves the disk
    monkeypatch.setattr(_kernels, "_rhs", lambda y, kap: np.full_like(y, 1e3))
    proc = run_cli("verify", "--suite", "loewner")
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", "numeric error: escaped\n")


def test_decompose_exact_at_n_20(tmp_path):
    for function, exact in (("koebe", 0.0), ("identity", None)):
        out = tmp_path / f"{function}.json"
        proc = run_cli("weinstein", "decompose", "--function", function, "--n", "20",
                       "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        data = json.loads(out.read_text())
        assert set(data) == {"n", "lhs", "rhs_extrapolated", "min_g", "nodes", "pass"}
        exact = data["lhs"] if exact is None else exact
        assert abs(data["rhs_extrapolated"] - exact) <= 1e-10 * max(abs(exact), 1.0)
        assert data["pass"] is True



def test_decompose_reads_the_chain_from_the_name():
    # a rotated Koebe map decomposes too: lhs and rhs both vanish
    proc = run_cli("weinstein", "decompose", "--function", "koebe-rot:2.5", "--n", "20")
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert abs(data["rhs_extrapolated"]) <= 1e-10 and data["pass"] is True
    # a coefficient list names no chain
    proc = run_cli("weinstein", "decompose", "--function", "coeffs:[0,1]", "--n", "3")
    assert (proc.returncode, proc.stderr) == (
        3, "numeric error: no chain construction for 'coeffs:[0,1]'\n"
    )


def test_an_unwritable_out_is_a_usage_error(tmp_path):
    out = str(tmp_path / "missing" / "y.json")
    for argv in (
        ("verify", "--suite", "robertson", "--out", out),
        ("weinstein", "decompose", "--n", "3", "--out", out),
    ):
        proc = run_cli(*argv)
        assert (proc.returncode, proc.stderr) == (
            2, f"error: cannot write {out}: No such file or directory\n"
        ), argv

def test_decompose_n_zero_is_usage_error():
    proc = run_cli("weinstein", "decompose", "--n", "0")
    assert proc.returncode == 2
    assert "must be >= 1" in proc.stderr


def test_decompose_negative_n_is_usage_error():
    proc = run_cli("weinstein", "decompose", "--n", "-2")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def test_decompose_horizon_flag_is_gone():
    # the time integral is exact, so there is no horizon to set
    proc = run_cli("weinstein", "decompose", "--T", "8")
    assert proc.returncode == 2


def test_decompose_unregistered_function_is_numeric_error():
    # const: names a driving, not a registry subject, so the registry refuses
    # it before any chain is built
    proc = run_cli("weinstein", "decompose", "--function", "const:-1", "--n", "3")
    assert proc.returncode == 3
    assert "unknown function name 'const:-1'" in proc.stderr


def test_radius_flag_is_gone():
    # flags that never reached a check are deleted: --radius (the weinstein
    # ladder is fixed, its limit exact), the single-case --tol/--quad/--order,
    # --config on every subcommand, the ignored table --seed and --quick (the
    # numeric chain's limit is exact, so the full suite is already fast)
    for argv in (
        ("verify", "--suite", "weinstein", "--radius", "0.9"),
        ("verify", "--suite", "all", "--quick"),
        ("verify", "--suite", "milin", "--n", "3", "--tol", "0.5"),
        ("verify", "--suite", "milin", "--n", "3", "--quad", "64"),
        ("verify", "--suite", "milin", "--n", "3", "--order", "80"),
        ("verify", "--suite", "area", "--config", "cfg.json"),
        ("table", "--kind", "legendre", "--config", "cfg.json"),
        ("table", "--kind", "legendre", "--seed", "1"),
        ("loewner", "trace", "--config", "cfg.json"),
        ("weinstein", "lambda", "--t", "0.5", "--k", "1", "--config", "cfg.json"),
        ("weinstein", "decompose", "--config", "cfg.json"),
    ):
        proc = run_cli(*argv)
        assert proc.returncode == 2, argv
        assert "unrecognized arguments" in proc.stderr, argv
        assert "Traceback" not in proc.stderr, argv


def _subcommand_parsers(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield sub
                yield from _subcommand_parsers(sub)


def test_every_flag_is_read():
    # a flag its subcommand's handler never reads is a knob that reaches no check
    unread = []
    for sub in _subcommand_parsers(cli.build_parser()):
        handler = sub.get_default("func")
        source = inspect.getsource(handler) if handler else ""
        unread += [
            (sub.prog, action.option_strings[0])
            for action in sub._actions
            if action.option_strings
            and not isinstance(action, argparse._HelpAction)
            and f"args.{action.dest}" not in source
        ]
    assert unread == []


def test_suites_take_only_seed():
    # run_suite passes nothing else, so any other parameter is a knob no caller sets
    for name, fnc in suites.SUITES.items():
        params = set(inspect.signature(fnc).parameters)
        assert params == ({"seed"} if name in suites.SEEDED else set()), name
    assert list(inspect.signature(suites.run_suite).parameters) == ["name", "seed"]


def test_malformed_text_exits_without_traceback():
    trace = ("loewner", "trace", "--out", "-")
    for code, argv in (
        (2, trace + ("--grid", "polar:ax3")),
        (2, trace + ("--grid", "polar:3")),
        (2, trace + ("--grid", "points:bad")),
        (2, trace + ("--grid", "points:[[1]]")),
        (2, trace + ("--grid", "polar:3x-1")),
        (2, trace + ("--grid", "points:[[0.1,0.2,0.3]]")),
        (2, trace + ("--grid", "points:{}")),
        (2, trace + ("--kappa", "steps:[[0,[1,0,5]]]")),
        (2, trace + ("--kappa", "const:abc")),
        (2, trace + ("--kappa", "steps:oops")),
        (2, trace + ("--kappa", "steps:[[0]]")),
        (2, trace + ("--step", "0")),
        (2, trace + ("--step", "nan")),
        (2, trace + ("--step", "-0.001")),
        (2, trace + ("--T", "nan")),
        (2, trace + ("--T", "inf")),
        (2, trace + ("--T", "-1")),
        (3, ("verify", "--suite", "milin", "--n", "3", "--function", "koebe-rot:abc")),
        (3, ("table", "--kind", "coefficients", "--function", "coeffs:[0,1")),
    ):
        proc = run_cli(*argv)
        assert proc.returncode == code, argv
        assert "Traceback" not in proc.stderr, argv


def test_verify_n_zero_is_usage_error():
    proc = run_cli("verify", "--suite", "robertson", "--n", "0")
    assert proc.returncode == 2
    assert "must be >= 1" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_nan_t_is_usage_error():
    proc = run_cli("verify", "--suite", "weinstein", "--n", "3", "--t", "nan")
    assert proc.returncode == 2
    assert "must be finite and >= 0" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_n_needs_single_case_suite():
    proc = run_cli("verify", "--suite", "bounds", "--n", "3")
    assert proc.returncode == 2
    assert "--n needs a suite" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_single_case_flags_need_n():
    for flag, value in (("--function", "identity"), ("--t", "0.5")):
        proc = run_cli("verify", "--suite", "milin", flag, value)
        assert proc.returncode == 2, flag
        assert "need --n" in proc.stderr, flag
        assert "Traceback" not in proc.stderr, flag


def test_verify_t_needs_weinstein_suite():
    proc = run_cli("verify", "--suite", "milin", "--n", "3", "--t", "0.5")
    assert proc.returncode == 2
    assert "--t needs --suite weinstein" in proc.stderr


def test_verify_function_with_weinstein_is_usage_error():
    # the weinstein single case checks the universal kernel; no subject enters
    proc = run_cli("verify", "--suite", "weinstein", "--n", "5", "--function", "identity")
    assert proc.returncode == 2
    assert "--function does not apply to --suite weinstein" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_focus_weinstein_n_40_passes():
    proc = run_cli("verify", "--suite", "weinstein", "--n", "40")
    assert proc.returncode == 0, proc.stdout
    cases = {c["id"]: c for c in json.loads(proc.stdout)["suites"][0]["cases"]}
    assert cases["oracle-discrepancy"]["lhs"] <= 1e-12


def test_verify_focus_weinstein_past_the_route_range_is_numeric_error():
    proc = run_cli("verify", "--suite", "weinstein", "--n", "501")
    assert proc.returncode == 3
    assert "squared-Legendre route takes N in 0..500, got 501" in proc.stderr


def test_verify_milin_n_500_passes():
    # the single-case order grows with --n instead of stopping at 64
    proc = run_cli("verify", "--suite", "milin", "--n", "500")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["pass"] is True


def test_weinstein_lambda_negative_index_is_usage_error():
    for flag in ("--N", "--k"):
        proc = run_cli("weinstein", "lambda", "--t", "0.5", "--k", "1", flag, "-3")
        assert proc.returncode == 2
        assert "must be >= 0" in proc.stderr


def test_unknown_suite_is_usage_error():
    proc = run_cli("verify", "--suite", "nope")
    assert proc.returncode == 2


def test_bad_flag_is_usage_error():
    proc = run_cli("verify", "--nonsense")
    assert proc.returncode == 2


def test_numeric_error_exit_three():
    # step size above the solver's limit trips the numeric-error path
    proc = run_cli(
        "loewner", "trace", "--kappa", "const:-1", "--T", "1", "--step", "0.5",
        "--grid", "polar:2x2", "--out", "-",
    )
    assert proc.returncode == 3


def test_an_overflowing_subject_is_a_numeric_error():
    # a_2 = 1e160 overflows the subject's log, square-root or reciprocal
    # series: a numeric error (exit 3), not a crash (exit 1); at n = 1 the
    # milin and lebedev-milin series stay finite and their sums overflow, so
    # the report rejects the case, and with a_2 = 1e100 the lebedev-milin
    # exponential overflows
    finite = "numeric error: coefficients must be finite\n"
    for suite, n, subject, stderr in (
        *((suite, "3", "coeffs:[0,1,1e160]", finite)
          for suite in ("milin", "robertson", "area", "lebedev-milin")),
        ("milin", "1", "coeffs:[0,1,1e160]",
         "numeric error: case M_1(coeffs:[0,1,1e160]) is not finite: lhs = inf, rhs = 1e-09\n"),
        ("robertson", "1", "coeffs:[0,1,1e160]", finite),
        ("area", "1", "coeffs:[0,1,1e160]", finite),
        ("lebedev-milin", "1", "coeffs:[0,1,1e160]",
         "numeric error: case lebedev-milin_1(coeffs:[0,1,1e160]) is not finite: "
         "lhs = inf, rhs = inf\n"),
        ("lebedev-milin", "1", "coeffs:[0,1,1e100]",
         "numeric error: case lebedev-milin_1(coeffs:[0,1,1e100]) is not finite: "
         "lhs = 2.5e+199, rhs = inf\n"),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no NumPy warning comes before the error
            proc = run_cli(
                "verify", "--suite", suite, "--n", n, "--function", subject, "--out", os.devnull,
            )
        assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", stderr), (suite, n)
    # an angle so large that m theta overflows: the series is not finite,
    # with no NumPy warning before the error, under each command
    for argv in (
        ("verify", "--suite", "milin", "--n", "3", "--out", os.devnull),
        ("weinstein", "decompose", "--n", "20", "--out", os.devnull),
        ("table", "--kind", "coefficients", "--out", os.devnull),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            proc = run_cli(*argv, "--function", "koebe-rot:1e308")
        assert (proc.returncode, proc.stderr) == (
            3, "numeric error: coefficients must be finite\n"
        ), argv
    # a subject that is not finite to begin with is a malformed name
    proc = run_cli("table", "--kind", "coefficients", "--function", "coeffs:[0,1,1e400]")
    assert (proc.returncode, proc.stderr) == (
        3, "numeric error: malformed function 'coeffs:[0,1,1e400]': coefficients must be finite\n"
    )


def test_trace_nan_grid_point_is_numeric_error(tmp_path):
    out = tmp_path / "nan.csv"
    proc = run_cli(
        "loewner", "trace", "--kappa", "const:-1", "--T", "0.1", "--step", "1e-2",
        "--grid", "points:[[NaN,0],[0.5,0]]", "--samples", "1", "--out", str(out),
    )
    assert proc.returncode == 3
    assert "|z| < 1" in proc.stderr
    assert not out.exists()


def test_table_legendre_negative_n_is_usage_error():
    proc = run_cli("table", "--kind", "legendre", "--n", "-1")
    assert proc.returncode == 2
    assert "must be >= 0" in proc.stderr


def test_table_lambda_negative_index_is_usage_error():
    for flag in ("--n", "--k"):
        proc = run_cli("table", "--kind", "lambda", flag, "-2")
        assert proc.returncode == 2, flag
        assert "must be >= 0" in proc.stderr


def test_table_coefficients_negative_n_is_usage_error():
    proc = run_cli("table", "--kind", "coefficients", "--n", "-1")
    assert proc.returncode == 2
    assert "must be >= 0" in proc.stderr


def test_table_coefficients_n_zero_is_usage_error():
    proc = run_cli("table", "--kind", "coefficients", "--n", "0")
    assert proc.returncode == 2
    assert "needs --n >= 1" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_table_legendre_past_max_degree_is_usage_error():
    for n in ("65", "100"):
        proc = run_cli("table", "--kind", "legendre", "--n", n)
        assert proc.returncode == 2, n
        assert "needs --n <= legendre.MAX_DEGREE = 64" in proc.stderr


def test_table_legendre_rejects_the_flags_it_does_not_read():
    for flag, value in (("--k", "3"), ("--t", "9"), ("--function", "identity")):
        proc = run_cli("table", "--kind", "legendre", flag, value)
        assert proc.returncode == 2, flag
        assert f"{flag} does not apply to --kind legendre" in proc.stderr


def test_table_lambda_rejects_the_flags_it_does_not_read():
    proc = run_cli("table", "--kind", "lambda", "--function", "identity")
    assert proc.returncode == 2
    assert "--function does not apply to --kind lambda" in proc.stderr


def test_table_coefficients_rejects_the_flags_it_does_not_read():
    for flag, value in (("--k", "2"), ("--t", "0.5")):
        proc = run_cli("table", "--kind", "coefficients", flag, value)
        assert proc.returncode == 2, flag
        assert f"{flag} does not apply to --kind coefficients" in proc.stderr


def test_table_lambda_negative_t_is_usage_error():
    proc = run_cli("table", "--kind", "lambda", "--t", "-1")
    assert proc.returncode == 2
    assert "must be finite and >= 0" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_trace_zero_samples_is_usage_error():
    proc = run_cli("loewner", "trace", "--T", "0.1", "--step", "1e-2", "--samples", "0",
                   "--grid", "polar:1x1", "--out", "-")
    assert proc.returncode == 2
    assert "must be >= 1" in proc.stderr
    assert "Traceback" not in proc.stderr


def _trace_in_a_process(*args, preexec_fn=None):
    # a process with a timeout, so that a search that does not end fails
    return subprocess.run(
        [sys.executable, "-m", "schlicht.cli", "loewner", "trace", *args, "--out", "-"],
        capture_output=True, text=True, timeout=60, preexec_fn=preexec_fn,
    )


def _two_gib_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))


def test_trace_of_a_prime_step_count_is_refused_before_it_allocates():
    # 1,000,000,007 steps have no divisor but 1 below steps // 16, so every
    # step would be stored: 7.45 GiB of step indices alone.  In 2 GiB of
    # address space the solve must refuse it, not run out of memory.
    proc = _trace_in_a_process(
        "--T", "1.000000007", "--step", "1e-9", "--grid", "polar:1x1",
        preexec_fn=_two_gib_address_space,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == (
        "numeric error: 1000000008 stored times x 1 points exceed 16777216 states "
        "(a stride of 1 of 1000000007 steps)\n"
    )


def test_trace_checks_the_step_before_it_seeks_a_stride():
    # 2e11 steps of 1: the solve rejects the step before any stride search
    proc = _trace_in_a_process("--T", "200000000006", "--step", "1")
    assert proc.returncode == 3
    assert proc.stderr == "numeric error: step size must satisfy 0 < h <= 1e-2\n"


@pytest.mark.parametrize(
    "args, rows",
    [
        (("--T", "8", "--step", "1e-9"), 17),
        (("--T", "7.999993", "--step", "1e-9", "--samples", "3"), 5),
    ],
    ids=["8e9-steps", "7999993000-steps"],
)
def test_trace_at_a_tiny_step_stores_only_its_rows(args, rows):
    # the solve maps the driving's pieces, with no array of one entry per step
    proc = _trace_in_a_process(*args, "--grid", "polar:1x1")
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == rows + 1


def test_trace_with_too_many_steps_is_numeric_error():
    proc = run_cli("loewner", "trace", "--T", "8", "--step", "1e-320", "--grid", "polar:1x1",
                   "--out", "-")
    assert proc.returncode == 3
    assert proc.stderr == "numeric error: span 8.0 takes 2^53 or more steps of h = 1e-320\n"


def test_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        proc = run_cli(
            "verify", "--suite", "weinstein", "--seed", "42",
            "--out", str(path),
        )
        assert proc.returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_table_legendre_rows():
    proc = run_cli("table", "--kind", "legendre", "--n", "2")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("degree")
    assert lines[3].split(",")[1:4] == ["-1/2", "0", "3/2"]


def test_table_lambda_pattern():
    proc = run_cli("table", "--kind", "lambda", "--t", "0", "--n", "6", "--k", "0")
    row = proc.stdout.strip().splitlines()[1].split(",")
    assert [float(x) for x in row[1:]] == [1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0]


def test_table_coefficients_koebe():
    proc = run_cli("table", "--kind", "coefficients", "--function", "koebe", "--n", "5")
    rows = [line.split(",") for line in proc.stdout.strip().splitlines()[1:]]
    assert [float(r[1]) for r in rows] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]


def test_table_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        run_cli("table", "--kind", "lambda", "--t", "0.5", "--n", "10", "--out", str(path))
    assert a.read_bytes() == b.read_bytes()


def test_trace_csv(tmp_path):
    out = tmp_path / "trace.csv"
    proc = run_cli(
        "loewner", "trace", "--kappa", "const:-1", "--T", "2", "--step", "1e-3",
        "--grid", "polar:2x4", "--samples", "4", "--out", str(out),
    )
    assert proc.returncode == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,z_re,z_im,f_re,f_im,etf_re,etf_im"
    assert len(lines) == 1 + 5 * 8  # 5 stored times, 8 grid points


@pytest.mark.parametrize("nr, na", [(64, 64), (8, 8), (3, 5), (100, 37), (1, 1), (0, 4)])
def test_polar_grid_is_radius_major_point_by_point(nr, na):
    radii = np.linspace(0.1, 0.8, nr)
    angles = 2 * np.pi * np.arange(na) / na
    want = np.array([r * np.exp(1j * a) for r in radii for a in angles], dtype=complex)
    got = cli._parse_grid(f"polar:{nr}x{na}")
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _trace_csv_oracle(ev):
    """The trace CSV as the per-element csv.writer + repr loop wrote it."""
    rows = []
    scaled = ev.scaled
    for it, t in enumerate(ev.times):
        for iz, z in enumerate(ev.z_grid):
            f = complex(ev.states[it, iz])
            ef = complex(scaled[it, iz])
            z = complex(z)
            rows.append(
                [repr(float(t)), repr(z.real), repr(z.imag), repr(f.real),
                 repr(f.imag), repr(ef.real), repr(ef.imag)]
            )
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["t", "z_re", "z_im", "f_re", "f_im", "etf_re", "etf_im"])
    w.writerows(rows)
    return buf.getvalue()


@pytest.mark.parametrize(
    "kappa, grid",
    [
        ("const:(0.6+0.8j)", "polar:3x5"),
        ("steps:[[0,[1,0]],[0.3,[0,1]],[0.55,[-1,0]],[0.8,[0.6,-0.8]]]", "polar:2x3"),
        ("const:-1", "points:[[0,0],[-0.0,0],[0.2,-0.0],[-0.0,-0.3],[0.3,-0.4]]"),
        # repr writes these in exponent notation, which orjson does not
        ("const:-1", "points:[[1e-300,0],[3e-5,-0.0],[-2e-5,7e-5],[0.5,-1e-300]]"),
    ],
    ids=["const-polar", "steps", "points-signed-zeros", "points-exponent-band"],
)
def test_trace_csv_bytes_match_csv_writer_oracle(tmp_path, monkeypatch, kappa, grid):
    solve, solves = cli.lw.loewner_solve, []

    def recording_solve(*args, **kwargs):
        solves.append(solve(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(cli.lw, "loewner_solve", recording_solve)
    argv = ("loewner", "trace", "--kappa", kappa, "--grid", grid,
            "--T", "1", "--step", "1e-2", "--samples", "4")
    out = tmp_path / "trace.csv"
    assert run_cli(*argv, "--out", str(out)).returncode == 0
    proc = run_cli(*argv, "--out", "-")
    assert proc.returncode == 0
    expected = _trace_csv_oracle(solves[0]).encode()
    assert out.read_bytes() == expected
    assert proc.stdout.encode() == expected


_FLOAT_EDGES = [
    math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
    2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
    *(x for e in (1e-4, 1e16) for x in (math.nextafter(e, 0), e, math.nextafter(e, math.inf))),
    1e15, 1e-5, 0.1, 1.0, 123456789012345.6,
]
_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from(_FLOAT_EDGES),
    st.floats(min_value=1e-5, max_value=1e-3),
    st.floats(min_value=1e15, max_value=1e17),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_FLOATS, max_size=40).map(lambda xs: np.array(xs, dtype=np.float64)))
@example(np.array([], dtype=np.float64))
@example(np.array(_FLOAT_EDGES, dtype=np.float64))
@example(-np.array(_FLOAT_EDGES, dtype=np.float64))
def test_float_texts_is_repr_of_every_float(a):
    assert cli._float_texts(a) == [repr(x) for x in a.tolist()]
    # a strided view, as the real and imaginary parts of a complex array are
    assert cli._float_texts(a.astype(complex).real) == [repr(x) for x in a.tolist()]


def _count_forks(monkeypatch):
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def _here_and_on_one_cpu(run):
    """What run() gives on this process's CPUs, then pinned to one of them."""
    cpus = os.sched_getaffinity(0)
    here = run()
    os.sched_setaffinity(0, {min(cpus)})
    try:
        alone = run()
    finally:
        os.sched_setaffinity(0, cpus)
    return here, alone


def test_trace_bytes_same_split_or_on_one_cpu(tmp_path, monkeypatch):
    # 2,048 points x 1,000 steps, formatted in one process on any affinity
    forks = _count_forks(monkeypatch)
    argv = ("loewner", "trace", "--kappa", "const:(0.6+0.8j)", "--grid", "polar:32x64",
            "--T", "1", "--step", "1e-3", "--samples", "4")

    def run():
        out = tmp_path / "trace.csv"
        assert run_cli(*argv, "--out", str(out)).returncode == 0
        return out.read_bytes()

    here, alone = _here_and_on_one_cpu(run)
    assert not forks
    assert here.count(b"\n") == 1 + 5 * 2048
    assert here == alone


def test_wide_trace_with_a_bad_horizon_fails_before_it_forks(monkeypatch):
    # the solve refuses the horizon before it steps, whatever the grid's size,
    # and the trace never forks
    forks = _count_forks(monkeypatch)
    proc = run_cli("loewner", "trace", "--grid", "polar:64x64", "--T", "25", "--step", "1e-2",
                   "--out", "-")
    assert proc.returncode == 3
    assert proc.stderr == "numeric error: horizon must satisfy 0 <= T - t0 <= 20\n"
    assert not forks


# 21 stored times x 2,048 points
_WIDE_TRACE = ("loewner", "trace", "--kappa", "const:(0.6+0.8j)", "--grid", "polar:32x64",
               "--T", "0.52", "--step", "1e-3", "--samples", "20")


def _trace(tmp_path, argv, out):
    """Exit code, CSV bytes and stderr of a trace, to a file or stdout."""
    if out == "-":
        proc = run_cli(*argv, "--out", "-")
        return proc.returncode, proc.stdout.encode(), proc.stderr
    path = tmp_path / "trace.csv"
    proc = run_cli(*argv, "--out", str(path))
    return proc.returncode, path.read_bytes(), proc.stderr


@pytest.mark.parametrize("out", ["file", "-"])
def test_trace_text_split_bytes_same_split_or_on_one_cpu(tmp_path, out):
    here, alone = _here_and_on_one_cpu(lambda: _trace(tmp_path, _WIDE_TRACE, out))
    assert here[0] == 0 and here[2] == "" and here[1].count(b"\n") == 1 + 21 * 2048
    assert here == alone


# In a 64-point grid, point 5 (front, 0.999) meets kappa = 1 in front_step,
# and point 40 (back, 0.999i) meets kappa = -1j in back_step: kappa f is then
# within 1e-3 of 1, where RK4 at h = 1e-2 overshoots the disk.  The exact
# flow keeps both inside.  Every other step is benign for the whole grid.
_BENIGN = [-0.7071067811865476, 0.7071067811865476]  # e^{3 pi i / 4}


def _steps(front_step=None, back_step=None):
    """A steps: driving for 8 steps of 1e-2, each value from the middle of
    the step before: kappa = 1 in front_step, -1j in back_step."""
    kappa = [_BENIGN] * 8
    if front_step:
        kappa[front_step - 1] = [1, 0]
    if back_step:
        kappa[back_step - 1] = [0, -1]
    return "steps:" + json.dumps([[(s - 0.5) * 1e-2, k] for s, k in enumerate(kappa)])


def _points(front=(0.999, 0.0), back=(0.0, 0.999)):
    rng = np.random.default_rng(5)
    z0 = rng.uniform(0.0, 0.9, 64) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, 64))
    pts = [[z.real, z.imag] for z in z0]
    pts[5], pts[40] = list(front), list(back)
    return "points:" + json.dumps(pts)


_NAN = (3, "", "numeric error: grid points must satisfy |z| < 1\n")
_NEAR_THE_BOUNDARY = {
    # each stored state stays in the disk: exit 0
    "front-only": (_points(), _steps(front_step=5), None),
    "back-only": (_points(), _steps(back_step=3), None),
    "back-first": (_points(), _steps(front_step=5, back_step=2), None),
    "front-first": (_points(), _steps(front_step=2, back_step=5), None),
    # the NaN grid point fails the solve before its first step, in front or
    # in back
    "nan-back-escape-front": (_points(back=(float("nan"), 0.0)), _steps(front_step=3), _NAN),
    "nan-front-escape-back": (_points(front=(float("nan"), 0.0)), _steps(back_step=3), _NAN),
}


# the ids name the half of the grid each planted point was in when the
# trace split its grid; the one-process outcome is now the only one
@pytest.mark.parametrize("case", list(_NEAR_THE_BOUNDARY))
def test_trace_split_failures_give_the_one_process_outcome(case):
    grid, kappa, expected = _NEAR_THE_BOUNDARY[case]
    proc = run_cli("loewner", "trace", "--kappa", kappa, "--grid", grid,
                   "--T", "0.08", "--step", "1e-2", "--out", "-")
    if expected is None:
        assert proc.returncode == 0 and proc.stderr == ""
        rows = np.array([line.split(",") for line in proc.stdout.splitlines()[1:]], dtype=float)
        assert rows.shape == (9 * 64, 7)
        assert np.all(np.hypot(rows[:, 3], rows[:, 4]) < 1.0)
    else:
        assert (proc.returncode, proc.stdout, proc.stderr) == expected


def test_trace_warnings_are_the_one_process_warnings():
    # the tiny point underflows; the warning passes through and the trace passes
    argv = ("loewner", "trace", "--kappa", _steps(), "--grid", _points((0.5, 0.0), (1e-300, 0.0)),
            "--T", "0.08", "--step", "1e-2", "--out", "-")
    with warnings.catch_warnings(record=True) as caught, np.errstate(under="warn"):
        warnings.simplefilter("always")
        proc = run_cli(*argv)
    assert proc.returncode == 0 and proc.stderr == ""
    assert caught and all(
        w.category is RuntimeWarning and str(w.message).startswith("underflow encountered")
        for w in caught
    )


def _verify_all(seed):
    proc = run_cli("verify", "--suite", "all", "--seed", str(seed))
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("seed", [1, 2])
def test_verify_all_verdicts_follow_the_printed_numbers(seed):
    # every suite prints tolerance 0.0, and a case passes exactly when
    # lhs <= rhs, in JSON and in CSV
    data = json.loads(run_cli("verify", "--suite", "all", "--seed", str(seed)).stdout)
    cases = [c for s in data["suites"] for c in s["cases"]]
    assert [s["tolerance"] for s in data["suites"]] == [0.0] * len(suites.SUITES)
    assert len(cases) == 277
    assert all(c["pass"] == (c["lhs"] <= c["rhs"]) for c in cases)
    proc = run_cli("verify", "--suite", "all", "--seed", str(seed), "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    assert len(rows) == 277
    assert all(r["pass"] == str(float(r["lhs"]) <= float(r["rhs"])).lower() for r in rows)


def test_verify_all_same_split_or_on_one_cpu(monkeypatch):
    forks = _count_forks(monkeypatch)
    here, alone = _here_and_on_one_cpu(lambda: _verify_all(1))
    assert not forks
    assert here[0] == 0 and json.loads(here[1])["pass"] is True
    assert here == alone


def _raises(message):
    def suite(seed=0):
        raise TrajectoryEscaped(message)

    return suite


def _fp_warning_as_error(seed=0):
    # a floating-point warning that the suite turns into a library error
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        np.log(np.zeros(1))
    raise NonFiniteCoefficients(f"planted: {caught[0].message}")


def _stub(name):
    def suite(seed=0):
        rep = BoundReport(name)
        rep.add(f"seed-{seed}", 0.0, 1.0)
        return rep

    return suite


def _stub_suites(monkeypatch, planted):
    # cheap suites under the real names, in SUITES order
    assert set(planted) <= set(suites.SUITES)
    monkeypatch.setattr(suites, "SUITES", {
        name: planted.get(name, _stub(name)) for name in suites.SUITES
    })


# the ids name the share of the suites each planted one ran in when the gate
# split them over two processes; all now run in SUITES order in this one
_SUITE_FAILURES = {
    "in-child": ({"loewner": _raises("planted in loewner")}, "planted in loewner"),
    "in-parent": ({"milin": _raises("planted in milin")}, "planted in milin"),
    # bounds runs before milin, so its error is the one reported
    "in-both": (
        {"bounds": _raises("planted in bounds"), "milin": _raises("planted in milin")},
        "planted in bounds",
    ),
    "warning-in-child": (
        {"weinstein": _fp_warning_as_error}, "planted: divide by zero encountered in log"
    ),
}


@pytest.mark.parametrize("case", list(_SUITE_FAILURES))
def test_verify_all_failures_give_the_one_process_outcome(monkeypatch, case):
    planted, message = _SUITE_FAILURES[case]
    _stub_suites(monkeypatch, planted)
    assert _verify_all(3) == (3, "", f"numeric error: {message}\n")


_WARNINGS = {
    "python": ("warn", lambda: warnings.warn("planted", RuntimeWarning),
               [(RuntimeWarning, "planted")]),
    "floating-point": ("warn", lambda: np.log(np.zeros(1)),
                       [(RuntimeWarning, "divide by zero encountered in log")]),
    "error-callback": ("call", lambda: np.log(np.zeros(1)), ["divide by zero"]),
}


@pytest.mark.parametrize("case", list(_WARNINGS))
def test_verify_all_warnings_are_the_one_process_warnings(monkeypatch, case):
    # a suite warns (or calls the error callback) and passes: the warning
    # comes once
    divide, plant, expected = _WARNINGS[case]

    def warns(seed=0):
        plant()
        return _stub("weinstein")()

    _stub_suites(monkeypatch, {"weinstein": warns})
    calls = []
    with warnings.catch_warnings(record=True) as caught, np.errstate(
        divide=divide, call=lambda err, flag: calls.append(err)
    ):
        warnings.simplefilter("always")
        out = _verify_all(3)
    assert [(w.category, str(w.message)) for w in caught] + calls == expected
    assert out[0] == 0 and json.loads(out[1])["pass"] is True


def test_verify_focus_milin_identity():
    proc = run_cli("verify", "--suite", "milin", "--function", "identity", "--n", "1")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    case = data["suites"][0]["cases"][0]
    assert case["lhs"] == -1.0 and case["rhs"] == 1e-9 and case["pass"]


def test_verify_focus_weinstein():
    proc = run_cli("verify", "--suite", "weinstein", "--t", "0.5", "--n", "8")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    cases = {c["id"]: c for c in data["suites"][0]["cases"]}
    assert cases["oracle-discrepancy"]["lhs"] < 1e-8
    assert cases["min-lambda"]["pass"]


def test_weinstein_lambda_row_beyond_n_passes():
    # row k > N of every route is identically zero, so no oracle grid limits k
    proc = run_cli("weinstein", "lambda", "--t", "0.5", "--k", "600", "--N", "5")
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["values"] == data["fourier"] == data["legendre"] == [0.0] * 6


def test_weinstein_lambda_oracle_gaps():
    proc = run_cli("weinstein", "lambda", "--t", "0.5", "--k", "3", "--N", "12")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["fourier_max_gap"] < 1e-8
    assert data["legendre_max_gap"] < 1e-8
    assert abs(data["values"][3] - 0.22313016014842982) < 1e-10


def test_weinstein_lambda_oracles_check_every_column():
    proc = run_cli("weinstein", "lambda", "--t", "0.5", "--k", "3", "--N", "40")
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert len(data["values"]) == len(data["fourier"]) == len(data["legendre"]) == 41


# -- the gate's cases and bounds ------------------------------------------------

def test_gate_cases_and_bounds_are_the_recorded_ones():
    # every (suite, id, rhs) of the seed-1 gate, as recorded in the fixture: a
    # vanished, renamed or added case, or a moved bound, fails here
    path = os.path.join(os.path.dirname(os.path.realpath(__file__)), "gate_bounds_seed1.json")
    with open(path) as fh:
        want = [tuple(t) for t in json.load(fh)]
    got = [
        (r["suite"], c["id"], c["rhs"])
        for r in (rep.to_dict() for rep in suites.run_suite("all", seed=1))
        for c in r["cases"]
    ]
    assert len(want) == 277
    assert got == want


# -- every statement in src/ runs under some command ----------------------------

# every command once, and each input form its parsers read: the gate, each
# single-case report on each kind of subject, each table, traces under a
# constant and a stepped driving, both weinstein subcommands and a CSV report
# to a file; then one argv for each handler of main, each with its exit code.
# Files land in $SCHLICHT_OUT, which the test points at a fresh directory.
_STEPS = "steps:[[0,[1,0]],[0.3001,[0,1]],[0.3002,[-1,0]],[5,[0.6,-0.8]]]"
_EVERY_COMMAND = (
    (("verify", "--suite", "all", "--seed", "1"), 0),
    *((("verify", "--suite", suite, "--n", "20"), 0) for suite in cli.FOCUS_SUITES),
    (("verify", "--suite", "milin", "--n", "20", "--function", "koebe-rot:2.5"), 0),
    (("verify", "--suite", "milin", "--n", "20", "--function", "coeffs:[0,1,0.5]"), 0),
    (("verify", "--suite", "robertson", "--format", "csv", "--out", "report.csv"), 0),
    *((("table", "--kind", kind), 0) for kind in ("legendre", "lambda", "coefficients")),
    (("table", "--kind", "coefficients", "--function", "coeffs:[[0,0],[1,0]]",
      "--format", "json"), 0),
    # --step makes its parser run
    (("loewner", "trace", "--step", "1e-2", "--T", "1", "--grid", "polar:2x2", "--out", "-"), 0),
    # two breaks on one step (both snap to 0.301) and one beyond --T
    (("loewner", "trace", "--kappa", _STEPS, "--T", "1", "--step", "1e-3",
      "--grid", "points:[[0.1,0.2],[-0.3,0]]", "--out", "-"), 0),
    (("loewner", "trace", "--T", "0", "--grid", "polar:0x0", "--out", "-"), 0),
    (("weinstein", "lambda", "--t", "0.5", "--k", "3", "--oracle", "all"), 0),
    (("weinstein", "decompose", "--function", "koebe", "--n", "20"), 0),
    (("weinstein", "decompose", "--function", "identity", "--n", "20"), 0),
    (("verify", "--suite", "no-such-suite"), 2),
    (("loewner", "trace", "--grid", "polar:2", "--out", "-"), 2),
    (("loewner", "trace", "--kappa", "steps:[1]", "--out", "-"), 2),
    (("table", "--kind", "legendre", "--out", "no-such-dir/table.csv"), 2),
    (("weinstein", "decompose", "--function", "no-such-function"), 3),
)

# the functions none of those commands runs, each with the reason it stays
_NEVER_RUN = {
    "_kernels.compose": "the benchmark harness wraps it by name",
    "_kernels._drhs": "rk4_loewner's with_deriv branch, kept for the harness's 5-argument call",
    "loewner.koebe_transition_series": "the entry to the cache below",
    "loewner._transition_series_cached": "the benchmark harness reads its cache_info()",
    "series.PowerSeries.__repr__": "a series printed while debugging",
    "univalent.random_class_s": "a per-layer benchmark metric reads it by name",
}

# the if branches none of those commands takes, each named by its function
# and its first line, with the reason it stays
_NEVER_TAKEN = {
    ("_kernels.rk4_loewner", "if with_deriv:"):
        "the benchmark harness's 5-argument call; _drhs above",
    ("univalent.from_quotient", "if c != 0:"):
        "the c-term; only random_class_s above passes c != 0",
    ("cli", 'if __name__ == "__main__":'):
        "python -m schlicht.cli, which test_module_entry_point_in_a_process runs in a child",
    ("loewner.NumericChain._flow_from", "if t0 < self.T0:"):
        "the solve before the last driving break: the gate's one numeric chain has "
        "constant driving, so T0 = 0",
    ("series.PowerSeries.derivative", "if self.order == 0:"):
        "the general formula would return an empty series",
    ("loewner.KoebeChain.transition", "if self.rho == 0.0:"):
        "the general formula would divide by w = 0",
}


def _statements():
    """Every statement in src/schlicht that must run, by where it is.

    Returns {(file, first line): (function, text of that line)} and the
    statements in the body of each if, {(function, text of its first line):
    set of (file, first line)}.  A raise, a docstring and a statement of a
    module or class body are exempt; the bodies of a module's if are not.
    """
    root = os.path.dirname(os.path.realpath(cli.__file__))
    found, branches = {}, {}

    def walk(body, name, counted, enclosing):
        for node in body:
            key = (path, node.lineno)
            # a constant expression, such as a docstring, compiles to no code
            constant = isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            if counted and not isinstance(node, ast.Raise) and not constant:
                found[key] = (name, lines[node.lineno - 1].strip())
                for owner in enclosing:
                    owner.add(key)
            if isinstance(node, ast.FunctionDef):
                inner = f"{name}.<locals>." if counted else f"{name}."
                walk(node.body, inner + node.name, True, enclosing)
            elif isinstance(node, ast.ClassDef):
                walk(node.body, f"{name}.{node.name}", False, enclosing)
            elif isinstance(node, ast.If):
                taken = branches.setdefault((name, lines[node.lineno - 1].strip()), set())
                walk(node.body, name, True, enclosing + [taken])
                walk(node.orelse, name, True, enclosing)
            else:
                for field in ("body", "orelse", "finalbody"):
                    walk(getattr(node, field, []), name, counted, enclosing)
                for handler in getattr(node, "handlers", []):
                    walk(handler.body, name, counted, enclosing)

    for filename in sorted(os.listdir(root)):
        if filename.endswith(".py"):
            path = os.path.join(root, filename)
            with open(path) as fh:
                text = fh.read()
            lines = text.splitlines()
            walk(ast.parse(text).body, filename[:-3], False, [])
    return found, branches


def test_every_function_in_src_runs_under_a_command(tmp_path, monkeypatch):
    # a statement stays in src/ only when a command or a suite runs it, or
    # it is a raise that guards an input or a numeric; test-only references
    # live in the tests
    src = os.path.dirname(os.path.realpath(cli.__file__))
    in_src, ran = {}, set()

    def lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        # line events only in src/
        path = frame.f_code.co_filename
        if path not in in_src:
            in_src[path] = os.path.dirname(os.path.realpath(path)) == src
        return lines if in_src[path] else None

    # a cached call that an earlier test made would not run again
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("schlicht."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
    monkeypatch.setenv("SCHLICHT_OUT", str(tmp_path))
    rcs = []
    before = sys.gettrace()
    sys.settrace(calls)
    try:
        for argv, _ in _EVERY_COMMAND:
            rcs.append(run_cli(*argv).returncode)
    finally:
        sys.settrace(before)
    assert rcs == [rc for _, rc in _EVERY_COMMAND]
    assert (tmp_path / "report.csv").read_text().startswith("suite,id,lhs,rhs,pass\n")
    ran = {(os.path.realpath(path), line) for path, line in ran}
    found, branches = _statements()
    assert set(_NEVER_TAKEN) <= set(branches)
    expected = set().union(*(branches[key] for key in _NEVER_TAKEN))
    expected |= {key for key, (name, _) in found.items() if name in _NEVER_RUN}
    unrun = {key for key in found if key not in ran}

    def described(keys):
        return sorted(f"{found[k][0]}:{k[1]}: {found[k][1]}" for k in keys)

    assert described(unrun - expected) == []
    assert described(expected - unrun) == []
    assert {found[k][0] for k in expected if found[k][0] in _NEVER_RUN} == set(_NEVER_RUN)
