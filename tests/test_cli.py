import argparse
import ast
import contextlib
import csv
import inspect
import io
import json
import os
import resource
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from schlicht import cli, suites
from schlicht.errors import ImaginaryResidue, TrajectoryEscaped
from schlicht.report import BoundReport


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
    # series: a numeric error (exit 3), not a crash (exit 1)
    for suite in ("milin", "robertson", "area", "lebedev-milin"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # NumPy's overflow warnings
            proc = run_cli(
                "verify", "--suite", suite, "--n", "3", "--function", "coeffs:[0,1,1e160]",
                "--out", os.devnull,
            )
        assert (proc.returncode, proc.stderr) == (
            3, "numeric error: coefficients must be finite\n"
        ), suite
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
    ],
    ids=["const-polar", "steps", "points-signed-zeros"],
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
    raise ImaginaryResidue(f"planted: {caught[0].message}")


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


# -- every function in src/ runs under some command -----------------------------

# every command once: the gate, each single-case report, each table, a trace
# (with --step, so that its parser runs) and both weinstein subcommands
_EVERY_COMMAND = (
    ("verify", "--suite", "all", "--seed", "1"),
    *(("verify", "--suite", suite, "--n", "20") for suite in cli.FOCUS_SUITES),
    *(("table", "--kind", kind) for kind in ("legendre", "lambda", "coefficients")),
    ("loewner", "trace", "--step", "1e-2", "--T", "1", "--grid", "polar:2x2", "--out", "-"),
    ("weinstein", "lambda", "--t", "0.5", "--k", "3", "--oracle", "all"),
    ("weinstein", "decompose", "--function", "koebe", "--n", "20"),
    ("weinstein", "decompose", "--function", "identity", "--n", "20"),
)

# the functions none of those commands runs, each with the reason it stays
_A_K_ROW = "chain interface: _a_k_row calls it on KoebeChain"
_LIPSCHITZ = "chain interface: lipschitz_bound_check calls it on KoebeChain"
_NEVER_RUN = {
    "_kernels.compose": "the benchmark harness wraps it by name",
    "_kernels._drhs": "rk4_loewner's with_deriv branch, kept for the harness's 5-argument call",
    "loewner.koebe_transition_series": "the entry to the cache below",
    "loewner._transition_series_cached": "the benchmark harness reads its cache_info()",
    "series.PowerSeries.__repr__": "a series printed while debugging",
    "loewner.TrivialChain.boundary_values": _A_K_ROW,
    "loewner.TrivialChain.p_values": _A_K_ROW,
    "loewner.NumericChain.log_coeff": _A_K_ROW,
    "loewner.TrivialChain.eval_at": _LIPSCHITZ,
    "loewner.NumericChain.eval_at": _LIPSCHITZ,
    "loewner.TrivialChain.transition": _LIPSCHITZ,
}


def _defined_functions():
    """{(file, first line of its code): name} for every function in src/schlicht."""
    root = os.path.dirname(os.path.realpath(cli.__file__))
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                # a decorated function's code starts at its first decorator
                line = min([d.lineno for d in child.decorator_list] + [child.lineno])
                found[(path, line)] = prefix + child.name
                walk(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")

    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            path = os.path.join(root, name)
            with open(path) as fh:
                walk(ast.parse(fh.read()), path, name[:-3] + ".")
    return found


def test_every_function_in_src_runs_under_a_command():
    # a function stays in src/ only when a command or a suite calls it;
    # test-only references live in the tests
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    # a cached call that an earlier test made would not run again
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("schlicht."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
    rcs = []
    sys.setprofile(profile)
    try:
        for argv in _EVERY_COMMAND:
            rcs.append(run_cli(*argv).returncode)
    finally:
        sys.setprofile(None)
    assert rcs == [0] * len(_EVERY_COMMAND)
    called = {(os.path.realpath(path), line) for path, line in called}
    never_run = {name for key, name in _defined_functions().items() if key not in called}
    assert never_run == set(_NEVER_RUN)
