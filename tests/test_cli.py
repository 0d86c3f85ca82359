import argparse
import contextlib
import csv
import inspect
import io
import json
import os
import signal
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from test_fork import _count_forks, _set_cpus, _split_and_one_process

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
        assert set(inspect.signature(fnc).parameters) <= {"seed"}, name
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


def test_trace_bytes_same_split_or_on_one_cpu(tmp_path, monkeypatch):
    # 2,048 points x 1,000 steps is above the RK4 rule (cli.SPLIT_MIN_WIDTH,
    # cli.SPLIT_MIN_POINT_STEPS); its 5 x 2,048 stored states are below
    # cli.SPLIT_MIN_VALUES
    forks = _count_forks(monkeypatch)
    argv = ("loewner", "trace", "--kappa", "const:(0.6+0.8j)", "--grid", "polar:32x64",
            "--T", "1", "--step", "1e-3", "--samples", "4")
    texts = {}
    for cpus in (2, 1):
        _set_cpus(monkeypatch, cpus)
        out = tmp_path / f"trace-{cpus}.csv"
        assert run_cli(*argv, "--out", str(out)).returncode == 0
        texts[cpus] = out.read_bytes()
    assert len(forks) == 1
    assert texts[2] == texts[1]


# 2,048 points x 520 steps is above the RK4 rule, and 21 stored times x
# 2,048 points above cli.SPLIT_MIN_VALUES: one fork solves and formats the
# back half of the grid
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
def test_trace_text_split_bytes_same_split_or_on_one_cpu(tmp_path, monkeypatch, out):
    split, alone = _split_and_one_process(
        monkeypatch, lambda: _trace(tmp_path, _WIDE_TRACE, out)
    )
    assert alone[0] == 0 and alone[1].count(b"\n") == 1 + 21 * 2048
    assert split == alone


def test_trace_split_follows_the_real_affinity(tmp_path, monkeypatch):
    # under `taskset -c 0` this runs the one-CPU path of the real rule
    forks = _count_forks(monkeypatch)
    assert _trace(tmp_path, _WIDE_TRACE, "file")[0] == 0
    assert len(forks) == (len(os.sched_getaffinity(0)) >= 2)


# the smallest traces each rule splits, and the largest it does not; the
# states rule splits narrow traces (128 points here) for their CSV alone
_THRESHOLDS = {
    "rk4-rule": ("polar:16x64", "1.024", "1", 1),  # 1,024 x 1,024 = 2^20 point-steps
    "rk4-steps-below": ("polar:16x64", "1.023", "1", 0),
    "rk4-width-below": ("polar:31x33", "1.1", "1", 0),  # 1,023 points
    "states-rule": ("polar:2x64", "0.255", "255", 1),  # 256 x 128 = 2^15 stored states
    "states-below": ("polar:2x64", "0.254", "254", 0),
}


@pytest.mark.parametrize("case", list(_THRESHOLDS))
def test_trace_split_at_the_thresholds_is_bitwise_one_process(tmp_path, monkeypatch, case):
    grid, horizon, samples, nforks = _THRESHOLDS[case]
    argv = ("loewner", "trace", "--kappa", "const:(0.6+0.8j)", "--grid", grid,
            "--T", horizon, "--step", "1e-3", "--samples", samples)
    split, alone = _split_and_one_process(
        monkeypatch, lambda: _trace(tmp_path, argv, "-"), nforks=nforks
    )
    assert alone[0] == 0
    assert split == alone


@pytest.mark.parametrize("grid, nforks", [("points:[[0.5,0]]", 0), ("points:[[0.5,0],[0,0.5]]", 1)])
def test_trace_splits_from_two_points(tmp_path, monkeypatch, grid, nforks):
    monkeypatch.setattr(cli, "SPLIT_MIN_VALUES", 2)
    argv = ("loewner", "trace", "--grid", grid, "--T", "0.1", "--step", "1e-2")
    split, alone = _split_and_one_process(
        monkeypatch, lambda: _trace(tmp_path, argv, "-"), nforks=nforks
    )
    assert alone[0] == 0
    assert split == alone


@pytest.mark.parametrize("how", ["raises", "killed"])
def test_trace_text_failure_in_the_child_gives_the_one_process_bytes(tmp_path, monkeypatch, how):
    parent = os.getpid()

    def planted_repr(value):
        # the child fails as it formats its half
        if os.getpid() != parent:
            if how == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("planted")
        return repr(value)

    monkeypatch.setattr(cli, "repr", planted_repr, raising=False)
    split, alone = _split_and_one_process(
        monkeypatch, lambda: _trace(tmp_path, _WIDE_TRACE, "file")
    )
    assert alone[0] == 0 and alone[1].count(b"\n") == 1 + 21 * 2048
    assert split == alone


# A 64-point grid splits into points 0-31 (this process) and 32-63 (the
# child).  Point 5 escapes in the step where kappa = 1, point 40 in the step
# where kappa = -1j; every other step is benign for the whole grid.
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


_ESCAPED = (3, "", "numeric error: trajectory left the unit disk\n")
_NAN = (3, "", "numeric error: grid points must satisfy |z| < 1\n")
_FAILURES = {
    "front-only": (_points(), _steps(front_step=5), _ESCAPED),
    "back-only": (_points(), _steps(back_step=3), _ESCAPED),
    "back-first": (_points(), _steps(front_step=5, back_step=2), _ESCAPED),
    "front-first": (_points(), _steps(front_step=2, back_step=5), _ESCAPED),
    # the one-process error is the NaN grid point's, whichever half it is in
    "nan-back-escape-front": (_points(back=(float("nan"), 0.0)), _steps(front_step=3), _NAN),
    "nan-front-escape-back": (_points(front=(float("nan"), 0.0)), _steps(back_step=3), _NAN),
}


@pytest.mark.parametrize("case", list(_FAILURES))
def test_trace_split_failures_give_the_one_process_outcome(monkeypatch, case):
    grid, kappa, expected = _FAILURES[case]
    monkeypatch.setattr(cli, "SPLIT_MIN_VALUES", 2)
    argv = ("loewner", "trace", "--kappa", kappa, "--grid", grid,
            "--T", "0.08", "--step", "1e-2", "--out", "-")

    def run():
        proc = run_cli(*argv)
        return proc.returncode, proc.stdout, proc.stderr

    split, alone = _split_and_one_process(monkeypatch, run)
    assert alone == expected
    assert split == alone


def test_trace_warnings_are_the_one_process_warnings(monkeypatch):
    # the tiny point underflows in the child's half; the trace passes
    monkeypatch.setattr(cli, "SPLIT_MIN_VALUES", 2)
    argv = ("loewner", "trace", "--kappa", _steps(), "--grid", _points((0.5, 0.0), (1e-300, 0.0)),
            "--T", "0.08", "--step", "1e-2", "--out", "-")

    def run():
        with warnings.catch_warnings(record=True) as caught, np.errstate(under="warn"):
            warnings.simplefilter("always")
            proc = run_cli(*argv)
        out = proc.returncode, proc.stdout, proc.stderr
        return out, [(w.category, str(w.message)) for w in caught]

    split, alone = _split_and_one_process(monkeypatch, run)
    assert alone[0][0] == 0 and alone[1]
    assert split == alone


def _verify_all(seed):
    proc = run_cli("verify", "--suite", "all", "--seed", str(seed))
    return proc.returncode, proc.stdout, proc.stderr


def test_verify_all_same_split_or_on_one_cpu(monkeypatch):
    split, alone = _split_and_one_process(monkeypatch, lambda: _verify_all(1))
    assert alone[0] == 0 and json.loads(alone[1])["pass"] is True
    assert split == alone


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
        rep = BoundReport(name, 1e-9)
        rep.add(f"seed-{seed}", 0.0, 1.0)
        return rep

    return suite


def _stub_suites(monkeypatch, planted):
    # cheap suites under the real names, so CHILD_SUITES splits them as usual
    assert set(planted) <= set(suites.SUITES)
    monkeypatch.setattr(suites, "SUITES", {
        name: planted.get(name, _stub(name)) for name in suites.SUITES
    })


_SUITE_FAILURES = {
    "in-child": ({"loewner": _raises("planted in loewner")}, "planted in loewner"),
    "in-parent": ({"milin": _raises("planted in milin")}, "planted in milin"),
    # area runs before milin in one process, so its error is the one reported
    "in-both": (
        {"area": _raises("planted in area"), "milin": _raises("planted in milin")},
        "planted in area",
    ),
    "warning-in-child": (
        {"weinstein": _fp_warning_as_error}, "planted: divide by zero encountered in log"
    ),
}


@pytest.mark.parametrize("case", list(_SUITE_FAILURES))
def test_verify_all_failures_give_the_one_process_outcome(monkeypatch, case):
    planted, message = _SUITE_FAILURES[case]
    # the cases name the share each planted suite runs in
    assert {"loewner", "area", "weinstein"} <= set(suites.CHILD_SUITES)
    assert "milin" not in suites.CHILD_SUITES
    _stub_suites(monkeypatch, planted)
    split, alone = _split_and_one_process(monkeypatch, lambda: _verify_all(3))
    assert alone == (3, "", f"numeric error: {message}\n")
    assert split == alone


_WARNINGS = {
    "python": ("warn", lambda: warnings.warn("planted", RuntimeWarning),
               [(RuntimeWarning, "planted")]),
    "floating-point": ("warn", lambda: np.log(np.zeros(1)),
                       [(RuntimeWarning, "divide by zero encountered in log")]),
    "error-callback": ("call", lambda: np.log(np.zeros(1)), ["divide by zero"]),
}


@pytest.mark.parametrize("case", list(_WARNINGS))
def test_verify_all_warnings_are_the_one_process_warnings(monkeypatch, case):
    # a child suite warns (or calls the error callback) and passes: the
    # warning comes once, from this process, split or not
    divide, plant, expected = _WARNINGS[case]

    def warns(seed=0):
        plant()
        return _stub("weinstein")()

    _stub_suites(monkeypatch, {"weinstein": warns})

    def run():
        calls = []
        with warnings.catch_warnings(record=True) as caught, np.errstate(
            divide=divide, call=lambda err, flag: calls.append(err)
        ):
            warnings.simplefilter("always")
            out = _verify_all(3)
        return out, [(w.category, str(w.message)) for w in caught] + calls

    split, alone = _split_and_one_process(monkeypatch, run)
    assert alone[1] == expected
    assert alone[0][0] == 0 and json.loads(alone[0][1])["pass"] is True
    assert split == alone


def test_verify_focus_milin_identity():
    proc = run_cli("verify", "--suite", "milin", "--function", "identity", "--n", "1")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    case = data["suites"][0]["cases"][0]
    assert case["lhs"] == -1.0 and case["rhs"] == 0.0 and case["pass"]


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
