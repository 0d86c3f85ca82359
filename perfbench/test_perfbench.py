"""Tests of the benchmark's own checkers and tracer, at tiny sizes.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench_checks as checks  # noqa: E402
import bench_trace  # noqa: E402
import run  # noqa: E402
from schlicht import cli, loewner, report, suites  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _rewrite_json(data, edit):
    obj = json.loads(data)
    edit(obj)
    return json.dumps(obj).encode()


# -- trace -----------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_trace(tmp_path_factory):
    out = tmp_path_factory.mktemp("trace") / "trace.csv"
    kappa = checks.kappa_from_seed(3)
    rc = cli.main([
        "loewner", "trace", "--kappa", f"const:{kappa!r}", "--T", "1", "--step", "1e-3",
        "--grid", "polar:3x4", "--samples", "4", "--out", str(out),
    ])
    return kappa, rc, out.read_bytes()


def _check_tiny_trace(kappa, rc, data):
    return checks.check_trace(data, rc, kappa, nr=3, na=4, T=1.0, step=1e-3, samples=4)


def test_trace_checker_accepts_program_output(tiny_trace):
    c = _check_tiny_trace(*tiny_trace)
    assert (c.attempted, c.failed, c.consistent) == (5 * 12, 0, True)
    assert 0 < c.abs_err < 1e-10


def test_trace_checker_rejects_value_moved_by_1e_6(tiny_trace):
    kappa, rc, data = tiny_trace
    lines = data.decode().splitlines()
    row = lines[30].split(",")
    row[3] = repr(float(row[3]) + 1e-6)
    lines[30] = ",".join(row)
    c = _check_tiny_trace(kappa, rc, ("\n".join(lines) + "\n").encode())
    assert (c.failed, c.consistent) == (1, False)


def test_trace_checker_fails_every_sample_of_a_failed_process(tiny_trace):
    kappa, _, data = tiny_trace
    c = _check_tiny_trace(kappa, 3, data)
    assert c.failed == c.attempted == 60


# -- gate report -------------------------------------------------------------

@pytest.fixture(scope="module")
def small_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("report") / "report.json"
    rc = cli.main(["verify", "--suite", "robertson", "--out", str(out)])
    return rc, out.read_bytes()


def test_gate_checker_accepts_program_output(small_report):
    rc, data = small_report
    c = checks.check_gate(data, rc, expected_cases=7)
    assert (rc, c.attempted, c.failed, c.consistent) == (0, 7, 0, True)


def test_gate_checker_counts_a_failing_case(small_report):
    _, data = small_report

    def fail_one(obj):
        case = obj["suites"][0]["cases"][2]
        case["lhs"], case["pass"] = case["rhs"] + 1.0, False
        obj["pass"] = False

    c = checks.check_gate(_rewrite_json(data, fail_one), 1, expected_cases=7)
    assert (c.failed, c.consistent) == (1, True)


def test_gate_checker_flags_a_verdict_its_numbers_contradict(small_report):
    _, data = small_report

    def flip(obj):
        obj["suites"][0]["cases"][0]["pass"] = False
        obj["pass"] = False

    c = checks.check_gate(_rewrite_json(data, flip), 1, expected_cases=7)
    assert (c.failed, c.consistent) == (1, False)


def test_gate_checker_fails_all_cases_on_a_wrong_count(small_report):
    rc, data = small_report
    c = checks.check_gate(data, rc, expected_cases=8)
    assert (c.attempted, c.failed, c.consistent) == (8, 8, False)


# -- decompose ---------------------------------------------------------------

@pytest.fixture(scope="module")
def small_decomposition(tmp_path_factory):
    out = tmp_path_factory.mktemp("decompose") / "dec.json"
    rc = cli.main([
        "weinstein", "decompose", "--function", "identity", "--n", "3", "--out", str(out),
    ])
    return rc, out.read_bytes()


def test_decompose_checker_accepts_program_output(small_decomposition):
    rc, data = small_decomposition
    c = checks.check_decompose(data, rc, "identity", 3)
    assert (rc, c.failed, c.consistent) == (0, 0, True)
    assert 0 < c.rel_err < 1e-2


def test_decompose_checker_rejects_a_shifted_rhs(small_decomposition):
    rc, data = small_decomposition
    exact = checks.identity_decomposition_exact(3)

    def shift(obj):
        obj["rhs_extrapolated"] += 0.05 * exact

    c = checks.check_decompose(_rewrite_json(data, shift), rc, "identity", 3)
    assert (c.failed, c.consistent) == (1, False)
    assert c.rel_err > 0.04


# -- metric names and the traced run -------------------------------------------

def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    assert all(NAME.fullmatch(n) for n in e2e + layer)
    assert e2e == [name for name, _ in run.END_TO_END]
    assert layer == [name for name, _, _ in bench_trace.PER_LAYER]
    assert len(set(e2e + layer)) == len(e2e) + len(layer)


def _attributes():
    owners = [*(sys.modules[f"schlicht.{m}"] for m in bench_trace.LIBRARY_MODULES)]
    owners += [sys.modules["schlicht._kernels"], suites, cli, loewner.NumericChain,
               report.BoundReport]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_traced_run_restores_attributes_and_keeps_output(tmp_path):
    argv = ["verify", "--suite", "robertson", "--seed", "5"]
    assert cli.main(argv + ["--out", str(tmp_path / "plain.json")]) == 0
    before = _attributes()
    rc, summary, tracer = bench_trace.traced_main(argv + ["--out", str(tmp_path / "traced.json")])
    after = _attributes()
    assert rc == 0 and summary["unrestored"] == []
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert (tmp_path / "plain.json").read_bytes() == (tmp_path / "traced.json").read_bytes()
    metrics = bench_trace.layer_metrics(summary)
    assert metrics["suites.robertson.wall_s"] > 0
    assert metrics["report.cases"] >= 7
    assert metrics["cli.output_bytes"] == (tmp_path / "plain.json").stat().st_size
    assert set(metrics) == {n for n, _, _ in bench_trace.PER_LAYER} - {"trace.overhead_s"}
    tracer.write_spans(tmp_path / "spans.jsonl")
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert spans[0]["name"] == "cli.cmd_verify" and spans[0]["parent"] == -1
    assert all(s["start"] <= s["end"] for s in spans)


def test_benchmark_without_program_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trace", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_traced_run_reports_crashes_and_usage_errors_like_the_cli(monkeypatch):
    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_verify", crash)
    rc, summary, _ = bench_trace.traced_main(["verify", "--suite", "area"])
    assert rc == 1 and summary["unrestored"] == []
    assert cli.cmd_verify is crash
    assert bench_trace.traced_main(["verify"])[0] == 2
