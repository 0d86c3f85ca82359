"""Benchmark of the schlicht CLI: end to end, and per layer in a traced run.

    python3 perfbench/run.py --workload {gate,decompose,trace} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere; the checkout root is the parent of this directory and the
program is run from its ``src/`` tree (pure Python, nothing to build).

Load is a closed loop with one client: this process starts one CLI child at a
time and waits for it.  ``--trace 0`` repeats the workload until ``--seconds``
is used up (``gate`` runs at least twice, so its report can be compared
byte for byte with itself) and prints the end-to-end metrics: medians over
the repetitions.  ``--trace 1`` runs the workload once untraced and once
through ``bench_trace.py`` (the same argv in-process, with timing wrappers
around the library's functions) and prints the per-layer metrics.

The last line of standard output is the result,
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds the
environment and the raw samples, which are also written to
``.perfbench_work/`` in the checkout.  Timings come from ``perf_counter`` and
from ``wait4`` on this benchmark's own child processes only; no system-wide
tracing is used.  Exit code 1 means the benchmark itself could not run (no
``src/schlicht`` beside it, a child killed at the deadline, a broken trace).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import bench_checks as checks
import bench_trace

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
DEADLINE_S = 170.0
SETUP_REPEATS = 7
DECOMPOSE_N = 20
# relative or absolute errors below this are roundoff; reporting the floor
# keeps the accuracy metrics nonzero once a route becomes exact
ERR_FLOOR = 1e-12

CLI = "import sys; from schlicht.cli import main; sys.exit(main(sys.argv[1:]))"
IMPORT = "import schlicht.cli"
PROBE = (
    "import json, sys, numpy, schlicht.cli, schlicht._kernels as k; "
    "open(sys.argv[1], 'w').write(json.dumps({'python': sys.version.split()[0], "
    "'numpy': numpy.__version__, 'backend': k.BACKEND}))"
)

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("passed_share", "1"),
    ("ref_abs_err", "1"),
    ("ref_rel_err", "1"),
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


@dataclass
class Workload:
    min_repeats: int
    invocations: object  # seed -> [(label, CLI args without --out, checker)]


def _gate(seed):
    args = ["verify", "--suite", "all", "--seed", str(seed)]
    return [("report", args, checks.check_gate)]


def _decompose(seed):
    # closed-form chains only: the seed has nothing to draw
    return [
        (
            function,
            ["weinstein", "decompose", "--function", function, "--n", str(DECOMPOSE_N)],
            partial(checks.check_decompose, function=function, n=DECOMPOSE_N),
        )
        for function in ("koebe", "identity")
    ]


def _trace(seed):
    kappa = checks.kappa_from_seed(seed)
    args = [
        "loewner", "trace", "--kappa", f"const:{kappa!r}", "--T", "8", "--step", "1e-3",
        "--grid", "polar:64x64", "--samples", "16",
    ]
    checker = partial(
        checks.check_trace, kappa=kappa, nr=64, na=64, T=8.0, step=1e-3, samples=16
    )
    return [("trace", args, checker)]


WORKLOADS = {
    "gate": Workload(2, _gate),
    "decompose": Workload(1, _decompose),
    "trace": Workload(1, _trace),
}


@dataclass
class Child:
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float


class Runner:
    """Starts children one at a time, under one deadline for the whole run."""

    def __init__(self, workload, seed, tmp, deadline):
        self.workload = workload
        self.name = f"{workload}-seed{seed}"
        self.tmp = tmp
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, self.env.get("PYTHONPATH")) if p
        )
        self.log = tmp / "children.log"

    def spawn(self, argv):
        with open(self.log, "ab") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, cwd=self.tmp, stdout=log, stderr=log)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode < 0:
            raise BenchError(f"child {argv[:4]} ended by signal {-proc.returncode}")
        return Child(
            proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0
        )

    def python(self, *args):
        return self.spawn([sys.executable, *args])

    def log_tail(self, lines=20):
        text = self.log.read_text(errors="replace") if self.log.exists() else ""
        return "\n".join(text.splitlines()[-lines:])


def environment(runner):
    """Versions and hardware; this first import also fills the bytecode cache."""
    probe = runner.tmp / "probe.json"
    child = runner.python("-c", PROBE, str(probe))
    if child.rc != 0 or not probe.exists():
        raise BenchError(f"cannot import schlicht from {ROOT / 'src'}:\n{runner.log_tail()}")
    env = json.loads(probe.read_text())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            models = (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
            cpu = next(models, cpu)
    except OSError:
        pass
    env.update(
        nproc=len(os.sched_getaffinity(0)),
        cpu_model=cpu,
        platform=platform.platform(),
        timing=(
            "perf_counter wall time and wait4 rusage of this benchmark's own child "
            "processes only; no system-wide tracing, which shared sandboxed hosts forbid"
        ),
    )
    return env


@dataclass
class Repeat:
    """One pass over a workload's invocations, and what its checks found."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    consistent: bool = True
    abs_err: float | None = None
    rel_err: float | None = None
    rc: tuple = ()
    notes: tuple = ()


def _worst(a, b):
    return b if a is None else a if b is None else max(a, b)


def run_once(runner, invocations, tag, reference, summaries=None):
    """Run each invocation once, as a CLI child or traced when ``summaries``
    is a list (each traced summary is appended to it).

    ``reference`` maps an invocation to the output bytes of its first run;
    an output that differs from it fails all of its operations.
    """
    rep = Repeat()
    for label, args, checker in invocations:
        out = runner.tmp / f"{label}-{tag}.out"
        cli_args = [*args, "--out", str(out)]
        if summaries is None:
            child = runner.python("-c", CLI, *cli_args)
        else:
            summary = runner.tmp / f"{label}-{tag}.summary.json"
            child = runner.python(
                bench_trace.__file__, "--summary", str(summary),
                "--spans", str(WORK / f"spans-{runner.workload}-{label}.jsonl"),
                "--run-id", f"{runner.name}-{label}", "--", *cli_args,
            )
            if not summary.exists():
                raise BenchError(f"traced run of {label} wrote no summary:\n{runner.log_tail()}")
            summaries.append(json.loads(summary.read_text()))
        data = out.read_bytes() if out.exists() else None
        out.unlink(missing_ok=True)
        check = checker(data, child.rc)
        if reference.setdefault(label, data) != data:
            check.failed, check.consistent = check.attempted, False
            check.note += "; output differs from the first run with this seed"
        rep.wall_s += child.wall_s
        rep.cpu_s += child.cpu_s
        rep.rss_mb = max(rep.rss_mb, child.rss_mb)
        rep.attempted += check.attempted
        rep.failed += check.failed
        rep.consistent &= check.consistent
        rep.abs_err = _worst(rep.abs_err, check.abs_err)
        rep.rel_err = _worst(rep.rel_err, check.rel_err)
        rep.rc += (child.rc,)
        rep.notes += (f"{label}: exit {child.rc} {check.note}".rstrip(),)
    return rep


def _err_metric(values):
    # 1.0 stands for "no output to measure": the program failed to produce it
    values = [v for v in values if v is not None]
    return max(statistics.median(values), ERR_FLOOR) if values else 1.0


def run_timed(runner, workload, seed, seconds):
    """End-to-end metrics: repeat the workload until ``seconds`` are used."""
    setup = [runner.python("-c", IMPORT).wall_s for _ in range(SETUP_REPEATS)]
    invocations = workload.invocations(seed)
    reference, repeats = {}, []
    start = time.perf_counter()
    while True:
        repeats.append(run_once(runner, invocations, len(repeats), reference))
        elapsed = time.perf_counter() - start
        next_end = elapsed * (len(repeats) + 1) / len(repeats)
        if len(repeats) >= workload.min_repeats and (
            next_end > seconds or time.monotonic() + next_end - elapsed > runner.deadline
        ):
            break
    attempted = sum(r.attempted for r in repeats)
    failed = sum(r.failed for r in repeats)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(r.wall_s for r in repeats),
        "cpu_s": statistics.median(r.cpu_s for r in repeats),
        "peak_rss_mb": statistics.median(r.rss_mb for r in repeats),
        "passed_share": 1.0 - failed / attempted,
        "ref_abs_err": _err_metric(r.abs_err for r in repeats),
        "ref_rel_err": _err_metric(r.rel_err for r in repeats),
    }
    units = dict(END_TO_END)
    result = {
        "correct": all(r.consistent for r in repeats),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, {"setup_s": setup, "repeats": [vars(r) for r in repeats]}


def run_traced(runner, workload, seed, seconds):
    """Per-layer metrics: the workload once untraced, then once traced.

    Every traced output must be byte-identical to its untraced twin.
    """
    invocations = workload.invocations(seed)
    reference = {}
    plain = run_once(runner, invocations, "plain", reference)
    summaries = []
    traced = run_once(runner, invocations, "traced", reference, summaries)
    unrestored = [a for s in summaries for a in s["unrestored"]]
    if unrestored:
        raise BenchError(f"traced run left wrapped attributes behind: {unrestored}")
    merged = bench_trace.merge(summaries)
    metrics = bench_trace.layer_metrics(merged)
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    units = {name: unit for name, unit, _ in bench_trace.PER_LAYER}
    result = {
        "correct": plain.consistent and traced.consistent and plain.rc == traced.rc,
        "attempted": plain.attempted,
        "failed": plain.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return result, {"repeats": [vars(plain), vars(traced)], "layers": merged}


def declared_metrics(trace):
    """Metric names that BENCHMARK.json declares for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "schlicht").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'schlicht'}", file=sys.stderr)
        return 1
    # a terminated benchmark still kills and reaps the child it waits for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        runner = Runner(args.workload, args.seed, tmp, time.monotonic() + DEADLINE_S)
        env = environment(runner)
        measure = run_traced if args.trace else run_timed
        result, samples = measure(runner, WORKLOADS[args.workload], args.seed, args.seconds)
        if set(result["metrics"]) != declared_metrics(args.trace):
            raise BenchError("metric names differ from those declared in BENCHMARK.json")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "samples": samples, "result": result,
    }
    (WORK / f"result-{runner.name}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1) + "\n"
    )
    print(json.dumps({k: v for k, v in details.items() if k != "result"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
