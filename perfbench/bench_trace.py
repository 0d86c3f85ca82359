"""Traced in-process run of the schlicht CLI, for the per-layer metrics.

    python3 perfbench/bench_trace.py --summary S.json --spans S.jsonl \\
        --run-id ID -- <schlicht argv>

runs ``schlicht.cli.main(argv)`` in this process with timing wrappers put in
place of module attributes: every public function of the library modules,
the four kernels, and the entry points named in ``EXTRA``.  Nothing inside
``src/`` changes.  Each call records a span (name, start, end, parent) in
memory; the spans are written to ``--spans`` at exit and aggregated to
per-function calls, inclusive time and self time (duration minus the part
its child spans cover) in ``--summary``.  The wrapped attributes are
restored afterwards and the summary says whether every one of them was.

``suites.run_suite`` is wrapped rather than the suite functions, because it
picks each suite's keyword arguments from the function's ``__code__``; its
``all`` branch recurses through the module global, so each suite still gets
a span of its own.

Exit code: the one the CLI process would give, so a traced run can be
compared with an untraced one; a crash is recorded and still summarised.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import sys
import time
import traceback
from collections import Counter

LIBRARY_MODULES = ("series", "univalent", "functionals", "legendre", "loewner", "weinstein")
KERNELS = ("rk4_loewner", "cauchy_mul", "cauchy_div", "compose")
COMPLEX_BYTES = 16


def _rk4_counts(z0, kappa, h, store_stride, with_deriv):
    nz, nsteps = len(z0), len(kappa)
    stored = (nsteps // store_stride + 1) * nz * (2 if with_deriv else 1)
    return {
        "point_steps": nz * nsteps,
        "steps": nsteps,
        "bytes_computed": COMPLEX_BYTES * (nz + nsteps + stored),
    }


def _product_counts(a, b):
    # truncated product: coefficient m takes m + 1 multiply-adds
    n = len(a)
    return {"macs": n * (n + 1) // 2, "bytes_computed": 3 * COMPLEX_BYTES * n}


def _division_counts(a, b):
    n = len(a)
    return {"macs": n * (n - 1) // 2, "bytes_computed": 3 * COMPLEX_BYTES * n}


def _compose_counts(outer, inner):
    # Horner in series arithmetic: n - 1 truncated products
    n = len(outer)
    return {"macs": (n - 1) * n * (n + 1) // 2, "bytes_computed": 3 * COMPLEX_BYTES * n}


KERNEL_COUNTS = {
    "rk4_loewner": _rk4_counts,
    "cauchy_mul": _product_counts,
    "cauchy_div": _division_counts,
    "compose": _compose_counts,
}

def _suite_span_name(name="all", *args, **kwargs):
    return f"suites.{name}"


def _output_bytes(path, text, *args, **kwargs):
    return {"cli.output_bytes": len(text.encode())}


# (module, owner path, attribute, options of Tracer.wrap other than the
# default "<module>.<owner>.<attribute>" name)
EXTRA = (
    ("weinstein", "", "_a_k_row", {}),
    ("loewner", "NumericChain", "p_on_circle", {}),
    ("loewner", "NumericChain", "_circle", {}),
    ("loewner", "NumericChain", "_flow_from", {}),
    ("suites", "", "run_suite", {"name": _suite_span_name}),
    ("cli", "", "cmd_verify", {}),
    ("cli", "", "cmd_loewner_trace", {}),
    ("cli", "", "cmd_weinstein_decompose", {}),
    ("cli", "", "_write_text", {"counts": _output_bytes, "span": False}),
    ("report", "BoundReport", "add", {"span": False}),
)


class Tracer:
    """Swaps timing wrappers into module attributes; ``restore`` undoes it."""

    def __init__(self, run_id="run"):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index]
        self.counts = Counter()
        self._stack = []
        self._wrapped = []  # (owner, attribute, original)
        self._t0 = time.perf_counter()

    def wrap(self, owner, attr, name, counts=None, span=True):
        """Replace ``owner.attr`` by a wrapper.

        ``name`` is a string or a function of the call's arguments;
        ``counts`` maps the call's arguments to counters added under
        ``name``; without ``span`` the wrapper only counts calls.
        """
        original = owner.__dict__[attr]
        spans, stack, total = self.spans, self._stack, self.counts
        clock = time.perf_counter

        if not span:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                total[name + ".calls"] += 1
                if counts:
                    total.update(counts(*args, **kwargs))
                return original(*args, **kwargs)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                label = name if isinstance(name, str) else name(*args, **kwargs)
                if counts:
                    for key, value in counts(*args, **kwargs).items():
                        total[f"{label}.{key}"] += value
                index = len(spans)
                record = [label, 0.0, 0.0, stack[-1] if stack else -1]
                spans.append(record)
                stack.append(index)
                record[1] = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    record[2] = clock()
                    stack.pop()

        setattr(owner, attr, wrapper)
        self._wrapped.append((owner, attr, original))

    def install(self):
        from schlicht import _kernels

        for kernel in KERNELS:
            self.wrap(_kernels, kernel, f"kernels.{kernel}", KERNEL_COUNTS[kernel])
        for mod_name in LIBRARY_MODULES:
            module = importlib.import_module(f"schlicht.{mod_name}")
            for attr, obj in list(vars(module).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    self.wrap(module, attr, f"{mod_name}.{attr}")
        for mod_name, owner_path, attr, options in EXTRA:
            owner = importlib.import_module(f"schlicht.{mod_name}")
            if owner_path:
                owner = getattr(owner, owner_path)
            name = ".".join(p for p in (mod_name, owner_path, attr) if p)
            self.wrap(owner, attr, **{"name": name, **options})

    def restore(self):
        for owner, attr, original in reversed(self._wrapped):
            setattr(owner, attr, original)

    def unrestored(self):
        """Attributes that do not hold their original object any more."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._wrapped
            if owner.__dict__[attr] is not original
        ]

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def summary(self):
        """Per-name calls, inclusive and self seconds, plus the counters."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        functions = {}
        circle_misses = 0
        for i, (name, start, end, parent) in enumerate(self.spans):
            agg = functions.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - covered[i]
            if name == "loewner.NumericChain._flow_from" and parent >= 0:
                circle_misses += self.spans[parent][0] == "loewner.NumericChain._circle"
        counts = dict(self.counts)
        counts["loewner.circle_cache.misses"] = circle_misses
        return {"run_id": self.run_id, "functions": functions, "counts": counts}

    def write_spans(self, path):
        """One JSON object per line: run, id, name, parent, start, end."""
        run = json.dumps(self.run_id)
        names = {}
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                if name not in names:
                    names[name] = json.dumps(name)
                fh.write(
                    f'{{"run": {run}, "id": {i}, "name": {names[name]}, "parent": {parent}, '
                    f'"start": {start - self._t0!r}, "end": {end - self._t0!r}}}\n'
                )


def traced_main(argv, run_id="run"):
    """Run the CLI under a Tracer; returns (exit code, summary, tracer)."""
    from schlicht import cli, loewner

    cache = loewner._transition_series_cached
    before = cache.cache_info()
    with Tracer(run_id) as tracer:
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the argv
            rc = exc.code
        except Exception:  # a crash, which gives the CLI process exit code 1
            traceback.print_exc()
            rc = 1
    after = cache.cache_info()
    summary = tracer.summary()
    summary["counts"]["loewner.transition_cache.hits"] = after.hits - before.hits
    summary["counts"]["loewner.transition_cache.misses"] = after.misses - before.misses
    summary["rc"] = rc
    summary["unrestored"] = tracer.unrestored()
    return rc, summary, tracer


def merge(summaries):
    """Sum the per-name aggregates and counters of several traced runs."""
    functions, counts = {}, Counter()
    for s in summaries:
        for name, agg in s["functions"].items():
            into = functions.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key, value in agg.items():
                into[key] += value
        counts.update(s["counts"])
    return {"functions": functions, "counts": dict(counts)}


SUITE_NAMES = (
    "area", "bounds", "littlewood", "robertson", "milin",
    "lebedev-milin", "legendre", "loewner", "weinstein",
)

# (name, unit, better) of every per-layer metric, in output order
PER_LAYER = (
    [
        ("kernels.rk4_loewner.calls", "count", "lower"),
        ("kernels.rk4_loewner.self_s", "s", "lower"),
        ("kernels.rk4_loewner.point_steps", "count", "lower"),
        ("kernels.rk4_loewner.point_steps_per_s", "1/s", "higher"),
        ("kernels.rk4_loewner.mean_width", "count", "higher"),
        ("kernels.rk4_loewner.bytes_computed", "B", "lower"),
    ]
    + [
        (f"kernels.{k}.{m}", u, "lower")
        for k in ("cauchy_mul", "cauchy_div", "compose")
        for m, u in (
            ("calls", "count"), ("self_s", "s"), ("macs", "count"), ("bytes_computed", "B"),
        )
    ]
    + [
        ("series.evaluate.calls", "count", "lower"),
        ("series.evaluate.self_s", "s", "lower"),
        ("series.evaluate_many.calls", "count", "lower"),
        ("series.evaluate_many.self_s", "s", "lower"),
    ]
    + [(f"series.{f}.self_s", "s", "lower") for f in ("log", "exp", "revert")]
    + [
        (f"functionals.{f}.self_s", "s", "lower")
        for f in (
            "pointwise_bounds_check", "integral_mean", "log_coefficients",
            "milin_functional", "lebedev_milin_check",
        )
    ]
    + [
        (f"univalent.{f}.self_s", "s", "lower")
        for f in ("random_class_s", "odd_sqrt_transform", "to_sigma")
    ]
    + [
        (f"legendre.{f}.self_s", "s", "lower")
        for f in (
            "equal_angle_expansion", "addition_theorem_residual",
            "schlafli_coeff", "assoc_legendre_direct",
        )
    ]
    + [
        ("loewner.loewner_solve.calls", "count", "lower"),
        ("loewner.NumericChain.p_on_circle.calls", "count", "lower"),
        ("loewner.NumericChain.p_on_circle.self_s", "s", "lower"),
        ("loewner.circle_cache.hit_ratio", "1", "higher"),
        ("loewner.transition_cache.hit_ratio", "1", "higher"),
        ("loewner.chain_log_coeffs.self_s", "s", "lower"),
        ("weinstein._a_k_row.calls", "count", "lower"),
        ("weinstein._a_k_row.self_s", "s", "lower"),
        ("weinstein.lambda_series.calls", "count", "lower"),
        ("weinstein.lambda_series.self_s", "s", "lower"),
    ]
    + [
        (f"weinstein.{f}.self_s", "s", "lower")
        for f in ("lambda_fourier", "lambda_legendre_route", "milin_generating_identity")
    ]
    + [(f"suites.{s}.wall_s", "s", "lower") for s in SUITE_NAMES]
    + [
        ("cli.output_bytes", "B", "lower"),
        ("cli.format_s", "s", "lower"),
        ("report.cases", "count", "higher"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(summary):
    """The per-layer metrics of a (merged) summary, except trace.overhead_s."""
    functions, counts = summary["functions"], summary["counts"]

    def field(name, key):
        return functions.get(name, {}).get(key, 0)

    out = {}
    for name, _, _ in PER_LAYER:
        head, _, metric = name.rpartition(".")
        if metric in ("calls", "self_s"):
            out[name] = field(head, metric)
        elif metric in ("macs", "bytes_computed", "point_steps"):
            out[name] = counts.get(name, 0)
        elif metric == "wall_s":
            out[name] = field(head, "total_s")
    rk = "kernels.rk4_loewner"
    out[f"{rk}.point_steps_per_s"] = _ratio(out[f"{rk}.point_steps"], out[f"{rk}.self_s"])
    out[f"{rk}.mean_width"] = _ratio(out[f"{rk}.point_steps"], counts.get(f"{rk}.steps", 0))
    circle_calls = field("loewner.NumericChain._circle", "calls")
    out["loewner.circle_cache.hit_ratio"] = _ratio(
        circle_calls - counts.get("loewner.circle_cache.misses", 0), circle_calls
    )
    hits = counts.get("loewner.transition_cache.hits", 0)
    out["loewner.transition_cache.hit_ratio"] = _ratio(
        hits, hits + counts.get("loewner.transition_cache.misses", 0)
    )
    out["cli.output_bytes"] = counts.get("cli.output_bytes", 0)
    out["cli.format_s"] = sum(
        agg["self_s"] for name, agg in functions.items() if name.startswith("cli.cmd_")
    )
    out["report.cases"] = counts.get("report.BoundReport.add.calls", 0)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--summary", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--run-id", default="run")
    parser.add_argument("cli_argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_argv = args.cli_argv[1:] if args.cli_argv[:1] == ["--"] else args.cli_argv
    rc, summary, tracer = traced_main(cli_argv, args.run_id)
    tracer.write_spans(args.spans)
    with open(args.summary, "w") as fh:
        json.dump(summary, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
