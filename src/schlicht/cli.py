"""Command-line interface.

Subcommands
    verify    run verification suites, write a report, exit 0 iff green
    table     emit legendre / lambda / coefficient tables (CSV or JSON)
    loewner   trace trajectories of the radial Loewner equation to CSV
    weinstein kernel-coefficient tables with oracle cross-checks, and the
              end-to-end decomposition report

Exit codes: 0 pass, 1 check failure, 2 usage error, 3 numeric error.
Reports are deterministic: same flags and seed give byte-identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from . import _fork
from . import functionals as fn
from . import legendre as lg
from . import loewner as lw
from . import suites
from . import univalent as uv
from . import weinstein as ws
from .errors import IoFailure, SchlichtError, UsageError
from .report import BoundReport

# suites with a single-case report for one function and index (verify --n)
FOCUS_SUITES = ("milin", "robertson", "area", "lebedev-milin", "weinstein")
# loewner trace solves and formats the two halves of a grid on two CPUs
# (_fork.beside) when it has at least SPLIT_MIN_WIDTH points and
# SPLIT_MIN_POINT_STEPS points x steps, or at least SPLIT_MIN_VALUES stored
# states (times x points).  On a 2-core host a fork and reap cost 3-6 ms plus
# the pickled half of the CSV.  One RK4 step took (one process -> split)
# 60 -> 72 us at 512 points, 84 -> 65 us at 1,024 and 228 -> 155 us at 4,096:
# some 160 steps at 1,024 points repay the fork, and 2^20 point-steps are
# several times that.  A state's line costs 6-7 us, and formatting alone took
# 53 -> 59 ms at 8,192 states, 114 -> 78 ms at 16,384 and 236 -> 143 ms at
# 32,768: 2^15 states are twice the break-even.
SPLIT_MIN_WIDTH = 1024
SPLIT_MIN_POINT_STEPS = 2**20
SPLIT_MIN_VALUES = 2**15


def _write_text(path, text):
    """Write to stdout for "-", else to path; relative paths land in $SCHLICHT_OUT."""
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        full = os.path.join(os.environ.get("SCHLICHT_OUT", "."), path)
        with open(full, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def _json_dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv_text(rows, header):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


# -- verify -----------------------------------------------------------------

def _focus_report(suite, name, n, t):
    """Single-case report for one function and index (verify --n)."""
    # the smallest order the check needs: log coefficients up to n, or odd
    # coefficients up to 2n - 1; never below 64
    order = max(64, 2 * n - 1 if suite == "robertson" else n + 1)
    rep = BoundReport(f"{suite}:{name}", 1e-9)
    f = uv.from_registry(name, order)
    if suite == "milin":
        rep.add(f"M_{n}({name})", fn.milin_functional(f, n), 0.0)
    elif suite == "robertson":
        rep.add(f"S_{n}({name})", float(fn.robertson_sums(f, n)[n - 1]), float(n))
    elif suite == "area":
        rep.add(f"area({name})", fn.area_sum(uv.to_sigma(f), order - 2), 1.0)
    elif suite == "lebedev-milin":
        lhs, rhs = fn.lebedev_milin_check(list(fn.log_coefficients(f, n)), n)
        rep.add(f"lebedev-milin_{n}({name})", lhs, rhs)
    else:  # weinstein
        worst, min_summand = ws.oracle_triangle([t], n)
        rep.add("oracle-discrepancy", worst, 1e-8)
        rep.add("min-lambda", -1e-12, float(ws.lambda_rows(t, n).min()))
        rep.add("min-summand", 0.0, min_summand)
    return rep


def cmd_verify(args):
    if args.n is None:
        if args.function is not None or args.t is not None:
            raise UsageError("--function and --t need --n (single-case mode)")
        reports = suites.run_suite(args.suite, seed=args.seed)
    elif args.suite not in FOCUS_SUITES:
        raise UsageError(
            f"--n needs a suite with a single-case report: {', '.join(FOCUS_SUITES)}"
        )
    elif args.t is not None and args.suite != "weinstein":
        raise UsageError("--t needs --suite weinstein")
    elif args.function is not None and args.suite == "weinstein":
        raise UsageError("--function does not apply to --suite weinstein")
    else:
        name = "koebe" if args.function is None else args.function
        t = 0.5 if args.t is None else args.t
        reports = [_focus_report(args.suite, name, args.n, t)]
    payload = {
        "seed": args.seed,
        "suites": [r.to_dict() for r in reports],
        "pass": all(r.all_pass for r in reports),
    }
    if args.format == "csv":
        rows = [
            [r.name, c.id, repr(c.lhs), repr(c.rhs), str(c.passed).lower()]
            for r in reports
            for c in sorted(r.cases, key=lambda c: c.id)
        ]
        text = _csv_text(rows, header=["suite", "id", "lhs", "rhs", "pass"])
    else:
        text = _json_dumps(payload)
    _write_text(args.out, text)
    for r in reports:
        n_bad = len(r.failures)
        sys.stderr.write(
            f"{r.name}: {'PASS' if r.all_pass else 'FAIL'} "
            f"({len(r.cases) - n_bad}/{len(r.cases)} cases)\n"
        )
    return 0 if payload["pass"] else 1


# -- table ------------------------------------------------------------------

def cmd_table(args):
    if args.kind == "legendre":
        rows = [[n] + row for n, row in enumerate(lg.coefficient_table(args.n))]
        header = ["degree"] + [f"x^{j}" for j in range(args.n + 1)]
        rows = [r + [""] * (len(header) - len(r)) for r in rows]
        data = {"kind": "legendre", "rows": rows}
    elif args.kind == "lambda":
        tab = ws.lambda_rows(args.t, args.n, args.k)
        header = ["k"] + [f"n={n}" for n in range(args.n + 1)]
        rows = [[k] + [repr(float(v)) for v in row] for k, row in enumerate(tab)]
        data = {"kind": "lambda", "t": args.t, "rows": rows}
    else:  # coefficients
        if args.n < 1:
            raise UsageError("--kind coefficients needs --n >= 1")
        f = uv.from_registry(args.function, args.n)
        header = ["n", "re", "im"]
        rows = [[n, repr(float(c.real)), repr(float(c.imag))] for n, c in enumerate(f.coeffs)]
        data = {"kind": "coefficients", "function": args.function, "rows": rows}
    if args.format == "csv":
        _write_text(args.out, _csv_text(data["rows"], header))
    else:
        _write_text(args.out, _json_dumps(data))
    return 0


# -- loewner trace ------------------------------------------------------------

def _parse_grid(desc):
    try:
        if desc.startswith("polar:"):
            nr, na = desc.split(":", 1)[1].split("x")
            nr, na = int(nr), int(na)
            radii = np.linspace(0.1, 0.8, nr)
            angles = 2 * np.pi * np.arange(na) / na
            return np.array([r * np.exp(1j * a) for r in radii for a in angles])
        if desc.startswith("points:"):
            pts = json.loads(desc.split(":", 1)[1])
            return np.array([complex(p[0], p[1]) for p in pts])
    except (ValueError, TypeError, IndexError) as exc:
        raise UsageError(f"malformed grid {desc!r}: {exc}") from None
    raise UsageError(f"unknown grid format {desc!r}")


def _parse_kappa(desc):
    try:
        if desc.startswith("const:"):
            times, values = [0.0], [complex(desc.split(":", 1)[1])]
        elif desc.startswith("steps:"):
            data = json.loads(desc.split(":", 1)[1])
            times = [float(d[0]) for d in data]
            values = [complex(d[1][0], d[1][1]) for d in data]
        else:
            raise UsageError(f"unknown driving format {desc!r}")
    except (ValueError, TypeError, IndexError) as exc:
        raise UsageError(f"malformed driving {desc!r}: {exc}") from None
    return lw.DrivingFunction.sampled(times, values)


def cmd_loewner_trace(args):
    kappa = _parse_kappa(args.kappa)
    grid = _parse_grid(args.grid)
    nsteps = int(round(args.T / args.step))
    stride = max(nsteps // args.samples, 1)
    while nsteps % stride:
        stride -= 1

    def blocks(points):
        # one string per stored time: the CSV lines of these points at that
        # time, each ended by a newline (an empty grid has no lines); the
        # lines are built column-wise, with repr of every float, and no
        # field ever needs quoting
        ev = lw.loewner_solve(kappa, points, args.T, args.step, store_stride=stride)
        z_text = [f"{z.real!r},{z.imag!r}" for z in ev.z_grid.tolist()]
        out = []
        for t, f, ef in zip(ev.times.tolist(), ev.states, ev.scaled):
            cols = [map(repr, part.tolist()) for part in (f.real, f.imag, ef.real, ef.imag)]
            rows = map(",".join, zip([f"{t!r},{zt}" for zt in z_text], *cols))
            out.append("\n".join([*rows, ""]))
        return out

    # RK4 steps each point by itself, so the halves of the grid are solved
    # and formatted apart, and each time's two blocks join into its lines
    width = grid.shape[0]
    halves = None
    if width >= 2 and _fork.can_fork() and (
        width >= SPLIT_MIN_WIDTH and width * nsteps >= SPLIT_MIN_POINT_STEPS
        or (nsteps // stride + 1) * width >= SPLIT_MIN_VALUES
    ):
        mid = width // 2
        halves = _fork.beside(lambda: blocks(grid[mid:]), lambda: blocks(grid[:mid]))
    if halves is None:
        chunks = blocks(grid)
    else:
        back, front = halves
        chunks = [block for pair in zip(front, back) for block in pair]
    _write_text(args.out, "".join(["t,z_re,z_im,f_re,f_im,etf_re,etf_im\n", *chunks]))
    return 0


# -- weinstein ----------------------------------------------------------------

def cmd_weinstein_lambda(args):
    vals = ws.lambda_rows(args.t, args.N, max_k=args.k)[args.k]
    payload = {
        "t": args.t,
        "k": args.k,
        "values": [float(v) for v in vals],
    }
    if args.oracle in ("fourier", "all"):
        four = ws.lambda_fourier(args.t, min(args.N, 20), max_k=args.k)[args.k]
        payload["fourier"] = [float(v) for v in four]
        payload["fourier_max_gap"] = float(np.max(np.abs(vals[: len(four)] - four)))
    if args.oracle == "all":
        leg = ws.lambda_legendre_route(args.t, min(args.N, 12), max_k=args.k)[0][args.k]
        payload["legendre"] = [float(v) for v in leg]
        payload["legendre_max_gap"] = float(np.max(np.abs(vals[: len(leg)] - leg)))
    _write_text(args.out, _json_dumps(payload))
    gaps = [payload.get("fourier_max_gap", 0.0), payload.get("legendre_max_gap", 0.0)]
    return 0 if max(gaps) < 1e-8 else 1


def cmd_weinstein_decompose(args):
    f = uv.from_registry(args.function, max(4 * args.n, 32))
    chain = lw.make_chain(args.function)
    res = ws.milin_decomposition_check(f, chain, n=args.n)
    payload = res.to_dict()
    scale = max(abs(res.lhs), 1.0)
    payload["pass"] = bool(res.residual <= 1e-10 * scale and res.min_g >= -1e-8)
    _write_text(args.out, _json_dumps(payload))
    return 0 if payload["pass"] else 1


# -- parser -------------------------------------------------------------------

def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonneg_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _nonneg_float(text):
    value = float(text)
    if not 0 <= value < math.inf:  # NaN fails this too
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {value}")
    return value


def _positive_float(text):
    value = float(text)
    if not 0 < value < math.inf:  # NaN fails this too
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {value}")
    return value


def build_parser():
    p = argparse.ArgumentParser(prog="schlicht", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("--suite", required=True)
    pv.add_argument("--n", type=_positive_int, default=None,
                    help="single-case report for one index (needs a suite in "
                         f"{', '.join(FOCUS_SUITES)})")
    pv.add_argument("--function", default=None, help="with --n: subject (default koebe)")
    pv.add_argument("--t", type=_nonneg_float, default=None,
                    help="with --n and --suite weinstein: time (default 0.5)")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--out", default="-")
    pv.add_argument("--format", choices=["json", "csv"], default="json")
    pv.set_defaults(func=cmd_verify)

    pt = sub.add_parser("table", help="emit a data table")
    pt.add_argument("--kind", choices=["legendre", "lambda", "coefficients"], required=True)
    pt.add_argument("--n", type=_nonneg_int, default=8)
    pt.add_argument("--k", type=_nonneg_int, default=None)
    pt.add_argument("--t", type=_nonneg_float, default=0.0)
    pt.add_argument("--function", default="koebe")
    pt.add_argument("--out", default="-")
    pt.add_argument("--format", choices=["json", "csv"], default="csv")
    pt.set_defaults(func=cmd_table)

    pl = sub.add_parser("loewner", help="loewner evolution tools")
    subl = pl.add_subparsers(dest="subcommand", required=True)
    plt = subl.add_parser("trace", help="trace trajectories to CSV")
    plt.add_argument("--kappa", default="const:-1")
    plt.add_argument("--T", type=_nonneg_float, default=8.0)
    plt.add_argument("--step", type=_positive_float, default=1e-3)
    plt.add_argument("--grid", default="polar:8x8")
    plt.add_argument("--samples", type=_positive_int, default=16, help="stored time samples")
    plt.add_argument("--out", default="trace.csv")
    plt.set_defaults(func=cmd_loewner_trace)

    pw = sub.add_parser("weinstein", help="kernel coefficients and decomposition")
    subw = pw.add_subparsers(dest="subcommand", required=True)
    pwl = subw.add_parser("lambda", help="kernel coefficient row with oracles")
    pwl.add_argument("--t", type=_nonneg_float, required=True)
    pwl.add_argument("--k", type=_nonneg_int, required=True)
    pwl.add_argument("--N", type=_nonneg_int, default=20)
    pwl.add_argument("--oracle", choices=["none", "fourier", "all"], default="all")
    pwl.add_argument("--out", default="-")
    pwl.set_defaults(func=cmd_weinstein_lambda)
    pwd = subw.add_parser("decompose", help="end-to-end decomposition check")
    pwd.add_argument("--function", default="koebe")
    pwd.add_argument("--n", type=_positive_int, default=6)
    pwd.add_argument("--out", default="-")
    pwd.set_defaults(func=cmd_weinstein_decompose)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except SchlichtError as exc:
        sys.stderr.write(f"numeric error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
