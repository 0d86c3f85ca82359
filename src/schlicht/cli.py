"""Command-line interface.

Subcommands
    verify    run verification suites, write a report, exit 0 iff green
    table     emit legendre / lambda / coefficient tables (CSV or JSON)
    loewner   trace trajectories of the radial Loewner equation to CSV
    weinstein kernel-coefficient tables with oracle cross-checks, and the
              end-to-end decomposition report

Exit codes: 0 pass, 1 check failure, 2 usage error or an unwritable --out,
3 numeric error.
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
from itertools import repeat

# an idle OpenBLAS worker spins CPU away, and no product here is big enough to use it
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

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
        raise IoFailure(f"cannot write {path}: {exc.strerror or exc}") from exc


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
    rep = BoundReport(f"{suite}:{name}")
    f = uv.from_registry(name, order)
    # 1e-9 for roundoff: Koebe and its rotations meet these four bounds with
    # equality (M_500(koebe) = +1.1e-14, S_1000(koebe-rot:2.5) = 1000 + 3.4e-13)
    if suite == "milin":
        rep.add(f"M_{n}({name})", fn.milin_functional(f, n), 1e-9)
    elif suite == "robertson":
        rep.add(f"S_{n}({name})", float(fn.robertson_sums(f, n)[n - 1]), n + 1e-9)
    elif suite == "area":
        rep.add(f"area({name})", fn.area_sum(uv.to_sigma(f), order - 2), 1.0 + 1e-9)
    elif suite == "lebedev-milin":
        lhs, rhs = fn.lebedev_milin_check(list(fn.log_coefficients(f, n)), n)
        rep.add(f"lebedev-milin_{n}({name})", lhs, rhs + 1e-9)
    else:  # weinstein
        table = ws.lambda_rows(t, n)
        worst, min_summand = ws.oracle_triangle([t], [table])
        rep.add("oracle-discrepancy", worst, 1e-8)
        rep.add("min-lambda", -1e-12, float(table.min()))
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
    reads = {"legendre": (), "lambda": ("k", "t"), "coefficients": ("function",)}[args.kind]
    for flag in ("k", "t", "function"):
        if flag not in reads and getattr(args, flag) is not None:
            raise UsageError(f"--{flag} does not apply to --kind {args.kind}")
    if args.kind == "legendre":
        if args.n > lg.MAX_DEGREE:
            raise UsageError(f"--kind legendre needs --n <= legendre.MAX_DEGREE = {lg.MAX_DEGREE}")
        rows = [[n] + row for n, row in enumerate(lg.coefficient_table(args.n))]
        header = ["degree"] + [f"x^{j}" for j in range(args.n + 1)]
        rows = [r + [""] * (len(header) - len(r)) for r in rows]
        data = {"kind": "legendre", "rows": rows}
    elif args.kind == "lambda":
        t = 0.0 if args.t is None else args.t
        tab = ws.lambda_rows(t, args.n, args.k)
        header = ["k"] + [f"n={n}" for n in range(args.n + 1)]
        rows = [[k] + [repr(float(v)) for v in row] for k, row in enumerate(tab)]
        data = {"kind": "lambda", "t": t, "rows": rows}
    else:  # coefficients
        if args.n < 1:
            raise UsageError("--kind coefficients needs --n >= 1")
        name = "koebe" if args.function is None else args.function
        f = uv.from_registry(name, args.n)
        header = ["n", "re", "im"]
        rows = [[n, repr(float(c.real)), repr(float(c.imag))] for n, c in enumerate(f.coeffs)]
        data = {"kind": "coefficients", "function": name, "rows": rows}
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
            if min(nr, na) < 0:
                raise ValueError("the counts must be >= 0")
            radii = np.linspace(0.1, 0.8, nr)
            angles = 2 * np.pi * np.arange(na) / na
            return (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()  # radius-major
        if desc.startswith("points:"):
            pts = json.loads(desc.split(":", 1)[1])
            if not isinstance(pts, list):
                raise TypeError("points must be a list of [re, im] pairs")
            return np.array([complex(re, im) for re, im in pts])
    except (ValueError, TypeError, IndexError) as exc:
        raise UsageError(f"malformed grid {desc!r}: {exc}") from None
    raise UsageError(f"unknown grid format {desc!r}")


def _parse_kappa(desc):
    try:
        if desc.startswith("const:"):
            times, values = [0.0], [complex(desc.split(":", 1)[1])]
        elif desc.startswith("steps:"):
            data = json.loads(desc.split(":", 1)[1])
            times = [float(t) for t, _ in data]
            values = [complex(re, im) for _, (re, im) in data]
        else:
            raise UsageError(f"unknown driving format {desc!r}")
    except (ValueError, TypeError, IndexError) as exc:
        raise UsageError(f"malformed driving {desc!r}: {exc}") from None
    return lw.DrivingFunction.sampled(times, values)


def _float_texts(a):
    """[repr(x) for x in a.tolist()] for a 1-D float64 array, from orjson's digits.

    orjson writes the shortest round-trip digits, as repr does, and in repr's
    notation for 1e-4 <= |x| < 1e16 and for +-0.0; the other values (about 5 %
    of a trace; orjson writes 3e-5 as 0.00003, 1e16 as 1e16 and nan or inf as
    null) take repr itself.
    """
    import orjson  # it imports zoneinfo; only the trace pays for that

    a = np.ascontiguousarray(a, dtype=np.float64)
    if not a.size:
        return []
    texts = orjson.dumps(a, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    size = np.abs(a)
    odd = np.flatnonzero((a != 0) & ~((size >= 1e-4) & (size < 1e16)))
    for i, x in zip(odd.tolist(), a[odd].tolist()):
        texts[i] = repr(x)
    return texts


def cmd_loewner_trace(args):
    kappa = _parse_kappa(args.kappa)
    grid = _parse_grid(args.grid)
    ev = lw.loewner_solve(kappa, grid, args.T, args.step, samples=args.samples)
    times, scaled = ev.times.tolist(), ev.scaled

    # one block per stored time: its CSV lines, each ended by a newline (an
    # empty grid has no lines); the lines are built column-wise, with repr's
    # text of every float, and no field ever needs quoting
    z_parts = [_float_texts(ev.z_grid.real), _float_texts(ev.z_grid.imag)]
    blocks = ["t,z_re,z_im,f_re,f_im,etf_re,etf_im\n"]
    for t, f, ef in zip(times, ev.states, scaled):
        parts = [_float_texts(part) for part in (f.real, f.imag, ef.real, ef.imag)]
        rows = map(",".join, zip(repeat(repr(t)), *z_parts, *parts))
        blocks.append("\n".join([*rows, ""]))
    _write_text(args.out, "".join(blocks))
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
        four = ws.lambda_fourier(args.t, args.N, max_k=args.k)[args.k]
        payload["fourier"] = [float(v) for v in four]
        payload["fourier_max_gap"] = float(np.max(np.abs(vals - four)))
    if args.oracle == "all":
        leg = ws.lambda_legendre_route(args.t, args.N, max_k=args.k)[0][args.k]
        payload["legendre"] = [float(v) for v in leg]
        payload["legendre_max_gap"] = float(np.max(np.abs(vals - leg)))
    _write_text(args.out, _json_dumps(payload))
    gaps = [payload.get("fourier_max_gap", 0.0), payload.get("legendre_max_gap", 0.0)]
    return 0 if max(gaps) < 1e-8 else 1


def cmd_weinstein_decompose(args):
    res = ws.milin_decomposition_check(lw.make_chain(args.function), n=args.n)
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
    pt.add_argument("--k", type=_nonneg_int, help="lambda only: last row (default n)")
    pt.add_argument("--t", type=_nonneg_float, help="lambda only: time (default 0)")
    pt.add_argument("--function", help="coefficients only: subject (default koebe)")
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
