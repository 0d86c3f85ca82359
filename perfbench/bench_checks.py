"""Output checks for the benchmark workloads.

Each checker reads one CLI output (the bytes of the file passed as ``--out``,
or None when it is missing) and the process exit code, and compares it with
an independent reference.  The references are closed forms written here in
NumPy; none of them calls into ``schlicht``.

A checker returns a ``Check``:

* ``attempted`` / ``failed`` count the workload's operations (report cases,
  decompose invocations or stored trace samples);
* ``consistent`` is False when the output could not be read or contradicts
  the program's own claim (a verdict or exit code that disagrees with the
  numbers next to it, a trace that exits 0 but is off its closed form).
  A failure the program itself reports is a failed operation, not an
  inconsistency;
* ``abs_err`` / ``rel_err`` are the distances from the closed form that the
  benchmark reports as accuracy metrics (None where the output has none);
  over many values they are root mean squares, which, unlike a maximum over
  the grid, do not move with the seed-drawn rotation of the trace.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass

import numpy as np

# The report of ``verify --suite all`` holds this many cases.
GATE_CASES = 277
# The tool's own decomposition gate: |rhs - exact| <= 1e-2 max(|exact|, 1).
DECOMPOSE_RTOL = 1e-2
MIN_G_FLOOR = -1e-8
# RK4 at h = 1e-3 stays within 1.1e-10 of the closed form on the polar grid;
# a tolerance 100 times wider still rejects a 1e-6 change of one value.
TRACE_TOL = 1e-8


@dataclass
class Check:
    attempted: int
    failed: int
    consistent: bool
    abs_err: float | None = None
    rel_err: float | None = None
    note: str = ""


def _all_failed(attempted, note):
    return Check(attempted, attempted, False, note=note)


# -- verify --suite all ------------------------------------------------------

def identity_decomposition_exact(n):
    """sum_k (4/k)(n-k+1): both sides of the decomposition for f(z) = z."""
    return sum(4.0 / k * (n - k + 1) for k in range(1, n + 1))


def check_gate(data, rc, expected_cases=GATE_CASES):
    """A report case fails when its ``pass`` is false.

    A missing report, an exit code other than 0 or 1, or a case count other
    than ``expected_cases`` fails every case.  The accuracy metrics come from
    the weinstein suite's Koebe and identity decompositions, when present.
    """
    if data is None or rc not in (0, 1):
        return _all_failed(expected_cases, f"exit code {rc}, report present: {data is not None}")
    try:
        report = json.loads(data)
        suites = report["suites"]
        cases = [(s["tolerance"], c) for s in suites for c in s["cases"]]
    except (ValueError, KeyError, TypeError) as exc:
        return _all_failed(expected_cases, f"unreadable report: {exc!r}")
    if len(cases) != expected_cases:
        return _all_failed(expected_cases, f"{len(cases)} cases, expected {expected_cases}")
    failed = sum(1 for _, c in cases if not c["pass"])
    # the verdict of every case must follow from its own numbers
    consistent = all(bool(c["pass"]) == bool(c["lhs"] <= c["rhs"] + tol) for tol, c in cases)
    consistent &= report["pass"] == (failed == 0) and rc == (0 if failed == 0 else 1)
    abs_err = rel_err = None
    meta = next((s.get("meta", {}) for s in suites if s["suite"] == "weinstein"), {})
    if "decomposition_koebe" in meta:
        abs_err = abs(meta["decomposition_koebe"]["rhs_extrapolated"])
    if "decomposition_identity" in meta:
        ident = meta["decomposition_identity"]
        exact = identity_decomposition_exact(ident["n"])
        rel_err = abs(ident["rhs_extrapolated"] - exact) / exact
    return Check(len(cases), failed, consistent, abs_err, rel_err)


# -- weinstein decompose -----------------------------------------------------

def check_decompose(data, rc, function, n):
    """One invocation: fails on a nonzero exit, on missing the closed form by
    more than the tool's own gate, or on min_g below -1e-8.

    The exact right-hand side is 0 for the Koebe chain and
    sum_k (4/k)(n-k+1) for the identity chain.
    """
    exact = 0.0 if function == "koebe" else identity_decomposition_exact(n)
    if data is None or rc not in (0, 1):
        return _all_failed(1, f"exit code {rc}, output present: {data is not None}")
    try:
        res = json.loads(data)
        rhs, min_g, claimed = float(res["rhs_extrapolated"]), float(res["min_g"]), res["pass"]
    except (ValueError, KeyError, TypeError) as exc:
        return _all_failed(1, f"unreadable output: {exc!r}")
    gap = abs(rhs - exact)
    ok = gap <= DECOMPOSE_RTOL * max(abs(exact), 1.0) and min_g >= MIN_G_FLOOR
    consistent = claimed == ok and rc == (0 if ok else 1)
    check = Check(1, int(rc != 0 or not ok), consistent, note=f"|rhs - exact| = {gap:.3e}")
    if function == "koebe":
        check.abs_err = gap
    else:
        check.rel_err = gap / exact
    return check


# -- loewner trace -------------------------------------------------------------

def koebe_transition(z, t):
    """w_t(z) with z/(1-z)^2 = e^t w/(1-w)^2 and |w| < 1, elementwise."""
    u = np.exp(-t) * z / (1.0 - z) ** 2
    root = np.sqrt(4.0 * u + 1.0)
    w = 2.0 * u / (1.0 + 2.0 * u + root)
    outside = np.abs(w) >= 1.0
    if np.any(outside):
        uo = u[outside]
        w[outside] = (2.0 * uo + 1.0 + root[outside]) / (2.0 * uo)
    return w


def polar_grid(nr, na):
    """The points of ``--grid polar:<nr>x<na>``, radius-major."""
    radii = np.linspace(0.1, 0.8, nr)
    angles = 2 * np.pi * np.arange(na) / na
    return (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()


def check_trace(data, rc, kappa, nr, na, T, step, samples):
    """Every stored sample f(z, t) against the rotated Koebe flow
    -conj(kappa) w_t(-kappa z), which solves the radial Loewner equation
    for constant driving kappa on the unit circle.

    A sample fails when f or e^t f is off by more than TRACE_TOL (relative
    to e^t for the scaled column), or when its t or z is not the requested
    one.  A failed process or a malformed file fails every sample.
    """
    nsteps = int(round(T / step))
    stride = max(nsteps // max(samples, 1), 1)
    while nsteps % stride:
        stride -= 1
    times = step * stride * np.arange(nsteps // stride + 1)
    grid = polar_grid(nr, na)
    expected = times.size * grid.size
    if data is None or rc != 0:
        return _all_failed(expected, f"exit code {rc}, output present: {data is not None}")
    try:
        rows = np.loadtxt(io.StringIO(data.decode()), delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        return _all_failed(expected, f"unreadable trace: {exc!r}")
    if rows.shape != (expected, 7):
        return _all_failed(expected, f"trace shape {rows.shape}, expected ({expected}, 7)")
    t = np.repeat(times, grid.size)
    z = np.tile(grid, times.size)
    f = rows[:, 3] + 1j * rows[:, 4]
    etf = rows[:, 5] + 1j * rows[:, 6]
    ref = -np.conj(kappa) * koebe_transition(-kappa * z, t)
    err = np.abs(f - ref)
    scaled_err = np.abs(etf - np.exp(t) * ref)
    bad = (
        (np.abs(rows[:, 0] - t) > 1e-9)
        | (np.abs(rows[:, 1] + 1j * rows[:, 2] - z) > 1e-12)
        | ~(err <= TRACE_TOL)
        | ~(scaled_err <= TRACE_TOL * np.exp(t))
    )
    failed = int(np.count_nonzero(bad))
    # f itself shrinks like e^{-t}, so its absolute error sits below the
    # roundoff floor; the scaled map e^t f carries it at a readable size
    return Check(
        expected, failed, failed == 0,
        abs_err=float(np.sqrt(np.mean(scaled_err**2))),
        rel_err=float(np.sqrt(np.mean((err / np.abs(ref)) ** 2))),
        note=f"max |f - closed form| = {err.max():.3e}",
    )


def kappa_from_seed(seed):
    """kappa = e^{i alpha}, alpha uniform in [0, 2 pi) drawn from the seed."""
    alpha = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi)
    return complex(math.cos(alpha), math.sin(alpha))
