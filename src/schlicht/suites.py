"""Named verification suites.

Each suite function returns a BoundReport; the CLI serializes them and
maps pass/fail onto exit codes.  A suite takes at most ``seed``; its
orders are fixed so that series truncation tails sit below the bounds the
cases print (the reports record the order used so near-boundary failures
can be attributed).
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels
from . import functionals as fn
from . import legendre as lg
from . import loewner as lw
from . import series as ps
from . import univalent as uv
from . import weinstein as ws
from .errors import UnknownSuite
from .report import BoundReport

E = math.e


def suite_area(seed=0):
    order = 64
    rep = BoundReport("area")
    g = uv.to_sigma(uv.koebe(order))
    target = fn.area_sum(g, order - 2)
    rep.add("koebe-equality", abs(target - 1.0), 1e-12)
    rep.add("koebe-bound", target, 1.0)
    rng = uv.SeededDraws(seed)
    rows = []
    for _ in range(50):
        theta = float(rng.uniform(0, 2 * math.pi)) if rng.integers(0, 2) else 0.0
        rows.append(uv.from_quotient(0, float(rng.uniform(0.1, 0.95)), theta, order).coeffs)
    # every reciprocal in one long division
    for i, b in enumerate(uv.to_sigma(np.array(rows))):
        rep.add(f"random-{i:02d}", fn.area_sum(b, order - 2), 1.0)
    rep.meta["order"] = order
    return rep


def suite_bounds():
    rep = BoundReport("bounds")
    k64 = uv.koebe(64)
    # integer-valued coefficients, exact
    exact = all(k64.coeffs[n] == n for n in range(65))
    rep.add("koebe-coefficients-exact", 0.0 if exact else 1.0, 0.0)
    # sharp growth/distortion on the positive axis; order chosen so the
    # truncation tail is far below the relative bound 1e-9 at r = 0.7
    ks = uv.koebe(160)
    fp = ks.series.derivative()
    for r in (0.3, 0.5, 0.7):
        growth = r / (1 - r) ** 2
        dist = (1 + r) / (1 - r) ** 3
        rep.add(f"growth-sharp-r={r}", abs(abs(ks.eval(r)) - growth) / growth, 1e-9)
        rep.add(f"distortion-sharp-r={r}", abs(abs(ps.evaluate(fp, r)) - dist) / dist, 1e-9)
        q = abs(r * ps.evaluate(fp, r) / ks.eval(r))
        rep.add(f"zf'/f-sharp-r={r}", abs(q - (1 + r) / (1 - r)) / ((1 + r) / (1 - r)), 1e-9)
    # full envelope on a polar grid
    kg = uv.koebe(1024)
    rr = np.linspace(0.05, 0.95, 32)
    th = 2 * np.pi * np.arange(32) / 32
    grid = [r * np.exp(1j * a) for r in rr for a in th]
    failed = fn.pointwise_bounds_check(kg, grid).failed
    rep.add("polar-grid-failures", float(np.count_nonzero(failed)), 0.0)
    rep.meta["orders"] = {"coeff": 64, "sharp": 160, "grid": 1024}
    return rep


def suite_littlewood():
    order = 512
    rep = BoundReport("littlewood")
    f = uv.koebe(order)
    for n in (4, 8, 16):
        r = fn.littlewood_radius(n)
        m1 = fn.integral_mean(f, 1.0, r)
        rep.add(f"M1-bound-n={n}", m1, r / (1 - r))
        # the chain |a_n| <= (1/(1-r)) r^{-(n-1)} = n (1 + 1/(n-1))^{n-1} < e n
        chain = (1.0 / (1.0 - r)) * r ** (-(n - 1.0))
        factor = fn.littlewood_factor(n)
        rep.add(f"factor-match-n={n}", abs(chain - factor), 1e-8 * factor)
        rep.add(f"factor-below-en-n={n}", factor, E * n)
        rep.add(f"coeff-chain-n={n}", float(abs(f.coeffs[n])), factor)
    # Parseval tie between quadrature and coefficients
    m2 = fn.integral_mean(f, 2.0, 0.3)
    parseval = math.sqrt(sum(n * n * 0.3 ** (2 * n) for n in range(1, order + 1)))
    rep.add("parseval-p=2-r=0.3", abs(m2 - parseval), 1e-8)
    rep.meta["order"] = order
    return rep


def suite_robertson():
    order = 64
    rep = BoundReport("robertson")
    k = uv.koebe(order)
    sums = fn.robertson_sums(k, 30)
    for n in (1, 5, 15, 30):
        rep.add(f"koebe-equality-n={n}", abs(sums[n - 1] - n), 1e-10)
    ident = fn.robertson_sums(uv.identity_map(order), 10)
    rep.add("identity-sums", float(np.max(np.abs(ident - 1.0))), 0.0)
    dil = fn.robertson_sums(uv.from_quotient(0, 0.8, 0.0, order), 10)
    for n in (2, 10):
        rep.add(f"dilation-strict-n={n}", dil[n - 1], n - 1e-6)
    return rep


def suite_milin(seed=0):
    order = 96
    rep = BoundReport("milin")
    # one log series: gamma_k depends on the coefficients up to degree k only,
    # so gamma_1..gamma_n of the series to N = 30 are those of the series to n
    gk = fn.log_coefficients(uv.koebe(order), 30)
    for n in (1, 10, 30):
        rep.add(f"koebe-zero-n={n}", abs(fn.milin_double_sum(gk[:n])), 1e-10)
    rep.add("identity-n=1", abs(fn.milin_functional(uv.identity_map(order), 1) + 1.0), 1e-12)
    # the weighted form is -4 times the double sum
    for n in (5, 20):
        m = fn.milin_double_sum(gk[:n])
        wf = fn.milin_weighted_sum(gk[:n])
        rep.add(f"weighted-relation-n={n}", abs(wf + 4.0 * m), 1e-10)
    # M_20 <= 0 up to roundoff: rotated Koebe draws reach +1.7e-14 (seeds < 1000);
    # every draw's gamma_k in closed form from its pair, all sums in one pass
    rng = uv.SeededDraws(seed)
    c, rho, theta = zip(*(uv.random_pair(rng) for _ in range(100)))
    sums = fn.milin_double_sum(fn.pair_log_coefficients(c, rho, theta, 20))
    for i, m in enumerate(sums.tolist()):
        rep.add(f"random-{i:03d}", m, 1e-12)
    rep.meta["order"] = order
    return rep


def _lebedev_milin_alphas(seed, trials):
    """The seeded trials' alpha rows, as {n: (trials of length n, n) array}.

    A trial is n = integers(1, 17), then uniform(-2, 2, n) for the real
    parts and again for the imaginary parts; alpha is clamped to |alpha| <= 2.
    Each trial's 2n values come as one array of raw draws r, and -2 + 4 r is
    uniform's float, so the rows are the per-draw values bit for bit.
    """
    rng = uv.SeededDraws(seed)
    draws = {}
    for _ in range(trials):
        n = int(rng.integers(1, 17))
        draws.setdefault(n, []).append(rng.random(2 * n))
    alphas = {}
    for n, rows in draws.items():
        x = -2 + 4 * np.array(rows)
        alpha = x[:, :n] + 1j * x[:, n:]
        scale = np.abs(alpha)
        alphas[n] = np.where(scale > 2.0, alpha * 2.0 / scale, alpha)
    return alphas


def suite_lebedev_milin(seed=0):
    trials = 1000
    rep = BoundReport("lebedev-milin")
    lhs, rhs = fn.lebedev_milin_check([0.0], 1)
    rep.add("alpha-zero-lhs", abs(lhs - 1.0), 1e-12)
    rep.add("alpha-zero-rhs", abs(rhs - 2.0 * math.exp(-0.5)), 1e-12)
    for n in (2, 8, 16):
        gamma = complex(math.cos(0.7), math.sin(0.7))
        alpha = [gamma**k / k for k in range(1, n + 1)]
        lhs, rhs = fn.lebedev_milin_check(alpha, n)
        rep.add(f"equality-case-lhs-n={n}", abs(lhs - (n + 1)), 1e-10)
        rep.add(f"equality-case-gap-n={n}", abs(rhs - lhs), 1e-10)
    worst = -math.inf
    for alpha in _lebedev_milin_alphas(seed, trials).values():
        lhs, rhs = fn.lebedev_milin_sides(alpha)
        worst = max(worst, *(a - b for a, b in zip(lhs, rhs)))
    rep.add("random-trials-max-violation", worst, 0.0)
    rep.meta["trials"] = trials
    return rep


def suite_legendre():
    rep = BoundReport("legendre")
    exact = all(
        lg.rodrigues_coeffs(n) == lg.legendre_poly(n) == lg.explicit_sum_coeffs(n)
        for n in range(21)
    )
    rep.add("exact-route-agreement", 0.0 if exact else 1.0, 0.0)
    # one recurrence per set of points: entry [n, ..., k] of a table is S_n^k
    at_one = lg.seminormalized_table(20, 1.0)[:, 0]
    rep.add("value-at-one", max(abs(v - 1.0) for v in at_one.tolist()), 0.0)
    xs = np.array([-0.9, -0.3, 0.0, 0.3, 0.9])
    worst = max(
        abs(v - lg.generating_closed_form(x, t))
        for t in (0.1, 0.5)
        for x, v in zip(xs.tolist(), lg.generating_partial_sum(xs, t, 64).tolist())
    )
    rep.add("generating-function", worst, 1e-10)
    zs = np.array([-0.95, -0.3, 0.0, 0.5, 0.9])
    pz = lg.seminormalized_table(20, zs)[:, :, 0]
    worst = max(abs(d) for d in (lg.schlafli_coeff(np.arange(21), zs) - pz).ravel().tolist())
    rep.add("schlafli-vs-polynomial", worst, 1e-8)
    worst = max(abs(lg.ode_residual(n, x)) for n in range(1, 21) for x in (-0.7, -0.2, 0.3, 0.9))
    rep.add("ode-residual", worst, 1e-9)
    t1s = np.linspace(0.1, math.pi - 0.1, 5)
    phis = 2 * math.pi * np.arange(8) / 8
    degrees = np.arange(1, 11)
    worst = np.max(lg.addition_theorem_residual(t1s[:, None, None], t1s[:, None], phis, degrees))
    rep.add("addition-theorem", worst, 1e-9)
    # orthogonality by 13-node Gauss-Legendre, exact for the products of
    # degree <= 24, so the case measures P_n and not its quadrature
    xs, wgt = np.polynomial.legendre.leggauss(13)
    worst = 0.0
    vals = lg.seminormalized_table(12, xs)[:, :, 0]
    for n in range(13):
        for m in range(n, 13):
            ip = float(np.sum(wgt * vals[n] * vals[m]))
            expect = 2.0 / (2 * n + 1) if n == m else 0.0
            worst = max(worst, abs(ip - expect))
    rep.add("orthogonality", worst, 1e-14)
    # negative orders: direct Rodrigues-Leibniz route against the factorial identity
    xs = np.linspace(-0.98, 0.98, 50)
    table = lg.seminormalized_table(10, xs)
    worst = 0.0
    for n in range(1, 11):
        for m in range(1, n + 1):
            direct = lg.assoc_legendre_direct(n, -m, xs)
            via_id = table[n, :, m] * lg.assoc_scale(n, -m)
            worst = max(worst, float(np.max(np.abs(direct - via_id))))
    rep.add("negative-order-identity", worst, 1e-10)
    return rep


def suite_loewner():
    rep = BoundReport("loewner")
    drv = lw.DrivingFunction.constant(-1.0)
    pts = [0.3, 0.5, 0.5j]
    # one solve to T = 10 at h = 1e-3, stored every 2 time units: row 4 is T = 8
    ev = lw.loewner_solve(drv, pts, 10.0, 1e-3, samples=5)
    T = 8.0
    for i, z in enumerate(pts):
        exact = lw.koebe_transition(z, T)
        rep.add(f"solver-vs-closed-form-z={z}", abs(ev.states[4, i] - exact), 1e-9)
        # e^T f_T -> k(z): 1e-3 plus the analytic finite-horizon tail
        gap = abs(np.exp(T) * ev.states[4, i] - lw.koebe_map(z))
        allow = 1e-3 + 2.5 * math.exp(-T) * abs(lw.koebe_map(z)) ** 2
        rep.add(f"hull-limit-z={z}", gap, allow)
    # at T = 10 the plain 1e-3 band holds at every test point
    for i, z in enumerate(pts):
        gap = abs(np.exp(10.0) * ev.states[5, i] - lw.koebe_map(z))
        rep.add(f"hull-limit-T=10-z={z}", gap, 1e-3)
    # the RK4 oracle converges at fourth order under step halving; at these
    # steps its error at T = 2 stays 3e4 ulps or more above roundoff
    errs = []
    for hh in (0.04, 0.02, 0.01):
        nsteps = int(round(2.0 / hh))
        traj, _ = _kernels.rk4_loewner(
            np.array([0.5 + 0j]), np.full(nsteps, -1.0 + 0j), hh, nsteps, False
        )
        errs.append(abs(traj[-1, 0] - lw.koebe_transition(0.5, 2.0)))
    for i in range(2):
        ratio = errs[i] / errs[i + 1]
        rep.add(f"h-halving-ratio-low-{i}", 15.0, ratio)
        rep.add(f"h-halving-ratio-high-{i}", ratio, 17.0)
    # Herglotz positivity on the numeric chain
    ch = lw.NumericChain(drv, h=2e-3)
    ts, rs = np.meshgrid((0.5, 1.5), (0.35, 0.7), indexing="ij")
    pv, _ = ch.p_on_circle(ts, rs, 32)
    rep.add("herglotz-positivity-min", 0.0, float(pv.real.min()))
    rep.meta["herglotz_samples"] = pv.size
    # chain and transition time-regularity bounds
    kc = lw.KoebeChain()
    for z in (0.1, 0.45j, 0.6, -0.8, 0.5 + 0.5j):
        for s, t in ((0.0, 0.1), (0.0, 0.0), (0.3, 1.0), (1.0, 2.5)):
            sub = lw.lipschitz_bound_check(kc, z, s, t)
            rep.add(f"lipschitz-z={z}-s={s}-t={t}", float(len(sub.failures)), 0.0)
    # log-coefficient routes
    ck = lw.chain_log_coeffs(kc, 1.2, 8)
    rep.add("koebe-chain-log-coeffs", float(np.max(np.abs(ck - 2.0 / np.arange(1, 9)))), 1e-10)
    ckn = lw.chain_log_coeffs(ch, 1.0, 3)
    rep.add("numeric-chain-log-coeffs", float(np.max(np.abs(ckn - 2.0 / np.arange(1, 4)))), 1e-10)
    # subordination: |w_t(z)| non-increasing along trajectories
    ev2 = lw.loewner_solve(drv, [0.2, 0.6, 0.8j], 4.0, 2e-3, samples=10)
    mods = np.abs(ev2.states)
    rep.add("subordination-monotone", float(np.max(np.diff(mods, axis=0))), 1e-12)
    return rep


def suite_weinstein():
    rep = BoundReport("weinstein")
    times = (0.0, 0.5, 1.0, 2.0)
    tables = [ws.lambda_rows(t, 12) for t in times]
    worst, min_summand = ws.oracle_triangle(times, tables)
    rep.add("oracle-triangle", worst, 1e-8)
    rep.add("route-min-summand", 0.0, min_summand)
    for t, tab in zip(times, tables):
        nonneg = tab.min() >= -1e-12
        tri = np.all(np.abs(np.tril(tab, -1)) <= 1e-12)
        rep.add(f"lambda-nonneg-t={t}", 0.0 if nonneg else 1.0, 0.0)
        rep.add(f"lambda-triangular-t={t}", 0.0 if tri else 1.0, 0.0)
        kk = np.arange(1, 11)
        worst = float(np.max(np.abs(tab[kk, kk] - np.exp(-kk * t))))
        rep.add(f"lambda-decay-law-t={t}", worst, 1e-10)
    pattern = ws.lambda_rows(0.0, 11, max_k=0)[0]
    expect = np.array([1.0, 0.0] * 6)
    rep.add("lambda-alternation-t=0", float(np.max(np.abs(pattern - expect))), 1e-12)
    # boundary integrals for the koebe chain: decreasing in r along the
    # quadrature ladder, and 0 at r = 1 by the exact pairing
    kc = lw.KoebeChain()
    ladder = np.array([ws._a_k_row(kc, r, 2048, 6) for r in (0.9, 0.99, 0.999)])
    limit = ws.a_k_pairing(kc, 6)
    for k in range(1, 7):
        rep.add(f"a{k}-monotone", float(np.max(np.diff(ladder[:, k - 1]))), 0.0)
        rep.add(f"a{k}-limit", abs(float(limit[k - 1])), 1e-12)
    # generating identity
    sub = ws.milin_generating_identity(uv.koebe(24), 20, [0.0, 0.3, 0.5, 0.2j - 0.1])
    rep.add("generating-identity-koebe", float(len(sub.failures)), 0.0)
    sub = ws.milin_generating_identity(uv.identity_map(24), 20, [0.0, 0.3, 0.45j])
    rep.add("generating-identity-identity", float(len(sub.failures)), 0.0)
    # end-to-end decomposition, exact in r and t
    n = 20
    res = ws.milin_decomposition_check(kc, n=n)
    rep.add("decomposition-koebe-lhs", abs(res.lhs), 1e-10)
    rep.add("decomposition-koebe-rhs-limit", abs(res.rhs_extrapolated), 1e-12)
    rep.add("decomposition-koebe-min-g", -1e-12, res.min_g)
    res2 = ws.milin_decomposition_check(lw.KoebeChain(rho=0.0), n=n)
    rep.add("decomposition-identity-relative", res2.residual / abs(res2.lhs), 1e-12)
    rep.add("decomposition-identity-min-g", -1e-12, res2.min_g)
    rep.meta["decomposition_koebe"] = res.to_dict()
    rep.meta["decomposition_identity"] = res2.to_dict()
    return rep


SUITES = {
    "area": suite_area,
    "bounds": suite_bounds,
    "littlewood": suite_littlewood,
    "robertson": suite_robertson,
    "milin": suite_milin,
    "lebedev-milin": suite_lebedev_milin,
    "legendre": suite_legendre,
    "loewner": suite_loewner,
    "weinstein": suite_weinstein,
}

# the suites that draw from a seed; the others take no argument
SEEDED = ("area", "milin", "lebedev-milin")


def run_suite(name, seed=0):
    """Run one named suite (or 'all', each suite in SUITES order); returns a list of reports."""
    if name == "all":
        return [run_suite(s, seed=seed)[0] for s in SUITES]
    if name not in SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    if name in SEEDED:
        return [SUITES[name](seed=seed)]
    return [SUITES[name]()]
