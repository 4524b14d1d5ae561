"""Acceptance gate: one test per certified capability, run at the
advertised tolerances. Each line of ``pytest -v`` on this file is one
pass/fail verdict."""

import json

import numpy as np
import pytest
from scipy.integrate import quad

from hskdv import cli, fre, ibps, picard, regions, sharpness, spectral
from hskdv.phases import PHASES, Coefficients, eval_phase, phase_floor

from fractions import Fraction
import random

F = Fraction


# --------------------------------------------------------------- 1


def _exact_phase(tag, a, freqs):
    """PHASES[tag] at the float inputs in exact rational arithmetic,
    rounded once to the nearest double.

    Every double is an integer over a power of two, so one common 2**K
    turns all frequencies into Python ints. Each row is homogeneous of
    degree 3 in its frequencies and affine in a, so with a = p/q exactly,
    the phase is (q*f(0) + p*(f(1) - f(0))) / (q * 2**(3K)), where f(c)
    is the row polynomial at a = c on the ints.
    """
    rows = [np.ravel(f).tolist() for f in freqs]
    K = max(v.as_integer_ratio()[1].bit_length() - 1
            for row in rows for v in row)
    ints = [np.array([n << (K - d.bit_length() + 1)
                      for n, d in map(float.as_integer_ratio, row)],
                     dtype=object) for row in rows]
    poly = PHASES[tag][1]
    f0, f1 = poly(0, *ints), poly(1, *ints)
    p, q = Fraction(a).as_integer_ratio()
    return ((q * f0 + p * (f1 - f0)) / (q << 3 * K)).astype(float)


def _oracle_error(tag, a, freqs):
    """max |eval_phase - exact| / (1 + |exact|) against _exact_phase."""
    exact = _exact_phase(tag, a, freqs)
    return np.max(np.abs(eval_phase(tag, a, freqs) - exact)
                  / (1.0 + np.abs(exact)))


def test_criterion_1_phase_algebra():
    rng = np.random.default_rng(101)
    n = 10_000
    for a in (0.25, 0.5, 1.0, 2.0, 4.0):
        x1 = rng.uniform(-50, 50, n)
        x2 = rng.uniform(-50, 50, n)
        assert _oracle_error("Phi1u", a, (x1, x2)) <= 1e-9
    for a in (-2.0, -0.125, 0.5, 3.0):
        x1 = rng.uniform(-50, 50, n)
        x2 = rng.uniform(-50, 50, n)
        assert _oracle_error("Phiv", a, (x1, x2)) <= 1e-9
    x2, x11, x12 = rng.uniform(-50, 50, (3, n))
    assert _oracle_error("Theta", 0.7, (x2, x11, x12)) <= 1e-9
    for a in (-2.0, -1.0, -0.125, 0.125):
        c = phase_floor(a)
        x1 = rng.uniform(-50, 50, n)
        x2 = rng.uniform(-50, 50, n)
        vals = np.abs(eval_phase("Phi1u", a, (x1, x2)))
        floor = c * np.abs(x1 + x2) ** 3
        violations = np.count_nonzero(vals < floor * (1 - 1e-12) - 1e-12)
        assert violations == 0
    for tag in sorted(PHASES.keys() - {"Phi1u", "Phiv", "Theta"}):
        freqs = rng.uniform(-50, 50, (len(PHASES[tag][0]), n))
        assert _oracle_error(tag, 0.7, freqs) <= 1e-9


# --------------------------------------------------------------- 2


def test_criterion_2_region_atlas():
    # diagonal thresholds, all four coefficient cases
    assert not regions.in_A(-1, (F(-3, 4), F(-3, 4)))
    assert regions.in_A(-1, (F(-3, 4) + F(1, 1000),) * 2)
    assert regions.in_A(2, (0, 0))
    assert not regions.in_A(2, (F(-1, 1000),) * 2)
    assert regions.in_A(F(1, 4), (F(3, 4), F(3, 4)))
    assert not regions.in_A(F(1, 4), (F(3, 4) - F(1, 1000),) * 2)
    assert classify_unsupported(0) and classify_unsupported(1)

    rng = random.Random(102)
    for _ in range(1000):
        a = F(rng.randint(-40, 40), rng.choice((8, 10, 16)))
        k = F(rng.randint(-40, 80), 8)
        s = F(rng.randint(-48, 110), 8)
        if a not in (0, 1) and regions.in_A0(a, (k, s)):
            assert regions.in_A(a, (k, s))
        v = regions.classify(a, (k, s))
        flags = sum(bool(f) for f in (v.lwp is not None,
                                      v.illposed is not None,
                                      v.open_region, not v.supported))
        assert flags <= 1
        if a != F(-1, 8):
            assert flags == 1

    segs = regions.boundary_segments(F(1, 2))
    pts = {(seg.start, seg.start_included) for seg in segs} \
        | {(seg.end, seg.end_included) for seg in segs}
    assert ((F(0), F(0)), True) in pts
    assert ((F(0), F(3)), False) in pts
    assert ((F(4), F(2)), False) in pts
    pts_q = {seg.start for seg in regions.boundary_segments(F(1, 4))}
    assert (F(3, 4), F(3, 4)) in pts_q or \
        (F(3, 4), F(3, 4)) in {seg.end
                               for seg in regions.boundary_segments(F(1, 4))}
    low = regions.boundary_segments(-1)
    low_pts = {seg.start for seg in low} | {seg.end for seg in low}
    for pt in ((F(-3, 4), F(-3, 4)), (F(0), F(-3, 4)), (F(5, 2), F(1, 2))):
        assert pt in low_pts
    assert all(not seg.interior_included for seg in low)


def classify_unsupported(a):
    return regions.classify(a, (1, 1)).supported is False


# --------------------------------------------------------------- 3


def test_criterion_3_solver():
    # linear-mode exactness
    g = spectral.Grid(2.0 * np.pi, 64)
    p = Coefficients(0.5)
    st = spectral.make_state(g, lambda x: 0.1 * np.cos(2 * x),
                             lambda x: 0.1 * np.sin(2 * x), p)
    fin, _ = spectral.run(st, spectral.SolverConfig(
        dt=1e-2, nonlinear_enabled=False), 0.3)
    exp_u = st.uhat.coeffs * np.exp(1j * p.a * fin.t * g.xi ** 3)
    exp_v = st.vhat.coeffs * np.exp(1j * fin.t * g.xi ** 3)
    assert np.max(np.abs(fin.uhat.coeffs - exp_u)) <= 1e-12
    assert np.max(np.abs(fin.vhat.coeffs - exp_v)) <= 1e-12

    # RK4 self-convergence order
    def final(dt):
        s0 = spectral.make_state(g, lambda x: 0.3 * np.cos(2 * x),
                                 lambda x: 0.3 * np.sin(2 * x), p)
        f, _ = spectral.run(s0, spectral.SolverConfig(dt=dt), 0.02)
        return np.concatenate([f.uhat.coeffs, f.vhat.coeffs])

    e12 = np.max(np.abs(final(1e-3) - final(5e-4)))
    e23 = np.max(np.abs(final(5e-4) - final(2.5e-4)))
    assert 3.8 <= np.log2(e12 / e23) <= 4.2

    # mass conservation over a long nonlinear run
    g5 = spectral.Grid(40.0, 512)
    st = spectral.make_state(
        g5, lambda x: 0.5 * np.exp(-((x - 20.0) / 2.0) ** 2),
        lambda x: 0.2 * np.exp(-((x - 20.0) / 2.0) ** 2), p)
    m0 = spectral.invariants_eval(st)["M"]
    fin, _ = spectral.run(st, spectral.SolverConfig(dt=1e-4), 0.5)
    m1 = spectral.invariants_eval(fin)["M"]
    assert abs(m1 - m0) / abs(m0) <= 1e-6

    # dealiased product against the O(n^2) convolution oracle
    rng = np.random.default_rng(103)
    g32 = spectral.Grid(2.0 * np.pi, 32)
    mask = g32.dealias_mask()
    idx = np.fft.fftfreq(32, 1.0 / 32).astype(int)

    def band():
        c = np.zeros(32, dtype=complex)
        for j in range(1, 6):
            z = rng.normal() + 1j * rng.normal()
            c[j], c[-j] = z, np.conj(z)
        c[0] = rng.normal()
        return c

    ca, cb = band(), band()
    got = spectral.spectral_product(ca, cb, g32, mask)
    oracle = np.zeros(32, dtype=complex)
    for i in range(32):
        if not mask[i]:
            continue
        for j in range(32):
            kk = idx[i] - idx[j]
            if -16 <= kk < 16:
                oracle[i] += ca[j] * cb[np.where(idx == kk)[0][0]]
    assert np.max(np.abs(got - oracle)) <= 1e-10


def _energy_h(state, a, beta, gamma, theta):
    """E_H written out on all n modes, for any coupling."""
    g = state.grid
    c = np.array((state.uhat.coeffs, state.vhat.coeffs)) * g.n
    u, v = np.fft.ifft(c).real
    ux, vx = np.fft.ifft(1j * g.xi * c).real
    return float(np.sum(0.5 * ux ** 2 + beta / (3.0 * a) * u ** 3
                        + gamma / (a - 1.0) * (3.0 / theta * vx ** 2
                                               + u * v ** 2))
                 * g.L / g.n)


@pytest.mark.parametrize("coeffs", [
    (0.5, 0.5, 1.0, 1.0), (2.0, 2.0, 1.0, 1.0), (-1.0, 1.0, 0.7, -1.0),
    (3.0, 1.5, -2.0, 0.5), (0.5, 1.0, 1.0, 1.0)])
def test_criterion_3_energy_h(coeffs):
    # E_H is conserved when beta = a theta; at unit coupling the same
    # functional drifts, and invariants_eval reports NaN for it
    g = spectral.Grid(40.0, 256)
    bump = lambda x: 0.5 * np.exp(-((x - 20.0) / 2.0) ** 2)
    st = spectral.make_state(g, bump, lambda x: 0.4 * bump(x),
                             Coefficients(*coeffs))
    fin, _ = spectral.run(st, spectral.SolverConfig(dt=1e-3), 1.0)
    e0, e1 = _energy_h(st, *coeffs), _energy_h(fin, *coeffs)
    got = [spectral.invariants_eval(s)["E"] for s in (st, fin)]
    a, beta, _, theta = coeffs
    if beta == a * theta:
        assert abs(e1 - e0) <= 1e-10 * abs(e0)
        assert got == pytest.approx([e0, e1], rel=1e-12)
    else:
        assert abs(e1 - e0) >= 1e-3 * abs(e0)
        assert np.isnan(got).all()


# The travelling wave: with beta = a theta and (4a - 1) gamma theta < 0,
# for any kappa > 0 and y = kappa (x - kappa^2 t),
#     u = -(6 kappa^2/theta) sech^2(y),  v = B sech(y),
#     B^2 = -6 kappa^4 (4a - 1)/(gamma theta),
# solves the system exactly; B^2 changes sign at the threshold a = 1/4.
WAVE_CASES = [(0.5, -1.0), (2.0, -1.0), (-1.0, 1.0)]  # (a, theta); gamma = 1


def test_criterion_3_travelling_wave_is_exact():
    sp = pytest.importorskip("sympy")
    x, t = sp.symbols("x t", real=True)
    a, theta, gamma, kappa = sp.symbols("a theta gamma kappa", real=True,
                                        nonzero=True)
    B = sp.Symbol("B")
    y = kappa * (x - kappa ** 2 * t)
    u = -6 * kappa ** 2 / theta * sp.sech(y) ** 2
    v = B * sp.sech(y)
    r_u = (sp.diff(u, t) + a * sp.diff(u, x, 3)
           - a * theta * sp.diff(u ** 2, x) - gamma * sp.diff(v ** 2, x))
    r_v = sp.diff(v, t) + sp.diff(v, x, 3) - theta * u * sp.diff(v, x)
    r_u = r_u.subs(B ** 2, -6 * kappa ** 4 * (4 * a - 1) / (gamma * theta))
    for r in (r_u, r_v):
        assert sp.simplify(r.rewrite(sp.exp)) == 0


def _tail_sum(kernel, L, K):
    """Sum over |k| >= K of |f^(2 pi k/L)|/L for the unit-height profile
    f with Fourier transform kernel(xi): the share of f's Fourier series
    outside |k| < K, relative to max|f|."""
    xi = 2.0 * np.pi * np.arange(K, K + 1000) / L
    return 2.0 * np.sum(np.abs(kernel(xi))) / L


@pytest.mark.parametrize("a, theta", WAVE_CASES)
def test_criterion_3_solver_follows_the_travelling_wave(a, theta):
    L, n, kappa, dt, T = 80.0, 256, 0.5, 1e-3, 1.0
    gamma = 1.0
    A = -6.0 * kappa ** 2 / theta
    B = np.sqrt(-6.0 * kappa ** 4 * (4.0 * a - 1.0) / (gamma * theta))
    p = Coefficients(a, beta=a * theta, gamma=gamma, theta=theta)
    g = spectral.Grid(L, n)

    def wave(t):
        s = 1.0 / np.cosh(kappa * (g.x - L / 2 - kappa ** 2 * t))
        return np.array((A * s ** 2, B * s))

    st = spectral.make_state(g, *wave(0.0), p)
    fin, _ = spectral.run(st, spectral.SolverConfig(dt=dt), T)
    coarse, _ = spectral.run(st, spectral.SolverConfig(dt=2.0 * dt), T)

    def physical(state):
        c = np.array((state.uhat.coeffs, state.vhat.coeffs))
        return np.fft.ifft(c * n).real

    scale = np.array((abs(A), B))
    got = physical(fin)
    err = np.abs(got - wave(T)).max(axis=1) / scale
    # Error budget, per field, relative to the wave's height:
    # - truncation: modes outside the dealias mask (|k| >= K) get no
    #   nonlinear forcing, so the solver turns them with the linear flow
    #   alone; the wave's coefficients keep their moduli too, so each
    #   differs by at most twice its modulus: 2 S, with S the series'
    #   share at |k| >= K from the closed-form transforms
    #   pi xi/(kappa^2 sinh(pi xi/(2 kappa))) of sech^2(kappa x) and
    #   (pi/kappa) sech(pi xi/(2 kappa)) of sech(kappa x);
    # - periodization: the run sees the wave's neighbours one period
    #   away, whose height at the period's ends is that of the slower
    #   tail, v's sech(kappa L/2) ~ 2 e^(-kappa L/2), once from each side;
    # - time: RK4's global error goes as dt^4, so the runs at dt and 2 dt
    #   differ by 15 times the error at dt.
    K = int(np.ceil(2.0 / 3.0 * (n // 2)))
    assert not g.dealias_mask()[K] and g.dealias_mask()[K - 1]
    trunc = 2.0 * np.array((
        _tail_sum(lambda xi: np.pi * xi / (kappa ** 2 * np.sinh(
            np.pi * xi / (2.0 * kappa))), L, K),
        _tail_sum(lambda xi: np.pi / kappa / np.cosh(
            np.pi * xi / (2.0 * kappa)), L, K)))
    images = 2.0 / np.cosh(kappa * L / 2.0)
    time_err = np.abs(got - physical(coarse)).max(axis=1) / scale / 15.0
    budget = trunc + images + time_err
    assert np.all(err <= budget), (err, budget)
    # the budget stays at the truncation's scale, where a 1e-6 relative
    # change of beta, gamma or theta in the right side exceeds it in
    # every case; a large time_err would hide such a change
    assert np.all(budget <= 4e-8), budget

    # mass and energy in closed form, from the integrals of sech^2,
    # sech^4, sech^6 (2, 4/3, 16/15) and sech^2 tanh^2, sech^4 tanh^2
    # (2/3, 4/15) over the line, each scaled by 1/kappa; the run
    # conserves both to the 1e-10 of criterion 3's energy check
    k = gamma / (a - 1.0)
    M = 24.0 * (1.0 + 4.0 * a) * kappa ** 3 / theta
    E = (8.0 / 15.0 * A ** 2 * kappa + 16.0 / 45.0 * theta * A ** 3 / kappa
         + k * (2.0 * B ** 2 * kappa / theta + 4.0 / 3.0 * A * B ** 2 / kappa))
    for s in (st, fin):
        inv = spectral.invariants_eval(s)
        assert inv["M"] == pytest.approx(M, rel=1e-10)
        assert inv["E"] == pytest.approx(E, rel=1e-10)


# --------------------------------------------------------------- 4


def test_criterion_4_picard_oracle():
    rng = np.random.default_rng(104)
    for _ in range(20):
        a = rng.uniform(0.3, 3.0)
        lo1 = rng.uniform(1.0, 4.0)
        lo2 = rng.uniform(6.0, 9.0)
        w1, w2 = rng.uniform(0.3, 1.0, 2)
        rho = rng.uniform(-1.0, 1.0)
        t = rng.uniform(0.005, 0.05)
        u0 = picard.BoxData([picard.FrequencyBox(lo1, lo1 + w1, rho)])
        v0 = picard.BoxData([picard.FrequencyBox(lo2, lo2 + w2)])
        xi = lo1 + lo2 + 0.5 * (w1 + w2)
        out = picard.second_iterate_v(u0, v0, a, t, (xi, xi + 1.0),
                                      gl_nodes=48)
        box1 = u0.boxes[0]

        def f(x1, part):
            x2 = xi - x1
            phi = eval_phase("Phiv", a, (x1, x2))
            val = (x2 * picard.duhamel_kernel(float(phi), t)
                   * box1.amplitude(x1))
            return val.real if part == "re" else val.imag

        ilo = max(lo1, xi - (lo2 + w2))
        ihi = min(lo1 + w1, xi - lo2)
        re, _ = quad(f, ilo, ihi, args=("re",), limit=200)
        im, _ = quad(f, ilo, ihi, args=("im",), limit=200)
        expect = 1j * np.exp(1j * t * xi ** 3) * (re + 1j * im)
        assert abs(out.values[0] - expect) <= 1e-6 * abs(expect)

    # support invariant: nothing outside the sumset
    u0 = picard.BoxData([picard.FrequencyBox(1.0, 2.0)])
    v0 = picard.BoxData([picard.FrequencyBox(10.0, 11.0)])
    out = picard.second_iterate_v(u0, v0, 0.5, 0.02, (14.0, 20.0))
    assert np.all(out.values == 0.0)

    # bilinearity: splitting a box changes nothing
    whole = picard.BoxData([picard.FrequencyBox(1.0, 3.0)])
    split = picard.BoxData([picard.FrequencyBox(1.0, 2.0),
                            picard.FrequencyBox(2.0, 3.0)])
    v0 = picard.BoxData([picard.FrequencyBox(9.0, 11.0)])
    o1 = picard.second_iterate_v(whole, v0, -1.0, 0.01, (10.5, 13.5),
                                 gl_nodes=96)
    o2 = picard.second_iterate_v(split, v0, -1.0, 0.01, (10.5, 13.5),
                                 gl_nodes=96)
    scale = np.max(np.abs(o1.values))
    assert np.max(np.abs(o1.values - o2.values)) <= 1e-9 * scale


# --------------------------------------------------------------- 5

LADDER_CASES = [
    ("L61", dict(k=0.0, s=0.0, a=2.0), -3.0, 0.15),
    # k - 2 - rho + 1/2; derivation in sharpness.predicted_slope
    ("L62", dict(k=0.0, s=-1.8, a=2.0, rho=-1.0), -0.5, 0.15),
    ("L63", dict(k=0.0, a=-1.0), -0.5, 0.15),
    ("L64", dict(k=0.0), 0.25, 0.15),
    ("L65", dict(s=0.0), 0.25, 0.15),
    ("L66", dict(k=0.0, a=2.0), -2.0, 0.15),
    ("L67", dict(s=0.0, a=2.0), -2.0, 0.15),
    ("L68", dict(s=-0.5, a=-1.0), -2.75, 0.2),
]


@pytest.mark.parametrize("lemma,kwargs,target,tol",
                         LADDER_CASES, ids=[c[0] for c in LADDER_CASES])
def test_criterion_5_sharpness_ladder(lemma, kwargs, target, tol):
    fit = sharpness.run_ladder(lemma, Ns=(64, 128, 256, 512, 1024),
                               **kwargs)
    assert fit.r2 >= 0.99
    assert abs(fit.slope - target) <= tol


@pytest.mark.parametrize("lemma,kwargs,target,tol",
                         LADDER_CASES, ids=[c[0] for c in LADDER_CASES])
def test_ladder_target_is_predicted_slope(lemma, kwargs, target, tol):
    # run_ladder defaults k and s to 0, as predicted_slope does
    pred = sharpness.predicted_slope(lemma, k=kwargs.get("k", 0.0),
                                     s=kwargs.get("s", 0.0),
                                     rho=kwargs.get("rho"))
    assert target == pytest.approx(pred, abs=1e-12)


# --------------------------------------------------------------- 6


def test_criterion_6_ibps_consistency():
    g = spectral.Grid(2.0 * np.pi, 256)
    p = Coefficients(0.5, beta=1.0, gamma=1.0, theta=1.0)
    c = g.L / 2.0
    st = spectral.make_state(
        g, lambda x: 0.5 * np.exp(-((x - c) / 0.25) ** 2),
        lambda x: 0.5 * np.exp(-((x - c) / 0.25) ** 2) * np.cos(x), p)
    cut = ibps.CutoffParams(delta_u=0.05, delta_v=0.05, eta_sim=0.1)
    _, stored = spectral.run(st, spectral.SolverConfig(dt=2e-5), 0.1,
                             store_every=2)
    res = ibps.ibps_residual(stored, cut)
    assert res <= 1e-4


# --------------------------------------------------------------- 7


def test_criterion_7_fre_dichotomy():
    inside = fre.ratio_scan(fre.make_fre_spec("dxv2", 1.0, 0.5), 0.5)
    assert abs(inside.growth_slope) <= 0.05
    outside = fre.ratio_scan(fre.make_fre_spec("dxv2", 1.0, 0.25), 0.5)
    assert outside.growth_slope >= 0.2

    bound = 2.0 * np.sqrt(2.0)
    for alpha in np.linspace(-20.0, 400.0, 40):
        for M in np.linspace(0.1, 40.0, 25):
            assert (fre.level_set_measure(float(alpha), float(M))
                    <= bound * np.sqrt(M) + 1e-12)


# --------------------------------------------------------------- 8


def _cli_json(tmp_path, name, argv):
    out = tmp_path / name
    code = cli.main(argv + ["--out", str(out)])
    assert code == 0
    files = sorted(q for q in out.iterdir() if q.suffix == ".json")
    assert files
    return b"".join(q.read_bytes() for q in files)


def test_criterion_8_determinism(tmp_path):
    sharp = ["sharpness", "--lemma", "L61", "--k", "0", "--s", "0",
             "--a", "2"]
    scan = ["fre-scan", "--form", "dxv2", "--a", "0.5", "--k", "1",
            "--s", "0.5"]
    assert _cli_json(tmp_path, "s1", sharp) == \
        _cli_json(tmp_path, "s2", sharp)
    assert _cli_json(tmp_path, "f1", scan) == \
        _cli_json(tmp_path, "f2", scan)
