import hashlib
import os

import numpy as np
import pytest

from hskdv import cli, spectral
from hskdv.cli import _gaussian_state, parse_config
from hskdv.phases import Coefficients
from hskdv.spectral import (STABILITY_C, Grid, SimState, SolverConfig,
                            SpectralField, StabilityError, invariants_eval,
                            load_snapshot, make_state, run, save_snapshot,
                            sobolev_norm, spectral_product, step,
                            trajectory_csv)
from hskdv.spectral import _Propagator


def _cos_state(grid, params, amp_u=0.1, amp_v=0.1, mode=2):
    w = 2.0 * np.pi / grid.L
    u = lambda x: amp_u * np.cos(mode * w * x)
    v = lambda x: amp_v * np.sin(mode * w * x)
    return make_state(grid, u, v, params)


def test_grid_frequencies():
    g = Grid(2.0 * np.pi, 16)
    assert g.xi[0] == 0.0
    assert g.xi[1] == pytest.approx(1.0)
    assert g.xi[-1] == pytest.approx(-1.0)
    mask = g.dealias_mask()
    assert mask[0] and mask[5]
    assert not mask[6] and not mask[8]


def test_make_state_roundtrip():
    g = Grid(2.0 * np.pi, 32)
    st = _cos_state(g, Coefficients(0.5))
    u = np.fft.ifft(st.uhat.coeffs * g.n).real
    assert np.max(np.abs(u - 0.1 * np.cos(2 * g.x))) < 1e-13
    # cosine splits into two modes of half amplitude
    assert st.uhat.coeffs[2] == pytest.approx(0.05)
    assert st.uhat.coeffs[-2] == pytest.approx(0.05)


def test_linear_evolution_exact():
    g = Grid(2.0 * np.pi, 64)
    p = Coefficients(0.5)
    st = _cos_state(g, p)
    cfg = SolverConfig(dt=1e-2, nonlinear_enabled=False)
    final, _ = run(st, cfg, 0.3)
    t = final.t
    expect_u = st.uhat.coeffs * np.exp(1j * p.a * t * g.xi ** 3)
    expect_v = st.vhat.coeffs * np.exp(1j * t * g.xi ** 3)
    assert np.max(np.abs(final.uhat.coeffs - expect_u)) < 1e-12
    assert np.max(np.abs(final.vhat.coeffs - expect_v)) < 1e-12


def test_rk4_self_convergence_order():
    g = Grid(2.0 * np.pi, 64)
    p = Coefficients(0.5)
    T = 0.02

    def final_coeffs(dt):
        st = _cos_state(g, p, amp_u=0.3, amp_v=0.3)
        fin, _ = run(st, SolverConfig(dt=dt), T)
        return np.concatenate([fin.uhat.coeffs, fin.vhat.coeffs])

    c1 = final_coeffs(1e-3)
    c2 = final_coeffs(5e-4)
    c3 = final_coeffs(2.5e-4)
    e12 = np.max(np.abs(c1 - c2))
    e23 = np.max(np.abs(c2 - c3))
    order = np.log2(e12 / e23)
    assert 3.8 <= order <= 4.2


def test_spectral_product_matches_direct_convolution():
    rng = np.random.default_rng(5)
    g = Grid(2.0 * np.pi, 32)
    n = g.n

    def band_limited():
        c = np.zeros(n, dtype=complex)
        for j in range(1, 6):
            z = rng.normal() + 1j * rng.normal()
            c[j] = z
            c[-j] = np.conj(z)
        c[0] = rng.normal()
        return c

    a = band_limited()
    b = band_limited()
    mask = g.dealias_mask()
    got = spectral_product(a, b, g, mask)

    idx = np.fft.fftfreq(n, 1.0 / n).astype(int)
    oracle = np.zeros(n, dtype=complex)
    for i in range(n):
        if not mask[i]:
            continue
        ki = idx[i]
        acc = 0.0 + 0.0j
        for j in range(n):
            kj = idx[j]
            kk = ki - kj
            if -n // 2 <= kk < n // 2:
                acc += a[j] * b[np.where(idx == kk)[0][0]]
        oracle[i] = acc
    assert np.max(np.abs(got - oracle)) < 1e-10


def _per_product_step(state, cfg):
    """Reference RK4 step: three spectral_product calls per stage, twelve
    complex exponentials and the amplitude from two more inverse FFTs.

    Returns (next state, stability bound dt_max).
    """
    grid, p, dt, t = state.grid, state.params, cfg.dt, state.t
    xi = grid.xi
    mask = grid.dealias_mask()

    def rhs(tau, util, vtil):
        eu = np.exp(1j * p.a * tau * xi ** 3)
        ev = np.exp(1j * tau * xi ** 3)
        uh, vh = eu * util, ev * vtil
        u2 = spectral_product(uh, uh, grid, mask)
        v2 = spectral_product(vh, vh, grid, mask)
        uvx = spectral_product(uh, 1j * xi * vh, grid, mask)
        return (np.conj(eu) * (1j * xi * (p.beta * u2 + p.gamma * v2)),
                np.conj(ev) * (p.theta * uvx))

    u, v = np.fft.ifft(np.array((state.uhat.coeffs, state.vhat.coeffs))
                       * grid.n).real
    amp = max(np.max(np.abs(u)), np.max(np.abs(v)))
    dt_max = STABILITY_C / (np.max(np.abs(xi)) * amp)
    util = np.exp(-1j * p.a * t * xi ** 3) * state.uhat.coeffs
    vtil = np.exp(-1j * t * xi ** 3) * state.vhat.coeffs
    k1 = rhs(t, util, vtil)
    k2 = rhs(t + dt / 2, util + dt / 2 * k1[0], vtil + dt / 2 * k1[1])
    k3 = rhs(t + dt / 2, util + dt / 2 * k2[0], vtil + dt / 2 * k2[1])
    k4 = rhs(t + dt, util + dt * k3[0], vtil + dt * k3[1])
    util = util + dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
    vtil = vtil + dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    tn = t + dt
    return SimState(tn, SpectralField(grid, np.exp(1j * p.a * tn * xi ** 3)
                                      * util),
                    SpectralField(grid, np.exp(1j * tn * xi ** 3) * vtil),
                    p), dt_max


def _random_state(grid, params, seed=3):
    # a real state: random coefficients of modes 0, ..., n/2-1 with a
    # decaying spectrum, mirrored by the real transforms, and a zero
    # Nyquist coefficient, which the full-space reference would see
    # differently once the flow makes it complex
    rng = np.random.default_rng(seed)
    k = np.arange(grid.n // 2 + 1)

    def field():
        z = 0.05 * (rng.normal(size=k.size) + 1j * rng.normal(size=k.size))
        z[-1] = 0.0
        x = np.fft.irfft(z * np.exp(-k / 4.0), grid.n, norm="forward")
        return SpectralField(grid, np.fft.fft(x, norm="forward"))
    return SimState(0.0, field(), field(), params)


@pytest.mark.parametrize("case", ["non_dyadic_a"])
def test_step_matches_per_product_step_at_large_t(case):
    # at t0 = 37 the phases t xi^3 reach 1e6-1e7 rad, so the step's
    # factors relative to the step start must agree with the reference's
    # absolute ones; a = 0.3 makes a tau xi^3 depend on product order
    g = Grid(2.0 * np.pi, 128)
    st = _random_state(g, Coefficients(0.3, beta=0.5, gamma=-1.0))
    cfg = SolverConfig(dt=1e-3)
    st = ref = SimState(37.0, st.uhat, st.vhat, st.params)
    assert 37.0 * np.max(g.xi) ** 3 > 1e6
    for _ in range(20):
        ref, _ = _per_product_step(ref, cfg)
        st = step(st, cfg)
        got = np.concatenate([st.uhat.coeffs, st.vhat.coeffs])
        want = np.concatenate([ref.uhat.coeffs, ref.vhat.coeffs])
        assert st.t == ref.t
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_linear_flow_norm_drift_is_a_random_walk():
    # Each step multiplies every coefficient by a unit-modulus factor
    # whose computed modulus is off by a few rounding units u = 2^-53.
    # step() takes the flow as exp(rate (t+dt)) conj(exp(rate t)) at the
    # absolute step times, so these errors change from step to step and
    # after N steps add up like a random walk: about sqrt(N) u per mode,
    # and the relative L2 drift, a |w|^2-weighted mean over modes, is no
    # larger. A fixed factor exp(rate dt) repeats the same modulus error
    # in every step, so the drift grows like N times its weighted mean.
    # The bound 2 sqrt(N) u = 2.2e-14 (N = 1e4) lies between the two:
    # this run drifts by 4.0e-15, and by 2.0e-13 with exp(rate dt).
    g = Grid(2.0 * np.pi, 128)
    st = _random_state(g, Coefficients(0.5))
    nsteps = 10000
    fin, _ = run(st, SolverConfig(dt=1e-3, nonlinear_enabled=False),
                 nsteps * 1e-3)
    w0 = np.concatenate([st.uhat.coeffs, st.vhat.coeffs])
    w1 = np.concatenate([fin.uhat.coeffs, fin.vhat.coeffs])
    drift = np.linalg.norm(w1) / np.linalg.norm(w0) - 1.0
    assert fin.t == pytest.approx(10.0)
    assert abs(drift) <= 2.0 * np.sqrt(nsteps) * 2.0 ** -53


def test_mass_conservation_short():
    g = Grid(2.0 * np.pi, 128)
    p = Coefficients(0.5)
    st = _cos_state(g, p, amp_u=0.2, amp_v=0.2)
    inv0 = invariants_eval(st)
    fin, _ = run(st, SolverConfig(dt=2e-4), 0.05)
    inv1 = invariants_eval(fin)
    scale = max(abs(inv0["M"]), 1e-12)
    assert abs(inv1["M"] - inv0["M"]) / scale < 1e-8
    assert abs(inv1["mean_u"] - inv0["mean_u"]) < 1e-12


def test_stability_bound_raises():
    g = Grid(2.0 * np.pi, 128)
    st = _cos_state(g, Coefficients(0.5), amp_u=1.0, amp_v=1.0)
    with pytest.raises(StabilityError) as err:
        step(st, SolverConfig(dt=1.0))
    assert "stability bound" in str(err.value)


def test_sobolev_norm_single_mode():
    g = Grid(2.0 * np.pi, 32)
    c = np.zeros(32, dtype=complex)
    c[3] = 0.5
    c[-3] = 0.5
    f = SpectralField(g, c)
    # two modes of weight 1/4 each, bracket <3>^2 = 10
    for s in (0.0, 1.0, -0.5):
        expect = np.sqrt(2 * 0.25 * (1 + 9.0) ** s)
        assert sobolev_norm(f, s) == pytest.approx(expect, rel=1e-12)


def test_snapshot_roundtrip(tmp_path):
    g = Grid(2.0 * np.pi, 32)
    p = Coefficients(0.5)
    st = _cos_state(g, p)
    path = os.path.join(tmp_path, "s.snap")
    save_snapshot(path, st)
    back = load_snapshot(path, params=p)
    assert back.grid.n == 32
    assert back.t == st.t
    assert np.array_equal(back.uhat.coeffs, st.uhat.coeffs)
    assert np.array_equal(back.vhat.coeffs, st.vhat.coeffs)


def test_snapshot_run_continues_bit_for_bit(tmp_path):
    # a run stopped at T/2, saved, loaded and run on to T is the
    # uninterrupted run: a loaded state steps on the same half space
    g = Grid(2.0 * np.pi, 64)
    p = Coefficients(2.0, beta=0.5, gamma=-1.0, theta=2.0)
    st = _cos_state(g, p, amp_u=0.3, amp_v=0.3, mode=3)
    cfg = SolverConfig(dt=1e-3)
    want, _ = run(st, cfg, 0.04)
    mid, _ = run(st, cfg, 0.02)
    assert mid.uhat.coeffs[g.n // 2].imag != 0.0
    path = os.path.join(tmp_path, "mid.snap")
    save_snapshot(path, mid)
    got, _ = run(load_snapshot(path, params=p), cfg, 0.02)
    assert got.t == want.t
    assert np.array_equal(got.uhat.coeffs, want.uhat.coeffs)
    assert np.array_equal(got.vhat.coeffs, want.vhat.coeffs)


def test_snapshot_rejects_a_field_that_is_not_real(tmp_path):
    path = os.path.join(tmp_path, "s.snap")
    save_snapshot(path, _cos_state(Grid(2.0 * np.pi, 32), Coefficients(0.5)))
    with open(path, "rb") as fh:
        raw = bytearray(fh.read())
    # set Im of v's mode-1 coefficient, so that mode -1 no longer mirrors it
    raw[24 + 32 + 24:24 + 32 + 32] = np.array([0.3], "<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(raw)
    with pytest.raises(ValueError) as err:
        load_snapshot(path)
    assert str(err.value) == ("snapshot %s: coefficients are not "
                              "conjugate-symmetric (not a real field)"
                              % path)


def _header_with_n(n):
    return lambda raw: raw[:8] + np.array([n], "<f8").tobytes() + raw[16:]


def _header_with(L, t):
    return lambda raw: np.array([L], "<f8").tobytes() + raw[8:16] + \
        np.array([t], "<f8").tobytes() + raw[24:]


@pytest.mark.parametrize("edit,message", [
    (lambda raw: raw[:-1], "needs 24"),
    (lambda raw: raw + b"\0", "needs 24"),
    (lambda raw: raw[:20], "less than the 24-byte header"),
    (_header_with_n(31.0), "not a positive even integer"),
    (_header_with_n(np.nan), "not a positive even integer"),
    (_header_with_n(-32.0), "not a positive even integer"),
    (_header_with(2.0 * np.pi, np.nan), "time nan is not finite"),
    (_header_with(2.0 * np.pi, -np.inf), "time -inf is not finite"),
    (_header_with(np.nan, 0.0), "period L must be positive and finite"),
    (_header_with(np.inf, 0.0), "period L must be positive and finite"),
], ids=["truncated", "trailing_byte", "short_header", "odd_n", "nan_n",
        "negative_n", "nan_t", "inf_t", "nan_L", "inf_L"])
def test_snapshot_rejects_damaged_file(tmp_path, edit, message):
    path = os.path.join(tmp_path, "s.snap")
    save_snapshot(path, _cos_state(Grid(2.0 * np.pi, 32), Coefficients(0.5)))
    with open(path, "rb") as fh:
        raw = fh.read()
    with open(path, "wb") as fh:
        fh.write(edit(raw))
    with pytest.raises(ValueError, match=message):
        load_snapshot(path)


@pytest.mark.parametrize("L", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_grid_rejects_bad_period(L, recwarn):
    with pytest.raises(ValueError, match="positive and finite"):
        Grid(L, 16)
    assert not recwarn.list


@pytest.mark.parametrize("n", [10.5, 8.000001, 7, 6, 9.0, np.nan, np.inf])
def test_grid_rejects_a_mode_count_that_is_not_an_even_integer(n):
    # int(10.5) would build n = 10
    with pytest.raises(ValueError,
                       match="mode count n must be even and >= 8"):
        Grid(40.0, n)
    assert Grid(40.0, 10.0).n == Grid(40.0, np.int64(10)).n == 10


@pytest.mark.parametrize("T", [0.25, -0.1, np.inf, np.nan])
def test_run_rejects_a_T_that_is_not_whole_steps(T):
    st = _cos_state(Grid(2.0 * np.pi, 16), Coefficients(0.5))
    with pytest.raises(ValueError, match="end time T"):
        run(st, SolverConfig(dt=0.1), T)
    # round-off in T/dt is not a partial step
    fin, _ = run(st, SolverConfig(dt=0.1), 0.30000000000000004)
    assert fin.t == pytest.approx(0.3)


@pytest.mark.parametrize("dt", [np.inf, np.nan, 0.0])
def test_solver_config_rejects_a_dt_that_is_not_positive_and_finite(dt):
    # dt = inf would run no step and return the initial state
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        SolverConfig(dt=dt)


def test_run_rejects_a_negative_store_every_before_stepping(monkeypatch):
    def no_step(*args):
        raise AssertionError("stepped before store_every was checked")

    monkeypatch.setattr(spectral, "step", no_step)
    st = _cos_state(Grid(2.0 * np.pi, 16), Coefficients(0.5))
    for every in (-1, -3):
        with pytest.raises(ValueError, match="store_every"):
            run(st, SolverConfig(dt=0.1), 0.3, store_every=every)


# sha256 prefixes of final.snap from the vetted simulate tuples of the
# benchmark (perfbench/workloads.py: dt = 1e-4, the default L and
# store_every) with T cut to 0.02 at n = 256 and 0.01 at n = 1024:
# (n, a, u0_amp, v0_amp, width) -> digest
SNAPSHOT_DIGESTS = {
    ("256", "0.5", "0.5", "0.5", "2.0"): "c17207382252881a",
    ("256", "0.5", "0.4", "0.3", "2.0"): "195b64074dcc58a4",
    ("256", "2", "0.5", "0.5", "2.0"): "2b7dc45b8d52a413",
    ("256", "-1", "0.3", "0.5", "1.5"): "86fe1ff634656728",
    ("256", "0.5", "0.5", "0.4", "2.5"): "1c5a8c16c2d2514c",
    ("1024", "0.5", "0.5", "0.5", "2.0"): "ae6e8a54c6c1cfe0",
    ("1024", "0.5", "0.4", "0.3", "2.0"): "2da382b911b5f0ba",
    ("1024", "2", "0.5", "0.5", "2.0"): "cd791bc5c7e33382",
    ("1024", "-1", "0.3", "0.5", "1.5"): "c1e37fa87cd26429",
    ("1024", "0.5", "0.5", "0.4", "2.5"): "d0a8abfdf42b04ac",
}


@pytest.mark.parametrize("key", sorted(SNAPSHOT_DIGESTS), ids="-".join)
def test_simulate_snapshots_pinned(tmp_path, key):
    n, a, u0, v0, width = key
    code = cli.main(["simulate", "--a", a, "--n", n,
                     "--T", "0.02" if n == "256" else "0.01",
                     "--dt", "1e-4", "--u0_amp", u0, "--v0_amp", v0,
                     "--width", width, "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    raw = (tmp_path / "final.snap").read_bytes()
    assert hashlib.sha256(raw).hexdigest()[:16] == SNAPSHOT_DIGESTS[key]


@pytest.mark.parametrize("params", [
    Coefficients(0.5), Coefficients(2.0, beta=0.5, gamma=-1.0, theta=2.0)])
def test_nonlinear_terms_call_equals_into(params):
    # the IBPS check calls the object; step() writes its rows into w and
    # evaluates with into()
    g = Grid(2.0 * np.pi, 64)
    st = _random_state(g, params)
    m = g.n // 2 + 1
    w = np.array((st.uhat.coeffs[:m], st.vhat.coeffs[:m]))
    terms = spectral.NonlinearTerms(g, params, g.dealias_mask()[:m])
    nl, uv = terms(w)
    uv = uv.copy()
    terms.w[...] = w
    out = np.empty((2, m), dtype=complex)
    terms.into(out)
    assert np.array_equal(nl, out) and np.array_equal(uv, terms.uv)
    assert np.abs(nl).max() > 0


def test_trajectory_csv_header(tmp_path):
    path = os.path.join(tmp_path, "t.csv")
    trajectory_csv(path, [(0.0, 1.0, 2.0, 0.0, 3.0, 4.0)])
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "t,u_norm,v_norm,mean_u,M,E"
    assert len(lines) == 2


def test_hermitian_check():
    g = Grid(2.0 * np.pi, 16)
    c = np.zeros(16, dtype=complex)
    c[1] = 1.0  # no conjugate partner
    with pytest.raises(ValueError, match="not conjugate-symmetric"):
        SpectralField(g, c)
    c[-1] = 1.0 + 1e-13
    SpectralField(g, c)  # symmetric to 1e-12 relative
    c[8] = 0.5 + 0.5j  # the imaginary Nyquist part is exempt
    SpectralField(g, c)
    c[0] = 1e-11j  # the mean is not
    with pytest.raises(ValueError, match="not conjugate-symmetric"):
        SpectralField(g, c)


def test_run_stores_endpoints():
    g = Grid(2.0 * np.pi, 32)
    st = _cos_state(g, Coefficients(2.0))
    fin, stored = run(st, SolverConfig(dt=1e-3), 0.01, store_every=2)
    assert stored[0].t == 0.0
    assert stored[-1].t == pytest.approx(fin.t)
    assert len(stored) == 6


def test_run_matches_step_loop():
    # run() builds one propagator (mask, eh, exp memo) for all steps;
    # step() alone builds its own, and the results are bit-identical
    g = Grid(2.0 * np.pi, 64)
    cfg = SolverConfig(dt=1e-3)
    st = _random_state(g, Coefficients(-1.0, beta=0.5, gamma=-1.0))
    fin, stored = run(st, cfg, 0.02, store_every=5)
    ref = [st]
    for _ in range(20):
        ref.append(step(ref[-1], cfg))
    for got, want in zip(stored, ref[::5]):
        assert got.t == want.t
        assert np.array_equal(got.uhat.coeffs, want.uhat.coeffs)
        assert np.array_equal(got.vhat.coeffs, want.vhat.coeffs)
    assert len(stored) == 5 and fin.t == ref[-1].t


def _full(state):
    """The state rebuilt from all n coefficients, as a snapshot holds them,
    with a complex Nyquist coefficient, as the linear flow leaves it."""
    c = np.array((state.uhat.coeffs, state.vhat.coeffs))
    c[:, state.grid.n // 2] = (0.003 + 0.004j, -0.002 + 0.001j)
    return SimState(state.t, SpectralField(state.grid, c[0]),
                    SpectralField(state.grid, c[1]), state.params)


def test_half_space_step_matches_per_product_step():
    # real beta, gamma, theta and real data step on the n/2+1
    # nonnegative modes with irfft/rfft
    g = Grid(2.0 * np.pi, 128)
    st = _cos_state(g, Coefficients(0.5, beta=0.5, gamma=-1.0, theta=2.0),
                    amp_u=0.3, amp_v=0.3)
    cfg = SolverConfig(dt=1e-3)
    assert _Propagator(st, cfg).mask.size == g.n // 2 + 1
    ref = st
    for _ in range(20):
        ref, _ = _per_product_step(ref, cfg)
        st = step(st, cfg)
        got = np.concatenate([st.uhat.coeffs, st.vhat.coeffs])
        want = np.concatenate([ref.uhat.coeffs, ref.vhat.coeffs])
        assert st.t == ref.t
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_half_and_full_run_agree():
    # a run on the half space against the full-space per-product steps
    g = Grid(40.0, 256)
    f = lambda x: 0.5 * np.exp(-((x - 20.0) / 2.0) ** 2)
    st = make_state(g, f, lambda x: 0.4 * f(x), Coefficients(-1.0))
    cfg = SolverConfig(dt=1e-4)
    got, _ = run(st, cfg, 200 * 1e-4)
    want = st
    for _ in range(200):
        want, _ = _per_product_step(want, cfg)
    assert got.t == want.t
    for a, b in ((got.uhat, want.uhat), (got.vhat, want.vhat)):
        assert np.max(np.abs(a.coeffs - b.coeffs)) <= (
            1e-13 * np.max(np.abs(b.coeffs)))
    assert not np.array_equal(got.uhat.coeffs, want.uhat.coeffs)


def test_half_space_states_are_exactly_hermitian():
    g = Grid(2.0 * np.pi, 64)
    st = _cos_state(g, Coefficients(2.0, gamma=-0.5), amp_u=0.3,
                    amp_v=0.3, mode=3)
    _, stored = run(st, SolverConfig(dt=1e-3), 0.02, store_every=5)
    assert len(stored) == 5
    k = np.arange(1, g.n // 2)
    for s in stored[1:]:
        for f in (s.uhat, s.vhat):
            assert np.array_equal(f.coeffs[-k], np.conj(f.coeffs[k]))
            assert f.coeffs[0].imag == 0.0
            SpectralField(g, f.coeffs)  # passes the constructor's check


def test_half_space_stability_errors_match_full_space():
    g = Grid(2.0 * np.pi, 128)
    st = _cos_state(g, Coefficients(0.5, gamma=-1.0), amp_u=0.3, amp_v=0.3)
    # the advective bound: the value of the per-product reference
    _, dt_max = _per_product_step(st, SolverConfig(dt=1e-3))
    with pytest.raises(StabilityError) as err:
        step(st, SolverConfig(dt=1.001 * dt_max))
    bound = float(str(err.value).split(" = ")[1].split(" ")[0])
    assert bound == pytest.approx(dt_max, rel=1e-5)
    step(st, SolverConfig(dt=0.999 * dt_max))
    # a coupling far above the amplitude bound's scale trips the 10x
    # growth guard, whose norms are taken over all n modes
    strong = Coefficients(0.5, gamma=-1.0, theta=100.0)
    st = SimState(0.0, st.uhat, st.vhat, strong)
    with pytest.raises(StabilityError) as err:
        step(st, SolverConfig(dt=0.5 * dt_max))
    ref, _ = _per_product_step(st, SolverConfig(dt=0.5 * dt_max))
    grew = (np.linalg.norm(np.array((ref.uhat.coeffs, ref.vhat.coeffs)),
                           axis=1).max()
            / np.linalg.norm(np.array((st.uhat.coeffs, st.vhat.coeffs)),
                             axis=1).max())
    assert str(err.value) == ("instability detected: spectral norm grew "
                              "%.3gx in one step at t=0" % grew)


def test_cli_gaussian_state_steps_on_half_space():
    cfg = parse_config("command=simulate\na=0.5\nbeta=2\ngamma=-1\n"
                       "theta=0.5\nn=64\n")
    st, g = _gaussian_state(cfg)
    assert st.params.gamma == -1.0
    assert _Propagator(st, SolverConfig(dt=1e-4)).mask.size == 33


def test_half_space_nyquist_mode_follows_full_space_flow():
    # the Nyquist coefficient keeps xi = -pi n/L on the half space, so a
    # linear run moves it, like every other mode, with the exact flow
    # of the full space
    g = Grid(2.0 * np.pi, 32)
    p = Coefficients(0.3)
    st = make_state(g, lambda x: np.cos(x) + 0.25 * np.cos(16 * x),
                    lambda x: 0.5 * np.cos(16 * x), p)
    assert st.uhat.coeffs[16] == pytest.approx(0.25)
    cfg = SolverConfig(dt=1e-2, nonlinear_enabled=False)
    got, _ = run(st, cfg, 0.37)
    nyq = np.exp(1j * np.array((p.a, 1.0)) * got.t * (-16.0) ** 3)
    assert np.allclose((got.uhat.coeffs[16], got.vhat.coeffs[16]),
                       nyq * (0.25, 0.5), rtol=1e-13, atol=0)
    for f, f0, rate in ((got.uhat, st.uhat, p.a), (got.vhat, st.vhat, 1.0)):
        want = f0.coeffs * np.exp(1j * rate * got.t * g.xi ** 3)
        assert np.max(np.abs(f.coeffs - want)) <= 1e-13


def _chain(state, cfg, nsteps, store_every):
    """run()'s stored and final states from fresh step(state, cfg) calls."""
    stored = [state] if store_every else []
    for i in range(nsteps):
        state = step(state, cfg)
        if store_every and ((i + 1) % store_every == 0 or i == nsteps - 1):
            stored.append(state)
    return state, stored


# space: "half" starts from make_state's state, "full" from that state
# rebuilt from all n coefficients with a complex Nyquist one (_full)
@pytest.mark.parametrize("space", ["half", "full"])
@pytest.mark.parametrize("store_every", [0, 3])
@pytest.mark.parametrize("nonlinear", [True, False])
def test_run_equals_fresh_step_chain(space, store_every, nonlinear):
    # run() carries each state's rows and norm to the next step in its
    # propagator; a chain of fresh steps reads every state anew
    g = Grid(2.0 * np.pi, 64)
    st = _cos_state(g, Coefficients(2.0, beta=0.5, gamma=-1.0, theta=2.0),
                    amp_u=0.3, amp_v=0.3, mode=3)
    if space == "full":
        st = _full(st)
    cfg = SolverConfig(dt=1e-3, nonlinear_enabled=nonlinear)
    fin, stored = run(st, cfg, 0.013, store_every=store_every)
    want_fin, want = _chain(st, cfg, 13, store_every)
    assert len(stored) == len(want) == (6 if store_every else 0)
    for got, ref in zip(stored + [fin], want + [want_fin]):
        assert got.t == ref.t
        assert np.array_equal(got.uhat.coeffs, ref.uhat.coeffs)
        assert np.array_equal(got.vhat.coeffs, ref.vhat.coeffs)


def test_run_calls_step_once_per_step(monkeypatch):
    from hskdv import spectral
    calls = []

    def counting(state, cfg, prop=None):
        calls.append(state)
        return step(state, cfg, prop)

    monkeypatch.setattr(spectral, "step", counting)
    st = _cos_state(Grid(2.0 * np.pi, 32), Coefficients(0.5))
    fin, _ = spectral.run(st, SolverConfig(dt=1e-3), 0.017)
    assert len(calls) == 17
    assert all(isinstance(s, SimState) for s in calls)
    assert fin.t == pytest.approx(0.017)


@pytest.mark.parametrize("space", ["half", "full"])
def test_step_reads_a_state_its_propagator_did_not_return(space):
    g = Grid(2.0 * np.pi, 64)
    st = _cos_state(g, Coefficients(0.5, gamma=-1.0), amp_u=0.3, amp_v=0.3)
    if space == "full":
        st = _full(st)
    cfg = SolverConfig(dt=1e-3)
    prop = _Propagator(st, cfg)
    last = step(step(st, cfg, prop), cfg, prop)
    assert prop.last is last
    # the initial state, and a copy of the last one, are other states
    for other in (st, last.copy()):
        got = step(other, cfg, prop)
        want = step(other, cfg)
        assert got.t == want.t
        assert np.array_equal(got.uhat.coeffs, want.uhat.coeffs)
        assert np.array_equal(got.vhat.coeffs, want.vhat.coeffs)


@pytest.mark.parametrize("space", ["half", "full"])
def test_growth_guard_fires_mid_run_as_in_a_fresh_step_chain(space):
    g = Grid(2.0 * np.pi, 64)
    st = _cos_state(g, Coefficients(0.5, gamma=-1.0, theta=100.0),
                    amp_u=0.3, amp_v=0.3)
    if space == "full":
        st = _full(st)
    cfg = SolverConfig(dt=1e-2)
    s, fresh = st, None
    for k in range(20):
        try:
            s = step(s, cfg)
        except StabilityError as err:
            fresh = str(err)
            break
    assert k >= 2 and fresh.startswith("instability detected")
    with pytest.raises(StabilityError) as err:
        run(st, cfg, 0.2)
    assert str(err.value) == fresh


def test_non_finite_right_side_raises(monkeypatch):
    # step() evaluates its four stages with NonlinearTerms.into
    orig = spectral.NonlinearTerms.into
    calls = []

    def nan_terms(self, out):
        orig(self, out)
        out *= np.nan

    def one_nan_in_stage_4(self, out):
        orig(self, out)
        calls.append(out)
        if len(calls) % 4 == 0:
            out[1, 5] = np.nan

    st = _cos_state(Grid(2.0 * np.pi, 32), Coefficients(0.5))
    for patch in (nan_terms, one_nan_in_stage_4):
        monkeypatch.setattr(spectral.NonlinearTerms, "into", patch)
        for s in (st, _full(st)):
            with pytest.raises(ValueError,
                               match="^non-finite coefficients in state$"):
                step(s, SolverConfig(dt=1e-3))
    assert len(calls) == 8
