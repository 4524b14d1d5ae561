import os

import numpy as np
import pytest

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
    mask = grid.dealias_mask(cfg.dealias_fraction)

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
    # non-Hermitian coefficients with a decaying spectrum
    rng = np.random.default_rng(seed)
    k = np.abs(np.fft.fftfreq(grid.n, 1.0 / grid.n))

    def coeffs():
        z = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
        return 0.05 * z * np.exp(-k / 4.0)
    return SimState(0.0, SpectralField(grid, coeffs()),
                    SpectralField(grid, coeffs()), params)


@pytest.mark.parametrize("case", ["complex_couplings", "non_hermitian"])
def test_step_matches_per_product_step(case):
    if case == "complex_couplings":
        g = Grid(2.0 * np.pi, 128)
        st = _cos_state(g, Coefficients(0.5, gamma=1j, theta=-1),
                        amp_u=0.3, amp_v=0.3)
        cfg = SolverConfig(dt=1e-3)
    else:
        g = Grid(2.0 * np.pi, 64)
        st = _random_state(g, Coefficients(-1.0, beta=0.5, gamma=1j))
        cfg = SolverConfig(dt=1e-3, dealias_fraction=0.5)
    ref = st
    for _ in range(20):
        ref, _ = _per_product_step(ref, cfg)
        st = step(st, cfg)
        got = np.concatenate([st.uhat.coeffs, st.vhat.coeffs])
        want = np.concatenate([ref.uhat.coeffs, ref.vhat.coeffs])
        assert st.t == ref.t
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # the stability bound comes from the same amplitude
    _, dt_max = _per_product_step(st, cfg)
    with pytest.raises(StabilityError) as err:
        step(st, SolverConfig(dt=1.001 * dt_max))
    bound = float(str(err.value).split(" = ")[1].split(" ")[0])
    assert bound == pytest.approx(dt_max, rel=1e-5)
    step(st, SolverConfig(dt=0.999 * dt_max))


@pytest.mark.parametrize("case", ["complex_couplings", "non_hermitian",
                                  "non_dyadic_a"])
def test_step_matches_per_product_step_at_large_t(case):
    # at t0 = 37 the phases t xi^3 reach 1e6-1e7 rad, so the step's
    # factors relative to the step start must agree with the reference's
    # absolute ones; a = 0.3 makes a tau xi^3 depend on product order
    if case == "complex_couplings":
        g = Grid(2.0 * np.pi, 128)
        st = _cos_state(g, Coefficients(0.5, gamma=1j, theta=-1),
                        amp_u=0.3, amp_v=0.3)
        cfg = SolverConfig(dt=1e-3)
    elif case == "non_hermitian":
        g = Grid(2.0 * np.pi, 64)
        st = _random_state(g, Coefficients(-1.0, beta=0.5, gamma=1j))
        cfg = SolverConfig(dt=1e-3, dealias_fraction=0.5)
    else:
        g = Grid(2.0 * np.pi, 128)
        st = _random_state(g, Coefficients(0.3, beta=0.5, gamma=1j))
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
    # this run drifts by 8.9e-16, and by 1.6e-13 with exp(rate dt).
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


@pytest.mark.parametrize("T", [0.25, -0.1])
def test_run_rejects_a_T_that_is_not_whole_steps(T):
    st = _cos_state(Grid(2.0 * np.pi, 16), Coefficients(0.5))
    with pytest.raises(ValueError, match="end time T"):
        run(st, SolverConfig(dt=0.1), T)
    # round-off in T/dt is not a partial step
    fin, _ = run(st, SolverConfig(dt=0.1), 0.30000000000000004)
    assert fin.t == pytest.approx(0.3)


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
    with pytest.raises(ValueError):
        SpectralField(g, c, hermitian=True)


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
    cfg = SolverConfig(dt=1e-3, dealias_fraction=0.5)
    st = _random_state(g, Coefficients(-1.0, beta=0.5, gamma=1j))
    fin, stored = run(st, cfg, 0.02, store_every=5)
    ref = [st]
    for _ in range(20):
        ref.append(step(ref[-1], cfg))
    for got, want in zip(stored, ref[::5]):
        assert got.t == want.t
        assert np.array_equal(got.uhat.coeffs, want.uhat.coeffs)
        assert np.array_equal(got.vhat.coeffs, want.vhat.coeffs)
    assert len(stored) == 5 and fin.t == ref[-1].t


def _unflagged(state):
    # the same coefficients without the hermitian flag: the full space
    return SimState(state.t, SpectralField(state.grid, state.uhat.coeffs),
                    SpectralField(state.grid, state.vhat.coeffs),
                    state.params)


def test_half_space_step_matches_per_product_step():
    # case real_couplings: real beta, gamma, theta and real data step on
    # the n/2+1 nonnegative modes with irfft/rfft
    g = Grid(2.0 * np.pi, 128)
    st = _cos_state(g, Coefficients(0.5, beta=0.5, gamma=-1.0, theta=2.0),
                    amp_u=0.3, amp_v=0.3)
    cfg = SolverConfig(dt=1e-3)
    prop = _Propagator(st, cfg)
    assert prop.half and prop.mask.size == g.n // 2 + 1
    ref = st
    for _ in range(20):
        ref, _ = _per_product_step(ref, cfg)
        st = step(st, cfg)
        got = np.concatenate([st.uhat.coeffs, st.vhat.coeffs])
        want = np.concatenate([ref.uhat.coeffs, ref.vhat.coeffs])
        assert st.t == ref.t
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_half_and_full_run_agree():
    g = Grid(40.0, 256)
    f = lambda x: 0.5 * np.exp(-((x - 20.0) / 2.0) ** 2)
    st = make_state(g, f, lambda x: 0.4 * f(x), Coefficients(-1.0))
    cfg = SolverConfig(dt=1e-4)
    full = _unflagged(st)
    assert _Propagator(st, cfg).half and not _Propagator(full, cfg).half
    got, _ = run(st, cfg, 200 * 1e-4)
    want, _ = run(full, cfg, 200 * 1e-4)
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
            assert f.hermitian
            assert np.array_equal(f.coeffs[-k], np.conj(f.coeffs[k]))
            assert f.coeffs[0].imag == 0.0
            SpectralField(g, f.coeffs, hermitian=True)  # the verified flag


def test_half_space_stability_errors_match_full_space():
    g = Grid(2.0 * np.pi, 128)
    st = _cos_state(g, Coefficients(0.5, gamma=-1.0), amp_u=0.3, amp_v=0.3)
    # the advective bound: the value of the per-product reference
    _, dt_max = _per_product_step(st, SolverConfig(dt=1e-3))
    assert _Propagator(st, SolverConfig(dt=1e-3)).half
    with pytest.raises(StabilityError) as err:
        step(st, SolverConfig(dt=1.001 * dt_max))
    bound = float(str(err.value).split(" = ")[1].split(" ")[0])
    assert bound == pytest.approx(dt_max, rel=1e-5)
    step(st, SolverConfig(dt=0.999 * dt_max))
    # a coupling far above the amplitude bound's scale trips the 10x
    # growth guard; the norm over all n modes gives the same message
    strong = Coefficients(0.5, gamma=-1.0, theta=100.0)  # grows 87x
    st = SimState(0.0, st.uhat, st.vhat, strong)
    cfg = SolverConfig(dt=0.5 * dt_max)
    messages = []
    for s in (st, _unflagged(st)):
        with pytest.raises(StabilityError) as err:
            step(s, cfg)
        messages.append(str(err.value))
    assert messages[0].startswith("instability detected: spectral norm grew")
    assert messages[0] == messages[1]


def test_cli_gaussian_state_steps_on_half_space():
    cfg = parse_config("command=simulate\na=0.5\nbeta=2\ngamma=-1\n"
                       "theta=0.5\nn=64\n")
    st, g = _gaussian_state(cfg)
    prop = _Propagator(st, SolverConfig(dt=1e-4))
    assert prop.half and prop.mask.size == 33
    # the same data with a complex coupling keep the full space
    st = SimState(0.0, st.uhat, st.vhat, Coefficients(0.5, gamma=1j))
    assert not _Propagator(st, SolverConfig(dt=1e-4)).half


def test_half_space_nyquist_mode_follows_full_space_flow():
    # the Nyquist coefficient keeps xi = -pi n/L on the half space, so a
    # linear run moves it with the phase of the full space
    g = Grid(2.0 * np.pi, 32)
    p = Coefficients(0.3)
    st = make_state(g, lambda x: np.cos(x) + 0.25 * np.cos(16 * x),
                    lambda x: 0.5 * np.cos(16 * x), p)
    assert st.uhat.coeffs[16] == pytest.approx(0.25)
    cfg = SolverConfig(dt=1e-2, nonlinear_enabled=False)
    got, _ = run(st, cfg, 0.37)
    want, _ = run(_unflagged(st), cfg, 0.37)
    nyq = np.exp(1j * np.array((p.a, 1.0)) * got.t * (-16.0) ** 3)
    assert np.allclose((got.uhat.coeffs[16], got.vhat.coeffs[16]),
                       nyq * (0.25, 0.5), rtol=1e-13, atol=0)
    for a, b in ((got.uhat, want.uhat), (got.vhat, want.vhat)):
        assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-13


def _chain(state, cfg, nsteps, store_every):
    """run()'s stored and final states from fresh step(state, cfg) calls."""
    stored = [state] if store_every else []
    for i in range(nsteps):
        state = step(state, cfg)
        if store_every and ((i + 1) % store_every == 0 or i == nsteps - 1):
            stored.append(state)
    return state, stored


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
        st = _unflagged(st)
    cfg = SolverConfig(dt=1e-3, nonlinear_enabled=nonlinear)
    assert _Propagator(st, cfg).half == (space == "half")
    fin, stored = run(st, cfg, 0.013, store_every=store_every)
    want_fin, want = _chain(st, cfg, 13, store_every)
    assert len(stored) == len(want) == (6 if store_every else 0)
    for got, ref in zip(stored + [fin], want + [want_fin]):
        assert got.t == ref.t
        assert np.array_equal(got.uhat.coeffs, ref.uhat.coeffs)
        assert np.array_equal(got.vhat.coeffs, ref.vhat.coeffs)
        assert got.uhat.hermitian == ref.uhat.hermitian


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
        st = _unflagged(st)
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
        st = _unflagged(st)
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
    from hskdv import spectral
    orig = spectral.NonlinearTerms.__call__

    def nan_terms(self, w):
        nl, uv = orig(self, w)
        return nl * np.nan, uv

    monkeypatch.setattr(spectral.NonlinearTerms, "__call__", nan_terms)
    st = _cos_state(Grid(2.0 * np.pi, 32), Coefficients(0.5))
    for s in (st, _unflagged(st)):
        with pytest.raises(ValueError,
                           match="^non-finite coefficients in state$"):
            step(s, SolverConfig(dt=1e-3))
