import numpy as np
import pytest

from hskdv import ibps
from hskdv.ibps import (TERM_TAGS, CutoffParams, coupling_terms, eval_term,
                        in_U, in_V, ibps_residual, u_phase_floor_constant,
                        v_phase_floor_constant)
from hskdv.ibps import _kernels
from hskdv.phases import Coefficients, PhaseFloorError, eval_phase
from hskdv.spectral import (Grid, NonlinearTerms, SimState, SolverConfig,
                            SpectralField, make_state, run,
                            spectral_product)

CUT10 = CutoffParams(delta_u=0.1, delta_v=0.1, eta_sim=0.1)


def _norm_params(a):
    return Coefficients(a, beta=1.0, gamma=1.0, theta=1.0)


def _gaussian_state(grid, a, amp=0.5, width=0.25):
    p = _norm_params(a)
    c = grid.L / 2.0
    f = lambda x: amp * np.exp(-((x - c) / width) ** 2)
    g = lambda x: amp * np.exp(-((x - c) / width) ** 2) * np.cos(x)
    return make_state(grid, f, g, p)


def test_in_U_examples():
    assert in_U(0.5, 20.0, 19.5, 0.5, CUT10)
    assert not in_U(0.5, 0.5, 0.25, 0.25, CUT10)
    # equal halves only count below the a = 1/4 threshold
    assert in_U(-1.0, 20.0, 10.0, 10.0, CUT10)
    assert not in_U(0.5, 20.0, 10.0, 10.0, CUT10)


def test_in_V_examples():
    assert in_V(20.0, 19.8, 0.2, CUT10)
    assert not in_V(20.0, 10.0, 10.0, CUT10)
    assert not in_V(5.0, 4.9, 0.1, CUT10)


def test_convolution_violation():
    with pytest.raises(ValueError):
        in_U(0.5, 10.0, 3.0, 3.0, CUT10)
    with pytest.raises(ValueError):
        in_V(10.0, 3.0, 3.0, CUT10)


def test_cutoff_validation():
    with pytest.raises(ValueError):
        CutoffParams(delta_u=0.0)
    with pytest.raises(ValueError):
        CutoffParams(eta_sim=1.5)


def test_floor_constants():
    eta = 0.1
    assert u_phase_floor_constant(-1.0, eta) == pytest.approx(1.25)
    assert u_phase_floor_constant(2.0, eta) == pytest.approx(
        1.0 - 0.3 - 0.03)
    assert v_phase_floor_constant(2.0, eta) == pytest.approx(
        1.0 - 0.6 - 0.06 - 0.001)


def test_bu_vanishes_without_v():
    g = Grid(2.0 * np.pi, 64)
    p = _norm_params(0.5)
    st = make_state(g, lambda x: 0.3 * np.cos(x), lambda x: 0.0 * x, p)
    assert np.all(eval_term("Bu", st, 0.5, CUT10) == 0.0)
    assert np.all(eval_term("N0u", st, 0.5, CUT10) == 0.0)


def test_unknown_tag():
    g = Grid(2.0 * np.pi, 32)
    st = _gaussian_state(g, 0.5)
    with pytest.raises(ValueError):
        eval_term("N4u", st, 0.5, CUT10)


def test_n3u_matches_quadratic_profile_term():
    g = Grid(2.0 * np.pi, 128)
    a = 0.5
    st = _gaussian_state(g, a)
    st.t = 0.013
    got = eval_term("N3u", st, a, CutoffParams())
    # independent route: physical-space square, transform, dealias
    mask = g.dealias_mask()
    uh = st.uhat.coeffs * mask
    u = np.fft.ifft(uh * g.n)
    sq = np.fft.fft(u * u) / g.n
    expect = (np.exp(-1j * a * st.t * g.xi ** 3) * 1j * g.xi * sq * mask)
    assert np.max(np.abs(got - expect)) < 1e-10


def _oracle_split(st, a, cut, which):
    """Direct double-loop quadrature of the u (vv) or v coupling term,
    split into complement and region parts using the public membership
    predicates."""
    g = st.grid
    n = g.n
    xi = g.xi
    dxi = 2.0 * np.pi / g.L
    mask = g.dealias_mask()
    uh = st.uhat.coeffs
    vh = st.vhat.coeffs
    comp = np.zeros(n, dtype=complex)
    regn = np.zeros(n, dtype=complex)
    for i in range(n):
        if not mask[i]:
            continue
        for j in range(n):
            k2 = int(round((xi[i] - xi[j]) / dxi))
            if not -n // 2 <= k2 <= n // 2 - 1:
                continue
            j2 = k2 % n
            xi2 = xi[i] - xi[j]
            if which == "u":
                member = in_U(a, xi[i], xi[j], xi2, cut)
                val = 1j * xi[i] * vh[j] * vh[j2]
                carrier = np.exp(-1j * a * st.t * xi[i] ** 3)
            else:
                member = in_V(xi[i], xi[j], xi2, cut)
                val = 1j * xi2 * uh[j] * vh[j2]
                carrier = np.exp(-1j * st.t * xi[i] ** 3)
            if member:
                regn[i] += carrier * val
            else:
                comp[i] += carrier * val
    return comp, regn


def test_partition_identity_u_and_v():
    g = Grid(2.0 * np.pi, 32)
    a = 0.5
    cut = CutoffParams(delta_u=0.2, delta_v=0.2)  # threshold 5, inside band
    st = _gaussian_state(g, a, amp=0.4, width=0.8)
    st.t = 0.002
    cu, cv = coupling_terms(st, a, cut)

    comp_u, regn_u = _oracle_split(st, a, cut, "u")
    n3u = eval_term("N3u", st, a, cut)
    assert np.max(np.abs(eval_term("N0u", st, a, cut) - comp_u)) < 1e-10
    assert np.max(np.abs(cu - (comp_u + regn_u + n3u))) < 1e-10

    comp_v, regn_v = _oracle_split(st, a, cut, "v")
    assert np.max(np.abs(eval_term("N0v", st, a, cut) - comp_v)) < 1e-10
    assert np.max(np.abs(cv - (comp_v + regn_v))) < 1e-10


def _circular(f, h, mask):
    """Dealiased circular convolution, as spectral_product forms it."""
    n = f.size
    out = np.zeros(n, dtype=complex)
    for i in range(n):
        for j in range(n):
            out[i] += f[j] * h[(i - j) % n]
    return out * mask


def _oracle_terms(st, a, cut):
    """All ten decomposition terms by direct double loops over grid pairs.

    The complements come from _oracle_split; the region terms are
    written out from in_U, in_V, eval_phase and the kernels xi/Phi1u,
    xi2/Phiv and xi1 xi2/Phiv.
    """
    g = st.grid
    n = g.n
    xi = g.xi
    dxi = 2.0 * np.pi / g.L
    mask = g.dealias_mask()
    uh = st.uhat.coeffs
    vh = st.vhat.coeffs
    eu = np.exp(-1j * a * st.t * xi ** 3)
    ev = np.exp(-1j * st.t * xi ** 3)
    w = _circular(uh, xi * vh, mask)
    conv_uu = _circular(uh, uh, mask)
    conv_vv = _circular(vh, vh, mask)
    terms = {tag: np.zeros(n, dtype=complex) for tag in TERM_TAGS}
    terms["N0u"] = _oracle_split(st, a, cut, "u")[0]
    terms["N0v"] = _oracle_split(st, a, cut, "v")[0]
    terms["N3u"] = eu * 1j * xi * conv_uu
    for i in range(n):
        if not mask[i]:
            continue
        for j in range(n):
            k2 = int(round((xi[i] - xi[j]) / dxi))
            if not -n // 2 <= k2 <= n // 2 - 1:
                continue
            j2 = k2 % n
            xi1, xi2 = xi[j], xi[i] - xi[j]
            if in_U(a, xi[i], xi1, xi2, cut):
                ku = xi[i] / eval_phase("Phi1u", a, (xi1, xi2))
                terms["Bu"][i] += eu[i] * ku * vh[j] * vh[j2]
                terms["N1u"][i] += eu[i] * -1j * ku * w[j] * vh[j2]
                terms["N2u"][i] += eu[i] * -1j * ku * vh[j] * w[j2]
            if in_V(xi[i], xi1, xi2, cut):
                phiv = eval_phase("Phiv", a, (xi1, xi2))
                kv2 = xi2 / phiv
                kv12 = xi1 * xi2 / phiv
                terms["Bv"][i] += ev[i] * kv2 * uh[j] * vh[j2]
                terms["N1v"][i] += ev[i] * -1j * kv12 * conv_vv[j] * vh[j2]
                terms["N2v"][i] += ev[i] * -1j * kv12 * conv_uu[j] * vh[j2]
                terms["N3v"][i] += ev[i] * -1j * kv2 * uh[j] * w[j2]
    return terms


@pytest.mark.parametrize("a", [-1.0, 2.0])
def test_every_term_matches_double_loop_oracle(a):
    # a = -1 takes the U1 branch (xi1 ~= xi2), a = 2 does not
    g = Grid(2.0 * np.pi, 32)
    cut = CutoffParams(delta_u=0.2, delta_v=0.2)  # threshold 5, inside band
    rng = np.random.default_rng(11)
    field = lambda: SpectralField(
        g, rng.normal(size=g.n) + 1j * rng.normal(size=g.n))
    st = SimState(0.002, field(), field(), _norm_params(a))
    oracle = _oracle_terms(st, a, cut)
    for tag in TERM_TAGS:
        got = eval_term(tag, st, a, cut)
        scale = np.max(np.abs(oracle[tag]))
        assert scale > 0.0, tag
        assert np.max(np.abs(got - oracle[tag])) <= 1e-12 * scale, tag


@pytest.mark.parametrize("name, constant", [
    ("Phi1u", "u_phase_floor_constant"), ("Phiv", "v_phase_floor_constant")])
def test_phase_floor_guard_names_first_pair(monkeypatch, name, constant):
    monkeypatch.setattr(ibps, constant, lambda a, eta: 1e6)
    g = Grid(2.0 * np.pi, 32)  # a fresh grid, so the kernel cache misses
    a = -1.0
    cut = CutoffParams(delta_u=0.2, delta_v=0.2)
    st = _gaussian_state(g, a)
    # with the floor this high every region pair offends: expect the
    # first one in row-major order over the grid's index order
    dxi = 2.0 * np.pi / g.L
    member = ((lambda x, x1: in_U(a, x, x1, x - x1, cut)) if name == "Phi1u"
              else (lambda x, x1: in_V(x, x1, x - x1, cut)))
    first = next((x, x1) for x in g.xi for x1 in g.xi
                 if -g.n // 2 <= round((x - x1) / dxi) <= g.n // 2 - 1
                 and member(x, x1))
    with pytest.raises(PhaseFloorError) as err:
        eval_term("Bu", st, a, cut)
    msg = str(err.value)
    assert msg.startswith(name + " below its floor")
    assert msg.endswith("(xi, xi1) = (%g, %g)" % first)


def test_boundary_kernel_symmetric_in_arguments():
    g = Grid(2.0 * np.pi, 64)
    a = -1.0
    cut = CutoffParams(delta_u=0.2, delta_v=0.2)
    ker = _kernels(g, a, cut)
    rng = np.random.default_rng(7)
    f = rng.normal(size=g.n) + 1j * rng.normal(size=g.n)
    h = rng.normal(size=g.n) + 1j * rng.normal(size=g.n)
    fg = ker.pair_sum(ker.U, ker.ku, f, h)
    gf = ker.pair_sum(ker.U, ker.ku, h, f)
    scale = max(np.max(np.abs(fg)), 1e-12)
    assert np.max(np.abs(fg - gf)) < 1e-10 * scale


@pytest.fixture(scope="module")
def short_trajectory():
    g = Grid(2.0 * np.pi, 128)
    st = _gaussian_state(g, 0.5)
    cfg = SolverConfig(dt=4e-5)
    final, stored = run(st, cfg, 512 * 4e-5, store_every=2)
    assert len(stored) == 257
    return stored


def test_residual_small_and_refines(short_trajectory):
    cut = CutoffParams()
    res = ibps_residual(short_trajectory, 0.5, cut)
    assert res < 1e-4
    coarse = ibps_residual(short_trajectory[::2], 0.5, cut)
    # composite Simpson defect drops like h^4
    assert coarse / res >= 8.0


def test_residual_linear_run_zero(short_trajectory):
    assert ibps_residual(short_trajectory, 0.5, CutoffParams(),
                         nonlinear_enabled=False) == 0.0


def test_residual_input_validation(short_trajectory):
    with pytest.raises(ValueError):
        ibps_residual(short_trajectory[:4], 0.5, CutoffParams())
    bad = [short_trajectory[0], short_trajectory[1], short_trajectory[4]]
    assert len(bad) % 2 == 1
    with pytest.raises(ValueError):
        ibps_residual(bad, 0.5, CutoffParams())


def test_residual_zero_data():
    g = Grid(2.0 * np.pi, 64)
    p = _norm_params(0.5)
    zero = lambda x: 0.0 * x
    states = []
    for k in range(3):
        st = make_state(g, zero, zero, p)
        st.t = k * 0.01
        states.append(st)
    assert ibps_residual(states, 0.5, CutoffParams()) == 0.0


@pytest.mark.parametrize("a", [-1.0, 2.0])
def test_output_row_filter_keeps_every_term(monkeypatch, a):
    # the regions keep only pairs whose output row is dealiased; every
    # term must equal the one summed over the unfiltered regions
    cut = CutoffParams(delta_u=0.2, delta_v=0.2)
    rng = np.random.default_rng(5)
    field = lambda g: SpectralField(
        g, rng.normal(size=g.n) + 1j * rng.normal(size=g.n))
    g = Grid(2.0 * np.pi, 64)
    st = SimState(0.002, field(g), field(g), _norm_params(a))
    filtered = {tag: eval_term(tag, st, a, cut) for tag in TERM_TAGS}
    ker = _kernels(g, a, cut)

    keep_all = ibps._region
    monkeypatch.setattr(ibps, "_region", lambda i, j, j2, ks, keep:
                        keep_all(i, j, j2, ks, np.ones_like(keep)))
    g2 = Grid(2.0 * np.pi, 64)  # a fresh grid, so the kernel cache misses
    st2 = SimState(st.t, SpectralField(g2, st.uhat.coeffs),
                   SpectralField(g2, st.vhat.coeffs), st.params)
    full = _kernels(g2, a, cut)
    for region in ("U", "V"):
        kept = getattr(ker, region)[2].size
        assert 0 < kept < getattr(full, region)[2].size
        assert np.all(ker.outmask[getattr(ker, region)[0]])
    for tag in TERM_TAGS:
        assert np.array_equal(filtered[tag], eval_term(tag, st2, a, cut)), tag


# Per-term reference: every term on its own, with its own transforms and
# region sum, written out from the formulas. ibps._StateTerms forms all
# of them together and must agree row by row.

def _ref_valid_conv(f1, f2):
    n = f1.size
    pos = np.arange(n)
    pos[n // 2:] += n             # frequency index k sits at k mod 2n
    pad = np.zeros((2, 2 * n), dtype=complex)
    pad[:, pos] = f1, f2
    spec = np.fft.fft(pad)
    return np.fft.ifft(spec[0] * spec[1])[pos]


def _ref_eval_term(tag, state, a, cut):
    grid = state.grid
    ker = _kernels(grid, a, cut)
    xi = grid.xi
    uh = state.uhat.coeffs
    vh = state.vhat.coeffs
    mask = ker.outmask
    U, V = ker.U, ker.V
    speed = a if tag.endswith("u") else 1.0
    carrier = mask * np.exp(-1j * speed * state.t * xi ** 3)
    if tag == "N3u":
        return carrier * (1j * xi) * spectral_product(uh, uh, grid, mask)
    if tag == "N0u":
        part = _ref_valid_conv(vh, vh) - ker.pair_sum(U, 1.0, vh, vh)
        return carrier * (1j * xi) * part
    if tag == "N0v":
        ixv = 1j * xi * vh
        part = _ref_valid_conv(uh, ixv) - ker.pair_sum(V, 1.0, uh, ixv)
        return carrier * part
    if tag == "Bu":
        return carrier * ker.pair_sum(U, ker.ku, vh, vh)
    if tag == "Bv":
        return carrier * ker.pair_sum(V, ker.kv2, uh, vh)
    if tag == "N1v":
        conv_vv = spectral_product(vh, vh, grid, mask)
        return -1j * carrier * ker.pair_sum(V, ker.kv12, conv_vv, vh)
    if tag == "N2v":
        conv_uu = spectral_product(uh, uh, grid, mask)
        return -1j * carrier * ker.pair_sum(V, ker.kv12, conv_uu, vh)
    w = -1j * spectral_product(uh, 1j * xi * vh, grid, mask)
    if tag == "N1u":
        return -1j * carrier * ker.pair_sum(U, ker.ku, w, vh)
    if tag == "N2u":
        return -1j * carrier * ker.pair_sum(U, ker.ku, vh, w)
    assert tag == "N3v"
    return -1j * carrier * ker.pair_sum(V, ker.kv2, uh, w)


def _ref_coupling_terms(state, a, cut):
    grid = state.grid
    xi3 = grid.xi ** 3
    mask = _kernels(grid, a, cut).outmask
    nu, nv = NonlinearTerms(grid, Coefficients(a), mask)(
        np.array((state.uhat.coeffs, state.vhat.coeffs)))[0]
    return (np.exp(-1j * a * state.t * xi3) * nu,
            np.exp(-1j * state.t * xi3) * nv)


def _ref_residual(trajectory, a, cut):
    """ibps_residual's Simpson loop over the per-term reference."""
    grid = trajectory[0].grid
    xi = grid.xi
    t0 = trajectory[0].t
    m = len(trajectory) - 1
    h = (trajectory[-1].t - t0) / m
    w = ibps._simpson_weights(m, h)
    acc = np.zeros((4, grid.n), dtype=complex)
    for wi, st in zip(w, trajectory):
        cu, cv = _ref_coupling_terms(st, a, cut)
        nu = sum(_ref_eval_term(tag, st, a, cut)
                 for tag in ("N0u", "N1u", "N2u", "N3u"))
        nv = sum(_ref_eval_term(tag, st, a, cut)
                 for tag in ("N0v", "N1v", "N2v", "N3v"))
        acc += wi * np.array((cu, cv, nu, nv))
    b = [_ref_eval_term(tag, trajectory[k], a, cut)
         for tag in ("Bu", "Bv") for k in (0, -1)]
    util0 = np.exp(-1j * a * t0 * xi ** 3) * trajectory[0].uhat.coeffs
    vtil0 = np.exp(-1j * t0 * xi ** 3) * trajectory[0].vhat.coeffs
    rec_cl = (util0 + acc[0], vtil0 + acc[1])
    rec_ib = (util0 + (b[1] - b[0]) + acc[2], vtil0 + (b[3] - b[2]) + acc[3])
    scale = max(np.max(np.abs(rec_cl[0])), np.max(np.abs(rec_cl[1])))
    diff = max(np.max(np.abs(rec_cl[0] - rec_ib[0])),
               np.max(np.abs(rec_cl[1] - rec_ib[1])))
    return diff / scale


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("a", [-1.0, 0.5, 2.0])
def test_state_terms_match_per_term_reference(n, a):
    # a = -1 takes the U1 branch (xi1 ~= xi2); random non-Hermitian data
    g = Grid(2.0 * np.pi, n)
    cut = CutoffParams(delta_u=0.2, delta_v=0.2)
    rng = np.random.default_rng(n)
    field = lambda: SpectralField(
        g, rng.normal(size=g.n) + 1j * rng.normal(size=g.n))
    st = SimState(0.0123, field(), field(), _norm_params(a))
    got = ibps._StateTerms(g, a, cut)(st)
    ref = ([_ref_eval_term(tag, st, a, cut) for tag in TERM_TAGS]
           + list(_ref_coupling_terms(st, a, cut)))
    assert got.shape == (12, n)
    for row, (x, y) in enumerate(zip(got, ref)):
        scale = np.max(np.abs(y))
        assert scale > 0.0, row
        assert np.max(np.abs(x - y)) <= 1e-13 * scale, row
    for k, tag in enumerate(TERM_TAGS):
        assert np.array_equal(eval_term(tag, st, a, cut), got[k]), tag
    cu, cv = coupling_terms(st, a, cut)
    assert np.array_equal(cu, got[10]) and np.array_equal(cv, got[11])


def test_residual_matches_per_term_reference(short_trajectory):
    cut = CutoffParams()
    ref = _ref_residual(short_trajectory, 0.5, cut)
    got = ibps_residual(short_trajectory, 0.5, cut)
    assert ref > 0.0
    assert abs(got - ref) <= 1e-6 * ref


def test_residual_rejects_other_grids(short_trajectory):
    states = list(short_trajectory[:5])
    st = states[2]
    g = Grid(st.grid.L, st.grid.n)  # equal, but not the shared grid
    states[2] = SimState(st.t, SpectralField(g, st.uhat.coeffs),
                         SpectralField(g, st.vhat.coeffs), st.params)
    with pytest.raises(ValueError, match="share one grid"):
        ibps_residual(states, 0.5, CutoffParams())


def test_residual_rejects_other_systems(short_trajectory):
    # the decomposition describes (a, 1, 1, 1) only
    with pytest.raises(ValueError, match="describes the system"):
        ibps_residual(short_trajectory[:5], 2.0, CutoffParams())
    states = list(short_trajectory[:5])
    for key in ("beta", "gamma", "theta"):
        st = states[-1]
        states[-1] = SimState(st.t, st.uhat, st.vhat,
                              Coefficients(0.5, **{key: 2.0}))
        with pytest.raises(ValueError, match="describes the system"):
            ibps_residual(states, 0.5, CutoffParams())
        states[-1] = st
