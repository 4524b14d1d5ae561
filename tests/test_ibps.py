import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from hskdv import cli, ibps
from hskdv.ibps import (TERM_TAGS, CutoffParams, coupling_terms, eval_term,
                        in_U, in_V, ibps_residual, u_phase_floor_constant,
                        v_phase_floor_constant)
from hskdv.ibps import region_kernels
from hskdv.phases import Coefficients, PhaseFloorError, eval_phase
from hskdv.spectral import (Grid, SimState, SolverConfig,
                            SpectralField, make_state, run,
                            spectral_product)
from hskdv.spectral import NonlinearTerms, _mirror, _Propagator

CUT10 = CutoffParams(delta_u=0.1, delta_v=0.1, eta_sim=0.1)


def _norm_params(a):
    return Coefficients(a, beta=1.0, gamma=1.0, theta=1.0)


def _real_field(grid, rng, nyquist=0.0):
    """A real field: random coefficients of modes 0, ..., n/2-1 (mode 0
    real), the given Nyquist coefficient and the mirror of the rest."""
    z = rng.normal(size=grid.n // 2) + 1j * rng.normal(size=grid.n // 2)
    z[0] = z[0].real
    return SpectralField(grid, np.concatenate((z, [nyquist],
                                               np.conj(z[:0:-1]))))


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


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("field", ["delta_u", "delta_v"])
def test_cutoff_rejects_non_finite_thresholds(field, value):
    # a NaN threshold left every region empty, so the residual compared
    # the classical side with itself and passed
    with pytest.raises(ValueError, match=field + " must be positive and "
                       "finite"):
        CutoffParams(**{field: value})


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
    assert np.all(eval_term("Bu", st, CUT10) == 0.0)
    assert np.all(eval_term("N0u", st, CUT10) == 0.0)


def test_unknown_tag():
    g = Grid(2.0 * np.pi, 32)
    st = _gaussian_state(g, 0.5)
    with pytest.raises(ValueError):
        eval_term("N4u", st, CUT10)


def test_n3u_matches_quadratic_profile_term():
    g = Grid(2.0 * np.pi, 128)
    a = 0.5
    st = _gaussian_state(g, a)
    st.t = 0.013
    got = eval_term("N3u", st, CutoffParams())
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
    cu, cv = coupling_terms(st, cut)

    comp_u, regn_u = _oracle_split(st, a, cut, "u")
    n3u = eval_term("N3u", st, cut)
    assert np.max(np.abs(eval_term("N0u", st, cut) - comp_u)) < 1e-10
    assert np.max(np.abs(cu - (comp_u + regn_u + n3u))) < 1e-10

    comp_v, regn_v = _oracle_split(st, a, cut, "v")
    assert np.max(np.abs(eval_term("N0v", st, cut) - comp_v)) < 1e-10
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
    st = SimState(0.002, _real_field(g, rng), _real_field(g, rng),
                  _norm_params(a))
    oracle = _oracle_terms(st, a, cut)
    for tag in TERM_TAGS:
        got = eval_term(tag, st, cut)
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
        eval_term("Bu", st, cut)
    msg = str(err.value)
    assert msg.startswith(name + " below its floor")
    assert msg.endswith("(xi, xi1) = (%g, %g)" % first)


def test_boundary_kernel_symmetric_in_arguments():
    g = Grid(2.0 * np.pi, 64)
    a = -1.0
    cut = CutoffParams(delta_u=0.2, delta_v=0.2)
    ker = region_kernels(g, a, cut)
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
    res = ibps_residual(short_trajectory, cut)
    assert res < 1e-4
    coarse = ibps_residual(short_trajectory[::2], cut)
    # composite Simpson defect drops like h^4
    assert coarse / res >= 8.0


def test_residual_input_validation(short_trajectory):
    with pytest.raises(ValueError):
        ibps_residual(short_trajectory[:4], CutoffParams())
    bad = [short_trajectory[0], short_trajectory[1], short_trajectory[4]]
    assert len(bad) % 2 == 1
    with pytest.raises(ValueError):
        ibps_residual(bad, CutoffParams())


def test_residual_zero_data():
    g = Grid(2.0 * np.pi, 64)
    p = _norm_params(0.5)
    zero = lambda x: 0.0 * x
    states = []
    for k in range(3):
        st = make_state(g, zero, zero, p)
        st.t = k * 0.01
        states.append(st)
    assert ibps_residual(states, CutoffParams()) == 0.0


@pytest.mark.parametrize("a", [-1.0, 2.0])
def test_output_row_filter_keeps_every_term(a):
    # the regions keep only the pairs of the dealiased rows with xi >= 0;
    # mirrored, every term must equal the one summed over every pair of
    # every output row
    cut = CutoffParams(delta_u=0.2, delta_v=0.2)
    rng = np.random.default_rng(5)
    g = Grid(2.0 * np.pi, 64)
    st = SimState(0.002, _real_field(g, rng), _real_field(g, rng),
                  _norm_params(a))
    ker = region_kernels(g, a, cut)
    every = _full_row_kernels(g, a, cut, every_row=True)
    for region in ("U", "V"):
        rows = getattr(ker, region)[0]
        assert 0 < getattr(ker, region)[2].size < getattr(every,
                                                          region)[2].size
        assert np.all(ker.outmask[rows]) and np.all(g.xi[rows] >= 0)
    want = _FullRowStateTerms(g, a, cut, every_row=True)(st)
    for k, tag in enumerate(TERM_TAGS):
        got = eval_term(tag, st, cut)
        assert np.max(np.abs(got - want[k])) <= 1e-13 * np.max(
            np.abs(want[k])), tag


# Per-term reference: every term on its own, with its own transforms and
# region sum over every output row, written out from the formulas.
# ibps._StateTerms forms all of them together on the dealiased rows with
# xi >= 0, and eval_term's mirror of them must agree row by row.

def _cube(xi):
    """xi^3 as sign(xi)|xi|^3, exactly odd, and equal to xi**3 on
    xi >= 0. numpy's xi**3 is not odd: at n = 256, L = 2 pi it differs
    from -(-xi)**3 in the last place at 3 of the 127 negative
    frequencies, which puts up to 6e-13 relative asymmetry into a
    carrier exp(-i t xi^3) at t = 0.0123."""
    return np.sign(xi) * np.abs(xi) ** 3


class _FullRowKernels:
    """The regions of _dense_regions on the output rows in keep, with
    row sums over all n rows: the kernels before the half-row build."""

    def __init__(self, grid, a, cut, keep):
        self.n, self.outmask = grid.n, grid.dealias_mask()
        (self.U, (self.ku,)), (self.V, (self.kv2, self.kv12)) = (
            _dense_regions(grid, a, cut, keep))

    def sums(self, region, prods):
        rows, starts = region[:2]
        out = np.zeros(prods.shape[:-1] + (self.n,), dtype=complex)
        out[..., rows] = np.add.reduceat(prods, starts, axis=-1)
        return out

    def pair_sum(self, region, k, f1, f2):
        j, j2 = region[2:]
        return self.sums(region, k * f1[j] * f2[j2])


_FULL_ROW_KERNELS = {}


def _full_row_kernels(grid, a, cut, every_row=False):
    """_FullRowKernels on the dealiased rows (every row if every_row),
    cached by grid size, a and cutoffs."""
    key = (grid.L, grid.n, a, cut.delta_u, cut.delta_v, cut.eta_sim,
           every_row)
    if key not in _FULL_ROW_KERNELS:
        keep = np.ones(grid.n, bool) if every_row else grid.dealias_mask()
        _FULL_ROW_KERNELS[key] = _FullRowKernels(grid, a, cut, keep)
    return _FULL_ROW_KERNELS[key]


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
    ker = _full_row_kernels(grid, a, cut)
    xi = grid.xi
    uh = state.uhat.coeffs
    vh = state.vhat.coeffs
    mask = ker.outmask
    U, V = ker.U, ker.V
    speed = a if tag.endswith("u") else 1.0
    carrier = mask * np.exp(-1j * speed * state.t * _cube(xi))
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


def _full_space_sides(state, mask):
    """The classical right sides (i xi (u^2 + v^2)^hat, (u v_x)^hat) on
    all n modes with complex transforms: the full-space oracle of the
    half-space rows. With a complex Nyquist coefficient, ifft gives u
    and v an imaginary part that irfft drops, so the two agree to
    rounding only on real data whose Nyquist coefficient is real."""
    ixi = 1j * state.grid.xi
    uh, vh = state.uhat.coeffs, state.vhat.coeffs
    u, v, vx = np.fft.ifft(np.array((uh, vh, ixi * vh)), norm="forward")
    nl = np.fft.fft(np.array((u * u + v * v, u * vx)), norm="forward")
    nl *= mask
    nl[0] *= ixi
    return nl


def _ref_coupling_terms(state, a, cut):
    xi3 = _cube(state.grid.xi)
    nu, nv = _full_space_sides(state, state.grid.dealias_mask())
    return (np.exp(-1j * a * state.t * xi3) * nu,
            np.exp(-1j * state.t * xi3) * nv)


def _ref_residual(trajectory, a, cut):
    """ibps_residual's Simpson loop over the per-term reference."""
    grid = trajectory[0].grid
    xi = grid.xi
    t0 = trajectory[0].t
    m = len(trajectory) - 1
    h = (trajectory[-1].t - t0) / m
    w = np.array([1.0] + [4.0, 2.0] * (m // 2 - 1) + [4.0, 1.0]) * (h / 3)
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


class _FullRowStateTerms:
    """ibps._StateTerms before the half-row build, kept as the oracle of
    its mirror: the region pairs, sums, complements and carriers run over
    all n output rows, and a call returns (12, n) rows. The complements
    are complex zero-padded FFT products (_ref_valid_conv), the classical
    sides the solver's half-space right side mirrored, and xi^3 is
    _cube(xi), so the rows are conjugate-symmetric to rounding. On the
    rows with xi >= 0 they equal the evaluator's rows before the change
    bit for bit (checked at n = 64 and 256, a = -1, 1/2, 2, both
    cutoffs)."""

    def __init__(self, grid, a, cut, every_row=False):
        self.a = a
        self.ker = ker = _full_row_kernels(grid, a, cut, every_row)
        self.m = m = grid.n // 2 + 1
        self.nonlinear = NonlinearTerms(grid, _norm_params(a),
                                        ker.outmask[:m])
        self.ixi = 1j * grid.xi
        self.xi3 = _cube(grid.xi)

    def __call__(self, state):
        a, ker, m, n = self.a, self.ker, self.m, self.ker.n
        ixi = self.ixi
        uh = state.uhat.coeffs
        vh = state.vhat.coeffs
        # rows uh, conv_uu, conv_vv, i xi vh, w, vh
        src = np.empty((6, n), dtype=complex)
        src[0], src[5] = uh, vh
        ixv = np.multiply(ixi, vh, out=src[3])
        nl, (u, v) = self.nonlinear(np.array((uh[:m], vh[:m])))
        cl_u, cl_v = _mirror(nl, np.empty((2, n), dtype=complex))
        np.multiply(-1j, cl_v, out=src[4])
        _mirror(np.fft.rfft(np.array((u * u, v * v)), norm="forward")
                * self.nonlinear.mask, src[1:3])
        full_u, full_v = _ref_valid_conv(vh, vh), _ref_valid_conv(uh, ixv)

        # u region: (vh, w) at j and (w, vh) at j2 become Bu, N1u, N2u
        # and the N0u part
        j, j2 = ker.U[2:]
        p = np.array((src[5, j], src[4, j], src[4, j2], src[5, j2]))
        np.multiply(p[0], p[2], out=p[2])
        np.multiply(p[1], p[3], out=p[1])
        np.multiply(p[0], p[3], out=p[3])
        p[0] = p[3]
        p[:3] *= ker.ku
        su = ker.sums(ker.U, p)
        # v region: (uh, conv_uu, conv_vv) at j and (i xi vh, w, vh) at
        # j2 become N2v, N1v, the N0v part, N3v, Bv
        j, j2 = ker.V[2:]
        p = np.concatenate((src[:3, j], src[3:, j2]))
        np.multiply(p[1:3], p[5], out=p[1:3])
        np.multiply(p[0], p[3:], out=p[3:])
        p[1:3] *= ker.kv12
        p[4:] *= ker.kv2
        sv = ker.sums(ker.V, p[1:])
        su[1:3] *= -1j
        sv[[0, 1, 3]] *= -1j

        terms = np.array((ixi * (full_u - su[3]), su[1], su[2],
                          ixi * src[1], full_v - sv[2], sv[1], sv[0],
                          sv[3], su[0], sv[4], cl_u, cl_v))
        carriers = ker.outmask * np.exp(np.multiply.outer(
            (-1j * a * state.t, -1j * state.t), self.xi3))
        terms *= carriers[ibps._EQUATION]
        return terms


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("a", [-1.0, 0.5, 2.0])
def test_state_terms_match_per_term_reference(n, a):
    # a = -1 takes the U1 branch (xi1 ~= xi2); random real data with a
    # zero Nyquist coefficient, on which the full-space oracle of the
    # classical sides is exact to rounding
    g = Grid(2.0 * np.pi, n)
    cut = CutoffParams(delta_u=0.2, delta_v=0.2)
    rng = np.random.default_rng(n)
    st = SimState(0.0123, _real_field(g, rng), _real_field(g, rng),
                  _norm_params(a))
    got = ibps._StateTerms(g, a, cut)(st)
    k = region_kernels(g, a, cut).nrows
    assert got.shape == (12, k)
    ref = ([_ref_eval_term(tag, st, a, cut) for tag in TERM_TAGS]
           + list(_ref_coupling_terms(st, a, cut)))
    full = ([eval_term(tag, st, cut) for tag in TERM_TAGS]
            + list(coupling_terms(st, cut)))
    for row, (x, y) in enumerate(zip(full, ref)):
        scale = np.max(np.abs(y))
        assert scale > 0.0, row
        assert np.max(np.abs(x - y)) <= 1e-13 * scale, row
        assert np.array_equal(x[:k], got[row]), row


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=hst.sampled_from([32, 64, 128, 256]),
       a=hst.sampled_from([-1.0, 0.5, 2.0]),
       delta=hst.sampled_from([0.05, 0.2]),
       seed=hst.integers(0, 2 ** 32 - 1), t=hst.floats(0.0, 0.02),
       nyquist=hst.sampled_from([0.0, 0.3, -0.7]))
def test_mirrored_rows_equal_the_full_row_oracle(n, a, delta, seed, t,
                                                 nyquist):
    # the Nyquist mode pairs only on rows with xi < 0, where it has no
    # mirror: with a nonzero one only the rows with xi >= 0 must agree
    g = Grid(2.0 * np.pi, n)
    cut = CutoffParams(delta_u=delta, delta_v=delta)
    rng = np.random.default_rng(seed)
    st = SimState(t, _real_field(g, rng, nyquist),
                  _real_field(g, rng, nyquist), _norm_params(a))
    got = ibps._all_modes(ibps._StateTerms(g, a, cut)(st), n)
    want = _FullRowStateTerms(g, a, cut)(st)
    rows = slice(None) if nyquist == 0.0 else slice(0, n // 2)
    for row, (x, y) in enumerate(zip(got, want)):
        scale = np.max(np.abs(y))
        assert np.max(np.abs(x[rows] - y[rows])) <= 1e-13 * scale, row


@pytest.mark.parametrize("a", [-1.0, 0.5, 2.0])
def test_coupling_terms_are_the_solver_right_side(a):
    # a real state whose Nyquist coefficient the linear flow made complex:
    # the classical sides are the solver's right side on the half space,
    # mirrored to all n modes and carried to profile coordinates
    g = Grid(2.0 * np.pi, 64)
    st = make_state(g, lambda x: 0.3 * np.cos(x) + 0.1 * np.cos(32 * x),
                    lambda x: 0.2 * np.sin(2 * x) - 0.1 * np.cos(32 * x),
                    _norm_params(a))
    st, _ = run(st, SolverConfig(dt=1e-3, nonlinear_enabled=False), 0.005)
    assert st.uhat.coeffs[32].imag != 0.0 and st.vhat.coeffs[32].imag != 0.0
    prop = _Propagator(st, SolverConfig(dt=1e-3))
    m = g.n // 2 + 1
    nl = prop.terms(np.array((st.uhat.coeffs[:m], st.vhat.coeffs[:m])))[0]
    carriers = g.dealias_mask() * np.exp(np.multiply.outer(
        (-1j * a * st.t, -1j * st.t), g.xi ** 3))
    want = prop.full(nl) * carriers
    cu, cv = coupling_terms(st, CutoffParams())
    assert np.array_equal(cu, want[0]) and np.array_equal(cv, want[1])


def test_residual_matches_per_term_reference(short_trajectory):
    cut = CutoffParams()
    ref = _ref_residual(short_trajectory, 0.5, cut)
    got = ibps_residual(short_trajectory, cut)
    assert ref > 0.0
    assert abs(got - ref) <= 1e-6 * ref


def test_residual_rejects_other_grids(short_trajectory):
    states = list(short_trajectory[:5])
    st = states[2]
    g = Grid(st.grid.L, st.grid.n)  # equal, but not the shared grid
    states[2] = SimState(st.t, SpectralField(g, st.uhat.coeffs),
                         SpectralField(g, st.vhat.coeffs), st.params)
    with pytest.raises(ValueError, match="share one grid"):
        ibps_residual(states, CutoffParams())


def test_residual_rejects_other_systems(short_trajectory):
    # the decomposition describes (a, 1, 1, 1) with one a only: a
    # trajectory that mixes a = 1/2 and a = 2 is none
    states = list(short_trajectory[:5])
    st = states[-1]
    states[-1] = SimState(st.t, st.uhat, st.vhat, _norm_params(2.0))
    with pytest.raises(ValueError, match=r"describes the system "
                       r"\(a, beta, gamma, theta\) = \(0\.5, 1, 1, 1\)"):
        ibps_residual(states, CutoffParams())
    states[-1] = st
    for key in ("beta", "gamma", "theta"):
        st = states[-1]
        states[-1] = SimState(st.t, st.uhat, st.vhat,
                              Coefficients(0.5, **{key: 2.0}))
        with pytest.raises(ValueError, match="describes the system"):
            ibps_residual(states, CutoffParams())
        states[-1] = st


@pytest.mark.parametrize("key", ["beta", "gamma", "theta"])
def test_terms_reject_other_couplings(key):
    # eval_term and coupling_terms read a from the state, and the state
    # must carry the normalized coupling
    g = Grid(2.0 * np.pi, 32)
    st = make_state(g, lambda x: 0.3 * np.cos(x), lambda x: 0.2 * np.sin(x),
                    Coefficients(0.5, **{key: 2.0}))
    with pytest.raises(ValueError, match="describes the system"):
        eval_term("Bu", st, CUT10)
    with pytest.raises(ValueError, match="describes the system"):
        coupling_terms(st, CUT10)


def _end_time(t0, dt, nsteps):
    """The final time of nsteps steps from t0, by the float additions of
    step(), as ibps-check forms it."""
    t = t0
    for _ in range(nsteps):
        t += dt
    return t


@pytest.mark.parametrize("every", [1, 2, 3])
@pytest.mark.parametrize("a", [-1.0, 0.5, 2.0])
@pytest.mark.parametrize("n", [64, 128])
def test_streamed_residual_equals_the_list_form(n, a, every):
    # the Simpson sum that ibps-check hands to run() gives the residual
    # of the kept list bit for bit
    st = _gaussian_state(Grid(2.0 * np.pi, n), a)
    cfg, nsteps = SolverConfig(dt=1e-4), 12
    _, states = run(st, cfg, nsteps * 1e-4, store_every=every)
    acc = ibps._SimpsonSum(_end_time(st.t, 1e-4, nsteps), nsteps // every,
                           CutoffParams())
    _, sink = run(st, cfg, nsteps * 1e-4, store_every=every, stored=acc)
    assert sink is acc
    assert len(acc) == len(states) == nsteps // every + 1
    assert acc.value() == ibps_residual(states, CutoffParams())


def test_simpson_sum_rejections_name_their_cause(short_trajectory):
    s0, s1, s2, s3 = short_trajectory[:4]
    cut, t_end = CutoffParams(), s2.t

    def fed(states, t_end=t_end, intervals=2):
        acc = ibps._SimpsonSum(t_end, intervals, cut)
        for st in states:
            acc.append(st)
        return acc

    with pytest.raises(ValueError, match="even interval count"):
        ibps._SimpsonSum(t_end, 3, cut)
    other = SimState(s1.t, s1.uhat, s1.vhat, _norm_params(2.0))
    with pytest.raises(ValueError, match="describes the system"):
        fed([s0, other])
    g = Grid(s1.grid.L, s1.grid.n)
    moved = SimState(s1.t, SpectralField(g, s1.uhat.coeffs),
                     SpectralField(g, s1.vhat.coeffs), s1.params)
    with pytest.raises(ValueError, match="share one grid"):
        fed([s0, moved])
    with pytest.raises(ValueError, match="not equally spaced"):
        fed([s0, s2])
    with pytest.raises(ValueError, match="of 2 intervals takes 3 states, "
                       "not more"):
        fed([s0, s1, s2, s3])
    with pytest.raises(ValueError, match="holds 2 of its 3 states"):
        fed([s0, s1]).value()
    late = np.nextafter(t_end, 1.0)
    with pytest.raises(ValueError, match=r"last state's time .* is not "
                       r"the final time"):
        fed([s0, s1, s2], t_end=late).value()
    assert fed([s0, s1, s2]).value() == ibps_residual([s0, s1, s2], cut)


@pytest.mark.parametrize("dt", [2e-5, 1e-4, 3e-4])
def test_cli_end_time_is_the_last_state_time(tmp_path, monkeypatch, dt):
    # ibps-check sums its states with a Simpson step from its own final
    # time, which must be the solve's last t bit for bit
    seen = []

    class Recorded(ibps._SimpsonSum):
        def append(self, state):
            seen.append((self.t_end, state.t))
            super().append(state)

    monkeypatch.setattr(ibps, "_SimpsonSum", Recorded)
    code = cli.main(["ibps-check", "--a", "0.5", "--n", "64",
                     "--L", repr(2.0 * math.pi), "--dt", repr(dt),
                     "--T", repr(40 * dt), "--store_every", "2",
                     "--width", "0.25", "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    t_end, t_last = seen[-1]
    assert len(seen) == 21 and t_end == t_last


# The five vetted ibps-check tuples (n = 256, L = 2 pi, dt = 2e-5,
# T = 0.01024, every 2nd of 512 steps kept, width 0.25): (a, u0, v0) ->
# residual, pinned bit for bit.
VETTED_RESIDUALS = {
    ("0.5", "0.5", "0.5"): 1.2825849887510479e-11,
    ("0.5", "0.4", "0.3"): 5.751127349667795e-12,
    ("2", "0.5", "0.5"): 2.5562627854038387e-10,
    ("-1", "0.4", "0.4"): 5.315282593655408e-09,
    ("0.5", "0.3", "0.5"): 1.2759949753817529e-11,
}


@pytest.mark.parametrize("a, u0, v0", sorted(VETTED_RESIDUALS))
def test_vetted_residuals_pinned(tmp_path, a, u0, v0):
    code = cli.main(["ibps-check", "--a", a, "--n", "256",
                     "--L", repr(2.0 * math.pi), "--dt", "2e-5",
                     "--T", "0.01024", "--store_every", "2",
                     "--width", "0.25", "--u0_amp", u0, "--v0_amp", v0,
                     "--max_residual", "1e-4", "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    report = json.loads((tmp_path / "ibps_report.json").read_text())
    assert report["n_states"] == 257
    assert report["residual"] == VETTED_RESIDUALS[(a, u0, v0)]


# sha256 prefixes of the bytes of the (12, nrows) _StateTerms rows at
# random real data (_real_field, seed n, t = 0.0123): (n, a, cutoffs) ->
# digest
CUT02 = CutoffParams(delta_u=0.2, delta_v=0.2)
ROW_DIGESTS = {
    (64, -1.0, "default"): "e9bf8be8668a504e",
    (64, -1.0, "0.2"): "7d5ebdefd1f9a465",
    (64, 0.5, "default"): "7f74dd07b6a2748e",
    (64, 0.5, "0.2"): "c44979c64f2046c5",
    (64, 2.0, "default"): "5347eb2b2dbd261c",
    (64, 2.0, "0.2"): "5f7ad84db2234851",
    (128, -1.0, "default"): "6cfa50c05de5bba4",
    (128, -1.0, "0.2"): "e89f626acff25b48",
    (128, 0.5, "default"): "64691de3a2b6b121",
    (128, 0.5, "0.2"): "5d799ec708bf5f85",
    (128, 2.0, "default"): "977ee19844ec297b",
    (128, 2.0, "0.2"): "c4dd0a5b403e946a",
    (256, -1.0, "default"): "adeb2aead36de4f7",
    (256, -1.0, "0.2"): "a9356665f246edb9",
    (256, 0.5, "default"): "e9e7b5c48d02272e",
    (256, 0.5, "0.2"): "89981f145c057c23",
    (256, 2.0, "default"): "947dc3b9ce124df0",
    (256, 2.0, "0.2"): "044e8b8bbd199d12",
    (512, -1.0, "default"): "d6b6320207629264",
    (512, -1.0, "0.2"): "ef9339ed599b61ce",
    (512, 0.5, "default"): "a7ce56ae12e7077b",
    (512, 0.5, "0.2"): "0e05500c6bc2fc6e",
    (512, 2.0, "default"): "bcfb34cb23455424",
    (512, 2.0, "0.2"): "598f0aa5dea1eff4",
}


@pytest.mark.parametrize("n, a, cut", sorted(ROW_DIGESTS))
def test_state_term_rows_pinned(n, a, cut):
    g = Grid(2.0 * np.pi, n)
    rng = np.random.default_rng(n)
    st = SimState(0.0123, _real_field(g, rng), _real_field(g, rng),
                  _norm_params(a))
    rows = ibps._StateTerms(
        g, a, CutoffParams() if cut == "default" else CUT02)(st)
    digest = hashlib.sha256(rows.tobytes()).hexdigest()[:16]
    assert digest == ROW_DIGESTS[(n, a, cut)]


def _dense_pairs(grid, name, a, cut):
    """(i, j, j2) of every pair of U (name Phi1u) or V (Phiv) whose xi2 is
    on the grid, in row-major order over all n output rows, from n x n
    frequency arrays, and the phase (ibps.eval_phase) on them."""
    n, xi = grid.n, grid.xi
    XI, XI1 = xi[:, None], xi[None, :]
    XI2 = XI - XI1
    idx2 = np.rint(XI2 / (2.0 * np.pi / grid.L)).astype(int)
    valid = (idx2 >= -(n // 2)) & (idx2 <= n // 2 - 1)
    member = (in_U(a, XI, XI1, XI2, cut) if name == "Phi1u"
              else in_V(XI, XI1, XI2, cut))
    i, j = np.nonzero(member & valid)
    return i, j, idx2[i, j] % n, ibps.eval_phase(name, a,
                                                 (xi[j], xi[i] - xi[j]))


def _dense_regions(grid, a, cut, keep=None):
    """((rows, starts, j, j2), kernels) of U and of V on the output rows
    in keep, by default the dealiased rows with xi >= 0 that
    _GridKernels keeps: the construction _GridKernels used before its
    row blocks, kept as the oracle of the blocked build."""
    xi = grid.xi
    if keep is None:
        keep = grid.dealias_mask() & (xi >= 0)
    out = []
    for tag in ("Phi1u", "Phiv"):
        i, j, j2, phi = _dense_pairs(grid, tag, a, cut)
        x, x1 = xi[i], xi[j]
        x2 = x - x1
        if tag == "Phi1u":
            kernels = (x / phi,)
        else:
            kv2 = x2 / phi
            kernels = (kv2, x1 * kv2)
        on = keep[i]
        rows, starts = np.unique(i[on], return_index=True)
        out.append(((rows, starts, j[on], j2[on]), [k[on] for k in kernels]))
    return out


def _assert_regions_equal(ker, dense):
    (U, ku), (V, kv) = dense
    got = (*ker.U, ker.ku, *ker.V, ker.kv2, ker.kv12)
    for k, (x, y) in enumerate(zip(got, (*U, *ku, *V, *kv))):
        assert x.dtype == y.dtype and np.array_equal(x, y), k


@pytest.mark.parametrize("cut", [CutoffParams(), CUT02],
                         ids=["default", "0.2"])
@pytest.mark.parametrize("a", [-1.0, 0.5, 2.0])
@pytest.mark.parametrize("n", [64, 128, 256, 512])
def test_blocked_regions_equal_the_dense_build(n, a, cut):
    g = Grid(2.0 * np.pi, n)
    _assert_regions_equal(ibps._GridKernels(g, a, cut),
                          _dense_regions(g, a, cut))


@pytest.mark.parametrize("block", [1, 700, 10 ** 6])
def test_block_size_does_not_change_the_regions(monkeypatch, block):
    # one row a block, ragged blocks of 5 rows, and one block of all rows
    monkeypatch.setattr(ibps, "_BLOCK_PAIRS", block)
    g = Grid(2.0 * np.pi, 128)
    _assert_regions_equal(ibps._GridKernels(g, -1.0, CUT02),
                          _dense_regions(g, -1.0, CUT02))


def test_phase_floor_error_from_a_later_block(monkeypatch):
    # the phase is 0 on the pairs of output frequency xi >= 100 only:
    # rows 100-127 of n = 256, in the 7th and 8th blocks of 16 rows
    phase = ibps.eval_phase
    monkeypatch.setattr(ibps, "eval_phase", lambda tag, a, freqs: np.where(
        freqs[0] + freqs[1] >= 100.0, 0.0, phase(tag, a, freqs)))
    g = Grid(2.0 * np.pi, 256)
    assert 100 // (ibps._BLOCK_PAIRS // g.n) == 6
    with pytest.raises(PhaseFloorError) as err:
        ibps._GridKernels(g, 0.5, CutoffParams())
    assert str(err.value) == ("Phi1u below its floor inside the region at "
                              "(xi, xi1) = (100, 0)")


def test_phase_floor_guard_catches_a_zero_phase_where_the_floor_is_0():
    # at a = 1 both floor constants are 0, so only a phase of exactly 0
    # fails the check; Phi1u is 0 on region pairs there, and its kernel
    # would divide by it
    assert u_phase_floor_constant(1.0, 0.1) == 0.0
    assert v_phase_floor_constant(1.0, 0.1) == 0.0
    with pytest.raises(PhaseFloorError) as err:
        ibps._GridKernels(Grid(2.0 * np.pi, 64), 1.0, CutoffParams())
    assert str(err.value) == ("Phi1u below its floor inside the region at "
                              "(xi, xi1) = (21, 0)")


def _first_below_floor(grid, name, a, cut):
    """(xi, xi1) of the first pair of the region of name, in row-major
    order over all n output rows, whose phase is at or below its floor:
    the check over every pair that the build made before its half rows."""
    i, j, _, phi = _dense_pairs(grid, name, a, cut)
    c = (ibps.u_phase_floor_constant if name == "Phi1u"
         else ibps.v_phase_floor_constant)(a, cut.eta_sim)
    xi = grid.xi
    k = np.flatnonzero(np.abs(phi) <= 0.5 * c * np.abs(xi[i]) ** 3)[0]
    return xi[i[k]], xi[j[k]]


@pytest.mark.parametrize("case", ["mirror", "nyquist"])
@pytest.mark.parametrize("name", ["Phi1u", "Phiv"])
def test_phase_floor_guard_covers_every_row(monkeypatch, name, case):
    # the build checks the rows with xi >= 0, then the pairs with no
    # mirror there. mirror: one bad pair on a kept row with xi < 0 (and
    # its mirror, as the phases are odd); nyquist: every pair with xi,
    # xi1 or xi2 = -n/2. Either way the message must name the first bad
    # pair over all n rows, as the check of every pair did.
    g = Grid(2.0 * np.pi, 256)
    a, cut = 0.5, CutoffParams()
    xi, half = g.xi, 2.0 * np.pi / g.L / 2.0
    nyq = xi[g.n // 2]
    if case == "mirror":
        i, j, _, _ = _dense_pairs(g, name, a, cut)
        p = np.flatnonzero((xi[i] < 0) & g.dealias_mask()[i])[-1]
        x1, x2 = xi[j[p]], xi[i[p]] - xi[j[p]]
        bad = lambda f1, f2: (((f1 == x1) & (f2 == x2))
                              | ((f1 == -x1) & (f2 == -x2)))
    else:
        bad = lambda f1, f2: ((np.abs(f1 - nyq) < half)
                              | (np.abs(f2 - nyq) < half)
                              | (np.abs(f1 + f2 - nyq) < half))
    phase = ibps.eval_phase
    monkeypatch.setattr(ibps, "eval_phase", lambda tag, a, freqs: np.where(
        (tag == name) & bad(*freqs), 0.0, phase(tag, a, freqs)))
    first = _first_below_floor(g, name, a, cut)
    if case == "mirror":
        assert first == (-xi[i[p]], -x1)
    else:
        assert min(abs(f - nyq) for f in (*first, first[0] - first[1])) < half
    with pytest.raises(PhaseFloorError) as err:
        ibps._GridKernels(g, a, cut)
    assert str(err.value) == ("%s below its floor inside the region at "
                              "(xi, xi1) = (%g, %g)" % (name, *first))


def _traced_peak(fn):
    """Bytes of the tracemalloc peak of fn() above what was traced before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_region_build_memory():
    # an n x n float array alone is 0.5 MB at n = 256; the dense build
    # peaked at 2.8 MB, the blocked build over all n rows at 1.1 MB, and
    # the build over the rows with xi >= 0 at 0.53 MB
    g = Grid(2.0 * np.pi, 256)
    assert _traced_peak(lambda: ibps._GridKernels(g, 0.5,
                                                  CutoffParams())) <= 0.75e6


def test_state_terms_call_memory():
    # the gathers and products live in the evaluator's scratch; per-call
    # gathers peaked at 0.6 MB, the scratch over all n rows at 0.16 MB,
    # over the kept rows with xi >= 0 at 0.11 MB
    g = Grid(2.0 * np.pi, 256)
    rng = np.random.default_rng(3)
    st = SimState(0.0123, _real_field(g, rng), _real_field(g, rng),
                  _norm_params(0.5))
    terms = ibps._StateTerms(g, 0.5, CutoffParams())
    first = terms(st)
    assert _traced_peak(lambda: terms(st)) <= 0.15e6
    assert np.array_equal(terms(st), first)


def test_ibps_check_keeps_no_states(tmp_path):
    # the states are summed as the solve makes them: keeping the 257
    # states of the vetted run peaked at 2.73 MB, streaming them at
    # 0.54 MB (the kernels are built by the first, untraced run)
    argv = ["ibps-check", "--a", "0.5", "--n", "256",
            "--L", repr(2.0 * math.pi), "--dt", "2e-5", "--T", "0.01024",
            "--store_every", "2", "--width", "0.25", "--u0_amp", "0.5",
            "--v0_amp", "0.5", "--out", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_OK
    assert _traced_peak(lambda: cli.main(argv)) <= 0.8e6
