"""Integration-by-parts decomposition of the Duhamel coupling terms.

On the "problematic" frequency regions the coupling integrals of the
profile equations oscillate with a phase comparable to |xi|^3, so the
time integral can be integrated by parts: each coupling term splits
into its complement part (N0), a boundary term (B) evaluated at the
endpoints, and cubic terms (N1, N2, N3) obtained by substituting the
profile equations for the differentiated factor. This module evaluates
every term on a periodic spectral grid and checks that the classical
and the integrated-by-parts reconstructions of the profiles agree.

Each region is kept per grid as the index lists of its (xi, xi1)
pairs with the real kernels on them, so B, N1, N2 and N3v are sums
over the region's pairs only. A complement N0 is the convolution over
every pair whose xi2 is a grid frequency, by one zero-padded FFT
product, minus the region's part of it.

All formulas use the normalized coupling beta = gamma = theta = 1.

Problematic regions (with f ~= g meaning |f-g| <= eta*max(|f|,|g|)):

  U1 = {xi1 ~= xi2 and |xi| > 1/delta_u}        (only for a < 1/4)
  U2 = {(xi ~= xi1 or xi ~= xi2) and |xi| > 1/delta_u}
  U  = U1 union U2 for a < 1/4, U2 alone for a in [1/4, inf) minus {1}
  V  = {xi ~= xi1 and |xi| > 1/delta_v}
"""

import numpy as np

from .phases import Coefficients, PhaseFloorError, eval_phase
from .spectral import nonlinear_terms, spectral_product

TERM_TAGS = ("N0u", "N1u", "N2u", "N3u", "N0v", "N1v", "N2v", "N3v",
             "Bu", "Bv")


class CutoffParams:
    def __init__(self, delta_u=0.05, delta_v=0.05, eta_sim=0.1):
        if delta_u <= 0 or delta_v <= 0:
            raise ValueError("cutoff thresholds must be positive")
        if not 0 < eta_sim < 1:
            raise ValueError("eta_sim must lie in (0,1)")
        self.delta_u = float(delta_u)
        self.delta_v = float(delta_v)
        self.eta_sim = float(eta_sim)


def _sim(f, g, eta):
    """The comparability relation f ~= g, elementwise."""
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    return np.abs(f - g) <= eta * np.maximum(np.abs(f), np.abs(g))


def _check_conv(xi, xi1, xi2):
    if np.any(np.abs(np.asarray(xi) - (np.asarray(xi1) + np.asarray(xi2)))
              > 1e-9 * (1.0 + np.abs(np.asarray(xi)))):
        raise ValueError("frequencies violate xi = xi1 + xi2")


def in_U(a, xi, xi1, xi2, cut):
    """Membership in the problematic set U of the u equation."""
    _check_conv(xi, xi1, xi2)
    big = np.abs(np.asarray(xi, dtype=float)) > 1.0 / cut.delta_u
    u2 = (_sim(xi, xi1, cut.eta_sim) | _sim(xi, xi2, cut.eta_sim)) & big
    if a < 0.25:
        return (_sim(xi1, xi2, cut.eta_sim) & big) | u2
    return u2


def in_V(xi, xi1, xi2, cut):
    """Membership in the problematic set V of the v equation."""
    _check_conv(xi, xi1, xi2)
    big = np.abs(np.asarray(xi, dtype=float)) > 1.0 / cut.delta_v
    return _sim(xi, xi1, cut.eta_sim) & big


def u_phase_floor_constant(a, eta):
    """Conservative c with |Phi1u| >= c|xi|^3 on U.

    For a < 1/4 the global vertex bound 1/4 - a applies; for a >= 1/4
    membership in U2 forces the small factor |xi_j| <= eta|xi|, leaving
    |1-a| - 3 eta - 3 eta^2 of the quadratic factor.
    """
    if a < 0.25:
        return 0.25 - a
    return max(abs(1.0 - a) - 3.0 * eta - 3.0 * eta ** 2, 0.0)


def v_phase_floor_constant(a, eta):
    """Conservative c with |Phiv| >= c|xi|^3 on V (|xi2| <= eta|xi|)."""
    return max(abs(1.0 - a) - 3.0 * abs(a) * eta
               - 3.0 * abs(a) * eta ** 2 - abs(1.0 - a) * eta ** 3, 0.0)


class _GridKernels:
    """Index lists and real phase kernels of the regions U and V on one grid.

    A region is a tuple (rows, starts, j, j2) over its pairs in row-major
    order: pair p has first input xi1 = xi[j[p]] and xi2 = xi - xi1 at
    grid index j2[p]; the pairs of output frequency xi[rows[r]] begin at
    starts[r]. A pair whose xi2 is not a grid frequency lies in no
    region. The phase-floor check runs on every pair of U and V; then
    the pairs whose output row lies outside the dealias mask outmask are
    dropped (54% of them at n = 256, L = 2 pi, default cutoffs), since
    eval_term zeroes those rows. A kept row keeps all its pairs in
    order, so its sum is unchanged. The kernels are real arrays over
    the kept pairs of their region: ku = xi/Phi1u on U, kv2 = xi2/Phiv
    and kv12 = xi1 xi2/Phiv on V. No n x n array outlives construction.
    """

    def __init__(self, grid, a, cut):
        self.grid = grid
        n = grid.n
        xi = grid.xi
        XI = xi[:, None]          # output frequency
        XI1 = xi[None, :]         # first input frequency
        XI2 = XI - XI1            # forced by the convolution constraint
        # keep only pairs whose xi2 is a representable grid frequency
        dxi = 2.0 * np.pi / grid.L
        idx2 = np.rint(XI2 / dxi).astype(int)
        half = n // 2
        valid = (idx2 >= -half) & (idx2 <= half - 1)

        big_u = np.abs(XI) > 1.0 / cut.delta_u
        mask_U = (_sim(XI, XI1, cut.eta_sim)
                  | _sim(XI, XI2, cut.eta_sim)) & big_u
        if a < 0.25:
            mask_U |= _sim(XI1, XI2, cut.eta_sim) & big_u
        mask_V = (_sim(XI, XI1, cut.eta_sim)
                  & (np.abs(XI) > 1.0 / cut.delta_v))

        def pairs(mask):
            i, j = np.nonzero(mask & valid)
            return i, j, idx2[i, j] % n

        self.outmask = grid.dealias_mask()
        iu, ju, j2u = pairs(mask_U)
        xi_u, xi1_u = xi[iu], xi[ju]
        phi1u = eval_phase("Phi1u", a, (xi1_u, xi_u - xi1_u))
        self._check_floor("Phi1u", phi1u, xi_u, xi1_u,
                          u_phase_floor_constant(a, cut.eta_sim))
        self.U, (self.ku,) = _region(iu, ju, j2u, (xi_u / phi1u,),
                                     self.outmask)

        iv, jv, j2v = pairs(mask_V)
        xi_v, xi1_v = xi[iv], xi[jv]
        xi2_v = xi_v - xi1_v
        phiv = eval_phase("Phiv", a, (xi1_v, xi2_v))
        self._check_floor("Phiv", phiv, xi_v, xi1_v,
                          v_phase_floor_constant(a, cut.eta_sim))
        kv2 = xi2_v / phiv
        self.V, (self.kv2, self.kv12) = _region(
            iv, jv, j2v, (kv2, xi1_v * kv2), self.outmask)

    @staticmethod
    def _check_floor(name, phi, xi, xi1, c):
        bad = np.flatnonzero(np.abs(phi) < 0.5 * c * np.abs(xi) ** 3)
        if bad.size:
            k = bad[0]
            raise PhaseFloorError(
                "%s below its floor inside the region at (xi, xi1) = "
                "(%g, %g)" % (name, xi[k], xi1[k]))

    def pair_sum(self, region, k, f1, f2):
        """sum over the region's pairs at xi of k f1(xi1) f2(xi - xi1).

        k is a real kernel over the region's pairs, or a scalar.
        """
        rows, starts, j, j2 = region
        out = np.zeros(self.grid.n, dtype=complex)
        out[rows] = np.add.reduceat(k * f1[j] * f2[j2], starts)
        return out


def _region(i, j, j2, kernels, keep):
    """(rows, starts, j, j2) and kernels of the pairs (i, j) whose output
    row i is kept (keep[i]), in row-major order."""
    on = keep[i]
    i, j, j2 = i[on], j[on], j2[on]
    rows, starts = np.unique(i, return_index=True)
    return (rows, starts, j, j2), [k[on] for k in kernels]


def _valid_conv(f1, f2):
    """sum over every xi1 with xi - xi1 on the grid of f1(xi1) f2(xi - xi1).

    The linear (non-circular) convolution of two coefficient arrays in
    FFT order, by one FFT product zero-padded to length 2n, so that no
    wrapped pair enters.
    """
    n = f1.size
    pos = np.arange(n)
    pos[n // 2:] += n             # frequency index k sits at k mod 2n
    pad = np.zeros((2, 2 * n), dtype=complex)
    pad[:, pos] = f1, f2
    spec = np.fft.fft(pad)
    return np.fft.ifft(spec[0] * spec[1])[pos]


def _kernels(grid, a, cut, cache={}):
    key = (id(grid), float(a), cut.delta_u, cut.delta_v, cut.eta_sim)
    if key not in cache:
        if len(cache) > 8:
            cache.clear()
        cache[key] = _GridKernels(grid, a, cut)
    return cache[key]


def eval_term(tag, state, a, cut):
    """Evaluate one decomposition term on a spectral-grid state.

    Returns the term as a coefficient array over the grid, in profile
    coordinates at the state's time, for the normalized coupling.
    The grid's dealias mask is applied to the output so the partition
    N0 + (region part) reproduces exactly the solver's coupling term.
    """
    if tag not in TERM_TAGS:
        raise ValueError("unknown term tag %r" % (tag,))
    grid = state.grid
    ker = _kernels(grid, a, cut)
    xi = grid.xi
    uh = state.uhat.coeffs
    vh = state.vhat.coeffs
    mask = ker.outmask
    U, V = ker.U, ker.V
    # dealiased profile carrier of the term's equation
    speed = a if tag.endswith("u") else 1.0
    carrier = mask * np.exp(-1j * speed * state.t * xi ** 3)

    if tag == "N3u":
        # uncoupled quadratic term, never split
        return carrier * (1j * xi) * spectral_product(uh, uh, grid, mask)

    # complements: every valid pair minus the region's pairs
    if tag == "N0u":
        part = _valid_conv(vh, vh) - ker.pair_sum(U, 1.0, vh, vh)
        return carrier * (1j * xi) * part
    if tag == "N0v":
        ixv = 1j * xi * vh
        part = _valid_conv(uh, ixv) - ker.pair_sum(V, 1.0, uh, ixv)
        return carrier * part
    if tag == "Bu":
        return carrier * ker.pair_sum(U, ker.ku, vh, vh)
    if tag == "Bv":
        return carrier * ker.pair_sum(V, ker.kv2, uh, vh)

    # cubic terms: one inner dealiased convolution of physical spectra,
    # then a region sum against a 1/phase kernel
    if tag == "N1v":
        conv_vv = spectral_product(vh, vh, grid, mask)
        return -1j * carrier * ker.pair_sum(V, ker.kv12, conv_vv, vh)
    if tag == "N2v":
        conv_uu = spectral_product(uh, uh, grid, mask)
        return -1j * carrier * ker.pair_sum(V, ker.kv12, conv_uu, vh)
    w = -1j * spectral_product(uh, 1j * xi * vh, grid, mask)  # conv(uhat, xi vhat)
    if tag == "N1u":
        return -1j * carrier * ker.pair_sum(U, ker.ku, w, vh)
    if tag == "N2u":
        return -1j * carrier * ker.pair_sum(U, ker.ku, vh, w)
    # N3v
    return -1j * carrier * ker.pair_sum(V, ker.kv2, uh, w)


def coupling_terms(state, a, cut):
    """Classical profile-equation right sides (u and v), dealiased.

    Equals (N0u + region part + N3u, N0v + region part). These are the
    solver's nonlinear terms (spectral.nonlinear_terms) at the
    normalized coupling, mapped to profile coordinates.
    """
    grid = state.grid
    xi3 = grid.xi ** 3
    mask = _kernels(grid, a, cut).outmask
    nu, nv = nonlinear_terms(state.uhat.coeffs, state.vhat.coeffs, grid,
                             Coefficients(a), mask)[:2]
    return (np.exp(-1j * a * state.t * xi3) * nu,
            np.exp(-1j * state.t * xi3) * nv)


def _simpson_weights(m, h):
    # composite Simpson over m intervals (m even)
    w = np.ones(m + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def ibps_residual(trajectory, a, cut, nonlinear_enabled=True):
    """Discrepancy between the two profile reconstructions at the final time.

    trajectory: equally spaced SimStates from the spectral module (an
    even number of intervals, beta = gamma = theta = 1). Both right
    sides are integrated in time with composite Simpson over the stored
    states; the return value is the maximum over modes (u and v alike)
    of |classical - integrated-by-parts| divided by the largest profile
    coefficient magnitude.
    """
    if len(trajectory) < 3 or len(trajectory) % 2 == 0:
        raise ValueError("need an odd number of equally spaced states "
                         "(even interval count) for Simpson quadrature")
    t0 = trajectory[0].t
    t1 = trajectory[-1].t
    m = len(trajectory) - 1
    h = (t1 - t0) / m
    steps = np.diff([st.t for st in trajectory])
    if np.max(np.abs(steps - h)) > 1e-9 * max(abs(h), 1e-12):
        raise ValueError("trajectory states are not equally spaced")

    grid = trajectory[0].grid
    xi = grid.xi
    state0 = trajectory[0]
    util0 = np.exp(-1j * a * t0 * xi ** 3) * state0.uhat.coeffs
    vtil0 = np.exp(-1j * t0 * xi ** 3) * state0.vhat.coeffs

    if not nonlinear_enabled:
        # all coupling terms carry the switched-off coefficients
        return 0.0

    w = _simpson_weights(m, h)
    acc_cl_u = np.zeros(grid.n, dtype=complex)
    acc_cl_v = np.zeros(grid.n, dtype=complex)
    acc_ib_u = np.zeros(grid.n, dtype=complex)
    acc_ib_v = np.zeros(grid.n, dtype=complex)
    for wi, st in zip(w, trajectory):
        cu, cv = coupling_terms(st, a, cut)
        acc_cl_u += wi * cu
        acc_cl_v += wi * cv
        nu = sum(eval_term(tag, st, a, cut)
                 for tag in ("N0u", "N1u", "N2u", "N3u"))
        nv = sum(eval_term(tag, st, a, cut)
                 for tag in ("N0v", "N1v", "N2v", "N3v"))
        acc_ib_u += wi * nu
        acc_ib_v += wi * nv

    bu1 = eval_term("Bu", trajectory[-1], a, cut)
    bu0 = eval_term("Bu", trajectory[0], a, cut)
    bv1 = eval_term("Bv", trajectory[-1], a, cut)
    bv0 = eval_term("Bv", trajectory[0], a, cut)

    rec_cl_u = util0 + acc_cl_u
    rec_cl_v = vtil0 + acc_cl_v
    rec_ib_u = util0 + (bu1 - bu0) + acc_ib_u
    rec_ib_v = vtil0 + (bv1 - bv0) + acc_ib_v

    scale = max(np.max(np.abs(rec_cl_u)), np.max(np.abs(rec_cl_v)), 1e-300)
    diff = max(np.max(np.abs(rec_cl_u - rec_ib_u)),
               np.max(np.abs(rec_cl_v - rec_ib_v)))
    return float(diff / scale)
