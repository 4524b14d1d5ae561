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
over the region's pairs only. The states are real, so every term is
conjugate-symmetric, and the pairs, sums, complements and carriers run
only on the output rows with xi >= 0 inside the dealias mask.
region_kernels builds and caches the lists; the phase-floor check runs
there, so a caller can run it before a solve. A complement N0 is the
convolution over every pair whose xi2 is a grid frequency, by one
zero-padded real FFT product, minus the region's part of it.

One evaluator (_StateTerms) forms all ten terms and both classical
right sides of a state on those rows; eval_term and coupling_terms
mirror its rows to all n modes, and ibps_residual builds it once and
calls it once per state. Its classical sides are the solver's own
right side, spectral.NonlinearTerms on the half space. Per state it
makes five FFT calls (NonlinearTerms' two, one for (u^2, v^2) and two
of length 2n for both complements), one exp call and two gathers per
region into scratch, each region's rows summed by one np.add.reduceat.

All formulas use the normalized coupling beta = gamma = theta = 1.

Problematic regions (with f ~= g meaning |f-g| <= eta*max(|f|,|g|)):

  U1 = {xi1 ~= xi2 and |xi| > 1/delta_u}        (only for a < 1/4)
  U2 = {(xi ~= xi1 or xi ~= xi2) and |xi| > 1/delta_u}
  U  = U1 union U2 for a < 1/4, U2 alone for a in [1/4, inf) minus {1}
  V  = {xi ~= xi1 and |xi| > 1/delta_v}
"""

import numpy as np

from .phases import Coefficients, PhaseFloorError, eval_phase, phase_floor
# spectral_product is bound here too, unused, so that the benchmark's
# tracer (perfbench/tracing.py) finds it in every module it patches
from .spectral import NonlinearTerms, _mirror, spectral_product  # noqa: F401

TERM_TAGS = ("N0u", "N1u", "N2u", "N3u", "N0v", "N1v", "N2v", "N3v",
             "Bu", "Bv")


class CutoffParams:
    def __init__(self, delta_u=0.05, delta_v=0.05, eta_sim=0.1):
        for name, delta in (("delta_u", delta_u), ("delta_v", delta_v)):
            if not (delta > 0 and np.isfinite(delta)):
                raise ValueError("cutoff threshold %s must be positive "
                                 "and finite" % name)
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

    For a < 1/4 the global vertex bound phase_floor(a) = 1/4 - a applies
    (a = 0 raises ValueError there); for a >= 1/4
    membership in U2 forces the small factor |xi_j| <= eta|xi|, leaving
    |1-a| - 3 eta - 3 eta^2 of the quadratic factor.
    """
    if a < 0.25:
        return phase_floor(a)
    return max(abs(1.0 - a) - 3.0 * eta - 3.0 * eta ** 2, 0.0)


def v_phase_floor_constant(a, eta):
    """Conservative c with |Phiv| >= c|xi|^3 on V (|xi2| <= eta|xi|)."""
    return max(abs(1.0 - a) - 3.0 * abs(a) * eta
               - 3.0 * abs(a) * eta ** 2 - abs(1.0 - a) * eta ** 3, 0.0)


# (xi, xi1) pairs per block of output rows in the region build
_BLOCK_PAIRS = 4096


class _GridKernels:
    """Index lists and real phase kernels of the regions U and V on one grid.

    A region is a tuple (rows, starts, j, j2) over its pairs in row-major
    order: pair p has first input xi1 = xi[j[p]] and xi2 = xi - xi1 at
    grid index j2[p]; the pairs of output frequency xi[rows[r]] begin at
    starts[r]. A pair whose xi2 is not a grid frequency lies in no
    region. The pairs are found over blocks of the rows with xi >= 0,
    about _BLOCK_PAIRS pairs a block, so no n x n array is ever made
    (0.53 MB traced for the build at n = 256, L = 2 pi, default cutoffs).
    The phase-floor check runs once per region on every pair of those
    rows, then on the pairs with no mirror there, those with xi, xi1 or
    xi2 = -n/2 (50 in U and 25 in V at a = 1/2). Phi1u and Phiv are odd
    (eval_phase to 6e-16 relative on region pairs), so every other pair
    is checked through its mirror, and the pair named is the first below
    the floor in row-major order over all n rows. Then only the pairs of
    the nrows kept rows (grid indices 0, ..., nrows-1, inside the dealias
    mask outmask) stay, all of a row's in order: 1470 in U and 735 in V
    at n = 256, a = 1/2, 45% of those checked. The kernels are real
    arrays over the kept pairs of their region: ku = xi/Phi1u on U,
    kv2 = xi2/Phiv and kv12 = xi1 xi2/Phiv on V.
    """

    def __init__(self, grid, a, cut):
        self.grid = grid
        n, xi, half = grid.n, grid.xi, grid.n // 2
        self.outmask = grid.dealias_mask()
        self.nrows = int(np.count_nonzero(self.outmask[:half]))
        step = max(1, _BLOCK_PAIRS // n)
        blocks = [(np.arange(r0, min(r0 + step, half))[:, None],
                   np.arange(n)[None, :]) for r0 in range(0, half, step)]
        # the pairs without a mirror on the rows with xi >= 0
        r = np.arange(half + 1, n)
        blocks.append(np.divmod(np.sort(np.concatenate((
            half * n + np.arange(n), r * n + half, r * n + r - half))), n))
        found = ([], [])          # (i, j, j2) of U and of V, per block
        for i, j in blocks:
            XI, XI1 = xi[i], xi[j]    # output and first input frequency
            XI2 = XI - XI1        # forced by the convolution constraint
            # keep only pairs whose xi2 is a representable grid frequency
            idx2 = np.rint(XI2 / (2.0 * np.pi / grid.L)).astype(int)
            valid = (idx2 >= -half) & (idx2 <= half - 1)
            i, j = np.broadcast_arrays(i, j)
            for lists, mask in zip(found, (in_U(a, XI, XI1, XI2, cut),
                                           in_V(XI, XI1, XI2, cut))):
                on = np.nonzero(mask & valid)
                lists.append((i[on], j[on], idx2[on] % n))
        keep = np.arange(n) < self.nrows
        floors = (u_phase_floor_constant(a, cut.eta_sim),
                  v_phase_floor_constant(a, cut.eta_sim))
        regions = []
        for name, c, lists in zip(("Phi1u", "Phiv"), floors, found):
            i, j, j2 = (np.concatenate(x) for x in zip(*lists))
            x, x1 = xi[i], xi[j]
            x2 = x - x1
            phi = eval_phase(name, a, (x1, x2))
            bad = np.flatnonzero(np.abs(phi) < 0.5 * c * np.abs(x) ** 3)
            if bad.size:
                raise PhaseFloorError(
                    "%s below its floor inside the region at (xi, xi1) = "
                    "(%g, %g)" % (name, x[bad[0]], x1[bad[0]]))
            k2 = x2 / phi
            kernels = (x / phi,) if name == "Phi1u" else (k2, x1 * k2)
            # the pairs of the kept rows, in row-major order
            on = keep[i]
            rows, starts = np.unique(i[on], return_index=True)
            regions.append(((rows, starts, j[on], j2[on]),
                            [k[on] for k in kernels]))
        (self.U, (self.ku,)), (self.V, (self.kv2, self.kv12)) = regions

    def sums(self, region, prods):
        """Row sums of prods (..., pairs) over the region's pairs.

        Returns (..., nrows) arrays that are zero off the region's rows.
        """
        rows, starts = region[:2]
        out = np.zeros(prods.shape[:-1] + (self.nrows,), dtype=complex)
        out[..., rows] = np.add.reduceat(prods, starts, axis=-1)
        return out

    def pair_sum(self, region, k, f1, f2):
        """sum over the region's pairs at xi of k f1(xi1) f2(xi - xi1).

        k is a real kernel over the region's pairs, or a scalar; f1 and
        f2 hold all n modes.
        """
        j, j2 = region[2:]
        return self.sums(region, k * f1[j] * f2[j2])


def _valid_conv(rows, k):
    """sum over every xi1 with xi - xi1 on the grid of f1(xi1) f2(xi - xi1)
    for (f1, f2) = (f, f) and (g, h), where rows = (f, g, h), on the
    output rows 0, ..., k-1.

    rows hold the modes 0, ..., n/2-1 of real fields; the Nyquist mode
    has no partner xi - xi1 on the grid for xi >= 0. One irfft and one
    rfft zero-padded to length 2n give the linear (non-circular)
    convolutions, so no wrapped pair enters.
    """
    n = 2 * rows.shape[-1]
    f = np.fft.irfft(rows, 2 * n, norm="forward")
    return np.fft.rfft(f[:2] * f[::2], norm="forward")[:, :k]


def region_kernels(grid, a, cut, last=[None, None]):
    """The _GridKernels of grid, a and cut, built once and cached.

    The build runs the phase-floor check, so PhaseFloorError comes from
    here. The cache holds the last (grid, a, cut) only: a grid's kernels
    serve its run, and a new grid replaces them.
    """
    key = (float(a), cut.delta_u, cut.delta_v, cut.eta_sim)
    if last[0] is None or last[0].grid is not grid or last[1] != key:
        last[:] = _GridKernels(grid, a, cut), key
    return last[0]


def _gather(region, at_j, at_j2, out):
    """The rows at_j at the region's j and at_j2 at its j2, into out.

    mode="clip" (every index is in range) makes take unbuffered.
    """
    for rows, idx, g in zip((at_j, at_j2), region[2:], out):
        np.take(rows, idx, axis=1, out=g, mode="clip")
    return out


def _all_modes(rows, n):
    """Rows over the output rows 0, ..., k-1 as rows over all n modes:
    their conjugate mirror on xi < 0 and zero off the dealias mask."""
    k = rows.shape[-1]
    out = np.zeros(rows.shape[:-1] + (n,), dtype=complex)
    out[..., :k] = rows
    out[..., n - k + 1:] = np.conj(rows[..., k - 1:0:-1])
    return out


# rows of _StateTerms: TERM_TAGS, then the classical u and v sides; the
# carrier of each row's equation (0: u, 1: v), and the cubic terms'
# factor -i from the profile equations
_EQUATION = [0, 0, 0, 0, 1, 1, 1, 1, 0, 1, 0, 1]
_FACTOR = np.array([1, -1j, -1j, 1, 1, -1j, -1j, -1j, 1, 1, 1, 1])[:, None]


class _StateTerms:
    """Every decomposition term and both classical sides, state by state.

    Built once per grid, a and cut: the region kernels, the solver's
    NonlinearTerms on the half space for the normalized coupling
    (a, 1, 1, 1), xi^3 on the kept rows, and scratch (as NonlinearTerms
    holds its own): the classical rows mirrored to all n modes, the six
    coefficient rows the regions read and their gathers at each region's
    j and j2, which the products overwrite. Calling it at a state
    returns a new (12, nrows) array over the kept rows (see
    _GridKernels): the TERM_TAGS terms in order, then the u and v sides
    of coupling_terms, in profile coordinates at the state's time. The
    partition N0 + (region part) reproduces the solver's coupling term.
    """

    def __init__(self, grid, a, cut):
        self.a = a
        self.ker = ker = region_kernels(grid, a, cut)
        self.m = m = grid.n // 2 + 1
        self.nonlinear = NonlinearTerms(grid, Coefficients(a),
                                        ker.outmask[:m])
        self.ixi = 1j * grid.xi
        self.xi3 = grid.xi[:ker.nrows] ** 3
        self._cl = np.empty((2, grid.n), dtype=complex)
        # rows uh, conv_uu, conv_vv, i xi vh, w, vh; each region's
        # products overwrite its gathers of them at its j and j2
        self._src = np.empty((6, grid.n), dtype=complex)
        self._pu = np.empty((2, 2, ker.U[2].size), dtype=complex)
        self._pv = np.empty((2, 3, ker.V[2].size), dtype=complex)

    def __call__(self, state):
        a, ker, m, k = self.a, self.ker, self.m, self.ker.nrows
        ixi, src = self.ixi, self._src
        uh, vh = state.uhat.coeffs, state.vhat.coeffs
        src[0], src[5] = uh, vh
        np.multiply(ixi, vh, out=src[3])
        # the solver's right sides, dealiased, and the physical u and v
        nl, uv = self.nonlinear(np.array((uh[:m], vh[:m])))
        cl_u, cl_v = _mirror(nl, self._cl)[:, :k]
        np.multiply(-1j, self._cl[1], out=src[4])  # w = conv(uhat, xi vhat)
        _mirror(np.fft.rfft(uv * uv, norm="forward") * self.nonlinear.mask,
                src[1:3])
        # complements: every valid pair minus the region's pairs
        full_u, full_v = _valid_conv(src[[5, 0, 3], :m - 1], k)

        # u region: the gathers (vh, w) at j and (w, vh) at j2 become
        # the rows Bu, N1u, N2u and the N0u part
        p = _gather(ker.U, src[:3:-1], src[4:], self._pu).reshape(4, -1)
        np.multiply(p[0], p[2], out=p[2])
        np.multiply(p[1], p[3], out=p[1])
        np.multiply(p[0], p[3], out=p[3])
        np.multiply(p[3], ker.ku, out=p[0])
        p[1:3] *= ker.ku
        su = ker.sums(ker.U, p)
        # v region: the gathers (uh, conv_uu, conv_vv) at j and (i xi vh,
        # w, vh) at j2 become the rows N2v, N1v, the N0v part, N3v, Bv
        p = _gather(ker.V, src[:3], src[3:], self._pv).reshape(6, -1)
        np.multiply(p[1:3], p[5], out=p[1:3])
        np.multiply(p[0], p[3:], out=p[3:])
        p[1:3] *= ker.kv12
        p[4:] *= ker.kv2
        sv = ker.sums(ker.V, p[1:])

        ixk = ixi[:k]
        terms = np.array((ixk * (full_u - su[3]), su[1], su[2],
                          ixk * src[1, :k], full_v - sv[2], sv[1], sv[0],
                          sv[3], su[0], sv[4], cl_u, cl_v))
        terms *= np.exp(np.multiply.outer((-1j * a * state.t, -1j * state.t),
                                          self.xi3))[_EQUATION] * _FACTOR
        return terms


def eval_term(tag, state, a, cut):
    """Evaluate one decomposition term on a spectral-grid state.

    Returns the term as a coefficient array over all n modes, in profile
    coordinates at the state's time, for the normalized coupling: the
    tag's row of _StateTerms, mirrored to xi < 0.
    """
    if tag not in TERM_TAGS:
        raise ValueError("unknown term tag %r" % (tag,))
    return _all_modes(_StateTerms(state.grid, a, cut)(state)
                      [TERM_TAGS.index(tag)], state.grid.n)


def coupling_terms(state, a, cut):
    """Classical profile-equation right sides (u and v), dealiased.

    Equals (N0u + region part + N3u, N0v + region part). These are the
    solver's nonlinear terms (spectral.NonlinearTerms on the half space)
    at the normalized coupling, mirrored to all n modes and mapped to
    profile coordinates: the last two rows of _StateTerms, mirrored.
    """
    return tuple(_all_modes(_StateTerms(state.grid, a, cut)(state)[-2:],
                            state.grid.n))


def _simpson_weights(m, h):
    # composite Simpson over m intervals (m even)
    w = np.ones(m + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def ibps_residual(trajectory, a, cut, nonlinear_enabled=True):
    """Discrepancy between the two profile reconstructions at the final time.

    trajectory: equally spaced SimStates from the spectral module (an
    even number of intervals) that share one grid and whose params are
    (a, 1, 1, 1), the system the decomposition describes; anything else
    raises ValueError. Both right sides are integrated in time with
    composite Simpson over the stored states, from one _StateTerms
    call per state; the boundary terms come from the first and last
    states' rows. The return value is the maximum over modes (u and v
    alike) of |classical - integrated-by-parts| divided by the largest
    classical profile coefficient magnitude, taken on the kept rows of
    _StateTerms, which the rows with xi < 0 mirror, and off the dealias
    mask, where both profiles are the initial one.
    """
    if len(trajectory) < 3 or len(trajectory) % 2 == 0:
        raise ValueError("need an odd number of equally spaced states "
                         "(even interval count) for Simpson quadrature")
    t0, t1 = trajectory[0].t, trajectory[-1].t
    m = len(trajectory) - 1
    h = (t1 - t0) / m
    steps = np.diff([st.t for st in trajectory])
    if np.max(np.abs(steps - h)) > 1e-9 * max(abs(h), 1e-12):
        raise ValueError("trajectory states are not equally spaced")
    grid = trajectory[0].grid
    for st in trajectory:
        if st.grid is not grid:
            raise ValueError("trajectory states do not share one grid")
        p = st.params
        if (p.a, p.beta, p.gamma, p.theta) != (a, 1, 1, 1):
            raise ValueError("the decomposition describes the system "
                             "(a, beta, gamma, theta) = (%g, 1, 1, 1), not "
                             "%r" % (a, p))

    if not nonlinear_enabled:
        # all coupling terms carry the switched-off coefficients
        return 0.0

    state_terms = _StateTerms(grid, a, cut)
    acc = np.zeros((len(_EQUATION), state_terms.ker.nrows), dtype=complex)
    for k, (wi, st) in enumerate(zip(_simpson_weights(m, h), trajectory)):
        terms = state_terms(st)
        acc += wi * terms
        if k == 0:
            b0 = terms[8:10]
    b1 = terms[8:10]

    xi3 = grid.xi ** 3
    s0 = trajectory[0]
    profile0 = np.array((np.exp(-1j * a * t0 * xi3) * s0.uhat.coeffs,
                         np.exp(-1j * t0 * xi3) * s0.vhat.coeffs))
    k = acc.shape[1]
    rec_cl = profile0[:, :k] + acc[10:]
    # rows 0-3 and 4-7: N0-N3 of the u and of the v equation
    rec_ib = (profile0[:, :k] + (b1 - b0)
              + acc[:8].reshape(2, 4, -1).sum(axis=1))
    # off the dealias mask both reconstructions are profile0
    scale = max(np.max(np.abs(rec_cl)), 1e-300,
                np.max(np.abs(profile0[:, ~state_terms.ker.outmask])))
    return float(np.max(np.abs(rec_cl - rec_ib)) / scale)
