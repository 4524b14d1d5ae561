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
over the region's pairs only. The lists are found over blocks of
output rows, so no n x n array is ever made. region_kernels builds
and caches them; the phase-floor check runs there, so a caller can
run it before a solve. A complement N0 is the convolution over every
pair whose xi2 is a grid frequency, by one zero-padded FFT product,
minus the region's part of it.

One evaluator (_StateTerms) forms all ten terms and both classical
right sides of a state together; eval_term and coupling_terms select
rows of it, and ibps_residual builds it once and calls it once per
state. The states are real, and its classical sides are the solver's
own right side: spectral.NonlinearTerms on the half space of n/2+1
modes, built once with the evaluator, mirrored to all n modes. Per
state it makes five FFT calls (the batched irfft and rfft of
NonlinearTerms, one rfft of (u^2, v^2), and one zero-padded length-2n
forward and inverse pair for both complements), one exp call for the
two carriers and two gathers per region into scratch the evaluator
allocates once, each region's rows summed by one np.add.reduceat. The
region pairs, sums and complements run over all n output rows. At
n = 256 a state's evaluation allocates no array larger than 128 KB.

All formulas use the normalized coupling beta = gamma = theta = 1.

Problematic regions (with f ~= g meaning |f-g| <= eta*max(|f|,|g|)):

  U1 = {xi1 ~= xi2 and |xi| > 1/delta_u}        (only for a < 1/4)
  U2 = {(xi ~= xi1 or xi ~= xi2) and |xi| > 1/delta_u}
  U  = U1 union U2 for a < 1/4, U2 alone for a in [1/4, inf) minus {1}
  V  = {xi ~= xi1 and |xi| > 1/delta_v}
"""

import numpy as np

from .phases import Coefficients, PhaseFloorError, eval_phase
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


# (xi, xi1) pairs per block of output rows in the region build
_BLOCK_PAIRS = 4096


class _GridKernels:
    """Index lists and real phase kernels of the regions U and V on one grid.

    A region is a tuple (rows, starts, j, j2) over its pairs in row-major
    order: pair p has first input xi1 = xi[j[p]] and xi2 = xi - xi1 at
    grid index j2[p]; the pairs of output frequency xi[rows[r]] begin at
    starts[r]. A pair whose xi2 is not a grid frequency lies in no
    region. The pairs are found over blocks of output rows, about
    _BLOCK_PAIRS pairs a block, and the blocks' lists are joined in row
    order, so no n x n array is ever made (1.1 MB traced for the build
    at n = 256, L = 2 pi, default cutoffs). The phase-floor check runs
    once per region on every pair of U and V; then the pairs whose
    output row lies outside the dealias mask outmask are dropped (54%
    of them there), since the dealiased carriers zero those rows. A
    kept row keeps all its pairs in order, so its sum is unchanged. The
    kernels are real arrays over the kept pairs of their region: ku =
    xi/Phi1u on U, kv2 = xi2/Phiv and kv12 = xi1 xi2/Phiv on V.
    """

    def __init__(self, grid, a, cut):
        self.grid = grid
        n = grid.n
        xi = grid.xi
        XI1 = xi[None, :]         # first input frequency
        dxi = 2.0 * np.pi / grid.L
        half = n // 2
        found = ([], [])          # (i, j, j2) of U and of V, per block
        step = max(1, _BLOCK_PAIRS // n)
        for r0 in range(0, n, step):
            XI = xi[r0:r0 + step, None]     # output frequency
            XI2 = XI - XI1        # forced by the convolution constraint
            # keep only pairs whose xi2 is a representable grid frequency
            idx2 = np.rint(XI2 / dxi).astype(int)
            valid = (idx2 >= -half) & (idx2 <= half - 1)
            for blocks, mask in zip(found, (in_U(a, XI, XI1, XI2, cut),
                                            in_V(XI, XI1, XI2, cut))):
                i, j = np.nonzero(mask & valid)
                blocks.append((i + r0, j, idx2[i, j] % n))
        (iu, ju, j2u), (iv, jv, j2v) = (
            [np.concatenate(c) for c in zip(*blocks)] for blocks in found)

        self.outmask = grid.dealias_mask()
        xi_u, xi1_u = xi[iu], xi[ju]
        phi1u = eval_phase("Phi1u", a, (xi1_u, xi_u - xi1_u))
        self._check_floor("Phi1u", phi1u, xi_u, xi1_u,
                          u_phase_floor_constant(a, cut.eta_sim))
        self.U, (self.ku,) = _region(iu, ju, j2u, (xi_u / phi1u,),
                                     self.outmask)

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

    def sums(self, region, prods):
        """Row sums of prods (..., pairs) over the region's pairs.

        Returns (..., n) arrays that are zero off the region's rows.
        """
        rows, starts = region[:2]
        out = np.zeros(prods.shape[:-1] + (self.grid.n,), dtype=complex)
        out[..., rows] = np.add.reduceat(prods, starts, axis=-1)
        return out

    def pair_sum(self, region, k, f1, f2):
        """sum over the region's pairs at xi of k f1(xi1) f2(xi - xi1).

        k is a real kernel over the region's pairs, or a scalar.
        """
        j, j2 = region[2:]
        return self.sums(region, k * f1[j] * f2[j2])


def _region(i, j, j2, kernels, keep):
    """(rows, starts, j, j2) and kernels of the pairs (i, j) whose output
    row i is kept (keep[i]), in row-major order."""
    on = keep[i]
    i, j, j2 = i[on], j[on], j2[on]
    rows, starts = np.unique(i, return_index=True)
    return (rows, starts, j, j2), [k[on] for k in kernels]


def _valid_conv(rows, left, right):
    """sum over every xi1 with xi - xi1 on the grid of f1(xi1) f2(xi - xi1)
    for f1 = rows[l], f2 = rows[r] and each (l, r) in zip(left, right).

    Linear (non-circular) convolutions of coefficient arrays in FFT
    order, by FFT products zero-padded to length 2n, so that no wrapped
    pair enters. Each row is transformed once, and one batched inverse
    gives every convolution.
    """
    n = rows.shape[-1]
    h = n // 2                    # frequency index k sits at k mod 2n
    pad = np.zeros((len(rows), 2 * n), dtype=complex)
    pad[:, :h], pad[:, n + h:] = rows[:, :h], rows[:, h:]
    spec = np.fft.fft(pad)
    conv = np.fft.ifft(spec[left] * spec[right])
    return np.concatenate((conv[:, :h], conv[:, n + h:]), axis=1)


def region_kernels(grid, a, cut, cache={}):
    """The _GridKernels of grid, a and cut, built once and cached.

    The build runs the phase-floor check, so PhaseFloorError comes from
    here. The cache holds the kernels of up to nine (grid, a, cut).
    """
    key = (id(grid), float(a), cut.delta_u, cut.delta_v, cut.eta_sim)
    if key not in cache:
        if len(cache) > 8:
            cache.clear()
        cache[key] = _GridKernels(grid, a, cut)
    return cache[key]


def _gather(region, at_j, at_j2, out):
    """The rows at_j at the region's j and at_j2 at its j2, into out.

    mode="clip" (every index is in range) makes take unbuffered.
    """
    for rows, idx, g in zip((at_j, at_j2), region[2:], out):
        np.take(rows, idx, axis=1, out=g, mode="clip")
    return out


# rows of _StateTerms: TERM_TAGS, then the classical u and v sides; the
# carrier of each row's equation (0: u, 1: v)
_EQUATION = [0, 0, 0, 0, 1, 1, 1, 1, 0, 1, 0, 1]


class _StateTerms:
    """Every decomposition term and both classical sides, state by state.

    Built once per grid, a and cut: the region kernels, the solver's
    NonlinearTerms on the half space for the normalized coupling
    (a, 1, 1, 1) and the dealias mask, xi^3, and the scratch of the
    region sums (as NonlinearTerms holds its own): the two classical
    rows mirrored to all n modes, the six coefficient rows the regions
    read and their gathers at each region's j and j2, which the
    products overwrite. Calling it at a state returns a new (12, n)
    array: the TERM_TAGS terms in order, then the u and v sides of
    coupling_terms, each in profile coordinates at the state's time.
    The dealias mask is applied to every row, so the partition
    N0 + (region part) reproduces exactly the solver's coupling term.
    """

    def __init__(self, grid, a, cut):
        self.a = a
        self.ker = ker = region_kernels(grid, a, cut)
        self.m = m = grid.n // 2 + 1
        self.nonlinear = NonlinearTerms(grid, Coefficients(a),
                                        ker.outmask[:m])
        self.ixi = 1j * grid.xi
        self.xi3 = grid.xi ** 3
        self._cl = np.empty((2, grid.n), dtype=complex)
        # rows uh, conv_uu, conv_vv, i xi vh, w, vh; each region's
        # products overwrite its gathers of them at its j and j2
        self._src = np.empty((6, grid.n), dtype=complex)
        self._pu = np.empty((2, 2, ker.U[2].size), dtype=complex)
        self._pv = np.empty((2, 3, ker.V[2].size), dtype=complex)

    def __call__(self, state):
        a, ker, m = self.a, self.ker, self.m
        mask = ker.outmask
        ixi = self.ixi
        src = self._src
        uh = state.uhat.coeffs
        vh = state.vhat.coeffs
        src[0], src[5] = uh, vh
        ixv = np.multiply(ixi, vh, out=src[3])
        # the solver's right sides, dealiased, and the physical u and v
        nl, (u, v) = self.nonlinear(np.array((uh[:m], vh[:m])))
        cl_u, cl_v = _mirror(nl, self._cl)
        np.multiply(-1j, cl_v, out=src[4])         # w = conv(uhat, xi vhat)
        _mirror(np.fft.rfft(np.array((u * u, v * v)), norm="forward")
                * self.nonlinear.mask, src[1:3])
        # complements: every valid pair minus the region's pairs
        full_u, full_v = _valid_conv(np.array((vh, uh, ixv)), [0, 1],
                                     [0, 2])

        # u region: the gathers (vh, w) at j and (w, vh) at j2 become
        # the rows Bu, N1u, N2u and the N0u part
        p = _gather(ker.U, src[:3:-1], src[4:], self._pu).reshape(4, -1)
        np.multiply(p[0], p[2], out=p[2])
        np.multiply(p[1], p[3], out=p[1])
        np.multiply(p[0], p[3], out=p[3])
        p[0] = p[3]
        p[:3] *= ker.ku
        su = ker.sums(ker.U, p)
        # v region: the gathers (uh, conv_uu, conv_vv) at j and (i xi vh,
        # w, vh) at j2 become the rows N2v, N1v, the N0v part, N3v, Bv
        p = _gather(ker.V, src[:3], src[3:], self._pv).reshape(6, -1)
        np.multiply(p[1:3], p[5], out=p[1:3])
        np.multiply(p[0], p[3:], out=p[3:])
        p[1:3] *= ker.kv12
        p[4:] *= ker.kv2
        sv = ker.sums(ker.V, p[1:])
        # the cubic terms' factor -i, from the profile equations
        su[1:3] *= -1j
        sv[[0, 1, 3]] *= -1j

        terms = np.array((ixi * (full_u - su[3]), su[1], su[2],
                          ixi * src[1], full_v - sv[2], sv[1], sv[0],
                          sv[3], su[0], sv[4], cl_u, cl_v))
        carriers = mask * np.exp(np.multiply.outer(
            (-1j * a * state.t, -1j * state.t), self.xi3))
        terms *= carriers[_EQUATION]
        return terms


def eval_term(tag, state, a, cut):
    """Evaluate one decomposition term on a spectral-grid state.

    Returns the term as a coefficient array over the grid, in profile
    coordinates at the state's time, for the normalized coupling: the
    tag's row of _StateTerms.
    """
    if tag not in TERM_TAGS:
        raise ValueError("unknown term tag %r" % (tag,))
    return _StateTerms(state.grid, a, cut)(state)[TERM_TAGS.index(tag)]


def coupling_terms(state, a, cut):
    """Classical profile-equation right sides (u and v), dealiased.

    Equals (N0u + region part + N3u, N0v + region part). These are the
    solver's nonlinear terms (spectral.NonlinearTerms on the half space)
    at the normalized coupling, mirrored to all n modes and mapped to
    profile coordinates: the last two rows of _StateTerms.
    """
    cu, cv = _StateTerms(state.grid, a, cut)(state)[-2:]
    return cu, cv


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
    profile coefficient magnitude.
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
    acc = np.zeros((len(_EQUATION), grid.n), dtype=complex)
    for k, (wi, st) in enumerate(zip(_simpson_weights(m, h), trajectory)):
        terms = state_terms(st)
        acc += wi * terms
        if k == 0:
            b0 = terms[8:10]
    b1 = terms[8:10]

    xi3 = state_terms.xi3
    s0 = trajectory[0]
    profile0 = np.array((np.exp(-1j * a * t0 * xi3) * s0.uhat.coeffs,
                         np.exp(-1j * t0 * xi3) * s0.vhat.coeffs))
    rec_cl = profile0 + acc[10:]
    # rows 0-3 and 4-7: N0-N3 of the u and of the v equation
    rec_ib = profile0 + (b1 - b0) + acc[:8].reshape(2, 4, -1).sum(axis=1)
    scale = max(np.max(np.abs(rec_cl)), 1e-300)
    return float(np.max(np.abs(rec_cl - rec_ib)) / scale)
