"""Periodic pseudospectral solver for the coupled KdV system

    u_t + a u_xxx = beta (u^2)_x + gamma (v^2)_x
    v_t + v_xxx   = theta u v_x

on [0, L) with n Fourier modes. Time stepping is integrating-factor
RK4 on the profile variables

    util(t, xi) = exp(-i a t xi^3) uhat(t, xi)
    vtil(t, xi) = exp(-i t xi^3)   vhat(t, xi)

so the stiff linear dispersion is removed exactly and only the
nonlinear terms are integrated numerically. Quadratic products are
dealiased with the 2/3 rule, which makes them equal to exact
(non-circular) convolutions of the retained modes.

Fourier coefficients follow the "continuous coefficient" convention
c_k = fft(samples)/n, so a pure cosine has two coefficients of 1/2.
"""

import numpy as np

from .phases import Coefficients

# CFL-type constant for the advective stability check in step(); the
# nonlinear terms behave like c * u_x with c ~ max(|u|,|v|).
STABILITY_C = 2.8


class StabilityError(RuntimeError):
    pass


class Grid:
    def __init__(self, L, n):
        n = int(n)
        if n < 8 or n % 2 != 0:
            raise ValueError("mode count n must be even and >= 8")
        if L <= 0:
            raise ValueError("period L must be positive")
        self.L = float(L)
        self.n = n
        self.x = np.arange(n) * (self.L / n)
        self.xi = 2.0 * np.pi * np.fft.fftfreq(n, d=self.L / n)

    def dealias_mask(self, fraction=2.0 / 3.0):
        cutoff = fraction * (self.n // 2)
        return np.abs(np.fft.fftfreq(self.n) * self.n) < cutoff

    def __repr__(self):
        return "Grid(L=%g, n=%d)" % (self.L, self.n)


class SpectralField:
    """Fourier coefficients of one scalar field on a Grid."""

    def __init__(self, grid, coeffs, hermitian=False):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != (grid.n,):
            raise ValueError("coefficient array does not match grid")
        if hermitian:
            sym = np.conj(coeffs[(-np.arange(grid.n)) % grid.n])
            scale = max(np.max(np.abs(coeffs)), 1e-300)
            if np.max(np.abs(coeffs - sym)) > 1e-12 * scale:
                raise ValueError("field flagged hermitian is not "
                                 "conjugate-symmetric")
        self.grid = grid
        self.coeffs = coeffs
        self.hermitian = bool(hermitian)

    def to_physical(self):
        return np.fft.ifft(self.coeffs * self.grid.n)

    def copy(self):
        return SpectralField(self.grid, self.coeffs.copy(), self.hermitian)


class SimState:
    def __init__(self, t, uhat, vhat, params):
        if uhat.grid is not vhat.grid:
            raise ValueError("u and v must share one grid")
        if not (np.all(np.isfinite(uhat.coeffs))
                and np.all(np.isfinite(vhat.coeffs))):
            raise ValueError("non-finite coefficients in state")
        self.t = float(t)
        self.uhat = uhat
        self.vhat = vhat
        self.params = params
        self.grid = uhat.grid

    def copy(self):
        return SimState(self.t, self.uhat.copy(), self.vhat.copy(),
                        self.params)


class SolverConfig:
    def __init__(self, dt, dealias_fraction=2.0 / 3.0,
                 nonlinear_enabled=True, monitor_every=10):
        if dt <= 0:
            raise ValueError("dt must be positive")
        if not 0 < dealias_fraction <= 1:
            raise ValueError("dealias_fraction must lie in (0, 1]")
        self.dt = float(dt)
        self.dealias_fraction = float(dealias_fraction)
        self.nonlinear_enabled = bool(nonlinear_enabled)
        self.monitor_every = int(monitor_every)


def make_state(grid, u0, v0, params):
    """Build a SimState at t=0 from real samples on the collocation points.

    u0 and v0 may be arrays of length grid.n or callables evaluated on
    grid.x.
    """
    def sample(f):
        vals = np.asarray(f(grid.x) if callable(f) else f, dtype=float)
        if vals.shape != (grid.n,):
            raise ValueError("sample array does not match the grid")
        return vals

    uc = np.fft.fft(sample(u0)) / grid.n
    vc = np.fft.fft(sample(v0)) / grid.n
    return SimState(0.0, SpectralField(grid, uc, hermitian=True),
                    SpectralField(grid, vc, hermitian=True), params)


def spectral_product(ahat, bhat, grid, mask):
    """Dealiased pseudospectral product of two coefficient arrays."""
    a_phys = np.fft.ifft(ahat * grid.n)
    b_phys = np.fft.ifft(bhat * grid.n)
    prod = np.fft.fft(a_phys * b_phys) / grid.n
    return prod * mask


def _profile_rhs(t, util, vtil, grid, params, mask):
    """Nonlinear right side in profile coordinates at time t.

    Returns (util_dot, vtil_dot):
      util_dot = exp(-i a t xi^3) * i xi * (beta u^2 + gamma v^2)^hat
      vtil_dot = exp(-i t xi^3)   * theta * (u v_x)^hat
    with products dealiased by mask.
    """
    xi = grid.xi
    eu = np.exp(1j * params.a * t * xi ** 3)
    ev = np.exp(1j * t * xi ** 3)
    uh = eu * util
    vh = ev * vtil
    u2 = spectral_product(uh, uh, grid, mask)
    v2 = spectral_product(vh, vh, grid, mask)
    uvx = spectral_product(uh, 1j * xi * vh, grid, mask)
    udot = np.conj(eu) * (1j * xi * (params.beta * u2 + params.gamma * v2))
    vdot = np.conj(ev) * (params.theta * uvx)
    return udot, vdot


def step(state, cfg):
    """One integrating-factor RK4 step; the linear flow is exact."""
    grid = state.grid
    p = state.params
    dt = cfg.dt
    xi = grid.xi
    ximax = np.max(np.abs(xi))

    amp = max(np.max(np.abs(state.uhat.to_physical().real)),
              np.max(np.abs(state.vhat.to_physical().real)))
    if cfg.nonlinear_enabled and amp > 0:
        dt_max = STABILITY_C / (ximax * amp)
        if dt > dt_max:
            raise StabilityError(
                "dt=%g violates the advective stability bound "
                "dt <= C/(max|xi| * max(|u|,|v|)) = %g (C=%g)"
                % (dt, dt_max, STABILITY_C))

    t = state.t
    util = np.exp(-1j * p.a * t * xi ** 3) * state.uhat.coeffs
    vtil = np.exp(-1j * t * xi ** 3) * state.vhat.coeffs

    if cfg.nonlinear_enabled:
        mask = grid.dealias_mask(cfg.dealias_fraction)
        k1u, k1v = _profile_rhs(t, util, vtil, grid, p, mask)
        k2u, k2v = _profile_rhs(t + dt / 2, util + dt / 2 * k1u,
                                vtil + dt / 2 * k1v, grid, p, mask)
        k3u, k3v = _profile_rhs(t + dt / 2, util + dt / 2 * k2u,
                                vtil + dt / 2 * k2v, grid, p, mask)
        k4u, k4v = _profile_rhs(t + dt, util + dt * k3u,
                                vtil + dt * k3v, grid, p, mask)
        util_new = util + dt / 6 * (k1u + 2 * k2u + 2 * k3u + k4u)
        vtil_new = vtil + dt / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
    else:
        util_new, vtil_new = util, vtil

    tn = t + dt
    uh_new = np.exp(1j * p.a * tn * xi ** 3) * util_new
    vh_new = np.exp(1j * tn * xi ** 3) * vtil_new

    old = max(np.linalg.norm(state.uhat.coeffs),
              np.linalg.norm(state.vhat.coeffs), 1e-300)
    new = max(np.linalg.norm(uh_new), np.linalg.norm(vh_new))
    if new > 10.0 * old:
        raise StabilityError(
            "instability detected: spectral norm grew %.3gx in one step "
            "at t=%g" % (new / old, t))

    return SimState(tn, SpectralField(grid, uh_new),
                    SpectralField(grid, vh_new), p)


def sobolev_norm(field, s):
    """Discrete H^s norm: (sum <xi>^{2s} |c|^2 * 2 pi / L)^{1/2}."""
    xi = field.grid.xi
    w = (1.0 + xi ** 2) ** s
    return float(np.sqrt(np.sum(w * np.abs(field.coeffs) ** 2)
                         * (2.0 * np.pi / field.grid.L)))


def invariants_eval(state):
    """Mean of u, mass M and energy E by spectral quadrature.

    M = int theta u^2 - 2 gamma v^2 dx is conserved for real
    coefficients. E = int (1-a) u_x^2 + gamma v_x^2 - 2(1-a) u^3
    - gamma u v^2 dx is exact for the normalized coupling
    beta = gamma = theta = 1; otherwise it is reported as measured.
    """
    grid = state.grid
    p = state.params
    for f in (state.uhat, state.vhat):
        sym = np.conj(f.coeffs[(-np.arange(grid.n)) % grid.n])
        scale = max(np.max(np.abs(f.coeffs)), 1e-300)
        if np.max(np.abs(f.coeffs - sym)) > 1e-8 * scale:
            raise ValueError("invariants need real (hermitian) fields")
    L = grid.L
    u = state.uhat.to_physical().real
    v = state.vhat.to_physical().real
    ux = np.fft.ifft(1j * grid.xi * state.uhat.coeffs * grid.n).real
    vx = np.fft.ifft(1j * grid.xi * state.vhat.coeffs * grid.n).real
    dx = L / grid.n
    mean_u = float(np.sum(u) * dx)
    gamma = p.gamma.real
    theta = p.theta.real
    M = float(np.sum(theta * u ** 2 - 2.0 * gamma * v ** 2) * dx)
    E = float(np.sum((1.0 - p.a) * ux ** 2 + gamma * vx ** 2
                     - 2.0 * (1.0 - p.a) * u ** 3
                     - gamma * u * v ** 2) * dx)
    return {"mean_u": mean_u, "M": M, "E": E}


def run(state, cfg, T, store_every=0):
    """Integrate to time ~T; returns (final_state, stored_states).

    With store_every=m > 0 every m-th state (including the initial and
    final ones) is kept, which the decomposition checks consume.
    """
    nsteps = int(round(T / cfg.dt))
    stored = [state.copy()] if store_every else []
    for i in range(nsteps):
        state = step(state, cfg)
        if store_every and ((i + 1) % store_every == 0 or i == nsteps - 1):
            stored.append(state.copy())
    return state, stored


def trajectory_csv(path, rows):
    """Write monitor rows (t, u_norm, v_norm, mean_u, M, E) as CSV."""
    with open(path, "w") as fh:
        fh.write("t,u_norm,v_norm,mean_u,M,E\n")
        for r in rows:
            fh.write(",".join("%.17g" % x for x in r) + "\n")


def save_snapshot(path, state):
    """Binary snapshot, little-endian float64.

    Layout: header (L, n, t) as three float64, then for each mode j in
    FFT order the four values Re u_j, Im u_j, Re v_j, Im v_j.
    """
    grid = state.grid
    header = np.array([grid.L, float(grid.n), state.t], dtype="<f8")
    body = np.empty((grid.n, 4), dtype="<f8")
    body[:, 0] = state.uhat.coeffs.real
    body[:, 1] = state.uhat.coeffs.imag
    body[:, 2] = state.vhat.coeffs.real
    body[:, 3] = state.vhat.coeffs.imag
    with open(path, "wb") as fh:
        fh.write(header.tobytes())
        fh.write(body.tobytes())


def load_snapshot(path, params=None):
    with open(path, "rb") as fh:
        raw = fh.read()
    header = np.frombuffer(raw[:24], dtype="<f8")
    L, n, t = header[0], int(header[1]), header[2]
    body = np.frombuffer(raw[24:], dtype="<f8").reshape(n, 4)
    grid = Grid(L, n)
    uh = SpectralField(grid, body[:, 0] + 1j * body[:, 1])
    vh = SpectralField(grid, body[:, 2] + 1j * body[:, 3])
    if params is None:
        params = Coefficients(0.5)
    return SimState(t, uh, vh, params)
