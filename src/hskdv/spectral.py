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

A run steps on one of two mode spaces, chosen once from its input. Real
couplings (Coefficients.is_real()) and two fields flagged hermitian,
as make_state builds them, give the half space: the m = n/2+1 modes of
frequencies 0, ..., n/2-1 and the Nyquist mode, transformed with
irfft/rfft. Every other input (complex couplings, non-Hermitian data)
keeps all n modes and ifft/fft. The Nyquist mode keeps fftfreq's
xi = -pi n/L, so its coefficient follows the same linear flow as on the
full space; it is outside every dealias mask, and irfft reads only its
real part. Either way a step makes 8 FFT calls, one inverse and one
forward per RK4 stage, and returns all n coefficients.

A run builds its constant data once, in a _Propagator: the space's
linear-flow factors and its NonlinearTerms, which hold i xi, the
transform pair, the couplings and scratch arrays. The IBPS check
(ibps.py) builds a NonlinearTerms of its own on all n modes, so the
quadratic products of both are formed by the same code. Each step
leaves its result's coefficient rows and norm in the propagator, and
the next step of the run starts from them.
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
        if not (L > 0 and np.isfinite(L)):
            raise ValueError("period L must be positive and finite")
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
    """Fourier coefficients of one scalar field on a Grid.

    hermitian marks the coefficients of a real field, c(-k) = conj(c(k)),
    and is checked to 1e-12 relative when passed here. step() sets it,
    unchecked, on the fields it builds on the half space: those are
    exactly symmetric but for the imaginary part of the Nyquist
    coefficient, which irfft ignores. copy() carries it over unchecked.
    """

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

    @classmethod
    def _checked(cls, grid, coeffs, hermitian):
        """A field from a complex (n,) array whose checks the caller made."""
        f = cls.__new__(cls)
        f.grid, f.coeffs, f.hermitian = grid, coeffs, hermitian
        return f

    def copy(self):
        return SpectralField._checked(self.grid, self.coeffs.copy(),
                                      self.hermitian)


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

    @classmethod
    def _checked(cls, t, uhat, vhat, params):
        """A state of finite fields on one grid, as the caller checked."""
        st = cls.__new__(cls)
        st.t, st.uhat, st.vhat, st.params = t, uhat, vhat, params
        st.grid = uhat.grid
        return st

    def copy(self):
        return SimState._checked(self.t, self.uhat.copy(), self.vhat.copy(),
                                 self.params)


class SolverConfig:
    def __init__(self, dt, dealias_fraction=2.0 / 3.0,
                 nonlinear_enabled=True):
        if dt <= 0:
            raise ValueError("dt must be positive")
        if not 0 < dealias_fraction <= 1:
            raise ValueError("dealias_fraction must lie in (0, 1]")
        self.dt = float(dt)
        self.dealias_fraction = float(dealias_fraction)
        self.nonlinear_enabled = bool(nonlinear_enabled)


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


class NonlinearTerms:
    """The nonlinear right sides of the system on one mode space.

    mask is the dealias mask over the space's modes: all n of them
    (ifft/fft, the complex couplings) or the m = n/2+1 of the half
    space (irfft/rfft, the couplings' real parts; module docstring).
    i xi, the transform pair, the couplings and the scratch arrays are
    set up here, once, and every call reuses them.

    Calling it at coefficient rows w = (uhat, vhat), shape (2, m),
    returns (N, uv): N is the new (2, m) array with rows
    i xi (beta u^2 + gamma v^2)^hat and theta (u v_x)^hat, dealiased by
    mask, and uv the physical rows (u, v), real on the half space.
    One batched inverse FFT of (uhat, vhat, i xi vhat) gives u, v and
    v_x, and one batched forward FFT transforms both products. uv is
    scratch that the next call overwrites. The quadratic products of
    the solver and of the IBPS check are formed here and nowhere else.
    """

    def __init__(self, grid, params, mask):
        m, n = mask.size, grid.n
        self.n = n
        self.mask = mask
        self.ixi = 1j * grid.xi[:m]
        if m == n:
            self._inv, self._fwd = np.fft.ifft, np.fft.fft
            self._c = (params.beta, params.gamma, params.theta)
            dtype = complex
        else:
            self._inv, self._fwd = np.fft.irfft, np.fft.rfft
            self._c = (params.beta.real, params.gamma.real,
                       params.theta.real)
            dtype = float
        self._in = np.empty((3, m), dtype=complex)
        self._phys = np.empty((3, n), dtype=dtype)
        self._prod = np.empty((2, n), dtype=dtype)
        # views of the scratch rows, so that a call makes none
        self._uv_in, self._ivx_in = self._in[:2], self._in[2]
        self._uv = self._phys[:2]
        self._u, self._v, self._vx = self._phys
        self._p, self._q = self._prod

    def __call__(self, w):
        u, v, vx, p, q = self._u, self._v, self._vx, self._p, self._q
        beta, gamma, theta = self._c
        self._uv_in[...] = w
        np.multiply(self.ixi, w[1], out=self._ivx_in)
        self._inv(self._in, self.n, norm="forward", out=self._phys)
        np.multiply(beta, u, out=p)
        p *= u
        np.multiply(gamma, v, out=q)
        q *= v
        p += q
        np.multiply(theta, u, out=q)
        q *= vx
        nl = self._fwd(self._prod, norm="forward")
        nl *= self.mask
        nl[0] *= self.ixi
        return nl, self._uv


class _Propagator:
    """Mode space, linear flow and right side of the steps of one run().

    The space (module docstring) is chosen here, from the input state,
    and the propagator serves the states of that run: same grid, params
    and cfg. It holds the space's xi^3, dealias mask and NonlinearTerms,
    max |xi| for the stability bound, the weights (1, 2, ..., 2, 1 on
    the half space, all 1 on the full one) that turn sums of |c|^2 over
    its modes into sums over all n, the half-step factor
    eh = exp(rate dt/2) for the rates rate = (i a xi^3, i xi^3) as rows,
    and a one-entry memo of exp(rate tau). Each exponent is formed as
    (i a tau) xi^3, the rounding of exp(1j * a * tau * xi**3); at
    tau xi^3 ~ 1e7 another product order moves high-mode phases by
    ~1e-9.

    step() leaves here the state it last returned (last), with that
    state's (2, m) coefficient rows (w) and their largest norm (norm).
    """

    def __init__(self, state, cfg):
        grid, p = state.grid, state.params
        self.half = (p.is_real() and state.uhat.hermitian
                     and state.vhat.hermitian)
        self.grid = grid
        m = grid.n // 2 + 1 if self.half else grid.n
        self.mask = grid.dealias_mask(cfg.dealias_fraction)[:m]
        self.terms = NonlinearTerms(grid, p, self.mask)
        self.xi_max = np.abs(grid.xi).max()
        self.weights = np.ones(m)
        if self.half:
            self.weights[1:-1] = 2.0
        self._ia = np.array(((1j * p.a,), (1j,)))
        self._xi3 = grid.xi[:m] ** 3
        self.dt = cfg.dt
        self._tau = None
        self.eh = self._exp(cfg.dt / 2)
        self.last = self.w = self.norm = None

    def _exp(self, tau):
        if tau != self._tau:
            self._tau, self._f = tau, np.exp(self._ia * tau * self._xi3)
        return self._f

    def across(self, t):
        """exp(rate (t+dt)) conj(exp(rate t)), the linear flow over the
        step from t; the end factor is the next step's start factor."""
        f0 = self._exp(t)
        return self._exp(t + self.dt) * f0.conj()

    def norms(self, w):
        """L2 norms over all n modes of the rows of w."""
        return np.sqrt((w.real ** 2 + w.imag ** 2) @ self.weights)

    def full(self, w):
        """All n modes of the rows of w: on the half space, the mirror
        c(-k) = conj(c(k)) of modes k = 1, ..., n/2-1 is appended."""
        if not self.half:
            return w
        m = w.shape[1]
        out = np.empty((2, self.grid.n), dtype=complex)
        out[:, :m] = w
        np.conjugate(w[:, m - 2:0:-1], out=out[:, m:])
        return out


def step(state, cfg, prop=None):
    """One integrating-factor RK4 step; the linear flow is exact.

    u and v are stacked as rows w over the propagator's modes, and N is
    its NonlinearTerms. The RK4 stages on the profiles exp(-rate tau) w
    are written relative to the step start t, so they use only
    eh = exp(rate dt/2):

        n1 = N(w),  n2 = N(eh w + dt/2 eh n1),  n3 = N(eh w + dt/2 n2),
        n4 = N(eh (eh w + dt n3)),
        w_new = f1 conj(f0) (w + dt/6 (n1 + 2 conj(eh) (n2 + n3)))
                + dt/6 n4

    The flow across the step is f1 conj(f0) with the absolute factors
    f0 = exp(rate t) and f1 = exp(rate (t+dt)). A fixed exp(rate dt)
    would save the exp call, but its modulus error of up to 1 ulp
    repeats in every step, so the L2 norm drifts coherently (1e-13 to
    4e-13 over 2e4 linear steps at n = 256); the rounding of absolute
    factors changes from step to step, so the drift only random-walks
    (a few 1e-15 there). Step k's f1 is step k+1's f0 for the same
    float t, so with the propagator of run() a step makes one exp call.

    The stability bound is checked on the stage-1 fields, before stages
    2-4 run. The growth guard compares norms over all n modes, and the
    new rows must be finite (ValueError otherwise, as for SimState).
    prop is the _Propagator that run() builds once per call;
    step(state, cfg) builds its own. When state is the one that prop
    last returned, its rows and norm are taken from prop instead of
    being read again, so the growth guard's old norm is the previous
    step's new one; a state whose coefficients were changed in place
    since must be passed as a copy. The returned state is built without
    repeating these checks.

    On the half space the step reads modes 0..n/2 of the state and
    returns all n, conjugate-symmetric, with the hermitian flag set, so
    a following step(state, cfg) stays on the half space.
    """
    if prop is None:
        prop = _Propagator(state, cfg)
    dt = cfg.dt
    t = state.t
    if state is prop.last:
        w, old = prop.w, prop.norm
    else:
        m = prop.mask.size
        w = np.array((state.uhat.coeffs[:m], state.vhat.coeffs[:m]))
        old = prop.norms(w).max()
    if cfg.nonlinear_enabled:
        rhs = prop.terms
        n1, uv = rhs(w)
        amp = np.abs(uv.real).max()
        dt_max = STABILITY_C / (prop.xi_max * amp) if amp > 0 else np.inf
        if dt > dt_max:
            raise StabilityError(
                "dt=%g violates the advective stability bound "
                "dt <= C/(max|xi| * max(|u|,|v|)) = %g (C=%g)"
                % (dt, dt_max, STABILITY_C))
        eh = prop.eh
        ew = eh * w
        s = rhs(ew + dt / 2 * (eh * n1))[0]  # n2, then n2 + n3
        n3 = rhs(ew + dt / 2 * s)[0]
        s += n3
        y4 = eh * (ew + dt * n3)
        del ew, n3
        # all but the n4 term, so that n1 and s are freed before stage 4
        w_new = prop.across(t) * (w + dt / 6 * (n1 + 2 * eh.conj() * s))
        del n1, s
        w_new += dt / 6 * rhs(y4)[0]
    else:
        w_new = prop.across(t) * w

    old = max(old, 1e-300)
    new = prop.norms(w_new).max()
    if new > 10.0 * old:
        raise StabilityError(
            "instability detected: spectral norm grew %.3gx in one step "
            "at t=%g" % (new / old, t))
    if not np.isfinite(w_new).all():
        raise ValueError("non-finite coefficients in state")

    u, v = (SpectralField._checked(prop.grid, c, prop.half)
            for c in prop.full(w_new))
    prop.w, prop.norm = w_new, new
    prop.last = SimState._checked(t + dt, u, v, state.params)
    return prop.last


def sobolev_norm(field, s):
    """Discrete H^s norm: (sum <xi>^{2s} |c|^2 * 2 pi / L)^{1/2}."""
    xi = field.grid.xi
    w = (1.0 + xi ** 2) ** s
    return float(np.sqrt(np.sum(w * np.abs(field.coeffs) ** 2)
                         * (2.0 * np.pi / field.grid.L)))


def invariants_eval(state):
    """Mean of u, mass M and energy E_H by spectral quadrature.

    M = int theta u^2 - 2 gamma v^2 dx is conserved for real
    couplings. Under "E" the energy

        E_H = int 1/2 u_x^2 + beta/(3a) u^3
                  + gamma/(a-1) (3/theta v_x^2 + u v^2) dx

    is reported for real couplings with beta = a theta (to 1e-12
    relative) and a != 1; a and theta are nonzero for every
    Coefficients. For any other system E is NaN.

    Derivation. Write the u equation as u_t = R_x with
    R = -a u_xx + beta u^2 + gamma v^2, and let k = gamma/(a-1). The
    variational derivatives of E_H are P = -u_xx + (beta/a) u^2 + k v^2
    and Q = -(6k/theta) v_xx + 2k u v, so dE_H/dt = int P u_t + Q v_t.
    With beta = a theta, P = R/a + (k/a) v^2, and int R R_x = 0 and
    int v^3 v_x = 0 leave
    int P u_t = -(2k/a) int v v_x R = 2k int u_xx v v_x
    - 2k theta int u^2 v v_x. Integrating by parts with
    v_t = -v_xxx + theta u v_x, int Q v_t = -2k int u_xx v v_x
    + 2k theta int u^2 v v_x, so the two cancel and dE_H/dt = 0. From
    the data of demos/02_solver_invariants.py (n = 256, L = 40,
    dt = 1e-3, T = 2) E_H drifts by at most 2.7e-13 relative for
    (a, beta, gamma, theta) = (1/2, 1/2, 1, 1), (2, 2, 1, 1),
    (-1, 1, 0.7, -1) and (3, 1.5, -2, 0.5). At unit coupling
    (1/2, 1, 1, 1), where beta != a theta, the same functional moves by
    6.5%.

    The fields must be Hermitian to 1e-8 relative, except for the
    imaginary part of the Nyquist coefficient: the linear flow makes
    that coefficient complex, and irfft ignores its imaginary part.
    u, v, u_x and v_x come from their n/2+1 nonnegative modes by one
    batched irfft.
    """
    grid = state.grid
    p = state.params
    for f in (state.uhat, state.vhat):
        asym = f.coeffs - np.conj(f.coeffs[(-np.arange(grid.n)) % grid.n])
        asym[grid.n // 2] = 0.0  # 2i Im(Nyquist), which irfft drops
        scale = max(np.max(np.abs(f.coeffs)), 1e-300)
        if np.max(np.abs(asym)) > 1e-8 * scale:
            raise ValueError("invariants need real (hermitian) fields")
    m = grid.n // 2 + 1
    uh, vh = state.uhat.coeffs[:m], state.vhat.coeffs[:m]
    ixi = 1j * grid.xi[:m]
    u, v, ux, vx = np.fft.irfft(np.array((uh, vh, ixi * uh, ixi * vh)),
                                grid.n, norm="forward")
    dx = grid.L / grid.n
    mean_u = float(np.sum(u) * dx)
    a, beta = p.a, p.beta.real
    gamma = p.gamma.real
    theta = p.theta.real
    M = float(np.sum(theta * u ** 2 - 2.0 * gamma * v ** 2) * dx)
    E = float("nan")
    if (p.is_real() and a != 1.0
            and abs(beta - a * theta) <= 1e-12 * abs(beta)):
        k = gamma / (a - 1.0)
        E = float(np.sum(0.5 * ux ** 2 + beta / (3.0 * a) * u ** 3
                         + k * (3.0 / theta * vx ** 2 + u * v ** 2)) * dx)
    return {"mean_u": mean_u, "M": M, "E": E}


def run(state, cfg, T, store_every=0):
    """Integrate to time T; returns (final_state, stored_states).

    ValueError unless T >= 0 and |round(T/dt)*dt - T| <= 1e-9*max(T, dt):
    a run is never cut short or stretched silently.

    With store_every=m > 0 every m-th state (including the initial and
    final ones) is kept, which the decomposition checks consume. The
    initial one is a copy; the others are step()'s own fresh states,
    so the last one is final_state. They are not copied, because copies
    interleaved with the step temporaries fragment the heap (a 0.5 MB
    larger malloc arena after an ibps-check solve keeping 257 states).

    One _Propagator serves every step, and each step() call gets the
    state the previous one returned, so it reuses that state's rows and
    norm from the propagator. run() makes exactly one module-level
    step() call per step, which perfbench/tracing.py counts and times.
    """
    nsteps = int(round(T / cfg.dt))
    if T < 0 or abs(nsteps * cfg.dt - T) > 1e-9 * max(T, cfg.dt):
        raise ValueError("end time T=%r is not a non-negative whole number "
                         "of steps dt=%r" % (T, cfg.dt))
    stored = [state.copy()] if store_every else []
    prop = _Propagator(state, cfg)
    for i in range(nsteps):
        state = step(state, cfg, prop)
        if store_every and ((i + 1) % store_every == 0 or i == nsteps - 1):
            stored.append(state)
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
    """Read a save_snapshot file; params default to Coefficients(0.5).

    Raises ValueError for a file shorter than the 24-byte header, a mode
    count n that is not a positive even integer, a length other than
    24 + 32 n bytes, a non-finite time t or (from Grid) a period L that
    is not positive and finite.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 24:
        raise ValueError("snapshot %s has %d bytes, less than the 24-byte "
                         "header" % (path, len(raw)))
    L, n, t = np.frombuffer(raw[:24], dtype="<f8")
    if not (n > 0 and n.is_integer() and n % 2 == 0):
        raise ValueError("snapshot %s: mode count %r is not a positive "
                         "even integer" % (path, float(n)))
    if not np.isfinite(t):
        raise ValueError("snapshot %s: time %r is not finite"
                         % (path, float(t)))
    n = int(n)
    if len(raw) != 24 + 32 * n:
        raise ValueError("snapshot %s has %d bytes; n=%d needs 24 + 32n = %d"
                         % (path, len(raw), n, 24 + 32 * n))
    body = np.frombuffer(raw[24:], dtype="<f8").reshape(n, 4)
    grid = Grid(L, n)
    uh = SpectralField(grid, body[:, 0] + 1j * body[:, 1])
    vh = SpectralField(grid, body[:, 2] + 1j * body[:, 3])
    if params is None:
        params = Coefficients(0.5)
    return SimState(t, uh, vh, params)
