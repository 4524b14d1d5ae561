"""Periodic pseudospectral solver for the coupled KdV system

    u_t + a u_xxx = beta (u^2)_x + gamma (v^2)_x
    v_t + v_xxx   = theta u v_x

on [0, L) with n Fourier modes. Time stepping is integrating-factor
RK4 on the profile variables

    util(t, xi) = exp(-i a t xi^3) uhat(t, xi)
    vtil(t, xi) = exp(-i t xi^3)   vhat(t, xi)

so the stiff linear dispersion is removed exactly and only the
nonlinear terms are integrated numerically. Quadratic products are
dealiased with the 2/3 rule of Grid.dealias_mask, the one rule of
every run, which makes them equal to exact (non-circular)
convolutions of the retained modes.

Fourier coefficients follow the "continuous coefficient" convention
c_k = fft(samples)/n, so a pure cosine has two coefficients of 1/2.

The system is real (real couplings, real fields), so every field is
conjugate-symmetric, c(-k) = conj(c(k)), and the solver works on one
mode space, the half space: the m = n/2+1 modes of frequencies
0, ..., n/2-1 and the Nyquist mode, transformed with irfft/rfft. The
Nyquist mode keeps fftfreq's xi = -pi n/L, so its coefficient follows
the linear flow of that frequency; it is outside the dealias mask,
and irfft reads only its real part, which is why the imaginary part of
the Nyquist coefficient is the one asymmetry a SpectralField may carry.
A step makes 8 FFT calls, one inverse and one forward per RK4 stage,
and returns all n coefficients.

A run builds its constant data once, in a _Propagator: the linear-flow
factors, the RK4 stage buffers and the NonlinearTerms, which hold the
dealias and derivative scale rows, the transform pair, the couplings
and scratch arrays. The stages run in that scratch with the operations
and operand order of the RK4 formulas, so the states are bit for bit
those of the formulas on new arrays. The IBPS check (ibps.py) builds
a NonlinearTerms of its own, so its classical right sides are the
solver's. Each step leaves its result's coefficient rows and norm in
the propagator, and the next step of the run starts from them.
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
        if not (float(n).is_integer() and n >= 8 and n % 2 == 0):
            raise ValueError("mode count n must be even and >= 8")
        n = int(n)
        if not (L > 0 and np.isfinite(L)):
            raise ValueError("period L must be positive and finite")
        self.L = float(L)
        self.n = n
        self.x = np.arange(n) * (self.L / n)
        self.xi = 2.0 * np.pi * np.fft.fftfreq(n, d=self.L / n)

    def dealias_mask(self):
        cutoff = 2.0 / 3.0 * (self.n // 2)
        return np.abs(np.fft.fftfreq(self.n) * self.n) < cutoff

    def __repr__(self):
        return "Grid(L=%g, n=%d)" % (self.L, self.n)


class SpectralField:
    """Fourier coefficients of one real scalar field on a Grid.

    The n coefficients must be conjugate-symmetric, c(-k) = conj(c(k)),
    to 1e-12 relative to the largest; the imaginary part of the Nyquist
    coefficient is exempt (module docstring). ValueError otherwise. This
    is the one place the symmetry is checked: step() builds its fields,
    exactly symmetric, without the check, and copy() carries a checked
    field over.
    """

    def __init__(self, grid, coeffs):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != (grid.n,):
            raise ValueError("coefficient array does not match grid")
        h = grid.n // 2
        asym = max(abs(coeffs[0].imag),
                   np.abs(coeffs[1:h] - np.conj(coeffs[:h:-1])).max())
        if asym > 1e-12 * np.abs(coeffs).max():
            raise ValueError("coefficients are not conjugate-symmetric "
                             "(not a real field)")
        self.grid = grid
        self.coeffs = coeffs

    @classmethod
    def _checked(cls, grid, coeffs):
        """A field from a complex (n,) array whose checks the caller made."""
        f = cls.__new__(cls)
        f.grid, f.coeffs = grid, coeffs
        return f

    def copy(self):
        return SpectralField._checked(self.grid, self.coeffs.copy())


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
    def __init__(self, dt, nonlinear_enabled=True):
        if not (dt > 0 and np.isfinite(dt)):
            raise ValueError("dt must be positive and finite")
        self.dt = float(dt)
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
    return SimState(0.0, SpectralField(grid, uc), SpectralField(grid, vc),
                    params)


def spectral_product(ahat, bhat, grid, mask):
    """Dealiased pseudospectral product of two coefficient arrays."""
    a_phys = np.fft.ifft(ahat * grid.n)
    b_phys = np.fft.ifft(bhat * grid.n)
    prod = np.fft.fft(a_phys * b_phys) / grid.n
    return prod * mask


class NonlinearTerms:
    """The nonlinear right sides of the system on the half space.

    mask is the dealias mask over the m = n/2+1 modes of the half space
    (module docstring). The complex (2, m) scale rows (mask i xi, mask),
    the transform pair irfft/rfft (read from np.fft here, so that a
    tracer patching np.fft sees them), the couplings and the scratch
    arrays are set up here, once, and every evaluation reuses them.

    into(out), which step() uses, evaluates N at the rows (uhat, vhat)
    written into w, shape (2, m): it writes into out the (2, m) rows
    i xi (beta u^2 + gamma v^2)^hat and theta (u v_x)^hat, dealiased by
    mask, and leaves in uv the real physical rows (u, v). One batched
    inverse FFT of (uhat, vhat, i xi vhat) gives u, v and v_x, and one
    batched forward FFT transforms both products into out. Calling the
    object at rows w, as the IBPS check does, copies them into w and
    returns (N, uv) with N a new array. uv is scratch that the next
    evaluation overwrites. The quadratic products of the solver and of
    the IBPS check are formed here and nowhere else.
    """

    def __init__(self, grid, params, mask):
        m, n = grid.n // 2 + 1, grid.n
        self.n = n
        self.mask = mask
        self.ixi = 1j * grid.xi[:m]
        self._scale = np.array((mask * self.ixi, mask))
        self._inv, self._fwd = np.fft.irfft, np.fft.rfft
        self._bg = np.array(((params.beta,), (params.gamma,)))
        self._theta = params.theta
        self._in = np.empty((3, m), dtype=complex)
        self._phys = np.empty((3, n))
        self._prod = np.empty((2, n))
        # views of the scratch rows, so that an evaluation makes none
        self.w, (_, self._v_in, self._ivx_in) = self._in[:2], self._in
        self.uv = self._phys[:2]
        self._u, _, self._vx = self._phys
        self._p, self._q = self._prod

    def into(self, out):
        prod, p, q = self._prod, self._p, self._q
        np.multiply(self.ixi, self._v_in, out=self._ivx_in)
        self._inv(self._in, self.n, norm="forward", out=self._phys)
        np.multiply(self._bg, self.uv, out=prod)  # beta u, gamma v
        prod *= self.uv
        p += q  # beta u^2 + gamma v^2
        np.multiply(self._theta, self._u, out=q)
        q *= self._vx
        self._fwd(prod, norm="forward", out=out)
        out *= self._scale

    def __call__(self, w):
        self.w[...] = w
        nl = np.empty_like(self.w)
        self.into(nl)
        return nl, self.uv


class _Propagator:
    """Linear flow and right side of the steps of one run().

    The propagator serves the states of one run: same grid, params and
    cfg. It holds the half space's xi^3, dealias mask and
    NonlinearTerms, max |xi| for the stability bound, the weights
    (1, 2, ..., 2, 1) that turn sums of |c|^2 over the half space into
    sums over all n modes, the half-step factor
    eh = exp(rate dt/2) for the rates rate = (i a xi^3, i xi^3) as rows,
    the constant 2 conj(eh), a one-entry memo of exp(rate tau) and the
    five (2, m) stage buffers of step(). Each exponent is formed as
    (i a tau) xi^3, the rounding of exp(1j * a * tau * xi**3); at
    tau xi^3 ~ 1e7 another product order moves high-mode phases by
    ~1e-9.

    step() leaves here the state it last returned (last), with that
    state's (2, m) coefficient rows (w) and their largest norm (norm).
    """

    def __init__(self, state, cfg):
        grid, p = state.grid, state.params
        self.grid = grid
        m = grid.n // 2 + 1
        self.mask = grid.dealias_mask()[:m]
        self.terms = NonlinearTerms(grid, p, self.mask)
        self.xi_max = np.abs(grid.xi).max()
        self.weights = np.full(m, 2.0)
        self.weights[[0, -1]] = 1.0
        self._ia = np.array(((1j * p.a,), (1j,)))
        self._xi3 = grid.xi[:m] ** 3
        self.dt = cfg.dt
        self._tau = None
        self.eh = self._exp(cfg.dt / 2)
        self.eh2c = 2 * self.eh.conj()
        self.stages = tuple(np.empty((2, m), dtype=complex) for _ in range(5))
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
        """All n modes of the half-space rows of w, in a new array."""
        return _mirror(w, np.empty((2, self.grid.n), dtype=complex))


def _mirror(rows, out):
    """Half-space rows into the (k, n) array out, followed by their mirror
    c(-k) = conj(c(k)) of modes k = 1, ..., n/2-1; returns out."""
    m = rows.shape[1]
    out[:, :m] = rows
    np.conjugate(rows[:, m - 2:0:-1], out=out[:, m:])
    return out


def step(state, cfg, prop=None):
    """One integrating-factor RK4 step; the linear flow is exact.

    u and v are stacked as rows w over the half space, and N is the
    propagator's NonlinearTerms. The RK4 stages on the profiles
    exp(-rate tau) w are written relative to the step start t, so they
    use only eh = exp(rate dt/2):

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

    Each stage input is written into the NonlinearTerms' input rows,
    and each stage result into one of the propagator's buffers.

    The stability bound is checked on the stage-1 fields, before stages
    2-4 run. The growth guard compares the largest norms over all n
    modes, old and new. The new rows must be finite (ValueError
    otherwise, as for SimState), which is checked on new alone: a norm
    sums squares with weights 1 and 2, so a NaN coefficient makes new
    NaN, which passes the guard and fails np.isfinite, and an inf
    coefficient or an overflowing square makes new inf, which the guard
    rejects first, unless old is inf too (a start state with
    coefficients above ~1e154), which then gets the ValueError.
    prop is the _Propagator that run() builds once per call;
    step(state, cfg) builds its own. When state is the one that prop
    last returned, its rows and norm are taken from prop instead of
    being read again, so the growth guard's old norm is the previous
    step's new one; a state whose coefficients were changed in place
    since must be passed as a copy. The returned state is built without
    repeating these checks.

    The step reads modes 0..n/2 of the state and returns all n,
    exactly conjugate-symmetric but for the imaginary part of the
    Nyquist coefficient.
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
        terms = prop.terms
        x = terms.w  # the input rows of each stage's evaluation
        n1, s, n3, ew, tmp = prop.stages
        x[...] = w
        terms.into(n1)
        amp = np.abs(terms.uv).max()
        dt_max = STABILITY_C / (prop.xi_max * amp) if amp > 0 else np.inf
        if dt > dt_max:
            raise StabilityError(
                "dt=%g violates the advective stability bound "
                "dt <= C/(max|xi| * max(|u|,|v|)) = %g (C=%g)"
                % (dt, dt_max, STABILITY_C))
        # the formulas above with their operand order: numpy's complex
        # array products are not commutative bit for bit
        eh = prop.eh
        np.multiply(eh, w, out=ew)
        np.multiply(eh, n1, out=tmp)
        np.multiply(dt / 2, tmp, out=tmp)
        np.add(ew, tmp, out=x)
        terms.into(s)  # n2, then n2 + n3
        np.multiply(dt / 2, s, out=tmp)
        np.add(ew, tmp, out=x)
        terms.into(n3)
        s += n3
        np.multiply(dt, n3, out=tmp)
        np.add(ew, tmp, out=tmp)
        np.multiply(eh, tmp, out=x)
        terms.into(n3)  # n4
        np.multiply(prop.eh2c, s, out=s)
        np.add(n1, s, out=s)
        np.multiply(dt / 6, s, out=s)
        np.add(w, s, out=s)
        w_new = prop.across(t)
        w_new *= s
        np.multiply(dt / 6, n3, out=n3)
        w_new += n3
    else:
        w_new = prop.across(t) * w

    old = max(old, 1e-300)
    new = prop.norms(w_new).max()
    if new > 10.0 * old:
        raise StabilityError(
            "instability detected: spectral norm grew %.3gx in one step "
            "at t=%g" % (new / old, t))
    if not np.isfinite(new):
        raise ValueError("non-finite coefficients in state")

    u, v = (SpectralField._checked(prop.grid, c) for c in prop.full(w_new))
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

    M = int theta u^2 - 2 gamma v^2 dx is conserved. Under "E" the
    energy

        E_H = int 1/2 u_x^2 + beta/(3a) u^3
                  + gamma/(a-1) (3/theta v_x^2 + u v^2) dx

    is reported for couplings with beta = a theta (to 1e-12 relative)
    and a != 1; a and theta are nonzero for every Coefficients. For any
    other system E is NaN.

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

    u, v, u_x and v_x come from their n/2+1 nonnegative modes by one
    batched irfft, which ignores the imaginary part of the Nyquist
    coefficient (the linear flow makes that coefficient complex).
    """
    grid = state.grid
    p = state.params
    m = grid.n // 2 + 1
    uh, vh = state.uhat.coeffs[:m], state.vhat.coeffs[:m]
    ixi = 1j * grid.xi[:m]
    u, v, ux, vx = np.fft.irfft(np.array((uh, vh, ixi * uh, ixi * vh)),
                                grid.n, norm="forward")
    dx = grid.L / grid.n
    mean_u = float(np.sum(u) * dx)
    a, beta, gamma, theta = p.a, p.beta, p.gamma, p.theta
    M = float(np.sum(theta * u ** 2 - 2.0 * gamma * v ** 2) * dx)
    E = float("nan")
    if a != 1.0 and abs(beta - a * theta) <= 1e-12 * abs(beta):
        k = gamma / (a - 1.0)
        E = float(np.sum(0.5 * ux ** 2 + beta / (3.0 * a) * u ** 3
                         + k * (3.0 / theta * vx ** 2 + u * v ** 2)) * dx)
    return {"mean_u": mean_u, "M": M, "E": E}


def run(state, cfg, T, store_every=0, stored=None):
    """Integrate to time T; returns (final_state, stored).

    ValueError unless T >= 0, T/dt is finite and
    |round(T/dt)*dt - T| <= 1e-9*max(T, dt): a run is never cut short or
    stretched silently. ValueError for store_every < 0.

    With store_every=m > 0 every m-th state (including the initial and
    final ones) goes to stored.append: a new list by default, or a sink
    such as the IBPS check's Simpson sum, which keeps no state. The
    initial one is a copy; the others are step()'s own fresh states, so
    the last one is final_state. A list keeps them uncopied, because
    copies interleaved with the step temporaries fragment the heap (a
    0.5 MB larger malloc arena after a solve keeping 257 states).

    One _Propagator serves every step, and each step() call gets the
    state the previous one returned, so it reuses that state's rows and
    norm from the propagator. run() makes exactly one module-level
    step() call per step, which perfbench/tracing.py counts and times.
    """
    if store_every < 0:
        raise ValueError("store_every=%r must be >= 0" % (store_every,))
    ratio = T / cfg.dt
    nsteps = int(round(ratio)) if T >= 0 and np.isfinite(ratio) else -1
    if nsteps < 0 or abs(nsteps * cfg.dt - T) > 1e-9 * max(T, cfg.dt):
        raise ValueError("end time T=%r is not a non-negative whole number "
                         "of steps dt=%r" % (T, cfg.dt))
    stored = [] if stored is None else stored
    if store_every:
        stored.append(state.copy())
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
    24 + 32 n bytes, a non-finite time t, (from Grid) a period L that
    is not positive and finite or (from SpectralField, with the file
    named) coefficients that are not conjugate-symmetric.
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
    try:
        uh, vh = (SpectralField(grid, body[:, j] + 1j * body[:, j + 1])
                  for j in (0, 2))
    except ValueError as err:
        raise ValueError("snapshot %s: %s" % (path, err)) from None
    if params is None:
        params = Coefficients(0.5)
    return SimState(t, uh, vh, params)
