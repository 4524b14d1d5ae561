"""Frequency-restricted estimate (FRE) quantities and cutoff scans.

The bilinear space-time estimates behind the contraction argument
reduce to sup-over-one-frequency integrals over the level sets
{|Phi - alpha| < M} of a total phase. This module evaluates those
sup-integrals with exact level-set root isolation, measures quadratic
level sets in closed form, fits the growth of the sup against the
frequency cutoff (bounded inside the sharp validity region, power
growth outside).
"""

import math

import numpy as np

from .phases import PHASES, eval_phase
from .picard import GL_RULE

ALPHA_EXPONENT = 0.99  # numerical stand-in for the <alpha>^(1-) weight


def _bracket(x):
    return np.sqrt(1.0 + np.asarray(x, dtype=float) ** 2)


def level_set_measure(alpha, M):
    """Exact Lebesgue measure of {q in R : |q^2 - alpha| < M}.

    The set is {max(alpha - M, 0) < q^2 < alpha + M}; its measure is
    2*(sqrt(alpha+M) - sqrt(max(alpha-M, 0))), empty when
    alpha + M <= 0. Always bounded by 2*sqrt(2)*sqrt(M).
    """
    if M <= 0:
        raise ValueError("M must be positive")
    hi = alpha + M
    if hi <= 0:
        return 0.0
    lo = max(alpha - M, 0.0)
    return 2.0 * (math.sqrt(hi) - math.sqrt(lo))


class RootFindingError(RuntimeError):
    pass


def _horner(coeffs, x):
    """np.polyval(coeffs, x), same operations, on floats or arrays."""
    y = 0.0
    for c in coeffs:
        y = y * x + c
    return y


def _libm(f, nin):
    """f elementwise through the builtin: libm's result, not numpy's SIMD."""
    u = np.frompyfunc(f, nin, 1)
    return lambda *args: u(*args).astype(float)


_pow, _acos, _cos = _libm(pow, 2), _libm(math.acos, 1), _libm(math.cos, 1)


@np.errstate(all="ignore")
def _cubic_roots(c):
    """Real roots of the rows c[i, 0] x^3 + c[i, 1] x^2 + c[i, 2] x + c[i, 3].

    Analytic solution of the depressed cubic (trigonometric form for
    three real roots, Cardano otherwise) followed by a Newton polish;
    degenerate leading coefficients fall through to the quadratic and
    linear cases. Returns an (n, 3) array, NaN past a row's roots. Each
    row takes the branches and float operations of the scalar algorithm
    in Python floats (libm powers, acos and cos; first-wins max/min).
    """
    c = np.asarray(c, dtype=float).reshape(-1, 4)
    mag = np.abs(c)
    scale = mag[:, 0]
    for col in mag.T[1:]:
        scale = np.where(col > scale, col, scale)
    small = mag <= (1e-14 * scale)[:, None]
    roots = np.full((len(c), 3), np.nan)
    i = np.flatnonzero(small[:, 0] & small[:, 1] & ~small[:, 2])
    roots[i, 0] = -c[i, 3] / c[i, 2]
    i = np.flatnonzero(small[:, 0] & ~small[:, 1])
    c2, c1, c0 = c[i, 1:].T
    disc = c1 * c1 - 4.0 * c2 * c0
    r = np.where(disc < 0, np.nan, np.sqrt(disc))  # NaN: no real roots
    roots[i, :2] = np.column_stack([-c1 - r, -c1 + r]) / (2 * c2)[:, None]

    i = np.flatnonzero(~small[:, 0])
    c3, c2, c1, c0 = (col[:, None] for col in c[i].T)
    b, cc, d = c2 / c3, c1 / c3, c0 / c3
    # depressed form y^3 + p y + q with x = y - b/3
    p = cc - b * b / 3.0
    q = 2.0 * _pow(b, 3) / 27.0 - b * cc / 3.0 + d
    shift = -b / 3.0
    disc = -4.0 * _pow(p, 3) - 27.0 * _pow(q, 2)
    trig = ((disc >= 0) & (p < 0))[:, 0]
    x = np.full((len(i), 3), np.nan)
    m = 2.0 * np.sqrt(-p[trig] / 3.0)
    arg = 3.0 * q[trig] / (p[trig] * m)
    arg = np.where(arg > -1.0, arg, -1.0)
    phi = _acos(np.where(arg < 1.0, arg, 1.0))
    x[trig] = (m * _cos((phi - 2.0 * math.pi * np.arange(3)) / 3.0)
               + shift[trig])
    half_q = -q[~trig] / 2.0
    inner = half_q * half_q + _pow(p[~trig] / 3.0, 3)
    sq = np.sqrt(np.where(inner < 0, 0.0, inner))
    x[~trig, :1] = np.cbrt(half_q + sq) + np.cbrt(half_q - sq) + shift[~trig]

    for _ in range(3):  # Newton polish
        fx = _horner((c3, c2, c1, c0), x)
        dfx = _horner((3 * c3, 2 * c2, c1), x)
        x = np.where(dfx != 0, x - fx / dfx, x)
    bad = ~np.isfinite(x) & np.column_stack([np.ones_like(trig), trig, trig])
    if bad.any():
        raise RootFindingError("Newton polish diverged for cubic %r"
                               % (c[i[bad.any(axis=1)][0]].tolist(),))
    roots[i] = x
    return roots


def _real_cubic_roots(c):
    """Sorted real roots of c[0] x^3 + ... + c[3]: one row of _cubic_roots."""
    r = _cubic_roots(c)[0]
    return sorted(r[~np.isnan(r)].tolist())


class FreSpec:
    """What to integrate: multiplier, Sobolev weights, phase.

    multiplier: 'xi' (symbol of d/dx(v*v)) or 'xi2' (symbol of u v_x).
    weights = (s_out, s_1, s_2). phase: a tag of phases.PHASES with the
    two free frequencies (xi1, xi2). The sup runs over the output
    frequency xi and the integral over xi1, with xi2 = xi - xi1.
    """

    def __init__(self, multiplier, weights, phase_tag):
        if multiplier not in ("xi", "xi2"):
            raise ValueError("unknown multiplier %r" % (multiplier,))
        if phase_tag not in PHASES or len(PHASES[phase_tag][0]) != 2:
            raise ValueError("FRE scans need a quadratic phase, got %r"
                             % (phase_tag,))
        self.multiplier = multiplier
        self.weights = tuple(float(wq) for wq in weights)
        self.phase = phase_tag


def make_fre_spec(kind, k, s):
    """Canonical FreSpec for the two bilinear interactions.

    kind 'dxv2': output u in H^k from v*v data in H^s (multiplier xi,
    phase Phi1u); kind 'uvx': output v in H^s from u in H^k and v in
    H^s (multiplier xi2, phase Phiv).
    """
    if kind == "dxv2":
        return FreSpec("xi", (k, s, s), "Phi1u")
    if kind == "uvx":
        return FreSpec("xi2", (s, k, s), "Phiv")
    raise ValueError("unknown FRE kind %r" % (kind,))


def _freqs_from(spec, w, free):
    """(xi, xi1, xi2) arrays given the fixed xi = w and free xi1 samples."""
    xi1 = np.asarray(free, dtype=float)
    xi = np.full_like(xi1, w)
    return xi, xi1, xi - xi1


def _phase_cubic_coeffs(spec, a, ws):
    """(W, 4) coefficients of the phase as a cubic in the free variable per
    fixed frequency in ws: one phase evaluation, then np.polyfit per row."""
    ws = np.asarray(ws, dtype=float)
    nodes = np.maximum(1.0, np.abs(ws))[:, None] * [-2.0, -0.5, 0.5, 2.0]
    xi, xi1, xi2 = _freqs_from(spec, ws[:, None], nodes)
    vals = eval_phase(spec.phase, a, (xi1, xi2))
    return np.array([np.polyfit(x, v, 3) for x, v in zip(nodes, vals)])


def _weight_integrand(spec, a, xi, xi1, xi2):
    s_out, s1, s2 = spec.weights
    m2 = xi ** 2 if spec.multiplier == "xi" else xi2 ** 2
    return (m2 * _bracket(xi) ** (2 * s_out)
            / (_bracket(xi1) ** (2 * s1) * _bracket(xi2) ** (2 * s2)))


_CHUNK = 128  # level-set intervals per integrand call (bounds the nodes)


def _fixed_grid(lams):
    """Union w of the cutoffs' signed geometric grids of fixed frequencies
    and held[j, k] = (w[k] is in lams[j]'s grid). A grid holds the values
    of one float recurrence below its cutoff and the cutoff itself, so
    enlarging the cutoff only appends points (keeps the sup monotone)."""
    mags = [0.1]
    while mags[-1] < lams.max():
        mags.append(mags[-1] * 1.15)
    u = np.sort(np.r_[mags[:-1], lams])  # mags[-1] >= lams.max() > mags[:-1]
    u = u[np.r_[True, np.diff(u) > 0]]
    held = (((u < lams[:, None]) & np.any(u == np.c_[mags], axis=0))
            | (u == lams[:, None]))
    return (np.concatenate([-u[::-1], u]),
            np.concatenate([held[:, ::-1], held], axis=1))


def fre_sup(spec, a, alpha, M, lam):
    """Sup over the fixed frequency of the restricted weight integral.

    For each fixed value on a signed log grid up to lam, the level set
    {|Phi - alpha| < M} in the free variable is isolated by cubic root
    finding and the weight integrand is integrated over it with
    Gauss-Legendre nodes; the maximum over the grid is returned.

    alpha and M are scalars (a float is returned) or equal-length 1-D
    sequences of (alpha, M) pairs (an array of per-pair sups is
    returned, each equal to the scalar call). A 1-D sequence of
    cutoffs lam adds a leading axis whose rows each equal (==) the
    single-cutoff call. Each distinct fixed frequency w of the grids'
    union is fitted once; one array pass then root-finds every pair's
    two level-set cubics, tests the segments between the roots for
    every (cutoff, w, pair) and integrates each distinct (w, lo, hi)
    once. That is bit-identical to a loop over cutoffs, w and pairs with
    the scalar root finder: a shared w is the same double in every grid;
    the batched finder repeats the scalar branches and float operations
    row by row; roots outside (-10 lam, 10 lam), or missing, clamped to
    -+10 lam only add zero-length segments, which the length test drops;
    an integral depends on (w, lo, hi) alone; bincount adds each pair's
    parts in interval order from 0.0; and the max is exact.
    """
    scalar = np.ndim(alpha) == 0 and np.ndim(M) == 0
    alphas = np.atleast_1d(np.asarray(alpha, dtype=float))
    Ms = np.atleast_1d(np.asarray(M, dtype=float))
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    if alphas.ndim != 1 or alphas.shape != Ms.shape:
        raise ValueError("alpha and M must be scalars or 1-D sequences "
                         "of equal length")
    if not (lams.ndim == 1 and lams.size and np.all(np.r_[lams, Ms] > 0)
            and np.all(np.isfinite(np.r_[lams, alphas, Ms, a]))):
        raise ValueError("lam (scalar or 1-D) must be finite and positive, "
                         "M finite and positive, alpha and a finite")
    ws, held = _fixed_grid(lams)
    coeffs = _phase_cubic_coeffs(spec, a, ws)
    nj, nw, npair = len(lams), len(ws), len(alphas)
    # the roots of poly - (alpha + M) and poly - (alpha - M) per (w, pair),
    # sorted (NaN, no root, last) between -inf and inf
    cubics = np.tile(coeffs[:, None, :], (1, 2 * npair, 1))
    cubics[..., 3] -= np.column_stack([alphas + Ms, alphas - Ms]).ravel()
    roots = np.pad(np.sort(_cubic_roots(cubics.reshape(-1, 4))
                           .reshape(nw, npair, 6)), [(0, 0), (0, 0), (1, 1)],
                   constant_values=(-np.inf, np.inf))
    # per (cutoff holding w, pair): the segments between the roots clamped
    # to [-10 lam, 10 lam], NaN to 10 lam, which keeps them sorted
    hj, hw = np.nonzero(held)
    clip = 10.0 * lams[hj, None, None]
    breaks = np.fmax(np.fmin(roots[hw], clip), -clip)
    lo, hi = breaks[..., :-1], breaks[..., 1:]
    val = _horner(coeffs[hw].T[..., None, None], 0.5 * (lo + hi))
    keep = ~(hi - lo < 1e-300) & (np.abs(val - alphas[:, None]) < Ms[:, None])
    k, pair, _ = np.nonzero(keep)
    key = np.stack([hi[keep], lo[keep], ws[hw[k]]])  # last key sorts first
    order = np.lexsort(key)
    first = np.r_[True, np.any(np.diff(key[:, order]) != 0, axis=0)]
    inv = (np.cumsum(first) - 1)[np.argsort(order)]
    ivs = key[::-1, order[first]].T  # the distinct (w, lo, hi) rows
    part = np.empty(len(ivs))
    gx, gw = GL_RULE
    for s in range(0, len(ivs), _CHUNK):
        w, lo, hi = ivs[s:s + _CHUNK].T[..., None]
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        xi, xi1, xi2 = _freqs_from(spec, w, mid + half * gx)
        part[s:s + _CHUNK] = half[:, 0] * np.sum(
            gw * _weight_integrand(spec, a, xi, xi1, xi2), axis=1)
    # bincount sums each (cutoff, w, pair)'s parts in interval order
    # from 0.0: the same additions as integrating that pair alone
    best = np.bincount((hj[k] * nw + hw[k]) * npair + pair,
                       weights=part[inv], minlength=nj * nw * npair)
    best = best.reshape(nj, nw, npair).max(axis=1)
    best = best[:, 0] if scalar else best
    return best if np.ndim(lam) else (float(best[0]) if scalar else best[0])


class ScanReport:
    def __init__(self, sup_value, ratio, growth_slope, lams, sup_values):
        self.sup_value = float(sup_value)
        self.ratio = float(ratio)
        self.growth_slope = float(growth_slope)
        self.lams = list(lams)
        self.sup_values = list(sup_values)

    def as_dict(self):
        return {
            "sup_value": self.sup_value,
            "ratio": self.ratio,
            "growth_slope": self.growth_slope,
            "lams": self.lams,
            "sup_values": self.sup_values,
        }


DEFAULT_ALPHA_GRID = (0.0, 1.0, -1.0, 10.0, -10.0)
DEFAULT_M_GRID = (1.0, 4.0)


def ratio_scan(spec, a, lams=(1e2, 1e3, 1e4),
               alpha_grid=DEFAULT_ALPHA_GRID, m_grid=DEFAULT_M_GRID):
    """Growth of the normalized FRE sup against the cutoff ladder.

    For each cutoff the worst ratio sup/( <alpha>^0.99 * M ) over the
    (alpha, M) grid is recorded; the slope of log(ratio) vs log(cutoff)
    is the report's growth_slope. Near-zero slope certifies a bounded
    FRE (inside the validity region); a decisively positive slope
    reproduces the failure outside it. The (at least 3 distinct)
    cutoffs share one fre_sup call over all (alpha, M) pairs, so each
    distinct fixed frequency is fitted and root-found once.
    """
    lams = sorted(float(x) for x in lams)
    if len(set(lams)) < 3:
        raise ValueError("need at least 3 distinct cutoffs for a slope fit")
    alphas = [al for al in alpha_grid for _ in m_grid]
    Ms = [M for _ in alpha_grid for M in m_grid]
    norms = [float(_bracket(al)) ** ALPHA_EXPONENT * M
             for al, M in zip(alphas, Ms)]
    sups = [max(0.0, *(val / norm for val, norm in zip(row, norms)))
            for row in fre_sup(spec, a, alphas, Ms, lams).tolist()]
    logs = np.log(np.maximum(sups, 1e-300))
    slope = float(np.polyfit(np.log(lams), logs, 1)[0])
    return ScanReport(sups[-1], sups[-1], slope, lams, sups)
