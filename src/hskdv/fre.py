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
import warnings
from collections import namedtuple

import numpy as np
# the stacked LAPACK solve that np.linalg.lstsq makes per matrix
from numpy.linalg._umath_linalg import lstsq as _lstsq

from .phases import eval_phase
from .picard import GL_RULE

ALPHA_EXPONENT = 0.99  # numerical stand-in for the <alpha>^(1-) weight
# the largest cutoff: the phase fit's nodes reach 2 lam, and its cube
# column's squared norm, about 128 lam^6, overflows a double past 1.06e51
LAM_MAX = 1e51


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
    linear cases. Returns an (n, 3) array, NaN past a row's roots. The
    powers, acos and cos are libm's (Python floats), not numpy's SIMD.
    """
    c = np.asarray(c, dtype=float).reshape(-1, 4)
    mag = np.abs(c)
    small = mag <= (1e-14 * mag.max(axis=1))[:, None]
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


# What to integrate for one bilinear form: its multiplier ('xi', the
# symbol of d/dx(v*v), or 'xi2', that of u v_x), weights = (s_out, s_1,
# s_2) and phase, a tag of phases.PHASES in the two free frequencies
# (xi1, xi2). The sup runs over the output frequency xi and the integral
# over xi1, with xi2 = xi - xi1. Built by make_fre_spec only.
FreSpec = namedtuple("FreSpec", "form multiplier weights phase")

# form -> (multiplier, which of k and s weighs xi, xi1 and xi2, phase)
_FORMS = {"dxv2": ("xi", "kss", "Phi1u"), "uvx": ("xi2", "sks", "Phiv")}


def make_fre_spec(form, k, s):
    """The FreSpec of one of the two bilinear interactions.

    form 'dxv2': output u in H^k from v*v data in H^s (multiplier xi,
    phase Phi1u); form 'uvx': output v in H^s from u in H^k and v in
    H^s (multiplier xi2, phase Phiv).
    """
    if form not in _FORMS:
        raise ValueError("unknown FRE form %r" % (form,))
    multiplier, weights, phase = _FORMS[form]
    index = {"k": float(k), "s": float(s)}
    return FreSpec(form, multiplier, tuple(index[w] for w in weights), phase)


def _freqs_from(w, free):
    """(xi, xi1, xi2) arrays given the fixed xi = w and free xi1 samples."""
    xi1 = np.asarray(free, dtype=float)
    xi = np.full_like(xi1, w)
    return xi, xi1, xi - xi1


def _raise_lstsq(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least "
                                "Squares")


def _phase_cubic_coeffs(spec, a, ws):
    """(W, 4) coefficients of the phase as a cubic in the free variable per
    fixed frequency in ws, from one phase evaluation and one stacked fit.

    Each row is == np.polyfit(nodes, vals, 3) of its frequency alone,
    because the fit repeats polyfit's operations on all rows at once:
    the Vandermonde powers by multiply.accumulate into a reversed view,
    the column scales (4-term sums in the same order), rcond 4 eps, one
    call of the gufunc that np.linalg.lstsq calls for one matrix, then
    the unscaling. The gufunc copies each matrix into the same workspace
    and runs LAPACK's dgelsd on it as on a lone matrix, so no row sees
    its neighbours.
    """
    ws = np.asarray(ws, dtype=float)
    nodes = np.maximum(1.0, np.abs(ws))[:, None] * [-2.0, -0.5, 0.5, 2.0]
    xi, xi1, xi2 = _freqs_from(ws[:, None], nodes)
    vals = eval_phase(spec.phase, a, (xi1, xi2))
    lhs = np.empty(nodes.shape + (4,))
    pows = lhs[..., ::-1]  # np.vander(x, 4) per row
    pows[..., 0] = 1.0
    pows[..., 1:] = nodes[..., None]
    np.multiply.accumulate(pows[..., 1:], out=pows[..., 1:], axis=-1)
    scale = np.sqrt((lhs * lhs).sum(axis=-2))
    lhs /= scale[:, None, :]
    with np.errstate(call=_raise_lstsq, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        c, _, rank, _ = _lstsq(lhs, vals[..., None], 4 * np.finfo(float).eps,
                               signature="ddd->ddid")
    if np.any(rank != 4):
        warnings.warn("Polyfit may be poorly conditioned",
                      np.exceptions.RankWarning, stacklevel=2)
    return c[..., 0] / scale


def _weight_integrand(spec, xi, xi1, xi2):
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


def fre_sup(spec, a, alphas, Ms, lams):
    """Sup over the fixed frequency of the restricted weight integral.

    For each fixed value on a signed log grid up to a cutoff lam, the
    level set {|Phi - alpha| < M} in the free variable is isolated by
    cubic root finding and the weight integrand is integrated over it
    with Gauss-Legendre nodes; the maximum over the grid is the sup.

    alphas and Ms are nonempty, equal-length 1-D sequences of (alpha, M)
    pairs and lams a nonempty 1-D sequence of cutoffs; returns the
    (len(lams), len(alphas)) array of sups. A cutoff outside
    (0, LAM_MAX] raises ValueError before any fit, and so does a uvx
    cutoff (a != 1) at which the root finder would take the level sets'
    cube term for zero. Each distinct fixed frequency w of the grids'
    union is fitted once, and a shared w is the same double in every
    grid; one array pass then root-finds every pair's two level-set
    cubics, tests the segments between the roots (clamped to
    [-10 lam, 10 lam]) for every (cutoff, w, pair) and integrates each
    distinct (w, lo, hi) once.
    """
    alphas, Ms, lams = (np.asarray(x, dtype=float) for x in (alphas, Ms, lams))
    if alphas.ndim != 1 or alphas.shape != Ms.shape or not alphas.size:
        raise ValueError("alphas and Ms must be nonempty 1-D sequences of "
                         "equal length")
    if not (lams.ndim == 1 and lams.size and np.all(np.r_[lams, Ms] > 0)
            and np.all(np.isfinite(np.r_[lams, alphas, Ms, a]))):
        raise ValueError("lams (nonempty, 1-D) must be finite and positive, "
                         "M finite and positive, alpha and a finite")
    top = lams.max()
    if top > LAM_MAX:
        raise ValueError("cutoff lam = %g exceeds %g, past which the phase "
                         "fit overflows" % (top, LAM_MAX))
    # Phiv at fixed xi = w is (a-1) x^3 + 3w x^2 - 3w^2 x in x = xi1, and
    # _cubic_roots drops a coefficient of at most 1e-14 times its row's
    # largest: past this bound, the uvx cube term
    if spec.phase == "Phiv" and 0 < abs(a - 1.0) <= 1e-14 * max(
            3.0 * top, 3.0 * top * top, np.max(np.abs(alphas) + Ms)):
        raise ValueError("cutoff lam = %g is too large for the uvx scan at "
                         "a = %g: the root finder drops the level-set cube "
                         "term a - 1 once |a - 1| <= 1e-14 * 3 lam^2"
                         % (top, a))
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
        xi, xi1, xi2 = _freqs_from(w, mid + half * gx)
        part[s:s + _CHUNK] = half[:, 0] * np.sum(
            gw * _weight_integrand(spec, xi, xi1, xi2), axis=1)
    # bincount sums each (cutoff, w, pair)'s parts in interval order
    best = np.bincount((hj[k] * nw + hw[k]) * npair + pair,
                       weights=part[inv], minlength=nj * nw * npair)
    return best.reshape(nj, nw, npair).max(axis=1)


# One ratio_scan: the worst normalized sup at the largest cutoff (as
# sup_value and ratio), the log-log growth_slope, and the sorted cutoffs
# lams with the normalized sup_values at each.
ScanReport = namedtuple("ScanReport", ("sup_value", "ratio", "growth_slope",
                                       "lams", "sup_values"))


DEFAULT_ALPHA_GRID = (0.0, 1.0, -1.0, 10.0, -10.0)
DEFAULT_M_GRID = (1.0, 4.0)


def ratio_scan(spec, a, lams=(1e2, 1e3, 1e4)):
    """Growth of the normalized FRE sup against the cutoff ladder.

    For each cutoff the worst ratio sup/( <alpha>^0.99 * M ) over the
    (alpha, M) grid DEFAULT_ALPHA_GRID x DEFAULT_M_GRID is recorded;
    the slope of log(ratio) vs log(cutoff) is the report's
    growth_slope. Near-zero slope certifies a bounded FRE (inside the
    validity region); a decisively positive slope reproduces the
    failure outside it. The (at least 3 distinct) cutoffs share one
    fre_sup call over all (alpha, M) pairs, so each distinct fixed
    frequency is fitted and root-found once.
    """
    lams = sorted(float(x) for x in lams)
    if len(set(lams)) < 3:
        raise ValueError("need at least 3 distinct cutoffs for a slope fit")
    alphas = [al for al in DEFAULT_ALPHA_GRID for _ in DEFAULT_M_GRID]
    Ms = [M for _ in DEFAULT_ALPHA_GRID for M in DEFAULT_M_GRID]
    norms = [float(_bracket(al)) ** ALPHA_EXPONENT * M
             for al, M in zip(alphas, Ms)]
    sups = [max(0.0, *(val / norm for val, norm in zip(row, norms)))
            for row in fre_sup(spec, a, alphas, Ms, lams).tolist()]
    logs = np.log(np.maximum(sups, 1e-300))
    slope = float(np.polyfit(np.log(lams), logs, 1)[0])
    return ScanReport(sups[-1], sups[-1], slope, lams, sups)
