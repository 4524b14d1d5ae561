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

from .phases import eval_phase

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
    """np.polyval(coeffs, x) for scalar x: same operations, plain floats."""
    y = 0.0
    for c in coeffs:
        y = y * x + c
    return y


def _real_cubic_roots(c):
    """Real roots of c[0] x^3 + c[1] x^2 + c[2] x + c[3].

    Analytic solution of the depressed cubic (trigonometric form for
    three real roots, Cardano otherwise) followed by a Newton polish.
    Degenerate leading coefficients fall through to the quadratic and
    linear cases. Returns a (possibly empty) sorted list.
    """
    c3, c2, c1, c0 = (float(x) for x in c)
    scale = max(abs(c3), abs(c2), abs(c1), abs(c0))
    if scale == 0.0:
        return []
    tol = 1e-14 * scale
    if abs(c3) <= tol:
        if abs(c2) <= tol:
            if abs(c1) <= tol:
                return []
            return [-c0 / c1]
        disc = c1 * c1 - 4.0 * c2 * c0
        if disc < 0:
            return []
        r = math.sqrt(disc)
        return sorted([(-c1 - r) / (2 * c2), (-c1 + r) / (2 * c2)])

    b, cc, d = c2 / c3, c1 / c3, c0 / c3
    # depressed form y^3 + p y + q with x = y - b/3
    p = cc - b * b / 3.0
    q = 2.0 * b ** 3 / 27.0 - b * cc / 3.0 + d
    shift = -b / 3.0
    roots = []
    disc = -4.0 * p ** 3 - 27.0 * q ** 2
    if disc >= 0 and p < 0:
        m = 2.0 * math.sqrt(-p / 3.0)
        arg = 3.0 * q / (p * m)
        arg = min(1.0, max(-1.0, arg))
        phi = math.acos(arg)
        for kk in range(3):
            roots.append(m * math.cos((phi - 2.0 * math.pi * kk) / 3.0)
                         + shift)
    else:
        half_q = -q / 2.0
        inner = half_q * half_q + (p / 3.0) ** 3
        if inner < 0:
            inner = 0.0
        sq = math.sqrt(inner)
        y = np.cbrt(half_q + sq) + np.cbrt(half_q - sq)
        roots.append(float(y) + shift)

    poly = (c3, c2, c1, c0)
    dpoly = (3 * c3, 2 * c2, c1)
    polished = []
    for r in roots:
        x = r
        for _ in range(3):
            fx = _horner(poly, x)
            dfx = _horner(dpoly, x)
            if dfx != 0:
                x -= fx / dfx
        if not math.isfinite(x):
            raise RootFindingError("Newton polish diverged for cubic %r"
                                   % (list(poly),))
        polished.append(float(x))
    return sorted(polished)


class FreSpec:
    """What to integrate: multiplier, Sobolev weights, phase.

    multiplier: 'xi' (symbol of d/dx(v*v)) or 'xi2' (symbol of u v_x).
    weights = (s_out, s_1, s_2). The sup runs over the output frequency
    xi and the integral over xi1, with xi2 = xi - xi1.
    """

    def __init__(self, multiplier, weights, phase_tag):
        if multiplier not in ("xi", "xi2"):
            raise ValueError("unknown multiplier %r" % (multiplier,))
        from .phases import PhaseId
        pid = PhaseId(phase_tag) if isinstance(phase_tag, str) else phase_tag
        if pid.arity != 2:
            raise ValueError("FRE scans need a quadratic phase")
        self.multiplier = multiplier
        self.weights = tuple(float(wq) for wq in weights)
        self.phase = pid


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


def _phase_cubic_coeffs(spec, a, w):
    """Coefficients of the phase as a polynomial in the free variable."""
    span = max(1.0, abs(w))
    nodes = np.array([-2.0, -0.5, 0.5, 2.0]) * span
    xi, xi1, xi2 = _freqs_from(spec, w, nodes)
    vals = eval_phase(spec.phase, a, (xi1, xi2))
    return np.polyfit(nodes, vals, 3)


def _weight_integrand(spec, a, xi, xi1, xi2):
    s_out, s1, s2 = spec.weights
    m2 = xi ** 2 if spec.multiplier == "xi" else xi2 ** 2
    return (m2 * _bracket(xi) ** (2 * s_out)
            / (_bracket(xi1) ** (2 * s1) * _bracket(xi2) ** (2 * s2)))


_GL64 = np.polynomial.legendre.leggauss(64)


def _level_set_roots(coeffs, alpha, M):
    """Sorted real roots of poly - (alpha +- M); coeffs highest first."""
    c3, c2, c1, c0 = coeffs
    return sorted(_real_cubic_roots((c3, c2, c1, c0 - (alpha + M)))
                  + _real_cubic_roots((c3, c2, c1, c0 - (alpha - M))))


def _level_set_intervals(coeffs, alpha, M, roots, clip):
    """Intervals of {free : |poly(free) - alpha| < M} in (-clip, clip),
    given the pair's _level_set_roots."""
    breaks = [-clip] + [p for p in roots if -clip < p < clip] + [clip]
    out = []
    for lo, hi in zip(breaks, breaks[1:]):
        if hi - lo < 1e-300:
            continue
        if abs(_horner(coeffs, 0.5 * (lo + hi)) - alpha) < M:
            out.append((lo, hi))
    return out


def _fixed_grid(lam):
    """Signed geometric grid of fixed frequencies up to lam; a fixed ratio
    so enlarging lam only appends points (keeps the sup monotone)."""
    mags = [0.1]
    while mags[-1] < lam:
        mags.append(mags[-1] * 1.15)
    mags[-1] = min(mags[-1], lam)
    mags = np.asarray(mags)
    return np.concatenate([-mags[::-1], mags])


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
    single-cutoff call: each distinct fixed frequency of the grids'
    union is fitted and each pair's level set root-found once, then
    every cutoff holding it clips those roots at 10*lam and integrates
    (or reuses the previous cutoff's totals when its intervals are
    equal). Rows are bit-identical because each grid comes from the
    same float recurrence (a shared frequency is the same double), the
    roots are a pure function of the coefficients and np.maximum is
    exact. The root finder stays scalar: when the fitted leading
    coefficient is rounding noise the cubic branch cancels
    catastrophically, and numpy's one-ulp array pow/acos/cos
    differences would flip its branch decisions.
    """
    scalar = np.ndim(alpha) == 0 and np.ndim(M) == 0
    alphas = np.atleast_1d(np.asarray(alpha, dtype=float))
    Ms = np.atleast_1d(np.asarray(M, dtype=float))
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    if alphas.ndim != 1 or alphas.shape != Ms.shape:
        raise ValueError("alpha and M must be scalars or 1-D sequences "
                         "of equal length")
    if not (lams.ndim == 1 and lams.size and np.all(Ms > 0)
            and np.all(np.isfinite(lams) & (lams > 0))):
        raise ValueError("lam (scalar or 1-D) must be finite and positive, "
                         "and M positive")
    pairs = list(zip(alphas.tolist(), Ms.tolist()))
    cutoffs = lams.tolist()
    holders = {}  # fixed frequency -> indices of the cutoffs holding it
    for j, lj in enumerate(cutoffs):
        for w in _fixed_grid(lj).tolist():
            holders.setdefault(w, []).append(j)
    best = np.zeros((len(cutoffs), len(pairs)))
    gx, gw = _GL64
    for w, js in holders.items():
        coeffs = _phase_cubic_coeffs(spec, a, w).tolist()
        roots = [_level_set_roots(coeffs, al, m) for al, m in pairs]
        prev = None
        for j in js:
            clip = 10.0 * cutoffs[j]
            ivs = [(i, lo, hi) for i, (al, m) in enumerate(pairs)
                   for lo, hi in _level_set_intervals(coeffs, al, m,
                                                      roots[i], clip)]
            if not ivs:
                continue
            if ivs != prev:
                owner, lo, hi = np.array(ivs).T
                mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
                nodes = mid[:, None] + half[:, None] * gx
                xi, xi1, xi2 = _freqs_from(spec, w, nodes)
                part = half * np.sum(
                    gw * _weight_integrand(spec, a, xi, xi1, xi2), axis=1)
                # bincount sums each pair's parts in interval order from
                # 0.0: the same additions as integrating that pair alone
                totals = np.bincount(owner.astype(int), weights=part,
                                     minlength=len(pairs))
                prev = ivs
            best[j] = np.maximum(best[j], totals)
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
