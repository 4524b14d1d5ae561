"""Norm-inflation ladders certifying the sharpness of the atlas boundaries.

Each boundary line of the admissible region is witnessed by an explicit
frequency-box datum whose second (or third) Picard iterate grows like a
power of the frequency parameter N in the relevant Sobolev norm. This
module builds those data, evaluates the iterates through the picard
module along an N-ladder, fits the log-log growth slope and compares it
with the predicted exponent. Each family is one row of FAMILIES, keyed
by its lemma tag; only its box geometry in N is written as code.
"""

import math
from collections import namedtuple

import numpy as np

from . import picard
from .phases import eval_phase, mu
from .regions import QUARTER, _rat

DEFAULT_NS = (64, 128, 256, 512, 1024)
TIME_CONSTANT = 0.01      # c in t = c*N^-3 for the large-phase ladders
BOUNDED_T = 0.01          # fixed small time, double-root ladders
RESONANT_T = 0.002        # fixed small time, simple-resonance ladders
DEFAULT_TOL = 0.15        # slope tolerance of a verdict


def canonical_tag(lemma):
    tag = _SHORT.get(lemma, lemma)
    if tag not in FAMILIES:
        raise ValueError("unknown lemma tag %r" % (lemma,))
    return tag


class HypothesisError(ValueError):
    pass


# One row of FAMILIES:
#   boundary  the regions.region_planes label of the line it certifies
#   iterate   second_u, measured in H^k, or second_v / third_v, in H^s
#   guard     (admits(regions._rat(a)), the HypothesisError text otherwise)
#   t         a fixed time (bounded phase), or None for TIME_CONSTANT*N^-3
#   slope     (n, rho) -> predicted exponent at norm index n
#   geometry  (N, a, rho) -> (u0, v0, out_window), the box data in N
#   tol       the verdict's default tolerance; default_a, the a if none given
#   rho       (k, s, rho) -> amplitude exponent of the weighted datum
Family = namedtuple("Family", ("boundary", "iterate", "guard", "t", "slope",
                               "geometry", "tol", "default_a", "rho"),
                    defaults=(DEFAULT_TOL, None, None))


def _norm_index(fam, k, s):
    return k if fam.iterate == "second_u" else s


def _boxes(*iv, rho=0.0):
    return picard.BoxData([picard.FrequencyBox(lo, hi, rho)
                           for lo, hi in iv])


def _l61(N, a, rho):
    return _boxes((N, N + 1.0)), _boxes((1.0, 3.0)), (N + 2.0, N + 3.0)


def _l62(N, a, rho):
    b = 0.9
    if abs(1.0 - a) * b ** 3 - (1.0 - b ** 3) - (1.0 - b) ** 3 <= 0:
        raise HypothesisError("L62 phase positivity fails for a=%g, "
                              "b=%g" % (a, b))
    v0 = _boxes((-1.0, 1.0), (b * N, N), rho=rho)
    return None, v0, (b * N + 1.0, N - 1.0)


def _l62_rho(k, s, rho):
    if rho is None:
        lo_b, hi_b = s + 0.5, k - 1.5
        if not lo_b < hi_b:
            raise HypothesisError(
                "L62 bracket (s+1/2, k-3/2) is empty at (k,s)=(%g,%g); "
                "pass rho explicitly" % (k, s))
        rho = 0.5 * (lo_b + hi_b)
    return rho


def _l63(N, a, rho):
    d = 0.05
    v0 = _boxes((-N - d * N, -N + d * N), (N + d * N, N + 2 * d * N))
    win = (d * N, 2 * d * N)
    # the phase floor on the output window must be positive
    if np.min(_support_phases("Phi1u", a, v0, v0, win),
              initial=math.inf) <= 0:
        raise HypothesisError("L63 phase floor fails at delta=%g" % d)
    return None, v0, win


def _l64(N, a, rho):
    w = N ** -0.5
    return None, _boxes((N, N + w)), (2 * N, 2 * N + 2 * w)


def _l65(N, a, rho):
    w = N ** -0.5
    return (_boxes((2 * N, 2 * N + 2 * w)), _boxes((-N - w, -N)),
            (N - w, N + 2 * w))


def _l66(N, a, rho):
    m = mu(a)
    c2 = (1.0 / m - 1.0) * N
    h = N ** -2.0
    v0 = _boxes((N, N + h), (c2 - h, c2 + h))
    return None, v0, (N / m - h, N / m + 2 * h)


def _l67(N, a, rho):
    m = mu(a)
    h = N ** -2.0
    u0 = _boxes((N, N + h))
    v0 = _boxes(((m - 1.0) * N - h, (m - 1.0) * N + h))
    return u0, v0, (m * N - h, m * N + 2 * h)


def _l68(N, a, rho):
    w = N ** -0.5
    v0 = _boxes((N, N + w), (-N + 1.25 * w, -N + 1.5 * w))
    return None, v0, (N + 2.0 * w, N + 2.25 * w)


_NOT_01 = (lambda aq: aq not in (0, 1), "needs a outside {0,1}")
_QUARTER = (lambda aq: aq == QUARTER, "requires a = 1/4")
_ABOVE = (lambda aq: aq > QUARTER and aq != 1, "needs a > 1/4, a != 1")
_BELOW = (lambda aq: aq < QUARTER and aq not in (-QUARTER / 2, 0),
          "needs a < 1/4 outside {-1/8, 0}")

FAMILIES = {
    "L61_s_le_k3": Family("s=k+3", "second_v", _NOT_01, None,
                          lambda n, rho: n - 3.0, _l61),
    "L62_s_ge_km2": Family("s=k-2", "second_u", _NOT_01, None,
                           lambda n, rho: n - 2.0 - rho + 0.5, _l62,
                           rho=_l62_rho),
    "L63_s_ge_k2_34": Family("s=k/2-3/4", "second_u", _NOT_01, None,
                             lambda n, rho: n - 0.5, _l63),
    "L64_quarter_s": Family("s=k/2+3/8", "second_u", _QUARTER, BOUNDED_T,
                            lambda n, rho: n + 0.25, _l64, default_a=0.25),
    "L65_quarter_k": Family("k=3/4", "second_v", _QUARTER, BOUNDED_T,
                            lambda n, rho: n + 0.25, _l65, default_a=0.25),
    "L66_agt_s": Family("s=k/2", "second_u", _ABOVE, RESONANT_T,
                        lambda n, rho: n - 2.0, _l66),
    "L67_agt_k": Family("k=0", "second_v", _ABOVE, RESONANT_T,
                        lambda n, rho: n - 2.0, _l67),
    "L68_cubic_34": Family("s=-3/4", "third_v", _BELOW, BOUNDED_T,
                           lambda n, rho: n - 2.25, _l68, tol=0.2),
}

LEMMA_TAGS = tuple(FAMILIES)
_SHORT = {t.split("_")[0]: t for t in LEMMA_TAGS}


class CounterexampleSpec:
    """Concrete ladder rung: box data, time, window, norm index.

    Its iterate and phase regime are those of family = FAMILIES[lemma],
    and the norm is taken over the iterate's window out_window. rho is
    None unless the family has a rho rule, as only L62's datum is weighted.
    """

    def __init__(self, lemma, a, N, u0, v0, t, out_window, norm_index,
                 rho=None):
        self.lemma = lemma
        self.family = FAMILIES[lemma]
        self.a = float(a)
        self.N = float(N)
        self.u0 = u0
        self.v0 = v0
        self.t = float(t)
        self.out_window = tuple(out_window)
        self.norm_index = float(norm_index)
        self.rho = rho


def _resolve(lemma, k, s, a, rho):
    """The family's a (default when None, guarded) and rho (or None)."""
    fam = FAMILIES[lemma]
    admits, needs = fam.guard
    a = fam.default_a if a is None else a
    if a is None or not admits(_rat(a)):
        raise HypothesisError("%s %s" % (lemma.split("_")[0], needs))
    return a, None if fam.rho is None else fam.rho(k, s, rho)


def build(lemma, N, k=0.0, s=0.0, a=None, rho=None):
    """Instantiate one ladder rung of a counterexample family.

    Guards the family's a-range. For L62 the amplitude exponent rho
    defaults to the midpoint of the admissible bracket (s+1/2, k-3/2)
    when that bracket is nonempty (_l62_rho); otherwise it must be given
    explicitly.
    """
    lemma = canonical_tag(lemma)
    if N < 16:
        raise HypothesisError("ladder requires N >= 16")
    fam = FAMILIES[lemma]
    a, rho = _resolve(lemma, k, s, a, rho)
    u0, v0, win = fam.geometry(N, a, rho)
    t = TIME_CONSTANT * N ** -3.0 if fam.t is None else fam.t
    return CounterexampleSpec(lemma, a, N, u0, v0, t, win,
                              _norm_index(fam, k, s), rho)


def predicted_slope(lemma, k=0.0, s=0.0, rho=None):
    """Predicted growth exponent of the measured window norm.

    The FAMILIES row's slope: the norm index plus the family's offset.

    L62 (raw H^k norm of the second u-iterate over the window, with no
    division by the data norm). The datum is <xi>^(-rho) on
    [-1, 1] u [bN, N], t = c N^-3 with c = TIME_CONSTANT, and the window
    is W = (bN+1, N-1). Only low x high pairs reach W; high x high sums
    lie in [2bN, 2N]. On those pairs Phi1u = (1-a) xi^3 + O(N^2), so |t Phi| <~ c|1-a|
    and K(Phi, t) = t (1 + O(c)). Hence

      Ihat(xi) ~ i xi t C <xi>^(-rho),   C = 2 int_{-1}^{1} <x>^(-rho) dx,

    and ||Ihat||_{H^k(W)} ~ N^(1-3-rho) |W|^(1/2) N^k = N^(k-2-rho+1/2).
    The ladder fits a shallower slope at small N because
    |W| = (1-b)N - 2 is not yet proportional to N: at (k, rho) = (0, -1)
    N = 64..1024 gives -0.439 against -1/2, the 512 -> 1024 pair -0.485
    and N = 4096..65536 -0.499. The L62 bracket (s+1/2, k-3/2) may be
    empty (for instance at (k, s) = (0, -1.8)); build() then takes rho
    only explicitly, and the ladder certifies this scaling law, not
    norm inflation.
    """
    lemma = canonical_tag(lemma)
    fam = FAMILIES[lemma]
    if fam.rho is not None and rho is None:
        raise ValueError("%s prediction needs rho" % lemma.split("_")[0])
    return fam.slope(_norm_index(fam, k, s), rho)


def _support_nodes(data, n=33):
    return np.concatenate([np.linspace(b.lo, b.hi, n) for b in data.boxes])


def _support_phases(tag, a, d1, d2, out_window):
    """|phase| over the data support (33 nodes per box) inside the window.

    Empty when no node pair sums into the window.
    """
    X1, X2 = np.meshgrid(_support_nodes(d1), _support_nodes(d2),
                         indexing="ij")
    xi = X1 + X2
    lo, hi = out_window
    sel = (xi >= lo) & (xi <= hi)
    return np.abs(eval_phase(tag, a, (X1[sel], X2[sel])))


def check_phase_regime(spec):
    """Validate the time-scale assumption of one rung.

    Large-phase rungs need |t*Phi| small enough that the kernel is
    coherent (sin(x) >= 0.99 x on the support); bounded-phase rungs
    need max |t*Phi| <= 0.1. The third-iterate family is checked
    through its effective bounded phase inside third_iterate_v.
    """
    fam = spec.family
    if fam.iterate == "third_v":
        return
    if fam.iterate == "second_v":
        tag, d1 = "Phiv", spec.u0
    else:
        tag, d1 = "Phi1u", spec.v0
    phases = _support_phases(tag, spec.a, d1, spec.v0, spec.out_window)
    xmax = float(np.max(spec.t * phases, initial=0.0))
    if fam.t is None:
        # large phase: the mean-value step needs sin(x)/x >= 0.99
        if xmax > 0 and math.sin(xmax) < 0.99 * xmax:
            raise HypothesisError(
                "%s: large-phase coherence failed, max|t*Phi|=%.3g"
                % (spec.lemma, xmax))
    elif xmax > 0.1:  # a fixed time: bounded phase
        raise HypothesisError(
            "%s: bounded-phase check failed, max|t*Phi|=%.3g > 0.1"
            % (spec.lemma, xmax))


def evaluate_rung(spec):
    """Run the designated iterate and return the windowed norm."""
    check_phase_regime(spec)
    if spec.family.iterate == "second_v":
        out = picard.second_iterate_v(spec.u0, spec.v0, spec.a, spec.t,
                                      spec.out_window)
    elif spec.family.iterate == "second_u":
        out = picard.second_iterate_u(spec.v0, spec.a, spec.t,
                                      spec.out_window)
    else:
        out = picard.third_iterate_v(
            spec.v0, spec.a, spec.t, spec.out_window,
            gl_nodes=48, min_phase=0.4 * spec.N ** 1.5)
    return picard.hs_norm_window(out, spec.norm_index, spec.out_window)


class ExponentFit:
    def __init__(self, slope, intercept, r2, Ns, norms):
        self.slope = float(slope)
        self.intercept = float(intercept)
        self.r2 = float(r2)
        self.Ns = list(Ns)
        self.norms = list(norms)


def run_ladder(lemma, Ns=DEFAULT_NS, k=0.0, s=0.0, a=None, rho=None):
    """Fit the growth slope of the windowed norm along the N ladder.

    Fewer than 3 distinct N is a ValueError, raised before any rung.
    """
    Ns = sorted(float(N) for N in Ns)
    if len(set(Ns)) < 3:
        raise ValueError("ladder needs at least 3 distinct N, got %s"
                         % ", ".join("%g" % N for N in Ns))
    norms = []
    for N in Ns:
        spec = build(lemma, N, k=k, s=s, a=a, rho=rho)
        norms.append(evaluate_rung(spec))
    logN = np.log(np.asarray(Ns))
    logn = np.log(np.maximum(norms, 1e-300))
    slope, intercept = np.polyfit(logN, logn, 1)
    fitted = slope * logN + intercept
    ss_res = float(np.sum((logn - fitted) ** 2))
    ss_tot = float(np.sum((logn - np.mean(logn)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return ExponentFit(slope, intercept, r2, Ns, norms)


def verdict(fit, predicted, tol=DEFAULT_TOL):
    """Pass/fail report for one ladder fit."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    ok = abs(fit.slope - predicted) <= tol and fit.r2 >= 0.99
    return {
        "pass": bool(ok),
        "slope": fit.slope,
        "predicted": predicted,
        "tol": tol,
        "r2": fit.r2,
    }


def ladder_report(lemma, Ns=DEFAULT_NS, k=0.0, s=0.0, a=None, rho=None,
                  tol=None):
    """Full JSON-ready report for one counterexample family."""
    lemma = canonical_tag(lemma)
    a_eff, rho_eff = _resolve(lemma, k, s, a, rho)
    fit = run_ladder(lemma, Ns, k=k, s=s, a=a, rho=rho)
    pred = predicted_slope(lemma, k=k, s=s, rho=rho_eff)
    tol = FAMILIES[lemma].tol if tol is None else tol
    return {
        "lemma": lemma,
        "a": float(a_eff),
        "k": k,
        "s": s,
        "rho": rho_eff,
        "Ns": fit.Ns,
        "norms": fit.norms,
        "slope": fit.slope,
        "r2": fit.r2,
        "predicted": pred,
        "tol": tol,
        "pass": verdict(fit, pred, tol)["pass"],
    }
