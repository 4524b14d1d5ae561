"""Norm-inflation ladders certifying the sharpness of the atlas boundaries.

Each boundary line of the admissible region is witnessed by an explicit
frequency-box datum whose second (or third) Picard iterate grows like a
power of the frequency parameter N in the relevant Sobolev norm. This
module builds those data, evaluates the iterates through the picard
module along an N-ladder, fits the log-log growth slope and compares it
with the predicted exponent.

Lemma tags (fixed enumeration; the suffix names the boundary the
construction certifies):

  L61_s_le_k3    s <= k+3             second v-iterate, distant boxes
  L62_s_ge_km2   s >= k-2             second u-iterate, weighted boxes
  L63_s_ge_k2_34 s >= k/2-3/4         second u-iterate, +-N boxes
  L64_quarter_s  s >= k/2+3/8 (a=1/4) second u-iterate, double root
  L65_quarter_k  k >= 3/4     (a=1/4) second v-iterate, double root
  L66_agt_s      s >= k/2     (a>1/4) second u-iterate, resonant root
  L67_agt_k      k >= 0       (a>1/4) second v-iterate, resonant root
  L68_cubic_34   s >= -3/4    (a<1/4) third v-iterate
"""

import math

import numpy as np

from . import picard
from .phases import eval_phase, mu

LEMMA_TAGS = ("L61_s_le_k3", "L62_s_ge_km2", "L63_s_ge_k2_34",
              "L64_quarter_s", "L65_quarter_k", "L66_agt_s",
              "L67_agt_k", "L68_cubic_34")

_SHORT = {t.split("_")[0]: t for t in LEMMA_TAGS}

DEFAULT_NS = (64, 128, 256, 512, 1024)
TIME_CONSTANT = 0.01      # c in t = c*N^-3 for the large-phase ladders
BOUNDED_T = 0.01          # fixed small time, double-root ladders
RESONANT_T = 0.002        # fixed small time, simple-resonance ladders
L62_B = 0.9
L63_DELTA = 0.05


def canonical_tag(lemma):
    if lemma in LEMMA_TAGS:
        return lemma
    if lemma in _SHORT:
        return _SHORT[lemma]
    raise ValueError("unknown lemma tag %r" % (lemma,))


class HypothesisError(ValueError):
    pass


class CounterexampleSpec:
    """Concrete ladder rung: box data, time, windows, norm index."""

    def __init__(self, lemma, a, N, iterate, u0, v0, t, out_window,
                 norm_index, norm_window, aux=None, phase_regime="large"):
        self.lemma = lemma
        self.a = float(a)
        self.N = float(N)
        self.iterate = iterate
        self.u0 = u0
        self.v0 = v0
        self.t = float(t)
        self.out_window = tuple(out_window)
        self.norm_index = float(norm_index)
        self.norm_window = tuple(norm_window)
        self.aux = dict(aux or {})
        self.phase_regime = phase_regime


def _boxes(*iv, rho=0.0):
    return picard.BoxData([picard.FrequencyBox(lo, hi, rho)
                           for lo, hi in iv])


def build(lemma, N, k=0.0, s=0.0, a=None, rho=None):
    """Instantiate one ladder rung of a counterexample family.

    Guards the stated a-range of each family. For L62 the amplitude
    exponent rho defaults to the midpoint of the admissible bracket
    (s+1/2, k-3/2) when that bracket is nonempty; otherwise it must be
    given explicitly.
    """
    lemma = canonical_tag(lemma)
    if N < 16:
        raise HypothesisError("ladder requires N >= 16")
    w = N ** -0.5

    if lemma == "L61_s_le_k3":
        if a in (None, 0, 1):
            raise HypothesisError("L61 needs a outside {0,1}")
        t = TIME_CONSTANT * N ** -3.0
        win = (N + 2.0, N + 3.0)
        return CounterexampleSpec(lemma, a, N, "second_v",
                                  _boxes((N, N + 1.0)), _boxes((1.0, 3.0)),
                                  t, win, s, win)

    if lemma == "L62_s_ge_km2":
        if a in (None, 0, 1):
            raise HypothesisError("L62 needs a outside {0,1}")
        b = L62_B
        if abs(1.0 - a) * b ** 3 - (1.0 - b ** 3) - (1.0 - b) ** 3 <= 0:
            raise HypothesisError("L62 phase positivity fails for a=%g, "
                                  "b=%g" % (a, b))
        if rho is None:
            lo_b, hi_b = s + 0.5, k - 1.5
            if not lo_b < hi_b:
                raise HypothesisError(
                    "L62 bracket (s+1/2, k-3/2) is empty at (k,s)=(%g,%g); "
                    "pass rho explicitly" % (k, s))
            rho = 0.5 * (lo_b + hi_b)
        v0 = picard.BoxData([
            picard.FrequencyBox(-1.0, 1.0, rho),
            picard.FrequencyBox(b * N, N, rho),
        ])
        t = TIME_CONSTANT * N ** -3.0
        win = (b * N + 1.0, N - 1.0)
        return CounterexampleSpec(lemma, a, N, "second_u", None, v0, t,
                                  win, k, win, aux={"rho": rho, "b": b})

    if lemma == "L63_s_ge_k2_34":
        if a in (None, 0, 1):
            raise HypothesisError("L63 needs a outside {0,1}")
        d = L63_DELTA
        v0 = _boxes((-N - d * N, -N + d * N), (N + d * N, N + 2 * d * N))
        # the phase floor on the output window must be positive
        if np.min(_support_phases("Phi1u", a, v0, v0, (d * N, 2 * d * N)),
                  initial=math.inf) <= 0:
            raise HypothesisError("L63 phase floor fails at delta=%g" % d)
        t = TIME_CONSTANT * N ** -3.0
        win = (d * N, 2 * d * N)
        return CounterexampleSpec(lemma, a, N, "second_u", None, v0, t,
                                  win, k, win, aux={"delta": d})

    if lemma == "L64_quarter_s":
        if a is None:
            a = 0.25
        if a != 0.25:
            raise HypothesisError("L64 requires a = 1/4")
        v0 = _boxes((N, N + w))
        win = (2 * N, 2 * N + 2 * w)
        return CounterexampleSpec(lemma, a, N, "second_u", None, v0,
                                  BOUNDED_T, win, k, win,
                                  phase_regime="bounded")

    if lemma == "L65_quarter_k":
        if a is None:
            a = 0.25
        if a != 0.25:
            raise HypothesisError("L65 requires a = 1/4")
        u0 = _boxes((2 * N, 2 * N + 2 * w))
        v0 = _boxes((-N - w, -N))
        win = (N - w, N + 2 * w)
        return CounterexampleSpec(lemma, a, N, "second_v", u0, v0,
                                  BOUNDED_T, win, s, win,
                                  phase_regime="bounded")

    if lemma == "L66_agt_s":
        if a is None or not (a > 0.25 and a != 1):
            raise HypothesisError("L66 needs a > 1/4, a != 1")
        m = mu(a)
        c2 = (1.0 / m - 1.0) * N
        h = N ** -2.0
        v0 = _boxes((N, N + h), (c2 - h, c2 + h))
        win = (N / m - h, N / m + 2 * h)
        return CounterexampleSpec(lemma, a, N, "second_u", None, v0,
                                  RESONANT_T, win, k, win,
                                  phase_regime="bounded")

    if lemma == "L67_agt_k":
        if a is None or not (a > 0.25 and a != 1):
            raise HypothesisError("L67 needs a > 1/4, a != 1")
        m = mu(a)
        h = N ** -2.0
        u0 = _boxes((N, N + h))
        v0 = _boxes(((m - 1.0) * N - h, (m - 1.0) * N + h))
        win = (m * N - h, m * N + 2 * h)
        return CounterexampleSpec(lemma, a, N, "second_v", u0, v0,
                                  RESONANT_T, win, s, win,
                                  phase_regime="bounded")

    # L68_cubic_34
    if a is None or not (a < 0.25 and a not in (-0.125, 0.0)):
        raise HypothesisError("L68 needs a < 1/4 outside {-1/8, 0}")
    v0 = _boxes((N, N + w), (-N + 1.25 * w, -N + 1.5 * w))
    win = (N + 2.0 * w, N + 2.25 * w)
    return CounterexampleSpec(lemma, a, N, "third_v", None, v0,
                              BOUNDED_T, win, s, win,
                              phase_regime="mixed")


def predicted_slope(lemma, k=0.0, s=0.0, rho=None):
    """Predicted growth exponent of the measured window norm.

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
    if lemma == "L61_s_le_k3":
        return s - 3.0
    if lemma == "L62_s_ge_km2":
        if rho is None:
            raise ValueError("L62 prediction needs rho")
        return k - 2.0 - rho + 0.5
    if lemma == "L63_s_ge_k2_34":
        return k - 0.5
    if lemma == "L64_quarter_s":
        return k + 0.25
    if lemma == "L65_quarter_k":
        return s + 0.25
    if lemma == "L66_agt_s":
        return k - 2.0
    if lemma == "L67_agt_k":
        return s - 2.0
    return s - 2.25  # L68_cubic_34


def _support_nodes(data, n=33):
    if data is None or data.is_empty():
        return np.array([])
    out = []
    for b in data.boxes:
        out.append(np.linspace(b.lo, b.hi, n))
    return np.concatenate(out)


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
    if spec.phase_regime == "mixed":
        return
    if spec.iterate == "second_v":
        tag, d1 = "Phiv", spec.u0
    else:
        tag, d1 = "Phi1u", spec.v0
    phases = _support_phases(tag, spec.a, d1, spec.v0, spec.out_window)
    xmax = float(np.max(spec.t * phases, initial=0.0))
    if spec.phase_regime == "bounded":
        if xmax > 0.1:
            raise HypothesisError(
                "%s: bounded-phase check failed, max|t*Phi|=%.3g > 0.1"
                % (spec.lemma, xmax))
        return
    # large phase: the mean-value step needs sin(x)/x >= 0.99
    if xmax > 0 and math.sin(xmax) < 0.99 * xmax:
        raise HypothesisError(
            "%s: large-phase coherence failed, max|t*Phi|=%.3g"
            % (spec.lemma, xmax))


def evaluate_rung(spec):
    """Run the designated iterate and return the windowed norm."""
    check_phase_regime(spec)
    if spec.iterate == "second_v":
        out = picard.second_iterate_v(spec.u0, spec.v0, spec.a, spec.t,
                                      spec.out_window)
    elif spec.iterate == "second_u":
        out = picard.second_iterate_u(spec.v0, spec.a, spec.t,
                                      spec.out_window)
    else:
        out = picard.third_iterate_v(
            spec.v0, spec.a, spec.t, spec.out_window,
            gl_nodes=48, min_phase=0.4 * spec.N ** 1.5)
    return picard.hs_norm_window(out, spec.norm_index, spec.norm_window)


class ExponentFit:
    def __init__(self, slope, intercept, r2, Ns, norms):
        self.slope = float(slope)
        self.intercept = float(intercept)
        self.r2 = float(r2)
        self.Ns = list(Ns)
        self.norms = list(norms)


def run_ladder(lemma, Ns=DEFAULT_NS, k=0.0, s=0.0, a=None, rho=None):
    """Fit the growth slope of the windowed norm along the N ladder."""
    Ns = sorted(float(N) for N in Ns)
    if len(Ns) < 3:
        raise ValueError("ladder needs at least 3 points")
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


def verdict(fit, predicted, tol=0.15):
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
    spec0 = build(lemma, min(Ns), k=k, s=s, a=a, rho=rho)
    rho_eff = spec0.aux.get("rho", rho)
    fit = run_ladder(lemma, Ns, k=k, s=s, a=a, rho=rho)
    pred = predicted_slope(lemma, k=k, s=s, rho=rho_eff)
    if tol is None:
        tol = 0.2 if lemma == "L68_cubic_34" else 0.15
    v = verdict(fit, pred, tol)
    return {
        "lemma": lemma,
        "a": spec0.a,
        "k": k,
        "s": s,
        "rho": rho_eff,
        "Ns": fit.Ns,
        "norms": fit.norms,
        "slope": fit.slope,
        "r2": fit.r2,
        "predicted": pred,
        "tol": tol,
        "pass": v["pass"],
    }

