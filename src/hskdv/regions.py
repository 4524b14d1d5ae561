"""Regularity-region atlas for the Hirota-Satsuma system.

Decides where a regularity pair (k, s) sits relative to the sharp
local/global well-posedness and ill-posedness regions of the system,
as a function of the dispersion ratio a:

  A_a   : the full analytic LWP region,
  A0_a  : the subregion reachable by the direct contraction argument
          (the remainder A_a minus A0_a needs the integrated-by-parts
          formulation),
  the C^2 / C^3 ill-posedness regions outside the closure of A_a,
  and the known open gap at a = -1/8.

Boundaries mix strict and non-strict inequalities, so membership is
evaluated in exact rational arithmetic (fractions.Fraction); decimal
strings and ints are converted exactly, floats through a bounded
denominator.
"""

from fractions import Fraction

QUARTER = Fraction(1, 4)


def _rat(x):
    """Exact rational from int/Fraction/decimal-string; floats snapped."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        if x != x or x in (float("inf"), float("-inf")):
            raise ValueError("non-finite regularity index")
        return Fraction(x).limit_denominator(10 ** 12)
    raise TypeError("cannot interpret %r as a rational" % (x,))


class RegularityPoint:
    """A Sobolev pair: u-data in H^k, v-data in H^s."""

    def __init__(self, k, s):
        self.k = _rat(k)
        self.s = _rat(s)

    def __repr__(self):
        return "RegularityPoint(k=%s, s=%s)" % (self.k, self.s)

    def __iter__(self):
        return iter((self.k, self.s))


class Verdict:
    """Classification of one (a, k, s) triple.

    lwp:    'DirectA0', 'IBPSOnly', or None
    illposed: 'C2', 'C3', or None
    gwp:    'Yes', 'No', or 'Unknown'
    open_region: True on points the theory leaves open
    supported: False exactly for a in {0, 1}
    """

    def __init__(self, lwp=None, illposed=None, gwp="Unknown",
                 open_region=False, supported=True):
        self.lwp = lwp
        self.illposed = illposed
        self.gwp = gwp
        self.open_region = open_region
        self.supported = supported

    def as_dict(self):
        return {
            "lwp": self.lwp,
            "illposed": self.illposed,
            "gwp": self.gwp,
            "open_region": self.open_region,
            "supported": self.supported,
        }

    def __repr__(self):
        return ("Verdict(lwp=%r, illposed=%r, gwp=%r, open_region=%r, "
                "supported=%r)" % (self.lwp, self.illposed, self.gwp,
                                   self.open_region, self.supported))


def _check_a(a):
    aq = _rat(a)
    if aq == 0 or aq == 1:
        raise ValueError("a in {0,1} is outside the supported theory")
    return aq


def in_A(a, p):
    """Membership in the full LWP region A_a (three a-cases)."""
    aq = _check_a(a)
    if not isinstance(p, RegularityPoint):
        p = RegularityPoint(*p)
    k, s = p.k, p.s
    if aq < QUARTER:
        lower = max(Fraction(-3, 4), k / 2 - Fraction(3, 4), k - 2)
        return k > Fraction(-3, 4) and lower < s < k + 3
    if aq == QUARTER:
        return (k >= Fraction(3, 4) and s >= k / 2 + Fraction(3, 8)
                and k - 2 < s < k + 3)
    return k >= 0 and s >= k / 2 and k - 2 < s < k + 3


def in_A0(a, p):
    """Membership in the direct-contraction subregion A0_a."""
    aq = _check_a(a)
    if not isinstance(p, RegularityPoint):
        p = RegularityPoint(*p)
    k, s = p.k, p.s
    if aq < QUARTER:
        lower = max(k / 2 - Fraction(3, 8), k - Fraction(3, 2))
        return k > Fraction(-3, 4) and lower < s < k + Fraction(5, 2)
    if aq == QUARTER:
        return (k >= Fraction(3, 4) and s >= k / 2 + Fraction(3, 8)
                and k - Fraction(3, 2) < s < k + Fraction(5, 2))
    return (k >= 0 and s >= k / 2
            and k - Fraction(3, 2) < s < k + Fraction(5, 2))


def _in_closure_A(aq, k, s):
    if aq < QUARTER:
        lower = max(Fraction(-3, 4), k / 2 - Fraction(3, 4), k - 2)
        return k >= Fraction(-3, 4) and lower <= s <= k + 3
    if aq == QUARTER:
        return (k >= Fraction(3, 4) and s >= k / 2 + Fraction(3, 8)
                and k - 2 <= s <= k + 3)
    return k >= 0 and s >= k / 2 and k - 2 <= s <= k + 3


def _in_gap_region(k, s):
    # open region at a = -1/8: {k > -3/4, min(k/2-3/4, -1) < s < -3/4}
    lo = min(k / 2 - Fraction(3, 4), Fraction(-1))
    return k > Fraction(-3, 4) and lo < s < Fraction(-3, 4)


def classify(a, p):
    """Full atlas verdict for one (a, k, s) triple.

    lwp is DirectA0 on A0_a, IBPSOnly on A_a minus A0_a. Outside the
    closure of A_a the flow map fails to be C^2 (a in [1/4,inf) minus
    {1}, and for every a < 1/4 whenever s > k+3 or
    s < min(k/2-3/4, k-2, -1)) or C^3 (remaining exterior, a < 1/4,
    a not in {-1/8, 0}). Boundary points not in A_a, and the a = -1/8
    exterior band where neither result applies, report open_region.
    """
    if not isinstance(p, RegularityPoint):
        p = RegularityPoint(*p)
    aq = _rat(a)
    if aq == 0 or aq == 1:
        return Verdict(supported=False)
    k, s = p.k, p.s
    if in_A0(aq, p):
        return Verdict(lwp="DirectA0")
    if in_A(aq, p):
        return Verdict(lwp="IBPSOnly")
    if _in_closure_A(aq, k, s):
        # boundary of A_a without membership: sharpness is open there
        return Verdict(open_region=True)
    if aq > QUARTER or aq == QUARTER:
        return Verdict(illposed="C2")
    # a < 1/4 exterior
    if s > k + 3 or s < min(k / 2 - Fraction(3, 4), k - 2, Fraction(-1)):
        return Verdict(illposed="C2")
    if aq == Fraction(-1, 8):
        if _in_gap_region(k, s):
            return Verdict(open_region=True)
        # remaining a=-1/8 exterior points are not covered either way
        return Verdict()
    return Verdict(illposed="C3")


def classify_gwp(coeffs, p, original_system=False):
    """Global well-posedness verdict: 'Yes' or 'Unknown'.

    Yes when either
      * a not in {0, 1, 1/4}, gamma*theta < 0, k, s >= 0 and
        (k, s) in A_a, or
      * the original Hirota-Satsuma coupling is used, a = 1/4,
        k, s >= 1, (k, s) in A_{1/4}, gamma > 0 and theta < 0.

    Both branches require real coefficients. Each rests on a
    conserved pair of spectral.invariants_eval. The first uses the mass
    M = int theta u^2 - 2 gamma v^2, which is definite when
    gamma theta < 0. The original_system branch rests on M together
    with the energy E_H, which needs beta = a theta. At a = 1/4 with
    gamma > 0 > theta, M is definite and the quadratic part
    1/2 u_x^2 - 4 gamma/theta v_x^2 of E_H is positive, so with the
    Gagliardo-Nirenberg inequality for its cubic terms the pair bounds
    the H^1 x H^1 norm. original_system=True asserts that coupling; it
    is not checked here.
    """
    if not isinstance(p, RegularityPoint):
        p = RegularityPoint(*p)
    a = _rat(coeffs.a)
    if not coeffs.is_real():
        return "Unknown"
    gamma = coeffs.gamma.real
    theta = coeffs.theta.real
    k, s = p.k, p.s
    if a not in (0, 1, QUARTER):
        if gamma * theta < 0 and k >= 0 and s >= 0 and in_A(a, p):
            return "Yes"
    if original_system and a == QUARTER:
        if (k >= 1 and s >= 1 and gamma > 0 and theta < 0
                and in_A(QUARTER, p)):
            return "Yes"
    return "Unknown"


class BoundarySegment:
    """One straight piece of the boundary of A_a.

    Endpoints are (k, s) pairs as Fractions. Inclusion flags record
    whether each endpoint and the open interior of the segment belong
    to A_a (strict vs non-strict inequalities of the definition).
    """

    def __init__(self, start, end, line_label, start_included,
                 end_included, interior_included):
        self.start = tuple(start)
        self.end = tuple(end)
        self.line_label = line_label
        self.start_included = bool(start_included)
        self.end_included = bool(end_included)
        self.interior_included = bool(interior_included)

    def as_dict(self):
        return {
            "start": [float(self.start[0]), float(self.start[1])],
            "end": [float(self.end[0]), float(self.end[1])],
            "line_label": self.line_label,
            "start_included": self.start_included,
            "end_included": self.end_included,
            "interior_included": self.interior_included,
        }

    def __repr__(self):
        return ("BoundarySegment(%s -> %s, %r, incl=%r/%r/%r)"
                % (self.start, self.end, self.line_label,
                   self.start_included, self.interior_included,
                   self.end_included))


def boundary_segments(a, k_max=8):
    """Boundary polyline of A_a clipped to k <= k_max.

    Lower-boundary kinks sit at (4,2) for a > 1/4, (19/4, 11/4) for
    a = 1/4, and (0, -3/4), (5/2, 1/2) for a < 1/4.
    """
    aq = _check_a(a)
    km = _rat(k_max)
    segs = []

    def seg(p0, p1, label, s0, s1, si):
        segs.append(BoundarySegment((_rat(p0[0]), _rat(p0[1])),
                                    (_rat(p1[0]), _rat(p1[1])),
                                    label, s0, s1, si))

    if aq > QUARTER:
        # left edge k=0, corner (0,0) closed, (0,3) open
        seg((0, 0), (0, 3), "k=0", True, False, True)
        seg((0, 3), (km, km + 3), "s=k+3", False, False, False)
        seg((0, 0), (4, 2), "s=k/2", True, False, True)
        seg((4, 2), (km, km - 2), "s=k-2", False, False, False)
    elif aq == QUARTER:
        q34 = Fraction(3, 4)
        seg((q34, q34), (q34, q34 + 3), "k=3/4", True, False, True)
        seg((q34, q34 + 3), (km, km + 3), "s=k+3", False, False, False)
        seg((q34, q34), (Fraction(19, 4), Fraction(11, 4)),
            "s=k/2+3/8", True, False, True)
        seg((Fraction(19, 4), Fraction(11, 4)), (km, km - 2),
            "s=k-2", False, False, False)
    else:
        q = Fraction(-3, 4)
        # fully open region: every boundary point is excluded
        seg((q, q), (q, q + 3), "k=-3/4", False, False, False)
        seg((q, q + 3), (km, km + 3), "s=k+3", False, False, False)
        seg((q, q), (0, q), "s=-3/4", False, False, False)
        seg((0, q), (Fraction(5, 2), Fraction(1, 2)),
            "s=k/2-3/4", False, False, False)
        seg((Fraction(5, 2), Fraction(1, 2)), (km, km - 2),
            "s=k-2", False, False, False)
    return segs
