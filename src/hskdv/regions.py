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

Each a-case is stated once, as a table of labelled half-planes (A_a,
A0_a and the C^2 wedges); membership, classify, boundary_segments and
the atlas layers all read it. Boundaries mix strict and non-strict
inequalities, so membership is evaluated in exact rational arithmetic
(fractions.Fraction); decimal strings and ints are converted exactly,
floats through a bounded denominator.
"""

from collections import namedtuple
from fractions import Fraction
from math import lcm

QUARTER = Fraction(1, 4)


def _rat(x):
    """Exact rational from int/Fraction/decimal-string; floats snapped."""
    if isinstance(x, (Fraction, int, str)):
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


# Classification of one (a, k, s) triple.
#   lwp          'DirectA0', 'IBPSOnly', or None
#   illposed     'C2', 'C3', or None
#   gwp          'Yes', 'No', or 'Unknown'
#   open_region  True on points the theory leaves open
#   supported    False exactly for a in {0, 1}
Verdict = namedtuple("Verdict", ("lwp", "illposed", "gwp", "open_region",
                                 "supported"),
                     defaults=(None, None, "Unknown", False, True))


class HalfPlane:
    """ck*k + cs*s + c0 >= 0 (> 0 when strict); label names its line.

    Coefficients are kept as integers, scaled by a positive lcm, so
    side() and contains() do integer work only.
    """

    def __init__(self, ck, cs, c0, strict=False, label=None):
        ck, cs, c0 = Fraction(ck), Fraction(cs), Fraction(c0)
        d = lcm(ck.denominator, cs.denominator, c0.denominator)
        self.ck, self.cs, self.c0 = int(ck * d), int(cs * d), int(c0 * d)
        self.strict = strict
        self.label = label

    def side(self, k, s):
        """The value at rationals (k, s) times their denominators."""
        kd, sd = k.denominator, s.denominator
        return (self.ck * k.numerator * sd + self.cs * s.numerator * kd
                + self.c0 * kd * sd)

    def value(self, k, s):
        return Fraction(self.side(k, s), k.denominator * s.denominator)

    def contains(self, k, s, closed=False):
        v = self.side(k, s)
        return v > 0 if self.strict and not closed else v >= 0


def inside(planes, k, s, closed=False):
    """Point in every half-plane (in their closures when closed)."""
    return all(h.contains(k, s, closed) for h in planes)


def _table(*rows):
    return tuple(HalfPlane(*row) for row in rows)


# The theorem as data, one entry per a-case: the planes of A_a (with
# the label of each boundary line), of A0_a, and the C^2 wedges outside
# the closure of A_a (one empty wedge: the whole exterior). Each row is
# (ck, cs, c0, strict, label); the order is the atlas clip order.
_Q = Fraction
_UPPER = (1, -1, 3, True, "s=k+3")
_LOWER = (-1, 1, 2, True, "s=k-2")
_A0_SIDES = ((-1, 1, _Q(3, 2), True), (1, -1, _Q(5, 2), True))
_A_CASES = {
    "a<1/4": (
        _table((1, 0, _Q(3, 4), True, "k=-3/4"),
               (0, 1, _Q(3, 4), True, "s=-3/4"),
               (_Q(-1, 2), 1, _Q(3, 4), True, "s=k/2-3/4"), _LOWER, _UPPER),
        _table((1, 0, _Q(3, 4), True), (_Q(-1, 2), 1, _Q(3, 8), True),
               *_A0_SIDES),
        (_table((-1, 1, -3, True)),  # s > k+3
         _table((_Q(1, 2), -1, _Q(-3, 4), True), (1, -1, -2, True),
                (0, -1, -1, True)))),  # s < min(k/2-3/4, k-2, -1)
    "a=1/4": (
        _table((1, 0, _Q(-3, 4), False, "k=3/4"),
               (_Q(-1, 2), 1, _Q(-3, 8), False, "s=k/2+3/8"),
               _LOWER, _UPPER),
        _table((1, 0, _Q(-3, 4)), (_Q(-1, 2), 1, _Q(-3, 8)), *_A0_SIDES),
        ((),)),
    "a>1/4": (
        _table((1, 0, 0, False, "k=0"), (_Q(-1, 2), 1, 0, False, "s=k/2"),
               _LOWER, _UPPER),
        _table((1, 0, 0), (_Q(-1, 2), 1, 0), *_A0_SIDES),
        ((),)),
}


def region_planes(a):
    """(A_a planes, A0_a planes, C^2 wedges) of the a-case of a."""
    aq = _rat(a)
    if aq == 0 or aq == 1:
        raise ValueError("a in {0,1} is outside the supported theory")
    if aq < QUARTER:
        return _A_CASES["a<1/4"]
    return _A_CASES["a=1/4" if aq == QUARTER else "a>1/4"]


def _point(p):
    if not isinstance(p, RegularityPoint):
        p = RegularityPoint(*p)
    return p.k, p.s


def in_A(a, p):
    """Membership in the full LWP region A_a (three a-cases)."""
    return inside(region_planes(a)[0], *_point(p))


def in_A0(a, p):
    """Membership in the direct-contraction subregion A0_a."""
    return inside(region_planes(a)[1], *_point(p))


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
    aq = _rat(a)
    if aq == 0 or aq == 1:
        return Verdict(supported=False)
    A, A0, wedges = region_planes(aq)
    k, s = _point(p)
    if inside(A0, k, s):
        return Verdict(lwp="DirectA0")
    if inside(A, k, s):
        return Verdict(lwp="IBPSOnly")
    if inside(A, k, s, closed=True):
        # boundary of A_a without membership: sharpness is open there
        return Verdict(open_region=True)
    if any(inside(w, k, s) for w in wedges):
        return Verdict(illposed="C2")
    if aq == Fraction(-1, 8):
        if _in_gap_region(k, s):
            return Verdict(open_region=True)
        # remaining a=-1/8 exterior points are not covered either way
        return Verdict()
    return Verdict(illposed="C3")


def classify_gwp(coeffs, p):
    """Global well-posedness verdict: 'Yes' or 'Unknown'.

    Yes when either
      * a not in {0, 1, 1/4}, gamma*theta < 0, k, s >= 0 and
        (k, s) in A_a, or
      * the coupling is the original Hirota-Satsuma one, beta = a theta,
        and a = 1/4, k, s >= 1, (k, s) in A_{1/4}, gamma > 0 and
        theta < 0.

    Each branch rests on a conserved pair of spectral.invariants_eval.
    The first uses the mass M = int theta u^2 - 2 gamma v^2, which is
    definite when gamma theta < 0. The a = 1/4 branch rests on M
    together with the energy E_H, which is conserved only when
    beta = a theta; the branch checks that, exactly as Fractions of the
    given floats.
    At a = 1/4 with gamma > 0 > theta, M is definite and the quadratic
    part 1/2 u_x^2 - 4 gamma/theta v_x^2 of E_H is positive, so with
    the Gagliardo-Nirenberg inequality for its cubic terms the pair
    bounds the H^1 x H^1 norm.
    """
    a = _rat(coeffs.a)
    gamma, theta = coeffs.gamma, coeffs.theta
    k, s = _point(p)
    if a not in (0, 1, QUARTER):
        if gamma * theta < 0 and k >= 0 and s >= 0 and in_A(a, (k, s)):
            return "Yes"
    if a == QUARTER:
        energy = Fraction(coeffs.beta) == Fraction(coeffs.a) * Fraction(theta)
        if (energy and k >= 1 and s >= 1 and gamma > 0 and theta < 0
                and in_A(QUARTER, (k, s))):
            return "Yes"
    return "Unknown"


class BoundarySegment(namedtuple("BoundarySegment", (
        "start", "end", "line_label", "start_included", "end_included",
        "interior_included"))):
    """One straight piece of the boundary of A_a.

    Endpoints are (k, s) pairs as Fractions. Inclusion flags record
    whether each endpoint and the open interior of the segment belong
    to A_a (strict vs non-strict inequalities of the definition).
    """

    __slots__ = ()

    def as_dict(self):
        """The fields, with the Fraction endpoints as float lists."""
        return dict(self._asdict(), start=[float(x) for x in self.start],
                    end=[float(x) for x in self.end])


def _corners(planes):
    """Vertices of the closed convex polygon the planes cut out."""
    pts = set()
    for i, g in enumerate(planes):
        for h in planes[i + 1:]:
            det = g.ck * h.cs - h.ck * g.cs
            if det:
                p = (Fraction(g.cs * h.c0 - h.cs * g.c0, det),
                     Fraction(h.ck * g.c0 - g.ck * h.c0, det))
                if inside(planes, *p, closed=True):
                    pts.add(p)
    return pts


def boundary_segments(a, k_max=8):
    """Boundary polyline of A_a clipped to k <= k_max.

    The edges of the closure of A_a cut at k = k_max, the cut left out:
    the left edge, s = k+3, then the lower boundary from left to right,
    each from its smaller to its larger (k, s) endpoint, with A_a
    membership as inclusion flags. Lower-boundary kinks sit at (4,2)
    for a > 1/4, (19/4, 11/4) for a = 1/4, and (0, -3/4), (5/2, 1/2)
    for a < 1/4. A k_max at or left of the left edge is a ValueError.
    """
    km = _rat(k_max)
    planes = region_planes(a)[0]
    corners = _corners(planes + (HalfPlane(-1, 0, km),))
    if not any(k < km for k, _ in corners):
        raise ValueError("k_max=%s leaves no region at a=%s" % (km, a))
    edges = []
    for h in planes:
        on = sorted(p for p in corners if h.side(*p) == 0)
        if len(on) > 1:
            # inside an edge only its own plane is not strictly satisfied
            edges.append((h.cs > 0, on[0], on[-1], h.label, not h.strict))
    return [BoundarySegment(p0, p1, label, inside(planes, *p0),
                            inside(planes, *p1), interior)
            for _, p0, p1, label, interior in sorted(edges)]
