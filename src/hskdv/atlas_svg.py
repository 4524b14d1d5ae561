"""SVG rendering of the regularity-region atlas.

Each figure is a stack of half-plane-clipped polygons in the (k, s)
plane, painted bottom-up:

  red     ill-posed (flow map not C^2)
  orange  ill-posed band where only C^3 failure is known (a < 1/4)
  white   uncovered exterior (only at a = -1/8)
  gray    full LWP region minus its direct-contraction core
  blue    direct-contraction core
  yellow  the diagonal s = k with its supported threshold

Every layer is clipped from half-planes of the regions table, so the
same stack answers point-in-region queries (color_at) in exact
arithmetic, and the tests check it against the classifier.
"""

from collections import namedtuple
from fractions import Fraction

from .regions import (QUARTER, _rat, boundary_segments, inside,
                      region_planes)

COLORS = {
    "blue": "#4878cf",
    "gray": "#b0b0b0",
    "red": "#d65f5f",
    "orange": "#ee854a",
    "yellow": "#e8c944",
    "white": "#ffffff",
}

VIEW_K = (Fraction(-2), Fraction(8))
VIEW_S = (Fraction(-5), Fraction(11))
PX_PER_UNIT = 40
MARGIN = 30


# one painted polygon: a color and the half-planes it is clipped from
Layer = namedtuple("Layer", "color planes")


def _clip(poly, plane):
    """Sutherland-Hodgman clip of a polygon against one half-plane.

    Vertices are (Fraction, Fraction) pairs in ccw order; strictness is
    irrelevant for area geometry.
    """
    out = []
    n = len(poly)
    for i in range(n):
        p, q = poly[i], poly[(i + 1) % n]
        vp = plane.value(*p)
        vq = plane.value(*q)
        if vp >= 0:
            out.append(p)
        if (vp >= 0) != (vq >= 0):
            t = vp / (vp - vq)
            out.append((p[0] + t * (q[0] - p[0]),
                        p[1] + t * (q[1] - p[1])))
    return out


def polygon_of(planes, view_k=VIEW_K, view_s=VIEW_S):
    poly = [(view_k[0], view_s[0]), (view_k[1], view_s[0]),
            (view_k[1], view_s[1]), (view_k[0], view_s[1])]
    for h in planes:
        poly = _clip(poly, h)
        if not poly:
            return []
    return poly


def build_layers(a):
    """Painted polygon stack for one figure, bottom to top."""
    aq = _rat(a)
    A, A0, wedges = region_planes(aq)  # ValueError for a in {0, 1}
    # the C^2 wedges (for a >= 1/4 one wedge: the whole exterior)
    layers = [Layer("red", w) for w in wedges]
    if aq < QUARTER:
        base = "white" if aq == Fraction(-1, 8) else "orange"
        layers.insert(0, Layer(base, []))
    return layers + [Layer("gray", A), Layer("blue", A0)]


def color_at(a, k, s):
    """Topmost layer color at an exact rational point."""
    k, s = _rat(k), _rat(s)
    return next((layer.color for layer in reversed(build_layers(a))
                 if inside(layer.planes, k, s)), None)


def diagonal_threshold(a):
    """Lower end of the supported part of the diagonal s = k.

    On s = k each A_a plane with ck+cs > 0 reads k >= -c0/(ck+cs).
    """
    aq = _rat(a)
    if aq in (0, 1):
        return None
    return max(Fraction(-h.c0, h.ck + h.cs) for h in region_planes(aq)[0]
               if h.ck + h.cs > 0)


def _xy(k, s):
    x = MARGIN + float(k - VIEW_K[0]) * PX_PER_UNIT
    y = MARGIN + float(VIEW_S[1] - s) * PX_PER_UNIT
    return x, y


def render_svg(a, k_max=8, segments=None):
    """Full SVG document for one atlas figure.

    segments: boundary_segments(a, k_max), when the caller has them.
    """
    aq = _rat(a)
    width = 2 * MARGIN + float(VIEW_K[1] - VIEW_K[0]) * PX_PER_UNIT
    height = 2 * MARGIN + float(VIEW_S[1] - VIEW_S[0]) * PX_PER_UNIT
    parts = []
    parts.append('<svg xmlns="http://www.w3.org/2000/svg" width="%d" '
                 'height="%d" viewBox="0 0 %d %d">'
                 % (width, height, width, height))
    parts.append('<rect width="%d" height="%d" fill="#ffffff"/>'
                 % (width, height))
    for layer in build_layers(aq):
        poly = polygon_of(layer.planes)
        if not poly:
            continue
        pts = " ".join("%.4f,%.4f" % _xy(k, s) for k, s in poly)
        parts.append('<polygon class="region-%s" points="%s" fill="%s"/>'
                     % (layer.color, pts, COLORS[layer.color]))
    # diagonal s = k, supported part highlighted
    thr = diagonal_threshold(aq)
    lo = max(thr, VIEW_K[0], VIEW_S[0])
    hi = min(VIEW_K[1], VIEW_S[1])
    x0, y0 = _xy(lo, lo)
    x1, y1 = _xy(hi, hi)
    parts.append('<line class="diagonal" x1="%.4f" y1="%.4f" x2="%.4f" '
                 'y2="%.4f" stroke="%s" stroke-width="3"/>'
                 % (x0, y0, x1, y1, COLORS["yellow"]))
    # boundary polyline with inclusion markers
    segs = (boundary_segments(aq, k_max=k_max) if segments is None
            else segments)
    for seg in segs:
        x0, y0 = _xy(*seg.start)
        x1, y1 = _xy(*seg.end)
        dash = '' if seg.interior_included else ' stroke-dasharray="6,4"'
        parts.append('<line class="boundary" data-label="%s" x1="%.4f" '
                     'y1="%.4f" x2="%.4f" y2="%.4f" stroke="#000000" '
                     'stroke-width="1.5"%s/>'
                     % (seg.line_label, x0, y0, x1, y1, dash))
    for (pt, included) in endpoint_markers(segs, k_max):
        x, y = _xy(*pt)
        fill = "#000000" if included else "#ffffff"
        kind = "closed" if included else "open"
        parts.append('<circle class="marker-%s" cx="%.4f" cy="%.4f" '
                     'r="4" fill="%s" stroke="#000000" '
                     'stroke-width="1.5"/>' % (kind, x, y, fill))
    parts.append('<text x="%d" y="%d" font-size="14">a = %s</text>'
                 % (MARGIN, MARGIN - 10, aq))
    parts.append('<text x="%.0f" y="%.0f" font-size="14">k</text>'
                 % (width - MARGIN + 8, _xy(0, 0)[1] + 4))
    parts.append('<text x="%.0f" y="%.0f" font-size="14">s</text>'
                 % (_xy(0, 0)[0] - 4, MARGIN - 10))
    parts.append('</svg>')
    return "\n".join(parts) + "\n"


def endpoint_markers(segs, k_max):
    """Distinct segment endpoints away from the clip edge.

    A point is marked closed when any incident segment includes it.
    """
    km = _rat(k_max)
    marks = {}
    for seg in segs:
        for pt, inc in ((seg.start, seg.start_included),
                        (seg.end, seg.end_included)):
            if pt[0] == km:
                continue
            marks[pt] = marks.get(pt, False) or inc
    return sorted(marks.items())
