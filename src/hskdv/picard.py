"""Frequency-space evaluation of second and third Picard iterates.

The ill-posedness constructions evaluate the iterates of the Duhamel
formulation on explicit frequency-box initial data. In frequency space
a second iterate is a single convolution integral against the kernel

    K(phi, t) = (exp(i t phi) - 1) / (i phi)

with phi the relevant total phase, and the third iterate carries a
nested version of the kernel. Data live on the continuum (box widths
go down to N^-2), so everything here uses per-box Gauss-Legendre
quadrature, never a periodic grid. Both iterates share one core,
_box_pairs: for an array of output frequencies it yields, per box
pair, the nodes of the convolution set, mapped affinely from one
Gauss-Legendre rule. The default 64-node rule GL_RULE is built once at
import (fre integrates with it too); any other node count costs one
leggauss call per iterate call. The third iterate runs its outer xi2
nodes in blocks of array code, with the box-pair core applied to the
(node, sample) grid of xi1 = xi - xi2.
"""

import numpy as np

from .phases import PhaseFloorError, eval_phase

GL_NODES_DEFAULT = 64
N_OUT = 256               # output samples of every iterate
_BLOCK_POINTS = 1 << 16   # (xi2 node, sample, xi11 node) points per block

# below this |t*phi| the kernel switches to its 4-term power series
SERIES_SWITCH = 1e-4


def _leggauss(n):
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


GL_RULE = _leggauss(GL_NODES_DEFAULT)


def _rule(gl_nodes):
    """Gauss-Legendre nodes and weights on [-1, 1]."""
    return GL_RULE if gl_nodes == GL_NODES_DEFAULT else _leggauss(gl_nodes)


class FrequencyBox:
    """One frequency window [lo, hi] with amplitude <xi>^(-rho).

    weight_exponent rho = 0 means a plain indicator.
    """

    def __init__(self, lo, hi, weight_exponent=0.0):
        if not lo < hi:
            raise ValueError("box needs lo < hi")
        self.lo = float(lo)
        self.hi = float(hi)
        self.weight_exponent = float(weight_exponent)

    def amplitude(self, xi):
        xi = np.asarray(xi, dtype=float)
        if self.weight_exponent == 0.0:
            return np.ones_like(xi)
        return (1.0 + xi ** 2) ** (-self.weight_exponent / 2.0)

    def __repr__(self):
        return ("FrequencyBox(%g, %g, rho=%g)"
                % (self.lo, self.hi, self.weight_exponent))


class BoxData:
    """Initial datum given by disjoint frequency boxes."""

    def __init__(self, boxes):
        boxes = list(boxes)
        ivs = sorted((b.lo, b.hi) for b in boxes)
        for (l0, h0), (l1, h1) in zip(ivs, ivs[1:]):
            if l1 < h0:
                raise ValueError("boxes must be pairwise disjoint")
        self.boxes = boxes

    def is_empty(self):
        return len(self.boxes) == 0


class PicardOutput:
    def __init__(self, xi_samples, values, t):
        xi_samples = np.asarray(xi_samples, dtype=float)
        values = np.asarray(values, dtype=complex)
        if xi_samples.shape != values.shape:
            raise ValueError("sample/value arrays differ in length")
        self.xi_samples = xi_samples
        self.values = values
        self.t = float(t)

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("xi,re,im\n")
            for x, v in zip(self.xi_samples, self.values):
                fh.write("%.17g,%.17g,%.17g\n" % (x, v.real, v.imag))


def duhamel_kernel(phi, t):
    """(exp(i t phi) - 1)/(i phi) with a series near the removable zero.

    For |t*phi| < 1e-4: t*(1 + i(t phi)/2 - (t phi)^2/6 - i(t phi)^3/24).
    Accepts scalars or arrays.
    """
    phi = np.asarray(phi, dtype=float)
    # each entry gets one of the two forms, written into one output
    small = np.abs(t * phi) < SERIES_SWITCH
    big = ~small
    out = np.empty(phi.shape, dtype=complex)
    xs = t * phi[small]
    out[small] = t * (1.0 + 1j * xs / 2.0 - xs ** 2 / 6.0
                      - 1j * xs ** 3 / 24.0)
    direct = np.exp(1j * t * phi[big])
    direct -= 1.0
    direct /= 1j * phi[big]
    out[big] = direct
    if out.ndim == 0:
        return complex(out)
    return out


def _map_rule(rule, lo, hi):
    """The [-1, 1] rule mapped affinely onto [lo, hi], per entry of lo, hi."""
    x, w = rule
    lo = np.asarray(lo)[..., None]
    hi = np.asarray(hi)[..., None]
    half = 0.5 * (hi - lo)
    return 0.5 * (lo + hi) + half * x, half * w


def _box_pairs(xi, boxes1, boxes2, rule):
    """Quadrature of {xi1 in b1, xi - xi1 in b2} over every box pair.

    xi is an array of output frequencies. For each pair (b1, b2) with a
    nonempty set at some xi, yields (idx, xr, x1, x2, w, amp): the index
    arrays of those xi in row-major order, the column xi[idx], the
    (rows x nodes) nodes x1 and x2 = xr - x1, the weights and the
    amplitude product.
    """
    for b1 in boxes1:
        for b2 in boxes2:
            lo = np.maximum(b1.lo, xi - b2.hi)
            hi = np.minimum(b1.hi, xi - b2.lo)
            idx = np.nonzero(lo < hi)
            if idx[0].size == 0:
                continue
            x1, w = _map_rule(rule, lo[idx], hi[idx])
            xr = xi[idx][:, None]
            x2 = xr - x1
            yield idx, xr, x1, x2, w, b1.amplitude(x1) * b2.amplitude(x2)


def _second_iterate(data1, data2, a, t, out_window, phase_tag, symbol,
                    carrier_a, gl_nodes=GL_NODES_DEFAULT):
    """Shared core: Ihat(xi) = i e^{i c t xi^3} *
    int symbol(xi, xi1, xi2) K(phase, t) f1(xi1) f2(xi2) dxi1."""
    xi_s = np.linspace(out_window[0], out_window[1], N_OUT)
    acc = np.zeros(N_OUT, dtype=complex)
    if t == 0 or data1.is_empty() or data2.is_empty():
        return PicardOutput(xi_s, acc, t)
    for rows, xr, x1, x2, w, amp in _box_pairs(
            xi_s, data1.boxes, data2.boxes, _rule(gl_nodes)):
        ker = duhamel_kernel(eval_phase(phase_tag, a, (x1, x2)), t)
        acc[rows] += np.sum(w * symbol(xr, x1, x2) * ker * amp, axis=1)
    values = 1j * np.exp(1j * carrier_a * t * xi_s ** 3) * acc
    return PicardOutput(xi_s, values, t)


def second_iterate_v(u0, v0, a, t, out_window, gl_nodes=GL_NODES_DEFAULT):
    """Second iterate of the v equation on (u0, v0) box data.

    Ihat(xi) = i e^{i t xi^3} int xi2 K(Phiv, t) u0hat(xi1) v0hat(xi2) dxi1.
    """
    if a == 0:
        raise ValueError("a must be nonzero")
    return _second_iterate(u0, v0, a, t, out_window, "Phiv",
                           lambda xi, x1, x2: x2, 1.0, gl_nodes=gl_nodes)


def second_iterate_u(v0, a, t, out_window, gl_nodes=GL_NODES_DEFAULT):
    """Second iterate of the u equation on v0 box data.

    Ihat(xi) = i e^{i a t xi^3} int xi K(Phi1u, t) v0hat(xi1) v0hat(xi2) dxi1.
    """
    if a == 0:
        raise ValueError("a must be nonzero")
    return _second_iterate(v0, v0, a, t, out_window, "Phi1u",
                           lambda xi, x1, x2: xi, a, gl_nodes=gl_nodes)


def third_iterate_v(v0, a, t, out_window, gl_nodes=GL_NODES_DEFAULT,
                    min_phase=1e-8, return_parts=False):
    """Third iterate of v on v0 box data (v -> u -> v cascade).

    With xi2 = xi - xi1 and xi1 = xi11 + xi12,

      Ihat(xi) = -e^{i t xi^3} * int int xi1 xi2
                 G(Phi1u1, Phiv, Theta, t)
                 v0hat(xi11) v0hat(xi12) v0hat(xi2) dxi11 dxi1,

    where Phi1u1 = -a xi1^3 + xi11^3 + xi12^3 is the phase of the inner
    u iterate, Phiv = -xi^3 + a xi1^3 + xi2^3, Theta = Phiv + Phi1u1 and

      G = (K(Theta, t) - K(Phiv, t)) / (i Phi1u1).

    The first part of G scales like |t|/|Phi1u1| on the ladder data,
    the second like 1/(|Phi1u1||Phiv|); both phases must stay away from
    zero on the support (checked, PhaseFloorError otherwise).

    The outer xi2 integral runs over each box and its nodes, in blocks
    of nodes; for a block the inner xi1 -> (xi11, xi12) integral is the
    box-pair core of the second iterate, applied to the (node, sample)
    grid xi1 = xi - xi2. The accumulators take each (node, box pair,
    sample) term in the order of a loop over nodes, then box pairs,
    then samples, and a PhaseFloorError names the first point of that
    loop whose check fails (the inner check before the outer one).
    """
    if a == 0:
        raise ValueError("a must be nonzero")
    xi_s = np.linspace(out_window[0], out_window[1], N_OUT)
    acc1 = np.zeros(N_OUT, dtype=complex)
    acc2 = np.zeros(N_OUT, dtype=complex)
    if t != 0 and not v0.is_empty():
        boxes = v0.boxes
        rule = _rule(gl_nodes)
        mapped = [_map_rule(rule, b.lo, b.hi) for b in boxes]
        xi2s = np.concatenate([x for x, _ in mapped])[:, None]
        w2s = np.concatenate([w for _, w in mapped])[:, None]
        # each box's amplitude at one scalar node at a time, as in the
        # per-node loop (scalar powers round differently from arrays)
        amp2s = np.array([b.amplitude(x) for b, (xs, _) in zip(boxes, mapped)
                          for x in xs])[:, None]
        block = max(1, _BLOCK_POINTS // (N_OUT * len(rule[0])))
        for q in range(0, len(xi2s), block):
            xi2, w2, amp2 = (v[q:q + block] for v in (xi2s, w2s, amp2s))
            xi1 = xi_s - xi2
            phi_v = eval_phase("Phiv", a, (xi1, xi2))
            ker_v = duhamel_kernel(phi_v, t)
            hits, terms = [], []
            for pair, (idx, y1, x11, x12, w11, amp) in enumerate(_box_pairs(
                    xi1, boxes, boxes, rule)):
                node, row = idx
                phi_u1 = eval_phase("Phi1u", a, (x11, x12))
                inner = np.abs(phi_u1) < min_phase
                outer = np.abs(phi_v[idx]) < min_phase
                if np.any(outer) or np.any(inner):
                    hits.append(_floor_hit(xi_s, pair, node, row, y1, x11,
                                           inner, outer))
                if hits:
                    continue
                den = 1j * phi_u1
                g1 = duhamel_kernel(phi_v[idx][:, None] + phi_u1, t) / den
                g2 = -ker_v[idx][:, None] / den
                common = w2[node] * y1 * xi2[node] * (amp * amp2[node])
                terms.append((node, row, np.sum(w11 * common * g1, axis=1),
                              np.sum(w11 * common * g2, axis=1)))
            if hits:
                raise PhaseFloorError(min(hits)[2])
            if terms:
                n, r, s1, s2 = (np.concatenate(c) for c in zip(*terms))
                order = np.argsort(n, kind="stable")  # node, pair, sample
                np.add.at(acc1, r[order], s1[order])
                np.add.at(acc2, r[order], s2[order])
    carrier = -np.exp(1j * t * xi_s ** 3)
    part1 = PicardOutput(xi_s, carrier * acc1, t)
    part2 = PicardOutput(xi_s, carrier * acc2, t)
    out = PicardOutput(xi_s, part1.values + part2.values, t)
    return (out, part1, part2) if return_parts else out


def _floor_hit(xi_s, pair, node, row, y1, x11, inner, outer):
    """(node, pair, message) of one box pair's first failing node."""
    first = node == node[np.argmax(inner.any(axis=1) | outer)]
    if np.any(inner[first]):
        j, k = np.argwhere(inner & first[:, None])[0]
        return (node[j], pair, "inner phase below floor at (xi, xi1, xi11)"
                "=(%g, %g, %g)" % (xi_s[row[j]], y1[j, 0], x11[j, k]))
    j = np.argmax(outer & first)
    return (node[j], pair, "outer phase below floor at (xi, xi1)=(%g, %g)"
            % (xi_s[row[j]], y1[j, 0]))


def hs_norm_window(out, s, window):
    """H^s norm of a PicardOutput restricted to a window.

    Trapezoid quadrature of <xi>^{2s} |Ihat|^2 over the window samples.
    """
    lo, hi = float(window[0]), float(window[1])
    xs = out.xi_samples
    if lo < xs[0] - 1e-12 or hi > xs[-1] + 1e-12:
        raise ValueError("norm window outside the sampled range")
    sel = (xs >= lo) & (xs <= hi)
    x = xs[sel]
    if x.size < 2:
        raise ValueError("norm window contains fewer than 2 samples")
    integrand = (1.0 + x ** 2) ** s * np.abs(out.values[sel]) ** 2
    return float(np.sqrt(np.trapezoid(integrand, x)))
