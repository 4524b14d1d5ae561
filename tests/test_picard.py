import hashlib
import math

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from hskdv.phases import eval_phase
from hskdv.picard import (BoxData, FrequencyBox, PhaseFloorError,
                          duhamel_kernel, hs_norm_window, second_iterate_u,
                          second_iterate_v, third_iterate_v)


def test_kernel_zero_phase():
    t = 0.3
    assert duhamel_kernel(0.0, t) == pytest.approx(t)


def test_kernel_closed_form():
    t, phi = 0.2, 7.0
    expect = (np.exp(1j * t * phi) - 1.0) / (1j * phi)
    assert duhamel_kernel(phi, t) == pytest.approx(expect, rel=1e-14)


def test_kernel_series_continuity():
    # just inside the switch the series must match the exact formula
    t = 1.0
    for phi in (0.99e-4, -0.99e-4, 1e-6):
        got = duhamel_kernel(phi, t)
        # reference: 6-term series, exact to ~1e-24 at these arguments
        x = t * phi
        ref = t * sum((1j * x) ** n / math.factorial(n + 1)
                      for n in range(6))
        assert abs(got - ref) < 1e-15


def test_kernel_array_matches_scalar():
    t = 0.05
    phis = np.array([-3.0, -1e-5, 0.0, 1e-5, 2.0])
    arr = duhamel_kernel(phis, t)
    for p, v in zip(phis, arr):
        assert duhamel_kernel(float(p), t) == pytest.approx(v)


def test_box_validation():
    with pytest.raises(ValueError):
        FrequencyBox(2.0, 2.0)
    with pytest.raises(ValueError):
        BoxData([FrequencyBox(0, 2), FrequencyBox(1, 3)])


def test_second_iterate_v_against_adaptive_quadrature():
    rng = np.random.default_rng(17)
    for _ in range(20):
        a = rng.uniform(0.3, 3.0)
        lo1 = rng.uniform(1.0, 4.0)
        lo2 = rng.uniform(6.0, 9.0)
        w1 = rng.uniform(0.3, 1.0)
        w2 = rng.uniform(0.3, 1.0)
        rho = rng.uniform(-1.0, 1.0)
        t = rng.uniform(0.005, 0.05)
        u0 = BoxData([FrequencyBox(lo1, lo1 + w1, rho)])
        v0 = BoxData([FrequencyBox(lo2, lo2 + w2)])
        xi = lo1 + lo2 + 0.5 * (w1 + w2)  # interior of the sumset
        out = second_iterate_v(u0, v0, a, t, (xi, xi + 1.0), gl_nodes=48)
        got = out.values[0]

        box1 = u0.boxes[0]

        def integrand(x1, part):
            x2 = xi - x1
            phi = eval_phase("Phiv", a, (x1, x2))
            val = x2 * duhamel_kernel(float(phi), t) * box1.amplitude(x1)
            return val.real if part == "re" else val.imag

        # integrate over the exact support: x1 in box1 and xi-x1 in box2
        ilo = max(lo1, xi - (lo2 + w2))
        ihi = min(lo1 + w1, xi - lo2)
        re, _ = quad(integrand, ilo, ihi, args=("re",), limit=200)
        im, _ = quad(integrand, ilo, ihi, args=("im",), limit=200)
        expect = 1j * np.exp(1j * t * xi ** 3) * (re + 1j * im)
        assert abs(got - expect) <= 1e-6 * max(abs(expect), 1e-12)


def test_second_iterate_u_against_adaptive_quadrature():
    a, t = 2.0, 0.01
    v0 = BoxData([FrequencyBox(3.0, 4.0)])
    xi = 6.8
    out = second_iterate_u(v0, a, t, (xi, xi + 0.5), gl_nodes=48)

    def integrand(x1, part):
        x2 = xi - x1
        if not 3.0 <= x2 <= 4.0:
            return 0.0
        val = xi * duhamel_kernel(float(eval_phase("Phi1u", a, (x1, x2))), t)
        return val.real if part == "re" else val.imag

    re, _ = quad(integrand, 3.0, 4.0, args=("re",), limit=200)
    im, _ = quad(integrand, 3.0, 4.0, args=("im",), limit=200)
    expect = 1j * np.exp(1j * a * t * xi ** 3) * (re + 1j * im)
    assert abs(out.values[0] - expect) <= 1e-8 * abs(expect)


def test_support_confined_to_sumset():
    a, t = 0.5, 0.02
    u0 = BoxData([FrequencyBox(1.0, 2.0)])
    v0 = BoxData([FrequencyBox(10.0, 11.0)])
    # sumset is [11, 13]; sample outside it
    out = second_iterate_v(u0, v0, a, t, (14.0, 20.0))
    assert np.all(out.values == 0.0)
    out = second_iterate_v(u0, v0, a, t, (0.0, 10.9))
    assert np.all(out.values == 0.0)


def test_second_iterate_bilinear_in_first_slot():
    a, t = -1.0, 0.01
    win = (10.5, 13.5)
    whole = BoxData([FrequencyBox(1.0, 3.0)])
    split = BoxData([FrequencyBox(1.0, 2.0), FrequencyBox(2.0, 3.0)])
    v0 = BoxData([FrequencyBox(9.0, 11.0)])
    o1 = second_iterate_v(whole, v0, a, t, win, gl_nodes=96)
    o2 = second_iterate_v(split, v0, a, t, win, gl_nodes=96)
    scale = np.max(np.abs(o1.values))
    assert np.max(np.abs(o1.values - o2.values)) < 1e-9 * scale


def test_zero_time_and_empty_data():
    u0 = BoxData([FrequencyBox(1.0, 2.0)])
    v0 = BoxData([])
    assert v0.is_empty()
    out = second_iterate_v(u0, BoxData([FrequencyBox(3, 4)]), 0.5, 0.0,
                           (4.0, 6.0))
    assert np.all(out.values == 0.0)
    out = second_iterate_v(u0, v0, 0.5, 0.1, (4.0, 6.0))
    assert np.all(out.values == 0.0)


def test_third_iterate_parts_sum():
    a, t = 2.0, 0.005
    v0 = BoxData([FrequencyBox(8.0, 9.0)])
    win = (24.0, 26.0)
    total, p1, p2 = third_iterate_v(v0, a, t, win, gl_nodes=12,
                                    return_parts=True)
    assert np.max(np.abs(total.values - (p1.values + p2.values))) < 1e-14
    assert np.max(np.abs(total.values)) > 0.0


def test_third_iterate_against_adaptive_quadrature():
    # the G-kernel double integral by scipy's dblquad, with the phases
    # and the kernel written out here rather than taken from hskdv
    a, t, xi = 2.0, 0.005, 25.0
    v0 = BoxData([FrequencyBox(8.0, 9.0)])
    got = third_iterate_v(v0, a, t, (xi, 26.0), gl_nodes=24).values[0]

    def kern(phi):
        return (np.exp(1j * t * phi) - 1.0) / (1j * phi)

    def integrand(x11, x1, part):
        x12, x2 = x1 - x11, xi - x1
        phi_u1 = -a * x1 ** 3 + x11 ** 3 + x12 ** 3
        phi_v = -xi ** 3 + a * x1 ** 3 + x2 ** 3
        g = (kern(phi_v + phi_u1) - kern(phi_v)) / (1j * phi_u1)
        val = x1 * x2 * g
        return val.real if part == "re" else val.imag

    # xi2 = xi - xi1 in [8, 9] and xi11, xi1 - xi11 in [8, 9]
    re, _ = dblquad(integrand, xi - 9.0, xi - 8.0, 8.0,
                    lambda x1: x1 - 8.0, args=("re",),
                    epsabs=0.0, epsrel=1e-12)
    im, _ = dblquad(integrand, xi - 9.0, xi - 8.0, 8.0,
                    lambda x1: x1 - 8.0, args=("im",),
                    epsabs=0.0, epsrel=1e-12)
    expect = -np.exp(1j * t * xi ** 3) * (re + 1j * im)
    assert abs(got - expect) <= 1e-10 * abs(expect)


def test_third_iterate_phase_floor():
    a = 2.0
    v0 = BoxData([FrequencyBox(8.0, 9.0)])
    # an absurdly high floor makes any evaluated inner phase fail
    with pytest.raises(PhaseFloorError):
        third_iterate_v(v0, a, 0.005, (24.0, 26.0), gl_nodes=8,
                        min_phase=1e9)
    # |Phiv| reaches ~5.1e3 on this support while |Phi1u| stays above
    # ~7.2e3, so a floor in between trips the outer check alone
    with pytest.raises(PhaseFloorError,
                       match=r"outer .*\(xi, xi1\)=\(24.0235, 16.0037\)"):
        third_iterate_v(v0, a, 0.005, (24.0, 26.0), gl_nodes=8,
                        min_phase=6000.0)


def test_third_iterate_floor_error_names_the_first_point_in_loop_order():
    # the outer xi2 nodes run box by box, and at each node the box pairs
    # (xi11, xi12) in order, inner check before outer. Here the first hit
    # is an outer-only one at the 4th node (pair (2:3, 2:3)); at the 5th
    # node pair (-9:-8, 2:3), earlier in pair order, trips the inner check
    v0 = BoxData([FrequencyBox(-9.0, -8.0), FrequencyBox(2.0, 3.0)])
    with pytest.raises(PhaseFloorError) as err:
        third_iterate_v(v0, 2.0, 0.005, (-5.0, -1.0), gl_nodes=4,
                        min_phase=100.0)
    assert str(err.value) == ("outer phase below floor at (xi, xi1)="
                              "(-2.1451, 5.92433)")


def _digest(outputs):
    h = hashlib.sha256()
    for out in outputs:
        h.update(np.ascontiguousarray(out.xi_samples).tobytes())
        h.update(np.ascontiguousarray(out.values).tobytes())
    return h.hexdigest()[:32]


_N, _W = 64.0, 64.0 ** -0.5
# the picard_third_v items of the certify workload (the L68 datum at
# N = 64, gl_nodes = 6), and two boxes, one weighted, at gl_nodes = 8
THIRD_PINS = [
    (-1.0, "5ab165ee186f6dcdb1e6d79fba47a5bf"),
    (-0.5, "f1941e56de7812fe6dda2dc54f6a9ff8"),
    (-2.0, "f22ee4fbfe98aa467858448a4de7eb05"),
    (-0.25, "7268202b1ce4edaefefc8f542d178ace"),
]


@pytest.mark.parametrize("a, digest", THIRD_PINS)
def test_third_iterate_vetted_parts_pinned(a, digest):
    v0 = BoxData([FrequencyBox(_N, _N + _W),
                  FrequencyBox(-_N + 1.25 * _W, -_N + 1.5 * _W)])
    parts = third_iterate_v(v0, a, 0.01, (_N + 2.0 * _W, _N + 2.25 * _W),
                            gl_nodes=6, return_parts=True)
    assert _digest(parts) == digest


def test_third_iterate_two_box_parts_pinned():
    v0 = BoxData([FrequencyBox(8.0, 9.0, 0.75), FrequencyBox(-3.5, -2.0)])
    parts = third_iterate_v(v0, 2.0, 0.005, (10.0, 16.0), gl_nodes=8,
                            return_parts=True)
    assert np.count_nonzero(parts[0].values) == 147
    assert _digest(parts) == "2a85d2506036a0da48f8a54ccc8a6096"


def test_hs_norm_window_checks():
    out = second_iterate_v(BoxData([FrequencyBox(1, 2)]),
                           BoxData([FrequencyBox(3, 4)]), 0.5, 0.01,
                           (4.0, 6.0))
    n = hs_norm_window(out, 0.0, (4.5, 5.5))
    assert n >= 0.0
    with pytest.raises(ValueError):
        hs_norm_window(out, 0.0, (3.0, 5.0))
    with pytest.raises(ValueError):
        hs_norm_window(out, 0.0, (5.0, 5.001))
