from fractions import Fraction
import math
import random

import pytest

from hskdv.phases import Coefficients
from hskdv.regions import (RegularityPoint, boundary_segments, classify,
                           classify_gwp, in_A, in_A0)

F = Fraction


def test_point_conversion_exact():
    p = RegularityPoint("3/4", "-0.75")
    assert p.k == F(3, 4)
    assert p.s == F(-3, 4)


def test_unsupported_ratios():
    for a in (0, 1):
        v = classify(a, (0, 0))
        assert v.supported is False
        assert v.lwp is None and v.illposed is None
        with pytest.raises(ValueError):
            in_A(a, (0, 0))


def test_in_A_three_cases():
    # a > 1/4: k >= 0, s >= k/2, k-2 < s < k+3
    assert in_A(2, (0, 0))
    assert in_A(2, (2, 1))
    assert not in_A(2, (4, 2))          # kink s = k/2 meets s = k-2
    assert not in_A(2, (4, F(19, 10)))   # below s = k/2
    assert not in_A(2, (0, 3))           # s = k+3 excluded
    assert not in_A(2, (F(-1, 100), 1))
    assert not in_A(2, (6, 4))           # s = k-2 is excluded
    assert in_A(2, (6, F(33, 8)))

    # a = 1/4: k >= 3/4, s >= k/2 + 3/8
    assert in_A(F(1, 4), (F(3, 4), F(3, 4)))
    assert not in_A(F(1, 4), (F(3, 4), F(3, 4) - F(1, 1000)))
    assert not in_A(F(1, 4), (F(7, 10), 2))
    assert in_A(F(1, 4), (F(19, 4), F(11, 4) + F(1, 100)))
    assert not in_A(F(1, 4), (F(19, 4), F(11, 4)))  # s = k-2 corner

    # a < 1/4: k > -3/4, max(-3/4, k/2-3/4, k-2) < s < k+3
    assert in_A(-1, (0, 0))
    assert not in_A(-1, (F(-3, 4), 0))     # k = -3/4 excluded
    assert not in_A(-1, (0, F(-3, 4)))     # s = -3/4 excluded
    assert in_A(-1, (0, F(-3, 4) + F(1, 1000)))
    assert not in_A(-1, (2, F(1, 4)))      # s = k/2 - 3/4 excluded
    assert in_A(-1, (2, F(1, 4) + F(1, 1000)))
    assert not in_A(-1, (4, 2))            # s = k-2 excluded for k > 5/2


def test_A0_subset_of_A_random():
    rng = random.Random(20)
    for _ in range(1000):
        a = F(rng.randint(-40, 40), rng.choice((8, 10, 16)))
        if a in (0, 1):
            continue
        k = F(rng.randint(-40, 80), 8)
        s = F(rng.randint(-48, 110), 8)
        if in_A0(a, (k, s)):
            assert in_A(a, (k, s))


def test_classify_mutual_exclusion_random():
    rng = random.Random(21)
    for _ in range(1000):
        a = F(rng.randint(-40, 40), rng.choice((8, 10, 16)))
        k = F(rng.randint(-40, 80), 8)
        s = F(rng.randint(-48, 110), 8)
        v = classify(a, (k, s))
        flags = sum(bool(f) for f in (v.lwp is not None,
                                      v.illposed is not None,
                                      v.open_region, not v.supported))
        assert flags <= 1, (a, k, s, v)
        if a != F(-1, 8):
            # every point gets exactly one verdict except the a=-1/8
            # uncovered exterior
            assert flags == 1, (a, k, s, v)


def test_classify_lwp_labels():
    assert classify(2, (1, 1)).lwp == "DirectA0"
    # in A but not A0: a > 1/4 strip k-2 < s <= k-3/2
    v = classify(2, (6, F(17, 4)))
    assert v.lwp == "IBPSOnly"
    assert classify(2, (6, F(9, 2))).lwp == "IBPSOnly"  # s = k-3/2 boundary
    assert classify(2, (6, F(19, 4))).lwp == "DirectA0"


def test_classify_illposed_cases():
    # a >= 1/4 exterior is C2
    assert classify(2, (-1, 0)).illposed == "C2"
    assert classify(F(1, 4), (0, 0)).illposed == "C2"
    # a < 1/4: C2 above s = k+3 and below the lower envelope
    assert classify(-1, (0, 4)).illposed == "C2"
    assert classify(-1, (0, -3)).illposed == "C2"
    assert classify(-1, (0, -2)).illposed == "C3"  # s = k-2 not below it
    # orange band: exterior but neither wedge
    assert classify(-1, (-1, 0)).illposed == "C3"
    assert classify(-1, (2, F(-1, 2))).illposed == "C3"


def test_classify_boundary_is_open():
    v = classify(2, (0, 3))
    assert v.open_region and v.illposed is None and v.lwp is None
    v = classify(-1, (0, F(-3, 4)))
    assert v.open_region


def test_minus_eighth_gap():
    a = F(-1, 8)
    # inside the gap band: k > -3/4, min(k/2-3/4, -1) < s < -3/4
    v = classify(a, (0, F(-7, 8)))
    assert v.open_region and v.illposed is None
    # below the gap: C2 wedge still applies
    assert classify(a, (0, -3)).illposed == "C2"
    # uncovered exterior point: no verdict at all
    v = classify(a, (-1, 0))
    assert v.illposed is None and v.lwp is None and not v.open_region


def test_table_diagonal_thresholds():
    # LWP along s = k: a < 1/4 iff s > -3/4; a > 1/4 iff s >= 0;
    # a = 1/4 iff s >= 3/4; a in {0,1} unsupported.
    for s in (F(-3, 4) + F(1, 100), 0, 2):
        assert in_A(-1, (s, s))
    assert not in_A(-1, (F(-3, 4), F(-3, 4)))
    for s in (0, F(1, 2), 3):
        assert in_A(2, (s, s))
    assert not in_A(2, (F(-1, 100), F(-1, 100)))
    assert in_A(F(1, 4), (F(3, 4), F(3, 4)))
    assert not in_A(F(1, 4), (F(74, 100), F(74, 100)))
    assert classify(0, (1, 1)).supported is False
    assert classify(1, (1, 1)).supported is False


def test_gwp_yes_branch():
    c = Coefficients(0.5, gamma=1.0, theta=-1.0)
    assert classify_gwp(c, (1, 1)) == "Yes"
    assert classify_gwp(Coefficients(0.5), (1, 1)) == "Unknown"
    # negative indices never qualify
    c2 = Coefficients(-1.0, gamma=1.0, theta=-1.0)
    assert classify_gwp(c2, (F(-1, 2), F(-1, 2))) == "Unknown"
    assert classify_gwp(c2, (0, 0)) == "Yes"


def test_gwp_quarter_branch():
    # the original coupling beta = a theta, which conserves E_H
    c = Coefficients(0.25, beta=-0.25, gamma=1.0, theta=-1.0)
    assert classify_gwp(c, (1, 1)) == "Yes"
    assert in_A(F(1, 4), (F(7, 8), 1))
    assert classify_gwp(c, (F(7, 8), 1)) == "Unknown"  # k < 1
    bad = Coefficients(0.25, beta=-0.25, gamma=-1.0, theta=-1.0)
    assert classify_gwp(bad, (1, 1)) == "Unknown"
    # beta != a theta: E_H is not conserved, so there is no H^1 bound
    for beta in (1.0, math.nextafter(-0.25, 0.0)):
        off = Coefficients(0.25, beta=beta, gamma=1.0, theta=-1.0)
        assert classify_gwp(off, (1, 1)) == "Unknown"


def test_boundary_segments_markers():
    segs = boundary_segments(F(1, 2))
    labels = {s.line_label for s in segs}
    assert labels == {"k=0", "s=k+3", "s=k/2", "s=k-2"}
    by_pt = {}
    for s in segs:
        by_pt[s.start] = by_pt.get(s.start, False) or s.start_included
        by_pt[s.end] = by_pt.get(s.end, False) or s.end_included
    assert by_pt[(F(0), F(0))] is True
    assert by_pt[(F(0), F(3))] is False
    assert by_pt[(F(4), F(2))] is False

    segs = boundary_segments(F(1, 4))
    pts = {s.start for s in segs} | {s.end for s in segs}
    assert (F(3, 4), F(3, 4)) in pts
    assert (F(19, 4), F(11, 4)) in pts

    segs = boundary_segments(-1)
    assert all(not s.interior_included and not s.start_included
               and not s.end_included for s in segs)
    pts = {s.start for s in segs} | {s.end for s in segs}
    assert (F(-3, 4), F(-3, 4)) in pts
    assert (F(0), F(-3, 4)) in pts
    assert (F(5, 2), F(1, 2)) in pts


def test_boundary_segments_consistent_with_membership():
    # interior midpoint of each segment agrees with the inclusion flag
    for a in (F(1, 2), F(1, 4), F(-1)):
        for seg in boundary_segments(a):
            mid = ((seg.start[0] + seg.end[0]) / 2,
                   (seg.start[1] + seg.end[1]) / 2)
            assert in_A(a, mid) == seg.interior_included, (a, seg)
            for pt, inc in ((seg.start, seg.start_included),
                            (seg.end, seg.end_included)):
                assert in_A(a, pt) == inc, (a, seg, pt)


@pytest.mark.parametrize("a", [F(2), F(1, 4), F(-1)])
@pytest.mark.parametrize("k_max", [3, 2, 1])
def test_boundary_segments_respect_k_max(a, k_max):
    # k_max left of the lower kink: no vertex past the cut
    segs = boundary_segments(a, k_max=k_max)
    assert segs
    for seg in segs:
        assert seg.start < seg.end
        assert seg.start[0] <= k_max and seg.end[0] <= k_max
        mid = ((seg.start[0] + seg.end[0]) / 2,
               (seg.start[1] + seg.end[1]) / 2)
        assert seg.interior_included == in_A(a, mid)
        assert seg.start_included == in_A(a, seg.start)
        assert seg.end_included == in_A(a, seg.end)


def test_boundary_segments_cut_left_of_kink():
    segs = boundary_segments(2, k_max=3)
    assert [s.line_label for s in segs] == ["k=0", "s=k+3", "s=k/2"]
    assert segs[-1].end == (F(3), F(3, 2)) and segs[-1].end_included


@pytest.mark.parametrize("a,left", [(F(2), 0), (F(1, 4), F(3, 4)),
                                    (F(-1), F(-3, 4))])
def test_boundary_segments_need_a_region(a, left):
    for k_max in (left, left - 1):
        with pytest.raises(ValueError):
            boundary_segments(a, k_max=k_max)
    assert boundary_segments(a, k_max=left + F(1, 8))
