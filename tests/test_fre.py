import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest

from hskdv import fre
from hskdv.fre import fre_sup, level_set_measure, make_fre_spec, ratio_scan
from hskdv.phases import eval_phase


def _real_cubic_roots(c):
    """Sorted real roots of c[0] x^3 + ... + c[3]: one row of _cubic_roots."""
    r = fre._cubic_roots(c)[0]
    return sorted(r[~np.isnan(r)].tolist())


def test_level_set_measure_cases():
    # alpha >= M: shell between two circles
    assert level_set_measure(5.0, 1.0) == pytest.approx(
        2.0 * (np.sqrt(6.0) - 2.0))
    # alpha < M: solid interval
    assert level_set_measure(0.0, 4.0) == pytest.approx(4.0)
    # empty
    assert level_set_measure(-10.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        level_set_measure(1.0, 0.0)


def test_level_set_measure_brute_and_bound():
    rng = np.random.default_rng(31)
    q = np.linspace(-40.0, 40.0, 2_000_001)
    dq = q[1] - q[0]
    for _ in range(10):
        alpha = rng.uniform(-20.0, 400.0)
        M = rng.uniform(0.5, 30.0)
        exact = level_set_measure(alpha, M)
        brute = float(np.count_nonzero(np.abs(q * q - alpha) < M)) * dq
        assert exact == pytest.approx(brute, abs=5 * dq)
        assert exact <= 2.0 * np.sqrt(2.0) * np.sqrt(M) + 1e-12


def test_cubic_roots_against_numpy():
    rng = np.random.default_rng(33)
    for _ in range(200):
        c = rng.uniform(-5.0, 5.0, 4)
        got = _real_cubic_roots(c)
        all_roots = np.roots(c)
        expect = sorted(float(r.real) for r in all_roots
                        if abs(r.imag) < 1e-9)
        assert len(got) == len(expect)
        for g, e in zip(got, expect):
            assert g == pytest.approx(e, abs=1e-7)


def test_cubic_roots_against_mpmath():
    # every 86th level-set cubic of the default uvx scans at five a (200
    # of 17200 rows) and 100 uniform[-5, 5] cubics, against the roots of
    # mp.polyroots at 50 digits: same real-root count, <= 1e-13 relative
    spec = make_fre_spec("uvx", 1.0, 0.5)
    ws = fre._fixed_grid(np.array([1e2, 1e3, 1e4]))[0]
    shifts = [[0.0, 0.0, 0.0, alpha + sign * M]
              for alpha in fre.DEFAULT_ALPHA_GRID for M in fre.DEFAULT_M_GRID
              for sign in (1.0, -1.0)]
    level = np.concatenate([
        (fre._phase_cubic_coeffs(spec, a, ws)[:, None] - shifts)
        .reshape(-1, 4) for a in (0.5, 0.75, 2.0, 3.0, -1.0)])
    assert len(level) == 17200
    rows = np.r_[level[::86],
                 np.random.default_rng(3).uniform(-5.0, 5.0, (100, 4))]
    with mpmath.workdps(50):
        for row, got in zip(rows, fre._cubic_roots(rows)):
            roots = mpmath.polyroots(row.tolist(), maxsteps=100,
                                     extraprec=50)
            scale = max(abs(r) for r in roots)
            want = sorted(float(r.real) for r in roots
                          if abs(r.imag) <= 1e-40 * scale)
            got = np.sort(got[~np.isnan(got)])
            assert len(got) == len(want), row
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), row


def test_cubic_roots_degenerate():
    assert _real_cubic_roots((0.0, 0.0, 2.0, -4.0)) == [2.0]
    assert _real_cubic_roots((0.0, 1.0, 0.0, -4.0)) == [-2.0, 2.0]
    assert _real_cubic_roots((0.0, 1.0, 0.0, 4.0)) == []
    assert _real_cubic_roots((0.0, 0.0, 0.0, 0.0)) == []


def test_spec_validation():
    with pytest.raises(ValueError):
        make_fre_spec("nope", 1.0, 0.5)
    sp = make_fre_spec("dxv2", 1.0, 0.5)
    assert sp.multiplier == "xi" and sp.phase == "Phi1u"
    assert sp.weights == (1.0, 0.5, 0.5)
    sp = make_fre_spec("uvx", 1.0, 0.5)
    assert sp.multiplier == "xi2" and sp.phase == "Phiv"
    assert sp.weights == (0.5, 1.0, 0.5)


def test_fre_sup_against_dense_bruteforce():
    spec = make_fre_spec("dxv2", 1.0, 0.5)
    a, alpha, M, lam = 0.5, 1.0, 2.0, 6.0
    got = fre_sup(spec, a, [alpha], [M], [lam])[0, 0]

    mags = [0.1]
    while mags[-1] < lam:
        mags.append(mags[-1] * 1.15)
    mags[-1] = min(mags[-1], lam)
    grid = np.concatenate([-np.asarray(mags)[::-1], mags])
    x1 = np.linspace(-10.0 * lam, 10.0 * lam, 1_200_001)
    dx = x1[1] - x1[0]
    # Phi1u = -a w^3 + x1^3 + x2^3 = w ((1-a) w^2 - 3 x1 x2) for
    # w = x1 + x2, evaluated in that exact product form, without cubes;
    # <x1> does not depend on w
    jx1 = (1.0 + x1 ** 2) ** 0.5
    best = 0.0
    for w in grid:
        x2 = w - x1
        phi = w * ((1.0 - a) * w ** 2 - 3.0 * x1 * x2)
        sel = np.abs(phi - alpha) < M
        wgt = w ** 2 * (1.0 + w ** 2) ** 1.0 / (jx1 * (1.0 + x2 ** 2) ** 0.5)
        best = max(best, float(np.sum(np.where(sel, wgt, 0.0))) * dx)
    assert got == pytest.approx(best, rel=0.03)


def test_fre_sup_monotone_in_lam():
    spec = make_fre_spec("uvx", 1.0, 0.25)
    vals = [fre_sup(spec, 0.5, [1.0], [1.0], [lam])[0, 0]
            for lam in (1.0, 10.0, 100.0, 1000.0)]
    for lo, hi in zip(vals, vals[1:]):
        assert hi >= lo - 1e-12


def test_fre_sup_input_validation():
    spec = make_fre_spec("dxv2", 1.0, 0.5)
    positive = "must be finite and positive"
    with pytest.raises(ValueError, match=positive):
        fre_sup(spec, 0.5, [0.0], [1.0], [-1.0])
    with pytest.raises(ValueError, match=positive):
        fre_sup(spec, 0.5, [0.0], [-1.0], [10.0])
    # any nonpositive M, lam <= 0
    with pytest.raises(ValueError, match=positive):
        fre_sup(spec, 0.5, [0.0, 1.0], [1.0, 0.0], [10.0])
    with pytest.raises(ValueError, match=positive):
        fre_sup(spec, 0.5, [0.0, 1.0], [1.0, 4.0], [10.0, 0.0])
    # unequal lengths, no pairs, and scalars in place of 1-D sequences
    shape = "nonempty 1-D sequences of equal length"
    with pytest.raises(ValueError, match=shape):
        fre_sup(spec, 0.5, [0.0, 1.0, -1.0], [1.0, 4.0], [10.0])
    with pytest.raises(ValueError, match=shape):
        fre_sup(spec, 0.5, [0.0, 1.0], 1.0, [10.0])
    with pytest.raises(ValueError, match=shape):
        fre_sup(spec, 0.5, 0.0, 1.0, [10.0])
    for kind in ("dxv2", "uvx"):
        with pytest.raises(ValueError, match=shape):
            fre_sup(make_fre_spec(kind, 1.0, 0.5), 0.5, [], [], [10.0])
    with pytest.raises(ValueError, match=r"lams \(nonempty, 1-D\)"):
        fre_sup(spec, 0.5, [0.0], [1.0], 10.0)


def _reference_level_set_intervals(coeffs, roots, alpha, M, clip):
    pts = sorted(p for p in roots if -clip < p < clip)
    lo = np.array([-clip] + pts)
    hi = np.array(pts + [clip])
    keep = ~(hi - lo < 1e-300)
    keep &= np.abs(np.polyval(coeffs, 0.5 * (lo + hi)) - alpha) < M
    return list(zip(lo[keep].tolist(), hi[keep].tolist()))


def _fixed_grid(lam):
    mags = [0.1]
    while mags[-1] < lam:
        mags.append(mags[-1] * 1.15)
    mags[-1] = min(mags[-1], lam)
    return np.concatenate([-np.asarray(mags)[::-1], mags])


def _reference_ratio_scan(spec, a, lams):
    """Reference scan: one fre_sup per (lam, alpha, M), each a loop over the
    fixed frequency w with np.polyval level-set tests and one integrand call
    per interval. The np.polyfit phase fit is made for one w per call, so a
    batched fit row must equal it; the roots of every level-set cubic of
    the scan come from one batched _cubic_roots call. Returns (sups, slope).
    """
    gx, gw = fre.GL_RULE
    pairs = [(alpha, M) for alpha in fre.DEFAULT_ALPHA_GRID
             for M in fre.DEFAULT_M_GRID]
    fits = [[(w, fre._phase_cubic_coeffs(spec, a, [w])[0])
             for w in _fixed_grid(lam)] for lam in lams]
    cubics = [np.r_[coeffs[:3], coeffs[3] - shift]
              for fit in fits for alpha, M in pairs for _, coeffs in fit
              for shift in (alpha + M, alpha - M)]
    roots = iter([r[~np.isnan(r)].tolist()
                  for r in fre._cubic_roots(np.array(cubics))])
    sups = []
    for lam, fit in zip(lams, fits):
        worst = 0.0
        for alpha, M in pairs:
            best = 0.0
            for w, coeffs in fit:
                total = 0.0
                for lo, hi in _reference_level_set_intervals(
                        coeffs, next(roots) + next(roots), alpha, M,
                        10.0 * lam):
                    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
                    xi, xi1, xi2 = fre._freqs_from(w, mid + half * gx)
                    total += half * float(np.sum(
                        gw * fre._weight_integrand(spec, xi, xi1, xi2)))
                best = max(best, total)
            norm = float(fre._bracket(alpha)) ** fre.ALPHA_EXPONENT * M
            worst = max(worst, best / norm)
        sups.append(worst)
    slope = float(np.polyfit(np.log(lams), np.log(sups), 1)[0])
    return sups, slope


# dxv2 at a = -1 holds a fixed frequency (lam = 100) whose fitted cubic
# takes the Cardano branch on rounding noise: branch decisions must match
@pytest.mark.parametrize("a", [0.5, 3.0, -1.0, 0.25])
@pytest.mark.parametrize("kind", ["dxv2", "uvx"])
def test_ratio_scan_matches_per_pair_reference(kind, a):
    spec = make_fre_spec(kind, 1.0, 0.5)
    lams = (10.0, 100.0, 1000.0)
    sups, slope = _reference_ratio_scan(spec, a, lams)
    got = ratio_scan(spec, a, lams=lams)
    assert got.sup_values == sups
    assert got.growth_slope == slope


def _reference_cubic_roots(c):
    """Root finder with np.polyval Newton polishing."""
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

    poly = np.array([c3, c2, c1, c0])
    dpoly = np.array([3 * c3, 2 * c2, c1])
    polished = []
    for r in roots:
        x = r
        for _ in range(3):
            fx = np.polyval(poly, x)
            dfx = np.polyval(dpoly, x)
            if dfx != 0:
                x -= fx / dfx
        if not np.isfinite(x):
            raise fre.RootFindingError("Newton polish diverged for cubic %r"
                                   % (list(poly),))
        polished.append(float(x))
    return sorted(polished)


@pytest.mark.parametrize("kind", ["dxv2", "uvx"])
def test_root_finder_matches_polyval_reference(kind):
    rng = np.random.default_rng(7)
    for p in rng.normal(size=(200, 4)) * 10.0 ** rng.integers(-14, 3, 4):
        x = float(rng.normal() * 100.0)
        assert fre._horner(p.tolist(), x) == float(np.polyval(p, x))
    # every level-set cubic of a scan at a = -1, lam = 100, which holds a
    # misfiring fixed frequency for dxv2
    spec = make_fre_spec(kind, 1.0, 0.5)
    rows = [np.r_[coeffs[:3], coeffs[3] - shift]
            for coeffs in fre._phase_cubic_coeffs(spec, -1.0,
                                                  _fixed_grid(100.0))
            for alpha in fre.DEFAULT_ALPHA_GRID for M in fre.DEFAULT_M_GRID
            for shift in (alpha + M, alpha - M)]
    for row, r in zip(rows, fre._cubic_roots(np.array(rows))):
        assert sorted(r[~np.isnan(r)].tolist()) == _reference_cubic_roots(row)


# crafted cubics for each branch of the root finder: (name, coefficients,
# number of real roots)
TOL_EDGE = np.nextafter(1e-14, 1.0)  # just above tol = 1e-14 * scale
BRANCH_CUBICS = [
    ("zero", (0.0, 0.0, 0.0, 0.0), 0),
    ("constant", (0.0, 0.0, 0.0, 5.0), 0),
    ("linear", (0.0, 0.0, 2.0, -4.0), 1),
    ("linear_noise", (1e-20, -1e-20, 3.0, 1.0), 1),
    ("quadratic_disc_negative", (0.0, 1.0, 0.0, 4.0), 0),
    ("quadratic_disc_zero", (0.0, 1.0, -2.0, 1.0), 2),
    ("quadratic_disc_positive", (0.0, 1.0, 0.0, -4.0), 2),
    ("c3_at_tol", (1e-14, 1.0, -1.0, -1.0), 2),
    ("c3_above_tol", (TOL_EDGE, 1.0, -1.0, -1.0), 3),
    ("c3_at_tol_negative", (-1e-14, -1.0, 1.0, 1.0), 2),
    ("c3_above_tol_negative", (-TOL_EDGE, -1.0, 1.0, 1.0), 3),
    ("trig_three_roots", (1.0, -6.0, 11.0, -6.0), 3),
    ("trig_symmetric", (1.0, 0.0, -3.0, 1.0), 3),
    ("cardano", (1.0, 0.0, 0.0, -8.0), 1),
    ("cardano_complex_pair", (2.0, 1.0, 1.0, 1.0), 1),
]


def test_batched_finder_branches_match_reference():
    c = np.array([row for _, row, _ in BRANCH_CUBICS])
    got = fre._cubic_roots(c)
    assert got.shape == (len(c), 3)
    for (name, row, count), r in zip(BRANCH_CUBICS, got):
        want = _reference_cubic_roots(row)
        assert len(want) == count, name
        assert sorted(r[~np.isnan(r)].tolist()) == want, name
        assert _real_cubic_roots(row) == want, name


def test_batched_finder_matches_reference_on_random_cubics():
    # the Newton polish hides most last-bit differences of numpy's SIMD
    # acos and pow; on these draws numpy's acos, b**3 or (p/3)**3 would
    # change some rows
    rng = np.random.default_rng(5)
    c = rng.normal(size=(4000, 4)) * 10.0 ** rng.integers(-3, 3, (4000, 4))
    for row, r in zip(c, fre._cubic_roots(c)):
        assert sorted(r[~np.isnan(r)].tolist()) == _reference_cubic_roots(row)


@pytest.mark.parametrize("kind", ["dxv2", "uvx"])
def test_batched_finder_at_the_noise_fit(kind):
    # the fixed frequency whose fitted dxv2 cubic has c3 = -1.3e-14
    # against tol = 8e-15 (Cardano on rounding noise); every level-set
    # cubic of every default pair, in one batch
    w = -0.26600198804687486
    coeffs = fre._phase_cubic_coeffs(make_fre_spec(kind, 1.0, 0.5), -1.0,
                                     [w])[0]
    if kind == "dxv2":
        assert 1e-14 * np.abs(coeffs).max() < abs(coeffs[0]) < 2e-14
    rows = [np.r_[coeffs[:3], coeffs[3] - shift]
            for alpha in fre.DEFAULT_ALPHA_GRID for M in fre.DEFAULT_M_GRID
            for shift in (alpha + M, alpha - M)]
    for row, r in zip(rows, fre._cubic_roots(np.array(rows))):
        assert sorted(r[~np.isnan(r)].tolist()) == _reference_cubic_roots(row)


def test_batched_finder_names_the_diverging_cubic():
    bad = (1e308, 1e308, 0.0, 0.0)  # 3 c3 overflows in the derivative
    with pytest.raises(fre.RootFindingError), np.errstate(all="ignore"):
        _reference_cubic_roots(bad)
    msg = "Newton polish diverged for cubic [1e+308, 1e+308, 0.0, 0.0]"
    with pytest.raises(fre.RootFindingError, match=re.escape(msg)):
        _real_cubic_roots(bad)
    with pytest.raises(fre.RootFindingError, match=re.escape(msg)):
        fre._cubic_roots(np.array([(1.0, -6.0, 11.0, -6.0), bad,
                                   (1e308, -1e308, 1e308, -1e308)]))


def test_fre_sup_pairs_match_scalar_calls():
    # each pair's sup equals the call with that (alpha, M) pair alone
    alphas = [0.0, 1.0, -1.0, 10.0, -10.0, 3.0]
    Ms = [1.0, 4.0, 1.0, 4.0, 0.5, 2.0]
    for kind, a in (("dxv2", -1.0), ("uvx", 3.0)):
        spec = make_fre_spec(kind, 1.0, 0.5)
        got = fre_sup(spec, a, alphas, Ms, [100.0])
        assert isinstance(got, np.ndarray) and got.shape == (1, 6)
        want = [fre_sup(spec, a, [al], [M], [100.0])[0, 0]
                for al, M in zip(alphas, Ms)]
        assert got[0].tolist() == want


def test_ratio_scan_dichotomy():
    # inside the validity region the normalized sup stays bounded,
    # outside it grows with a definite power
    inside = ratio_scan(make_fre_spec("dxv2", 1.0, 0.5), 0.5)
    assert abs(inside.growth_slope) <= 0.05
    outside = ratio_scan(make_fre_spec("dxv2", 1.0, 0.25), 0.5)
    assert outside.growth_slope >= 0.2
    d = inside._asdict()
    assert set(d) == {"sup_value", "ratio", "growth_slope", "lams",
                      "sup_values"}
    assert len(d["lams"]) == len(d["sup_values"]) == 3


def test_ratio_scan_needs_three_points():
    with pytest.raises(ValueError):
        ratio_scan(make_fre_spec("dxv2", 1.0, 0.5), 0.5, lams=(10.0, 100.0))


# the 8 vetted fre-scan tuples (dxv2, k = 1, default lams), pinned bit for
# bit: (s, a) -> (sup_values, growth_slope)
VETTED_SCANS = {
    (0.5, 0.5): ([13.841190138824615, 13.856254590561319,
                  13.856882912607393], 0.0002460563150436756),
    (0.5, 2.0): ([2.6169144764601953, 2.618598021329867,
                  2.619146762208726], 0.0001851524260630814),
    (0.5, 3.0): ([1.0977137805904198, 1.0977137805904198,
                  1.0977137805904198], 8.052586602601913e-18),
    (0.5, 0.75): ([19.481324222635802, 19.594761962979966,
                   19.597274002694146], 0.0012885952853424504),
    (0.25, 0.5): ([565.4030058049162, 5656.82618932767,
                   56570.4703408292], 1.0001158383117632),
    (0.25, 2.0): ([151.14425715688083, 1511.8539419167523,
                   15119.052181803472], 1.000066457743536),
    (0.25, 3.0): ([85.27762361319603, 852.8026658275801,
                   8531.352196473272], 1.000091390770366),
    (0.25, 0.75): ([564.0571826254461, 5656.690235200822,
                    56571.44133732992], 1.0006370550364323),
}


@pytest.mark.parametrize("s, a", sorted(VETTED_SCANS))
def test_vetted_scans_pinned(s, a):
    sups, slope = VETTED_SCANS[(s, a)]
    got = ratio_scan(make_fre_spec("dxv2", 1.0, s), a)
    assert got.sup_values == sups
    assert got.growth_slope == slope


@pytest.mark.parametrize("a", [-1.0, 0.5, 3.0])
@pytest.mark.parametrize("kind", ["dxv2", "uvx"])
def test_fre_sup_cutoff_rows_match_single_calls(kind, a):
    # a = -1 at lam = 100 holds the misfiring fixed frequency of dxv2;
    # the cutoffs come unsorted and the rows keep their order
    spec = make_fre_spec(kind, 1.0, 0.5)
    lams = [1000.0, 10.0, 100.0]
    alphas, Ms = [0.0, 1.0, -10.0], [1.0, 4.0, 0.5]
    got = fre_sup(spec, a, alphas, Ms, lams)
    assert isinstance(got, np.ndarray) and got.shape == (3, 3)
    for row, lam in zip(got.tolist(), lams):
        assert row == fre_sup(spec, a, alphas, Ms, [lam])[0].tolist()


def test_ratio_scan_fits_each_fixed_frequency_once(monkeypatch):
    fitted = []

    def fit(spec, a, ws, real=fre._phase_cubic_coeffs):
        fitted.append(ws.tolist())
        return real(spec, a, ws)

    monkeypatch.setattr(fre, "_phase_cubic_coeffs", fit)
    lams = (1e2, 1e3, 1e4)
    ratio_scan(make_fre_spec("dxv2", 1.0, 0.5), 2.0, lams=lams)
    union = set().union(*(_fixed_grid(lam).tolist() for lam in lams))
    assert sum(len(_fixed_grid(lam)) for lam in lams) == 404
    assert len(union) == 172
    # one fit call for the scan, whose rows are the distinct w
    assert len(fitted) == 1
    assert sorted(fitted[0]) == sorted(union)


def _fit(spec, a, ws, batched=True):
    """The phase fit's (W, 4) rows: the batched fit, or (batched=False)
    np.polyfit of each frequency's nodes and phase values alone, the
    reference each batched row equals."""
    if batched:
        return fre._phase_cubic_coeffs(spec, a, ws)
    rows = []
    for w in ws:
        x = max(1.0, abs(w)) * np.array([-2.0, -0.5, 0.5, 2.0])
        rows.append(np.polyfit(x, eval_phase(spec.phase, a, (x, w - x)), 3))
    return np.array(rows)


def test_phase_fit_rows_match_single_frequency_fits():
    # each row of a batched fit is the fit of its frequency alone and
    # np.polyfit on that frequency's nodes and phase values
    ws = np.r_[-np.geomspace(1e3, 0.1, 9), np.geomspace(0.1, 1e3, 9),
               -0.26600198804687486]
    for kind in ("dxv2", "uvx"):
        spec = make_fre_spec(kind, 1.0, 0.5)
        for a in (-1.0, 0.5, 2.0, 3.0):
            got = fre._phase_cubic_coeffs(spec, a, ws)
            assert got.shape == (len(ws), 4)
            assert got.tolist() == _fit(spec, a, ws, batched=False).tolist()
            for w, row in zip(ws, got):
                assert row.tolist() == fre._phase_cubic_coeffs(
                    spec, a, [w])[0].tolist()


# batched: the fit itself; otherwise np.polyfit, the reference it equals
@pytest.mark.parametrize("batched", [True, False])
def test_phase_fit_raises_as_polyfit_does(batched):
    # nodes near 1e120 overflow their cube: the SVD cannot converge
    with pytest.raises(np.linalg.LinAlgError), np.errstate(all="ignore"):
        _fit(make_fre_spec("dxv2", 1.0, 0.5), 2.0, [1.0, 1e120], batched)


@pytest.mark.parametrize("batched", [True, False])
def test_phase_fit_warns_on_rank_loss(batched):
    # past |w| ~ 3e51 the cube column's squared norm overflows, its scale
    # is inf and the column drops out
    with pytest.warns(np.exceptions.RankWarning), np.errstate(all="ignore"):
        got = _fit(make_fre_spec("uvx", 1.0, 0.5), 2.0, [1.0, 1e60], batched)
    assert got[1, 0] == 0.0


@pytest.mark.parametrize("lam", [float("nan"), float("inf"),
                                 [10.0, float("nan")], [10.0, 0.0], [],
                                 [[10.0]]])
def test_fre_sup_rejects_bad_cutoffs_before_fitting(lam, monkeypatch):
    def fit(*args):
        raise AssertionError("fitted before the cutoffs were checked")

    monkeypatch.setattr(fre, "_phase_cubic_coeffs", fit)
    spec = make_fre_spec("dxv2", 1.0, 0.5)
    lams = np.atleast_1d(lam)
    for alphas, Ms in (([0.0], [1.0]), ([0.0, 1.0], [1.0, 4.0])):
        with pytest.raises(ValueError, match=r"lams \(nonempty, 1-D\)"):
            fre_sup(spec, 0.5, alphas, Ms, lams)


@pytest.mark.parametrize("lam, named", [
    (1e60, "1e+60"), (2e51, "2e+51"), ([100.0, 1e120, 1e3], "1e+120")])
def test_fre_sup_rejects_cutoffs_past_lam_max_before_fitting(lam, named,
                                                            monkeypatch):
    def fit(*args):
        raise AssertionError("fitted before the cutoffs were checked")

    monkeypatch.setattr(fre, "_phase_cubic_coeffs", fit)
    spec = make_fre_spec("uvx", 1.0, 0.5)
    for alphas, Ms in (([0.0], [1.0]), ([0.0, 1.0], [1.0, 4.0])):
        with pytest.raises(ValueError, match=re.escape(
                "cutoff lam = %s exceeds 1e+51" % named)):
            fre_sup(spec, 0.5, alphas, Ms, np.atleast_1d(lam))


@pytest.mark.parametrize("batched", [True, False])
def test_fre_sup_fits_up_to_lam_max(batched):
    # at LAM_MAX the fit and np.polyfit keep uvx's cube coefficient
    # a - 1, with no overflow or rank warning (warnings are errors in the
    # tests); the scan runs, but its value there is not checked
    spec = make_fre_spec("uvx", 1.0, 0.5)
    coeffs = _fit(spec, 0.5, [-fre.LAM_MAX, fre.LAM_MAX], batched)
    assert coeffs[:, 0] == pytest.approx([-0.5, -0.5], rel=1e-9)
    if not batched:
        return
    # the uvx root finder loses that coefficient long before LAM_MAX
    with pytest.raises(ValueError, match="too large for the uvx scan"):
        fre_sup(spec, 0.5, [0.0, 1.0], [1.0, 4.0], [100.0, fre.LAM_MAX])
    # the exactly quadratic dxv2 phase scans up to LAM_MAX
    got = fre_sup(make_fre_spec("dxv2", 1.0, 0.5), 0.5, [0.0, 1.0],
                  [1.0, 4.0], [100.0, fre.LAM_MAX])
    assert np.all(np.isfinite(got)) and np.all(got[1] >= got[0])


@pytest.mark.parametrize("a", [0.5, 3.0, -1.0])
def test_uvx_scan_stops_where_the_root_finder_drops_the_cube(a,
                                                             monkeypatch):
    # Phiv at fixed xi = w has the cube term a - 1 beside 3w and -3w^2;
    # _cubic_roots drops it once |a - 1| <= 1e-14 * 3 w^2
    bound = math.sqrt(abs(a - 1.0) / 3e-14)
    spec = make_fre_spec("uvx", 1.0, 0.5)
    w = 0.98 * bound
    row = fre._phase_cubic_coeffs(spec, a, [w])[0] - [0.0, 0.0, 0.0, 1.0]
    expect = sorted(r.real for r in np.roots(row)
                    if abs(r.imag) <= 1e-9 * abs(r))
    assert _real_cubic_roots(row) == pytest.approx(expect, rel=1e-9)
    assert fre_sup(spec, a, [0.0], [1.0], [100.0, w]).shape == (2, 1)
    # a = 1 makes Phiv quadratic, and dropping its zero cube is right
    assert np.isfinite(fre_sup(spec, 1.0, [0.0], [1.0], [1e12])[0, 0])

    def fit(*args):
        raise AssertionError("fitted past the bound")

    monkeypatch.setattr(fre, "_phase_cubic_coeffs", fit)
    for lams in ([1.02 * bound], [100.0, 1.02 * bound, 1e3]):
        with pytest.raises(ValueError, match=re.escape(
                "cutoff lam = %g is too large for the uvx scan at a = %g"
                % (1.02 * bound, a))):
            fre_sup(spec, a, [0.0], [1.0], lams)


@pytest.mark.parametrize("a, alpha, M", [
    (float("nan"), 0.0, 1.0), (float("inf"), 0.0, 1.0),
    (0.5, float("nan"), 1.0), (0.5, -float("inf"), 1.0),
    (0.5, 0.0, float("nan")), (0.5, 0.0, float("inf"))])
def test_fre_sup_rejects_non_finite_inputs_before_fitting(a, alpha, M,
                                                          monkeypatch):
    def fit(*args):
        raise AssertionError("fitted before the inputs were checked")

    monkeypatch.setattr(fre, "_phase_cubic_coeffs", fit)
    spec = make_fre_spec("dxv2", 1.0, 0.5)
    with pytest.raises(ValueError, match="finite"):
        fre_sup(spec, a, [alpha], [M], [100.0])
    with pytest.raises(ValueError, match="finite"):
        fre_sup(spec, a, [1.0, alpha], [1.0, M], [10.0, 100.0])


def test_ratio_scan_memory_peak():
    spec = make_fre_spec("dxv2", 1.0, 0.5)
    ratio_scan(spec, 2.0)  # first-call allocations (rules, caches)
    tracemalloc.start()
    try:
        ratio_scan(spec, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


@pytest.mark.parametrize("lams", [(100.0, 100.0, 1000.0),
                                  (100.0, 1000.0, float("nan")),
                                  (0.0, 100.0, 1000.0)])
def test_ratio_scan_rejects_bad_ladders_before_fitting(lams, monkeypatch):
    def fit(*args):
        raise AssertionError("fitted before the ladder was checked")

    monkeypatch.setattr(fre, "_phase_cubic_coeffs", fit)
    with pytest.raises(ValueError):
        ratio_scan(make_fre_spec("dxv2", 1.0, 0.5), 2.0, lams=lams)
