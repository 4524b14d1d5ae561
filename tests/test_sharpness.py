import json
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from hskdv import cli, picard, regions, sharpness
from hskdv.cli import to_json
from hskdv.phases import eval_phase
from hskdv.sharpness import (FAMILIES, LEMMA_TAGS, ExponentFit,
                             HypothesisError, build, canonical_tag,
                             check_phase_regime, evaluate_rung,
                             ladder_report, predicted_slope, run_ladder,
                             verdict)


def test_canonical_tag():
    assert canonical_tag("L61") == "L61_s_le_k3"
    assert canonical_tag("L68_cubic_34") == "L68_cubic_34"
    with pytest.raises(ValueError):
        canonical_tag("L60")


# one a per a-case of regions.region_planes
A_CASES = (2.0, 0.25, -1.0)


def _boundary_lines():
    """label -> half-plane of every boundary line of A_a, over A_CASES."""
    return {h.label: h for a in A_CASES for h in regions.region_planes(a)[0]}


def test_every_boundary_line_names_its_family():
    # no family in the lab certifies k = -3/4, so the C^3 verdicts left of
    # it (classify(-1, (-1, 0))) rest on the paper alone
    line_family = {fam.boundary: tag for tag, fam in FAMILIES.items()}
    assert len(line_family) == len(LEMMA_TAGS)
    labels = set()
    for a in A_CASES:
        for h in regions.region_planes(a)[0]:
            labels.add(h.label)
            if h.label in line_family:
                # L62's rho bracket (s+1/2, k-3/2) is empty at (0, 0)
                build(line_family[h.label], 64, k=0.0, s=-2.5, a=a)
    assert labels - set(line_family) == {"k=-3/4"}
    assert set(line_family) <= labels


def _box_norm(sigma, beta, rho=0, at_N=True):
    """N-exponent of the H^sigma norm of one frequency box.

    The box has width N^beta and weight <xi>^(-rho), and sits at
    |xi| ~ N (at_N) or at |xi| ~ 1.
    """
    return (sigma - rho if at_N else 0) + Fraction(beta) / 2


NARROW = Fraction(-1, 2)  # beta of the boxes of width N^-1/2
# the data-norm exponent of each family's ratio |iterate| / |data|^p:
# u0 is measured in H^k and v0 in H^s, p = 2 for the second iterates and
# 3 for the third; box widths N^beta from sharpness.FAMILIES' geometry
DATA_EXPONENT = {
    # u0 of width 1 at N, v0 on (1, 3)
    "L61_s_le_k3": lambda k, s, rho: (_box_norm(k, 0)
                                      + _box_norm(s, 0, at_N=False)),
    # v0 = <xi>^-rho on [-1, 1] and on [bN, N], width N
    "L62_s_ge_km2": lambda k, s, rho: 2 * max(
        _box_norm(s, 0, rho, at_N=False), _box_norm(s, 1, rho)),
    # v0 on two boxes of width delta N at -N and +N
    "L63_s_ge_k2_34": lambda k, s, rho: 2 * _box_norm(s, 1),
    # v0 of width N^-1/2
    "L64_quarter_s": lambda k, s, rho: 2 * _box_norm(s, NARROW),
    # u0 and v0 of width N^-1/2
    "L65_quarter_k": lambda k, s, rho: (_box_norm(k, NARROW)
                                        + _box_norm(s, NARROW)),
    # v0 on two boxes of width N^-2
    "L66_agt_s": lambda k, s, rho: 2 * _box_norm(s, -2),
    # u0 and v0 of width N^-2
    "L67_agt_k": lambda k, s, rho: _box_norm(k, -2) + _box_norm(s, -2),
    # v0 on two boxes of width N^-1/2, cubed by the third iterate
    "L68_cubic_34": lambda k, s, rho: 3 * _box_norm(s, NARROW),
}


def _inflation(tag, k, s):
    # L62 at its best amplitude rho = s + 1/2, where both boxes of v0
    # carry unit H^s norm; the other families ignore rho
    rho = s + Fraction(1, 2)
    pred = predicted_slope(tag, k=float(k), s=float(s), rho=float(rho))
    return Fraction(pred) - DATA_EXPONENT[tag](k, s, rho)


@pytest.mark.parametrize("tag", LEMMA_TAGS)
def test_inflation_exponent_vanishes_on_the_family_boundary(tag):
    # predicted_slope minus the data exponent is the family's inflation
    # exponent: zero on its boundary line, positive on the ill-posed side
    h = _boundary_lines()[FAMILIES[tag].boundary]
    for x in (Fraction(1, 2), Fraction(13, 4)):
        if h.cs:  # x is k
            on = (x, -(h.ck * x + h.c0) / Fraction(h.cs))
        else:  # the line k = const, x is s
            on = (-Fraction(h.c0, h.ck), x)
        outside = (on[0] - Fraction(h.ck, 4), on[1] - Fraction(h.cs, 4))
        assert h.value(*on) == 0 and h.value(*outside) < 0
        for p in (on, outside):  # dyadic, so the floats are exact
            assert all(Fraction(float(x)) == x for x in p)
        assert _inflation(tag, *on) == 0
        assert _inflation(tag, *outside) > 0


def test_hypothesis_guards():
    with pytest.raises(HypothesisError):
        build("L61", 64)            # a missing
    with pytest.raises(HypothesisError):
        build("L61", 64, a=1)
    with pytest.raises(HypothesisError):
        build("L61", 8, a=2)        # N too small
    with pytest.raises(HypothesisError):
        build("L64", 64, a=0.5)     # double-root family pins a=1/4
    with pytest.raises(HypothesisError):
        build("L66", 64, a=0.2)
    for bad_a in (-0.125, 0.0, 0.5):
        with pytest.raises(HypothesisError):
            build("L68", 64, a=bad_a)
    assert build("L64", 64).a == 0.25  # defaulted


def test_guards_decide_on_the_a_that_classify_uses(tmp_path):
    # regions._rat snaps this a to 1/4, so classify reads the a = 1/4
    # table; the guards must agree: L64 builds, L66/L67 are refused
    a = 0.25000000000000006
    assert regions._rat(a) == regions.QUARTER
    assert build("L64", 64, k=-1.0, a=a).a == a
    for lemma in ("L66", "L67"):
        with pytest.raises(HypothesisError,
                           match="needs a > 1/4, a != 1"):
            build(lemma, 64, a=a)
        assert cli.main(["sharpness", "--lemma", lemma, "--a", repr(a),
                         "--N_ladder", "64,128,256",
                         "--out", str(tmp_path)]) == cli.EXIT_NUMERICAL
    assert list(tmp_path.iterdir()) == []


def test_l62_bracket_and_positivity():
    # empty amplitude bracket must be stated explicitly
    with pytest.raises(HypothesisError):
        build("L62", 64, k=0.0, s=-1.8, a=2.0)
    spec = build("L62", 64, k=0.0, s=-1.8, a=2.0, rho=-1.0)
    assert spec.rho == -1.0
    # nonempty bracket defaults to its midpoint
    spec = build("L62", 64, k=4.0, s=0.0, a=2.0)
    assert spec.rho == pytest.approx(0.5 * (0.5 + 2.5))
    # a family without a rho rule ignores a given rho
    assert build("L61", 64, a=2.0, rho=7.0).rho is None
    # phase positivity fails when a is too close to 1
    with pytest.raises(HypothesisError):
        build("L62", 64, k=4.0, s=0.0, a=0.8)


def test_predicted_slopes():
    assert predicted_slope("L61", s=1.0) == pytest.approx(-2.0)
    assert predicted_slope("L62", k=0.0, rho=-1.0) == pytest.approx(-0.5)
    with pytest.raises(ValueError):
        predicted_slope("L62", k=0.0)
    assert predicted_slope("L63", k=2.0) == pytest.approx(1.5)
    assert predicted_slope("L64", k=0.0) == pytest.approx(0.25)
    assert predicted_slope("L65", s=0.0) == pytest.approx(0.25)
    assert predicted_slope("L66", k=0.0) == pytest.approx(-2.0)
    assert predicted_slope("L67", s=0.0) == pytest.approx(-2.0)
    assert predicted_slope("L68", s=0.0) == pytest.approx(-2.25)


@pytest.mark.parametrize("N", [64, 128])
def test_l62_rung_against_adaptive_quadrature(N):
    # the acceptance L62 rung, checked pointwise against scipy's quad on
    # the same kernel integral, with no Gauss-Legendre rule involved
    spec = build("L62", N, k=0.0, s=-1.8, a=2.0, rho=-1.0)
    out = picard.second_iterate_u(spec.v0, spec.a, spec.t, spec.out_window)
    boxes = spec.v0.boxes
    for i in (0, 37, 128, 200, 255):
        xi = out.xi_samples[i]

        def integrand(x1, part, b1, b2):
            x2 = xi - x1
            phi = eval_phase("Phi1u", spec.a, (x1, x2))
            val = (xi * picard.duhamel_kernel(float(phi), spec.t)
                   * b1.amplitude(x1) * b2.amplitude(x2))
            return val.real if part == "re" else val.imag

        acc = 0.0 + 0.0j
        for b1 in boxes:
            for b2 in boxes:
                lo, hi = max(b1.lo, xi - b2.hi), min(b1.hi, xi - b2.lo)
                if lo >= hi:
                    continue
                re, _ = quad(integrand, lo, hi, args=("re", b1, b2),
                             epsabs=0.0, epsrel=1e-13, limit=200)
                im, _ = quad(integrand, lo, hi, args=("im", b1, b2),
                             epsabs=0.0, epsrel=1e-13, limit=200)
                acc += re + 1j * im
        expect = 1j * np.exp(1j * spec.a * spec.t * xi ** 3) * acc
        assert abs(out.values[i] - expect) <= 1e-10 * abs(expect)


def test_phase_regime_checks():
    spec = build("L64", 64)
    check_phase_regime(spec)        # fine at the designed time
    spec = spec._replace(t=10.0)
    with pytest.raises(HypothesisError):
        check_phase_regime(spec)
    spec = build("L61", 64, a=2.0)
    check_phase_regime(spec)
    spec = spec._replace(t=1.0)  # phase no longer coherent
    with pytest.raises(HypothesisError):
        check_phase_regime(spec)


def test_evaluate_rung_positive():
    spec = build("L63", 64, k=0.0, a=-1.0)
    val = evaluate_rung(spec)
    assert val > 0.0


def test_run_ladder_needs_three_points():
    with pytest.raises(ValueError):
        run_ladder("L61", Ns=(64, 128), a=2.0)


@pytest.mark.parametrize("Ns", [(64, 64, 128), (64, 64, 64),
                                (128, 64.0, 128, 64)])
def test_ladder_needs_three_distinct_N_before_any_rung(monkeypatch, Ns):
    # a slope through two distinct N fits with r2 = 1 and certifies nothing
    rungs = []
    monkeypatch.setattr(sharpness, "build",
                        lambda *args, **kw: rungs.append(args))
    for run in (run_ladder, ladder_report):
        with pytest.raises(ValueError) as exc:
            run("L61", Ns=Ns, a=2.0)
        assert type(exc.value) is ValueError
        assert str(exc.value).startswith("ladder needs at least 3 distinct N")
    assert rungs == []


def test_short_ladder_tracks_prediction():
    fit = run_ladder("L61", Ns=(64, 128, 256), k=0.0, s=0.0, a=2.0)
    assert fit.r2 >= 0.99
    assert fit.slope == pytest.approx(-3.0, abs=0.1)
    # norms strictly decay along the ladder at this negative exponent
    assert fit.norms[0] > fit.norms[1] > fit.norms[2]


def test_verdict_logic():
    good = ExponentFit(-2.95, 0.0, 0.999, [64, 128, 256], [1, 2, 3])
    assert verdict(good, -3.0)["pass"]
    off = ExponentFit(-2.5, 0.0, 0.999, [64, 128, 256], [1, 2, 3])
    assert not verdict(off, -3.0)["pass"]
    noisy = ExponentFit(-3.0, 0.0, 0.90, [64, 128, 256], [1, 2, 3])
    assert not verdict(noisy, -3.0)["pass"]
    with pytest.raises(ValueError):
        verdict(good, -3.0, tol=0.0)


def test_ladder_report_shape_and_json():
    rep = ladder_report("L61", Ns=(64, 128, 256), k=0.0, s=0.0, a=2.0)
    assert rep["lemma"] == "L61_s_le_k3"
    assert rep["predicted"] == pytest.approx(-3.0)
    assert rep["tol"] == 0.15
    assert rep["pass"] is True
    txt1 = to_json(rep)
    txt2 = to_json(rep)
    assert txt1 == txt2
    assert json.loads(txt1)["lemma"] == "L61_s_le_k3"


def test_third_iterate_first_part_dominates():
    # on the cubic family's data the kernel-difference part carries the
    # growth; the pure-oscillation part must be negligible
    spec = build("L68", 256, s=0.0, a=-1.0)
    _, p1, p2 = picard.third_iterate_v(
        spec.v0, spec.a, spec.t, spec.out_window, gl_nodes=24,
        min_phase=0.4 * spec.N ** 1.5, return_parts=True)
    m1 = np.max(np.abs(p1.values))
    m2 = np.max(np.abs(p2.values))
    assert m1 > 0.0
    assert m2 <= 0.01 * m1


# the certify workload's L61, L64 and L67 ladders at N = 64, 128, 256,
# every vetted tuple, pinned bit for bit: (lemma, kwargs) -> rung norms
CERTIFY_LADDERS = [
    ("L61", dict(k=0.0, s=0.0, a=2.0), [
        7.708433007151495e-08, 9.635538159065041e-09,
        1.2044420747538735e-09]),
    ("L61", dict(k=0.0, s=0.0, a=-1.0), [
        7.708311962439731e-08, 9.63540271641328e-09,
        1.2044260951399673e-09]),
    ("L61", dict(k=0.0, s=0.0, a=3.0), [
        7.70833914026486e-08, 9.635419192797625e-09,
        1.204427109233294e-09]),
    ("L61", dict(k=0.0, s=1.0, a=2.0), [
        5.133024745729044e-06, 1.2582641013242777e-06,
        3.1144911176814205e-07]),
    ("L61", dict(k=0.0, s=0.5, a=-2.0), [
        6.290007513282445e-07, 1.1010520686241772e-07,
        1.9367402628207633e-08]),
    ("L64", dict(k=0.0), [
        0.046232686873559276, 0.05494556310129032, 0.06532707528603295]),
    ("L64", dict(k=1.0), [
        5.923744832683004, 14.071028398628423, 33.45160940136695]),
    ("L64", dict(k=0.5), [
        0.5233265012742597, 0.8792841259637565, 1.4782746037777537]),
    ("L64", dict(k=-1.0), [
        0.00036082947574084853, 0.00021455538933746354,
        0.000127576127263048]),
    ("L67", dict(s=0.0, a=2.0), [
        1.6626953270363494e-07, 4.156738317537256e-08,
        1.039184579385091e-08]),
    ("L67", dict(s=0.0, a=3.0), [
        2.883502654503624e-07, 7.20875663635468e-08,
        1.802189159093065e-08]),
    ("L67", dict(s=1.0, a=2.0), [
        1.3449062176957742e-05, 6.724136777273153e-06,
        3.3620196529435188e-06]),
    ("L67", dict(s=0.5, a=4.0), [
        3.96463970670633e-06, 1.4016865807013923e-06,
        4.955688449810746e-07]),
]


@pytest.mark.parametrize("lemma, kwargs, norms", CERTIFY_LADDERS)
def test_certify_ladder_norms_pinned(lemma, kwargs, norms):
    assert run_ladder(lemma, Ns=(64, 128, 256), **kwargs).norms == norms


# every family's ladder at N = 64, 128, 256, pinned bit for bit: the
# rung norms, and the report's predicted slope, rho, tol, a and verdict
REPORT_PINS = [
    ("L61", dict(k=0.0, s=0.0, a=2.0), (-3.0, None, 0.15, 2.0, True), [
        7.708433007151495e-08, 9.635538159065041e-09,
        1.2044420747538735e-09]),
    ("L62", dict(k=0.0, s=-1.8, a=2.0, rho=-1.0),
     (-0.5, -1.0, 0.15, 2.0, True), [
         0.0013600114983558795, 0.001065960560453969,
         0.0007881512804292373]),
    # the default rho, the midpoint of the bracket (s+1/2, k-3/2)
    ("L62", dict(k=4.0, s=0.0, a=2.0), (1.0, 1.5, 0.15, 2.0, True), [
        0.46843272577279654, 1.0398963527427203, 2.1766301826865067]),
    ("L62", dict(k=0.0, s=-2.5, a=2.0), (0.25, -1.75, 0.15, 2.0, True), [
        0.033147960689362585, 0.04371957676396372,
        0.054384813257043585]),
    ("L63", dict(k=0.0, a=-1.0), (-0.5, None, 0.15, -1.0, True), [
        2.1347819716306184e-06, 1.5095188084947983e-06,
        1.0673909858153092e-06]),
    ("L64", dict(k=0.0), (0.25, None, 0.15, 0.25, True), [
        0.046232686873559276, 0.05494556310129032, 0.06532707528603295]),
    ("L65", dict(s=0.0), (0.25, None, 0.15, 0.25, True), [
        0.036550744785721526, 0.04343899204467093, 0.05164643255803767]),
    ("L66", dict(k=0.0, a=2.0), (-2.0, None, 0.15, 2.0, True), [
        9.976209952259696e-07, 2.494047227802357e-07,
        6.235116425760817e-08]),
    ("L67", dict(s=0.0, a=2.0), (-2.0, None, 0.15, 2.0, True), [
        1.6626953270363494e-07, 4.156738317537256e-08,
        1.039184579385091e-08]),
    ("L68", dict(s=-0.5, a=-1.0), (-2.75, None, 0.2, -1.0, True), [
        4.745376510334317e-09, 7.036694170925594e-10,
        1.046277207143461e-10]),
]


@pytest.mark.parametrize("lemma, kwargs, fields, norms", REPORT_PINS)
def test_ladder_reports_pinned(lemma, kwargs, fields, norms):
    rep = ladder_report(lemma, Ns=(64, 128, 256), **kwargs)
    assert rep["norms"] == norms
    assert (rep["predicted"], rep["rho"], rep["tol"], rep["a"],
            rep["pass"]) == fields


# every HypothesisError guard with its exact message
GUARD_MESSAGES = [
    (("L61", 8), dict(a=2.0), "ladder requires N >= 16"),
    (("L61", 64), dict(), "L61 needs a outside {0,1}"),
    (("L61", 64), dict(a=1), "L61 needs a outside {0,1}"),
    (("L62", 64), dict(a=0), "L62 needs a outside {0,1}"),
    (("L62", 64), dict(k=4.0, a=0.8),
     "L62 phase positivity fails for a=0.8, b=0.9"),
    (("L62", 64), dict(k=0.0, s=-1.8, a=2.0),
     "L62 bracket (s+1/2, k-3/2) is empty at (k,s)=(0,-1.8); "
     "pass rho explicitly"),
    (("L63", 64), dict(a=1), "L63 needs a outside {0,1}"),
    # one node pair of the support has exactly zero phase at this a
    (("L63", 64), dict(a=1386.9999999999977),
     "L63 phase floor fails at delta=0.05"),
    (("L64", 64), dict(a=0.5), "L64 requires a = 1/4"),
    (("L65", 64), dict(a=0.5), "L65 requires a = 1/4"),
    (("L66", 64), dict(a=0.2), "L66 needs a > 1/4, a != 1"),
    (("L66", 64), dict(a=1.0), "L66 needs a > 1/4, a != 1"),
    (("L67", 64), dict(), "L67 needs a > 1/4, a != 1"),
    (("L68", 64), dict(a=-0.125), "L68 needs a < 1/4 outside {-1/8, 0}"),
    (("L68", 64), dict(a=0.5), "L68 needs a < 1/4 outside {-1/8, 0}"),
]


@pytest.mark.parametrize("args, kwargs, message", GUARD_MESSAGES)
def test_guard_messages_pinned(args, kwargs, message):
    with pytest.raises(HypothesisError) as exc:
        build(*args, **kwargs)
    assert str(exc.value) == message


def test_phase_regime_messages_pinned():
    spec = build("L64", 64)
    spec = spec._replace(t=10.0)
    with pytest.raises(HypothesisError) as exc:
        check_phase_regime(spec)
    assert str(exc.value) == ("L64_quarter_s: bounded-phase check failed, "
                              "max|t*Phi|=15 > 0.1")
    spec = build("L61", 64, a=2.0)
    spec = spec._replace(t=1.0)
    with pytest.raises(HypothesisError) as exc:
        check_phase_regime(spec)
    assert str(exc.value) == ("L61_s_le_k3: large-phase coherence failed, "
                              "max|t*Phi|=2.62e+05")
    with pytest.raises(ValueError) as exc:
        predicted_slope("L62")
    assert str(exc.value) == "L62 prediction needs rho"
