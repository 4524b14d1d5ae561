import json

import numpy as np
import pytest
from scipy.integrate import quad

from hskdv import picard, regions
from hskdv.cli import to_json
from hskdv.phases import eval_phase
from hskdv.sharpness import (LEMMA_TAGS, ExponentFit, HypothesisError,
                             build, canonical_tag, check_phase_regime,
                             evaluate_rung, ladder_report, predicted_slope,
                             run_ladder, verdict)


def test_canonical_tag():
    assert canonical_tag("L61") == "L61_s_le_k3"
    assert canonical_tag("L68_cubic_34") == "L68_cubic_34"
    with pytest.raises(ValueError):
        canonical_tag("L60")


# the family certifying each boundary line of A_a, by the line labels of
# regions.region_planes; no family in the lab certifies k = -3/4, so the
# C^3 verdicts left of it (classify(-1, (-1, 0))) rest on the paper alone
LINE_FAMILY = {
    "s=k+3": "L61_s_le_k3", "s=k-2": "L62_s_ge_km2",
    "s=k/2-3/4": "L63_s_ge_k2_34", "s=k/2+3/8": "L64_quarter_s",
    "k=3/4": "L65_quarter_k", "s=k/2": "L66_agt_s", "k=0": "L67_agt_k",
    "s=-3/4": "L68_cubic_34",
}
UNCERTIFIED = {"k=-3/4"}


def test_every_boundary_line_names_its_family():
    labels = set()
    for a in (2.0, 0.25, -1.0):
        for h in regions.region_planes(a)[0]:
            labels.add(h.label)
            assert (h.label in LINE_FAMILY) != (h.label in UNCERTIFIED)
            if h.label in LINE_FAMILY:
                # L62's rho bracket (s+1/2, k-3/2) is empty at (0, 0)
                build(LINE_FAMILY[h.label], 64, k=0.0, s=-2.5, a=a)
    assert labels == set(LINE_FAMILY) | UNCERTIFIED
    assert sorted(LINE_FAMILY.values()) == sorted(LEMMA_TAGS)


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


def test_l62_bracket_and_positivity():
    # empty amplitude bracket must be stated explicitly
    with pytest.raises(HypothesisError):
        build("L62", 64, k=0.0, s=-1.8, a=2.0)
    spec = build("L62", 64, k=0.0, s=-1.8, a=2.0, rho=-1.0)
    assert spec.aux["rho"] == -1.0
    # nonempty bracket defaults to its midpoint
    spec = build("L62", 64, k=4.0, s=0.0, a=2.0)
    assert spec.aux["rho"] == pytest.approx(0.5 * (0.5 + 2.5))
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
    spec.t = 10.0
    with pytest.raises(HypothesisError):
        check_phase_regime(spec)
    spec = build("L61", 64, a=2.0)
    check_phase_regime(spec)
    spec.t = 1.0                    # phase no longer coherent
    with pytest.raises(HypothesisError):
        check_phase_regime(spec)


def test_evaluate_rung_positive():
    spec = build("L63", 64, k=0.0, a=-1.0)
    val = evaluate_rung(spec)
    assert val > 0.0


def test_run_ladder_needs_three_points():
    with pytest.raises(ValueError):
        run_ladder("L61", Ns=(64, 128), a=2.0)


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
