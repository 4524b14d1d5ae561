import itertools

import numpy as np
import pytest

from hskdv.phases import PHASES, Coefficients, eval_phase, mu, phase_floor


def _identically_zero(f, nvars, degree=3):
    """Whether the polynomial f, of degree <= `degree` in each of its nvars
    variables, is the zero polynomial.

    Exact: f is evaluated in integers on the grid {0, ..., degree}^nvars,
    and such a polynomial that vanishes there is zero (induction on nvars:
    a one-variable polynomial of degree d with d + 1 roots is zero).
    """
    return all(f(*p) == 0 for p in
               itertools.product(range(degree + 1), repeat=nvars))


def test_coefficients_reject_zero():
    with pytest.raises(ValueError):
        Coefficients(0.0)
    with pytest.raises(ValueError):
        Coefficients(0.5, beta=0.0)
    c = Coefficients(0.5, gamma=1j)
    assert not c.is_real()
    assert Coefficients(2.0).is_real()


def test_phase_id_arity():
    assert {tag: len(free) for tag, (free, _) in PHASES.items()} == {
        "Phi1u": 2, "Phi2u": 2, "Phiv": 2, "Psi1u": 3, "Psi2u": 3,
        "Psi1v": 3, "Psi2v": 3, "Psi3v": 3, "Psi4v": 3, "Theta": 3}
    with pytest.raises(ValueError, match="unknown phase tag"):
        eval_phase("Phi9z", 2.0, (1.0, 2.0))
    with pytest.raises(ValueError, match="takes 2 frequencies, got 3"):
        eval_phase("Phi1u", 2.0, (1.0, 2.0, 3.0))


def test_quadratic_values():
    # direct polynomial recomputation at scattered points
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = rng.uniform(-3, 3)
        if a == 0:
            continue
        x1, x2 = rng.uniform(-10, 10, 2)
        xi = x1 + x2
        assert eval_phase("Phi1u", a, (x1, x2)) == pytest.approx(
            -a * xi ** 3 + x1 ** 3 + x2 ** 3)
        assert eval_phase("Phi2u", a, (x1, x2)) == pytest.approx(
            a * (-xi ** 3 + x1 ** 3 + x2 ** 3))
        assert eval_phase("Phiv", a, (x1, x2)) == pytest.approx(
            -xi ** 3 + a * x1 ** 3 + x2 ** 3)


def test_cubic_values():
    a = -0.7
    x11, x12, x2 = 1.3, -2.1, 0.4
    xi = x11 + x12 + x2
    assert eval_phase("Psi1u", a, (x11, x12, x2)) == pytest.approx(
        -a * xi ** 3 + x2 ** 3 + a * x11 ** 3 + x12 ** 3)
    assert eval_phase("Psi1v", a, (x11, x12, x2)) == pytest.approx(
        -xi ** 3 + x2 ** 3 + x11 ** 3 + x12 ** 3)
    assert eval_phase("Psi2v", a, (x11, x12, x2)) == pytest.approx(
        -xi ** 3 + x2 ** 3 + a * x11 ** 3 + a * x12 ** 3)
    x1, x21, x22 = 0.9, -1.1, 2.2
    xi = x1 + x21 + x22
    assert eval_phase("Psi2u", a, (x1, x21, x22)) == pytest.approx(
        -a * xi ** 3 + x1 ** 3 + a * x21 ** 3 + x22 ** 3)
    # Psi3v and Psi4v agree as polynomials
    v3 = eval_phase("Psi3v", a, (x1, x21, x22))
    v4 = eval_phase("Psi4v", a, (x1, x21, x22))
    assert v3 == v4
    assert v3 == pytest.approx(-xi ** 3 + a * x1 ** 3
                               + a * x21 ** 3 + x22 ** 3)


def test_theta_factorization_exact_small():
    # Theta = -3 (xi2+xi11)(xi2+xi12)(xi11+xi12), as polynomials in
    # (a, xi2, xi11, xi12), and exactly in floats at a small integer point
    theta = PHASES["Theta"][1]
    assert _identically_zero(
        lambda a, x2, x11, x12: theta(a, x2, x11, x12)
        + 3 * (x2 + x11) * (x2 + x12) * (x11 + x12), 4)
    assert eval_phase("Theta", 0.3, (2.0, -1.0, 3.0)) == -30.0


def test_shared_rows_agree_exactly():
    # Psi1v is Theta under its own frequency names; Psi3v is Psi4v
    psi1v, theta = PHASES["Psi1v"][1], PHASES["Theta"][1]
    assert _identically_zero(lambda a, x11, x12, x2: psi1v(a, x11, x12, x2)
                             - theta(a, x2, x11, x12), 4)
    psi3v, psi4v = PHASES["Psi3v"][1], PHASES["Psi4v"][1]
    assert _identically_zero(lambda *v: psi3v(*v) - psi4v(*v), 4)


def test_mu_basics():
    assert mu(0.25) == pytest.approx(0.5)
    assert mu(1.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        mu(0.2)
    # mu solves 3 m (1-m) = 1 - a
    for a in (0.25, 0.3, 0.5, 2.0, 4.0):
        m = mu(a)
        assert 3.0 * m * (1.0 - m) == pytest.approx(1.0 - a, abs=1e-12)


def test_phi1u_root_product_form():
    # Phi1u = 3 xi (xi1 - mu xi)(xi1 - (1-mu) xi) whenever
    # 3 mu (1-mu) = 1 - a: a polynomial identity in (mu, xi1, xi2)
    phi1u = PHASES["Phi1u"][1]

    def diff(m, x1, x2):
        xi = x1 + x2
        return (phi1u(1 - 3 * m * (1 - m), x1, x2)
                - 3 * xi * (x1 - m * xi) * (x1 - (1 - m) * xi))

    assert _identically_zero(diff, 3)


def test_phiv_reflection_identity():
    # Phiv(xi1, xi2) = Phi1u at the free frequencies (-xi, xi2)
    phiv, phi1u = PHASES["Phiv"][1], PHASES["Phi1u"][1]
    assert _identically_zero(lambda a, x1, x2: phiv(a, x1, x2)
                             - phi1u(a, -(x1 + x2), x2), 3)


def test_phase_floor_bound():
    rng = np.random.default_rng(13)
    for a in (-2.0, -1.0, -0.125, 0.125):
        c = phase_floor(a)
        assert c == pytest.approx(0.25 - a)
        x1 = rng.uniform(-30, 30, 5000)
        x2 = rng.uniform(-30, 30, 5000)
        xi = x1 + x2
        vals = np.abs(eval_phase("Phi1u", a, (x1, x2)))
        floor = c * np.abs(xi) ** 3
        assert np.all(vals >= floor * (1.0 - 1e-12) - 1e-12)
    with pytest.raises(ValueError):
        phase_floor(0.3)
    with pytest.raises(ValueError):
        phase_floor(0.0)


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        eval_phase("Phi1u", 2.0, (np.nan, 1.0))
