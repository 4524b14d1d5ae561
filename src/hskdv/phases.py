"""Total phases of the Hirota-Satsuma system and their factorizations.

The system couples two KdV flows with dispersion coefficients a and 1.
Duhamel integrals in frequency space oscillate with "total phases": the
dispersion of the output frequency minus the dispersions of the input
frequencies, restricted to the convolution hyperplane xi = sum(xi_j).

Quadratic interactions carry the phases

    Phi1u = -a*xi^3 + xi1^3 + xi2^3        (u equation, v*v source)
    Phi2u = a*(-xi^3 + xi1^3 + xi2^3)      (u equation, u*u source)
    Phiv  = -xi^3 + a*xi1^3 + xi2^3        (v equation, u*v source)

and the cubic phases Psi* / Theta arise when a quadratic Duhamel term is
integrated by parts in time and one profile derivative is substituted
back from the equations.

All evaluation is plain double-precision polynomial arithmetic; the
factorization identities are checked through relative residuals.
"""

import math

import numpy as np

QUADRATIC_TAGS = ("Phi1u", "Phi2u", "Phiv")
CUBIC_TAGS = ("Psi1u", "Psi2u", "Psi1v", "Psi2v", "Psi3v", "Psi4v", "Theta")
ALL_TAGS = QUADRATIC_TAGS + CUBIC_TAGS


class PhaseFloorError(RuntimeError):
    """A total phase came closer to zero than its stated floor."""


class Coefficients:
    """System parameters (a, beta, gamma, theta).

    a is the real dispersion ratio between the two components; beta,
    gamma, theta are the (possibly complex) coupling scalars. All four
    must be nonzero. a = 1 is storable but rejected by theory-facing
    code paths.
    """

    def __init__(self, a, beta=1.0, gamma=1.0, theta=1.0):
        if a == 0:
            raise ValueError("dispersion ratio a must be nonzero")
        if beta == 0 or gamma == 0 or theta == 0:
            raise ValueError("coupling coefficients must be nonzero")
        self.a = float(a)
        self.beta = complex(beta)
        self.gamma = complex(gamma)
        self.theta = complex(theta)

    def is_real(self):
        return (self.beta.imag == 0 and self.gamma.imag == 0
                and self.theta.imag == 0)

    def __repr__(self):
        return ("Coefficients(a=%r, beta=%r, gamma=%r, theta=%r)"
                % (self.a, self.beta, self.gamma, self.theta))


class PhaseId:
    """Identifier for one of the total phases.

    arity is the number of free frequencies: 2 for the quadratic phases,
    3 for the cubic ones. The output frequency is always the sum of the
    free ones and is never passed explicitly.
    """

    def __init__(self, tag):
        if tag not in ALL_TAGS:
            raise ValueError("unknown phase tag %r" % (tag,))
        self.tag = tag
        self.arity = 2 if tag in QUADRATIC_TAGS else 3

    def __repr__(self):
        return "PhaseId(%r)" % (self.tag,)

    def __eq__(self, other):
        return isinstance(other, PhaseId) and other.tag == self.tag

    def __hash__(self):
        return hash(self.tag)


def eval_phase(pid, a, freqs):
    """Evaluate a total phase at the given free frequencies.

    Conventions for the free-frequency tuples:
      quadratic tags: (xi1, xi2), output xi = xi1 + xi2
      Psi1u, Psi1v, Psi2v: (xi11, xi12, xi2), with xi1 = xi11 + xi12
      Psi2u, Psi3v, Psi4v: (xi1, xi21, xi22), with xi2 = xi21 + xi22
      Theta: (xi2, xi11, xi12)

    Accepts scalars or numpy arrays (broadcast elementwise).
    """
    if isinstance(pid, str):
        pid = PhaseId(pid)
    if len(freqs) != pid.arity:
        raise ValueError("phase %s takes %d frequencies, got %d"
                         % (pid.tag, pid.arity, len(freqs)))
    fr = [np.asarray(f, dtype=float) for f in freqs]
    for f in fr:
        if not np.all(np.isfinite(f)):
            raise ValueError("non-finite frequency input")
    a = float(a)

    if pid.tag in QUADRATIC_TAGS:
        x1, x2 = fr
        xi = x1 + x2
        if pid.tag == "Phi1u":
            return -a * xi ** 3 + x1 ** 3 + x2 ** 3
        if pid.tag == "Phi2u":
            return a * (-xi ** 3 + x1 ** 3 + x2 ** 3)
        return -xi ** 3 + a * x1 ** 3 + x2 ** 3  # Phiv

    if pid.tag == "Theta":
        x2, x11, x12 = fr
        xi = x2 + x11 + x12
        return -xi ** 3 + x2 ** 3 + x11 ** 3 + x12 ** 3

    if pid.tag in ("Psi1u", "Psi1v", "Psi2v"):
        x11, x12, x2 = fr
        xi = x11 + x12 + x2
        if pid.tag == "Psi1u":
            return -a * xi ** 3 + x2 ** 3 + a * x11 ** 3 + x12 ** 3
        if pid.tag == "Psi1v":
            return -xi ** 3 + x2 ** 3 + x11 ** 3 + x12 ** 3
        return -xi ** 3 + x2 ** 3 + a * x11 ** 3 + a * x12 ** 3  # Psi2v

    # Psi2u, Psi3v, Psi4v share the (xi1, xi21, xi22) convention.
    x1, x21, x22 = fr
    xi = x1 + x21 + x22
    if pid.tag == "Psi2u":
        return -a * xi ** 3 + x1 ** 3 + a * x21 ** 3 + x22 ** 3
    # Psi3v and Psi4v agree as polynomials; they differ only in the
    # frequency region they are integrated over.
    return -xi ** 3 + a * x1 ** 3 + a * x21 ** 3 + x22 ** 3


def mu(a):
    """Root parameter of the Phi1u factorization for a >= 1/4.

    For a >= 1/4 the quadratic factor of Phi1u has real roots
    xi1 = mu(a)*xi and xi1 = (1-mu(a))*xi, with

        mu(a) = 1/2 + sqrt(3*(4a-1))/6.

    mu(1/4) = 1/2 is the double-root case.
    """
    a = float(a)
    if a < 0.25:
        raise ValueError("mu(a) requires a >= 1/4, got a=%g" % a)
    return 0.5 + math.sqrt(3.0 * (4.0 * a - 1.0)) / 6.0


def phase_floor(a):
    """Cubic lower-bound constant for Phi1u when a < 1/4.

    For a < 1/4 (a != 0) the quadratic factor 3p^2 - 3p + (1-a) of
    Phi1u/xi^3 is bounded below by its vertex value 1/4 - a > 0, so

        |Phi1u(xi1, xi2)| >= (1/4 - a) * |xi|^3     for all xi1, xi2.
    """
    a = float(a)
    if a >= 0.25:
        raise ValueError("phase_floor requires a < 1/4, got a=%g" % a)
    if a == 0:
        raise ValueError("phase_floor requires a != 0")
    return 0.25 - a


def _factored_value(pid, a, freqs):
    tag = pid.tag
    if tag == "Phi1u":
        # 3*xi*(xi1 - mu*xi)*(xi1 - (1-mu)*xi), real roots need a >= 1/4
        x1, x2 = (np.asarray(f, dtype=float) for f in freqs)
        xi = x1 + x2
        m = mu(a)
        return 3.0 * xi * (x1 - m * xi) * (x1 - (1.0 - m) * xi)
    if tag == "Phiv":
        # Phiv(xi, xi1, xi2) = Phi1u evaluated at free freqs (-xi, xi2)
        x1, x2 = (np.asarray(f, dtype=float) for f in freqs)
        xi = x1 + x2
        return eval_phase(PhaseId("Phi1u"), a, (-xi, x2))
    if tag == "Theta":
        x2, x11, x12 = (np.asarray(f, dtype=float) for f in freqs)
        return -3.0 * (x2 + x11) * (x2 + x12) * (x11 + x12)
    raise ValueError("no factored form for phase %s" % tag)


def factorization_residual(pid, a, freqs):
    """Relative residual |direct - factored| / (1 + |direct|).

    Supported tags: Phi1u (root-product form, a >= 1/4), Phiv (via the
    reflection identity to Phi1u, any a), Theta (triple-product form).
    Exact algebra means the result is pure round-off.
    """
    if isinstance(pid, str):
        pid = PhaseId(pid)
    direct = eval_phase(pid, a, freqs)
    factored = _factored_value(pid, a, freqs)
    return np.abs(direct - factored) / (1.0 + np.abs(direct))
