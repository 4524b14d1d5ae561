"""Total phases of the Hirota-Satsuma system.

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

PHASES holds each phase as one row, its free frequencies and its
polynomial in (a, *free); eval_phase evaluates a row in double precision.
The tests check the rows' factorizations exactly and eval_phase against
an exact rational oracle at the same float inputs.
"""

import math

import numpy as np


class PhaseFloorError(RuntimeError):
    """A total phase came closer to zero than its stated floor."""


class Coefficients:
    """System parameters (a, beta, gamma, theta), all real floats.

    a is the dispersion ratio between the two components; beta, gamma,
    theta are the coupling scalars. All four must be nonzero, and a
    coupling with a nonzero imaginary part is a ValueError: the system
    is real. a = 1 is storable but rejected by theory-facing code paths.
    """

    def __init__(self, a, beta=1.0, gamma=1.0, theta=1.0):
        if a == 0:
            raise ValueError("dispersion ratio a must be nonzero")
        if beta == 0 or gamma == 0 or theta == 0:
            raise ValueError("coupling coefficients must be nonzero")
        couplings = [complex(c) for c in (beta, gamma, theta)]
        if any(c.imag != 0 for c in couplings):
            raise ValueError("coupling coefficients must be real, got "
                             "(beta, gamma, theta) = (%r, %r, %r)"
                             % (beta, gamma, theta))
        self.a = float(a)
        self.beta, self.gamma, self.theta = (c.real for c in couplings)

    def __repr__(self):
        return ("Coefficients(a=%r, beta=%r, gamma=%r, theta=%r)"
                % (self.a, self.beta, self.gamma, self.theta))


# Free-frequency conventions; the output frequency xi is their sum.
_Q = ("xi1", "xi2")
_SPLIT_1 = ("xi11", "xi12", "xi2")  # xi1 = xi11 + xi12
_SPLIT_2 = ("xi1", "xi21", "xi22")  # xi2 = xi21 + xi22


def _theta(a, p, q, r):  # symmetric, so Psi1v reuses it
    return -(p + q + r) ** 3 + p ** 3 + q ** 3 + r ** 3


def _psi34v(a, p, q, r):  # Psi3v and Psi4v differ only in their regions
    return -(p + q + r) ** 3 + a * p ** 3 + a * q ** 3 + r ** 3


# tag -> (free frequencies in argument order, polynomial in (a, *free))
PHASES = {
    "Phi1u": (_Q, lambda a, p, q: -a * (p + q) ** 3 + p ** 3 + q ** 3),
    "Phi2u": (_Q, lambda a, p, q: a * (-(p + q) ** 3 + p ** 3 + q ** 3)),
    "Phiv": (_Q, lambda a, p, q: -(p + q) ** 3 + a * p ** 3 + q ** 3),
    "Psi1u": (_SPLIT_1, lambda a, p, q, r: (-a * (p + q + r) ** 3 + r ** 3
                                            + a * p ** 3 + q ** 3)),
    "Psi1v": (_SPLIT_1, _theta),
    "Psi2v": (_SPLIT_1, lambda a, p, q, r: (-(p + q + r) ** 3 + r ** 3
                                            + a * p ** 3 + a * q ** 3)),
    "Psi2u": (_SPLIT_2, lambda a, p, q, r: (-a * (p + q + r) ** 3 + p ** 3
                                            + a * q ** 3 + r ** 3)),
    "Psi3v": (_SPLIT_2, _psi34v),
    "Psi4v": (_SPLIT_2, _psi34v),
    "Theta": (("xi2", "xi11", "xi12"), _theta),
}


def eval_phase(tag, a, freqs):
    """PHASES[tag] at its free frequencies (scalars or broadcast arrays)."""
    if tag not in PHASES:
        raise ValueError("unknown phase tag %r" % (tag,))
    free, poly = PHASES[tag]
    if len(freqs) != len(free):
        raise ValueError("phase %s takes %d frequencies, got %d"
                         % (tag, len(free), len(freqs)))
    fr = [np.asarray(f, dtype=float) for f in freqs]
    if not all(np.all(np.isfinite(f)) for f in fr):
        raise ValueError("non-finite frequency input")
    return poly(float(a), *fr)


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
