"""Local model problem at the stationary point: explicit parabolic-cylinder
solution, connection coefficients and jump verification.

With nu = nu(xi), kappa = r(xi) rbreve(xi) (so 1 - kappa = e^{-2 pi nu}) and
the scaled jump data

    rho     = r(xi)      delta0^{-2} (8t)^{+i nu} e^{-i x^2/(4t)}
    rho_hat = rbreve(xi) delta0^{+2} (8t)^{-i nu} e^{+i x^2/(4t)}

the matrix Psi(zeta) built below is analytic off the real axis, satisfies
Psi_+ = Psi_- V on R (limits from above/below) with the constant jump

    V = [[1 - kappa, -rho_hat], [rho, 1]],

and is normalized by Psi ~ zeta^{i nu sigma3} e^{-i zeta^2/4 sigma3} in the
sectors around the imaginary axis.  Its large-zeta (1,2) coefficient gives

    beta1 = sqrt(2 pi) e^{i pi/4} e^{-pi nu/2} / (rho Gamma(-i nu)),

the quantity the leading long-time term is made of, and beta2 = nu/beta1.
Both betas are evaluated through pole-free rearrangements, so the
reflectionless limit r -> 0 or rbreve -> 0 is exact rather than a 0/0:
beta1 carries the entire 1/Gamma(1 - i nu) (`rgamma`, a Lanczos series) and
beta2 Gamma(1 - i nu), its reciprocal, whose poles lie at Im nu <= -1, far
outside the validity band |Im nu| < 1/4.  The entries of Psi are the D_a of
`weber.weber_D`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadInput, NonpositiveTime
from .weber import weber_D

_SQRT2PI = math.sqrt(2.0 * math.pi)
_PIQ = 0.25j * math.pi          # i pi/4
# Lanczos series with g = 7 and 9 terms (Lanczos, SIAM J. Numer. Anal. B 1 (1964) 86)
_LANCZOS = (0.99999999999980993, 676.5203681218851, -1259.1392167224028,
            771.32342877765313, -176.61502916214059, 12.507343278686905,
            -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7)


def _positive_time(t):
    """Refuse unless every t is > 0 (a NaN is refused too)."""
    bad = ~(np.asarray(t) > 0)
    if bad.any():
        raise NonpositiveTime(f"t must be positive, got {np.asarray(t)[bad][0]}")


def rgamma(z):
    """1/Gamma(z), entire, elementwise: the Lanczos series for Re z >= 1/2,
    reflection below."""
    z = np.asarray(z, dtype=complex)
    left = z.real < 0.5
    u = np.where(left, 1.0 - z, z) - 1.0
    s = _LANCZOS[0]
    for k in range(1, 9):
        s = s + _LANCZOS[k] / (u + k)
    t = u + 7.5    # u + g + 1/2
    lanczos = np.exp(t - (u + 0.5) * np.log(t)) / (_SQRT2PI * s)
    return np.where(left, np.sin(math.pi * z) / (math.pi * lanczos), lanczos)[()]


def nu_over_w(nu, w):
    """nu / (r rbreve) continued through w = 0, elementwise.

    nu = -log(1 - w)/(2 pi) makes this -log(1-w)/(2 pi w), analytic at w = 0
    with value 1/(2 pi); the series is used below |w| = 1e-4.
    """
    w = np.asarray(w, dtype=complex)
    big = np.abs(w) > 1e-4
    s = 1.0 + w * (0.5 + w * (1.0 / 3.0 + w * (0.25 + w / 5.0)))
    return np.where(big, nu / np.where(big, w, 1.0), s / (2.0 * math.pi))[()]


@dataclass
class ModelCoefficients:
    nu: complex
    r_xi: complex
    r_breve_xi: complex
    rho: complex
    rho_hat: complex
    beta1: complex
    beta2: complex


def connection_coefficients(phase, t) -> ModelCoefficients:
    """Scaled jump data and the explicit-solution coefficients beta1, beta2 of the
    `phase.PhaseData` at xi, with its `ray_factors`; elementwise over a batch of rays
    and times t, whose coefficients are arrays.

    t > 0 is required; the reflectionless degeneracies are handled by the
    stabilized products (see module docstring), never by dividing by r(xi).
    """
    _positive_time(t)
    r_xi, r_breve_xi, delta0, xi = phase.r_xi, phase.r_breve_xi, phase.delta0, phase.xi
    nu = phase.nu_at_xi
    rg, nw = phase.ray_factors
    phase_t = np.exp(1j * nu * np.log(8.0 * t))    # (8t)^{i nu}
    osc = np.exp(-4j * t * xi * xi)                 # e^{-i x^2/(4t)}, x = -4 t xi
    rho = r_xi * delta0 ** -2 * phase_t * osc
    rho_hat = r_breve_xi * delta0 ** 2 / phase_t / osc
    # beta1 = sqrt(2pi) e^{i pi/4 - pi nu/2} / (rho Gamma(-i nu)), stabilized
    # through 1/Gamma(-i nu) = -i nu / Gamma(1 - i nu) and nu/r = rbreve*(nu/w),
    # with the entire 1/Gamma(1 - i nu):
    core = _SQRT2PI * np.exp(_PIQ - math.pi * nu / 2.0) * rg
    beta1 = core * (-1j) * r_breve_xi * nw * delta0 ** 2 / phase_t / osc
    # beta2 = nu/beta1 in the same pole-free style; Gamma(1 - i nu) = 1/rg
    # exactly, its poles lying at Im nu <= -1
    beta2 = (1j * rho / rg
             * np.exp(math.pi * nu / 2.0 - _PIQ) / _SQRT2PI)
    return ModelCoefficients(nu, r_xi, r_breve_xi, rho, rho_hat, beta1, beta2)


def jump_matrix(coeffs: ModelCoefficients) -> np.ndarray:
    """Constant jump V of the model problem across the real zeta axis."""
    kappa = coeffs.r_xi * coeffs.r_breve_xi
    return np.array(
        [[1.0 - kappa, -coeffs.rho_hat], [coeffs.rho, 1.0]], dtype=complex
    )


def psi(zeta, coeffs: ModelCoefficients) -> np.ndarray:
    """The explicit model solution Psi(zeta) as a 2x2 array, for Im zeta != 0.

    The sector constants follow the half-plane of zeta.  Diagonal entries
    are single parabolic-cylinder values; the off-diagonal ones use the
    first-order system, reduced by the ladder identity to neighboring
    orders so that no division by beta can occur.
    """
    zeta = complex(zeta)
    if zeta.imag == 0.0:
        raise BadInput("psi is defined off the real axis; pass Im zeta != 0")
    nu = coeffs.nu
    if zeta.imag > 0:
        c1, p1 = cmath.exp(-0.75j * math.pi), cmath.exp(-0.75 * math.pi * nu)
        c2, p2 = cmath.exp(-0.25j * math.pi), cmath.exp(0.25 * math.pi * nu)
    else:
        c1, p1 = cmath.exp(0.25j * math.pi), cmath.exp(0.25 * math.pi * nu)
        c2, p2 = cmath.exp(0.75j * math.pi), cmath.exp(-0.75 * math.pi * nu)
    a1 = 1j * nu
    P11 = p1 * weber_D(a1, c1 * zeta)
    P22 = p2 * weber_D(-a1, c2 * zeta)
    P21 = 1j * coeffs.beta2 * p1 * c1 * weber_D(a1 - 1.0, c1 * zeta)
    P12 = -1j * coeffs.beta1 * p2 * c2 * weber_D(-a1 - 1.0, c2 * zeta)
    return np.array([[P11, P12], [P21, P22]], dtype=complex)

