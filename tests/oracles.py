"""Test-only oracles: residuals and point values that check the package from outside.

None of these is on a command's path; the tests import them from here.

    weber_residual    Weber-equation residual of weber_D on a 5-point stencil
    psi_normalizer    the large-zeta normalization of the model solution Psi
    row_ode_residual  Weber-type residual of both rows of Psi
    nu_at             nu(s) at one point of a SpectralContext
    delta             delta(z) off the cut, by the quad oracle
    q_leading         the ray formula for one ray and one t, in cmath, and
                      REFERENCE_RTOL, the bound of the array path against it
"""

import cmath
import math

import numpy as np

from nonlocal_nls.errors import CutEvaluation
from nonlocal_nls.model import _LANCZOS, ModelCoefficients, psi
from nonlocal_nls.phase import SpectralContext, _cauchy_nu, _finite_point
from nonlocal_nls.weber import _check_box, _D


def weber_residual(a, eta) -> float:
    """Normalized Weber-equation residual on a 5-point stencil.

    Returns |w'' + (a + 1/2 - eta^2/4) w| / ((1 + |a| + |eta|^2/4) max|w|)
    with w'' from the fourth-order central difference of step h = 1e-3
    along the real direction of eta.
    """
    a = complex(a)
    eta = complex(eta)
    _check_box(a, eta)
    h = 1e-3
    w = [_D(a, eta + k * h) for k in (-2, -1, 0, 1, 2)]
    d2 = (-w[0] + 16 * w[1] - 30 * w[2] + 16 * w[3] - w[4]) / (12.0 * h * h)
    res = d2 + (a + 0.5 - eta * eta / 4.0) * w[2]
    scale = (1.0 + abs(a) + abs(eta) ** 2 / 4.0) * max(abs(v) for v in w)
    return abs(res) / scale if scale > 0 else abs(res)


def psi_normalizer(zeta, nu) -> np.ndarray:
    """diag(zeta^{i nu} e^{-i zeta^2/4}, zeta^{-i nu} e^{+i zeta^2/4})."""
    zeta = complex(zeta)
    lg = cmath.log(zeta)
    e = cmath.exp(-0.25j * zeta * zeta)
    d1 = cmath.exp(1j * nu * lg) * e
    return np.array([[d1, 0.0], [0.0, 1.0 / d1]], dtype=complex)


def row_ode_residual(coeffs: ModelCoefficients, zeta) -> float:
    """Weber-type second-order residual of both rows of Psi at zeta.

    Row 1 entries solve w'' = (-i/2 + nu - z^2/4) w, row 2 entries the
    conjugate-sign variant; returns the worst normalized residual.
    """
    zeta = complex(zeta)
    h = 1e-3  # step of the fourth-order central difference
    stack = [psi(zeta + k * h, coeffs) for k in (-2, -1, 0, 1, 2)]
    worst = 0.0
    for (i, j) in ((0, 0), (0, 1), (1, 0), (1, 1)):
        w = [m[i, j] for m in stack]
        d2 = (-w[0] + 16 * w[1] - 30 * w[2] + 16 * w[3] - w[4]) / (12.0 * h * h)
        sign = -0.5j if i == 0 else 0.5j
        res = d2 - (sign + coeffs.nu - zeta * zeta / 4.0) * w[2]
        scale = (1.0 + abs(coeffs.nu) + abs(zeta) ** 2 / 4.0) * max(abs(v) for v in w)
        worst = max(worst, abs(res) / scale if scale > 0 else abs(res))
    return worst


def nu_at(ctx: SpectralContext, s: float) -> complex:
    """nu(s) between grid nodes (cubic in r, rbreve before the log)."""
    ctx._window(s, s)
    return complex(ctx.nu(np.asarray(s)))


def delta(ctx: SpectralContext, xi: float, z: complex) -> complex:
    """delta(z) off the cut (-inf, xi]."""
    z = _finite_point(z)
    if z.imag == 0.0 and z.real <= xi:
        raise CutEvaluation(f"z = {z} lies on the cut (-inf, {xi}]")
    ctx._window(xi, xi)
    return cmath.exp(1j * _cauchy_nu(ctx, xi, z, xi))


def _rgamma(z: complex) -> complex:
    """1/Gamma(z): the Lanczos series (g = 7, 9 terms) for Re z >= 1/2, reflection below."""
    if z.real < 0.5:
        return cmath.sin(math.pi * z) / (math.pi * _rgamma(1.0 - z))
    z -= 1.0
    s = _LANCZOS[0]
    for k in range(1, 9):
        s += _LANCZOS[k] / (z + k)
    t = z + 7.5
    return cmath.exp(t - (z + 0.5) * cmath.log(t)) / (math.sqrt(2.0 * math.pi) * s)


def q_leading(nu, delta0, r_xi, r_breve_xi, xi, t) -> complex:
    """The leading term 2 beta1 / sqrt(8t) on the ray xi at one t, in scalar cmath
    arithmetic: the reference of the elementwise `asymptotics.q_asymptotic`.

    beta1 = sqrt(2 pi) e^{i pi/4 - pi nu/2} (-i) rbreve (nu/w) delta0^2
            / (Gamma(1 - i nu) (8t)^{i nu} e^{-4 i t xi^2}),  w = r rbreve,
    with nu/w continued through w = 0 by its series below |w| = 1e-4.
    """
    w = r_xi * r_breve_xi
    if abs(w) > 1e-4:
        nw = nu / w
    else:
        nw = (1.0 + w * (0.5 + w * (1.0 / 3.0 + w * (0.25 + w / 5.0)))) / (2.0 * math.pi)
    phase_t = cmath.exp(1j * nu * cmath.log(8.0 * t))
    osc = cmath.exp(-4j * t * xi * xi)
    core = (math.sqrt(2.0 * math.pi) * cmath.exp(0.25j * math.pi - math.pi * nu / 2.0)
            * _rgamma(1.0 - 1j * nu))
    beta1 = core * (-1j) * r_breve_xi * nw * delta0 ** 2 / phase_t / osc
    return 2.0 * beta1 / math.sqrt(8.0 * t)


# 18 ulp: the array path and the cmath reference round differently (numpy fuses
# the multiply-adds of a complex product and divides through a reciprocal), and
# the reference's own 1/Gamma is off mpmath's by up to 1.9e-15.  Over 10^6
# uniform draws of the ranges of test_asymptotics._RAYS the largest gap was
# 3.07e-15, and 2.6e-4 of the draws lay above 2e-15
REFERENCE_RTOL = 4e-15
