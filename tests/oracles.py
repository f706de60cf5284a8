"""Test-only oracles: residuals and point values that check the package from outside.

None of these is on a command's path; the tests import them from here.

    weber_residual    Weber-equation residual of weber_D on a 5-point stencil
    psi_normalizer    the large-zeta normalization of the model solution Psi
    row_ode_residual  Weber-type residual of both rows of Psi
    nu_at             nu(s) at one point of a SpectralContext
    delta             delta(z) off the cut, by the quad oracle
"""

import cmath

import numpy as np

from nonlocal_nls.errors import CutEvaluation
from nonlocal_nls.model import ModelCoefficients, psi
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
