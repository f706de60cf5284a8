import cmath
import math

import numpy as np
import pytest
from scipy.special import gamma as scipy_gamma
from scipy.special import rgamma as scipy_rgamma

from nonlocal_nls import (
    connection_coefficients,
    jump_matrix,
    phase_data,
    psi,
)
from nonlocal_nls.errors import BadInput
from nonlocal_nls.model import rgamma
from nonlocal_nls.phase import PhaseData, SpectralContext

from oracles import psi_normalizer, row_ode_residual


def model_coefficients(r, r_breve, nu, delta0, xi, t):
    """connection_coefficients of prescribed phase data at xi."""
    return connection_coefficients(PhaseData(
        xi=float(xi), nu_at_xi=complex(nu), delta0=complex(delta0), r_xi=complex(r),
        r_breve_xi=complex(r_breve)), t)


def coeffs_from(nu, rho_hat_val, t=50.0, xi=0.4, delta0=1.0):
    """Build coefficients from prescribed (nu, rho_hat): r rbreve is pinned
    by 1 - e^{-2 pi nu}, the split between r and rbreve is free."""
    kappa = 1.0 - cmath.exp(-2 * math.pi * nu)
    r_breve = rho_hat_val
    r = kappa / r_breve if r_breve != 0 else 0.0
    return model_coefficients(r, r_breve, nu, delta0, xi, t)


CASES = [
    (0.08 - 0.03j, 0.31 + 0.12j),
    (-0.12 + 0.05j, -0.22 + 0.4j),
    (0.02 + 0.21j, 0.5 - 0.1j),
    (-0.04 + 0.0j, 0.27 + 0.0j),
]


class TestConnectionCoefficients:
    @pytest.mark.parametrize("nu,rh", CASES)
    def test_beta_product_is_nu(self, nu, rh):
        co = coeffs_from(nu, rh)
        assert abs(co.beta1 * co.beta2 - co.nu) < 1e-10

    @pytest.mark.parametrize("nu,rh", CASES)
    def test_beta1_closed_form(self, nu, rh):
        # raw formula (valid away from nu = 0) against the stabilized route
        co = coeffs_from(nu, rh)
        raw = math.sqrt(2 * math.pi) * cmath.exp(1j * math.pi / 4) \
            * cmath.exp(-math.pi * co.nu / 2) / (co.rho * complex(scipy_gamma(-1j * co.nu)))
        assert abs(co.beta1 - raw) < 1e-12 * abs(raw)

    def test_modulus_identity(self):
        co = coeffs_from(-0.05, 0.3)      # real nu
        assert abs(co.beta1) * abs(co.beta2) == pytest.approx(abs(co.nu), rel=1e-12)

    @pytest.mark.parametrize("nu,rh", CASES[:2])
    def test_rho_moduli(self, nu, rh):
        # |rho_hat| = |rbreve| |delta0|^2 e^{+Im nu log 8t},
        # |rho|     = |r|     |delta0|^-2 e^{-Im nu log 8t}
        t = 50.0
        co = coeffs_from(nu, rh, t=t, delta0=0.9 + 0.3j)
        d0 = abs(co.delta0)
        scale = math.exp(nu.imag * math.log(8 * t))
        assert abs(co.rho_hat) == pytest.approx(
            abs(co.r_breve_xi) * d0 ** 2 * scale, rel=1e-12)
        assert abs(co.rho) == pytest.approx(
            abs(co.r_xi) / d0 ** 2 / scale, rel=1e-12)

    def test_degenerate_reflectionless_limit(self):
        # rbreve -> 0 with r fixed: beta1 -> 0 and beta2 stays finite
        co = model_coefficients(0.3, 0.0, 0.0, 1.0, 0.4, 50.0)
        assert co.beta1 == 0
        assert abs(co.beta2) > 0
        assert co.beta1 * co.beta2 == 0

    def test_degenerate_against_triangular_rhp(self):
        # pure upper-triangular jump has the explicit solution
        # beta1 = rho_hat e^{-i pi/4} / sqrt(2 pi)
        t, xi = 37.0, 0.3
        co = model_coefficients(0.0, 0.25 + 0.1j, 0.0, 1.0, xi, t)
        expected = co.rho_hat * cmath.exp(-1j * math.pi / 4) / math.sqrt(2 * math.pi)
        assert abs(co.beta1 - expected) < 1e-14
        assert co.beta2 == 0

    def test_small_nu_continuity(self):
        # the |w| < 1e-4 series branch must join the direct branch smoothly:
        # beta1 is r-breve-proportional with an O(w) correction, so values on
        # either side of the switch differ by O(|w|) only
        vals = []
        for scale in (0.9e-4, 1.1e-4):
            kappa = scale * (0.6 + 0.8j)
            nu = -cmath.log(1 - kappa) / (2 * math.pi)
            co = model_coefficients(kappa / 0.3, 0.3, nu, 1.0, 0.4, 50.0)
            vals.append(co.beta1)
        assert abs(vals[0] - vals[1]) < 1e-3 * abs(vals[1])

    def test_pipeline_stability_under_quadrature_refinement(self, box_plus):
        from nonlocal_nls import compute_scattering
        xi, t = 0.0, 100.0
        d1 = compute_scattering(box_plus, np.linspace(-16, 16, 2049))
        d2 = compute_scattering(box_plus, np.linspace(-16, 16, 4097))
        cos = []
        for d in (d1, d2):
            ph = phase_data(SpectralContext(d), xi)
            cos.append(connection_coefficients(ph, t).beta1)
        assert abs(cos[0] - cos[1]) < 1e-8 * abs(cos[1])


class TestPsi:
    @pytest.mark.parametrize("nu,rh", CASES)
    def test_jump_condition(self, nu, rh):
        co = coeffs_from(nu, rh)
        V = jump_matrix(co)
        for zr in (-2.6, -0.9, 0.4, 1.7, 3.1):
            up = psi(complex(zr, 1e-10), co)
            dn = psi(complex(zr, -1e-10), co)
            assert np.abs(up - dn @ V).max() < 1e-6

    def test_reflectionless_is_diagonal(self):
        co = model_coefficients(0.0, 0.0, 0.0, 1.0, 0.4, 50.0)
        z = 0.8 + 0.6j
        M = psi(z, co)
        assert M[1, 0] == 0 and M[0, 1] == 0
        # D_0 diagonal: e^{-+ i zeta^2/4}
        assert M[0, 0] == pytest.approx(cmath.exp(-1j * z * z / 4), rel=1e-12)
        assert M[1, 1] == pytest.approx(cmath.exp(1j * z * z / 4), rel=1e-12)
        assert np.abs(jump_matrix(co) - np.eye(2)).max() == 0

    def test_det_constant_one(self):
        co = coeffs_from(*CASES[0])
        for z in (0.3 + 0.8j, -2 + 0.4j, 1 - 1.2j, 4 + 2j, -3 - 3j):
            M = psi(z, co)
            assert abs(np.linalg.det(M) - 1.0) < 1e-8

    def test_row_ode_residual(self):
        co = coeffs_from(*CASES[1])
        for z in (0.5 + 0.5j, -1 + 1j, 2 - 0.7j, -1.5 - 1.1j):
            assert row_ode_residual(co, z) < 1e-8

    def test_large_zeta_normalization_and_beta1_extraction(self):
        # small balanced data keep |Mhat_-1| ~ |beta1|, |beta2| below the
        # 0.03 needed for the 1e-3 bound at R=30
        co = coeffs_from(2e-4 - 8e-5j, 0.03 + 0.012j)
        for ang in (np.pi / 4, np.pi / 2, 3 * np.pi / 4, -np.pi / 4):
            zeta = 30.0 * cmath.exp(1j * ang)
            M = psi(zeta, co) @ np.linalg.inv(psi_normalizer(zeta, co.nu))
            assert np.abs(M - np.eye(2)).max() < 1e-3
        zeta = 45.0j                  # largest ray inside the weber box
        M = psi(zeta, co) @ np.linalg.inv(psi_normalizer(zeta, co.nu))
        beta1_extracted = 1j * M[0, 1] * zeta
        assert abs(beta1_extracted - co.beta1) < 1e-3 * abs(co.beta1)

    def test_axis_refusal(self):
        co = coeffs_from(*CASES[0])
        assert psi(1j, co).shape == psi(-1j, co).shape == (2, 2)
        with pytest.raises(BadInput):
            psi(0.5, co)


def test_lanczos_rgamma_matches_scipy():
    tol = 64 * np.finfo(float).eps
    # the validity band: z = 1 - i nu, Re nu in [-2.5, 2.5], |Im nu| <= 0.3
    band = [1.0 - 1j * complex(a, b) for a in np.linspace(-2.5, 2.5, 41)
            for b in np.linspace(-0.3, 0.3, 7)]
    # the reflection branch, Re z < 1/2
    left = [0.3 + 0.2j, 0.49, -0.7 + 1.1j, -2.5 - 0.4j, -3.2 + 2.0j, -5.5]
    for z in band + left:
        want = complex(scipy_rgamma(z))
        assert abs(rgamma(z) - want) <= tol * abs(want)
        assert abs(1.0 / rgamma(z) - complex(scipy_gamma(z))) <= tol / abs(want)
    # 1/Gamma vanishes at the poles of Gamma
    assert all(abs(rgamma(-k)) <= tol for k in range(4))
