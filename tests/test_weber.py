import cmath
import math

import mpmath
import numpy as np
import pytest
from mpmath.libmp import NoConvergence
from scipy.integrate import solve_ivp
from scipy.special import gamma as scipy_gamma

from nonlocal_nls import weber_D
from nonlocal_nls.errors import OutOfValidityBox, SeriesNonConvergence

from oracles import weber_residual

# frozen from the independent Weber-ODE integration oracle (DOP853,
# rtol 1e-13, series initial data at eta = 0)
FROZEN_D = {
    (0.5 + 0.3j, 1.2 - 0.7j): 1.081536898192265 + 0.34154843244757443j,
    (2 - 1j, 3.3 + 1.1j): -1.0411540472888539 - 1.163774119069815j,
    (-1.5 + 0.4j, 2.0 - 2.0j): -0.24090363102981208 - 0.07148771522931069j,
}


def d_ode_oracle(a, eta):
    """Integrate the Weber equation from eta = 0 along the ray to eta."""
    a = complex(a)
    eta = complex(eta)
    y0 = 2 ** (a / 2) * math.sqrt(math.pi) / complex(scipy_gamma((1 - a) / 2))
    dy0 = -(2 ** ((a + 1) / 2)) * math.sqrt(math.pi) / complex(scipy_gamma(-a / 2))
    u = eta / abs(eta)

    def rhs(s, y):
        w = y[0] + 1j * y[1]
        dw = y[2] + 1j * y[3]
        e = s * u
        ddw = (e * e / 4 - 0.5 - a) * w * u * u
        return [dw.real, dw.imag, ddw.real, ddw.imag]

    y0v = [y0.real, y0.imag, (dy0 * u).real, (dy0 * u).imag]
    sol = solve_ivp(rhs, (0.0, abs(eta)), y0v, rtol=1e-13, atol=1e-15,
                    method="DOP853")
    return complex(sol.y[0, -1], sol.y[1, -1])


class TestWeberD:
    def test_order_zero_closed_form(self):
        # D_0(eta) = e^{-eta^2/4}
        assert weber_D(0, 0.0) == pytest.approx(1.0, abs=1e-14)
        assert weber_D(0, 2.0) == pytest.approx(math.exp(-1.0), rel=1e-13)
        eta = 1.3 - 0.8j
        assert weber_D(0, eta) == pytest.approx(cmath.exp(-eta * eta / 4), rel=1e-12)

    def test_order_one_closed_form(self):
        # D_1(eta) = eta e^{-eta^2/4}
        assert weber_D(1, 1.0) == pytest.approx(math.exp(-0.25), rel=1e-13)
        eta = -0.7 + 0.2j
        assert weber_D(1, eta) == pytest.approx(eta * cmath.exp(-eta * eta / 4),
                                                rel=1e-12)

    @pytest.mark.parametrize("key", list(FROZEN_D))
    def test_frozen_ode_oracle_values(self, key):
        a, eta = key
        assert weber_D(a, eta) == pytest.approx(FROZEN_D[key], rel=1e-8)

    def test_ode_oracle_live(self):
        # oracle rays chosen where the target solution is not deep-recessive,
        # so forward ODE integration is well-conditioned
        for a, eta in [(0.3j, 4.0 + 1.0j), (-2.5j, 0.5 - 3.0j),
                       (1.1, 7.5 * np.exp(0.25j * np.pi))]:
            ref = d_ode_oracle(a, eta)
            assert weber_D(a, eta) == pytest.approx(ref, rel=1e-8)

    def test_residual_over_validity_box(self):
        orders = [0.0, 1.0, 0.5 + 0.3j, -2 + 1.5j, 3j, -10j, 10j, 9.5, -9.5]
        mags = [0.3, 2.0, 6.0, 8.0, 12.0, 30.0, 49.9]
        args = [0.0, np.pi / 4, -np.pi / 4, 2.3, -2.3, np.pi]
        worst = 0.0
        for a in orders:
            for m in mags:
                for ph in args:
                    worst = max(worst, weber_residual(a, m * np.exp(1j * ph)))
        assert worst < 1e-8

    def test_sector_continuity(self):
        # values around two circles near |eta| = 6.2 against the ODE oracle
        a = 1.5 - 2.0j
        for r0 in (6.1, 6.3):
            for ph in np.linspace(-np.pi, np.pi, 17):
                eta = r0 * np.exp(1j * ph)
                v1 = weber_D(a, eta)
                v2 = d_ode_oracle(a, eta)
                assert abs(v1 - v2) < 1e-8 * max(1.0, abs(v2))

    @pytest.mark.parametrize("a,eta,ref", [
        (1, -12.0, -12 * math.exp(-36)),
        (2, -10.0, 99 * math.exp(-25)),
        (3, -9.0, -702 * math.exp(-81 / 4)),
    ])
    def test_recessive_on_negative_axis(self, a, eta, ref):
        # D_n(eta) = He_n(eta) e^{-eta^2/4} for integer n >= 0; past
        # |eta| = 6 the dominant Weber solution is e^{+eta^2/4}-large, so
        # any admixture of it shows up here and not in the ODE residual
        assert weber_D(a, eta) == pytest.approx(ref, rel=1e-12)

    def test_validity_box_enforced(self):
        with pytest.raises(OutOfValidityBox):
            weber_D(11j, 1.0)
        with pytest.raises(OutOfValidityBox):
            weber_D(0, 60.0)

    @pytest.mark.parametrize("fn", [weber_D, weber_residual])
    @pytest.mark.parametrize("a,eta", [(float("nan"), 1.0), (0.5, float("nan")),
                                       (0.5, 80.0)])
    def test_validity_box_refuses_nan(self, fn, a, eta):
        with pytest.raises(OutOfValidityBox):
            fn(a, eta)

    def test_no_convergence_is_typed(self, monkeypatch):
        def stall(a, eta):
            raise NoConvergence("hypergeometric sum stalled")

        monkeypatch.setattr(mpmath, "pcfd", stall)
        with pytest.raises(SeriesNonConvergence):
            weber_D(0.5, 1.0)

    def test_derivative_ladder_equivalence(self):
        # three-term recurrence D_{a+1} - eta D_a + a D_{a-1} = 0, the
        # identity behind the ladder form of psi; measured against the
        # derivative a D_{a-1} - (eta/2) D_a it equates
        a, eta = 1.3 + 0.5j, 2.2 - 0.4j
        lo, mid, hi = (weber_D(a + k, eta) for k in (-1, 0, 1))
        assert abs(hi - eta * mid + a * lo) <= 1e-10 * abs(a * lo - (eta / 2) * mid)
