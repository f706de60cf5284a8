"""Parabolic cylinder function D_a(eta) for complex order and argument.

Whittaker normalization: D_a(0) = 2^{a/2} sqrt(pi) / Gamma((1-a)/2) and
D_a(eta) ~ eta^a e^{-eta^2/4} as eta -> infinity inside |arg eta| < 3pi/4.

Values come from `mpmath.pcfd` at 15 significant digits over the supported
box |a| <= 10, |eta| <= 50.  mpmath combines the confluent hypergeometric
representations itself and raises its working precision internally when
the terms cancel, so the recessive solution stays accurate along the whole
negative axis (e.g. D_1(-12) = -12 e^{-36}), where any mix of Weber
solutions would still satisfy the Weber equation.  mpmath is imported on
the first evaluation, so only the paths that evaluate D_a load it.
"""

from __future__ import annotations

from .errors import OutOfValidityBox, SeriesNonConvergence

BOX_ORDER = 10.0
BOX_ARG = 50.0


def _D(a, eta) -> complex:
    import mpmath as mp
    from mpmath.libmp import NoConvergence
    try:
        with mp.workdps(15):
            return complex(mp.pcfd(a, eta))
    except NoConvergence as exc:
        raise SeriesNonConvergence(f"D_{a}({eta}): {exc}") from exc


def _check_box(a: complex, eta: complex):
    if not (abs(a) <= BOX_ORDER + 1e-12 and abs(eta) <= BOX_ARG + 1e-12):
        raise OutOfValidityBox(f"(a, eta) = ({a}, {eta}) outside supported box")


def weber_D(a, eta) -> complex:
    """Parabolic cylinder D_a(eta), complex order and argument."""
    a = complex(a)
    eta = complex(eta)
    _check_box(a, eta)
    return _D(a, eta)

