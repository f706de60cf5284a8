"""Leading long-time behavior along rays xi = -x/(4t).

Two algebraically identical routes are computed and cross-checked:

    q_leading = 2 beta1 / sqrt(8 t)           (model coefficients)
    q_leading = alpha(xi) t^{Im nu - 1/2}     (closed form)

with

    alpha(xi) = sqrt(pi) e^{-pi nu/2 + i pi/4 + 4 i t xi^2} t^{-i Re nu}
                * delta0(xi)^2 8^{-i nu} / (r(xi) Gamma(-i nu)),

evaluated through the same pole-free rearrangement as beta1, so the
reflectionless limit gives exactly zero.  |alpha| is t-independent; the
whole t-dependence of alpha is the unimodular phase e^{4 i t xi^2} t^{-i Re nu}.

The formula is trusted only while |Im nu(xi)| < 1/4: at +1/4 the leading
term would be overtaken by the O(t^{-3/4}) remainder (and the mirrored
threshold is refused symmetrically); inside a 0.02-wide band below the
threshold the evaluation is flagged "marginal".

Each evaluation reads one `PhaseData`: nu(xi), delta0(xi), r(xi) and rbreve(xi),
the inputs of the model problem at the stationary point.  `_serves` is the one
rule for which xi the formula serves; the config applies it to its rays and the
CLI to its queries before one sweep of the phase data at their distinct xi.  The
factors 1/Gamma(1 - i nu) and nu/(r rbreve) depend on xi alone and are computed
once per `PhaseData` (`PhaseData.ray_factors`).  Every function here is
elementwise: a batch PhaseData and an array of t give arrays, one ray and a float
t give scalars, through the same body.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import RouteDisagreement, ValidityViolation
from .model import _positive_time, connection_coefficients
from .phase import PhaseData

IM_NU_LIMIT = 0.25
MARGIN = 0.02


def _serves(z_lo: float, z_hi: float, xi):
    """Whether the ray formula serves xi on the window [z_lo, z_hi], elementwise: at
    least 1% of its width inside either end, with [xi - 1, xi] on the grid (delta0's
    range); a NaN is never served.  The config's rays and every query obey this one
    rule."""
    pad = 0.01 * (z_hi - z_lo)
    return (z_lo + pad <= xi) & (xi <= z_hi - pad) & (z_lo <= xi - 1.0)


def _refused(nu):
    """Where the Im nu gate refuses the ray formula: |Im nu| >= IM_NU_LIMIT."""
    return np.abs(np.imag(nu)) >= IM_NU_LIMIT


def alpha(phase: PhaseData, t):
    """Ray amplitude alpha(xi); pure phase in t, refused outside validity."""
    _positive_time(t)
    nu = phase.nu_at_xi
    _gate(nu)
    rg, nw = phase.ray_factors
    # sqrt(pi) e^{-pi nu/2 + i pi/4 + 4 i t xi^2} t^{-i Re nu} delta0^2 8^{-i nu}
    #   * (-i) rbreve(xi) (nu/w) / Gamma(1 - i nu); e^{4 i t xi^2} is its own
    # exponential with the bits of the beta1 route's e^{-4 i t xi^2}, since one
    # ulp of 4 t xi^2 (4.7e-10 at t = 2560, xi = 14) would split the routes
    xi = phase.xi
    phase_factor = (np.exp(4j * t * xi * xi)
                    * np.exp(1j * (0.25 * math.pi - nu.real * np.log(t))))
    return (
        math.sqrt(math.pi)
        * np.exp(-math.pi * nu / 2.0)
        * phase_factor
        * phase.delta0 ** 2
        * np.exp(-1j * nu * math.log(8.0))
        * (-1j)
        * phase.r_breve_xi
        * nw
        * rg
    )


def _gate(nu):
    """"valid" or "marginal" per ray; ValidityViolation if any ray is refused."""
    im = np.asarray(nu).imag
    refused = _refused(nu)
    if refused.any():
        raise ValidityViolation(
            f"Im nu = {im[refused][0]:.4f}; leading term not separated from the "
            f"O(t^-3/4) remainder at |Im nu| >= {IM_NU_LIMIT}"
        )
    return np.where(np.abs(im) < IM_NU_LIMIT - MARGIN, "valid", "marginal")


def q_asymptotic(phase: PhaseData, t):
    """(q, validity) of the leading term on the ray xi = phase.xi = -x/(4t); validity
    is "valid" or "marginal", and ValidityViolation refuses the ray (a batch, if it
    refuses any of its rays).

    Both the alpha route and the 2 beta1/sqrt(8t) route are computed; they
    are the same algebra regrouped, and their agreement (1e-10, on every element)
    guards the assembly, not the mathematics.  The t >= t_min rule is the input's:
    the config checks its times and `io.read_queries` each query.
    """
    nu = phase.nu_at_xi
    validity = _gate(nu)

    q_model = 2.0 * connection_coefficients(phase, t).beta1 / np.sqrt(8.0 * t)

    a = alpha(phase, t)
    # t-power e^{(Im nu - 1/2) log t} in a single exponential
    q_closed = a * np.exp((nu.imag - 0.5) * np.log(t))

    scale = np.maximum(np.maximum(np.abs(q_model), np.abs(q_closed)), 1e-300)
    split = np.abs(q_model - q_closed) > 1e-10 * scale
    if split.any():
        i = np.flatnonzero(split)[0]
        raise RouteDisagreement(
            "alpha-route and beta1-route disagree: "
            f"{np.ravel(q_model)[i]} vs {np.ravel(q_closed)[i]}"
        )
    return q_model[()], validity[()]
