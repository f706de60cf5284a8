"""Numerical toolkit for the nonlocal NLS equation: direct scattering,
steepest-descent phase functions, the parabolic-cylinder model problem,
closed-form long-time asymptotics, and a split-step spectral oracle."""

from . import errors
from .asymptotics import alpha, q_asymptotic
from .model import ModelCoefficients, connection_coefficients, jump_matrix, psi
from .pde import FieldSnapshot, evolve, spectral_interpolate
from .phase import PhaseData, beta, delta_boundary, phase_data, stationary_point
from .potentials import Potential
from .scattering import (GenericityReport, ScatteringData, check_genericity,
                         compute_scattering, exact_box_scattering)
from .weber import weber_D

__version__ = "0.1.0"

__all__ = [
    "FieldSnapshot", "GenericityReport", "ModelCoefficients", "PhaseData",
    "Potential", "ScatteringData", "alpha", "beta", "check_genericity",
    "compute_scattering", "connection_coefficients", "delta_boundary", "errors",
    "evolve", "exact_box_scattering", "jump_matrix", "phase_data", "psi",
    "q_asymptotic", "spectral_interpolate", "stationary_point", "weber_D",
]
