"""Exception taxonomy for the nonlocal-NLS toolkit."""


class NonlocalNLSError(Exception):
    """Base class for all toolkit errors."""


class BadInput(NonlocalNLSError):
    """Malformed configuration or potential descriptor."""


class IntegratorDivergence(NonlocalNLSError):
    """Step control failed to reach the requested tolerance."""


class TruncationTooSmall(NonlocalNLSError):
    """Potential tail outside the integration window is not negligible."""


class GenericityViolation(NonlocalNLSError):
    """a(z) nearly vanishes or 1 - r(z) rbreve(z) nearly vanishes."""


class NotPiecewiseConstant(NonlocalNLSError):
    """Exact transfer-matrix route requires a box potential."""


class BranchViolation(NonlocalNLSError):
    """Unwrapped arg(1 - r rbreve) reached +-pi; log branch ill-defined."""


class CutEvaluation(NonlocalNLSError):
    """delta(z) requested on its branch cut (-inf, xi]."""


class QuadratureFailure(NonlocalNLSError):
    """Adaptive quadrature exceeded its budget or error estimate."""


class NonpositiveTime(NonlocalNLSError):
    """Operation requires t > 0."""


class OutOfValidityBox(NonlocalNLSError):
    """Parabolic-cylinder evaluation outside the supported (a, eta) box."""


class SeriesNonConvergence(NonlocalNLSError):
    """Parabolic-cylinder evaluation (mpmath) did not converge."""


class RouteDisagreement(NonlocalNLSError, ArithmeticError):
    """The alpha and beta1 routes of the leading term disagree."""


class ValidityViolation(NonlocalNLSError):
    """Asymptotic formula requested where |Im nu(xi)| >= 1/4."""


class WindowExceeded(NonlocalNLSError):
    """Stationary point falls outside the interior of the spectral grid."""


class BoundaryContamination(NonlocalNLSError):
    """The PDE field reached the outer band of its box or the top half of its spectrum."""


class StepTooLarge(NonlocalNLSError):
    """Time step does not resolve the flow: dt k_sig^2 > 0.5 for the fastest
    populated mode, or a nonlinear phase above 1 rad in one step."""


class MissingInputs(NonlocalNLSError):
    """Report stage invoked before the inputs it consumes exist."""
