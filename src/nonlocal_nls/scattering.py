"""Direct scattering transform for the nonlocal Zakharov-Shabat system.

For real spectral z the full normalized Jost matrix of the "minus" solution is
propagated across the truncated support; its value at the right end *is* the
scattering matrix,

    S(z) = Y^-(z, +X) = [[a(z), bbreve(z)], [b(z), abreve(z)]],

because Y^-( -X) = I and the potential vanishes beyond +-X.  Reflection
coefficients are r = b/a and rbreve = bbreve/abreve; for the nonlocal
equation the two are independent functions.

An exact matrix-exponential route for piecewise-constant (box) potentials
serves as the oracle.  The no-discrete-spectrum (genericity) assumption is
judged by `check_genericity` alone, by a small-norm bound where it applies
and otherwise by the argument principle: the turns of a and abreve along
the real grid count their zeros in the upper and lower half-planes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._cf4 import RTOL, _expm_shifted, y_matrix_batch
from .errors import (
    BadInput,
    GenericityViolation,
    IntegratorDivergence,
    NotPiecewiseConstant,
    TruncationTooSmall,
)
from .potentials import Potential

EPS_GENERIC = 1e-6   # floor for |1 - r rbreve|
EPS_A = 1e-8         # floor for |a| on the real grid


def _integration_slack(err):
    """Room a check of computed data leaves for CF4 error: 200 max(err, RTOL)."""
    return 200.0 * max(err, RTOL)


@dataclass(eq=False)
class ScatteringData:
    z_grid: np.ndarray
    a: np.ndarray
    a_breve: np.ndarray
    b: np.ndarray
    b_breve: np.ndarray
    r: np.ndarray
    r_breve: np.ndarray
    truncation_error: float
    potential: Potential | None = field(default=None, repr=False)

    def __post_init__(self):
        if np.any(np.diff(self.z_grid) <= 0):
            raise BadInput("z_grid must be strictly increasing")

    def unimodularity_deviation(self) -> float:
        det = self.a * self.a_breve - self.b * self.b_breve
        return float(np.abs(det - 1.0).max())


def compute_scattering(potential: Potential, z_grid: np.ndarray) -> ScatteringData:
    """Fill a(z), abreve, b, bbreve, r, rbreve over a symmetric real grid.

    S = Y^-(z, X) and Y^-(z, 0) come from the two legs of the accepted CF4
    level.  The determinant-formula value (read off S) is cross-checked
    against the product formula built from first Jost columns at x = 0;
    disagreement beyond tolerance is an integration fault, not a data
    property, and raises IntegratorDivergence.
    """
    z_grid = np.asarray(z_grid, dtype=float)
    if z_grid.ndim != 1 or z_grid.size < 8:
        raise BadInput("z_grid must be a 1-d array with at least 8 points")
    if not np.allclose(z_grid + z_grid[::-1], 0.0, atol=1e-12):
        raise BadInput("z_grid must be symmetric about 0")
    if potential.tail_bound() > 1e-10 * (1.0 + abs(potential.amplitude)):
        raise TruncationTooSmall("potential tail outside [-L, L] too heavy")
    (Y0, S), err = y_matrix_batch(potential, z_grid.astype(complex))
    a, b_breve, b, a_breve = S      # S = Y^-(z, +X)

    # product formula at x = 0: a(z) = Y11(z,0) conj(Y11(-z,0))
    #                                 - sigma Y21(z,0) conj(Y21(-z,0))
    a_prod = (Y0[0] * np.conj(Y0[0][::-1])
              - potential.sigma * Y0[2] * np.conj(Y0[2][::-1]))
    mismatch = float(np.abs(a_prod - a).max())
    if mismatch > _integration_slack(err):
        raise IntegratorDivergence(
            f"determinant/product formulas disagree by {mismatch:.3e}"
        )

    return ScatteringData(
        z_grid=z_grid, a=a, a_breve=a_breve, b=b, b_breve=b_breve,
        r=b / a, r_breve=b_breve / a_breve,
        truncation_error=err, potential=potential,
    )


def exact_box_scattering(box: Potential, z):
    """Scattering coefficients of a box potential from interval exponentials.

    The box support and its mirror cut the line into constant-coefficient
    intervals; the transfer matrix is the ordered product of
    exp(dx (-i z sigma3 + Q_j)) with free phases outside, exact up to
    matrix-exponential roundoff.  Only the closed-form 2x2 exponential,
    tested against scipy.linalg.expm, is shared with the CF4 propagator.
    Returns (a, b, abreve, bbreve).
    """
    if box.kind != "box":
        raise NotPiecewiseConstant(f"kind {box.kind!r} is not piecewise constant")
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    left, right = box.params["left"], box.params["right"]
    pts = box.breakpoints()
    x_start, x_end = pts[0], pts[-1]

    t11 = np.ones_like(z)
    t12 = np.zeros_like(z)
    t21 = np.zeros_like(z)
    t22 = np.ones_like(z)
    A = box.amplitude
    for lo, hi in zip(pts[:-1], pts[1:]):
        mid = 0.5 * (lo + hi)
        q = A if left <= mid <= right else 0.0
        mc = np.conj(A) if left <= -mid <= right else 0.0
        h = hi - lo
        e11, e12, e21, e22 = _expm_shifted(
            -1j * z * h, np.full_like(z, h * q), np.full_like(z, -box.sigma * h * mc)
        )
        t11, t12, t21, t22 = (
            e11 * t11 + e12 * t21,
            e11 * t12 + e12 * t22,
            e21 * t11 + e22 * t21,
            e21 * t12 + e22 * t22,
        )
    # S = e^{i x_end z s3} T e^{-i x_start z s3}
    ep, em = np.exp(1j * x_end * z), np.exp(-1j * x_end * z)
    sp, sm = np.exp(-1j * x_start * z), np.exp(1j * x_start * z)
    a = ep * t11 * sp
    b_breve = ep * t12 * sm
    b = em * t21 * sp
    a_breve = em * t22 * sm
    if scalar:
        return complex(a[0]), complex(b[0]), complex(a_breve[0]), complex(b_breve[0])
    return a, b, a_breve, b_breve


@dataclass
class GenericityReport:
    min_abs_a: float
    min_abs_one_minus_rr: float
    winding: int
    winding_breve: int
    contour_radius: float
    a_pass: bool
    rr_pass: bool
    winding_pass: bool
    route: str
    bound: float

    @property
    def passed(self) -> bool:
        return self.a_pass and self.rr_pass and self.winding_pass

    def refusal(self) -> str:
        """The verdict of a failed report in words: each failed floor or count, and the route."""
        why = [text for text, ok in (
            (f"|a| reaches {self.min_abs_a:.3e} (floor {EPS_A:g})", self.a_pass),
            (f"|1 - r rbreve| reaches {self.min_abs_one_minus_rr:.3e} "
             f"(floor {EPS_GENERIC:g})", self.rr_pass),
            (f"a has {self.winding} zero(s) in Im z > 0 and abreve "
             f"{self.winding_breve} in Im z < 0", self.winding_pass)) if not ok]
        return f"discrete spectrum not excluded (route {self.route}): " + "; ".join(why)


def _turns(f):
    """Whole turns of f along the grid, closed through the principal arg at both ends."""
    arg = np.unwrap(np.angle(f))
    return int(np.round((arg[-1] - np.angle(f[-1])) / (2.0 * np.pi)))


def _one_minus_rrb(v):
    """1 - r rbreve from the real columns v[0..3] (re r, im r, re rbreve, im rbreve) in
    real arithmetic, as numpy's array complex product fuses multiply-adds and its 0-d one
    does not."""
    w = np.empty(np.shape(v[0]), complex)
    w.real = 1.0 - (v[0] * v[2] - v[1] * v[3])
    w.imag = 0.0 - (v[0] * v[3] + v[1] * v[2])
    return w


def check_genericity(data: ScatteringData) -> GenericityReport:
    """Report min |a|, min |1 - r rbreve| and the zero counts of a and abreve.

    `bound` is I0(2 N) - 1 with N = potential.l1_bound() >= ||q||_1.  As
    ||r||_1 = ||q||_1 for r(x) = -sigma conj(q(-x)), the Neumann series of the
    Jost columns gives |a(z) - 1| <= bound for Im z >= 0 and
    |abreve(z) - 1| <= bound for Im z <= 0 (Ablowitz, Kaup, Newell & Segur,
    1974).  Where bound < 1 (N < 0.90), neither a in the closed upper
    half-plane nor abreve in the closed lower one can vanish: both counts
    are 0 (route "small_norm").  The computed a and abreve on the real grid
    must then lie within bound + `_integration_slack(err)` of 1, or
    IntegratorDivergence is raised.  Otherwise (route "real_axis") the
    argument principle counts the zeros on the real grid alone, as a and
    abreve tend to 1 for |z| -> oo in their closed half-planes (Ablowitz &
    Musslimani, Nonlinearity 29 (2016) 915): `winding`, the whole turns of
    a along the grid, counts the zeros of a in Im z > 0, and
    `winding_breve`, minus those of abreve, the zeros of abreve in
    Im z < 0.  The tails beyond the grid must not wind, so |a - 1| or
    |abreve - 1| >= 1 at an end of the grid raises GenericityViolation.
    Data that does not remember its potential has N = inf: the real axis counts.
    """
    min_a = float(np.abs(data.a).min())
    min_w = float(np.abs(_one_minus_rrb(
        (data.r.real, data.r.imag, data.r_breve.real, data.r_breve.imag))).min())
    # capped where I0 stays finite (1e302); every bound >= 1 counts on the real axis
    n_bar = np.inf if data.potential is None else data.potential.l1_bound()
    bound = float(np.i0(min(2.0 * n_bar, 700.0))) - 1.0
    if bound < 1.0:
        route, winding, winding_breve = "small_norm", 0, 0
        dev = max(float(np.abs(data.a - 1.0).max()), float(np.abs(data.a_breve - 1.0).max()))
        if dev > bound + _integration_slack(data.truncation_error):
            raise IntegratorDivergence(
                f"|a - 1| or |abreve - 1| reaches {dev:.3e} on the real grid, "
                f"above the small-norm bound {bound:.3e}"
            )
    else:
        route = "real_axis"
        edge = max(float(np.abs(f[[0, -1]] - 1.0).max()) for f in (data.a, data.a_breve))
        if edge >= 1.0:
            raise GenericityViolation(
                f"|a - 1| or |abreve - 1| reaches {edge:.3e} at the ends of the z grid, "
                "so the zeros cannot be counted on it; widen the window"
            )
        winding, winding_breve = _turns(data.a), -_turns(data.a_breve)
    return GenericityReport(
        min_abs_a=min_a,
        min_abs_one_minus_rr=min_w,
        winding=winding,
        winding_breve=winding_breve,
        contour_radius=float(data.z_grid[-1]),
        a_pass=min_a >= EPS_A,
        rr_pass=min_w >= EPS_GENERIC,
        winding_pass=winding == 0 and winding_breve == 0,
        route=route,
        bound=bound,
    )
