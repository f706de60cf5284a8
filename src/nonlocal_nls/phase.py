"""Deformation phase objects: stationary point, nu(s), delta(z), beta(z, xi).

Definitions used throughout (normative properties in parentheses):

    nu(s)    = -log(1 - r(s) rbreve(s)) / (2 pi),  branch unwrapped along the
               grid from the left tail where r rbreve -> 0
    delta(z) = exp( int_{-inf}^{xi} i nu(s)/(s - z) ds )
               (Plemelj: delta_+ = (1 - r rbreve) delta_- on (-inf, xi))
    beta(z)  = int_{-inf}^{xi} (nu(s) - chi(s) nu(xi))/(s - z) ds
               - nu(xi) Log(z - xi + 1),   chi = indicator of [xi-1, xi]
               (factorization: delta = e^{i beta} (z - xi)^{i nu(xi)})
    delta0   = e^{i beta(xi, xi)}

The delta exponent carries a single factor of i so that the stated jump
holds; the beta integrand carries 1/(s - z) for the same reason.  `beta`
integrates the removable sqrt-type endpoint behavior at s = xi with the
substitution s = xi - u^2; delta0 needs none (see `phase_data`).

All of it is read off one `SpectralContext`, the only input of every
function here; it refuses non-finite r or rbreve, data whose genericity
report fails, and any xi whose integration range leaves its grid (NaN too).
nu is one function of s, the same bits alone or in an array (1 - r rbreve is
formed in real arithmetic, on the grid and by the genericity check too).  delta0
and the nu tail integral use composite Gauss-Legendre on the spline knots (nu
from the node table, one spline call on the last, partial interval; `phase_data`
takes a 1-d array of xi too, makes that call once for all of them and returns one
batch `PhaseData`), with the embedded half rule as error estimate; `phase_data`
reads r, rbreve and nu at xi off that same call.
The boundary values of delta and `beta` at general z use the independent oracle
`quad`: adaptive Gauss-Legendre 21 with |G21 - G10| as error estimate,
vectorized, with no knot alignment.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import legendre as leg

from .errors import (
    BadInput,
    BranchViolation,
    CutEvaluation,
    GenericityViolation,
    QuadratureFailure,
    WindowExceeded,
)
from .model import _positive_time, nu_over_w, rgamma
from .potentials import UniformSpline
from .scattering import EPS_GENERIC, ScatteringData, _one_minus_rrb, check_genericity

_QUAD_LIMIT = 400
ERR_GATE = 1e-6      # largest accepted quadrature error estimate
GL_NODES = 8         # Gauss-Legendre nodes per knot interval
_NODE_CHUNK = 4096   # nodes per nu evaluation while the node table is built


def stationary_point(x: float, t: float) -> float:
    """xi = -x/(4t), the zero of the phase derivative; elementwise over arrays."""
    _positive_time(t)
    return -x / (4.0 * t)


def _gate(err: float) -> float:
    if not err <= ERR_GATE:  # a NaN estimate fails too
        raise QuadratureFailure(f"quadrature error estimate {err:.2e}")
    return err


def _branch_nu(w, arg_ref):
    """-log(w)/(2 pi), w = 1 - r rbreve, on the 2 pi branch nearest the reference arg."""
    aw = np.abs(w)
    if np.any(aw < EPS_GENERIC):
        raise GenericityViolation("1 - r rbreve nearly vanishes off-grid")
    arg = np.angle(w)
    k = np.round((arg_ref - arg) / (2.0 * math.pi))
    return -(np.log(aw) + 1j * (arg + 2.0 * math.pi * k)) / (2.0 * math.pi)


class SpectralContext:
    """Spline and quadrature node table of one ScatteringData."""

    def __init__(self, data: ScatteringData):
        if not (np.isfinite(data.r).all() and np.isfinite(data.r_breve).all()):
            raise BadInput("r and rbreve must be finite on the spectral grid")
        z = data.z_grid
        self.z_grid = z
        self.z_lo = float(z[0])
        self.z_hi = float(z[-1])
        rep = check_genericity(data)
        if not rep.passed:
            raise GenericityViolation(rep.refusal())
        w = _one_minus_rrb((data.r.real, data.r.imag, data.r_breve.real, data.r_breve.imag))
        arg = np.unwrap(np.angle(w))
        arg -= arg[0] - math.remainder(arg[0], 2.0 * math.pi)
        self.branch_max_arg = float(np.abs(arg).max())
        if self.branch_max_arg >= math.pi:
            raise BranchViolation(
                f"|arg(1 - r rbreve)| reaches {self.branch_max_arg:.3f}"
            )
        # real columns: a complex stack would round nu differently
        self._spline = UniformSpline(z, np.stack(
            [data.r.real, data.r.imag, data.r_breve.real, data.r_breve.imag, arg]))
        nu_grid = _branch_nu(w, arg)
        # left-edge magnitude for tail estimates; a window maximum is used so
        # an oscillation node at the very end cannot fake a small tail
        edge = max(4, len(z) // 20)
        self._abs_nu_tail = float(np.abs(nu_grid[:edge]).max())
        # m-point rule on [-1, 1]; the embedded rule interpolates on every
        # other node of each half (exact for the first m/2 Legendre moments)
        m = GL_NODES
        self._gx, self._gw = leg.leggauss(m)
        sub = np.r_[0:m // 2:2, m - 1 - np.r_[0:m // 2:2][::-1]]
        w_low = np.zeros(m)
        w_low[sub] = np.linalg.solve(leg.legvander(self._gx[sub], sub.size - 1).T,
                                     np.eye(sub.size)[0] * 2.0)
        self._gdw = self._gw - w_low

    def _window(self, lo: float, hi: float):
        """Refuse unless z_lo <= lo and hi <= z_hi; a NaN end is refused too."""
        if not (self.z_lo <= lo and hi <= self.z_hi):
            raise WindowExceeded(
                f"[{lo}, {hi}] is not inside the spectral grid [{self.z_lo}, {self.z_hi}]")

    def _read(self, s):
        """The spline's columns at s and nu(s), from one spline call."""
        v = self._spline(s)
        return v, _branch_nu(_one_minus_rrb(v), v[4])

    def w(self, s):
        """1 - r(s) rbreve(s) from the spline."""
        return _one_minus_rrb(self._spline(s))

    def nu(self, s):
        """Interpolate r, rbreve first, then take the branch-corrected log."""
        return self._read(s)[1]

    def _rule(self, vals, half):
        """Rule values and error estimates per interval (nodes on the last axis)."""
        return (vals @ self._gw) * half, np.abs(vals @ self._gdw) * half

    def _gl_nodes(self, p):
        """Nodes (one row per interval) and half-widths of the breakpoints p."""
        half = 0.5 * np.diff(p)
        return (p[:-1] + half)[:, None] + half[:, None] * self._gx, half

    @cached_property
    def _nodes(self):
        """Nodes and nu on every knot interval; running rule sums and errors."""
        s, half = self._gl_nodes(self.z_grid)
        flat = s.ravel()
        nu = np.concatenate([self.nu(flat[i:i + _NODE_CHUNK])
                             for i in range(0, flat.size, _NODE_CHUNK)]).reshape(s.shape)
        q, err = self._rule(nu, half)
        return s, half, nu, np.r_[0.0, np.cumsum(q)], np.r_[0.0, np.cumsum(err)]


def quad(f, a, b, point=None):
    """(int_a^b f(s) ds, gated error) for a vectorized f, split at `point`: Gauss-Legendre
    21 per interval, erring by |G21 - G10| plus the node rounding times the variation of f.
    The first sweep cuts each side of `point` into equal intervals of length <= 1, at most
    _QUAD_LIMIT // 4 a side so that half the limit is left to refine; each later sweep
    bisects the intervals holding half the error, evaluating the new ones in one f call,
    until the error is <= 1e-12 + 1e-11 |value| or there are _QUAD_LIMIT intervals."""
    if a == b:
        return 0j, 0.0
    # the rule on [-1, 1], built here so that commands without an oracle call skip it
    (x21, w21), (x10, w10) = leg.leggauss(21), leg.leggauss(10)
    qx, qw, qdw = np.r_[x21, x10], np.r_[w21, 0 * w10], np.r_[w21, -w10]
    # one long first interval can put all 21 nodes off a narrow bump of f
    ends = [a, point, b] if point is not None and a < point < b else [a, b]
    cap = max(1, _QUAD_LIMIT // 4)
    lo = np.concatenate([np.linspace(x0, x1, min(math.ceil(abs(x1 - x0)), cap) + 1)[:-1]
                         for x0, x1 in zip(ends[:-1], ends[1:])])
    hi = np.r_[lo[1:], b]
    q, e, new = np.zeros(lo.size, complex), np.zeros(lo.size), np.arange(lo.size)
    while True:
        half = 0.5 * (hi[new] - lo[new])
        s = (lo[new] + half)[:, None] + half[:, None] * qx
        v = f(s.ravel()).reshape(s.shape)
        q[new] = (v @ qw) * half
        e[new] = np.abs(v @ qdw) * half + 2.3e-16 * np.abs(s).max(1) * np.abs(
            np.diff(v[:, :21])).sum(1)
        val, err, room = complex(q.sum()), float(e.sum()), _QUAD_LIMIT - lo.size
        if not err > 1e-12 + 1e-11 * abs(val) or room <= 0:  # a NaN stops here too
            return val, _gate(err)
        order = np.argsort(e)[::-1]
        split = order[:min(int(np.searchsorted(np.cumsum(e[order]), 0.5 * err)) + 1, room)]
        mid = 0.5 * (lo[split] + hi[split])
        lo, hi, q, e = np.r_[lo, mid], np.r_[hi, hi[split]], np.r_[q, q[split]], np.r_[e, e[split]]
        hi[split] = mid
        new = np.r_[split, np.arange(lo.size - split.size, lo.size)]


def _log_ratio(z, hi, lo):
    """int_lo^hi ds/(s - z) = Log(hi - z) - Log(lo - z) for z off [lo, hi]."""
    return cmath.log(hi - z) - cmath.log(lo - z)


def _finite_point(z) -> complex:
    z = complex(z)
    if not cmath.isfinite(z):
        raise BadInput(f"spectral point z = {z} must be finite")
    return z


def _cauchy_nu(ctx: SpectralContext, b: float, z: complex, xi: float) -> complex:
    """int_{z_lo}^{b} nu(s)/(s - z) ds; for z near [z_lo - 1, xi + 1], nu(Re z)
    is subtracted under the integral and added back in closed form."""
    z_lo = ctx.z_lo
    near = (z_lo - 1.0 <= z.real <= xi + 1.0) and abs(z.imag) < 1.0
    s_ref = min(max(z.real, z_lo), b)
    nu_ref = complex(ctx.nu(np.asarray(s_ref))) if near else 0j
    val = quad(lambda s: (ctx.nu(s) - nu_ref) / (s - z), z_lo, b,
               point=s_ref if near else None)[0]
    return val + nu_ref * _log_ratio(z, b, z_lo) if near else val


def delta_boundary(ctx: SpectralContext, xi: float, z0: float, side: str) -> complex:
    """One-sided boundary value delta_+/- at z0 on the cut: the exponent
    int_{z_lo}^{xi} i nu(s)/(s - z) ds at z0 +- i eps and z0 +- i eps/2, with
    eps = 1e-6 (1 + |xi|), Richardson-extrapolated to eps = 0."""
    if side not in ("plus", "minus"):
        raise BadInput(f"side must be 'plus' or 'minus', got {side!r}")
    _finite_point(z0)
    if z0 > xi:
        raise CutEvaluation(f"z0 = {z0} is to the right of xi = {xi}")
    sgn = 1.0 if side == "plus" else -1.0
    eps = 1e-6 * (1.0 + abs(xi))
    ctx._window(xi, xi)
    e1 = _cauchy_nu(ctx, xi, complex(z0, sgn * eps), xi)
    e2 = _cauchy_nu(ctx, xi, complex(z0, sgn * eps / 2.0), xi)
    return cmath.exp(1j * (2.0 * e2 - e1))


def beta(ctx: SpectralContext, xi: float, z: complex) -> complex:
    """Regularized phase beta(z, xi); finite at z = xi."""
    z = _finite_point(z)
    if z.imag == 0.0 and z.real < xi:
        raise CutEvaluation("beta is evaluated off (-inf, xi) or at xi itself")
    ctx._window(xi - 1.0, xi)
    nu_xi = complex(ctx.nu(np.asarray(xi)))

    # chunk 1: (z_lo, xi - 1], integrand nu(s)/(s - z)
    v1 = _cauchy_nu(ctx, xi - 1.0, z, xi)

    # chunk 2: [xi - 1, xi] with s = xi - u^2 absorbing the endpoint
    hint = math.sqrt(abs(z - xi)) if abs(z - xi) < 1.0 else None
    v2 = quad(lambda u: 2.0 * u * (ctx.nu(xi - u * u) - nu_xi) / (xi - u * u - z),
              0.0, 1.0, point=hint)[0]
    return v1 + v2 - nu_xi * cmath.log(z - xi + 1.0)


def _rays(xi) -> np.ndarray:
    """xi as a 1-d float array; a float is an array of length 1."""
    xis = np.asarray(xi, dtype=float)
    if xis.ndim > 1:
        raise BadInput(f"xi must be a float or a 1-d array, got shape {xis.shape}")
    return xis.reshape(-1)


def _last_intervals(ctx: SpectralContext, xis: np.ndarray):
    """k, the half-width of [z_k, xi] (z_k the last knot below xi, or z_0; a whole
    interval at a knot) and its nodes as offsets from xi, so that none rounds onto xi, per
    xi; then the columns and nu at every xi and nu at every node, from one spline call."""
    z = ctx.z_grid
    ks = np.maximum(z.searchsorted(xis) - 1, 0)
    hp = 0.5 * (xis - z[ks])
    d = hp[:, None] * (ctx._gx - 1.0)
    v, nu = ctx._read(np.concatenate((xis, (xis[:, None] + d).ravel())))
    n = xis.size
    return ks, hp, d, v[:, :n], nu[:n], nu[n:].reshape(d.shape)


def nu_tail_with_bound(ctx: SpectralContext, xi: float):
    """(int_{-inf}^{xi} nu(s) ds over the grid, estimated truncation error)."""
    ctx._window(xi, xi)
    *_, cum, cum_err = ctx._nodes
    (k,), hp, *_, nu_nodes = _last_intervals(ctx, _rays(xi))
    q, err = ctx._rule(nu_nodes, hp)
    err = _gate(cum_err[k] + err.sum())
    # tail: envelope |nu(s)| <= nu_edge (s/z_lo)^{-2} beyond the window
    # (the 1/s^2 rate is the slow box-like case; smooth data decay faster,
    # so the reported bound errs on the safe side)
    tail = ctx._abs_nu_tail * abs(ctx.z_lo)
    return complex(cum[k] + q.sum()), err + tail


@dataclass
class PhaseData:
    """The inputs of the leading ray term at the stationary point xi: one ray, or a
    batch whose fields are 1-d arrays of equal length."""
    xi: float
    nu_at_xi: complex
    delta0: complex
    r_xi: complex
    r_breve_xi: complex

    @cached_property
    def ray_factors(self) -> tuple[complex, complex]:
        """(1/Gamma(1 - i nu), nu/(r rbreve)) at xi: the factors of the ray formula
        that depend on xi alone, computed on first use and kept."""
        nu = self.nu_at_xi
        return rgamma(1.0 - 1j * nu), nu_over_w(nu, self.r_xi * self.r_breve_xi)

    def take(self, idx) -> PhaseData:
        """The rays at the positions idx of a batch, with their ray factors read off
        this batch's, so each is computed once per xi however often idx repeats it."""
        out = PhaseData(self.xi[idx], self.nu_at_xi[idx], self.delta0[idx],
                        self.r_xi[idx], self.r_breve_xi[idx])
        out.ray_factors = tuple(f[idx] for f in self.ray_factors)
        return out


def phase_data(ctx: SpectralContext, xi) -> PhaseData:
    """The leading term's inputs at xi: one ray of Python scalars for a float, a batch for
    a 1-d array or sequence, read off one spline call.  delta0 = e^{i B} with
    B = int_{z_lo}^{xi} (nu(s) - nu(xi))/(s - xi) ds - nu(xi) log(xi - z_lo), analytic on
    every knot interval, by Gauss-Legendre with nu from the node table below z_k and from
    `_last_intervals` on [z_k, xi].  Each xi keeps its own sums and error gate."""
    xis = _rays(xi)
    for x in xis:
        ctx._window(x - 1.0, x)
    s, half, nu, _, _ = ctx._nodes
    ks, hp, d, cols, nu_xis, nu_nodes = _last_intervals(ctx, xis)
    d0 = np.empty(xis.size, complex)
    for i, (x, k, nu_xi) in enumerate(zip(xis, ks, nu_xis)):
        vals = nu[:k] - nu_xi
        vals *= 1.0 / (s[:k] - x)
        q, e = ctx._rule(vals, half[:k])
        # offsets below the least normal double (xi within 1e-307 above the knot 0) add 0
        vp = np.divide(nu_nodes[i] - nu_xi, d[i], out=np.zeros_like(nu_nodes[i]),
                       where=d[i] <= -np.finfo(float).tiny)
        qp, ep = ctx._rule(vp, hp[i:i + 1])
        _gate(e.sum() + ep.sum())
        d0[i] = cmath.exp(1j * (q.sum() + qp.sum() - nu_xi * math.log(x - ctx.z_lo)))
    fields = (xis, nu_xis, d0, cols[0] + 1j * cols[1], cols[2] + 1j * cols[3])
    return PhaseData(*fields) if np.ndim(xi) else PhaseData(*(f[0].item() for f in fields))
