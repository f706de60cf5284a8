"""Fourth-order commutator-free Magnus propagator for the Lax ODE.

The linear system  phi_x = (-i z sigma3 + Q(x)) phi  is advanced with the
two-exponential CF4 scheme

    phi <- exp(h (a1 A1 + a2 A2)) exp(h (a2 A1 + a1 A2)) phi,

A1,2 sampled at the Gauss points x + (1/2 -+ sqrt(3)/6) h and
a1,2 = 1/4 -+ sqrt(3)/6.  The z-oscillation sits in the matrix exponentials,
so the step size is governed by the smoothness of q alone and the work is
vectorized across the whole z grid.  Fourth order was verified by a ratio
test; see tests.  The scheme is the commutator-free Magnus integrator of
Alvermann & Fehske, J. Comput. Phys. 230 (2011).

Each exponential is exp([[d, b], [c, -d]]) with d = -i z h / 2 fixed over a
smooth segment; only the scalar eps = b c changes from step to step.  It
equals C(w) I + S(w) [[d, b], [c, -d]] with w = d^2 + eps, where C and S are
entire in w, so `_series_coefficients` expands them in eps about d^2 once
per segment.  A step is then a short sum of coefficient rows times powers of
eps plus the column update, with no transcendental function in the step
loop.  The expansion is an identity, truncated where the remaining terms
fall below 2^-55 of the entries, so it matches the closed form
(`_expm_shifted`, which the box oracle uses) to roundoff.

One kernel, `_propagate`, applies these exponentials to a list of columns.
The matrix frame (`y_matrix_batch`) carries both columns of the identity in
the phi-frame; the column frame (`analytic_column_batch`) carries the
bounded first column in the m-frame, where each exponential gains a factor
exp(i z h / 2).  Both frames share one step control, `_refine`: [-X, X]
is cut once into a plan of pieces with a quarter of 2 int(32 X) steps, and
the candidate levels take each piece's count times 4, 8, 16 and 32, each
accepted or not on a Richardson estimate against the level before, the
plan itself for the first.  The step ratio is exact in every piece, and
the first check costs a quarter of a level.  A smooth q starts at 384
steps or more; the box, on which CF4 is exact between breakpoints, has no
such floor.  Each level is a single pass; the matrix frame's plan is cut
at 0, so Y(0) and Y(+X) of the accepted level are the result and nothing
is integrated twice.
"""

from __future__ import annotations

import numpy as np

from .errors import IntegratorDivergence

_C1 = 0.5 - np.sqrt(3.0) / 6.0
_C2 = 0.5 + np.sqrt(3.0) / 6.0
_A1 = 0.25 - np.sqrt(3.0) / 6.0
_A2 = 0.25 + np.sqrt(3.0) / 6.0
_SERIES_TOL = 2.0 ** -55   # truncation of the series exponential, see below
_TAYLOR_TOL = 2.0 ** -60   # last term of a Taylor series in w0, relative
_MAX_ORDER = 64
_EPS_MAX = 64.0            # largest |bc| of a step the series accepts
RTOL = 1e-10               # step-control tolerance on the end values
MAX_REFINE = 4             # step doublings before the step control gives up


def _sinhc(m):
    """sinh(m)/m for a complex array, with a series patch where |m| < 1e-6."""
    m = np.asarray(m, dtype=complex)
    small = np.abs(m) < 1e-6
    if not small.any():
        return np.sinh(m) / m
    ms = m[small]
    msafe = np.where(small, 1.0, m)
    out = np.sinh(msafe) / msafe
    m2 = ms * ms
    out[small] = 1.0 + m2 / 6.0 + m2 * m2 / 120.0
    return out


def _expm_shifted(d, b, c):
    """exp([[d, b], [c, -d]]) entrywise for batched scalars, in closed form."""
    m = np.sqrt(d * d + b * c + 0.0j)
    ch = np.cosh(m)
    sh = _sinhc(m)
    return ch + sh * d, sh * b, sh * c, ch - sh * d


def _taylor_s(w, k, radius):
    """s_k(w) = S^(k)(w)/k! = sum_n C(n, k) w^(n-k) / (2n+1)! for |w| < radius."""
    coefs = [1.0]
    for n in range(2, 2 * k + 2):
        coefs[0] /= n
    j = 0
    while coefs[-1] * radius ** j > _TAYLOR_TOL * coefs[0]:
        n = k + j
        coefs.append(coefs[-1] * (n + 1) / ((j + 1) * (2 * n + 2) * (2 * n + 3)))
        j += 1
    acc = np.full(w.shape, coefs[-1], dtype=complex)
    for t in coefs[-2::-1]:
        acc = acc * w + t
    return acc


def _series_coefficients(d, eps_max, g_max, shifted=False):
    """Per-segment coefficients of exp([[d, b], [c, -d]]) as a series in bc.

    With w = d^2 + eps, eps = b c, the exponential is C(w) I + S(w) A for
    C(w) = cosh(sqrt w) and S(w) = sinh(sqrt w)/sqrt w, both entire in w.
    Their Taylor coefficients about w0 = d^2, c_k = C^(k)(w0)/k! and
    s_k = S^(k)(w0)/k!, obey c_{k+1} = s_k / (2 (k+1)) (from C' = S/2) and,
    from 4 w S'' + 6 S' - S = 0,

        4 w0 (k+1)(k+2) s_{k+2} = s_k - (4k+6)(k+1) s_{k+1}.

    c_0 and s_0 are evaluated in closed form.  Where |w0| >= R =
    4 max(1, eps_max) the recurrence runs upward from s_0 and
    s_1 = (c_0 - s_0) / (2 w0): an error in s_k grows by at most 1/|w0| per
    order, which the weight |eps|^k <= (R/4)^k more than cancels.  Below R
    each s_k, k >= 1, is its own Taylor series in w0, whose terms fall off
    factorially.  The expansion is an identity, so truncation is its only
    error beyond roundoff: orders are kept up to K, the first with orders
    K+1 and K+2 both below 2^-55 of max |e^(+-d)| at |eps| = eps_max and
    |b|, |c| <= g_max, for every z.

    A step with |bc| > 64, |h q| of about 16, is far outside the range of
    CF4 and raises IntegratorDivergence, as does a series that has not
    converged after 64 orders.

    Returns rows of shape (K+1, 3 nz): the eps^k coefficients of
    (C + S d, C - S d, S), each times exp(-d) when `shifted`.
    """
    if not eps_max <= _EPS_MAX:
        raise IntegratorDivergence(
            f"CF4 step too coarse for the series exponential (max |bc| {eps_max:.3e})"
        )
    w0 = d * d
    u = np.sqrt(w0)
    c0, s0 = np.cosh(u), _sinhc(u)
    radius = 4.0 * max(1.0, eps_max)
    small = np.abs(w0) < radius
    wb = w0[~small]
    s_big = [s0[~small], (c0[~small] - s0[~small]) / (2.0 * wb)]
    rows = [(np.exp(d), np.exp(-d), s0)]   # C + S d = e^d at eps = 0
    scale = np.maximum(np.abs(rows[0][0]), np.abs(rows[0][1]))
    abs_d = np.abs(d)
    s_prev, quiet = s0, 0
    for k in range(1, _MAX_ORDER + 1):
        if k >= len(s_big):
            j = k - 2
            s_big.append((s_big[j] - (4 * j + 6) * (j + 1) * s_big[j + 1])
                         / (4.0 * (j + 1) * (j + 2) * wb))
        s = np.empty_like(w0)
        s[~small] = s_big[k]
        s[small] = _taylor_s(w0[small], k, radius)
        c = s_prev / (2.0 * k)
        rows.append((c + s * d, c - s * d, s))
        weight = (np.abs(c) + (abs_d + g_max) * np.abs(s)) * eps_max ** k
        quiet = quiet + 1 if np.all(weight <= _SERIES_TOL * scale) else 0
        if quiet == 2:
            break
        s_prev = s
    else:
        raise IntegratorDivergence(
            f"CF4 series exponential did not converge (max |bc| {eps_max:.3e})"
        )
    coef = np.array(rows[:k - 1]).reshape(k - 1, -1)
    if shifted:
        coef *= np.tile(np.exp(-d), 3)
    return coef


def _series_expm(coef, b, c):
    """Entries (e11, e12, e21, e22) of one exponential from segment coefficients."""
    eps = b * c
    powers = [1.0]
    for _ in range(coef.shape[0] - 1):
        powers.append(powers[-1] * eps)
    nz = coef.shape[1] // 3
    e = np.dot(powers, coef)
    s = e[2 * nz:]
    return e[:nz], s * b, s * c, e[nz:2 * nz]


def _split(potential, x_from, x_to, n_steps, nodes=()):
    """(seg_from, seg_to, n) for each piece of [x_from, x_to], left to right.

    The span is cut at the potential's breakpoints and at `nodes`.  A piece
    gets n = ceil(n_steps ((seg_to - seg_from) / (x_to - x_from))) steps,
    at least 1 (the ratio underflows to 0 on a piece a few subnormals
    wide); the ratio comes first, so a lone piece gets n_steps.
    """
    cuts = [p for p in (*(potential.breakpoints() or ()), *nodes) if x_from < p < x_to]
    pts = sorted({x_from, x_to, *cuts})
    return [(a, b, max(1, int(np.ceil(n_steps * ((b - a) / (x_to - x_from))))))
            for a, b in zip(pts[:-1], pts[1:])]


def _cf4_steps(potential, segments):
    """Yield (h, b, c) for each piece (seg_from, seg_to, n) of `segments`.

    The piece takes n steps of size h.  b and c hold the off-diagonal
    entries of its 2n exponentials in the order they act: per step, those
    of h (a2 A1 + a1 A2) and then of h (a1 A1 + a2 A2).
    """
    sig = potential.sigma
    for seg_from, seg_to, n in segments:
        h = (seg_to - seg_from) / n
        xs = seg_from + h * np.arange(n)
        # Gauss samples of q and conj(q(-x)) for the whole piece at once
        xg1, xg2 = xs + _C1 * h, xs + _C2 * h
        q1, q2 = potential(xg1), potential(xg2)
        m1, m2 = potential.mirror_conj(xg1), potential.mirror_conj(xg2)
        b = h * np.column_stack([_A2 * q1 + _A1 * q2, _A1 * q1 + _A2 * q2])
        c = -sig * h * np.column_stack([_A2 * m1 + _A1 * m2, _A1 * m1 + _A2 * m2])
        yield h, b.ravel(), c.ravel()


def _refine(level, potential, what, nodes=()):
    """Accept the first candidate level whose Richardson estimate passes.

    The plan is the `_split` of [-X, X] at `nodes` with a quarter of the
    first candidate's 2 int(32 X) steps, at least 384 for a smooth q, as a
    short support may hold narrow features (a gaussian of width 0.1 stalls
    without them), while CF4 is exact on a box.  `level(segments)`
    integrates a list of pieces and returns (end, result).  The MAX_REFINE
    candidates take each plan count times 4, 8, 16, ...; the first is
    checked against the plan, each later one against the one before.  At
    step ratio rho = 4, then 2, in every piece, the error is about their
    gap / (rho^4 - 1) at fourth order (Hairer, Norsett & Wanner, Solving
    ODEs I, II.4).  Not a ratio of 8: at z_max h = 4 a companion of an
    eighth is pre-asymptotic and overstates err by up to 2e4.
    Returns (result, err) of the first candidate with
    err <= RTOL (1 + max |end|): the level itself, not the extrapolation,
    which would give up the level's unimodularity and symmetries.  Raises
    IntegratorDivergence when no candidate gets there.
    """
    X = potential.scatter_halfwidth()
    n_first = 2 * int(32 * X)
    if potential.kind != "box":
        n_first = max(384, n_first)
    plan = _split(potential, -X, X, (n_first + 3) // 4, nodes)
    prev = level(plan)[0]
    for k in range(MAX_REFINE):
        segments = [(a, b, n << (k + 2)) for a, b, n in plan]
        cur, result = level(segments)
        gap = max(float(np.abs(c - p).max()) for c, p in zip(cur, prev))
        err = gap / (255.0 if k == 0 else 15.0)
        scale = 1.0 + max(float(np.abs(c).max()) for c in cur)
        if err <= RTOL * scale:
            return result, err
        prev = cur
    raise IntegratorDivergence(f"CF4 {what} step control stalled at "
                               f"{sum(n for *_, n in segments)} steps (err {err:.3e})")


def _propagate(potential, z, segments, cols, shifted=False):
    """Apply the CF4 steps of `segments` to a list of columns (u, v).

    The exponentials act one at a time, in the order `_cf4_steps` yields
    them, each summed from its piece's `_series_coefficients`.
    Unshifted, each is exp(h (a A1 + a' A2)) of the phi-frame; `shifted`
    multiplies each by exp(i z h / 2), which turns the phi-frame into the
    m-frame of `analytic_column_batch`.  Returns the new list.
    """
    u = np.array([col[0] for col in cols])
    v = np.array([col[1] for col in cols])
    for h, b, c in _cf4_steps(potential, segments):
        d = -1j * z * (h / 2.0)  # diagonal of each combo: h*(a1+a2)*(-i z)
        eps_max = float(np.abs(b * c).max())
        g_max = max(float(np.abs(b).max()), float(np.abs(c).max()))
        coef = _series_coefficients(d, eps_max, g_max, shifted)
        for bk, ck in zip(b.tolist(), c.tolist()):
            e11, e12, e21, e22 = _series_expm(coef, bk, ck)
            u, v = e11 * u + e12 * v, e21 * u + e22 * v
    return list(zip(u, v))


def _phase_diag(z, x):
    """Diagonal entries of exp(i x z sigma3)."""
    return np.exp(1j * x * z), np.exp(-1j * x * z)


def y_matrix_batch(potential, z):
    """Normalized Jost matrix Y(z, x) = exp(i x z sigma3) phi(z, x) at x = 0, +X.

    Integrates from -X with Y(-X) = I and returns ((Y(0), Y(+X)), err), each
    Y a 4-tuple (Y11, Y12, Y21, Y22) of (nz,) arrays.  The plan is cut at 0,
    so a level is one pass that carries the columns of the identity over
    its pieces left of 0, where Y(0) is read, and then over the rest;
    `_refine` accepts it on Y(+X).
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    X = potential.scatter_halfwidth()
    sp, sm = _phase_diag(z, X)

    def level(segments):
        cut = sum(b <= 0.0 for _, b, _ in segments)
        cols = [(np.ones_like(z), np.zeros_like(z)), (np.zeros_like(z), np.ones_like(z))]
        Y = []
        for x, leg in ((0.0, segments[:cut]), (X, segments[cut:])):
            cols = _propagate(potential, z, leg, cols)
            # Y(x) = e^{i x z s3} T e^{i X z s3}, T = [cols[0] | cols[1]]
            (t11, t21), (t12, t22) = cols
            ep, em = _phase_diag(z, x)
            Y.append((ep * t11 * sp, ep * t12 * sm, em * t21 * sp, em * t22 * sm))
        return Y[1], tuple(Y)

    return _refine(level, potential, "matrix", nodes=(0.0,))


def analytic_column_batch(potential, z):
    """First modified-Jost column (Phi-minus, first column) at the right end.

    Propagates m' = [[0, q], [-sigma conj(q(-x)), 2 i z]] m with m(-X) = (1,0),
    which stays bounded for Im z >= 0; its first component at +X is a(z) by
    the determinant formula.  Vectorized over complex z.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))

    def level(segments):
        [m] = _propagate(potential, z, segments,
                         [(np.ones_like(z), np.zeros_like(z))], shifted=True)
        return m, m

    return _refine(level, potential, "column")[0]
