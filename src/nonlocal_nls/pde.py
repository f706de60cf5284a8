"""Split-step spectral oracle for i q_t + q_xx + 2 sigma q^2(x) conj(q(-x)) = 0.

The steps run in pseudo-conformal (lens) variables (Cazenave, Semilinear
Schroedinger Equations, 2003; Tao, Nonlinear Dispersive Equations, 2006):

    q(t, x) = s^{-1/2} e^{i x^2 / (4 T s)} v(tau, x / s),
    s = 1 + t / T,   tau = T t / (T + t),

turn the equation into  i v_tau + v_yy + 2 sigma s v^2(y) conj(v(-y)) = 0.
The phase is even in x, so the nonlocal term transforms like the local one.
All of t >= 0 maps to tau in [0, T), and a front x ~ 2 k t settles at
y -> 2 k T, so one bounded y box holds a dispersing solution for all time.

Strang composition L(h/2) N L(h/2) over a tau step h from s_0 to s_1, where

* L is the free flow, exact in Fourier space: vhat -> e^{-i eta^2 h} vhat;
* N is the nonlinear flow, exact pointwise because the PT product
  V(y) = v(y) conj(v(-y)) is constant along it:
  v -> v e^{2 i sigma V T log(s_1 / s_0)}, T log(s_1 / s_0) being the
  integral of s over the step.

Both substeps conserve the nonlocal mass  int v(y) conj(v(-y)) dy, which
equals  int q(x) conj(q(-x)) dx, so its drift over a run measures roundoff
only.  The y grid is symmetric about 0, making y -> -y an exact index
involution: sample j pairs with sample (-j) mod n.

The steps are uniform in s^{-1/2}, the first one dt long in tau, so their
number saturates as t grows.  The box [-Y, Y) and its n points are sized
from q0 alone: the inner 90% of the box holds the initial support x_sig
plus the reach 2 T k_sig of the fastest populated mode (k_sig and x_sig at
BAND_LEVEL), and the Nyquist wavenumber is twice the bandwidth
k_sig + x_sig / (2 T) of the chirped initial v.  The free flow keeps |vhat|
as it is; only the nonlinear flow moves the spectrum.

StepTooLarge is raised before any step when dt k_sig^2 > 0.5 for the
longest tau step dt, and in a step whose nonlinear phase
2 T log(s_1/s_0) max |V| exceeds 1 rad.  Every MONITOR_EVERY steps and
after the last one, BoundaryContamination is raised when the outer band of
the box or the top half of its spectrum holds more than CONTAMINATION_LIMIT
of the mass: the first is a front the box does not hold, the second a
field the grid does not resolve, such as a bound state (a discrete
eigenvalue), which does not disperse and so contracts like 1/s in y, or a
box, which fills every band.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BadInput, BoundaryContamination, NonpositiveTime, StepTooLarge
from .potentials import BAND_LEVEL, Potential, uniform_grid

T = 2.0                       # lens time: t in [0, inf) maps to tau in [0, T)
OUTER_BAND = 0.1              # fraction of the y box counted as its edge
CONTAMINATION_LIMIT = 1e-6    # |v|^2 mass fraction on the edge or in the top
                              # half of the spectrum that aborts
MONITOR_EVERY = 100           # steps between edge checks


def mirror(q: np.ndarray) -> np.ndarray:
    """Samples of q(-x) on the symmetric periodic grid."""
    return np.concatenate((q[:1], q[:0:-1]))


def nonlocal_mass(q: np.ndarray, dx: float) -> complex:
    """int q(x) conj(q(-x)) dx; complex-valued for nonlocal data."""
    return complex(dx * np.sum(q * np.conj(mirror(q))))


@dataclass
class FieldSnapshot:
    """q at time t, held as the lens field v on the n-point y box [-Y, Y)."""

    t: float
    L: float
    N: int
    v: np.ndarray
    Y: float
    nonlocal_mass: complex
    step_count: int

    @property
    def grid(self) -> np.ndarray:
        return uniform_grid(self.L, self.N)

    @property
    def x_reach(self) -> float:
        """Half-width in x of the monitored inner part of the box, (1 - OUTER_BAND) s Y."""
        return (1.0 - OUTER_BAND) * (1.0 + self.t / T) * self.Y

    @cached_property
    def q(self) -> np.ndarray:
        """The field on the N-point configured grid, built on first read."""
        return _field(self, self.grid)


def _lens_box(x: np.ndarray, q0: np.ndarray, k_sig: float) -> tuple[float, int]:
    """Half-width Y and point count n of the y box for q0 sampled at x."""
    mag = np.abs(q0)
    x_sig = float(np.abs(x[mag > BAND_LEVEL * mag.max(initial=0.0)]).max(initial=0.0))
    Y = max(1.0, (2.0 * T * k_sig + x_sig) / (1.0 - OUTER_BAND))
    eta_sig = k_sig + x_sig / (2.0 * T)
    n = 4
    while np.pi * n / (2.0 * Y) < 2.0 * eta_sig:
        n *= 2
    return Y, n


def snapshot_from_potential(potential: Potential) -> FieldSnapshot:
    """The t = 0 snapshot that `evolve` starts from, on the lens box sized from q0."""
    x = potential.grid()
    Y, n = _lens_box(x, potential(x), potential.signal_bandwidth)
    y = uniform_grid(Y, n)
    v = np.exp(-1j * y * y / (4.0 * T)) * potential(y)
    return FieldSnapshot(
        t=0.0, L=potential.L, N=potential.N, v=v, Y=Y,
        nonlocal_mass=nonlocal_mass(v, 2.0 * Y / n), step_count=0,
    )


def _free_flow(q: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """Free flow: the spectral multiplier `mult` applied to q."""
    return np.fft.ifft(np.fft.fft(q) * mult)


def _pt_flow(v: np.ndarray, c: complex) -> np.ndarray:
    """Nonlinear flow v e^{c V}, V = v conj(v(-y)); c = 2 i sigma T log(s_1/s_0).

    Raises StepTooLarge when the phase |c| max |V| of the step exceeds 1 rad.
    """
    cV = c * v * np.conj(mirror(v))
    m = float(np.abs(cV).max())
    if not m <= 1.0:
        raise StepTooLarge(f"nonlinear phase bound 2 T log(s_1/s_0) max |V| = {m:.3f} > 1")
    return v * np.exp(cV)


def _run(v, Y, sigma, w):
    """Strang steps of v on [-Y, Y) between the decreasing nodes w = s^{-1/2}.

    Linear half steps at the seams are merged.  Every MONITOR_EVERY steps and
    after the last one, the outer band of the box and the top half of its
    spectrum are checked for contamination.
    """
    n = len(v)
    y = uniform_grid(Y, n)
    eta = np.pi / Y * np.fft.fftfreq(n, d=1.0 / n)
    outer = np.abs(y) > (1.0 - OUTER_BAND) * Y
    top = np.abs(eta) > np.pi * n / (4.0 * Y)
    tau = T * (1.0 - w * w)
    lin = np.diff(np.concatenate([tau[:1], 0.5 * (tau[1:] + tau[:-1]), tau[-1:]]))
    c = 4j * sigma * T * np.log(w[:-1] / w[1:])
    phase = -1j * eta * eta
    v = _free_flow(v, np.exp(phase * lin[0]))
    for step, c_step in enumerate(c):
        v = _free_flow(_pt_flow(v, c_step), np.exp(phase * lin[step + 1]))
        if (step + 1) % MONITOR_EVERY == 0 or step == len(c) - 1:
            dens = np.abs(v) ** 2
            spec = np.abs(np.fft.fft(v)) ** 2
            if dens[outer].sum() > CONTAMINATION_LIMIT * dens.sum():
                raise BoundaryContamination(
                    "outer 10% of the y box holds more than 1e-6 of the |v|^2 mass"
                )
            if spec[top].sum() > CONTAMINATION_LIMIT * spec.sum():
                raise BoundaryContamination(
                    "top half of the y spectrum holds more than 1e-6 of the |v|^2 "
                    "mass: the y grid does not resolve the field"
                )
    return v


def _schedule(times, dt: float):
    """(t, nodes w = s^{-1/2}) reaching each snapshot time from the previous one.

    The nodes are uniform in w with the spacing whose first tau step is dt
    (one step per span for dt >= T); each span runs round(span / spacing) >= 1
    equal steps, so a step may be up to 1.5 spacings.  A time within 1e-12 of
    the previous one takes no step.
    """
    dw = 1.0 - np.sqrt(max(0.0, 1.0 - dt / T))
    plan, t_cur = [], 0.0
    for t_next in times:
        w = np.array([(1.0 + t_cur / T) ** -0.5])
        if t_next - t_cur > 1e-12:
            w1 = (1.0 + t_next / T) ** -0.5
            w = np.linspace(w[0], w1, max(1, int(round((w[0] - w1) / dw))) + 1)
            t_cur = t_next
        plan.append((t_cur, w))
    return plan


def evolve(potential: Potential, times, dt: float) -> list[FieldSnapshot]:
    """Snapshots of q at the sorted `times` (Strang, order 2); the last is the final time.

    The steps run on the lens box sized from q0 (see the module docstring).
    Snapshots hold the lens field, its nonlocal mass and the steps taken so
    far; `q` and `spectral_interpolate` read the field in x.  Before any
    step, raises BadInput for no times, a negative or non-finite time or a
    dt that is not finite and positive, NonpositiveTime for a final time
    <= 0, and StepTooLarge when dt k_sig^2 > 0.5 for the longest tau step.
    Raises StepTooLarge when a step's nonlinear phase exceeds 1 rad, and
    BoundaryContamination when the field reaches the edge of the box or the
    top half of its spectrum.
    """
    try:
        times = sorted(float(t) for t in times)
    except (TypeError, ValueError) as exc:
        raise BadInput(f"snapshot times must be a list of numbers: {exc}") from exc
    if not (times and np.all(np.isfinite(times)) and np.isfinite(dt) and dt > 0):
        raise BadInput(f"need finite snapshot times and dt > 0, got {times} and {dt}")
    if not times[-1] > 0:
        raise NonpositiveTime(f"final time must be positive, got {times[-1]}")
    if times[0] < 0:
        raise BadInput(f"snapshot times must not be negative, got {times[0]}")
    k_sig, snap = potential.signal_bandwidth, snapshot_from_potential(potential)
    plan = _schedule(times, dt)
    h_max = max(T * float(np.max(w[:-1] ** 2 - w[1:] ** 2, initial=0.0)) for _, w in plan)
    if h_max * k_sig ** 2 > 0.5:
        raise StepTooLarge(
            f"dt k_sig^2 = {h_max * k_sig ** 2:.3f} > 0.5 for the tau step of "
            f"{h_max:.4g} (k_sig = {k_sig:.2f})"
        )
    out, v, steps_done = [], snap.v, 0
    dy = 2.0 * snap.Y / len(v)
    for t, w in plan:
        if len(w) > 1:
            v = _run(v, snap.Y, potential.sigma, w)
            steps_done += len(w) - 1
        out.append(FieldSnapshot(
            t=t, L=snap.L, N=snap.N, v=v, Y=snap.Y,
            nonlocal_mass=nonlocal_mass(v, dy), step_count=steps_done,
        ))
    return out


def _field(snap: FieldSnapshot, x):
    """q at the points x from the trigonometric interpolant of v; 0 where |x| >= s Y.

    v(y) = sum_m c_m z^m over m in [-n/2, n/2] with z = e^{i pi (y + Y) / Y},
    the Nyquist coefficient split half and half between -n/2 and +n/2 (a
    cosine, equal to the aliased Nyquist mode on the grid); the sum is one
    polynomial in z, so no array of len(x) by n is formed.
    """
    s = 1.0 + snap.t / T
    n = len(snap.v)
    c = np.fft.fft(snap.v) / n
    a = np.concatenate([c[n // 2:], c[:n // 2 + 1]])
    a[-1] = a[0] = 0.5 * c[n // 2]
    x = np.asarray(x, dtype=float)
    y = x / s
    theta = np.pi * (y + snap.Y) / snap.Y
    v = np.polyval(a[::-1], np.exp(1j * theta)) * np.exp(-0.5j * n * theta)
    q = v * np.exp(1j * x * x / (4.0 * T * s)) / np.sqrt(s)
    return np.where(np.abs(y) < snap.Y, q, 0.0)


def spectral_interpolate(snap: FieldSnapshot, x: float) -> complex:
    """Band-limited value of the field at the point x."""
    return complex(_field(snap, x))
