"""Split-step spectral oracle for i q_t + q_xx + 2 sigma q^2(x) conj(q(-x)) = 0.

Strang composition L(dt/2) N(dt) L(dt/2) where

* L is the free flow, exact in Fourier space: qhat -> e^{-i k^2 dt} qhat;
* N is the nonlinear flow, exact pointwise because the PT product
  V(x) = q(x) conj(q(-x)) is constant along it: q -> q e^{2 i sigma V dt}.

Both substeps conserve the nonlocal mass  int q(x) conj(q(-x)) dx  exactly,
so its drift over a run measures accumulated roundoff only.  The grid is
symmetric about 0, making x -> -x an exact index involution: sample j
pairs with sample (-j) mod n, and the step loop reads q(-x) through a
reversed view of q instead of building a mirrored copy.

The step loop calls no transcendental function, and a step allocates
nothing but the two FFT outputs (the monitor, every MONITOR_EVERY steps,
makes its own): V and the flow factor live in two buffers made once per
run.  e^{c V}, c = 2 i sigma dt, is summed by Horner's rule
as the series of c^j V^j / j! up to the first order K whose next term
bound m^{K+1} / (K+1)! falls to 2^-54, where m = 2 sqrt(2) dt
max(|Re V|, |Im V|) >= |c V| is read off V with two reductions each step.
K = 0 (m <= 2^-54, the zero field among others) leaves q as it is.  With
dt = 0.005 and |q| <= 0.1, m is about 1.4e-4 and K = 3.

Two guards raise StepTooLarge.  Before any step, dt k_sig^2 must not
exceed 0.5 for the largest step actually taken: a snapshot interval runs
round(span/dt) equal steps, which may be up to 1.5 dt.  In every step the
nonlinear phase bound m must not exceed 1 rad; past that a Strang step
does not resolve the nonlinear flow, and the series would need more than
the 18 orders it takes at m = 1.

The steps run on a working grid of N' points: the smallest power of two
<= N whose Nyquist wavenumber is at least BAND_MARGIN times the initial
signal bandwidth.  The cubic term triples the bandwidth, so a margin above
3 keeps it from aliasing into the band (Boyd, Chebyshev and Fourier
Spectral Methods, 2001, ch. 11).  The working grid is every (N/N')-th point
of the configured one, so x -> -x stays an exact index involution on it.
While N' < N a band monitor checks that the top half of the working
spectrum stays below BAND_LEVEL; if it does not, N' doubles and the run
restarts from t = 0.  Snapshots are zero-padded back to N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadInput, BoundaryContamination, NonpositiveTime, StepTooLarge
from .potentials import Potential

OUTER_BAND = 0.1              # fraction of the domain counted as boundary
CONTAMINATION_LIMIT = 1e-6    # outer-band |q|^2 mass fraction that aborts
BAND_MARGIN = 4.0             # working Nyquist wavenumber / initial signal bandwidth
BAND_LEVEL = 1e-10            # |qhat| / max |qhat| counted as signal; above it in
                              # the top half of the working band, N' regrows
MONITOR_EVERY = 100           # steps between boundary and band checks
_SERIES_TOL = 2.0 ** -54      # last term of the nonlinear flow's series, see _pt_flow


def mirror(q: np.ndarray) -> np.ndarray:
    """Samples of q(-x) on the symmetric periodic grid."""
    return np.roll(q[::-1], 1)


def nonlocal_mass(q: np.ndarray, dx: float) -> complex:
    """int q(x) conj(q(-x)) dx; complex-valued for nonlocal data."""
    return complex(dx * np.sum(q * np.conj(mirror(q))))


@dataclass
class FieldSnapshot:
    t: float
    L: float
    N: int
    sigma: int
    q: np.ndarray
    nonlocal_mass: complex
    step_count: int
    working_N: int            # points of the grid the steps ran on (N' <= N)

    @property
    def grid(self) -> np.ndarray:
        return -self.L + (2.0 * self.L / self.N) * np.arange(self.N)

    @property
    def dx(self) -> float:
        return 2.0 * self.L / self.N

    @property
    def wavenumbers(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.N, d=self.dx)


def snapshot_from_potential(potential: Potential) -> FieldSnapshot:
    q = potential(potential.grid()).astype(complex)
    return FieldSnapshot(
        t=0.0, L=potential.L, N=potential.N, sigma=potential.sigma,
        q=q, nonlocal_mass=nonlocal_mass(q, 2.0 * potential.L / potential.N),
        step_count=0, working_N=potential.N,
    )


def _free_flow(q: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """Free flow: the spectral multiplier `mult` applied to q."""
    qhat = np.fft.fft(q)
    qhat *= mult
    return np.fft.ifft(qhat)


def _pt_flow(q: np.ndarray, sigma: int, dt: float, v: np.ndarray,
             acc: np.ndarray) -> np.ndarray:
    """Nonlinear flow over dt, in place: q <- q e^{c V}, c = 2 i sigma dt.

    V = q conj(q(-x)) is formed in the work buffer v and the series of
    e^{c V} in acc (both of q's shape); returns q.  Raises StepTooLarge
    when the phase bound m of the step exceeds 1 (see the module docstring).
    """
    np.conjugate(q[:0:-1], out=v[1:])
    v[0] = q[0].conjugate()
    v *= q
    vf = v.view(np.float64)
    m = 2.0 * dt * np.sqrt(2.0) * float(max(vf.max(), -vf.min()))
    if not m <= 1.0:
        raise StepTooLarge(
            f"nonlinear phase bound 2 sqrt(2) dt max(|Re V|, |Im V|) = {m:.3f} > 1 "
            f"(dt = {dt:.3g})"
        )
    K, term = 0, m
    while term > _SERIES_TOL:
        K += 1
        term *= m / (K + 1)
    if K == 0:
        return q
    c = 2j * sigma * dt
    coef = [1.0]
    for j in range(1, K + 1):
        coef.append(coef[-1] * c / j)
    np.multiply(v, coef[K], out=acc)
    acc += coef[K - 1]
    for a in reversed(coef[:K - 1]):
        acc *= v
        acc += a
    q *= acc
    return q


def signal_bandwidth(q: np.ndarray, L: float) -> float:
    """Largest |k| whose spectral amplitude exceeds BAND_LEVEL * max |qhat|."""
    N = len(q)
    k = 2.0 * np.pi * np.fft.fftfreq(N, d=2.0 * L / N)
    mag = np.abs(np.fft.fft(q))
    hot = mag > BAND_LEVEL * mag.max(initial=0.0)
    if not hot.any():
        return 0.0
    return float(np.abs(k[hot]).max())


class _Underresolved(Exception):
    """The band monitor saw the top half of the working spectrum populated."""


def _working_size(N: int, L: float, k_sig: float) -> int:
    """Smallest power of two N' <= N with pi N' / (2L) >= BAND_MARGIN k_sig.

    N' stays >= 4, the smallest N a Potential accepts, so a zero field
    (k_sig = 0) still has a Nyquist bin to pad.
    """
    n = N
    while n > 4 and np.pi * (n // 2) / (2.0 * L) >= BAND_MARGIN * k_sig:
        n //= 2
    return n


def _pad(q: np.ndarray, N: int) -> np.ndarray:
    """Trigonometric interpolant of q sampled on the N-point grid.

    The spectrum is zero-padded and the working Nyquist bin is split half
    and half between +k and -k: that mode becomes a cosine, which takes the
    same values as the aliased Nyquist mode on the working points.
    """
    n = len(q)
    if n == N:
        return q.copy()
    qhat = np.fft.fft(q) * (N / n)
    h = n // 2
    big = np.zeros(N, dtype=complex)
    big[:h] = qhat[:h]
    big[N - h + 1:] = qhat[h + 1:]
    big[h] = big[N - h] = 0.5 * qhat[h]
    return np.fft.ifft(big)


def _run(q, k, sigma, n_steps, dt, outer_mask, band_mask=None):
    """Inner Strang loop; linear half-steps at the seams are merged.

    Every MONITOR_EVERY steps and after the last one, the outer band of the
    domain is checked for contamination and, when `band_mask` is given, the
    top of the spectrum for content above BAND_LEVEL (raising _Underresolved).
    """
    lin_half = np.exp(-1j * k * k * (dt / 2.0))
    lin_full = lin_half * lin_half
    v, acc = np.empty_like(lin_half), np.empty_like(lin_half)
    q = _free_flow(q, lin_half)
    for step in range(n_steps):
        q = _pt_flow(q, sigma, dt, v, acc)
        q = _free_flow(q, lin_half if step == n_steps - 1 else lin_full)
        if (step + 1) % MONITOR_EVERY == 0 or step == n_steps - 1:
            dens = np.abs(q) ** 2
            total = dens.sum()
            if total > 0 and dens[outer_mask].sum() > CONTAMINATION_LIMIT * total:
                raise BoundaryContamination(
                    "outer 10% band holds more than 1e-6 of the |q|^2 mass"
                )
            if band_mask is not None:
                mag = np.abs(np.fft.fft(q))
                if mag[band_mask].max() > BAND_LEVEL * mag.max():
                    raise _Underresolved
    return q


def _schedule(times, dt: float):
    """(t, steps, step size) reaching each snapshot time from the previous one.

    Each span runs round(span/dt) >= 1 equal steps, so a step may be up to
    1.5 dt; a time within 1e-12 of the previous one takes no step.
    """
    plan, t_cur = [], 0.0
    for t_next in times:
        span = t_next - t_cur
        if span > 1e-12:
            steps = max(1, int(round(span / dt)))
            plan.append((t_next, steps, span / steps))
            t_cur = t_next
        else:
            plan.append((t_cur, 0, 0.0))
    return plan


def _evolve_on(snap: FieldSnapshot, n: int, plan):
    """Snapshots along `plan` from steps on every (N/n)-th point of snap's grid."""
    L, dx = snap.L, 2.0 * snap.L / n
    x = -L + dx * np.arange(n)
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
    outer = np.abs(x) > (1.0 - OUTER_BAND) * L
    band = np.abs(k) > np.pi * n / (4.0 * L) if n < snap.N else None

    out = []
    q = snap.q[::snap.N // n]
    steps_done = 0
    for t, steps, h in plan:
        if steps:
            q = _run(q, k, snap.sigma, steps, h, outer, band)
            steps_done += steps
        q_full = _pad(q, snap.N)
        out.append(FieldSnapshot(
            t=t, L=L, N=snap.N, sigma=snap.sigma, q=q_full,
            nonlocal_mass=nonlocal_mass(q_full, snap.dx), step_count=steps_done,
            working_N=n,
        ))
    return out


def evolve(potential: Potential, times, dt: float) -> list[FieldSnapshot]:
    """Snapshots of q at the sorted `times` (Strang, order 2); the last is the final time.

    The steps run on the working grid of N' points chosen from the initial
    bandwidth (see the module docstring); every MONITOR_EVERY steps the band
    monitor may double N' and restart from t = 0.  Snapshots hold the
    zero-padded field on all N points, its nonlocal mass, and N' as
    `working_N`.  Before any step, raises BadInput for no times, a negative
    or non-finite time or a dt that is not finite and positive, and
    NonpositiveTime for a final time <= 0.  Raises StepTooLarge when
    dt k_sig^2 > 0.5 for the largest step taken, or when a step's nonlinear
    phase bound exceeds 1; BoundaryContamination when the dispersive front
    reaches the outer band.
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
    snap = snapshot_from_potential(potential)
    k_sig = signal_bandwidth(snap.q, snap.L)
    plan = _schedule(times, dt)
    dt_max = max(h for _, _, h in plan)
    if dt_max * k_sig ** 2 > 0.5:
        raise StepTooLarge(
            f"dt k_sig^2 = {dt_max * k_sig ** 2:.3f} > 0.5 for the step of "
            f"{dt_max:.4g} (k_sig = {k_sig:.2f})"
        )
    n = _working_size(snap.N, snap.L, k_sig)
    while True:
        try:
            return _evolve_on(snap, n, plan)
        except _Underresolved:
            n *= 2


def spectral_interpolate(snap: FieldSnapshot, x: float) -> complex:
    """Band-limited value of the field at the point x."""
    qhat = np.fft.fft(snap.q) / snap.N
    k = snap.wavenumbers
    ny = snap.N // 2
    x = x + snap.L
    phases = np.exp(1j * (x * k))
    # resolve the Nyquist mode symmetrically (real cosine contribution)
    phases[ny] = np.cos(k[ny] * x)
    return complex(phases @ qhat)
