"""Split-step spectral oracle for i q_t + q_xx + 2 sigma q^2(x) conj(q(-x)) = 0.

Strang composition L(dt/2) N(dt) L(dt/2) where

* L is the free flow, exact in Fourier space: qhat -> e^{-i k^2 dt} qhat;
* N is the nonlinear flow, exact pointwise because the PT product
  V(x) = q(x) conj(q(-x)) is constant along it: q -> q e^{2 i sigma V dt}.

Both substeps conserve the nonlocal mass  int q(x) conj(q(-x)) dx  exactly,
so its drift over a run measures accumulated roundoff only.  The grid is
symmetric about 0, making x -> -x an exact index involution.

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
INTERP_BLOCK = 2 ** 18        # phase-matrix entries per spectral_interpolate block


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
    return np.fft.ifft(mult * np.fft.fft(q))


def _pt_flow(q: np.ndarray, sigma: int, dt: float) -> np.ndarray:
    """Exact nonlinear flow over dt: q e^{2 i sigma V dt}, V = q conj(q(-x))."""
    # one expression, so numpy reuses its temporaries in place; a named V
    # here cost about 0.3 ms of page faults per step at N = 2^15
    return q * np.exp(2j * sigma * dt * (q * np.conj(mirror(q))))


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


def _run(q, k, sigma, n_steps, dt, monitor_every, outer_mask, band_mask=None):
    """Inner Strang loop; linear half-steps at the seams are merged.

    At every monitor point the outer band of the domain is checked for
    contamination and, when `band_mask` is given, the top of the spectrum
    for content above BAND_LEVEL (raising _Underresolved).
    """
    lin_half = np.exp(-1j * k * k * (dt / 2.0))
    lin_full = lin_half * lin_half
    q = _free_flow(q, lin_half)
    for step in range(n_steps):
        q = _pt_flow(q, sigma, dt)
        q = _free_flow(q, lin_half if step == n_steps - 1 else lin_full)
        if (step + 1) % monitor_every == 0 or step == n_steps - 1:
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


def _evolve_on(snap: FieldSnapshot, n: int, times, dt: float, monitor_every: int):
    """Snapshots at `times` from steps on every (N/n)-th point of snap's grid."""
    L, dx = snap.L, 2.0 * snap.L / n
    x = -L + dx * np.arange(n)
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
    outer = np.abs(x) > (1.0 - OUTER_BAND) * L
    band = np.abs(k) > np.pi * n / (4.0 * L) if n < snap.N else None

    out = []
    q = snap.q[::snap.N // n]
    t_cur = 0.0
    steps_done = 0
    for t_next in times:
        span = t_next - t_cur
        if span > 1e-12:
            steps = max(1, int(round(span / dt)))
            q = _run(q, k, snap.sigma, steps, span / steps, monitor_every, outer, band)
            steps_done += steps
            t_cur = t_next
        q_full = _pad(q, snap.N)
        out.append(FieldSnapshot(
            t=t_cur, L=L, N=snap.N, sigma=snap.sigma, q=q_full,
            nonlocal_mass=nonlocal_mass(q_full, snap.dx), step_count=steps_done,
            working_N=n,
        ))
    return out


def evolve(potential: Potential, t_final: float, dt: float,
           snapshot_times=None, monitor_every: int = 100):
    """Evolve q0 to t_final (Strang, order 2); optionally capture snapshots.

    Returns the final FieldSnapshot, or the list of snapshots at the
    requested times (sorted ascending; t_final is implied by the last one).
    The steps run on the working grid of N' points chosen from the initial
    bandwidth (see the module docstring); every monitor_every steps the band
    monitor may double N' and restart from t = 0, and at N' = N the run is
    the full-grid one.  Snapshots hold the zero-padded field on all N points,
    its nonlocal mass, and N' as `working_N`.
    Raises StepTooLarge when dt k_sig^2 > 0.5 for the populated bandwidth,
    BoundaryContamination when the dispersive front reaches the outer band.
    """
    if not t_final > 0:
        raise NonpositiveTime(f"t_final must be positive, got {t_final}")
    if dt <= 0:
        raise BadInput(f"dt must be positive, got {dt}")
    times = [float(t_final)]
    if snapshot_times is not None:
        times = sorted(float(t) for t in snapshot_times)
        if not all(-1e-12 <= t <= t_final + 1e-12 for t in times):
            raise BadInput("snapshot times must lie in [0, t_final]")
        if not times or abs(times[-1] - t_final) > 1e-12:
            times.append(float(t_final))

    snap = snapshot_from_potential(potential)
    k_sig = signal_bandwidth(snap.q, snap.L)
    if dt * k_sig ** 2 > 0.5:
        raise StepTooLarge(
            f"dt k_sig^2 = {dt * k_sig ** 2:.3f} > 0.5 (k_sig = {k_sig:.2f})"
        )
    n = _working_size(snap.N, snap.L, k_sig)
    while True:
        try:
            out = _evolve_on(snap, n, times, dt, monitor_every)
            break
        except _Underresolved:
            n *= 2
    if snapshot_times is None:
        return out[-1]
    return out


def spectral_interpolate(snap: FieldSnapshot, x_points) -> np.ndarray:
    """Band-limited evaluation of the field at arbitrary points, in blocks."""
    x_points = np.asarray(x_points, dtype=float).ravel()
    qhat = np.fft.fft(snap.q) / snap.N
    k = snap.wavenumbers
    ny = snap.N // 2
    rows = max(1, INTERP_BLOCK // snap.N)
    out = np.empty(x_points.size, dtype=complex)
    for i in range(0, x_points.size, rows):
        x = x_points[i:i + rows] - (-snap.L)
        phases = np.exp(1j * np.outer(x, k))
        # resolve the Nyquist mode symmetrically (real cosine contribution)
        phases[:, ny] = np.cos(k[ny] * x)
        out[i:i + rows] = phases @ qhat
    return out
