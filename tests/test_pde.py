import numpy as np
import pytest

from nonlocal_nls import Potential, check_genericity, compute_scattering, evolve, pde
from nonlocal_nls.errors import (
    BadInput,
    BoundaryContamination,
    NonpositiveTime,
    StepTooLarge,
)
from nonlocal_nls.pde import (
    _free_flow,
    _pt_flow,
    mirror,
    nonlocal_mass,
    snapshot_from_potential,
    spectral_interpolate,
)


def _grid(L=32.0, N=512):
    """x, dx and the FFT wavenumbers of the symmetric N-point grid on [-L, L)."""
    dx = 2.0 * L / N
    return -L + dx * np.arange(N), dx, 2.0 * np.pi * np.fft.fftfreq(N, d=dx)


def test_mirror_is_exact_involution():
    N = 64
    q = np.arange(N, dtype=complex)
    assert np.all(mirror(mirror(q)) == q)
    x, _, _ = _grid(8.0, N)
    f = np.exp(-((x - 1.3) ** 2))
    # mirror must sample f at -x exactly (periodic identification of +-L)
    assert np.allclose(mirror(f)[1:], np.exp(-((-x - 1.3) ** 2))[1:])


def _free(q, k, dt):
    """The free flow of `_run` over dt: multiplier e^{-i k^2 dt}."""
    return _free_flow(q, np.exp(-1j * k * k * dt))


class TestLinearStep:
    def test_dt_zero_is_identity(self):
        x, _, k = _grid()
        q = np.exp(-x * x) * (1 + 2j)
        assert np.allclose(_free(q, k, 0.0), q)

    def test_plane_wave_phase(self):
        x, _, k = _grid(16.0, 256)
        k0 = 2 * np.pi / 32.0 * 12
        q = np.exp(1j * k0 * x)
        dt = 0.37
        assert np.allclose(_free(q, k, dt), np.exp(-1j * k0 * k0 * dt) * q, atol=1e-12)

    def test_mass_invariance_to_roundoff(self):
        x, dx, k = _grid()
        q = 0.3 * np.exp(-x * x / 4) * np.exp(0.2j * x)
        assert abs(nonlocal_mass(_free(q, k, 0.81), dx) - nonlocal_mass(q, dx)) < 1e-14


def _flow(q, sigma, dt):
    """The nonlinear flow of `_run` over dt at s = 1: coefficient c = 2 i sigma dt."""
    return _pt_flow(q, 2j * sigma * dt)


class TestNonlinearStep:
    def test_dt_zero_is_identity(self):
        x, _, _ = _grid()
        q = np.exp(-x * x) * (0.2 + 0.1j)
        assert np.allclose(_flow(q, 1, 0.0), q)

    def test_real_even_reduces_to_local_phase_rotation(self):
        x, _, _ = _grid()
        q = 0.4 * np.exp(-x * x / 2) + 0j
        dt = 0.23
        expected = q * np.exp(2j * np.abs(q) ** 2 * dt)
        assert np.allclose(_flow(q, 1, dt), expected, atol=1e-14)

    def test_pt_product_invariant(self):
        x, _, _ = _grid()
        q = 0.3 * np.exp(-(x - 0.8) ** 2) * (1 + 0.5j)
        V0 = q * np.conj(mirror(q))
        q1 = _flow(q, -1, 0.42)
        V1 = q1 * np.conj(mirror(q1))
        assert np.abs(V1 - V0).max() < 1e-14

    def test_mass_invariance(self):
        x, dx, _ = _grid()
        q = 0.3 * np.exp(-(x - 0.8) ** 2) * (1 + 0.5j)
        assert abs(nonlocal_mass(_flow(q, 1, 0.42), dx) - nonlocal_mass(q, dx)) < 1e-13


class TestEvolve:
    def test_zero_potential_stays_zero(self):
        pot = Potential(kind="zero", L=16.0, N=256)
        [snap] = evolve(pot, [3.0], 0.01)
        assert np.abs(snap.q).max() == 0

    def test_strang_order_two(self):
        pot = Potential(kind="gaussian", amplitude=0.3, sigma=1,
                        params={"width": 1.0}, L=64.0, N=2048)
        T = 2.0
        ref = evolve(pot, [T], T / 8192)[-1].q
        errs = [np.abs(evolve(pot, [T], dt)[-1].q - ref).max()
                for dt in (T / 256, T / 512, T / 1024)]
        r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
        assert 3.5 <= r1 <= 4.5
        assert 3.5 <= r2 <= 4.5

    def test_mass_conserved_along_run(self):
        pot = Potential(kind="gaussian", amplitude=0.1, sigma=1,
                        params={"width": 1.0}, L=64.0, N=2048)
        m0 = snapshot_from_potential(pot).nonlocal_mass
        [snap] = evolve(pot, [4.0], 5e-3)
        assert abs(snap.nonlocal_mass - m0) < 1e-10 * abs(m0)

    def test_spatial_resolution_doubling(self, monkeypatch):
        lens_box = pde._lens_box
        [a] = evolve(_compact_gauss(2048), [2.0], 1e-3)
        monkeypatch.setattr(pde, "_lens_box",
                            lambda *args: (lens_box(*args)[0], 2 * lens_box(*args)[1]))
        [b] = evolve(_compact_gauss(2048), [2.0], 1e-3)
        assert (len(a.v), len(b.v)) == (512, 1024)
        assert np.abs(b.q - a.q).max() < 1e-12

    def test_step_too_large(self):
        pot = Potential(kind="gaussian", amplitude=0.3, sigma=1,
                        params={"width": 1.0}, L=64.0, N=2048)
        with pytest.raises(StepTooLarge):
            evolve(pot, [1.0], 0.1)

    def test_step_too_large_on_the_step_taken(self, monkeypatch):
        # the one tau step spans 1.45 dt, so it reads 0.65 although dt k_sig^2 = 0.45
        def no_steps(*args, **kwargs):
            raise AssertionError("stepped before refusing the step")

        monkeypatch.setattr(pde, "_run", no_steps)
        pot = _compact_gauss(2048)
        k_sig = pot.signal_bandwidth
        dt = 0.45 / k_sig ** 2
        tau = 1.45 * dt
        with pytest.raises(StepTooLarge, match=r"dt k_sig\^2 = 0\.65"):
            evolve(pot, [tau / (1.0 - tau / pde.T)], dt)

    def test_nonlinear_phase_too_large(self):
        # dt k_sig^2 is about 0.05, but 2 dt max|V| = 1.8 rad per step
        with pytest.raises(StepTooLarge, match="nonlinear phase bound"):
            evolve(_tall_gauss(), [1.0], 0.1)

    def test_boundary_contamination_detected(self, monkeypatch):
        # a third of the sized box: the front reaches its edge between t = 5 and 40
        monkeypatch.setattr(pde, "_lens_box", lambda *args: (12.0, 256))
        pot = Potential(kind="gaussian", amplitude=0.2, sigma=1,
                        params={"width": 1.0}, L=24.0, N=1024)
        assert evolve(pot, [5.0], 5e-3)[-1].step_count == 372
        with pytest.raises(BoundaryContamination, match="outer 10% of the y box"):
            evolve(pot, [40.0], 5e-3)

    def test_discrete_spectrum_refused(self):
        # a(z) has a zero in the upper half-plane: the bound state does not
        # disperse, contracts like 1/s in y and fills the top of the y spectrum
        pot = Potential(kind="gaussian", amplitude=0.8, sigma=1,
                        params={"width": 1.0}, L=32.0, N=1024)
        assert check_genericity(compute_scattering(pot, np.linspace(-8.0, 8.0, 513))).winding >= 1
        assert evolve(pot, [2.0], 5e-3)[-1].step_count == 234
        with pytest.raises(BoundaryContamination, match="top half of the y spectrum"):
            evolve(pot, [40.0], 5e-3)

    def test_full_band_data_refused(self):
        # a box fills every wavenumber of any grid it is sampled on
        pot = Potential(kind="box", amplitude=0.3, sigma=1,
                        params={"left": -1.0, "right": 1.0}, L=8.0, N=256)
        with pytest.raises(BoundaryContamination, match="does not resolve the field"):
            evolve(pot, [0.01], 1e-4)

    def test_snapshot_times(self):
        pot = Potential(kind="gaussian", amplitude=0.1, sigma=1,
                        params={"width": 1.0}, L=64.0, N=1024)
        snaps = evolve(pot, [1.0, 2.0], 1e-2)
        assert [s.t for s in snaps] == [1.0, 2.0]
        assert snaps[0].step_count < snaps[1].step_count

    def test_snapshot_times_outside_run_refused_before_stepping(self, monkeypatch):
        def no_steps(*args, **kwargs):
            raise AssertionError("stepped before refusing the snapshot times")

        monkeypatch.setattr(pde, "_run", no_steps)
        pot = Potential(kind="gaussian", amplitude=0.1, sigma=1,
                        params={"width": 1.0}, L=64.0, N=1024)
        with pytest.raises(BadInput, match="snapshot times"):
            evolve(pot, [-0.5, 1.0], 1e-3)

    @pytest.mark.parametrize("times, dt, error", [
        ([], 0.01, BadInput),
        ([float("inf")], 0.01, BadInput),
        ([float("nan")], 0.01, BadInput),
        ([-0.5, float("inf")], 0.01, BadInput),
        (1.0, 0.01, BadInput),
        ([1.0], float("nan"), BadInput),
        ([1.0], float("inf"), BadInput),
        ([1.0], 0.0, BadInput),
        ([0.0], 0.01, NonpositiveTime),
        ([-1.0], 0.01, NonpositiveTime),
    ])
    def test_bad_times_or_dt_refused_before_stepping(self, monkeypatch, times, dt, error):
        def no_steps(*args, **kwargs):
            raise AssertionError("stepped before refusing the times or dt")

        monkeypatch.setattr(pde, "_run", no_steps)
        pot = Potential(kind="gaussian", amplitude=0.1, sigma=1,
                        params={"width": 1.0}, L=64.0, N=1024)
        with pytest.raises(error):
            evolve(pot, times, dt)

    def test_sigma_matters(self):
        mk = lambda s: Potential(kind="gaussian", amplitude=0.3, sigma=s,
                                 params={"width": 1.0}, L=64.0, N=1024)
        qp = evolve(mk(1), [1.0], 1e-3)[-1].q
        qm = evolve(mk(-1), [1.0], 1e-3)[-1].q
        assert np.abs(qp - qm).max() > 1e-4


def _tall_gauss():
    return Potential(kind="gaussian", amplitude=3.0, sigma=1,
                     params={"width": 10.0}, L=128.0, N=1024)


def _plain_strang(q, L, sigma, n_steps, dt):
    """Independent reference for `_run`: L(dt/2) N(dt) L(dt/2) per step, with the
    np.roll mirror, an np.exp nonlinear flow and fresh arrays throughout."""
    n = len(q)
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=2.0 * L / n)
    half = np.exp(-1j * k * k * (dt / 2.0))
    for _ in range(n_steps):
        q = np.fft.ifft(half * np.fft.fft(q))
        q = q * np.exp(2j * sigma * dt * q * np.conj(np.roll(q[::-1], 1)))
        q = np.fft.ifft(half * np.fft.fft(q))
    return q


def _compact_gauss(N):
    return Potential(kind="gaussian", amplitude=0.3, sigma=1,
                     params={"width": 1.0}, L=64.0, N=N)


def test_matches_plain_strang_loop():
    # both runs make O(dt^2) errors of their own; they agree within 6.2e-9
    pot = _compact_gauss(2048)
    [snap] = evolve(pot, [2.0], 1e-3)
    ref = _plain_strang(pot(pot.grid()), pot.L, pot.sigma, 2000, 1e-3)
    assert np.abs(snap.q - ref).max() <= 2e-8 * np.abs(ref).max()
    m_ref = nonlocal_mass(ref, 2.0 * pot.L / pot.N)
    assert abs(snap.nonlocal_mass - m_ref) <= 1e-11 * abs(m_ref)


def test_work_counts(monkeypatch):
    calls = {"fft": 0, "ifft": 0}

    def counted(name):
        fn = getattr(np.fft, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, wrapper)

    counted("fft")
    counted("ifft")
    pot = Potential(kind="gaussian", amplitude=0.1, sigma=1,
                    params={"width": 2.6}, L=512.0, N=2 ** 15)
    [snap] = evolve(pot, [5.0], 5e-3)
    assert (snap.step_count, len(snap.v)) == (372, 512)
    # fft: bandwidth probe, 373 free flows, 4 edge checks; ifft: 373 free flows
    assert (calls["fft"], calls["ifft"]) == (378, 373)
    # steps uniform in s^{-1/2} number below 1 / (1 - sqrt(1 - dt/T)) = 799.5 for any t
    assert [evolve(pot, [t], 5e-3)[-1].step_count for t in (2560.0, 1e6)] == [777, 798]


def test_spectral_interpolation_band_limited():
    pot = Potential(kind="gaussian", amplitude=0.2, sigma=1,
                    params={"width": 1.5}, L=32.0, N=1024)
    snap = snapshot_from_potential(pot)
    x_pts = np.array([-3.21, 0.077, 4.9])
    vals = [spectral_interpolate(snap, x) for x in x_pts]
    assert np.allclose(vals, pot(x_pts), atol=1e-10)
    # points of the y grid must reproduce the samples exactly
    yg = -snap.Y + (2.0 * snap.Y / len(snap.v)) * np.array([10, 100])
    assert np.allclose([spectral_interpolate(snap, y) for y in yg], pot(yg), atol=1e-12)
    # the field on the configured grid is the same interpolant, 0 off the box
    idx = [100, 500, 1000]
    assert np.allclose(snap.q[idx], [spectral_interpolate(snap, x) for x in snap.grid[idx]],
                       atol=1e-15)
    assert np.all(snap.q[np.abs(snap.grid) >= snap.Y] == 0)
