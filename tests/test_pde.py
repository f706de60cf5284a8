import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nonlocal_nls import Potential, evolve, pde
from nonlocal_nls.errors import (
    BadInput,
    BoundaryContamination,
    NonpositiveTime,
    StepTooLarge,
)
from nonlocal_nls.pde import (
    OUTER_BAND,
    _free_flow,
    _pt_flow,
    _run,
    mirror,
    nonlocal_mass,
    snapshot_from_potential,
    spectral_interpolate,
)


def _snap(q_fn, L=32.0, N=512, sigma=1):
    pot = Potential(kind="zero", L=L, N=N, sigma=sigma)
    snap = snapshot_from_potential(pot)
    snap.q = np.asarray(q_fn(snap.grid), dtype=complex)
    snap.nonlocal_mass = nonlocal_mass(snap.q, snap.dx)
    return snap


def test_mirror_is_exact_involution():
    N = 64
    q = np.arange(N, dtype=complex)
    assert np.all(mirror(mirror(q)) == q)
    pot = Potential(kind="zero", L=8.0, N=N)
    x = pot.grid()
    f = np.exp(-((x - 1.3) ** 2))
    # mirror must sample f at -x exactly (periodic identification of +-L)
    assert np.allclose(mirror(f)[1:], np.exp(-((-x - 1.3) ** 2))[1:])


def _free(snap, dt):
    """The free flow of `_run` over dt: multiplier e^{-i k^2 dt}."""
    k = snap.wavenumbers
    return _free_flow(snap.q, np.exp(-1j * k * k * dt))


class TestLinearStep:
    def test_dt_zero_is_identity(self):
        snap = _snap(lambda x: np.exp(-x * x) * (1 + 2j))
        assert np.allclose(_free(snap, 0.0), snap.q)

    def test_plane_wave_phase(self):
        L, N = 16.0, 256
        k0 = 2 * np.pi / (2 * L) * 12
        snap = _snap(lambda x: np.exp(1j * k0 * x), L=L, N=N)
        dt = 0.37
        q = _free(snap, dt)
        assert np.allclose(q, np.exp(-1j * k0 * k0 * dt) * snap.q, atol=1e-12)

    def test_mass_invariance_to_roundoff(self):
        snap = _snap(lambda x: 0.3 * np.exp(-x * x / 4) * np.exp(0.2j * x))
        q = _free(snap, 0.81)
        assert abs(nonlocal_mass(q, snap.dx) - snap.nonlocal_mass) < 1e-14


def _flow(q, sigma, dt):
    """The nonlinear flow of `_run` over dt, applied to a copy of q."""
    return _pt_flow(q.copy(), sigma, dt, np.empty_like(q), np.empty_like(q))


class TestNonlinearStep:
    def test_dt_zero_is_identity(self):
        snap = _snap(lambda x: np.exp(-x * x) * (0.2 + 0.1j))
        assert np.allclose(_flow(snap.q, snap.sigma, 0.0), snap.q)

    def test_real_even_reduces_to_local_phase_rotation(self):
        snap = _snap(lambda x: 0.4 * np.exp(-x * x / 2))
        dt = 0.23
        q = _flow(snap.q, snap.sigma, dt)
        expected = snap.q * np.exp(2j * snap.sigma * np.abs(snap.q) ** 2 * dt)
        assert np.allclose(q, expected, atol=1e-14)

    def test_pt_product_invariant(self):
        snap = _snap(lambda x: 0.3 * np.exp(-(x - 0.8) ** 2) * (1 + 0.5j),
                     sigma=-1)
        V0 = snap.q * np.conj(mirror(snap.q))
        q = _flow(snap.q, snap.sigma, 0.42)
        V1 = q * np.conj(mirror(q))
        assert np.abs(V1 - V0).max() < 1e-14

    def test_mass_invariance(self):
        snap = _snap(lambda x: 0.3 * np.exp(-(x - 0.8) ** 2) * (1 + 0.5j))
        q = _flow(snap.q, snap.sigma, 0.42)
        assert abs(nonlocal_mass(q, snap.dx) - snap.nonlocal_mass) < 1e-13

    @settings(max_examples=200, deadline=None)
    @given(re=st.floats(-0.707, 0.707), im=st.floats(-0.707, 0.707),
           w=st.complex_numbers(max_magnitude=1.0, allow_subnormal=False))
    def test_series_matches_exp(self, re, im, w):
        # On 6 points x -> -x pairs 1 with 5 and 2 with 4, so with sigma dt = 1/2
        # (c = i) the phases are z at 1, -conj(z) at 5 and exactly 0 at 2;
        # |Re z|, |Im z| <= 0.707 keeps the bound m = sqrt(2) max(...) <= 1.
        z = complex(re, im)
        q = np.array([0.0, -1j * z, w, 0.0, 0.0, 1.0])
        out = _flow(q, 1, 0.5)
        eps = np.finfo(float).eps
        for got, want in ((out[1], q[1] * np.exp(z)), (out[5], np.exp(-z.conjugate()))):
            assert abs(got - want) <= 4 * eps * abs(want)
        assert out[2] == w


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
        # a margin no working grid can meet keeps N' = N, so the two runs
        # really step on 2048 and 4096 points
        monkeypatch.setattr(pde, "BAND_MARGIN", np.inf)
        mk = lambda N: Potential(kind="gaussian", amplitude=0.3, sigma=1,
                                 params={"width": 1.0}, L=64.0, N=N)
        [a] = evolve(mk(2048), [2.0], 1e-3)
        [b] = evolve(mk(4096), [2.0], 1e-3)
        assert (a.working_N, b.working_N) == (2048, 4096)
        assert np.abs(b.q[::2] - a.q).max() < 1e-8

    def test_step_too_large(self):
        pot = Potential(kind="gaussian", amplitude=0.3, sigma=1,
                        params={"width": 1.0}, L=64.0, N=2048)
        with pytest.raises(StepTooLarge):
            evolve(pot, [1.0], 0.1)

    def test_step_too_large_on_the_step_taken(self, monkeypatch):
        # one step spans 1.45 dt, so dt_eff k_sig^2 = 0.65 although dt k_sig^2 = 0.45
        def no_steps(*args, **kwargs):
            raise AssertionError("stepped before refusing the step")

        monkeypatch.setattr(pde, "_run", no_steps)
        pot = Potential(kind="gaussian", amplitude=0.3, sigma=1,
                        params={"width": 1.0}, L=64.0, N=2048)
        k_sig = pde.signal_bandwidth(snapshot_from_potential(pot).q, pot.L)
        dt = 0.45 / k_sig ** 2
        with pytest.raises(StepTooLarge, match=r"dt k_sig\^2 = 0\.65"):
            evolve(pot, [1.45 * dt], dt)

    def test_nonlinear_phase_too_large(self):
        # dt k_sig^2 is about 0.05, but 2 dt max|V| = 1.8 rad per step
        with pytest.raises(StepTooLarge, match="nonlinear phase bound"):
            evolve(_tall_gauss(), [1.0], 0.1)

    def test_boundary_contamination_detected(self, monkeypatch):
        monkeypatch.setattr(pde, "MONITOR_EVERY", 20)
        pot = Potential(kind="gaussian", amplitude=0.2, sigma=1,
                        params={"width": 1.0}, L=24.0, N=1024)
        with pytest.raises(BoundaryContamination):
            evolve(pot, [40.0], 5e-3)

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


def _full_grid(pot, T, dt):
    """The step loop of `evolve` run on all N points of the configured grid."""
    snap = snapshot_from_potential(pot)
    n = max(1, int(round(T / dt)))
    outer = np.abs(snap.grid) > (1.0 - OUTER_BAND) * snap.L
    return _run(snap.q, snap.wavenumbers, snap.sigma, n, T / n, outer)


def _accept_gauss():
    return Potential(kind="gaussian", amplitude=0.1, sigma=1,
                     params={"width": 2.6}, L=512.0, N=2 ** 15)


def _compact_gauss(N):
    return Potential(kind="gaussian", amplitude=0.3, sigma=1,
                     params={"width": 1.0}, L=64.0, N=N)


@pytest.fixture(scope="module")
def accept_full():
    return _full_grid(_accept_gauss(), 5.0, 5e-3)


class TestWorkingGrid:
    @pytest.mark.parametrize("pot, T, dt, n_work", [
        (_accept_gauss(), 5.0, 5e-3, 4096),
        (_compact_gauss(4096), 2.0, 1e-3, 2048),
        (_compact_gauss(2048), 2.0, 1e-3, 2048),
    ], ids=["acceptance", "compact-strided", "compact-full"])
    def test_matches_full_grid(self, pot, T, dt, n_work, request):
        [snap] = evolve(pot, [T], dt)
        assert snap.working_N == n_work
        assert snap.q.shape == (pot.N,)
        assert np.array_equal(snap.grid, pot.grid())
        assert snap.step_count == round(T / dt)
        if pot.N == 2 ** 15:
            ref = request.getfixturevalue("accept_full")
        else:
            ref = _full_grid(pot, T, dt)
        if n_work == pot.N:
            assert np.array_equal(snap.q, ref)
        assert np.abs(snap.q - ref).max() <= 1e-11 * np.abs(ref).max()
        m_ref = nonlocal_mass(ref, snap.dx)
        assert abs(snap.nonlocal_mass - m_ref) <= 1e-11 * abs(m_ref)

    def test_band_monitor_regrows_grid(self, monkeypatch, accept_full):
        sizes = []

        def spy(q, *args):
            sizes.append(len(q))
            return _run(q, *args)

        monkeypatch.setattr(pde, "_run", spy)
        monkeypatch.setattr(pde, "BAND_MARGIN", 1.0)
        [snap] = evolve(_accept_gauss(), [5.0], 5e-3)
        # 1024 and 2048 points resolve k_sig but not the top half of their band
        assert sizes == [1024, 2048, 4096]
        assert snap.working_N == 4096
        assert snap.step_count == 1000
        assert np.abs(snap.q - accept_full).max() <= 1e-11 * np.abs(accept_full).max()

    def test_full_band_runs_on_full_grid(self):
        pot = Potential(kind="box", amplitude=0.3, sigma=1,
                        params={"left": -1.0, "right": 1.0}, L=8.0, N=256)
        [snap] = evolve(pot, [0.01], 1e-4)
        assert snap.working_N == 256
        assert np.array_equal(snap.q, _full_grid(pot, 0.01, 1e-4))


def test_matches_plain_strang_loop():
    pot = _accept_gauss()
    [snap] = evolve(pot, [5.0], 5e-3)
    stride = pot.N // snap.working_N
    ref = _plain_strang(snapshot_from_potential(pot).q[::stride], pot.L, pot.sigma,
                        1000, 5e-3)
    assert np.abs(snap.q[::stride] - ref).max() <= 1e-12 * np.abs(ref).max()
    m_ref = nonlocal_mass(ref, stride * snap.dx)
    assert abs(snap.nonlocal_mass - m_ref) <= 1e-11 * abs(m_ref)


def test_work_counts(monkeypatch):
    calls = {"fft": 0, "ifft": 0, "exp": 0}

    def counted(mod, name):
        fn = getattr(mod, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(mod, name, wrapper)

    counted(np.fft, "fft")
    counted(np.fft, "ifft")
    counted(np, "exp")
    [snap] = evolve(_accept_gauss(), [5.0], 5e-3)
    assert (snap.step_count, snap.working_N) == (1000, 4096)
    # fft: bandwidth probe, first half step, 1000 steps, 10 band checks, pad;
    # ifft: first half step, 1000 steps, pad
    assert (calls["fft"], calls["ifft"]) == (1013, 1002)
    exp_long = calls["exp"]
    calls["exp"] = 0
    assert evolve(_accept_gauss(), [0.5], 5e-3)[-1].step_count == 100
    assert calls["exp"] == exp_long


def test_spectral_interpolation_band_limited():
    pot = Potential(kind="gaussian", amplitude=0.2, sigma=1,
                    params={"width": 1.5}, L=32.0, N=1024)
    snap = snapshot_from_potential(pot)
    x_pts = np.array([-3.21, 0.077, 4.9])
    vals = [spectral_interpolate(snap, x) for x in x_pts]
    assert np.allclose(vals, pot(x_pts), atol=1e-10)
    # on-grid points must reproduce samples exactly
    xg = snap.grid[[10, 500]]
    assert np.allclose([spectral_interpolate(snap, x) for x in xg], snap.q[[10, 500]],
                       atol=1e-12)
