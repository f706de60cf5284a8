"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers.  Tolerances are pinned here, not configurable."""

import numpy as np
import pytest

from nonlocal_nls import (
    Potential,
    compute_scattering,
    connection_coefficients,
    delta_boundary,
    evolve,
    exact_box_scattering,
    jump_matrix,
    phase_data,
    psi,
    q_asymptotic,
    spectral_interpolate,
)
from nonlocal_nls.errors import ValidityViolation
from nonlocal_nls.pde import snapshot_from_potential
from nonlocal_nls.phase import SpectralContext, beta, nu_tail_with_bound
from conftest import synthetic_context
from oracles import delta, nu_at, weber_residual


def _report(criterion, detail):
    print(f"[PASS] acceptance {criterion}: {detail}")


# ---------------------------------------------------------------------------
# shared heavy fixtures

BOX_CASES = [(0.1, 1), (0.1, -1), (0.3, 1), (0.3, -1)]


@pytest.fixture(scope="module")
def box_datasets():
    out = {}
    zg = np.linspace(-10.0, 10.0, 2049)
    for amp, sigma in BOX_CASES:
        pot = Potential(kind="box", amplitude=amp, sigma=sigma,
                        params={"left": -1.0, "right": 1.0}, L=8.0, N=256)
        out[(amp, sigma)] = (pot, compute_scattering(pot, zg))
    return out


@pytest.fixture(scope="module")
def box03_ctx(box_datasets):
    """Context of the (0.3, +1) box."""
    return SpectralContext(box_datasets[(0.3, 1)][1])


@pytest.fixture(scope="module")
def accept_gaussian():
    return Potential(kind="gaussian", amplitude=0.1, sigma=1,
                     params={"width": 2.6}, L=512.0, N=2 ** 15)


@pytest.fixture(scope="module")
def pde_run(accept_gaussian):
    """One evolution to t = 160 with snapshots at the comparison times."""
    times = [40.0, 80.0, 160.0]
    snaps = evolve(accept_gaussian, times, 5e-3)
    return times, snaps


# ---------------------------------------------------------------------------


def test_criterion_1_scattering_oracle_equivalence(box_datasets):
    worst = 0.0
    for (amp, sigma), (pot, data) in box_datasets.items():
        a, b, ab, bb = exact_box_scattering(pot, data.z_grid)
        scale = float(np.abs(a).max())
        dev = max(
            float(np.abs(a - data.a).max()),
            float(np.abs(b - data.b).max()),
            float(np.abs(ab - data.a_breve).max()),
            float(np.abs(bb - data.b_breve).max()),
        ) / scale
        worst = max(worst, dev)
    assert worst <= 1e-6
    _report(1, f"Volterra vs matrix-exponential oracle, 4 boxes x 2049 z: "
               f"worst rel dev {worst:.2e} <= 1e-6")


def test_criterion_2_algebraic_identities(box_datasets):
    worst_det = worst_a = worst_b = 0.0
    for (amp, sigma), (pot, data) in box_datasets.items():
        worst_det = max(worst_det, data.unimodularity_deviation())
        worst_a = max(worst_a, float(np.abs(data.a - np.conj(data.a[::-1])).max()))
        worst_b = max(worst_b, float(
            np.abs(data.b + sigma * np.conj(data.b_breve[::-1])).max()))
    assert worst_det <= 1e-8 and worst_a <= 1e-8 and worst_b <= 1e-8
    _report(2, f"det S - 1: {worst_det:.2e}; a-symmetry: {worst_a:.2e}; "
               f"b-symmetry: {worst_b:.2e} (all <= 1e-8)")


def test_criterion_3_delta_jump_and_large_z(box03_ctx, accept_gauss_ctx):
    xi = 0.5
    ctx = box03_ctx
    worst = 0.0
    for z0 in np.linspace(-8.0, xi - 0.1, 20):
        dp = delta_boundary(ctx, xi, float(z0), "plus")
        dm = delta_boundary(ctx, xi, float(z0), "minus")
        w = complex(ctx.w(np.asarray(z0)))
        worst = max(worst, abs(dp / dm - w) / abs(w))
    assert worst <= 1e-6

    tail = nu_tail_with_bound(accept_gauss_ctx, xi)[0]
    zbig = complex(xi, 1e3)
    dev = abs(zbig * (delta(accept_gauss_ctx, xi, zbig) - 1.0) - (-1j * tail)) / abs(tail)
    assert dev <= 1e-4
    _report(3, f"delta jump at 20 cut points: worst rel {worst:.2e} <= 1e-6; "
               f"z(delta-1) vs -i*int(nu) at |z|=1e3: rel {dev:.2e} <= 1e-4")


def test_criterion_4_factorization_and_hoelder(box03_ctx):
    xi = 0.5
    ctx = box03_ctx
    nuxi = nu_at(ctx, xi)
    worst = 0.0
    for z in (xi + 0.3 + 0.4j, xi - 1.2 + 0.8j, xi + 2.0 - 1.5j,
              xi + 0.05 + 0.02j, xi - 3.0 - 2.0j, xi + 0.5j):
        lhs = delta(ctx, xi, z)
        rhs = np.exp(1j * beta(ctx, xi, z)) * np.exp(
            1j * nuxi * np.log(complex(z - xi)))
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    assert worst <= 1e-6

    hs = np.geomspace(1e-4, 1e-2, 9)
    b0 = beta(ctx, xi, complex(xi))
    vals = [abs(beta(ctx, xi, complex(xi, h)) - b0) for h in hs]
    slope = float(np.polyfit(np.log(hs), np.log(vals), 1)[0])
    assert slope >= 0.45
    _report(4, f"factorization worst rel {worst:.2e} <= 1e-6; "
               f"Hoelder exponent fit {slope:.3f} >= 0.45")


def test_criterion_5_model_problem(accept_gauss_ctx):
    # Weber ODE residual over the validity box
    orders = [0.0, 1.0, 0.5 + 0.3j, -2.0 + 1.5j, 3j, -10j, 10j, 9.5, -9.5]
    mags = [0.3, 2.0, 6.0, 8.0, 12.0, 30.0, 49.9]
    args = [0.0, np.pi / 4, -np.pi / 4, 2.3, -2.3, np.pi]
    worst_res = max(
        weber_residual(a, m * np.exp(1j * ph))
        for a in orders for m in mags for ph in args
    )
    assert worst_res <= 1e-8

    # Psi jump and beta product, pipeline data at xi = 0.3, t = 100
    xi, t = 0.3, 100.0
    ph = phase_data(accept_gauss_ctx, xi)
    co = connection_coefficients(ph, t)
    V = jump_matrix(co)
    worst_jump = 0.0
    for zr in np.linspace(-3.5, 3.5, 20):
        if abs(zr) < 1e-6:
            continue
        up = psi(complex(zr, 1e-10), co)
        dn = psi(complex(zr, -1e-10), co)
        worst_jump = max(worst_jump, float(np.abs(up - dn @ V).max()))
    prod_dev = abs(co.beta1 * co.beta2 - co.nu)
    assert worst_jump <= 1e-6
    assert prod_dev <= 1e-10
    _report(5, f"Weber residual over box: {worst_res:.2e} <= 1e-8; "
               f"Psi jump at 20 real zeta: {worst_jump:.2e} <= 1e-6; "
               f"beta1*beta2 - nu: {prod_dev:.2e} <= 1e-10")


def test_criterion_6_route_equivalence(box03_ctx):
    # ten (xi, t) pairs across pipeline and synthetic complex-nu data
    pairs = [(0.2, 25.0), (0.2, 80.0), (0.45, 30.0), (0.45, 120.0),
             (-0.35, 64.0), (0.0, 41.0)]
    for xi, t in pairs:
        q_asymptotic(phase_data(box03_ctx, xi), t)   # internal 1e-10 cross-check
    z = np.linspace(-8, 8, 1025)
    sctx = synthetic_context(
        z,
        lambda s: 0.4 * np.exp(-2.0 * (s - 0.1) ** 2 + 0.9j * s),
        lambda s: 0.35 * np.exp(-2.0 * (s + 0.2) ** 2 - 0.4j * s),
    )
    for xi, t in ((0.3, 30.0), (0.0, 75.0), (-0.4, 200.0), (0.6, 45.0)):
        q_asymptotic(phase_data(sctx, xi), t)

    from nonlocal_nls import alpha
    ph = phase_data(box03_ctx, 0.45)
    mags = [abs(alpha(ph, t)) for t in (20.0, 55.0, 300.0)]
    t_dev = (max(mags) - min(mags)) / max(mags)
    assert t_dev <= 1e-12
    _report(6, "alpha-formula vs 2 beta1/sqrt(8t): agreement enforced at "
               f"1e-10 on 10 pairs; |alpha| t-independence dev {t_dev:.2e} "
               "<= 1e-12")


def test_criterion_7_end_to_end_rate(accept_gauss_ctx, pde_run):
    times, snaps = pde_run
    summary = []
    for xi in (0.3, 0.5):
        errs = []
        ph = phase_data(accept_gauss_ctx, xi)
        for snap in snaps:
            q_num = spectral_interpolate(snap, -4.0 * xi * snap.t)
            errs.append(abs(q_num - q_asymptotic(ph, snap.t)[0]))
        monotone = all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
        slope = float(np.polyfit(np.log(times), np.log(errs), 1)[0])
        assert monotone, f"xi={xi}: errors not decreasing: {errs}"
        assert slope <= -0.65, f"xi={xi}: fitted exponent {slope}"
        summary.append(f"xi={xi}: exponent {slope:.3f}, monotone")
    _report(7, "gaussian A=0.1 sigma=+1, t in {40,80,160}: "
               + "; ".join(summary) + " (target <= -0.65)")


def test_decay_law_with_nonzero_im_nu():
    # an off-centre gaussian breaks x -> -x symmetry, so Im nu(xi) != 0 and
    # |q| decays like t^{Im nu - 1/2} along the ray, not like t^{-1/2}
    pot = Potential(kind="gaussian", amplitude=0.3, sigma=-1,
                    params={"width": 1.5, "center": 2.0}, L=32.0, N=1024)
    ctx = SpectralContext(compute_scattering(pot, np.linspace(-8.0, 8.0, 1025)))
    times = [40.0 * 2 ** k for k in range(7)]
    snaps = evolve(pot, times, 5e-3)
    summary = []
    for xi in (0.24, -0.24):
        q_num, q_asym = [], []
        ph = phase_data(ctx, xi)
        for snap in snaps:
            x = -4.0 * xi * snap.t
            q, validity = q_asymptotic(ph, snap.t)
            assert validity == "valid"
            q_num.append(spectral_interpolate(snap, x))
            q_asym.append(q)
        im_nu = ph.nu_at_xi.imag
        slope = float(np.polyfit(np.log(times), np.log(np.abs(q_num)), 1)[0])
        rest = float(np.polyfit(np.log(times),
                                np.log(np.abs(np.subtract(q_num, q_asym))), 1)[0])
        assert abs(im_nu) >= 0.1
        assert abs(slope - (im_nu - 0.5)) <= 0.02, f"xi={xi}: |q| exponent {slope}"
        assert rest <= -0.65, f"xi={xi}: remainder exponent {rest}"
        summary.append(f"xi={xi}: Im nu {im_nu:+.3f}, |q| exponent {slope:.3f} "
                       f"vs {im_nu - 0.5:.3f}, remainder {rest:.3f}")
    _report("7 (Im nu != 0)", "gaussian A=0.3 sigma=-1 centre 2, t = 40..2560: "
            + "; ".join(summary) + " (within 0.02; remainder <= -0.65)")


def test_criterion_8_oracle_integrity(accept_gaussian, pde_run):
    times, snaps = pde_run
    m0 = snapshot_from_potential(accept_gaussian).nonlocal_mass
    drift = max(abs(s.nonlocal_mass - m0) for s in snaps) / abs(m0)
    assert drift <= 1e-10

    # order-2 ratio test for the same stepper on a compact configuration
    pot = Potential(kind="gaussian", amplitude=0.3, sigma=1,
                    params={"width": 1.0}, L=64.0, N=2048)
    T = 2.0
    ref = evolve(pot, [T], T / 8192)[-1].q
    errs = [np.abs(evolve(pot, [T], dt)[-1].q - ref).max()
            for dt in (T / 256, T / 512, T / 1024)]
    ratios = (errs[0] / errs[1], errs[1] / errs[2])
    assert all(3.5 <= r <= 4.5 for r in ratios)
    _report(8, f"nonlocal mass drift {drift:.2e} <= 1e-10 over the full run; "
               f"Strang ratios {ratios[0]:.2f}, {ratios[1]:.2f} in [3.5, 4.5]")


def test_criterion_9_degenerate_gates():
    # zero potential: leading term identically zero, zero comparison error
    pot = Potential(kind="zero", L=64.0, N=1024)
    ctx = SpectralContext(compute_scattering(pot, np.linspace(-8.0, 8.0, 257)))
    [snap] = evolve(pot, [40.0], 0.01)
    xi = 0.3
    q_num = spectral_interpolate(snap, -4 * xi * 40.0)
    q_asym, _ = q_asymptotic(phase_data(ctx, xi), 40.0)
    assert q_asym == 0
    assert abs(q_num - q_asym) == 0.0

    # Im nu >= 1/4 refused
    z = np.linspace(-8, 8, 2049)
    target = 1.0 - (-0.1 - 1.0j)       # makes 1 - r rbreve = -0.1 - 1j at peak

    def r_fn(s):
        return np.exp(-6.0 * (s - 0.3) ** 2) * target ** 0.5

    sctx = synthetic_context(z, r_fn, r_fn)
    nu = nu_at(sctx, 0.3)
    assert nu.imag >= 0.25
    with pytest.raises(ValidityViolation):
        q_asymptotic(phase_data(sctx, 0.3), 50.0)
    _report(9, "zero potential: q_asym == 0 with zero comparison error; "
               f"Im nu = {nu.imag:.3f} >= 1/4 refused with ValidityViolation")
