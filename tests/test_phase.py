import cmath
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from nonlocal_nls import (
    Potential,
    beta,
    check_genericity,
    cli,
    compute_scattering,
    delta_boundary,
    exact_box_scattering,
    phase,
    phase_data,
    q_asymptotic,
    stationary_point,
)
from nonlocal_nls.errors import (
    BadInput,
    BranchViolation,
    CutEvaluation,
    GenericityViolation,
    NonpositiveTime,
    QuadratureFailure,
    WindowExceeded,
)
from nonlocal_nls.phase import SpectralContext, nu_tail_with_bound
from nonlocal_nls.potentials import UniformSpline

from conftest import synthetic_data
from oracles import delta, nu_at

XI = 0.5


class TestStationaryPoint:
    def test_origin(self):
        assert stationary_point(0.0, 1.0) == 0.0

    def test_direct_formula(self):
        assert stationary_point(-4.0, 1.0) == 1.0

    def test_phase_derivative_vanishes(self):
        # phi = i(zx/t + 2z^2): phi'(xi) = i(x/t + 4 xi) = 0
        x, t = 3.7, 2.9
        xi = stationary_point(x, t)
        assert abs(x / t + 4.0 * xi) < 1e-14

    def test_nonpositive_time(self):
        with pytest.raises(NonpositiveTime):
            stationary_point(1.0, 0.0)
        with pytest.raises(NonpositiveTime):
            stationary_point(1.0, -2.0)


class TestNu:
    def test_zero_reflection_gives_zero(self, make_synthetic):
        z = np.linspace(-8, 8, 257)
        ctx = make_synthetic(z, lambda s: 0 * s, lambda s: 0 * s)
        assert nu_at(ctx, 0.3) == 0

    def test_log_e_value(self, make_synthetic):
        # 1 - r rbreve = e everywhere  =>  nu = -1/(2 pi)
        z = np.linspace(-8, 8, 257)
        c = np.sqrt(complex(1.0 - np.e))  # r = rbreve = c makes 1 - r rbreve = e
        ctx = make_synthetic(z, lambda s: c + 0 * s, lambda s: c + 0 * s)
        assert nu_at(ctx, 0.0) == pytest.approx(-1.0 / (2 * np.pi), abs=1e-12)

    def test_box_nu_matches_oracle_route(self, box_plus, box_ctx):
        a, b, ab, bb = exact_box_scattering(box_plus, 0.0)
        w = 1 - (b / a) * (bb / ab)
        expected = -np.log(w) / (2 * np.pi)
        assert nu_at(box_ctx, 0.0) == pytest.approx(expected, abs=1e-8)

    def test_outside_grid(self, box_ctx):
        with pytest.raises(WindowExceeded):
            nu_at(box_ctx, 99.0)

    def test_branch_violation_detected(self, make_synthetic):
        # r rbreve winds around 1: the unwrapped arg must hit pi
        z = np.linspace(-8, 8, 1025)
        r_fn = lambda s: 1.3 * np.exp(-0.5 * s * s) * np.exp(2j * s)
        with pytest.raises(BranchViolation):
            nu_at(make_synthetic(z, r_fn, r_fn), 0.0)

    def test_bound_state_refused(self):
        # a and abreve each have one zero off the axis (see test_scattering)
        pot = Potential(kind="gaussian", amplitude=0.8, sigma=1, params={"width": 1.0},
                        L=32.0, N=1024)
        data = compute_scattering(pot, np.linspace(-8.0, 8.0, 513))
        assert not check_genericity(data).passed
        with pytest.raises(GenericityViolation, match=r"route real_axis\): a has 1 zero"):
            SpectralContext(data)

    def test_context_floor_is_the_report_floor(self, make_synthetic):
        # |1 - r rbreve| = c at z = 0 and nowhere less; the context is refused
        # exactly where the report fails
        z = np.linspace(-4, 4, 65)
        for c, ok in ((1e-7, False), (2e-6, True)):
            r_fn = lambda s: np.sqrt(1.0 - c) * np.exp(-s * s) + 0j
            rep = check_genericity(synthetic_data(z, r_fn, r_fn))
            assert rep.passed == rep.rr_pass == ok
            if ok:
                make_synthetic(z, r_fn, r_fn)
            else:
                with pytest.raises(GenericityViolation, match=r"1 - r rbreve\| reaches 1.000e-07"):
                    make_synthetic(z, r_fn, r_fn)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("field", ["r", "r_breve"])
    def test_non_finite_data_refused(self, box_data, monkeypatch, field, bad):
        def no_spline(*args, **kwargs):
            raise AssertionError("a spline was built from non-finite data")

        values = getattr(box_data, field).copy()
        values[1000] = bad
        monkeypatch.setattr(phase, "UniformSpline", no_spline)
        with pytest.raises(BadInput):
            SpectralContext(dataclasses.replace(box_data, **{field: values}))


class TestDelta:
    def test_zero_reflection_delta_is_one(self, make_synthetic):
        z = np.linspace(-8, 8, 257)
        ctx = make_synthetic(z, lambda s: 0 * s, lambda s: 0 * s)
        assert delta(ctx, 0.0, 1.0 + 1.0j) == pytest.approx(1.0, abs=1e-12)

    def test_cut_evaluation_refused(self, box_ctx):
        with pytest.raises(CutEvaluation):
            delta(box_ctx, XI, complex(XI - 1.0, 0.0))

    def test_plemelj_jump(self, box_ctx):
        for z0 in np.linspace(-10.0, XI - 0.1, 20):
            dp = delta_boundary(box_ctx, XI, float(z0), "plus")
            dm = delta_boundary(box_ctx, XI, float(z0), "minus")
            w = complex(box_ctx.w(np.asarray(z0)))
            assert abs(dp / dm - w) < 1e-6 * abs(w)

    def test_bounded_off_cut(self, box_ctx):
        pts = [XI + 0.5 + 0.5j, XI - 2 + 1j, XI + 3 - 2j, XI + 0.1 - 0.3j, 5 + 5j]
        vals = [delta(box_ctx, XI, z) for z in pts]
        assert all(0.05 < abs(v) < 20 for v in vals)

    def test_mean_value_property(self, box_ctx):
        z0 = complex(XI + 1.0, 1.5)
        ring = np.mean([
            delta(box_ctx, XI, z0 + 0.3 * np.exp(2j * np.pi * k / 16))
            for k in range(16)
        ])
        assert abs(ring - delta(box_ctx, XI, z0)) < 1e-6


class TestBetaFactorization:
    def test_zero_nu_gives_zero_beta(self, make_synthetic):
        z = np.linspace(-8, 8, 257)
        ctx = make_synthetic(z, lambda s: 0 * s, lambda s: 0 * s)
        assert abs(beta(ctx, 0.0, 1.0 + 0.5j)) < 1e-12

    def test_factorization_identity(self, box_ctx):
        nuxi = nu_at(box_ctx, XI)
        for z in (XI + 0.3 + 0.4j, XI - 1.2 + 0.8j, XI + 2.0 - 1.5j,
                  XI + 0.05 + 0.02j):
            lhs = delta(box_ctx, XI, z)
            rhs = np.exp(1j * beta(box_ctx, XI, z)) \
                * np.exp(1j * nuxi * np.log(complex(z - XI)))
            assert abs(lhs - rhs) < 1e-6 * abs(lhs)

    def test_hoelder_exponent(self, box_ctx):
        hs = np.geomspace(1e-4, 1e-2, 7)
        b0 = beta(box_ctx, XI, complex(XI))
        vals = [abs(beta(box_ctx, XI, complex(XI, h)) - b0) for h in hs]
        slope = np.polyfit(np.log(hs), np.log(vals), 1)[0]
        assert slope >= 0.45

    def test_delta0_limit_consistency(self, box_ctx):
        d0 = phase_data(box_ctx, XI).delta0
        nuxi = nu_at(box_ctx, XI)
        z = complex(XI, 1e-4)
        val = delta(box_ctx, XI, z) * np.exp(-1j * nuxi * np.log(complex(z - XI)))
        assert abs(val - d0) < 1e-4 * abs(d0)

    def test_delta0_quadrature_stability(self, box_plus, box_ctx):
        # doubling the grid sampling changes delta0 below 1e-6
        from nonlocal_nls import compute_scattering
        dense = SpectralContext(compute_scattering(box_plus, np.linspace(-16, 16, 4097)))
        assert abs(phase_data(dense, XI).delta0 - phase_data(box_ctx, XI).delta0) < 1e-6


class TestNuTail:
    def test_zero_reflection(self, make_synthetic):
        z = np.linspace(-8, 8, 257)
        ctx = make_synthetic(z, lambda s: 0 * s, lambda s: 0 * s)
        assert abs(nu_tail_with_bound(ctx, 0.0)[0]) < 1e-12

    def test_matches_large_z_slope_of_delta(self, gauss_small_ctx):
        tail = nu_tail_with_bound(gauss_small_ctx, XI)[0]
        zbig = complex(XI, 1e3)
        lhs = zbig * (delta(gauss_small_ctx, XI, zbig) - 1.0)
        assert abs(lhs - (-1j * tail)) < 1e-4 * abs(tail)

    def test_window_doubling_within_bound(self, box_plus):
        from nonlocal_nls import compute_scattering
        d1 = SpectralContext(compute_scattering(box_plus, np.linspace(-16, 16, 2049)))
        d2 = SpectralContext(compute_scattering(box_plus, np.linspace(-32, 32, 4097)))
        v1, b1 = nu_tail_with_bound(d1, XI)
        v2, _ = nu_tail_with_bound(d2, XI)
        assert abs(v1 - v2) < b1


def test_phase_data_bundle(box_ctx):
    ph = phase_data(box_ctx, XI)
    assert ph.xi == XI
    assert np.isfinite(ph.nu_at_xi.real) and np.isfinite(ph.nu_at_xi.imag)
    assert abs(ph.delta0) > 0
    assert box_ctx.branch_max_arg < np.pi
    fields = {f.name for f in dataclasses.fields(ph)}
    assert fields == {"xi", "nu_at_xi", "delta0", "r_xi", "r_breve_xi"}


# ---------------------------------------------------------------------------
# one evaluation path per value: alone or in an array, the same bits

@pytest.fixture(scope="module")
def im_nu_ctx():
    """The README's Im nu example: an off-centre gaussian, Im nu(+-0.24) = +-0.128."""
    pot = Potential(kind="gaussian", amplitude=0.3, sigma=-1,
                    params={"width": 1.5, "center": 2.0}, L=32.0, N=1024)
    return SpectralContext(compute_scattering(pot, np.linspace(-8.0, 8.0, 1025)))


def _same_bits(a, b):
    """Whether complex values a and b have the same bits (so -0.0 is not 0.0)."""
    a, b = (np.ascontiguousarray(v, dtype=complex).view(np.uint64) for v in (a, b))
    return np.array_equal(a, b)


@pytest.fixture(params=["box", "im_nu"])
def one_path_ctx(request, box_ctx, im_nu_ctx):
    return box_ctx if request.param == "box" else im_nu_ctx


class TestOnePathPerValue:
    def test_nu_and_w_are_the_same_alone_or_in_an_array(self, one_path_ctx):
        # numpy's array complex product fuses multiply-adds and its 0-d one does not;
        # on the box that moved Im nu off the exact 0.0 of a lone point
        ctx = one_path_ctx
        xs = np.random.default_rng(7).uniform(ctx.z_lo, ctx.z_hi, 2000)
        for f in (ctx.nu, ctx.w):
            assert _same_bits(f(xs), [f(np.asarray(x)) for x in xs])

    def test_grid_w_is_formed_as_the_spline_forms_it(self, accept_gauss_ctx, accept_gauss_data):
        # a sigma = +1 real even gaussian has rbreve = -conj(r), so 1 - r rbreve is real
        # and its arg is exactly 0 in real arithmetic; numpy's fused complex product
        # left 2.5e-18 on the grid
        data = accept_gauss_data
        assert np.array_equal(data.r_breve, -np.conj(data.r))
        assert accept_gauss_ctx.branch_max_arg == 0.0

    def test_delta0_subtracts_nu_at_xi(self, one_path_ctx, monkeypatch):
        # every nu that the sweep reads at a point equal to xi is that xi's nu_at_xi
        ctx = one_path_ctx
        ctx._nodes  # the node table is built once per context, outside the record
        reads = []   # the points of each spline call, then the nu made of its columns
        spline, branch_nu = UniformSpline.__call__, phase._branch_nu

        def recorded_nu(*args):
            nu = branch_nu(*args)
            reads.append(np.atleast_1d(nu))
            return nu

        monkeypatch.setattr(UniformSpline, "__call__",
                            lambda self, x: reads.append(np.atleast_1d(x)) or spline(self, x))
        monkeypatch.setattr(phase, "_branch_nu", recorded_nu)
        xs = np.random.default_rng(9).uniform(ctx.z_lo + 1.0, ctx.z_hi, 200)
        nu_at_xi = {ph.xi: ph.nu_at_xi for ph in phase_data(ctx, xs)}
        matched = 0
        for points, nus in zip(reads[::2], reads[1::2]):
            for s, nu in zip(points, nus):
                if s in nu_at_xi:
                    assert _same_bits(nu, nu_at_xi[s])
                    matched += 1
        assert matched >= xs.size


# ---------------------------------------------------------------------------
# composite Gauss-Legendre production path against the quad oracle

XI_FIXED = (-13.7, -5.1, 0.5, 7.3, 13.9)


@pytest.fixture(params=["box", "gaussian"])
def spectral(request, box_data, accept_gauss_data):
    return box_data if request.param == "box" else accept_gauss_data


def _quad_nu_tail(ctx, xi):
    kw = dict(limit=400, epsabs=1e-12, epsrel=1e-11)
    re = quad(lambda s: ctx.nu(np.asarray(s)).real, ctx.z_lo, xi, **kw)[0]
    im = quad(lambda s: ctx.nu(np.asarray(s)).imag, ctx.z_lo, xi, **kw)[0]
    return complex(re, im)


class TestGaussLegendrePath:
    def test_matches_quad_oracle(self, spectral):
        ctx = SpectralContext(spectral)
        for xi in XI_FIXED:
            ph = phase_data(ctx, xi)
            d0 = cmath.exp(1j * beta(ctx, xi, complex(xi)))
            assert abs(ph.delta0 - d0) <= 1e-9 * abs(d0)
            tail = nu_tail_with_bound(ctx, xi)[0]
            assert abs(tail - _quad_nu_tail(ctx, xi)) <= 1e-10

    def test_doubled_rule_agrees(self, spectral, monkeypatch):
        coarse = SpectralContext(spectral)
        monkeypatch.setattr(phase, "GL_NODES", 2 * phase.GL_NODES)
        fine = SpectralContext(spectral)
        for xi in XI_FIXED:
            assert abs(phase_data(coarse, xi).delta0 - phase_data(fine, xi).delta0) <= 1e-13
            assert abs(nu_tail_with_bound(coarse, xi)[0]
                       - nu_tail_with_bound(fine, xi)[0]) <= 1e-13

    @settings(max_examples=40, deadline=None)
    @given(u=st.floats(0.0, 1.0))
    def test_matches_quad_oracle_anywhere(self, box_ctx, accept_gauss_ctx, u):
        # every xi the window serves, [z_lo + 1, z_hi], knots included
        for ctx in (box_ctx, accept_gauss_ctx):
            xi = min(ctx.z_lo + 1.0 + u * (ctx.z_hi - ctx.z_lo - 1.0), ctx.z_hi)
            d0 = cmath.exp(1j * beta(ctx, xi, complex(xi)))
            assert abs(phase_data(ctx, xi).delta0 - d0) <= 1e-9 * abs(d0)

    @pytest.mark.parametrize("xi", [0.5, -5.0, 0.0])
    def test_xi_on_a_knot(self, box_ctx, accept_gauss_ctx, xi):
        # 0.5 = -16 + 1056/64, -5 = -16 + 704/64 and 0 are knots of the 2049-point
        # grid; one ulp above a knot the last interval is one ulp long (5e-324 above 0)
        for ctx in (box_ctx, accept_gauss_ctx):
            assert xi in ctx.z_grid
            d0 = phase_data(ctx, xi).delta0
            assert cmath.isfinite(d0)
            for near in (xi - 1e-12, xi + 1e-12, np.nextafter(xi, np.inf)):
                assert abs(phase_data(ctx, near).delta0 - d0) <= 1e-11

    def test_phase_data_makes_no_quad_calls(self, box_ctx, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("scipy quad called on the phase_data path")

        monkeypatch.setattr(phase, "quad", refuse)
        for xi in XI_FIXED:
            phase_data(box_ctx, xi)

    def test_error_gate_raises(self, box_ctx, monkeypatch):
        monkeypatch.setattr(phase, "ERR_GATE", 1e-30)
        with pytest.raises(QuadratureFailure):
            phase_data(box_ctx, XI)

    def test_roundoff_noise_in_r_moves_little(self, box_data, monkeypatch):
        # r, rbreve scaled by 1 + 1e-13 U(-1, 1): the fixed rule must neither
        # change its node count nor amplify the noise
        rng = np.random.default_rng(13)
        n = box_data.z_grid.size
        noisy = dataclasses.replace(
            box_data,
            r=box_data.r * (1.0 + 1e-13 * rng.uniform(-1.0, 1.0, n)),
            r_breve=box_data.r_breve * (1.0 + 1e-13 * rng.uniform(-1.0, 1.0, n)),
        )
        nu = SpectralContext.nu
        counts = []

        def counted(self, s):
            counts[-1] += np.size(s)
            return nu(self, s)

        monkeypatch.setattr(SpectralContext, "nu", counted)
        runs = []
        for data in (box_data, noisy):
            counts.append(0)
            ctx = SpectralContext(data)
            runs.append([(phase_data(ctx, xi), nu_tail_with_bound(ctx, xi)[0])
                         for xi in XI_FIXED])
        assert counts[0] == counts[1]
        for (clean, clean_tail), (moved, moved_tail) in zip(*runs):
            assert abs(clean.delta0 - moved.delta0) <= 1e-11
            assert abs(clean_tail - moved_tail) <= 1e-11

    def test_window_refuses_nan_and_outside(self, box_ctx):
        # (entry point, reach): each serves exactly the xi with
        # [xi - reach, xi] inside the grid [-16, 16]
        entry_points = [
            (nu_at, 0.0),
            (lambda ctx, xi: delta(ctx, xi, 1.0 + 1.0j), 0.0),
            (lambda ctx, xi: beta(ctx, xi, 1.0 + 1.0j), 1.0),
            (phase_data, 1.0),
            (nu_tail_with_bound, 0.0),
        ]
        for call, reach in entry_points:
            for xi in (float("nan"), 16.5, -16.5 + reach):
                with pytest.raises(WindowExceeded):
                    call(box_ctx, xi)
            for xi in (-16.0 + reach, 16.0):
                call(box_ctx, xi)

    def test_quad_oracle_refuses_nan(self, box_ctx):
        nan = float("nan")
        for call in (lambda: delta(box_ctx, nan, 1 + 1j),
                     lambda: delta_boundary(box_ctx, nan, 0.0, "plus"),
                     lambda: beta(box_ctx, nan, 1 + 1j)):
            with pytest.raises(WindowExceeded):
                call()

    @pytest.mark.parametrize("call", [
        lambda ctx: delta(ctx, 0.5, complex(float("nan"), 1.0)),
        lambda ctx: delta_boundary(ctx, 0.5, float("nan"), "plus"),
        lambda ctx: beta(ctx, 0.5, complex(float("nan"), 1.0)),
        lambda ctx: delta_boundary(ctx, 0.5, 0.0, "bogus"),
    ], ids=["delta", "delta_boundary", "beta", "delta_boundary_side"])
    def test_quad_oracle_refuses_nan_point(self, box_ctx, monkeypatch, call):
        def no_quad(*args, **kwargs):
            raise AssertionError("quad ran on an input it must refuse")

        monkeypatch.setattr(phase, "quad", no_quad)
        with pytest.raises(BadInput):
            call(box_ctx)

    def test_phase_data_spline_calls(self, box_ctx, monkeypatch):
        # every point of delta0 (xi and the 8 nodes of [z_k, xi]) in one spline
        # call, which gives r, rbreve and nu(xi) too
        box_ctx._nodes  # the node table is built once per context, outside the count
        points = []
        call = UniformSpline.__call__
        monkeypatch.setattr(UniformSpline, "__call__",
                            lambda self, x: points.append(np.size(x)) or call(self, x))
        for xi in (-5.1, -5.0, 0.5, 7.3):
            points.clear()
            phase_data(box_ctx, xi)
            assert points == [9]

    def test_queries_compute_no_nu_tail(self, box_data, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the nu tail integral ran on the query path")

        for mod in (phase, cli):
            monkeypatch.setattr(mod, "nu_tail_with_bound", refuse)
        ctx = SpectralContext(box_data)
        t = 40.0
        phases = cli._ray_phases(ctx, [(-4.0 * xi * t, t) for xi in (-5.1, 0.3, 0.5, 7.3)])
        for ph in phases.values():
            q_asymptotic(ph, t)
        assert len(phases) == 4

    def test_memo_keeps_nearby_xi_apart(self, box_ctx, monkeypatch):
        # the CLI's phase data are keyed by the float xi, one sweep for all of them
        calls = []
        monkeypatch.setattr(cli, "phase_data",
                            lambda ctx, xi: calls.append(list(xi)) or phase_data(ctx, xi))
        t = 40.0
        phases = cli._ray_phases(box_ctx, [(-4.0 * xi * t, t) for xi in (0.5, 0.5 + 3e-13, 0.5)])
        keys = sorted(phases)
        assert len(keys) == 2 and keys[0] != keys[1]
        assert round(keys[0], 12) == round(keys[1], 12)
        assert calls == [list(phases)]

    def test_sweep_equals_single_calls(self, box_ctx, accept_gauss_ctx):
        # knots (0.5, -5, 0), a few ulps above 0.5, 1e-308 above the knot 0 (offsets
        # below the least normal double), and both window edges of delta0's range
        above = [0.5]
        for _ in range(3):
            above.append(float(np.nextafter(above[-1], np.inf)))
        xis = np.array([0.5, -5.0, 0.0, *above[1:], 1e-308, -15.0, 16.0, -13.7, 7.3])
        for ctx in (box_ctx, accept_gauss_ctx):
            swept = phase_data(ctx, xis)
            assert isinstance(swept, list) and len(swept) == xis.size
            for xi, nu, ph in zip(xis, ctx.nu(xis), swept):
                single = phase_data(ctx, float(xi))
                assert isinstance(single, phase.PhaseData)
                for f in dataclasses.fields(ph):
                    assert _same_bits(getattr(ph, f.name), getattr(single, f.name)), f.name
                assert _same_bits(ph.nu_at_xi, nu)
            assert phase_data(ctx, xis[:0]) == []

    def test_sweep_refuses_what_one_xi_refuses(self, box_ctx):
        for xi in (float("nan"), -15.5, 16.5):
            with pytest.raises(WindowExceeded):
                phase_data(box_ctx, np.array([0.5, xi]))
        with pytest.raises(BadInput):
            phase_data(box_ctx, np.array([[0.5]]))


# ---------------------------------------------------------------------------
# the adaptive quad oracle of delta, delta_boundary and beta

class TestQuadOracle:
    @pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9])
    def test_error_estimate_covers_log_ratio_error(self, eps):
        # int_a^b ds/(s - z) in closed form, z = x0 + i eps split at x0; x0 is
        # not dyadic, so the rounding of the nodes next to it is part of the error
        a, b, x0 = -2.0, 3.0, 0.37
        z = complex(x0, eps)
        val, err = phase.quad(lambda s: 1.0 / (s - z), a, b, point=x0)
        assert abs(val - phase._log_ratio(z, b, a)) <= err <= phase.ERR_GATE

    def test_interval_cap_fails_the_gate(self, monkeypatch):
        monkeypatch.setattr(phase, "_QUAD_LIMIT", 1)
        z = complex(0.37, 1e-6)
        with pytest.raises(QuadratureFailure):
            phase.quad(lambda s: 1.0 / (s - z), -2.0, 3.0, point=0.37)

    def test_wide_window_leaves_room_to_refine(self):
        # unit intervals alone would fill _QUAD_LIMIT on [-300, 300] in the first
        # sweep and leave the width-1e-6 feature at x0 unresolved
        a, b, x0 = -300.0, 300.0, 0.37
        z = complex(x0, 1e-6)
        val, err = phase.quad(lambda s: 1.0 / (s - z), a, b, point=x0)
        assert abs(val - phase._log_ratio(z, b, a)) <= err <= phase.ERR_GATE

    def test_nan_integrand_fails_the_gate(self):
        with pytest.raises(QuadratureFailure):
            phase.quad(lambda s: s * np.nan, 0.0, 1.0)

    def test_beta_at_xi_is_continuous_in_xi(self, accept_gauss_ctx):
        # beta(xi, xi) is about 1.49e-3 here and moves by about 1.5e-6 from 15.5 to
        # 15.515625 (delta0 agrees); a first sweep over [z_lo, xi - 1] as one
        # interval puts every node off the nu bump near 0 and reads about 0
        ctx = accept_gauss_ctx
        b1, b2 = (beta(ctx, xi, complex(xi)) for xi in (15.5, 15.515625))
        assert abs(b1 - b2) <= 1e-4

    @pytest.mark.parametrize("sgn", [1.0, -1.0])
    def test_cauchy_integral_next_to_the_cut(self, accept_gauss_ctx, sgn):
        # one of verify's delta+- points, z = 0.1 +- 1.3e-6 i below xi = 0.3;
        # the reference splits geometrically around Re z, so scipy's quad
        # resolves the width-eps feature on both sides (a single split at
        # Re z does not: it is off by 1.9e-6 in the imaginary part)
        ctx, x0, b = accept_gauss_ctx, 0.1, 0.3
        z = complex(x0, sgn * 1.3e-6)
        nu_ref = complex(ctx.nu(np.asarray(x0)))
        d = 1.3e-6 * 2.0 ** np.arange(-4, 25)
        pts = np.r_[x0 - d, x0, x0 + d]
        kw = dict(points=np.sort(pts[(pts > ctx.z_lo) & (pts < b)]),
                  limit=5000, epsabs=1e-15, epsrel=1e-12)

        def f(s):
            return (complex(ctx.nu(np.asarray(s))) - nu_ref) / (s - z)

        ref = complex(quad(lambda s: f(s).real, ctx.z_lo, b, **kw)[0],
                      quad(lambda s: f(s).imag, ctx.z_lo, b, **kw)[0])
        ref += nu_ref * phase._log_ratio(z, b, ctx.z_lo)
        assert abs(phase._cauchy_nu(ctx, b, z, b) - ref) <= 1e-11
