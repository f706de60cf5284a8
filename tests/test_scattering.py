import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from nonlocal_nls import (
    Potential,
    _cf4,
    check_genericity,
    compute_scattering,
    exact_box_scattering,
    scattering,
)
from nonlocal_nls._cf4 import y_matrix_batch
from nonlocal_nls.errors import (
    BadInput,
    GenericityViolation,
    IntegratorDivergence,
    NotPiecewiseConstant,
    TruncationTooSmall,
)

from conftest import jost_nodes, synthetic_data

# frozen via scipy.linalg.expm over the interval partition (independent route)
FROZEN_BOX = {
    (0.3, 1, -1.0, 1.0, 0.7): (
        0.9128379487818193 - 0.10911644649548256j,
        -0.3934723374876548 + 0.0j,
        0.9128379487818193 + 0.10911644649548238j,
        0.39347233748765487 + 0.0j,
    ),
    (0.3, -1, -1.0, 1.0, 1.3): (
        1.0057513632552968 + 0.08377198774699401j,
        0.13621141883473242 + 0.0j,
        1.0057513632552968 - 0.0837719877469938j,
        0.13621141883473234 + 0.0j,
    ),
    (0.2 + 0.1j, 1, 0.25, 1.5, 0.4): (
        0.987791640051653 - 0.07078265133727445j,
        -0.26055604171361224 - 0.06275598644462131j,
        1.0 + 0.0j,
        0.10612883587247027 + 0.24609842523766257j,
    ),
}


def _box(amplitude, sigma, left, right):
    return Potential(kind="box", amplitude=amplitude, sigma=sigma,
                     params={"left": left, "right": right}, L=8.0, N=256)


class TestExactBoxOracle:
    def test_zero_amplitude_is_identity(self):
        a, b, ab, bb = exact_box_scattering(_box(0.0, 1, -1, 1), 0.9)
        assert a == pytest.approx(1.0) and ab == pytest.approx(1.0)
        assert b == 0 and bb == 0

    def test_hand_value_at_z0(self):
        # transfer over [-1,1] is exp(2Q) with Q^2 = -0.09 I: a(0) = cos(0.6)
        a, b, ab, bb = exact_box_scattering(_box(0.3, 1, -1, 1), 0.0)
        assert a == pytest.approx(np.cos(0.6), abs=1e-14)

    @pytest.mark.parametrize("key", list(FROZEN_BOX))
    def test_frozen_references(self, key):
        A, sigma, left, right, z = key
        a, b, ab, bb = exact_box_scattering(_box(A, sigma, left, right), z)
        ra, rb, rab, rbb = FROZEN_BOX[key]
        assert a == pytest.approx(ra, abs=1e-12)
        assert b == pytest.approx(rb, abs=1e-12)
        assert ab == pytest.approx(rab, abs=1e-12)
        assert bb == pytest.approx(rbb, abs=1e-12)

    def test_unimodular_for_any_z(self):
        box = _box(0.25 + 0.15j, -1, -0.5, 1.25)
        z = np.linspace(-9, 9, 101)
        a, b, ab, bb = exact_box_scattering(box, z)
        assert np.abs(a * ab - b * bb - 1.0).max() < 1e-12

    def test_rejects_non_box(self, gauss_small):
        with pytest.raises(NotPiecewiseConstant):
            exact_box_scattering(gauss_small, 1.0)


def _trajectory(potential, z, n_nodes=129):
    """Y(z, x) as (n_nodes, 2, 2) on n_nodes points over [-X, X].

    The legs share 384 steps, many more than the box's constant pieces need.
    """
    X = potential.scatter_halfwidth()
    Y = jost_nodes(potential, z, np.linspace(-X, X, n_nodes), 384)
    return np.array([[[y11, y12], [y21, y22]] for y11, y12, y21, y22 in Y])[..., 0]


class TestJost:
    def test_zero_potential_identity(self):
        pot = Potential(kind="zero", L=8.0, N=64)
        Y = _trajectory(pot, 1.3)
        assert np.abs(Y - np.eye(2)).max() < 1e-12

    def test_det_is_one_along_trajectory(self, box_plus):
        Y = _trajectory(box_plus, 0.7)
        det = Y[:, 0, 0] * Y[:, 1, 1] - Y[:, 0, 1] * Y[:, 1, 0]
        assert np.abs(det - 1.0).max() < 1e-8

    def test_normalized_at_own_end(self, box_plus):
        Y = _trajectory(box_plus, 0.7)
        assert np.abs(Y[0] - np.eye(2)).max() < 1e-10

    def test_volterra_matches_box_oracle(self, box_plus):
        S = _trajectory(box_plus, 0.7)[-1]
        a, b, ab, bb = exact_box_scattering(box_plus, 0.7)
        assert abs(S[0, 0] - a) < 1e-6 * abs(a)
        assert abs(S[1, 0] - b) < 1e-6 * abs(b)

    def test_born_limit_small_amplitude(self):
        # S - I agrees with the one-term Neumann/Born integral to O(A^2)
        A, z = 1e-3, 0.8
        pot = Potential(kind="gaussian", amplitude=A, sigma=1,
                        params={"width": 1.0}, L=16.0, N=512)
        data = compute_scattering(pot, np.linspace(-z, z, 9))
        born = quad(lambda y: A * np.exp(-y * y / 2.0) * np.cos(2 * y * z),
                    -16, 16)[0] - 1j * quad(
            lambda y: A * np.exp(-y * y / 2.0) * np.sin(2 * y * z), -16, 16)[0]
        # b(z) = Y21(z, +inf) ~ -sigma int conj(q(-y)) e^{-2iyz} dy
        assert abs(data.b[-1] - (-born)) < 20 * A * A
        assert abs(data.a[-1] - 1.0) < 20 * A * A

    def test_truncation_guard_for_fat_tailed_samples(self):
        N = 256
        vals = np.full(N, 0.05, dtype=complex)      # no decay at the edges
        pot = Potential(kind="samples", sigma=1, L=8.0, N=N,
                        params={"samples": vals})
        with pytest.raises(TruncationTooSmall):
            compute_scattering(pot, np.linspace(-4, 4, 9))


class TestComputeScattering:
    def test_zero_potential(self):
        pot = Potential(kind="zero", L=8.0, N=64)
        z = np.linspace(-4, 4, 33)
        data = compute_scattering(pot, z)
        assert np.abs(data.a - 1).max() < 1e-12
        assert np.abs(data.b).max() < 1e-12
        assert np.abs(data.r).max() < 1e-12

    def test_matches_oracle_pointwise(self, box_plus, box_data):
        a, b, ab, bb = exact_box_scattering(box_plus, box_data.z_grid)
        scale = np.abs(a).max()
        assert np.abs(a - box_data.a).max() < 1e-6 * scale
        assert np.abs(b - box_data.b).max() < 1e-6 * scale
        assert np.abs(ab - box_data.a_breve).max() < 1e-6 * scale
        assert np.abs(bb - box_data.b_breve).max() < 1e-6 * scale

    def test_unimodularity(self, box_data):
        assert box_data.unimodularity_deviation() < 1e-8

    def test_symmetries_on_symmetric_grid(self, box_data, box_minus_data):
        for data, sigma in ((box_data, 1), (box_minus_data, -1)):
            assert np.abs(data.a - np.conj(data.a[::-1])).max() < 1e-8
            assert np.abs(data.b + sigma * np.conj(data.b_breve[::-1])).max() < 1e-8

    def test_endpoint_decay(self, box_data):
        # a -> 1, b -> 0 at the ends of the window (box: ~1/z rate)
        assert abs(box_data.a[0] - 1) < 0.05
        assert abs(box_data.b[0]) < 0.05
        assert abs(box_data.r[0]) < 0.05

    def test_reflection_decay_bound(self, box_data):
        z = box_data.z_grid
        weighted = np.abs(box_data.r) * (1 + z * z) ** 0.25
        assert weighted.max() < 10 * np.abs(box_data.r).max()

    def test_product_formula_x_independence(self, box_plus):
        # corrected (4.4a): a(z) = Y11(z,x) conj(Y11(-z,-x))
        #                          - sigma Y21(z,x) conj(Y21(-z,-x)),  any x
        z = 0.9
        a_ref = exact_box_scattering(box_plus, z)[0]
        for x in (-0.7, 0.0, 0.45, 1.2):
            nodes = sorted({x, -x})
            Y = dict(zip(nodes, jost_nodes(box_plus, [z, -z], nodes, 384)))
            y11, _, y21, _ = Y[x]       # entries at (z, x): index 0
            m11, _, m21, _ = Y[-x]      # entries at (-z, -x): index 1
            val = y11[0] * np.conj(m11[1]) - box_plus.sigma * y21[0] * np.conj(m21[1])
            assert abs(val - a_ref) < 1e-8

    def test_s_is_the_node_matrix_at_x(self, box_plus):
        z = np.linspace(-4.0, 4.0, 33)
        data = compute_scattering(box_plus, z)
        (_, S), err = y_matrix_batch(box_plus, z.astype(complex))
        assert np.array_equal(data.a, S[0])
        assert np.array_equal(data.b_breve, S[1])
        assert np.array_equal(data.b, S[2])
        assert np.array_equal(data.a_breve, S[3])
        assert data.truncation_error == err

    def test_single_pass_potential_samples(self, box_plus, monkeypatch):
        # S and Y(0) cost no more q samples than the end value alone, up to
        # the step rounding of the two legs: at most 2 steps (8 samples, 4
        # calls) per segment
        calls = []
        evaluate = Potential.__call__

        def counted(pot, x):
            calls.append(np.size(x))
            return evaluate(pot, x)

        monkeypatch.setattr(Potential, "__call__", counted)
        z = np.linspace(-4.0, 4.0, 33)
        X = box_plus.scatter_halfwidth()
        for n in (18, 72):    # the box's two levels, each as one leg -X -> X
            jost_nodes(box_plus, z, [X], n)
        end_only = sum(calls)
        calls.clear()
        compute_scattering(box_plus, z)
        assert sum(calls) <= end_only + 2 * len(calls)

    def test_requires_symmetric_grid(self, box_plus):
        with pytest.raises(BadInput):
            compute_scattering(box_plus, np.linspace(-3, 4, 29))


@settings(max_examples=8, deadline=None)
@given(
    amp=st.complex_numbers(min_magnitude=0.01, max_magnitude=0.35,
                           allow_infinity=False, allow_nan=False),
    sigma=st.sampled_from([1, -1]),
    right=st.floats(0.3, 1.5),
)
def test_property_unimodularity_and_symmetry(amp, sigma, right):
    pot = Potential(kind="box", amplitude=amp, sigma=sigma,
                    params={"left": -0.8, "right": right}, L=8.0, N=64)
    z = np.linspace(-6, 6, 97)
    data = compute_scattering(pot, z)
    assert data.unimodularity_deviation() < 1e-8
    assert np.abs(data.a - np.conj(data.a[::-1])).max() < 1e-8
    assert np.abs(data.b + sigma * np.conj(data.b_breve[::-1])).max() < 1e-8


class TestGenericity:
    def test_zero_potential_passes(self):
        pot = Potential(kind="zero", L=8.0, N=64)
        data = compute_scattering(pot, np.linspace(-4, 4, 65))
        rep = check_genericity(data)
        assert rep.min_abs_a == pytest.approx(1.0)
        assert rep.winding == 0
        assert rep.passed

    def test_small_box_winding_zero(self):
        pot = _box(0.1, 1, -1, 1)
        data = compute_scattering(pot, np.linspace(-8, 8, 257))
        rep = check_genericity(data)
        assert rep.winding == 0
        assert rep.passed

    def test_data_without_potential_counts_on_the_real_axis(self):
        # no potential, no norm bound: the zeros are counted on the grid
        data = synthetic_data(np.linspace(-4, 4, 65), lambda z: 0.1 / (1 + z * z),
                              lambda z: 0.1 / (1 + z * z))
        rep = check_genericity(data)
        assert rep.route == "real_axis" and rep.bound >= 1.0
        assert rep.winding == rep.winding_breve == 0 and rep.passed

    def test_adversarial_amplitude_sweep_trips(self):
        # sigma = -1 boxes approach a spectral singularity as A grows:
        # 1 - r rbreve = sech^2-type at z = 0 -> the verdict must trip, while
        # computing the data itself judges nothing
        tripped = False
        for A in (0.5, 1.5, 2.5, 3.5, 4.5):
            data = compute_scattering(_box(A, -1, -1, 1), np.linspace(-6, 6, 193))
            try:
                tripped = not check_genericity(data).passed
            except GenericityViolation:
                tripped = True
            if tripped:
                break
        assert tripped

    def test_genericity_integrates_nothing(self, monkeypatch, accept_gauss_data,
                                           box_minus_data, zgrid_wide):
        # the three benchmark scatter inputs (||q||_1 = 0.652, 0.6 and <= 0.63)
        # take the small-norm route and a bound state the real axis: neither
        # calls into the CF4 module
        x = np.linspace(-32.0, 32.0, 4096, endpoint=False)
        q = 0.12 * np.exp(-(1.0 + 0.3j) * (x - 0.25) ** 2 / (2.0 * 2.1 ** 2))
        chirped = Potential(kind="samples", amplitude=0.12, sigma=-1, L=32.0, N=4096,
                            params={"samples": q})
        bound_state = Potential(kind="gaussian", amplitude=0.8, sigma=1,
                                params={"width": 1.0}, L=32.0, N=1024)
        small = [accept_gauss_data, box_minus_data, compute_scattering(chirped, zgrid_wide)]
        large = compute_scattering(bound_state, np.linspace(-8.0, 8.0, 513))

        def refuse(*args, **kwargs):
            raise AssertionError("check_genericity called into _cf4")

        for module in (_cf4, scattering):
            for name, value in list(vars(module).items()):
                if callable(value) and getattr(value, "__module__", None) == _cf4.__name__:
                    monkeypatch.setattr(module, name, refuse)
        for data in small:
            rep = check_genericity(data)
            assert rep.route == "small_norm" and rep.bound < 1.0
            assert rep.winding == rep.winding_breve == 0 and rep.passed
        assert check_genericity(large).route == "real_axis"

    @pytest.mark.parametrize("amplitude, winding", [(0.8, 1), (0.4, 0)])
    def test_real_axis_route_above_the_bound(self, amplitude, winding):
        # ||q||_1 = 2.0 (a bound state, see test_pde) and 1.0: both past 0.90
        pot = Potential(kind="gaussian", amplitude=amplitude, sigma=1,
                        params={"width": 1.0}, L=32.0, N=1024)
        rep = check_genericity(compute_scattering(pot, np.linspace(-8.0, 8.0, 513)))
        assert rep.route == "real_axis" and rep.bound >= 1.0
        assert rep.winding == rep.winding_breve == winding
        assert rep.contour_radius == 8.0 and rep.passed == (winding == 0)

    def test_real_axis_route_counts_zeros_of_abreve(self):
        # a has no zero in the upper half-plane and abreve one in the lower,
        # which the arc over the upper half-plane, counting zeros of a alone,
        # passed.  abreve(z; q) = a(-z; q~) for q~(x) = -sigma conj(q(-x)),
        # so the mirror has the counts swapped
        z = np.linspace(-8.0, 8.0, 513)
        q = _abreve_zero()
        A, p = q.amplitude, q.params
        mirror = Potential(kind="gaussian", amplitude=-q.sigma * np.conj(A), sigma=q.sigma,
                           L=q.L, N=q.N, params={"width": p["width"], "center": -p["center"],
                                                 "chirp": -p["chirp"]})
        rep, rep_mirror = (check_genericity(compute_scattering(pot, z)) for pot in (q, mirror))
        assert rep.route == rep_mirror.route == "real_axis"
        assert (rep.winding, rep.winding_breve) == (0, 1)
        assert (rep_mirror.winding, rep_mirror.winding_breve) == (1, 0)
        assert rep.a_pass and rep.rr_pass and not rep.winding_pass and not rep.passed

    @pytest.mark.parametrize("amplitude, zeros", [(0.45, 0), (0.7, 1), (1.7, 2)])
    def test_real_axis_route_counts_sech_zeros(self, amplitude, zeros):
        # for q = A sech(x) with sigma = +1, a has a zero at i (A - 1/2 - k)
        # for every integer k >= 0 with A - 1/2 - k > 0 (Satsuma & Yajima
        # 1974), and abreve as many in the lower half-plane
        L, N = 32.0, 1024
        x = -L + (2.0 * L / N) * np.arange(N)
        pot = Potential(kind="samples", amplitude=amplitude, sigma=1, L=L, N=N,
                        params={"samples": amplitude / np.cosh(x)})
        rep = check_genericity(compute_scattering(pot, np.linspace(-8.0, 8.0, 513)))
        assert rep.route == "real_axis"
        assert (rep.winding, rep.winding_breve) == (zeros, zeros)

    def test_real_axis_route_refuses_a_narrow_window(self):
        # |a - 1| = 5.6 at z = +-1, so a may still turn beyond the window;
        # the same data on |z| <= 8 passes
        pot = Potential(kind="gaussian", amplitude=1.5, sigma=-1,
                        params={"width": 1.0}, L=32.0, N=1024)
        with pytest.raises(GenericityViolation, match="widen the window"):
            check_genericity(compute_scattering(pot, np.linspace(-1.0, 1.0, 33)))
        assert check_genericity(compute_scattering(pot, np.linspace(-8.0, 8.0, 513))).passed

    def test_small_norm_witness_catches_a_bad_abreve(self, box_minus_data):
        # a real-axis abreve outside the bound is an integration fault
        bad = dataclasses.replace(box_minus_data, a_breve=3.0 * box_minus_data.a_breve)
        with pytest.raises(IntegratorDivergence, match="small-norm bound"):
            check_genericity(bad)


def _abreve_zero():
    """A gaussian whose abreve has one zero in the lower half-plane and a none in the upper."""
    return Potential(kind="gaussian", amplitude=0.737 + 0.839j, sigma=1, L=32.0, N=1024,
                     params={"width": 0.857, "center": -1.753, "chirp": -0.088})


def _abs_sum(pot, n):
    """dx sum |q| on n points of [-L, L): the integral of |q| for data decayed at the ends."""
    x = np.linspace(-pot.L, pot.L, n, endpoint=False)
    return np.abs(pot(x)).sum() * (2.0 * pot.L / n)


def _assert_within_small_norm_bound(pot):
    bound = float(np.i0(2.0 * pot.l1_bound())) - 1.0
    data = compute_scattering(pot, np.linspace(-6.0, 6.0, 97))
    assert np.abs(data.a - 1.0).max() <= bound
    assert np.abs(data.a_breve - 1.0).max() <= bound


@settings(max_examples=10, deadline=None)
@given(
    norm=st.floats(0.05, 0.89),
    phase=st.floats(-np.pi, np.pi),
    sigma=st.sampled_from([1, -1]),
    width=st.floats(0.5, 2.0),
    center=st.floats(-2.0, 2.0),
    chirp=st.floats(-0.5, 0.5),
)
def test_property_small_norm_bound_gaussian(norm, phase, sigma, width, center, chirp):
    amp = norm / (width * np.sqrt(2.0 * np.pi)) * np.exp(1j * phase)
    pot = Potential(kind="gaussian", amplitude=amp, sigma=sigma, L=32.0, N=1024,
                    params={"width": width, "center": center, "chirp": chirp})
    closed = abs(amp) * width * np.sqrt(2.0 * np.pi)
    assert pot.l1_bound() >= closed * (1.0 - 1e-15)
    assert pot.l1_bound() >= _abs_sum(pot, 2 ** 16) * (1.0 - 1e-12)
    _assert_within_small_norm_bound(pot)


@settings(max_examples=10, deadline=None)
@given(
    norm=st.floats(0.05, 0.89),
    phase=st.floats(-np.pi, np.pi),
    sigma=st.sampled_from([1, -1]),
    left=st.floats(-2.0, 1.0),
    length=st.floats(0.2, 3.0),
)
def test_property_small_norm_bound_box(norm, phase, sigma, left, length):
    amp = norm / length * np.exp(1j * phase)
    pot = Potential(kind="box", amplitude=amp, sigma=sigma, L=8.0, N=64,
                    params={"left": left, "right": left + length})
    assert pot.l1_bound() >= abs(amp) * (pot.params["right"] - left) * (1.0 - 1e-15)
    _assert_within_small_norm_bound(pot)


@settings(max_examples=10, deadline=None)
@given(
    amp=st.complex_numbers(min_magnitude=0.01, max_magnitude=0.3,
                           allow_infinity=False, allow_nan=False),
    width=st.floats(0.5, 2.0),
    center=st.floats(-2.0, 2.0),
    chirp=st.floats(-0.5, 0.5),
)
def test_property_samples_l1_bound_tracks_fine_quadrature(amp, width, center, chirp):
    # the Bernstein bound of the spline against |q| summed 16 times finer
    L, N = 32.0, 1024
    x = np.linspace(-L, L, N, endpoint=False)
    q = amp * np.exp(-(1.0 + 1j * chirp) * (x - center) ** 2 / (2.0 * width * width))
    pot = Potential(kind="samples", amplitude=amp, L=L, N=N, params={"samples": q})
    ref = _abs_sum(pot, 16 * N)
    assert ref * (1.0 - 1e-6) <= pot.l1_bound() <= 1.01 * ref
