import numpy as np
import pytest
from scipy.linalg import expm

from nonlocal_nls import (
    Potential,
    _cf4,
    check_genericity,
    compute_scattering,
    exact_box_scattering,
)
from nonlocal_nls._cf4 import (
    analytic_column_batch,
    _expm_shifted,
    _propagate,
    _series_coefficients,
    _series_expm,
    _sinhc,
    _split,
    y_matrix_batch,
)
from nonlocal_nls.errors import IntegratorDivergence
from nonlocal_nls.scattering import _integration_slack

from conftest import jost_nodes


def _identity_cols(z):
    return [(np.ones_like(z), np.zeros_like(z)), (np.zeros_like(z), np.ones_like(z))]


def _transfer(potential, z, x_from, x_to, n_steps):
    """Entries (T11, T12, T21, T22) of the phi-frame transfer matrix."""
    (t11, t21), (t12, t22) = _propagate(potential, z,
                                        _split(potential, x_from, x_to, n_steps),
                                        _identity_cols(z))
    return t11, t12, t21, t22


def test_order_four_self_convergence(gauss_small):
    z = np.array([1.7 + 0.0j])
    errs = []
    ref = _transfer(gauss_small, z, -8.0, 8.0, 4096)
    for n in (64, 128, 256):
        T = _transfer(gauss_small, z, -8.0, 8.0, n)
        errs.append(max(abs(a - b).max() for a, b in zip(T, ref)))
    assert 12.0 < errs[0] / errs[1] < 20.0
    assert 12.0 < errs[1] / errs[2] < 20.0


def test_constant_coefficient_exactness():
    # over a constant-coefficient stretch one CF4 step is the exact exponential
    box = Potential(kind="box", amplitude=0.4, sigma=1,
                    params={"left": -1.0, "right": 1.0}, L=8.0, N=64)
    z = np.array([0.9 + 0.0j])
    coarse = _transfer(box, z, -0.5, 0.5, 2)
    fine = _transfer(box, z, -0.5, 0.5, 512)
    assert max(abs(a - b).max() for a, b in zip(coarse, fine)) < 1e-13


def test_step_control_reports_estimate(box_plus, monkeypatch):
    monkeypatch.setattr(_cf4, "RTOL", 1e-11)
    Y, err = y_matrix_batch(box_plus, np.array([0.3 + 0j]))
    assert err < 1e-10


def _stall(monkeypatch):
    """A step control that cannot pass: one doubling against RTOL = 1e-16."""
    monkeypatch.setattr(_cf4, "RTOL", 1e-16)
    monkeypatch.setattr(_cf4, "MAX_REFINE", 1)


def test_step_control_divergence_raises(gauss_small, monkeypatch):
    # a truncation stall: on a box CF4 is exact, so its only gap is roundoff
    _stall(monkeypatch)
    with pytest.raises(IntegratorDivergence, match=r"stalled at \d+ steps"):
        y_matrix_batch(gauss_small, np.array([0.3 + 0j]))


def _level_steps(monkeypatch):
    """Record the total steps of each level that `_propagate` integrates.

    A level starts with the piece from -X; the list fills as levels run.
    """
    levels = []
    propagate = _cf4._propagate

    def spy(potential, z, segments, cols, shifted=False):
        if segments[0][0] == -potential.scatter_halfwidth():
            levels.append(0)
        levels[-1] += sum(n for *_, n in segments)
        return propagate(potential, z, segments, cols, shifted)

    monkeypatch.setattr(_cf4, "_propagate", spy)
    return levels


def test_reported_error_is_honest(gauss_small, zgrid_wide, monkeypatch):
    # the reported error of the accepted level is within a factor 2 of its
    # true deviation from a level with 16 times the steps
    z = zgrid_wide.astype(complex)
    levels = _level_steps(monkeypatch)
    (_, S), err = y_matrix_batch(gauss_small, z)
    n_accepted = levels[-1]
    X = gauss_small.scatter_halfwidth()
    ref = jost_nodes(gauss_small, z, [0.0, X], 16 * n_accepted)[1]
    assert levels[-1] == 16 * n_accepted
    true = max(float(np.abs(s - r).max()) for s, r in zip(S, ref))
    scale = 1.0 + max(float(np.abs(s).max()) for s in S)
    assert true / 2.0 <= err <= 2.0 * true
    assert true <= _cf4.RTOL * scale


def _chirped_samples():
    """A chirped gaussian sampled on [-32, 32), like the benchmark's `samples` input."""
    L, N = 32.0, 4096
    x = -L + (2.0 * L / N) * np.arange(N)
    amp = 0.1 * np.exp(0.7j)
    q = amp * np.exp(-(1.0 + 0.25j) * (x - 0.1) ** 2 / (2.0 * 2.05 ** 2))
    return Potential(kind="samples", amplitude=amp, sigma=-1, L=L, N=N,
                     params={"samples": q})


@pytest.mark.parametrize("kind", ["gaussian", "samples"])
def test_first_candidate_estimate_is_honest(kind, monkeypatch):
    # the first candidate passes on its quarter-step companion, and the
    # estimate is within a factor 2 of its true deviation from a level with
    # 16 times the steps (about 1.43 times it on both inputs)
    if kind == "gaussian":
        pot = Potential(kind="gaussian", amplitude=0.1, sigma=1,
                        params={"width": 2.6}, L=512.0, N=2 ** 15)
    else:
        pot = _chirped_samples()
    z = np.linspace(-16.0, 16.0, 65).astype(complex)
    levels = _level_steps(monkeypatch)
    (_, S), err = y_matrix_batch(pot, z)
    assert len(levels) == 2
    X = pot.scatter_halfwidth()
    ref = jost_nodes(pot, z, [0.0, X], 16 * levels[-1])[1]
    true = max(float(np.abs(s - r).max()) for s, r in zip(S, ref))
    assert true / 2.0 <= err <= 2.0 * true


def test_refine_takes_the_step_ratio_of_clipped_segments(box_plus, monkeypatch):
    # box_plus's outer pieces |x| in [1, 1.125] are 1/18 of [-X, X]: 1 step
    # of the plan's 18.  A fourth-order error that sits in those pieces
    # alone is estimated within a factor 2, and candidate k takes exactly
    # 4 2^k times each of the plan's counts
    X = box_plus.scatter_halfwidth()
    plan = _split(box_plus, -X, X, 18, (0.0,))
    assert [n for *_, n in plan] == [1, 8, 8, 1]
    seen = []

    def level(segments):
        seen.append(segments)
        err = sum(((b - a) / k) ** 4 for a, b, k in segments if b - a < 0.5)
        return (np.array([err]),), err

    monkeypatch.setattr(_cf4, "RTOL", 1.0)
    true, est = _cf4._refine(level, box_plus, "test", nodes=(0.0,))
    assert true / 2.0 <= est <= 2.0 * true
    seen.clear()
    monkeypatch.setattr(_cf4, "RTOL", 0.0)
    with pytest.raises(IntegratorDivergence, match="stalled at 576 steps"):
        _cf4._refine(level, box_plus, "test", nodes=(0.0,))
    assert seen[0] == plan and len(seen) == 1 + _cf4.MAX_REFINE
    for k, segments in enumerate(seen[1:]):
        assert segments == [(a, b, n * 4 * 2 ** k) for a, b, n in plan]


def test_smooth_input_stops_one_level_earlier(box_plus, zgrid_wide, monkeypatch):
    # each input passes on its first candidate, 4 times the plan's steps,
    # about 2 int(32 X): the acceptance gaussian (X = 19.3, plan 155 steps
    # each side of 0) and the box, which has no step floor as CF4 is exact
    # between its breakpoints
    gauss = Potential(kind="gaussian", amplitude=0.1, sigma=1,
                      params={"width": 2.6}, L=512.0, N=2 ** 15)
    levels = _level_steps(monkeypatch)
    for pot, want in ((gauss, [310, 1240]), (box_plus, [18, 72])):
        levels.clear()
        compute_scattering(pot, zgrid_wide)
        assert levels == want


def test_narrow_smooth_input_keeps_the_step_floor(monkeypatch):
    # X = 0.77 gives 2 int(32 X) = 48 steps, too coarse for a width of 0.1:
    # from there MAX_REFINE candidates end at 384 steps and stall, so a
    # smooth q starts at 384 and passes on the doubling after it
    narrow = Potential(kind="gaussian", amplitude=0.5, sigma=1,
                       params={"width": 0.1}, L=16.0, N=4096)
    levels = _level_steps(monkeypatch)
    y_matrix_batch(narrow, np.linspace(-16.0, 16.0, 65).astype(complex))
    assert levels == [96, 384, 768]


def test_step_splits_round_exactly(monkeypatch):
    # a lone piece gets n_steps: on the gaussian n |seg| / total rounds to
    # 96.00000000000001, so the ratio comes first.  Where the ratio itself
    # rounds up, the plan keeps the extra step and every level multiplies
    # it: on the box [-0.39, 0.59] (X = 0.715, plan 11 steps) 0.39 / 1.43
    # is 3/11 plus an ulp, so [-0.39, 0] and [0, 0.39] take 4 plan steps
    # where exact arithmetic gives 3, and 16 on the first candidate
    gauss = Potential(kind="gaussian", amplitude=0.1, sigma=1, params={"width": 2.6},
                      L=512.0, N=2 ** 15)
    [(_, b, _)] = _cf4._cf4_steps(gauss, _split(gauss, -0.674625, 0.0, 96))
    assert b.size == 2 * 96
    box = Potential(kind="box", amplitude=0.3, sigma=-1,
                    params={"left": -0.39, "right": 0.59}, L=8.0, N=256)
    X = box.scatter_halfwidth()
    assert [n for *_, n in _split(box, -X, X, 11, (0.0,))] == [1, 2, 4, 4, 2, 1]
    levels = _level_steps(monkeypatch)
    y_matrix_batch(box, np.array([0.5], dtype=complex))
    assert levels == [14, 56]


def test_subnormal_piece_takes_one_step():
    # a box edge one subnormal right of the node 0 leaves the piece
    # [0, 5e-324], whose share of the span underflows to 0 steps; it takes
    # one, and the data matches the box edge at 0
    box = Potential(kind="box", amplitude=0.5, sigma=1,
                    params={"left": 5e-324, "right": 1.0}, L=8.0, N=64)
    X = box.scatter_halfwidth()
    pieces = _split(box, -X, X, 18, (0.0,))
    assert (0.0, 5e-324, 1) in pieces
    assert min(n for *_, n in pieces) == 1
    z = np.linspace(-6.0, 6.0, 13)
    ref = Potential(kind="box", amplitude=0.5, sigma=1,
                    params={"left": 0.0, "right": 1.0}, L=8.0, N=64)
    assert np.allclose(compute_scattering(box, z).a, compute_scattering(ref, z).a,
                       rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("name", ["box_plus", "gauss_small"])
def test_frames_agree_on_the_real_axis(name, request):
    # the column frame cuts [-X, X] at the breakpoints alone and the matrix
    # frame at 0 too; at real z both end at a(z)
    pot = request.getfixturevalue(name)
    z = np.linspace(-16.0, 16.0, 65).astype(complex)
    (_, S), err = y_matrix_batch(pot, z)
    a_column = analytic_column_batch(pot, z)[0]
    assert np.abs(a_column - S[0]).max() <= _integration_slack(err)


def test_column_stall_reports_steps_and_error(gauss_small, monkeypatch):
    _stall(monkeypatch)
    with pytest.raises(IntegratorDivergence, match=r"stalled at \d+ steps \(err \d"):
        analytic_column_batch(gauss_small, np.array([1.0j]))


def test_unimodular_transfer(box_plus):
    z = np.linspace(-5, 5, 11).astype(complex)
    T = _transfer(box_plus, z, -2.0, 2.0, 200)
    det = T[0] * T[3] - T[1] * T[2]
    assert np.abs(det - 1.0).max() < 1e-12


def _exponent_args(regime, rng):
    """(d, b, c) whose m = sqrt(d^2 + b c) is all large, all small or mixed."""
    def cplx(scale, n=16):
        return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))

    large = [cplx(0.6) for _ in range(3)]
    small = [cplx(1e-8) for _ in range(3)]
    if regime == "large":
        return large
    if regime == "small":
        return small
    return [np.concatenate([lo, hi]) for lo, hi in zip(small, large)]


@pytest.mark.parametrize("shift", [0.0, 0.3 - 1.1j])
@pytest.mark.parametrize("regime", ["large", "small", "mixed"])
def test_closed_form_exponential(regime, shift):
    d, b, c = _exponent_args(regime, np.random.default_rng(5))
    m = np.sqrt(d * d + b * c + 0.0j)
    ref = np.sinh(m) / m
    assert np.abs(_sinhc(m) - ref).max() <= 1e-14 * np.abs(ref).max()
    E = _expm_shifted(d, b, c)
    if shift != 0.0:
        E = tuple(np.exp(shift) * e for e in E)
    for k in range(d.size):
        want = expm(np.array([[shift + d[k], b[k]], [c[k], shift - d[k]]]))
        got = np.array([[E[0][k], E[1][k]], [E[2][k], E[3][k]]])
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_sinhc_at_zero():
    assert np.array_equal(_sinhc(np.array([0.0, 1e-7j])), [1.0, 1.0 - 1e-14 / 6.0])


def test_nodes_are_the_accepted_level_legs(box_plus):
    # the box passes on its first candidate of 72 steps (see
    # test_smooth_input_stops_one_level_earlier); Y(0) and Y(X) are its leg
    # transfers -X -> 0 -> X, each with its share of the steps
    z = np.array([0.3, -1.7], dtype=complex)
    X = box_plus.scatter_halfwidth()
    nodes, _ = y_matrix_batch(box_plus, z)
    for got, want in zip(nodes, jost_nodes(box_plus, z, [0.0, X], 72)):
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_shifted_column_is_the_m_frame(box_plus):
    # each shifted exponential carries exp(i z h / 2); over [-X, X] that is
    # exp(2 i z X) times the first column of the phi-frame state
    z = np.array([0.7 + 0.5j, -1.3 + 1.0j, 2.0j, 3.1 + 0.2j])
    X = box_plus.scatter_halfwidth()
    segments = _split(box_plus, -X, X, 768)
    [(m0, m1)] = _propagate(box_plus, z, segments,
                            [(np.ones_like(z), np.zeros_like(z))], shifted=True)
    [(u, v), _] = _propagate(box_plus, z, segments, _identity_cols(z))
    phase = np.exp(2j * z * X)
    for got, want in ((m0, phase * u), (m1, phase * v)):
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def _series_z(path, size):
    """z on the real axis or on an upper half-plane arc; h = 1, so |d| = |z|/2.

    size "small" keeps |w0| = |d|^2 < 1, size "large" spans 1 <= |d| <= 10.
    """
    rho = np.array([0.3, 0.9, 1.9]) if size == "small" else np.array([2.0, 6.0, 20.0])
    theta = np.array([0.0, np.pi]) if path == "real" else np.linspace(0.1, np.pi - 0.1, 7)
    return (rho[:, None] * np.exp(1j * theta)[None, :]).ravel()


@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("size", ["small", "large"])
@pytest.mark.parametrize("path", ["real", "arc"])
def test_series_exponential(path, size, shifted):
    # |bc| from 0 up to 1 covers every step of the amplitude-4.5 box
    z = _series_z(path, size)
    d = -1j * z / 2.0
    ang = np.linspace(0.0, 2.0 * np.pi, 5, endpoint=False)
    for eps_max in (0.0, 1e-8, 1e-4, 0.1, 1.0):
        b = np.sqrt(eps_max) * np.exp(1j * ang) * np.array([1.0, 0.5, 1.0, 0.8, 0.3])
        c = np.sqrt(eps_max) * np.exp(-0.7j * ang)
        if eps_max == 0.0:
            b = b + 0.3
        eps = b * c
        g_max = max(np.abs(b).max(), np.abs(c).max())
        coef = _series_coefficients(d, float(np.abs(eps).max()), g_max, shifted)
        for i in range(b.size):
            E = _series_expm(coef, b[i], c[i])
            C = _expm_shifted(d, b[i], c[i])
            for k in range(z.size):
                shift = -d[k] if shifted else 0.0
                got = np.array([[E[0][k], E[1][k]], [E[2][k], E[3][k]]])
                closed = np.exp(shift) * np.array([[C[0][k], C[1][k]], [C[2][k], C[3][k]]])
                want = expm(np.array([[shift + d[k], b[i]], [c[i], shift - d[k]]]))
                for ref in (closed, want):
                    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def test_series_order_follows_bc():
    d = -0.5j * np.linspace(-3.0, 3.0, 7)
    orders = [_series_coefficients(d, eps_max, 1.0).shape[0] - 1
              for eps_max in (0.0, 1e-10, 1e-5, 1e-2, 1.0)]
    assert orders[0] == 0
    assert orders == sorted(orders) and orders[-1] > orders[1]


@pytest.mark.parametrize("eps_max", [65.0, np.inf, np.nan])
def test_series_refuses_coarse_steps(eps_max):
    with pytest.raises(IntegratorDivergence, match="too coarse"):
        _series_coefficients(np.array([0.5j]), eps_max, 10.0)


def test_wide_window_box_matches_oracle(box_plus, monkeypatch):
    # |z| up to 2000 puts every segment of every level at |z| h / 2 > 5,
    # where the coefficients come from the recurrence
    seen = []

    def spy(d, *args):
        seen.append(float(np.abs(d).max()))
        return series(d, *args)

    series = _cf4._series_coefficients
    monkeypatch.setattr(_cf4, "_series_coefficients", spy)
    z = np.linspace(-2000.0, 2000.0, 1025)
    data = compute_scattering(box_plus, z)
    assert min(seen) > 5.0
    exact = exact_box_scattering(box_plus, z)
    for got, want in zip((data.a, data.b, data.a_breve, data.b_breve), exact):
        assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()


def test_cf4_makes_no_closed_form_call(box_plus, zgrid_wide, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("closed-form exponential called on the CF4 path")

    monkeypatch.setattr(_cf4, "_expm_shifted", refuse)
    gauss = Potential(kind="gaussian", amplitude=0.1, sigma=1,
                      params={"width": 2.6}, L=512.0, N=2 ** 15)
    for pot in (box_plus, gauss):
        assert check_genericity(compute_scattering(pot, zgrid_wide)).passed
