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
    _cf4_steps,
    _expm_shifted,
    _propagate,
    _series_coefficients,
    _sinhc,
    _split,
    y_matrix_batch,
)
from nonlocal_nls.errors import IntegratorDivergence

from conftest import jost_legs, jost_nodes, series_entries


def _identity_cols(z):
    return [(np.ones_like(z), np.zeros_like(z)), (np.zeros_like(z), np.ones_like(z))]


def _transfer(potential, z, x_from, x_to, n_steps):
    """Entries (T11, T12, T21, T22) of the phi-frame transfer matrix."""
    (t11, t21), (t12, t22) = _propagate(potential, z,
                                        _split(potential, x_from, x_to, n_steps),
                                        _identity_cols(z), {})
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
    with pytest.raises(IntegratorDivergence, match=r"stalled at \d+ steps \(err \d"):
        y_matrix_batch(gauss_small, np.array([0.3 + 0j]))


def _level_steps(monkeypatch):
    """Record the total steps of each level that `_propagate` integrates.

    A level starts with the piece from -X; the list fills as levels run.
    """
    levels = []
    propagate = _cf4._propagate

    def spy(potential, z, segments, *args):
        if segments[0][0] == -potential.scatter_halfwidth():
            levels.append(0)
        levels[-1] += sum(n for *_, n in segments)
        return propagate(potential, z, segments, *args)

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
    # box_plus is constant on each of its pieces, so the plan takes one step
    # on each, the outer pieces |x| in [1, 1.125] too.  A fourth-order error
    # that sits in those pieces alone is estimated within a factor 2, and
    # candidate k takes exactly 4 2^k times each of the plan's counts
    X = box_plus.scatter_halfwidth()
    plan = _split(box_plus, -X, X, 1, (0.0,))
    assert [n for *_, n in plan] == [1, 1, 1, 1]
    seen = []

    def level(segments):
        seen.append(segments)
        err = sum(((b - a) / k) ** 4 for a, b, k in segments if b - a < 0.5)
        return (np.array([err]),), err

    monkeypatch.setattr(_cf4, "RTOL", 1.0)
    true, est = _cf4._refine(level, box_plus, nodes=(0.0,))
    assert true / 2.0 <= est <= 2.0 * true
    seen.clear()
    monkeypatch.setattr(_cf4, "RTOL", 0.0)
    with pytest.raises(IntegratorDivergence, match="stalled at 128 steps"):
        _cf4._refine(level, box_plus, nodes=(0.0,))
    assert seen[0] == plan and len(seen) == 1 + _cf4.MAX_REFINE
    for k, segments in enumerate(seen[1:]):
        assert segments == [(a, b, n * 4 * 2 ** k) for a, b, n in plan]


def test_smooth_input_stops_one_level_earlier(box_plus, zgrid_wide, monkeypatch):
    # each input passes on its first candidate, 4 times the plan's steps:
    # about 2 int(32 X) on the smooth inputs of the benchmark and the README
    # (the acceptance gaussian has X = 19.3, a plan of 155 steps each side
    # of 0), and one plan step per piece on the box, as CF4 is exact
    # between its breakpoints.  im_nu is the README's Im nu example, on its
    # 8/1025 window
    gauss = Potential(kind="gaussian", amplitude=0.1, sigma=1,
                      params={"width": 2.6}, L=512.0, N=2 ** 15)
    im_nu = Potential(kind="gaussian", amplitude=0.3, sigma=-1, L=32.0, N=1024,
                      params={"width": 1.5, "center": 2.0})
    levels = _level_steps(monkeypatch)
    for pot, z, want in ((gauss, zgrid_wide, [310, 1240]), (box_plus, zgrid_wide, [4, 16]),
                         (_chirped_samples(), zgrid_wide, [236, 944]),
                         (im_nu, np.linspace(-8.0, 8.0, 1025), [214, 856])):
        levels.clear()
        compute_scattering(pot, z)
        assert levels == want


def test_narrow_smooth_input_takes_its_bandwidth(monkeypatch):
    # X = 0.77 gives 2 int(32 X) = 48 steps, too coarse for a width of 0.1;
    # its signal bandwidth k_sig = 67.8 sets 8 X k_sig / 0.85 = 488 steps on
    # the first candidate, which passes
    narrow = Potential(kind="gaussian", amplitude=0.5, sigma=1,
                       params={"width": 0.1}, L=16.0, N=4096)
    assert narrow.signal_bandwidth == pytest.approx(67.8, abs=0.1)
    levels = _level_steps(monkeypatch)
    y_matrix_batch(narrow, np.linspace(-16.0, 16.0, 65).astype(complex))
    assert levels == [122, 488]


@pytest.mark.parametrize("width, centre, steps", [(0.1, 10.0, 6880), (0.1, 20.0, 13264),
                                                  (0.05, 10.0, 13264)])
def test_narrow_far_gaussian_passes_on_the_first_candidate(width, centre, steps,
                                                           monkeypatch):
    # a narrow feature far from the origin: 2 int(32 X) steps stall, the
    # signal bandwidth sets the plan, and the reported error is within a
    # factor 2 of the deviation from a level with 4 times the steps
    pot = Potential(kind="gaussian", amplitude=0.5, sigma=1, L=32.0, N=4096,
                    params={"width": width, "center": centre})
    z = np.linspace(-16.0, 16.0, 257).astype(complex)
    levels = _level_steps(monkeypatch)
    (_, S), err = y_matrix_batch(pot, z)
    assert levels == [steps // 4, steps]
    ref = jost_nodes(pot, z, [0.0, pot.scatter_halfwidth()], 4 * steps)[1]
    dev = max(float(np.abs(s - r).max()) for s, r in zip(S, ref))
    assert dev / 2.0 <= err <= 2.0 * dev


def test_box_matches_its_oracle_to_roundoff(box_data, box_plus, zgrid_wide):
    # one CF4 step per constant piece is the exact exponential of the piece
    exact = exact_box_scattering(box_plus, zgrid_wide)
    got = (box_data.a, box_data.b, box_data.a_breve, box_data.b_breve)
    assert max(float(np.abs(g - e).max()) for g, e in zip(got, exact)) <= 1e-14


def test_wide_strong_box_stays_in_the_series_range():
    # one step on each half of this box would give |q| h = 20, |bc| = 100,
    # past the series exponential's 64; the plan takes 3 steps on each
    box = Potential(kind="box", amplitude=1.0, sigma=-1,
                    params={"left": -20.0, "right": 20.0}, L=32.0, N=256)
    z = np.linspace(-16.0, 16.0, 513)
    data = compute_scattering(box, z)
    exact = exact_box_scattering(box, z)
    for got, want in zip((data.a, data.b, data.a_breve, data.b_breve), exact):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_step_splits_round_exactly(monkeypatch):
    # a lone piece gets n_steps: on the gaussian n |seg| / total rounds to
    # 96.00000000000001, so the ratio comes first.  Where the ratio itself
    # rounds up, the split keeps the extra step: on the box [-0.39, 0.59]
    # (X = 0.715, 11 steps) 0.39 / 1.43 is 3/11 plus an ulp, so [-0.39, 0]
    # and [0, 0.39] take 4 steps where exact arithmetic gives 3.  The box's
    # plan takes one step on each of its 6 pieces, 24 on the first candidate
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
    assert levels == [6, 24]


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
    # the box passes on its first candidate, 4 steps on each of its 4 pieces
    # (see test_smooth_input_stops_one_level_earlier); Y(0) and Y(X) are
    # its leg transfers -X -> 0 -> X
    z = np.array([0.3, -1.7], dtype=complex)
    X = box_plus.scatter_halfwidth()
    nodes, _ = y_matrix_batch(box_plus, z)
    pieces = [(a, b, 4) for a, b, _ in _split(box_plus, -X, X, 1, (0.0,))]
    for got, want in zip(nodes, jost_legs(box_plus, z, [0.0, X], pieces)):
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("name, builds", [("gauss_small", 2), ("box_plus", 4)])
def test_mirror_legs_share_their_coefficient_sets(name, builds, zgrid_wide, request,
                                                   monkeypatch):
    # |q(-x)| = |q(x)|, so the leg 0 -> X asks for the coefficient sets of the leg
    # -X -> 0: one per level on the gaussian, two on the box (its outer and inner
    # pieces), over the plan and the accepted level.  Y(0) and Y(+X) are the bytes
    # of legs that each build their own sets
    pot = request.getfixturevalue(name)
    z = zgrid_wide.astype(complex)
    sizes = _series_sizes(monkeypatch)
    legs = []
    propagate = _cf4._propagate
    monkeypatch.setattr(_cf4, "_propagate",
                        lambda p, z, segments, *args: legs.append(segments)
                        or propagate(p, z, segments, *args))
    nodes, _ = y_matrix_batch(pot, z)
    assert len(legs) == 4 and len(sizes) == builds
    X = pot.scatter_halfwidth()
    for got, want in zip(nodes, jost_legs(pot, z, [0.0, X], legs[-2] + legs[-1])):
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def _antisymmetric_grid(n, z_max=16.0):
    g = np.linspace(-z_max, z_max, n)
    return (0.5 * (g - g[::-1])).astype(complex)


@pytest.mark.parametrize("n", [65, 64])
@pytest.mark.parametrize("name", ["box_plus", "gauss_small"])
def test_folded_grid_matches_its_halves_run_alone(name, n, request):
    # an antisymmetric grid is folded onto z >= 0, and each -z column is
    # stepped through J (E_1 ... E_N)^T J; either half on its own is not
    # antisymmetric, so it runs unfolded and must give the same columns
    pot = request.getfixturevalue(name)
    z = _antisymmetric_grid(n)
    X = pot.scatter_halfwidth()
    segments = _split(pot, -X, X, 256, (0.0,))
    folded = [e for col in _propagate(pot, z, segments, _identity_cols(z), {}) for e in col]
    tol = 1e-15 * (1.0 + max(float(np.abs(e).max()) for e in folded))
    for part in (slice(0, n - n // 2), slice(n // 2, n)):
        alone = _propagate(pot, z[part], segments, _identity_cols(z[part]), {})
        for f, a in zip(folded, (e for col in alone for e in col)):
            assert np.abs(f[part] - a).max() <= tol


def test_folded_step_matches_expm(gauss_small):
    # one CF4 step on a folded grid against the product of its two
    # exponentials; the -z slot reads e11 and e22 off the z >= 0 sums
    z = _antisymmetric_grid(33)
    piece = [(-0.25, 0.25, 1)]
    [(h, b, c)] = _cf4_steps(gauss_small, piece)
    (t11, t21), (t12, t22) = _propagate(gauss_small, z, piece, _identity_cols(z), {})
    for k in range(z.size):
        d = -0.5j * z[k] * h
        want = np.eye(2)
        for bk, ck in zip(b, c):
            want = expm(np.array([[d, bk], [ck, -d]])) @ want
        got = np.array([[t11[k], t12[k]], [t21[k], t22[k]]])
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def _series_sizes(monkeypatch):
    """Record the number of z points of each `_series_coefficients` call."""
    sizes = []
    series = _cf4._series_coefficients

    def spy(d, *args):
        sizes.append(d.size)
        return series(d, *args)

    monkeypatch.setattr(_cf4, "_series_coefficients", spy)
    return sizes


def test_series_is_summed_once_per_pair(box_plus, zgrid_wide, monkeypatch):
    # the acceptance grid takes nz // 2 + 1 points per segment; an arc in the
    # upper half-plane and a grid that is not antisymmetric take all of theirs
    sizes = _series_sizes(monkeypatch)
    y_matrix_batch(box_plus, zgrid_wide.astype(complex))
    assert sizes and set(sizes) == {zgrid_wide.size // 2 + 1}
    arc = 16.0 * np.exp(1j * np.linspace(0.0, np.pi, 256))
    for z in (arc, np.array([0.3, -1.7], dtype=complex)):
        sizes.clear()
        y_matrix_batch(box_plus, z)
        assert sizes and set(sizes) == {z.size}


def test_every_config_window_folds(box_plus, monkeypatch):
    # linspace is antisymmetric only for a dyadic step; the config's grid is
    # made so (within 1 ulp of z_max), and equals linspace where it already was
    from nonlocal_nls.config import ExperimentConfig

    for z_max, nz in ((16.0, 2049), (10.0, 2049), (8.0, 513), (6.0, 257), (16.0, 257)):
        z = ExperimentConfig(box_plus, z_max=z_max, nz=nz).z_grid()
        assert np.array_equal(z, np.linspace(-z_max, z_max, nz))
    sizes = _series_sizes(monkeypatch)
    for z_max, nz in ((10.0, 1001), (3.7, 513)):
        z = ExperimentConfig(box_plus, z_max=z_max, nz=nz).z_grid()
        assert np.array_equal(z[::-1], -z)
        assert np.abs(z - np.linspace(-z_max, z_max, nz)).max() <= np.spacing(z_max)
        sizes.clear()
        compute_scattering(box_plus, z)
        assert sizes and set(sizes) == {nz // 2 + 1}


def _series_z(path, size):
    """z on the real axis or on an upper half-plane arc; h = 1, so |d| = |z|/2.

    size "small" keeps |w0| = |d|^2 < 1, size "large" spans 1 <= |d| <= 10.
    """
    rho = np.array([0.3, 0.9, 1.9]) if size == "small" else np.array([2.0, 6.0, 20.0])
    theta = np.array([0.0, np.pi]) if path == "real" else np.linspace(0.1, np.pi - 0.1, 7)
    return (rho[:, None] * np.exp(1j * theta)[None, :]).ravel()


@pytest.mark.parametrize("size", ["small", "large"])
@pytest.mark.parametrize("path", ["real", "arc"])
def test_series_exponential(path, size):
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
        coef = _series_coefficients(d, float(np.abs(eps).max()), g_max)
        E = series_entries(coef, b, c)
        for i in range(b.size):
            C = _expm_shifted(d, b[i], c[i])
            for k in range(z.size):
                got = np.array([[E[0][i, k], E[1][i, k]], [E[2][i, k], E[3][i, k]]])
                closed = np.array([[C[0][k], C[1][k]], [C[2][k], C[3][k]]])
                want = expm(np.array([[d[k], b[i]], [c[i], -d[k]]]))
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
