import json

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from nonlocal_nls import (
    Potential,
    alpha,
    asymptotics,
    cli,
    compute_scattering,
    connection_coefficients,
    phase_data,
    q_asymptotic,
    stationary_point,
)
from nonlocal_nls.errors import NonpositiveTime, RouteDisagreement, ValidityViolation
from nonlocal_nls.phase import PhaseData, SpectralContext

from oracles import REFERENCE_RTOL, nu_at, q_leading


def test_zero_potential_leading_term_vanishes():
    pot = Potential(kind="zero", L=16.0, N=256)
    ctx = SpectralContext(compute_scattering(pot, np.linspace(-8, 8, 257)))
    ph = phase_data(ctx, 0.2)
    assert q_asymptotic(ph, 25.0) == (0, "valid")
    assert alpha(ph, 25.0) == 0


def test_scaling_law_exact(box_ctx):
    ph = phase_data(box_ctx, 0.5)
    (q1, _), (q2, _) = q_asymptotic(ph, 40.0), q_asymptotic(ph, 80.0)
    ratio = abs(q2) / abs(q1)
    assert ratio == pytest.approx(2.0 ** (ph.nu_at_xi.imag - 0.5), rel=1e-12)


def test_alpha_modulus_t_independent(box_ctx):
    xi = 0.3
    ph = phase_data(box_ctx, xi)
    mags = {abs(alpha(ph, t)) for t in (20.0, 50.0, 400.0)}
    assert max(mags) - min(mags) < 1e-12 * max(mags)


def test_route_equivalence_ten_pairs(box_ctx, make_synthetic):
    # real-nu pipeline data plus complex-nu synthetic data
    batch = phase_data(box_ctx, [0.2, 0.45])
    for t in (25.0, 60.0, 110.0):
        q_asymptotic(batch, t)  # raises if routes split
    z = np.linspace(-8, 8, 1025)
    ctx = make_synthetic(
        z,
        lambda s: 0.4 * np.exp(-2.0 * (s - 0.1) ** 2 + 0.9j * s),
        lambda s: 0.35 * np.exp(-2.0 * (s + 0.2) ** 2 - 0.4j * s),
    )
    im_nus = []
    for xi, t in ((0.3, 30.0), (0.0, 75.0), (-0.4, 200.0), (0.6, 45.0)):
        ph = phase_data(ctx, xi)
        q_asymptotic(ph, t)
        im_nus.append(ph.nu_at_xi.imag)
    assert any(v != 0 for v in im_nus)  # genuinely complex-exponent cases


def test_anomalous_exponent_sign(make_synthetic):
    # Im nu > 0 must slow the decay: |q(2t)| / |q(t)| = 2^{Im nu - 1/2}
    z = np.linspace(-8, 8, 1025)
    ctx = make_synthetic(
        z,
        lambda s: 0.5 * np.exp(-1.5 * s ** 2 + 1.2j * s),
        lambda s: 0.5 * np.exp(-1.5 * s ** 2 + 1.2j * s),
    )
    ph = phase_data(ctx, 0.25)
    (q1, _), (q2, _) = q_asymptotic(ph, 50.0), q_asymptotic(ph, 100.0)
    im_nu = ph.nu_at_xi.imag
    assert im_nu != 0
    measured = np.log2(abs(q2) / abs(q1))
    assert measured == pytest.approx(im_nu - 0.5, abs=1e-10)


def test_validity_gate_refuses(make_synthetic):
    # 1 - r rbreve = -0.1 - 1j near xi: arg < -pi/2 means Im nu > 1/4
    z = np.linspace(-8, 8, 2049)

    def r_fn(s):
        bump = np.exp(-6.0 * (s - 0.3) ** 2)
        target = 1.0 - (-0.1 - 1.0j)
        return 1.0 * bump * target ** 0.5 + 1e-4

    def rb_fn(s):
        bump = np.exp(-6.0 * (s - 0.3) ** 2)
        target = 1.0 - (-0.1 - 1.0j)
        return 1.0 * bump * target ** 0.5 + 1e-4

    ctx = make_synthetic(z, r_fn, rb_fn)
    nu = nu_at(ctx, 0.3)
    assert abs(nu.imag) >= 0.25
    with pytest.raises(ValidityViolation):
        q_asymptotic(phase_data(ctx, 0.3), 50.0)


def test_marginal_band_flagged(make_synthetic):
    # steer Im nu into (0.23, 0.25): arg(1 - r rbreve) ~ -2 pi * 0.24
    z = np.linspace(-8, 8, 2049)
    target = np.exp(-2j * np.pi * 0.24)  # |1 - r rbreve| = 1, arg -> Im nu = 0.24

    def r_fn(s):
        bump = np.exp(-6.0 * (s - 0.3) ** 2)
        return ((1.0 - target) ** 0.5) * bump

    ctx = make_synthetic(z, r_fn, r_fn)
    ph = phase_data(ctx, 0.3)
    assert q_asymptotic(ph, 50.0)[1] == "marginal"
    assert 0.23 <= abs(ph.nu_at_xi.imag) < 0.25


def test_window_exceeded(box_ctx, tmp_path, monkeypatch):
    # 15.99 lies on the grid [-16, 16] but not 1% of its width inside: the CLI sweeps
    # no phase data for it, and `asym` writes its row "invalid"
    t = 50.0
    queries = [(-4 * 15.99 * t, t), (-4 * 0.3 * t, t)]
    swept = []
    monkeypatch.setattr(cli, "phase_data",
                        lambda ctx, xi: swept.append(xi.tolist()) or phase_data(ctx, xi))
    cli._ray_formula(box_ctx, *np.array(queries).T)
    assert swept == [[stationary_point(*queries[1])]]
    box = {"kind": "box", "amplitude": [0.3, 0.0], "sigma": 1, "L": 8.0, "N": 256,
           "params": {"left": -1.0, "right": 1.0}}
    cfg, lines, out = tmp_path / "cfg.json", tmp_path / "q.jsonl", tmp_path / "o"
    cfg.write_text(json.dumps({"potential": box, "window": {"z_max": 16.0, "n": 2049}}))
    lines.write_text("".join(json.dumps({"x": x, "t": t}) + "\n" for x, t in queries))
    res = CliRunner().invoke(cli.main, ["--config", str(cfg), "--out", str(out),
                                        "asym", "--queries", str(lines)])
    assert res.exit_code == 0, res.output
    rows = (out / "asym.csv").read_text().splitlines()
    assert [row.rsplit(",", 1)[1] for row in rows[1:]] == ["invalid", "valid"]


@pytest.mark.parametrize("t", [0.0, -1.0])
def test_nonpositive_time_is_typed(box_ctx, t):
    ph = phase_data(box_ctx, 0.3)
    with pytest.raises(NonpositiveTime):
        alpha(ph, t)
    with pytest.raises(NonpositiveTime):
        connection_coefficients(ph, t)
    with pytest.raises(NonpositiveTime):
        q_asymptotic(ph, t)


def _ray(nu_re, nu_im, d0_abs, d0_arg, rb_abs, rb_arg):
    """(nu, delta0, r, rbreve) with r rbreve = 1 - e^{-2 pi nu}, as on a real ray."""
    nu = complex(nu_re, nu_im)
    rb = rb_abs * np.exp(1j * rb_arg)
    return nu, d0_abs * np.exp(1j * d0_arg), -np.expm1(-2.0 * np.pi * nu) / rb, rb


_RAYS = st.lists(st.tuples(
    st.floats(-0.5, 1.0), st.floats(-0.25, 0.25, exclude_min=True, exclude_max=True),
    st.floats(0.25, 4.0), st.floats(-np.pi, np.pi), st.floats(1e-3, 1.0),
    st.floats(-np.pi, np.pi), st.floats(-16.0, 16.0), st.floats(10.0, 2560.0)),
    min_size=1, max_size=8)


@settings(max_examples=60, deadline=None)
@given(rays=_RAYS)
def test_array_path_matches_the_scalar_reference(rays):
    # one batch of rays, each at its own t, against the ray formula in cmath,
    # one ray and one t at a time
    data = [(*_ray(*ray), xi, t) for *ray, xi, t in rays]
    nu, d0, r, rb, xi, t = map(np.array, zip(*data))
    q, validity = q_asymptotic(PhaseData(xi, nu, d0, r, rb), t)
    want = np.array([q_leading(*ray) for ray in data])
    assert np.all(np.abs(q - want) <= REFERENCE_RTOL * np.abs(want))
    edge = asymptotics.IM_NU_LIMIT - asymptotics.MARGIN
    assert validity.tolist() == ["valid" if abs(v.imag) < edge else "marginal" for v in nu]


def test_float_t_returns_a_complex_and_a_str(box_ctx):
    ph = phase_data(box_ctx, 0.3)
    q, validity = q_asymptotic(ph, 40.0)
    assert isinstance(q, complex) and isinstance(validity, str)
    assert validity == "valid"
    want = q_leading(ph.nu_at_xi, ph.delta0, ph.r_xi, ph.r_breve_xi, ph.xi, 40.0)
    assert abs(q - want) <= REFERENCE_RTOL * abs(want)


def test_one_disagreeing_element_raises(box_ctx, monkeypatch):
    # the 1e-10 route check runs on every element of a batch
    xis = np.array([0.2, 0.3, 0.5, 1.5])
    batch = phase_data(box_ctx, xis)
    t = np.array([20.0, 40.0, 80.0, 160.0])
    q_asymptotic(batch, t)
    alpha = asymptotics.alpha
    monkeypatch.setattr(asymptotics, "alpha",
                        lambda ph, t: alpha(ph, t) * np.where(xis == 0.5, 1.0 + 1e-9, 1.0))
    with pytest.raises(RouteDisagreement, match="disagree"):
        q_asymptotic(batch, t)
