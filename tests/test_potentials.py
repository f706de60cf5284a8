import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nonlocal_nls import Potential, build_lax_matrix
from nonlocal_nls.config import ExperimentConfig
from nonlocal_nls.errors import BadInput


def test_zero_potential_gives_zero_matrix():
    pot = Potential(kind="zero", L=8.0, N=64)
    for x in (-3.0, 0.0, 5.5):
        Q = build_lax_matrix(pot, x).matrix
        assert np.all(Q == 0)


def test_real_even_box_entries(box_plus):
    # conj(q(-x)) = q(x) for a real even box
    Q = build_lax_matrix(box_plus, 0.0).matrix
    assert Q[0, 1] == pytest.approx(0.3)
    assert Q[1, 0] == pytest.approx(-0.3)
    assert Q[0, 0] == 0 and Q[1, 1] == 0


def test_complex_gaussian_sigma_minus():
    pot = Potential(kind="gaussian", amplitude=0.2j, sigma=-1,
                    params={"width": 1.0}, L=16.0, N=128)
    Q = build_lax_matrix(pot, 0.0).matrix
    assert Q[0, 1] == pytest.approx(0.2j)
    # -sigma conj(q(0)) = +conj(0.2i) = -0.2i
    assert Q[1, 0] == pytest.approx(-0.2j)


def test_trace_of_lax_rhs_is_zero(box_plus):
    # tr(Q - i z sigma3) = 0: Q has zero diagonal and sigma3 is traceless
    Q = build_lax_matrix(box_plus, 0.4).matrix
    for z in (0.0, 1.7, -3.2):
        M = Q - 1j * z * np.diag([1.0, -1.0])
        assert abs(np.trace(M)) < 1e-15


def test_out_of_range_x_truncates(box_plus):
    assert np.all(build_lax_matrix(box_plus, 100.0).matrix == 0)


def test_mirror_conj_relation():
    pot = Potential(kind="gaussian", amplitude=0.1 + 0.05j, sigma=1,
                    params={"width": 1.0, "center": 0.7}, L=16.0, N=128)
    x = np.linspace(-3, 3, 11)
    assert np.allclose(pot.mirror_conj(x), np.conj(pot(-x)))


def test_box_breakpoints_cover_mirror():
    pot = Potential(kind="box", amplitude=0.2, sigma=1,
                    params={"left": 0.25, "right": 1.5}, L=8.0, N=64)
    assert pot.breakpoints() == [-1.5, -0.25, 0.25, 1.5]


def test_potential_validation_errors():
    with pytest.raises(BadInput):
        Potential(kind="nope")
    with pytest.raises(BadInput):
        Potential(kind="zero", sigma=2)
    with pytest.raises(BadInput):
        Potential(kind="zero", N=100)   # not a power of two
    with pytest.raises(BadInput):
        Potential(kind="box", params={"left": 1.0, "right": -1.0})
    with pytest.raises(BadInput):
        # tail of a wide gaussian exceeds 1e-12 inside a tiny domain
        Potential(kind="gaussian", amplitude=0.5, params={"width": 4.0}, L=8.0)


def test_samples_roundtrip_json():
    N = 64
    base = Potential(kind="zero", L=4.0, N=N)
    vals = 0.05 * np.exp(-base.grid() ** 2) * (1 + 0.3j)
    pot = Potential(kind="samples", sigma=-1, L=4.0, N=N,
                    params={"samples": vals}, amplitude=0.05)
    doc = pot.to_json_dict()
    back = Potential.from_json_dict(doc)
    assert back.sigma == -1
    assert np.allclose(back.params["samples"], vals)
    x = np.linspace(-3.5, 3.5, 37)
    assert np.allclose(back(x), pot(x), atol=1e-12)


def test_scatter_halfwidth_contains_support(gauss_small):
    X = gauss_small.scatter_halfwidth()
    x = np.linspace(X, gauss_small.L, 50)
    assert np.all(np.abs(gauss_small(x)) < 1e-12)



def _config_doc(kind):
    params = {"width": 1.0, "center": 0.2, "chirp": 0.5} if kind == "gaussian" \
        else {"left": -1.0, "right": 1.0}
    return {
        "potential": {"kind": kind, "amplitude": [0.1, 0.05], "sigma": 1,
                      "L": 16.0, "N": 256, "params": params},
        "window": {"z_max": 6.0, "n": 257}, "rays": [0.4], "times": [20.0, 40.0],
        "pde": {"dt": 0.01}, "t_min": 10.0, "tol_scale": 1.0,
    }


#: paths to the numbers of a config document, besides the kind's params
_NUMBER_PATHS = [
    ("potential", "amplitude", 0), ("potential", "amplitude", 1), ("potential", "L"),
    ("window", "z_max"), ("rays", 0), ("times", 1), ("pde", "dt"), ("t_min",),
    ("tol_scale",),
]


def test_config_doc_is_valid():
    for kind in ("gaussian", "box"):
        ExperimentConfig.from_json_dict(_config_doc(kind))


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["gaussian", "box"]), data=st.data(),
       value=st.sampled_from([float("nan"), float("inf"), float("-inf")]))
def test_non_finite_config_is_bad_input(kind, data, value):
    doc = _config_doc(kind)
    params = [("potential", "params", key) for key in doc["potential"]["params"]]
    *path, last = data.draw(st.sampled_from(_NUMBER_PATHS + params))
    target = doc
    for key in path:
        target = target[key]
    target[last] = value
    with pytest.raises(BadInput):
        ExperimentConfig.from_json_dict(doc)
