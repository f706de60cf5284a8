import dataclasses
import importlib.util
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nonlocal_nls import Potential
from nonlocal_nls._cf4 import (
    _cf4_steps,
    _expm_shifted,
    _series_coefficients,
    _split,
)
from nonlocal_nls.config import _CONFIG, _PDE, _WINDOW, ExperimentConfig
from nonlocal_nls.errors import BadInput
from nonlocal_nls.potentials import _PARAMS, _POTENTIAL, UniformSpline

from conftest import series_entries

_REPO = Path(__file__).resolve().parents[1]


def _lax_entries(pot, x, h=1e-6):
    """(Q12, Q21) near x as the CF4 steps sample them.

    The first exponential of a step of size h carries the off-diagonal
    entries h (a2 Q(x1) + a1 Q(x2)) at the two Gauss points, a1 + a2 = 1/2.
    """
    [(step, b, c)] = _cf4_steps(pot, _split(pot, x, x + 2 * h, 2))
    return b[0] / (step / 2), c[0] / (step / 2)


def test_zero_potential_gives_zero_matrix():
    pot = Potential(kind="zero", L=8.0, N=64)
    for x in (-3.0, 0.0, 5.5):
        assert _lax_entries(pot, x) == (0, 0)


def test_real_even_box_entries(box_plus):
    # conj(q(-x)) = q(x) for a real even box
    q12, q21 = _lax_entries(box_plus, 0.0)
    assert q12 == pytest.approx(0.3)
    assert q21 == pytest.approx(-0.3)


def test_complex_gaussian_sigma_minus():
    pot = Potential(kind="gaussian", amplitude=0.2j, sigma=-1,
                    params={"width": 1.0}, L=16.0, N=128)
    q12, q21 = _lax_entries(pot, 0.0)
    assert q12 == pytest.approx(0.2j)
    # -sigma conj(q(0)) = +conj(0.2i) = -0.2i
    assert q21 == pytest.approx(-0.2j)


def test_trace_of_lax_rhs_is_zero(box_plus):
    # tr(Q - i z sigma3) = 0, so every CF4 exponential has det = e^0 = 1
    [(h, bs, cs)] = _cf4_steps(box_plus, _split(box_plus, 0.4, 0.4 + 2e-3, 2))
    for z in (0.0, 1.7, -3.2):
        for b, c in zip(bs[:2], cs[:2]):
            e11, e12, e21, e22 = _expm_shifted(-1j * z * h / 2, b, c)
            assert abs(e11 * e22 - e12 * e21 - 1.0) < 1e-15


def test_series_step_is_unimodular(box_plus):
    # the per-segment series keeps det = 1 for each exponential of a step
    [(h, bs, cs)] = _cf4_steps(box_plus, _split(box_plus, 0.4, 0.4 + 2e-3, 2))
    d = -1j * np.array([0.0, 1.7, -3.2]) * h / 2
    eps = bs * cs
    g_max = max(np.abs(bs).max(), np.abs(cs).max())
    coef = _series_coefficients(d, float(np.abs(eps).max()), g_max)
    e11, e12, e21, e22 = series_entries(coef, bs[:2], cs[:2])
    det = e11 * e22 - e12 * e21
    assert np.all(np.abs(det - 1.0) < 1e-15)


def test_out_of_range_x_truncates(box_plus):
    assert _lax_entries(box_plus, 100.0) == (0, 0)
    vals = np.ones(64, dtype=complex)
    pot = Potential(kind="samples", L=4.0, N=64, params={"samples": vals})
    assert np.all(pot(np.array([-4.5, 4.5, 100.0])) == 0)


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
    with pytest.raises(BadInput):
        # the whole gaussian lies off [-L, L]; it must not pass as q = 0
        Potential(kind="gaussian", amplitude=0.5, params={"center": 100.0}, L=64.0)


def test_samples_roundtrip_json():
    # a hand-written descriptor: samples as [re, im] pairs over the grid
    N, L = 64, 4.0
    x = -L + (2 * L / N) * np.arange(N)
    vals = 0.05 * np.exp(-x ** 2) * (1 + 0.3j)
    doc = {"kind": "samples", "amplitude": [0.05, 0.0], "sigma": -1,
           "L": L, "N": N,
           "params": {"samples": [[v.real, v.imag] for v in vals]}}
    pot = Potential.from_json_dict(doc)
    assert pot.sigma == -1 and pot.L == L and pot.N == N
    assert pot.amplitude == 0.05
    assert np.array_equal(pot.params["samples"], vals)
    assert np.allclose(pot(x), vals, atol=1e-15)


@pytest.mark.parametrize("pair", [[True, 0.0], ["0", 0.0]], ids=["bool", "string"])
def test_bool_or_string_sample_is_bad_input(pair):
    # a sample is a JSON number, as every other number field of a config
    doc = {"kind": "samples", "L": 4.0, "N": 4, "params": {"samples": [[0.0, 0.0]] * 3 + [pair]}}
    with pytest.raises(BadInput, match="expected a number"):
        Potential.from_json_dict(doc)


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
        "pde": {"dt": 0.01}, "t_min": 10.0,
    }


#: paths to the numbers of a config document, besides the kind's params
_NUMBER_PATHS = [
    ("potential", "amplitude", 0), ("potential", "amplitude", 1), ("potential", "L"),
    ("window", "z_max"), ("rays", 0), ("times", 1), ("pde", "dt"), ("t_min",),
]


def test_config_doc_is_valid():
    for kind in ("gaussian", "box"):
        ExperimentConfig.from_json_dict(_config_doc(kind))


@pytest.mark.parametrize("t_min,times", [(0.0, [20.0, 40.0]), (-5.0, [-1.0, 0.5])])
def test_nonpositive_t_min_is_bad_input(t_min, times):
    doc = dict(_config_doc("box"), t_min=t_min, times=times)
    with pytest.raises(BadInput, match="t_min must be positive"):
        ExperimentConfig.from_json_dict(doc)


def test_absent_keys_take_the_field_defaults():
    cfg = ExperimentConfig.from_json_dict({"potential": {"kind": "zero"}})
    assert cfg == ExperimentConfig(potential=Potential(kind="zero"))


@pytest.mark.parametrize("path", [
    ("potential", "amplitude"), ("potential", "sigma"), ("potential", "L"), ("potential", "N"),
    ("window", "z_max"), ("window", "n"), ("rays",), ("times",), ("pde", "dt"), ("t_min",)])
def test_null_config_value_is_bad_input(path):
    # a null is a bad value, not an absent key: it never takes the default
    doc = _config_doc("box")
    *head, last = path
    target = doc
    for key in head:
        target = target[key]
    target[last] = None
    with pytest.raises(BadInput):
        ExperimentConfig.from_json_dict(doc)


@pytest.mark.parametrize("key,value", [("window", 5), ("pde", [1])])
def test_non_object_section_is_bad_input(key, value):
    doc = dict(_config_doc("box"), **{key: value})
    with pytest.raises(BadInput, match=f"{key} must be a JSON object"):
        ExperimentConfig.from_json_dict(doc)


def test_integral_float_config_integers_accepted():
    doc = _config_doc("box")
    doc["potential"].update(sigma=-1.0, N=256.0)
    doc["window"]["n"] = 257.0
    cfg = ExperimentConfig.from_json_dict(doc)
    assert (cfg.potential.sigma, cfg.potential.N, cfg.nz) == (-1, 256, 257)


@pytest.mark.parametrize("path, value", [
    (("pde", "dt"), True), (("t_min",), True), (("window", "z_max"), True),
    (("times",), ["20"]), (("potential", "L"), "64"),
    (("potential", "amplitude"), [True, "0.1"]), (("potential", "params", "left"), "-1"),
])
def test_bool_or_string_config_number_is_bad_input(path, value):
    # a float field is never read off a bool or a numeric string
    doc = _config_doc("box")
    *head, last = path
    target = doc
    for key in head:
        target = target[key]
    target[last] = value
    with pytest.raises(BadInput, match="expected a number"):
        ExperimentConfig.from_json_dict(doc)


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


@pytest.mark.parametrize("kind,key", [("box", "width"), ("gaussian", "left")])
def test_non_finite_unread_param_is_bad_input(kind, key):
    # a param the kind does not define is refused, whatever its value
    doc = _config_doc(kind)
    doc["potential"]["params"][key] = float("nan")
    with pytest.raises(BadInput, match=f"unknown key '{key}' in {kind} params"):
        ExperimentConfig.from_json_dict(doc)


def test_samples_potential_without_samples_is_bad_input():
    # samples is the one param without a default
    with pytest.raises(BadInput, match="samples params need 'samples'"):
        Potential(kind="samples", L=4.0, N=4)


def test_unknown_param_of_the_constructor_is_bad_input():
    # the library constructor refuses what the config reader refuses
    with pytest.raises(BadInput, match="unknown key 'widht' in gaussian params"):
        Potential(kind="gaussian", params={"widht": 2.6})


@pytest.mark.parametrize("amplitude", [[0.3], [0.3, 0.0, 7.0]])
def test_amplitude_is_exactly_two_numbers(amplitude):
    doc = _config_doc("box")
    doc["potential"]["amplitude"] = amplitude
    with pytest.raises(BadInput, match="bad 'amplitude' in potential"):
        ExperimentConfig.from_json_dict(doc)


def test_each_table_fills_exactly_its_fields():
    def names(cls):
        return [f.name for f in dataclasses.fields(cls)]

    # window and pde are sections whose tables fill fields of the config itself
    sections = {_CONFIG[key][0] for key in ("window", "pde")}
    filled = [name for table in (_CONFIG, _WINDOW, _PDE) for name, _ in table.values()]
    assert sorted(set(filled) - sections) == sorted(names(ExperimentConfig))
    assert len(filled) == len(set(filled))
    assert [name for name, _ in _POTENTIAL.values()] == names(Potential)
    for kind, table in _PARAMS.items():
        params = {"samples": np.zeros(4)} if kind == "samples" else {}
        assert list(Potential(kind=kind, L=4.0, N=4, params=params).params) == list(table)


def _documented_configs(tmp_path, monkeypatch):
    """The example configs of the README and every config perfbench writes for seed 1."""
    blocks = re.findall(r"```json\n(.*?)```", (_REPO / "README.md").read_text(), re.S)
    assert len(blocks) == 2
    spec = importlib.util.spec_from_file_location("workloads", _REPO / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    for name in workloads.WORKLOADS:
        workloads.build(name, 1, tmp_path / name)
    configs = sorted(tmp_path.rglob("*.json"))
    assert len(configs) == 5
    return [json.loads(b) for b in blocks] + [json.loads(p.read_text()) for p in configs]


def _read_key_by_key(doc):
    """The config that reading each key of `doc` into its field gives."""
    pot = doc["potential"]
    params = dict(pot.get("params", {}))
    if "samples" in params:
        params["samples"] = np.array([complex(re, im) for re, im in params["samples"]])
    window, pde = doc.get("window", {}), doc.get("pde", {})
    fields = {"z_max": window.get("z_max"), "nz": window.get("n"), "rays": doc.get("rays"),
              "times": doc.get("times"), "dt": pde.get("dt"), "t_min": doc.get("t_min")}
    potential = Potential(kind=pot["kind"], amplitude=complex(*pot["amplitude"]),
                          sigma=pot["sigma"], L=pot["L"], N=pot["N"], params=params)
    return ExperimentConfig(potential=potential,
                            **{name: value for name, value in fields.items() if value is not None})


def _comparable(cfg):
    pot = cfg.potential
    params = {key: np.asarray(value).tobytes() for key, value in pot.params.items()}
    return (dataclasses.replace(cfg, potential=None),
            (pot.kind, pot.amplitude, pot.sigma, pot.L, pot.N, params))


def test_documented_configs_parse_as_before(tmp_path, monkeypatch):
    # every key of the README examples and of the benchmark inputs is defined,
    # and each is read into its field as the reader always read it
    for doc in _documented_configs(tmp_path, monkeypatch):
        cfg = ExperimentConfig.from_json_dict(doc)
        assert _comparable(cfg) == _comparable(_read_key_by_key(doc))


# the uniform-grid spline against scipy's CubicSpline, in range, at both
# grid ends and just outside them (the end pieces extrapolate)
@pytest.mark.parametrize("natural", [True, False], ids=["natural", "not_a_knot"])
def test_uniform_spline_matches_cubic_spline(natural):
    from scipy.interpolate import CubicSpline
    rng = np.random.default_rng(7)
    x = np.linspace(-16.0, 16.0, 257)
    h = x[1] - x[0]
    if natural:   # complex samples, as the `samples` potential holds them
        y = 0.1 * np.exp(-(1.0 + 0.3j) * x ** 2 / 8.0) * (1.0 + 0.01 * rng.normal(size=x.size))
        ref = CubicSpline(x, y, bc_type="natural")
    else:         # five real columns, as the spectral context holds them
        y = np.stack([np.sin(x), np.cos(0.3 * x), np.exp(-x ** 2 / 10.0),
                      np.tanh(x), np.arctan(x)]) + 0.01 * rng.normal(size=(5, x.size))
        ref = CubicSpline(x, y.T)
    spline = UniformSpline(x, y, natural=natural)
    pts = np.r_[x[0], x[-1], x[0] - 0.25 * h, x[-1] + 0.25 * h, x[100],
                rng.uniform(x[0], x[-1], 500)]
    tol = 16 * np.finfo(float).eps * np.abs(y).max()
    assert np.abs(spline(pts) - ref(pts).T).max() <= tol
    point = spline(np.float64(0.3))
    assert point.shape == y.shape[:-1]
    assert np.abs(point - ref(0.3)).max() <= tol


def test_uniform_spline_refuses_uneven_grid():
    x = np.linspace(-1.0, 1.0, 9)
    x[4] += 1e-3
    with pytest.raises(BadInput):
        UniformSpline(x, np.ones(9))
