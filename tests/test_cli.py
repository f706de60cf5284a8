import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import nonlocal_nls
from nonlocal_nls import Potential, asymptotics, compute_scattering, model, phase, scattering
from nonlocal_nls import cli
from nonlocal_nls.cli import main
from nonlocal_nls.config import ExperimentConfig
from nonlocal_nls.errors import IntegratorDivergence
from nonlocal_nls.potentials import UniformSpline

from oracles import REFERENCE_RTOL, q_leading


def _write_config(path, potential, **over):
    doc = {
        "potential": potential,
        "window": over.pop("window", {"z_max": 6.0, "n": 257}),
        "rays": over.pop("rays", [0.4]),
        "times": over.pop("times", [20.0, 40.0]),
        "pde": over.pop("pde", {"dt": 0.01}),
    }
    doc.update(over)
    path.write_text(json.dumps(doc))
    return path


ZERO_POT = {"kind": "zero", "amplitude": [0.0, 0.0], "sigma": 1,
            "L": 16.0, "N": 256, "params": {}}
BOX_POT = {"kind": "box", "amplitude": [0.3, 0.0], "sigma": 1,
           "L": 8.0, "N": 256, "params": {"left": -1.0, "right": 1.0}}


# the light gaussian of the small end-to-end runs
LIGHT_GAUSS = {"kind": "gaussian", "amplitude": [0.08, 0.0], "sigma": 1,
               "L": 128.0, "N": 4096, "params": {"width": 2.0}}
LIGHT_RUN = {"rays": [0.25], "times": [12.0, 18.0, 27.0], "window": {"z_max": 8.0, "n": 513},
             "pde": {"dt": 0.004}, "t_min": 10.0}


@pytest.fixture()
def runner():
    return CliRunner()


def test_scatter_zero_potential(tmp_path, runner):
    cfg = _write_config(tmp_path / "cfg.json", ZERO_POT)
    out = tmp_path / "out"
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "scatter"])
    assert res.exit_code == 0, res.output
    rows = (out / "scattering.csv").read_text().strip().splitlines()
    assert rows[0].startswith("z,re_a,im_a,re_b")
    first = rows[1].split(",")
    assert abs(float(first[1]) - 1.0) < 1e-10 and abs(float(first[3])) < 1e-10
    rep = json.loads((out / "genericity.json").read_text())
    assert rep["passed"] and rep["winding"] == 0


def test_scatter_matches_oracle_spotcheck(tmp_path, runner):
    from nonlocal_nls import Potential, exact_box_scattering
    cfg = _write_config(tmp_path / "cfg.json", BOX_POT)
    out = tmp_path / "out"
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "scatter"])
    assert res.exit_code == 0, res.output
    raw = np.loadtxt(out / "scattering.csv", delimiter=",", skiprows=1)
    pot = Potential.from_json_dict(BOX_POT)
    a = exact_box_scattering(pot, raw[:, 0])[0]
    assert np.abs(a - (raw[:, 1] + 1j * raw[:, 2])).max() < 1e-6


def test_malformed_json_exits_1(tmp_path, runner):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    res = runner.invoke(main, ["--config", str(bad), "scatter"])
    assert res.exit_code == 1


def test_non_utf8_config_exits_1(tmp_path, runner):
    # undecodable bytes are malformed input, not a numerical failure (exit 3)
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{")
    res = runner.invoke(main, ["--config", str(bad), "scatter"])
    assert res.exit_code == 1, res.output
    assert "cannot parse config" in res.output


def test_missing_config_exits_1(runner):
    res = runner.invoke(main, ["scatter"])
    assert res.exit_code == 1


@pytest.mark.parametrize("section, key, value", [
    ("potential", "sigma", 1.5), ("potential", "sigma", True),
    ("potential", "N", 256.9), ("window", "n", 257.5),
])
def test_scatter_non_integral_integer_exits_1(tmp_path, runner, section, key, value):
    # an integer field is never truncated or read off a bool
    cfg = _write_config(tmp_path / "cfg.json", BOX_POT)
    doc = json.loads(cfg.read_text())
    doc[section][key] = value
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "scatter"])
    assert res.exit_code == 1, res.output
    assert "expected an integer" in res.output
    assert not (out / "scattering.csv").exists()


@pytest.mark.parametrize("potential, over, named", [
    (BOX_POT, {"window": {"zmax": 6.0}, "tmin": 50.0}, [("zmax", "window"), ("tmin", "config")]),
    (dict(BOX_POT, amplitude=[0.3, 0.0, 7.0]), {}, [("amplitude", "potential")]),
    (dict(LIGHT_GAUSS, params={"widht": 2.6}), {}, [("widht", "gaussian params")]),
    (dict(LIGHT_GAUSS, params={"width": 2.0, "left": -1.0}, centre=1.0), {"ray": [0.3]},
     [("left", "gaussian params"), ("centre", "potential"), ("ray", "config")]),
], ids=["misspelt-window-and-top", "three-entry-amplitude", "misspelt-param", "foreign-keys"])
def test_scatter_undefined_key_exits_1(tmp_path, runner, potential, over, named):
    # a key the config does not define is refused, never dropped for a default
    cfg = _write_config(tmp_path / "cfg.json", potential, **over)
    out = tmp_path / "out"
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "scatter"])
    assert res.exit_code == 1, res.output
    assert any(f"{key!r} in {section}" in res.output for key, section in named), res.output
    assert not out.exists()


def test_genericity_violation_exits_2(tmp_path, runner):
    pot = dict(BOX_POT, amplitude=[4.5, 0.0], sigma=-1)
    cfg = _write_config(tmp_path / "cfg.json", pot)
    res = runner.invoke(main, ["--config", str(cfg), "--out",
                               str(tmp_path / "o"), "scatter"])
    assert res.exit_code == 2


def test_zero_of_abreve_exits_2(tmp_path, runner):
    # a has no zero in the upper half-plane and abreve one in the lower
    pot = {"kind": "gaussian", "amplitude": [0.737, 0.839], "sigma": 1, "L": 32.0,
           "N": 1024, "params": {"width": 0.857, "center": -1.753, "chirp": -0.088}}
    cfg = _write_config(tmp_path / "cfg.json", pot, window={"z_max": 8.0, "n": 513})
    out = tmp_path / "o"
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "scatter"])
    assert res.exit_code == 2
    rep = json.loads((out / "genericity.json").read_text())
    assert rep["route"] == "real_axis" and not rep["passed"]
    assert (rep["winding"], rep["winding_breve"]) == (0, 1)
    # the genericity verdict refuses it before the branch check (exit 3) is reached
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path / "a"), "asym"])
    assert res.exit_code == 2, res.output
    assert "abreve 1 in Im z < 0" in res.output


BOUND_STATE_POT = {"kind": "gaussian", "amplitude": [0.8, 0.0], "sigma": 1, "L": 32.0,
                   "N": 1024, "params": {"width": 1.0}}


def test_bound_state_scatter_names_the_failed_count(tmp_path, runner):
    # scatter writes both files, then refuses in the words phase uses
    cfg = _write_config(tmp_path / "cfg.json", BOUND_STATE_POT,
                        window={"z_max": 8.0, "n": 513}, rays=[0.3])
    out = tmp_path / "o"
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "scatter"])
    assert res.exit_code == 2
    assert (out / "scattering.csv").exists() and (out / "genericity.json").exists()
    assert "a has 1 zero(s) in Im z > 0 and abreve 1 in Im z < 0" in res.output
    refused = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path / "p"), "phase"])
    assert refused.exit_code == 2
    assert refused.output == res.output.split("\n", 1)[1]


@pytest.mark.parametrize("command", ["phase", "asym", "compare", "verify"])
def test_bound_state_refused_by_every_phase_consumer_exits_2(tmp_path, runner, monkeypatch,
                                                             command):
    # a and abreve each have one zero off the axis; the spectral context
    # refuses the data before anything is evolved, checked or written
    def refuse(*args, **kwargs):
        raise AssertionError("the PDE ran on refused data")

    monkeypatch.setattr(cli, "evolve", refuse)
    cfg = _write_config(tmp_path / "cfg.json", BOUND_STATE_POT, window={"z_max": 8.0, "n": 513},
                        rays=[-0.3, 0.3], times=[40.0, 80.0, 160.0])
    out = tmp_path / "o"
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), command])
    assert res.exit_code == 2, res.output
    assert "route real_axis" in res.output and "[PASS]" not in res.output
    assert not out.exists() or not any(out.iterdir())


def test_formula_mismatch_is_integrator_fault_exits_3(tmp_path, runner, monkeypatch):
    # a Y(0) off by 1e-6 breaks the product formula for a(z): an integration
    # fault, not a genericity verdict on the data
    propagate = scattering.y_matrix_batch

    def perturbed(*args, **kwargs):
        (Y0, S), err = propagate(*args, **kwargs)
        return (tuple(y * (1.0 + 1e-6) for y in Y0), S), err

    monkeypatch.setattr(scattering, "y_matrix_batch", perturbed)
    with pytest.raises(IntegratorDivergence):
        compute_scattering(Potential.from_json_dict(BOX_POT), np.linspace(-6.0, 6.0, 257))
    cfg = _write_config(tmp_path / "cfg.json", BOX_POT)
    res = runner.invoke(main, ["--config", str(cfg), "--out",
                               str(tmp_path / "o"), "scatter"])
    assert res.exit_code == 3
    assert "determinant/product formulas disagree" in res.output


def test_report_missing_inputs_exits_4(tmp_path, runner):
    cfg = _write_config(tmp_path / "cfg.json", ZERO_POT)
    res = runner.invoke(main, ["--config", str(cfg), "--out",
                               str(tmp_path / "empty"), "report"])
    assert res.exit_code == 4


def test_report_empty_fits_fails(tmp_path, runner):
    # no fitted ray is no evidence: the verdict must not read as a pass
    out = tmp_path / "out"
    out.mkdir()
    (out / "compare.csv").write_text(
        "xi,t,re_qnum,im_qnum,re_qasym,im_qasym,abs_err,validity\n")
    (out / "fits.json").write_text("{}\n")
    res = runner.invoke(main, ["--out", str(out), "report"])
    assert res.exit_code == 3, res.output
    assert res.output.count("[FAIL]") == 1 and "no ray was fitted" in res.output
    assert json.loads((out / "summary.json").read_text())["all_pass"] is False


COMPARE_HEADER = "xi,t,re_qnum,im_qnum,re_qasym,im_qasym,abs_err,validity\n"
COMPARE_ROW = "0.3,10.0,0.1,0.0,0.1,0.0,0.001,valid\n"
FIT = '{"0.3": {"exponent": -1.0, "monotone_decreasing": true}}'


@pytest.mark.parametrize("fits, row", [
    ("[]", COMPARE_ROW),
    ('{"0.3": {"exponent": -1}}', COMPARE_ROW),
    ('{"0.3": {"exponent": "-1", "monotone_decreasing": true}}', COMPARE_ROW),
    (FIT, "0.3,10.0,abc,0.0,0.1,0.0,0.001,valid\n"),
], ids=["fits-list", "fits-missing-key", "fits-string-exponent", "csv-non-numeric"])
def test_report_malformed_inputs_exit_1(tmp_path, runner, fits, row):
    out = tmp_path / "out"
    out.mkdir()
    (out / "compare.csv").write_text(COMPARE_HEADER + row)
    (out / "fits.json").write_text(fits)
    res = runner.invoke(main, ["--out", str(out), "report"])
    assert res.exit_code == 1, res.output
    assert "error:" in res.output
    assert not (out / "summary.json").exists()


def test_report_permuted_compare_header_exits_1(tmp_path, runner):
    # cells are read by position, so a file with its columns permuted is refused
    out = tmp_path / "out"
    out.mkdir()
    (out / "compare.csv").write_text(
        "xi,t,abs_err,re_qnum,im_qnum,re_qasym,im_qasym,validity\n"
        "0.3,10.0,0.001,0.1,0.0,0.1,0.0,valid\n")
    (out / "fits.json").write_text(FIT)
    res = runner.invoke(main, ["--out", str(out), "report"])
    assert res.exit_code == 1, res.output
    assert "error:" in res.output and "header" in res.output
    assert not (out / "plot_long.csv").exists()


@pytest.mark.parametrize("unreadable", ["compare.csv", "fits.json", "non-utf8"])
def test_report_unreadable_input_exits_1(tmp_path, runner, unreadable):
    # a compare.csv that is not UTF-8, or an input that is a directory
    out = tmp_path / "out"
    out.mkdir()
    (out / "compare.csv").write_bytes(b"\xff\xfe")
    (out / "fits.json").write_text(FIT)
    if unreadable != "non-utf8":
        (out / unreadable).unlink()
        (out / unreadable).mkdir()
    res = runner.invoke(main, ["--out", str(out), "report"])
    assert res.exit_code == 1, res.output
    assert "error:" in res.output and unreadable.replace("non-utf8", "decode") in res.output
    assert not (out / "plot_long.csv").exists()


def test_report_missing_out_exits_4_and_creates_nothing(tmp_path, runner):
    out = tmp_path / "missing"
    res = runner.invoke(main, ["--out", str(out), "report"])
    assert res.exit_code == 4, res.output
    assert not out.exists()


def test_asym_nonpositive_t_min_exits_1(tmp_path, runner):
    cfg = _write_config(tmp_path / "cfg.json", BOX_POT, t_min=-5.0, times=[-1.0, 0.5])
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path / "out"),
                               "asym"])
    assert res.exit_code == 1, res.output
    assert "t_min must be positive" in res.output


@pytest.mark.parametrize("command", ["asym", "compare"])
def test_times_below_t_min_exit_1_and_write_nothing(tmp_path, runner, command):
    # the config's rule is the only t >= t_min guard on the rays-and-times query path
    cfg = _write_config(tmp_path / "cfg.json", BOX_POT, t_min=10.0, times=[5.0, 20.0])
    out = tmp_path / "out"
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), command])
    assert res.exit_code == 1, res.output
    assert "times must all be >= t_min" in res.output
    assert not out.exists()


def test_phase_ray_reaching_past_window_exits_1(tmp_path, runner):
    # delta0 integrates over [xi - 1, xi], so xi = -15.5 needs z >= -16.5
    cfg = _write_config(tmp_path / "cfg.json", BOX_POT, rays=[-15.5],
                        window={"z_max": 16.0, "n": 257})
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path / "out"),
                               "phase"])
    assert res.exit_code == 1, res.output
    assert "xi - 1 >= -z_max" in res.output


def test_phase_and_asym_outputs(tmp_path, runner):
    cfg = _write_config(tmp_path / "cfg.json", BOX_POT)
    out = tmp_path / "out"
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "phase"])
    assert res.exit_code == 0, res.output
    doc = json.loads((out / "phase.json").read_text())
    assert len(doc["rays"]) == 1
    assert set(doc["rays"][0]) == {"xi", "nu", "delta0", "nu_tail",
                                   "branch_max_arg"}
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "asym"])
    assert res.exit_code == 0, res.output
    lines = (out / "asym.csv").read_text().strip().splitlines()
    assert lines[0] == "x,t,xi,re_q,im_q,abs_q,im_nu,validity"
    assert len(lines) == 1 + 2  # one ray x two times


def test_asym_queries_file(tmp_path, runner):
    cfg = _write_config(tmp_path / "cfg.json", BOX_POT)
    qf = tmp_path / "queries.jsonl"
    qf.write_text('{"x": -40.0, "t": 25.0}\n{"x": -96.0, "t": 60.0}\n')
    out = tmp_path / "out"
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(out),
                               "asym", "--queries", str(qf)])
    assert res.exit_code == 0, res.output
    lines = (out / "asym.csv").read_text().strip().splitlines()
    assert len(lines) == 3


@pytest.mark.parametrize("query", [
    '{"x": -4, "t": 5}',           # t below t_min
    '{"x": NaN, "t": 20}',
    '{"x": -4, "t": Infinity}',
])
def test_asym_bad_query_exits_1(tmp_path, runner, query):
    cfg = _write_config(tmp_path / "cfg.json", BOX_POT, t_min=10.0)
    qf = tmp_path / "queries.jsonl"
    qf.write_text('{"x": -40.0, "t": 25.0}\n' + query + "\n")
    out = tmp_path / "out"
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(out),
                               "asym", "--queries", str(qf)])
    assert res.exit_code == 1, res.output
    assert "bad query" in res.output
    assert not (out / "asym.csv").exists()


@pytest.mark.parametrize("query", ['[1, 2]', '5', '{"x": null, "t": 20}',
                                   '{"x": true, "t": 20}', '{"x": "-4", "t": 20}'],
                         ids=["list", "number", "null", "bool", "string"])
def test_asym_query_not_an_object_exits_1(tmp_path, runner, query):
    cfg = _write_config(tmp_path / "cfg.json", BOX_POT)
    qf = tmp_path / "queries.jsonl"
    qf.write_text('{"x": -40.0, "t": 25.0}\n' + query + "\n")
    out = tmp_path / "out"
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(out),
                               "asym", "--queries", str(qf)])
    assert res.exit_code == 1, res.output
    assert "error: bad queries file" in res.output
    assert not (out / "asym.csv").exists()


@pytest.mark.parametrize("bad, line, named", [
    ('{"x": -40.0, "t": 25.0', 3, "line 3: Expecting"),
    ('{"x": -40.0, "t": 25.0, "y": 1.0}', 3, "line 3: query keys ['t', 'x', 'y']"),
    ('{"x": -40.0, "t": 25.0}, {"x": -96.0, "t": 60.0}', 3, "line 3: Extra data"),
    ('{"x": -40.0\n"t": 25.0}, {"x": -96.0, "t": 60.0}', 3, "line 3: Expecting"),
], ids=["malformed", "unknown-key", "two-objects", "split-object"])
def test_asym_bad_query_line_is_named(tmp_path, runner, bad, line, named):
    # the file is decoded as one array only when query k is line k; the split
    # object decodes as two queries over two lines, and is refused at its first
    cfg = _write_config(tmp_path / "cfg.json", BOX_POT)
    qf = tmp_path / "queries.jsonl"
    qf.write_text('{"x": -40.0, "t": 25.0}\n\n' + bad + '\n{"x": -96.0, "t": 60.0}\n')
    out = tmp_path / "out"
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(out),
                               "asym", "--queries", str(qf)])
    assert res.exit_code == 1, res.output
    assert f"error: bad queries file: {named}" in res.output
    assert not (out / "asym.csv").exists()


IM_NU_POT = {"kind": "gaussian", "amplitude": [0.3, 0.0], "sigma": -1, "L": 32.0,
             "N": 1024, "params": {"width": 1.5, "center": 2.0}}


def test_asym_rows_match_per_query_evaluation(tmp_path, runner, monkeypatch):
    # the README's Im nu example with the gate lowered to 0.125: xi = +-0.24
    # (|Im nu| 0.128) are refused and 0.2 (0.122) is marginal; 7.9 and -7.5 are
    # not served, and 0.2 and 1.0 repeat (1.0 at the same t).  Every served row is
    # the ray formula of its xi's phase data, in scalar cmath, at its t
    monkeypatch.setattr(asymptotics, "IM_NU_LIMIT", 0.125)
    window = {"z_max": 8.0, "n": 1025}
    cfg = _write_config(tmp_path / "cfg.json", IM_NU_POT, window=window)
    queries = [(-4.0 * xi * t, t) for xi, t in (
        (0.24, 40.0), (0.2, 40.0), (7.9, 20.0), (1.0, 80.0), (-0.24, 12.0), (0.2, 2560.0),
        (-7.5, 40.0), (1.0, 80.0), (0.1, 640.0), (-3.0, 160.0))]
    qf = tmp_path / "queries.jsonl"
    qf.write_text("".join(json.dumps({"x": x, "t": t}) + "\n" for x, t in queries))
    out = tmp_path / "out"
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(out),
                               "asym", "--queries", str(qf)])
    assert res.exit_code == 0, res.output
    lines = (out / "asym.csv").read_text().splitlines()
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    assert [row["validity"] for row in rows] == [
        "invalid", "marginal", "invalid", "valid", "invalid", "marginal", "invalid", "valid",
        "valid", "valid"]
    config = ExperimentConfig.from_json_file(cfg)
    ctx = phase.SpectralContext(compute_scattering(config.potential, config.z_grid()))
    for row, (x, t) in zip(rows, queries):
        if row["validity"] == "invalid":
            assert row["re_q"] == row["im_q"] == row["im_nu"] == "nan"
            continue
        ph = phase.phase_data(ctx, phase.stationary_point(x, t))
        assert row["im_nu"] == str(ph.nu_at_xi.imag)
        want = q_leading(ph.nu_at_xi, ph.delta0, ph.r_xi, ph.r_breve_xi, ph.xi, t)
        got = complex(float(row["re_q"]), float(row["im_q"]))
        assert abs(got - want) <= REFERENCE_RTOL * abs(want)


def test_evolve_csv_and_binary(tmp_path, runner):
    pot = {"kind": "gaussian", "amplitude": [0.1, 0.0], "sigma": 1,
           "L": 64.0, "N": 1024, "params": {"width": 1.0}}
    cfg = _write_config(tmp_path / "cfg.json", pot, times=[])
    out = tmp_path / "out"
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(out),
                               "evolve", "--t", "1.0"])
    assert res.exit_code == 0, res.output
    assert (out / "snapshot.csv").exists()
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(out),
                               "evolve", "--t", "1.0", "--format", "bin"])
    assert res.exit_code == 0
    blob = (out / "snapshot.bin").read_bytes()
    assert len(blob) == 1024 * 2 * 8
    arr = np.frombuffer(blob, dtype="<f8").reshape(-1, 2)
    csv = np.loadtxt(out / "snapshot.csv", delimiter=",", skiprows=1)
    assert np.allclose(arr[:, 0], csv[:, 1])


def test_evolve_reports_working_grid(tmp_path, runner):
    pot = {"kind": "gaussian", "amplitude": [0.3, 0.0], "sigma": 1,
           "L": 64.0, "N": 4096, "params": {"width": 1.0}}
    cfg = _write_config(tmp_path / "cfg.json", pot, times=[])
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path / "out"),
                               "evolve", "--t", "0.5"])
    assert res.exit_code == 0, res.output
    assert "lens box |y| < 37.64 on n = 512 points, 42 steps" in res.output


def test_evolve_nonlinear_step_too_large_exits_3(tmp_path, runner):
    pot = {"kind": "gaussian", "amplitude": [3.0, 0.0], "sigma": 1,
           "L": 128.0, "N": 1024, "params": {"width": 10.0}}
    cfg = _write_config(tmp_path / "cfg.json", pot, times=[], pde={"dt": 0.1})
    out = tmp_path / "out"
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(out),
                               "evolve", "--t", "1.0"])
    assert res.exit_code == 3, res.output
    assert "nonlinear phase bound" in res.output
    assert not (out / "snapshot.csv").exists()


# evolve's own refusals: NonpositiveTime for a final time <= 0, BadInput for one not finite
FINAL_TIME_REFUSALS = {"-5": "final time must be positive", "0": "final time must be positive",
                       "nan": "need finite snapshot times", "inf": "need finite snapshot times"}


@pytest.mark.parametrize("t_final", ["-5", "0", "nan", "inf"])
def test_evolve_bad_final_time_exits_1(tmp_path, runner, t_final):
    cfg = _write_config(tmp_path / "cfg.json", BOX_POT, times=[])
    out = tmp_path / "out"
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(out),
                               "evolve", "--t", t_final])
    assert res.exit_code == 1, res.output
    assert f"error: {FINAL_TIME_REFUSALS[t_final]}" in res.output
    assert not (out / "snapshot.csv").exists()


@pytest.mark.parametrize("args, message", [
    (["--bogus", "scatter"], "No such option '--bogus'"),
    (["nope"], "No such command 'nope'"),
    (["scatter", "--config", "x"], "No such option '--config'"),
    (["evolve", "--format", "xyz"], "Invalid value for '--format': 'xyz' is not one of"),
    (["evolve", "--t", "abc"], "Invalid value for '--t': 'abc' is not a valid float"),
    (["--config"], "Option '--config' requires an argument"),
], ids=["unknown-option", "unknown-command", "command-option", "bad-choice", "bad-float",
        "config-without-value"])
def test_usage_error_exits_1(tmp_path, runner, args, message):
    cfg = _write_config(tmp_path / "cfg.json", BOX_POT)
    out = tmp_path / "out"
    res = runner.invoke(main, ["--out", str(out), "--config", str(cfg), *args])
    assert res.exit_code == 1, res.output
    assert f"Error: {message}" in res.output
    assert not out.exists()


# --tol-scale is gone: giving it any value is now a usage error
@pytest.mark.parametrize("tol_scale", ["inf", "nan", "-1", "0"])
def test_bad_tol_scale_option_exits_1(tmp_path, runner, tol_scale):
    cfg = _write_config(tmp_path / "cfg.json", BOX_POT)
    out = tmp_path / "out"
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(out),
                               "--tol-scale", tol_scale, "verify"])
    assert res.exit_code == 1, res.output
    assert "Error: No such option '--tol-scale'" in res.output
    assert not out.exists()


@pytest.mark.parametrize("args", [["--help"], ["evolve", "--help"]])
def test_help_exits_0(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    assert res.output.startswith("Usage:")


def test_unwritable_output_exits_1(tmp_path, runner):
    cfg = _write_config(tmp_path / "cfg.json", BOX_POT)
    out = tmp_path / "out"
    (out / "scattering.csv").mkdir(parents=True)
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "scatter"])
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.output.startswith("error: ") and res.output.count("\n") == 1, res.output


def test_benchmark_calling_convention(tmp_path):
    # the call the benchmark harness makes: no standalone mode, so an exit code
    # arrives as SystemExit and a success returns
    def call(cfg, *args):
        return main.main(args=["--config", str(cfg), "--out", str(tmp_path / "out"), *args],
                         prog_name="nonlocal-nls", standalone_mode=False)

    cfg = _write_config(tmp_path / "cfg.json", BOX_POT)
    assert call(cfg, "scatter") is None
    with pytest.raises(SystemExit) as exc:
        call(cfg, "--bogus", "scatter")
    assert exc.value.code == 1
    generic = _write_config(tmp_path / "generic.json", dict(BOX_POT, amplitude=[4.5, 0.0],
                                                            sigma=-1))
    with pytest.raises(SystemExit) as exc:
        call(generic, "scatter")
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["scatter", "compare"])
@pytest.mark.parametrize("over, named", [
    ({"rays": [0.3, 0.3, 0.5]}, "ray xi = 0.3 is repeated"),
    ({"times": [40.0, 40.0, 80.0, 160.0]}, "got 40.0 after 40.0"),
    ({"times": [40.0, 80.0, 60.0]}, "got 60.0 after 80.0"),
], ids=["repeated-ray", "repeated-time", "unsorted-times"])
def test_repeated_ray_or_time_exits_1_and_writes_nothing(tmp_path, runner, command, over,
                                                         named):
    cfg = _write_config(tmp_path / "cfg.json", BOX_POT, **over)
    out = tmp_path / "out"
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), command])
    assert res.exit_code == 1, res.output
    assert named in res.output
    assert not out.exists()


@pytest.mark.parametrize("command", ["scatter", "report"])
def test_out_naming_a_file_exits_1(tmp_path, runner, command):
    cfg = _write_config(tmp_path / "cfg.json", BOX_POT)
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(cfg), command])
    assert res.exit_code == 1, res.output
    assert "error: cannot create output directory" in res.output


def test_determinism_byte_identical(tmp_path, runner):
    cfg = _write_config(tmp_path / "cfg.json", BOX_POT)
    queries = tmp_path / "q.jsonl"
    queries.write_text("".join(json.dumps({"x": -4.0 * xi * t, "t": t}) + "\n"
                               for t in (20.0, 40.0) for xi in (0.4, -1.3, 0.4, 5.99)))
    light = _write_config(tmp_path / "light.json", LIGHT_GAUSS, **LIGHT_RUN)
    runs = [(cfg, ["scatter"]), (cfg, ["asym", "--queries", str(queries)]),
            (light, ["phase"]), (light, ["compare"])]
    files = ("scattering.csv", "asym.csv", "phase.json", "compare.csv", "fits.json")
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        for config, command in runs:
            res = runner.invoke(main, ["--config", str(config), "--out", str(out), *command])
            assert res.exit_code == 0, res.output
        outs.append([(out / f).read_bytes() for f in files])
    assert outs[0] == outs[1]


def _asym_rows(tmp_path, runner, xis, times):
    cfg = _write_config(tmp_path / "cfg.json", BOX_POT)
    queries = tmp_path / "q.jsonl"
    queries.write_text("".join(json.dumps({"x": -4.0 * xi * t, "t": t}) + "\n"
                               for t in times for xi in xis))
    out = tmp_path / "o"
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(out),
                               "asym", "--queries", str(queries)])
    assert res.exit_code == 0, res.output
    lines = (out / "asym.csv").read_text().splitlines()
    return [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]


def test_asym_refuses_a_xi_per_query(tmp_path, runner):
    # xi = -5.5 keeps the 1% pad of the window [-6, 6], but [xi - 1, xi] leaves
    # the grid: its rows are "invalid" and every other query is served
    rows = _asym_rows(tmp_path, runner, [0.4, -5.5, -1.0], (20.0, 40.0))
    assert [row["validity"] for row in rows] == ["valid", "invalid", "valid"] * 2
    assert all(row["re_q"] == "nan" for row in rows if row["validity"] == "invalid")
    assert all(math.isfinite(float(row["abs_q"])) for row in rows if row["validity"] == "valid")


def test_ray_at_the_exact_pad_is_served(tmp_path, runner):
    # the window [-16, 16] keeps a pad of 1% of its width, 0.32: the config, `phase`
    # and `asym` all serve the ray 16 - 0.32, and the config refuses one ulp further out
    pad_ray = 16.0 - 0.01 * 32.0
    window = {"z_max": 16.0, "n": 2049}
    cfg = _write_config(tmp_path / "cfg.json", BOX_POT, window=window, rays=[pad_ray],
                        times=[16.0, 32.0])
    out = tmp_path / "o"
    for command in ("phase", "asym"):
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), command])
        assert res.exit_code == 0, res.output
    lines = (out / "asym.csv").read_text().splitlines()
    assert [line.rsplit(",", 1)[1] for line in lines] == ["validity", "valid", "valid"]
    cfg = _write_config(tmp_path / "cfg.json", BOX_POT, window=window,
                        rays=[float(np.nextafter(pad_ray, np.inf))])
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "phase"])
    assert res.exit_code == 1
    assert "at least 1% of the window's width" in res.output


def test_asym_sweeps_every_distinct_xi_once(tmp_path, runner, monkeypatch):
    # M distinct served xi make one array spline call (xi and its 8 nodes each), which
    # gives r, rbreve and nu at xi too, so no 0-d call; 1/Gamma runs once per xi, all
    # of them in one array call
    calls, gammas = [], []
    spline = UniformSpline.__call__
    monkeypatch.setattr(UniformSpline, "__call__",
                        lambda self, x: calls.append(np.shape(x)) or spline(self, x))
    rgamma = model.rgamma
    for mod in (model, phase, asymptotics):   # every module that may bind it
        monkeypatch.setattr(mod, "rgamma", lambda z: gammas.append(z) or rgamma(z),
                            raising=False)
    served = [0.4, -0.25, 1.0, 2.5, -3.0]
    rows = _asym_rows(tmp_path, runner, [*served, 5.99, -5.5], (20.0, 40.0, 80.0))
    assert [row["validity"] for row in rows[:7]] == ["valid"] * 5 + ["invalid"] * 2
    # besides the sweep, only the node table: one call of 8 nodes per knot interval
    assert sorted(shape for shape in calls if shape) == [(9 * len(served),), (8 * 256,)]
    assert calls.count(()) == 0
    assert [np.size(z) for z in gammas] == [len(served)]


def test_compare_sweeps_every_ray_once(tmp_path, runner, monkeypatch):
    # the phase data of every (ray, time) come from one array spline call, as in asym
    calls = []
    spline = UniformSpline.__call__
    monkeypatch.setattr(UniformSpline, "__call__",
                        lambda self, x: calls.append(np.shape(x)) or spline(self, x))
    rays, times = [0.25, -0.3, 1.0], LIGHT_RUN["times"]
    cfg = _write_config(tmp_path / "cfg.json", LIGHT_GAUSS, **{**LIGHT_RUN, "rays": rays})
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path / "o"), "compare"])
    assert res.exit_code == 0, res.output
    xis = {-(-4.0 * xi * t) / (4.0 * t) for xi in rays for t in times}
    # besides the sweep, only the node table: one call of 8 nodes per knot interval
    assert sorted(shape for shape in calls if shape) == [(9 * len(xis),), (8 * 512,)]
    assert calls.count(()) == 0


def test_compare_refuses_a_ray_before_the_pde(tmp_path, runner, monkeypatch):
    # the README trap, shortened: delta0's quadrature error estimate at +-0.24 fails its
    # gate, so compare exits 3 before it evolves or writes anything, as phase and asym do
    def refuse(*args, **kwargs):
        raise AssertionError("the PDE ran for a refused ray")

    monkeypatch.setattr(cli, "evolve", refuse)
    pot = {"kind": "gaussian", "amplitude": [0.3, 0.0], "sigma": 1,
           "L": 32.0, "N": 1024, "params": {"width": 1.5, "center": 1.0}}
    cfg = _write_config(tmp_path / "cfg.json", pot, rays=[0.24, -0.24],
                        times=[40.0, 80.0, 160.0], window={"z_max": 8.0, "n": 1025},
                        pde={"dt": 0.005})
    out = tmp_path / "out"
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "compare"])
    assert res.exit_code == 3, res.output
    assert "quadrature error estimate" in res.output
    assert not (out / "compare.csv").exists()


def test_verify_subcommand(tmp_path, runner):
    cfg = _write_config(tmp_path / "cfg.json", BOX_POT)
    res = runner.invoke(main, ["--config", str(cfg), "--out",
                               str(tmp_path / "o"), "verify"])
    assert res.exit_code == 0, res.output
    assert "PASS" in res.output and "FAIL" not in res.output


def test_compare_and_report_small(tmp_path, runner):
    # tiny but honest end-to-end through the CLI on a light config
    cfg = _write_config(tmp_path / "cfg.json", LIGHT_GAUSS, **LIGHT_RUN)
    out = tmp_path / "out"
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "compare"])
    assert res.exit_code == 0, res.output
    lines = (out / "compare.csv").read_text().strip().splitlines()
    assert len(lines) == 4
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "report"])
    assert res.exit_code in (0, 3)   # small-t fit may legitimately miss -0.65
    assert (out / "summary.json").exists()
    assert (out / "plot_long.csv").exists()


def test_compare_keeps_ray_points_past_the_x_domain(tmp_path, runner):
    # the data of test_decay_law_with_nonzero_im_nu: at t = 2560 the rays
    # reach |x| = 2458, far past L = 32 but inside the lens field's reach
    pot = {"kind": "gaussian", "amplitude": [0.3, 0.0], "sigma": -1,
           "L": 32.0, "N": 1024, "params": {"width": 1.5, "center": 2.0}}
    cfg = _write_config(tmp_path / "cfg.json", pot, rays=[0.24, -0.24],
                        times=[40.0 * 2 ** k for k in range(7)],
                        window={"z_max": 8.0, "n": 1025}, pde={"dt": 0.005})
    out = tmp_path / "out"
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "compare"])
    assert res.exit_code == 0, res.output
    rows = (out / "compare.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 14 and all(row.endswith(",valid") for row in rows)
    fits = json.loads((out / "fits.json").read_text())
    assert sorted(fits) == ["-0.24", "0.24"]
    assert all(fit["n_points"] == 7 for fit in fits.values())


def test_verify_ray_far_left_exits_0(tmp_path, runner):
    # the delta-jump points must lie left of the ray, not from 0.6 z_lo = -9.6 on
    cfg = _write_config(tmp_path / "cfg.json", BOX_POT, rays=[-14.0],
                        window={"z_max": 16.0, "n": 257})
    res = runner.invoke(main, ["--config", str(cfg), "--out",
                               str(tmp_path / "o"), "verify"])
    assert res.exit_code == 0, res.output
    assert "FAIL" not in res.output


def test_compare_rows_match_the_scalar_reference(tmp_path, runner):
    cfg = _write_config(tmp_path / "cfg.json", LIGHT_GAUSS, **{**LIGHT_RUN, "rays": [0.25, -0.3]})
    out = tmp_path / "out"
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "compare"])
    assert res.exit_code == 0, res.output
    lines = (out / "compare.csv").read_text().splitlines()
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    assert [(float(row["xi"]), float(row["t"])) for row in rows] == [
        (xi, t) for xi in (0.25, -0.3) for t in LIGHT_RUN["times"]]
    config = ExperimentConfig.from_json_file(cfg)
    ctx = phase.SpectralContext(compute_scattering(config.potential, config.z_grid()))
    for row in rows:
        xi, t = float(row["xi"]), float(row["t"])
        ph = phase.phase_data(ctx, phase.stationary_point(-4.0 * xi * t, t))
        want = q_leading(ph.nu_at_xi, ph.delta0, ph.r_xi, ph.r_breve_xi, ph.xi, t)
        got = complex(float(row["re_qasym"]), float(row["im_qasym"]))
        assert row["validity"] == "valid"
        assert abs(got - want) <= REFERENCE_RTOL * abs(want)


def test_route_disagreement_exits_3_before_the_pde(tmp_path, runner, monkeypatch):
    # compare evaluates every (ray, time) pair before it evolves, as asym does, so a
    # forced route split exits 3 with no PDE run and nothing written
    def refuse(*args, **kwargs):
        raise AssertionError("the PDE ran after a route disagreement")

    alpha = asymptotics.alpha
    monkeypatch.setattr(asymptotics, "alpha", lambda ph, t: alpha(ph, t) * (1.0 + 1e-6))
    monkeypatch.setattr(cli, "evolve", refuse)
    cfg = _write_config(tmp_path / "cfg.json", LIGHT_GAUSS, **LIGHT_RUN)
    out = tmp_path / "out"
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "compare"])
    assert res.exit_code == 3, res.output
    assert "disagree" in res.output
    assert not (out / "compare.csv").exists()


def test_workload_commands_import_no_scipy(tmp_path):
    # scatter, asym, phase and compare in a fresh interpreter load no scipy or
    # mpmath module (phase and compare on a light gaussian: the PDE refuses a
    # box); verify loads no scipy module either, only mpmath on first use for
    # the model jump of its ray
    box = _write_config(tmp_path / "box.json", BOX_POT)
    gauss = _write_config(tmp_path / "gauss.json", LIGHT_GAUSS, **LIGHT_RUN)
    script = f"""
import sys
from nonlocal_nls.cli import main

def run(cfg, command):
    try:
        main(["--config", cfg, "--out", {str(tmp_path / "out")!r}, command])
    except SystemExit as exc:
        assert not exc.code, (command, exc.code)

run({str(box)!r}, "scatter")
run({str(box)!r}, "asym")
run({str(gauss)!r}, "phase")
run({str(gauss)!r}, "compare")
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "mpmath"))
assert not loaded, loaded[:5]
run({str(box)!r}, "verify")
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded[:5]
assert "mpmath" in sys.modules
"""
    src = str(Path(nonlocal_nls.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    res = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert "[FAIL]" not in res.stdout
