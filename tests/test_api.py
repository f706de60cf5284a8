import dataclasses
import inspect

import nonlocal_nls
from nonlocal_nls.cli import main
from nonlocal_nls.config import ExperimentConfig


def test_public_names_resolve_once():
    names = nonlocal_nls.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(nonlocal_nls, name)]
    assert not missing


def test_public_names_are_pinned():
    # every public name; a new one has to change this test
    assert nonlocal_nls.__all__ == [
        "FieldSnapshot", "GenericityReport", "ModelCoefficients", "PhaseData", "Potential",
        "ScatteringData", "alpha", "beta", "check_genericity", "compute_scattering",
        "connection_coefficients", "delta_boundary", "errors", "evolve",
        "exact_box_scattering", "jump_matrix", "phase_data", "psi", "q_asymptotic",
        "spectral_interpolate", "stationary_point", "weber_D"]


def test_library_knobs_are_pinned():
    # the fields of every public dataclass and the parameters of every public
    # function; a new field or parameter has to change this test
    shapes = {}
    for name in nonlocal_nls.__all__:
        obj = getattr(nonlocal_nls, name)
        if dataclasses.is_dataclass(obj):
            shapes[name] = [f.name for f in dataclasses.fields(obj)]
        elif inspect.isfunction(obj):
            shapes[name] = list(inspect.signature(obj).parameters)
    assert shapes == {
        "FieldSnapshot": ["t", "L", "N", "v", "Y", "nonlocal_mass", "step_count"],
        "GenericityReport": ["min_abs_a", "min_abs_one_minus_rr", "winding", "winding_breve",
                             "contour_radius", "a_pass", "rr_pass", "winding_pass", "route",
                             "bound"],
        "ModelCoefficients": ["nu", "r_xi", "r_breve_xi", "delta0", "rho", "rho_hat",
                              "beta1", "beta2"],
        "PhaseData": ["xi", "nu_at_xi", "delta0", "r_xi", "r_breve_xi"],
        "Potential": ["kind", "amplitude", "sigma", "L", "N", "params"],
        "ScatteringData": ["z_grid", "a", "a_breve", "b", "b_breve", "r", "r_breve",
                           "truncation_error", "potential"],
        "alpha": ["phase", "t"],
        "beta": ["ctx", "xi", "z"],
        "check_genericity": ["data"],
        "compute_scattering": ["potential", "z_grid"],
        "connection_coefficients": ["phase", "t"],
        "delta_boundary": ["ctx", "xi", "z0", "side"],
        "evolve": ["potential", "times", "dt"],
        "exact_box_scattering": ["box", "z"],
        "jump_matrix": ["coeffs"],
        "phase_data": ["ctx", "xi"],
        "psi": ["zeta", "coeffs"],
        "q_asymptotic": ["phase", "t"],
        "spectral_interpolate": ["snap", "x"],
        "stationary_point": ["x", "t"],
        "weber_D": ["a", "eta"],
    }


def test_settings_are_pinned():
    # every knob a user can set; a new one has to change this test
    assert [f.name for f in dataclasses.fields(ExperimentConfig)] == [
        "potential", "z_max", "nz", "rays", "times", "dt", "t_min"]
    assert [p.name for p in main.params] == ["config_path", "out_dir", "tol_scale"]
    assert {name: [p.name for p in cmd.params] for name, cmd in main.commands.items()} == {
        "scatter": [], "phase": [], "asym": ["queries_path"], "evolve": ["t_final", "fmt"],
        "compare": [], "report": [], "verify": []}
