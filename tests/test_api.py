import dataclasses

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
        "AsymptoticEvaluation", "FieldSnapshot", "GenericityReport", "ModelCoefficients",
        "PhaseData", "Potential", "ScatteringData", "alpha", "beta", "check_genericity",
        "compute_scattering", "connection_coefficients", "delta_boundary", "errors",
        "evolve", "exact_box_scattering", "jump_matrix", "phase_data", "psi",
        "q_asymptotic", "spectral_interpolate", "stationary_point", "weber_D"]


def test_settings_are_pinned():
    # every knob a user can set; a new one has to change this test
    assert [f.name for f in dataclasses.fields(ExperimentConfig)] == [
        "potential", "z_max", "nz", "rays", "times", "dt", "t_min"]
    assert [p.name for p in main.params] == ["config_path", "out_dir", "tol_scale"]
    assert {name: [p.name for p in cmd.params] for name, cmd in main.commands.items()} == {
        "scatter": [], "phase": [], "asym": ["queries_path"], "evolve": ["t_final", "fmt"],
        "compare": [], "report": [], "verify": []}
