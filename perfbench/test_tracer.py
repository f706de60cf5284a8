"""Self-test of the benchmark's tracer on tiny configs.

    python3 -m pytest perfbench -q

Each case runs the CLI through `child.py` twice, untraced and traced, and
checks the span counts against the calls the config implies and that tracing
leaves the output files byte-identical.
"""

import json

import pytest

from run import child_env, output_digest, run_child  # also puts src on sys.path
from tracer import Tracer, install
from workloads import Job

BOX = {"kind": "box", "amplitude": [0.3, 0.0], "sigma": 1, "L": 8.0, "N": 256,
       "params": {"left": -1.0, "right": 1.0}}
GAUSS = {"kind": "gaussian", "amplitude": [0.08, 0.0], "sigma": 1, "L": 128.0, "N": 4096,
         "params": {"width": 2.0}}
SMALL_WINDOW = {"z_max": 6.0, "n": 257}

# three distinct in-window xi, two times each, and one xi outside the window
QUERIES = [(xi, t) for xi in (-0.5, 0.25, 1.0) for t in (20.0, 40.0)] + [(9.0, 20.0)]


def _traced_pair(tmp_path, potential, command, **extra):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    doc = {"potential": potential, "window": SMALL_WINDOW, "t_min": 10.0, **extra}
    (inputs / "cfg.json").write_text(json.dumps(doc))
    (inputs / "q.jsonl").write_text(
        "".join(json.dumps({"x": -4.0 * xi * t, "t": t}) + "\n" for xi, t in QUERIES))
    job = Job("job", command, "cfg.json", 1, None)
    plain = run_child(tmp_path, job, "plain")
    traced = run_child(tmp_path, job, "traced", ["--trace"])
    for doc in (plain, traced):
        assert doc["returncode"] == 0, (doc["out"].parent / "job.log").read_text()
    assert plain["trace"] is None
    assert output_digest(plain["out"]) == output_digest(traced["out"])
    return traced["trace"]


def _calls(trace, span):
    return trace["spans"].get(span, [0])[0]


def test_scatter_spans_and_binding_sites(tmp_path):
    trace = _traced_pair(tmp_path, BOX, ["scatter"])
    assert trace["absent"] == []
    assert _calls(trace, "scattering.compute") == 1
    assert _calls(trace, "scattering.genericity") == 1
    assert _calls(trace, "cf4.propagate") == 2
    assert _calls(trace, "io.write") == 2
    assert trace["counts"]["potentials.q_samples"] > 0
    assert trace["values"]["scattering.box_oracle_dev"] < 1e-6
    sites = {site for names in trace["sites"].values() for site in names}
    for site in ("nonlocal_nls.cli.phase_data", "nonlocal_nls.asymptotics.phase_data",
                 "nonlocal_nls.cli.compute_scattering", "nonlocal_nls.cli.evolve",
                 "nonlocal_nls.phase.delta0", "nonlocal_nls.scattering.y_matrix_batch",
                 "nonlocal_nls.phase.quad", "numpy.fft.fft",
                 "nonlocal_nls.potentials.Potential.__call__"):
        assert site in sites, site


def test_asym_phase_calls_equal_distinct_xi(tmp_path):
    trace = _traced_pair(tmp_path, BOX, ["asym", "--queries", "inputs/q.jsonl"])
    assert _calls(trace, "scattering.compute") == 1
    assert _calls(trace, "asymptotics.q_asymptotic") == len(QUERIES)
    assert _calls(trace, "phase.phase_data") == 3
    assert trace["edges"]["asymptotics.q_asymptotic>phase.phase_data"][0] == 3
    assert trace["counts"]["phase.integrand_evals"] > trace["counts"]["phase.quad_calls"] > 0


def test_compare_steps_equal_t_over_dt(tmp_path):
    trace = _traced_pair(tmp_path, GAUSS, ["compare"], rays=[0.25],
                         times=[12.0, 18.0, 27.0], pde={"dt": 0.004})
    assert _calls(trace, "scattering.compute") == 1
    assert _calls(trace, "pde.evolve") == 1
    assert trace["counts"]["pde.steps"] == round(27.0 / 0.004)
    # Strang with merged half-steps: one FFT pair per step plus the opening
    # half-step, the bandwidth check, and one FFT per interpolation
    assert _calls(trace, "pde.fft") >= 2 * trace["counts"]["pde.steps"]
    assert trace["counts"]["pde.interp_points"] == 3
    assert trace["values"]["pde.mass_drift_rel"] < 1e-10


def test_removed_target_is_reported_absent():
    tracer = install(Tracer(), targets=[
        ("nonlocal_nls.phase", "no_such_function", "phase.gone", None, None),
        ("nonlocal_nls.no_such_module", "f", "gone", None, None),
        ("nonlocal_nls.potentials", "Potential.no_such_method", "gone", None, None),
    ])
    assert tracer.absent == ["nonlocal_nls.phase.no_such_function",
                             "nonlocal_nls.no_such_module.f",
                             "nonlocal_nls.potentials.Potential.no_such_method"]
    assert tracer.spans == {}


def test_child_env_limits_threads():
    env = child_env()
    assert env["OMP_NUM_THREADS"] == env["OPENBLAS_NUM_THREADS"] == "1"


@pytest.mark.parametrize("nested", [False, True])
def test_self_time_excludes_nested_spans(nested):
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: inner() if nested else None)
    outer()
    calls, total, self_s = tracer.spans["outer"]
    assert calls == 1
    if nested:
        assert self_s < total and tracer.edges["outer>inner"][0] == 1
    else:
        assert self_s == total and "inner" not in tracer.spans
