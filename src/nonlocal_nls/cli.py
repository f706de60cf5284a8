"""Batch harness: scatter / phase / asym / evolve / compare / report / verify.

Exit codes: 1 malformed input, 2 genericity violation, 3 numerical failure,
4 missing inputs for the report stage.  Identical configs produce
byte-identical outputs; there is no randomness anywhere in the pipeline.
"""

from __future__ import annotations

import functools
import math
import sys
from pathlib import Path

import click
import numpy as np

from . import io as nio
from .asymptotics import _refused, _serves, q_asymptotic
from .config import ExperimentConfig
from .errors import (
    BadInput,
    GenericityViolation,
    MissingInputs,
    NonlocalNLSError,
    ValidityViolation,
)
from .model import connection_coefficients, jump_matrix, psi
from .pde import evolve, snapshot_from_potential, spectral_interpolate
from .phase import (
    SpectralContext,
    _phase_batch,
    delta_boundary,
    nu_tail_with_bound,
    phase_data,
    stationary_point,
)
from .scattering import check_genericity, compute_scattering, exact_box_scattering


def _fail(exc: BaseException, code: int):
    click.echo(f"error: {exc}", err=True)
    sys.exit(code)


@click.group()
@click.option("--config", "config_path", default=None, help="JSON experiment config")
@click.option("--out", "out_dir", default="out", help="output directory")
@click.option("--tol-scale", default=1.0, type=float, help="scale the tolerances of verify")
@click.pass_context
def main(ctx, config_path, out_dir, tol_scale):
    ctx.ensure_object(dict)
    ctx.obj["config_path"] = config_path
    ctx.obj["out"] = Path(out_dir)
    ctx.obj["tol_scale"] = tol_scale


def _command(name=None):
    """Register fn(ctx, **options) as a subcommand whose errors exit with their code."""
    def register(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except BadInput as exc:
                _fail(exc, 1)
            except GenericityViolation as exc:
                _fail(exc, 2)
            except MissingInputs as exc:
                _fail(exc, 4)
            except (NonlocalNLSError, ArithmeticError, ValueError) as exc:
                _fail(exc, 3)
        return main.command(name=name)(click.pass_context(run))
    return register


def _load_config(ctx) -> ExperimentConfig:
    path = ctx.obj.get("config_path")
    if not path:
        raise BadInput("--config is required for this subcommand")
    cfg = ExperimentConfig.from_json_file(path)
    if not 0 < ctx.obj["tol_scale"] < math.inf:
        raise BadInput("--tol-scale must be finite and positive")
    return cfg


def _outdir(ctx) -> Path:
    out = ctx.obj["out"]
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise BadInput(f"cannot create output directory {out}: {exc}") from exc
    return out


def _scatter_data(cfg: ExperimentConfig):
    return compute_scattering(cfg.potential, cfg.z_grid())


def _distinct_served(spectral: SpectralContext, xis):
    """The distinct xi of the 1-d `xis` that the ray formula serves, ascending, and
    for each entry of `xis` its position among them, or -1."""
    distinct, where = np.unique(xis, return_inverse=True)
    served = _serves(spectral.z_lo, spectral.z_hi, distinct)
    pos = np.where(served, np.cumsum(served) - 1, -1)
    return distinct[served], pos[where]


def _ray_phases(spectral: SpectralContext, queries) -> dict:
    """{xi: PhaseData} at every distinct xi = -x/(4t) of the (x, t) queries that the
    ray formula serves, from one `phase_data` sweep."""
    xis, _ = _distinct_served(spectral, [stationary_point(x, t) for x, t in queries])
    return dict(zip(xis.tolist(), phase_data(spectral, xis))) if xis.size else {}


def _leading(x, t, phases: dict):
    """(q, validity, Im nu) of the leading term; NaN and "invalid" where it is refused:
    at a xi that `phases` lacks (one the ray formula does not serve) or by the Im nu gate."""
    ph = phases.get(stationary_point(x, t))
    if ph is not None:
        try:
            return (*q_asymptotic(ph, t), ph.nu_at_xi.imag)
        except ValidityViolation:
            pass
    return complex(math.nan, math.nan), "invalid", math.nan


@_command()
def scatter(ctx):
    """Compute scattering data; write CSV and a genericity report."""
    cfg = _load_config(ctx)
    out = _outdir(ctx)
    data = _scatter_data(cfg)
    report = check_genericity(data)
    nio.write_scattering_csv(data, out / "scattering.csv")
    nio.write_genericity_json(report, out / "genericity.json")
    click.echo(f"wrote {out / 'scattering.csv'}")
    if not report.passed:
        raise GenericityViolation(report.refusal())


@_command()
def phase(ctx):
    """Phase data (nu, delta0, tail integral) for every configured ray."""
    cfg = _load_config(ctx)
    out = _outdir(ctx)
    if not cfg.rays:
        raise BadInput("config has no rays")
    spectral = SpectralContext(_scatter_data(cfg))
    rays = [(ph, nu_tail_with_bound(spectral, xi)[0], spectral.branch_max_arg)
            for xi, ph in zip(cfg.rays, phase_data(spectral, cfg.rays))]
    nio.write_phase_json(rays, out / "phase.json")
    click.echo(f"wrote {out / 'phase.json'}")


@_command()
@click.option("--queries", "queries_path", required=False,
              help="JSON-lines file of {\"x\":..,\"t\":..} queries")
def asym(ctx, queries_path):
    """Evaluate the leading-order formula for a batch of (x, t) queries."""
    cfg = _load_config(ctx)
    out = _outdir(ctx)
    if queries_path:
        queries = nio.read_queries(queries_path, cfg.t_min)
    else:
        queries = [(-4.0 * xi * t, t) for xi in cfg.rays for t in cfg.times]
    if not queries:
        raise BadInput("no queries: pass --queries or configure rays and times")
    x, t = np.array(queries, dtype=float).reshape(-1, 2).T
    xi = stationary_point(x, t)
    spectral = SpectralContext(_scatter_data(cfg))
    xis, pos = _distinct_served(spectral, xi)
    q = np.full(xi.size, complex(math.nan, math.nan))
    im_nu = np.full(xi.size, math.nan)
    validity = np.full(xi.size, "invalid", dtype="<U8")
    if xis.size:
        batch = _phase_batch(spectral, xis)
        # a xi the Im nu gate refuses keeps its "invalid" rows, as an unserved one does
        ok = pos >= 0
        ok[ok] = ~_refused(batch.nu_at_xi)[pos[ok]]
        rays = batch.take(pos[ok])
        q[ok], validity[ok] = q_asymptotic(rays, t[ok])
        im_nu[ok] = rays.nu_at_xi.imag
    rows = zip(*(col.tolist() for col in (x, t, xi, q.real, q.imag, np.abs(q), im_nu, validity)))
    nio.write_asym_csv(rows, out / "asym.csv")
    click.echo(f"wrote {out / 'asym.csv'}")


@_command("evolve")
@click.option("--t", "t_final", type=float, default=None,
              help="final time (default: last configured time)")
@click.option("--format", "fmt", type=click.Choice(["csv", "bin"]), default="csv")
def evolve_cmd(ctx, t_final, fmt):
    """Run the split-step oracle and export the final snapshot."""
    cfg = _load_config(ctx)
    out = _outdir(ctx)
    if t_final is None:
        if not cfg.times:
            raise BadInput("no final time: pass --t or configure times")
        t_final = cfg.times[-1]
    if not (math.isfinite(t_final) and t_final > 0):
        raise BadInput(f"final time must be finite and positive, got {t_final}")
    snap = evolve(cfg.potential, [t_final], cfg.dt)[-1]
    if fmt == "csv":
        nio.write_snapshot_csv(snap, out / "snapshot.csv")
        click.echo(f"wrote {out / 'snapshot.csv'}")
    else:
        nio.write_snapshot_binary(snap, out / "snapshot.bin")
        click.echo(f"wrote {out / 'snapshot.bin'}")
    m0 = snapshot_from_potential(cfg.potential).nonlocal_mass
    drift = abs(snap.nonlocal_mass - m0)
    scale = max(abs(snap.nonlocal_mass), 1e-300)
    click.echo(f"nonlocal mass drift: {drift / scale:.3e} relative")
    click.echo(f"lens box |y| < {snap.Y:.4g} on n = {len(snap.v)} points, {snap.step_count} steps")


@_command()
def compare(ctx):
    """PDE versus asymptotics along each configured ray; fit decay exponents."""
    cfg = _load_config(ctx)
    out = _outdir(ctx)
    if not cfg.rays or not cfg.times:
        raise BadInput("compare needs both rays and times in the config")
    # every ray's phase data before the PDE, so that a refused ray costs no evolve
    phases = _ray_phases(SpectralContext(_scatter_data(cfg)),
                         [(-4.0 * xi * t, t) for xi in cfg.rays for t in cfg.times])
    snaps = evolve(cfg.potential, cfg.times, cfg.dt)
    rows = []
    fits = {}
    pending_failure = None
    for xi in cfg.rays:
        errs = []
        for snap in snaps:
            t = snap.t
            x = -4.0 * xi * t
            if abs(x) > snap.x_reach:
                continue
            q_num = spectral_interpolate(snap, x)
            try:
                q_asym, validity, _ = _leading(x, t, phases)
            except NonlocalNLSError as exc:
                # flush what we have with a failure marker, then propagate
                q_asym, validity = complex(math.nan, math.nan), "failed"
                pending_failure = exc
            err = abs(q_num - q_asym)
            rows.append({
                "xi": xi, "t": t,
                "re_qnum": q_num.real, "im_qnum": q_num.imag,
                "re_qasym": q_asym.real, "im_qasym": q_asym.imag,
                "abs_err": err, "validity": validity,
            })
            if validity not in ("invalid", "failed"):
                errs.append((t, err))
        if len(errs) >= 3 and all(e > 0 for _, e in errs):
            ts = np.log([t for t, _ in errs])
            es = np.log([e for _, e in errs])
            fits[str(xi)] = {
                "exponent": float(np.polyfit(ts, es, 1)[0]),
                "n_points": len(errs),
                "monotone_decreasing": all(
                    errs[i + 1][1] < errs[i][1] for i in range(len(errs) - 1)
                ),
            }
    nio.write_compare_csv(rows, out / "compare.csv")
    nio.write_fit_json(fits, out / "fits.json")
    click.echo(f"wrote {out / 'compare.csv'} and {out / 'fits.json'}")
    if pending_failure is not None:
        raise pending_failure


@_command()
def report(ctx):
    """Summarize compare outputs into plot data and a text verdict."""
    out = ctx.obj["out"]
    if out.exists():
        _outdir(ctx)   # refuses an --out that is not a directory
    if not (out / "compare.csv").exists() or not (out / "fits.json").exists():
        raise MissingInputs("run `compare` first: compare.csv / fits.json missing")
    fits = nio.read_fit_json(out / "fits.json")
    nio.write_plot_long_csv(nio.read_compare_csv(out / "compare.csv"), out / "plot_long.csv")
    verdict = []
    ok = bool(fits)
    if not fits:
        verdict.append("[FAIL] no ray was fitted: fits.json is empty")
    for xi, fit in sorted(fits.items()):
        status = "PASS" if fit["exponent"] <= -0.65 and fit["monotone_decreasing"] else "FAIL"
        ok &= status == "PASS"
        verdict.append(
            f"[{status}] ray xi={xi}: fitted decay exponent "
            f"{fit['exponent']:.4f} (target <= -0.65), "
            f"monotone={fit['monotone_decreasing']}"
        )
    nio.write_summary_json({"rays": fits, "all_pass": bool(ok)}, out / "summary.json")
    nio.write_summary_txt(verdict, out / "summary.txt")
    click.echo("\n".join(verdict))
    if not ok:
        sys.exit(3)


@_command()
def verify(ctx):
    """Spot-check the pipeline invariants on the configured potential."""
    cfg = _load_config(ctx)
    checks = []

    def record(name, value, tol):
        tol *= ctx.obj["tol_scale"]
        checks.append((name, value, tol, value <= tol))

    pot = cfg.potential
    data = _scatter_data(cfg)
    record("unimodularity |a abreve - b bbreve - 1|", data.unimodularity_deviation(), 1e-8)
    sym_a = float(np.abs(data.a - np.conj(data.a[::-1])).max())
    record("symmetry |a(z) - conj(a(-z))|", sym_a, 1e-8)
    sym_b = float(np.abs(data.b + pot.sigma * np.conj(data.b_breve[::-1])).max())
    record("symmetry |b(z) + sigma conj(bbreve(-z))|", sym_b, 1e-8)
    if pot.kind == "box":
        a, b, ab, bb = exact_box_scattering(pot, data.z_grid)
        dev = max(
            float(np.abs(a - data.a).max()), float(np.abs(b - data.b).max()),
            float(np.abs(ab - data.a_breve).max()),
            float(np.abs(bb - data.b_breve).max()),
        )
        record("box oracle max deviation", dev, 1e-6)
    if cfg.rays:
        xi = cfg.rays[0]
        spectral = SpectralContext(data)
        ph = phase_data(spectral, xi)
        worst = 0.0
        # from 0.6 z_lo, or from halfway to z_lo where 0.6 z_lo is right of the ray
        z_lo, end = float(data.z_grid[0]), xi - 0.2
        itp_pts = np.linspace(0.6 * z_lo if 0.6 * z_lo < end else 0.5 * (z_lo + end), end, 5)
        for z0 in itp_pts:
            dp = delta_boundary(spectral, xi, float(z0), "plus")
            dm = delta_boundary(spectral, xi, float(z0), "minus")
            w = complex(spectral.w(np.asarray(z0)))
            worst = max(worst, abs(dp / dm - w) / abs(w))
        record("delta jump |delta+/delta- - (1 - r rbreve)|", worst, 1e-6)
        t_ref = cfg.times[0] if cfg.times else 40.0
        co = connection_coefficients(ph, t_ref)
        record("beta1 beta2 - nu", abs(co.beta1 * co.beta2 - co.nu), 1e-10)
        V = jump_matrix(co)
        jr = 0.0
        for zr in (0.7, -1.3, 2.6):
            up = psi(complex(zr, 1e-9), co)
            dn = psi(complex(zr, -1e-9), co)
            jr = max(jr, float(np.abs(up - dn @ V).max()))
        record("model jump |Psi+ - Psi- V|", jr, 1e-6)
    width = max(len(c[0]) for c in checks)
    all_ok = True
    for name, value, tol, ok in checks:
        all_ok &= ok
        click.echo(f"[{'PASS' if ok else 'FAIL'}] {name:<{width}} "
                   f"{value:.3e} (tol {tol:.1e})")
    if not all_ok:
        sys.exit(3)


if __name__ == "__main__":
    main()
