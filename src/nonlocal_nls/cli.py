"""Batch harness: scatter / phase / asym / evolve / compare / report / verify.

Exit codes: 1 malformed input, a usage error or an output that cannot be
written, 2 genericity violation, 3 numerical failure, 4 missing inputs for
the report stage.  Identical configs produce byte-identical outputs.
"""

from __future__ import annotations

import contextlib
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
    NonpositiveTime,
)
from .model import connection_coefficients, jump_matrix, psi
from .pde import evolve, snapshot_from_potential, spectral_interpolate
from .phase import (
    SpectralContext,
    delta_boundary,
    nu_tail_with_bound,
    phase_data,
    stationary_point,
)
from .scattering import check_genericity, compute_scattering, exact_box_scattering


def _fail(exc: BaseException, code: int):
    if isinstance(exc, click.UsageError):
        exc.show()   # click's usage line, help hint and message
    else:
        click.echo(f"error: {exc}", err=True)
    sys.exit(code)


@contextlib.contextmanager
def _exit_codes():
    """The one map from an error to the exit code of the invocation."""
    try:
        yield
    except (BadInput, NonpositiveTime, OSError, click.UsageError) as exc:
        _fail(exc, 1)
    except GenericityViolation as exc:
        _fail(exc, 2)
    except MissingInputs as exc:
        _fail(exc, 4)
    except (NonlocalNLSError, ArithmeticError, ValueError) as exc:
        _fail(exc, 3)


class _Group(click.Group):
    """A group whose argument parsing and subcommand runs exit through `_exit_codes`."""

    def parse_args(self, ctx, args):
        with _exit_codes():
            return super().parse_args(ctx, args)

    def invoke(self, ctx):
        with _exit_codes():
            return super().invoke(ctx)


@click.group(cls=_Group)
@click.option("--config", "config_path", default=None, help="JSON experiment config")
@click.option("--out", "out_dir", default="out", help="output directory")
@click.pass_context
def main(ctx, config_path, out_dir):
    ctx.ensure_object(dict)
    ctx.obj["config_path"] = config_path
    ctx.obj["out"] = Path(out_dir)


def _command(name=None):
    """Register fn(ctx, **options) as a subcommand."""
    return lambda fn: main.command(name=name)(click.pass_context(fn))


def _load_config(ctx) -> ExperimentConfig:
    path = ctx.obj.get("config_path")
    if not path:
        raise BadInput("--config is required for this subcommand")
    return ExperimentConfig.from_json_file(path)


def _outdir(ctx) -> Path:
    out = ctx.obj["out"]
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise BadInput(f"cannot create output directory {out}: {exc}") from exc
    return out


def _scatter_data(cfg: ExperimentConfig):
    return compute_scattering(cfg.potential, cfg.z_grid())


def _ray_formula(spectral: SpectralContext, x, t):
    """(xi, q, validity, Im nu) of the leading term at the 1-d arrays x and t, from one
    `phase_data` sweep over the distinct xi = -x/(4t) that the ray formula serves and
    one `q_asymptotic` call; NaN and "invalid" where it is refused: at a xi it does not
    serve or by the Im nu gate."""
    xi = stationary_point(x, t)
    distinct, where = np.unique(xi, return_inverse=True)
    served = _serves(spectral.z_lo, spectral.z_hi, distinct)
    pos = np.where(served, np.cumsum(served) - 1, -1)[where]
    q = np.full(xi.size, complex(math.nan, math.nan))
    im_nu = np.full(xi.size, math.nan)
    validity = np.full(xi.size, "invalid", dtype="<U8")
    if served.any():
        batch = phase_data(spectral, distinct[served])
        ok = pos >= 0
        ok[ok] = ~_refused(batch.nu_at_xi)[pos[ok]]
        rays = batch.take(pos[ok])
        q[ok], validity[ok] = q_asymptotic(rays, t[ok])
        im_nu[ok] = rays.nu_at_xi.imag
    return xi, q, validity, im_nu


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
    phases = phase_data(spectral, cfg.rays)
    tails = [nu_tail_with_bound(spectral, xi)[0] for xi in cfg.rays]
    nio.write_phase_json(phases, out / "phase.json", tails, spectral.branch_max_arg)
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
    xi, q, validity, im_nu = _ray_formula(SpectralContext(_scatter_data(cfg)), x, t)
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
    snap = evolve(cfg.potential, [t_final], cfg.dt)[-1]
    path = out / f"snapshot.{fmt}"
    (nio.write_snapshot_csv if fmt == "csv" else nio.write_snapshot_binary)(snap, path)
    click.echo(f"wrote {path}")
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
    # the leading term of every (ray, time) pair before the PDE, so that a refusal
    # costs no evolve and writes nothing
    xi, t = np.meshgrid(cfg.rays, cfg.times, indexing="ij")
    x = -4.0 * xi * t
    _, q, validity, _ = _ray_formula(SpectralContext(_scatter_data(cfg)), x.ravel(), t.ravel())
    snaps = evolve(cfg.potential, cfg.times, cfg.dt)
    rows = []
    fits = {}
    for ray, ts, xs, qs, vs in zip(cfg.rays, *(
            a.reshape(x.shape).tolist() for a in (t, x, q, validity))):
        errs = []
        for snap, t_k, x_k, q_asym, valid in zip(snaps, ts, xs, qs, vs):
            if abs(x_k) > snap.x_reach:
                continue
            q_num = spectral_interpolate(snap, x_k)
            err = abs(q_num - q_asym)
            rows.append((ray, t_k, q_num.real, q_num.imag, q_asym.real, q_asym.imag, err,
                         valid))
            if valid != "invalid":
                errs.append((t_k, err))
        if len(errs) >= 3 and all(e > 0 for _, e in errs):
            log_t, log_e = np.log(errs).T
            fits[str(ray)] = {
                "exponent": float(np.polyfit(log_t, log_e, 1)[0]),
                "n_points": len(errs),
                "monotone_decreasing": all(e1 < e0 for (_, e0), (_, e1) in zip(errs, errs[1:])),
            }
    nio.write_compare_csv(rows, out / "compare.csv")
    nio.write_fit_json(fits, out / "fits.json")
    click.echo(f"wrote {out / 'compare.csv'} and {out / 'fits.json'}")


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
    for name, value, tol, ok in checks:
        click.echo(f"[{'PASS' if ok else 'FAIL'}] {name:<{width}} "
                   f"{value:.3e} (tol {tol:.1e})")
    if not all(ok for *_, ok in checks):
        sys.exit(3)


if __name__ == "__main__":
    main()
