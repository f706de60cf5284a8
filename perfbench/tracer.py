"""Spans and counters recorded around the public entry points of each layer.

`install(tracer)` runs after `nonlocal_nls.cli` has been imported.  Every
target is replaced wherever the package binds it, so a call through
`cli.phase_data` and one through `asymptotics.phase_data` land in the same
span.  A target that a refactor removed is listed in `Tracer.absent` instead
of stopping the run.  Spans are aggregated in memory: per name the call
count, the total time and the self time (total minus the time of the spans
nested directly inside it), and per parent -> child edge the count and time.
"""

from __future__ import annotations

import importlib
import os
import sys
import time

import numpy as np

PACKAGE = "nonlocal_nls"


class Tracer:
    def __init__(self):
        self.spans = {}          # name -> [calls, total_s, self_s]
        self.edges = {}          # "parent>child" -> [calls, total_s]
        self.counts = {}         # name -> summed count
        self.values = {}         # name -> largest value noted
        self.sites = {}          # span name -> binding sites wrapped
        self.absent = []         # targets not found
        self._stack = []         # open spans: [name, time of nested spans]
        self._paused = 0

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + int(n)

    def note(self, name, value):
        self.values[name] = max(self.values.get(name, value), float(value))

    def wrap(self, name, fn, before=None, after=None):
        """`fn` timed as span `name`; hooks see (tracer, args, kwargs[, result]).

        `before` may return a replacement args tuple.  `after` runs outside
        the span with recording paused, so it may call into the program.
        """
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            if before is not None:
                args = before(self, args, kwargs) or args
            parent = self._stack[-1] if self._stack else None
            frame = [name, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                rec = self.spans.setdefault(name, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                if parent is not None:
                    parent[1] += dt
                    edge = self.edges.setdefault(f"{parent[0]}>{name}", [0, 0.0])
                    edge[0] += 1
                    edge[1] += dt
            if after is not None:
                self._paused += 1
                try:
                    after(self, args, kwargs, result)
                finally:
                    self._paused -= 1
            return result

        return traced

    def report(self) -> dict:
        return {
            "spans": self.spans, "edges": self.edges, "counts": self.counts,
            "values": self.values, "sites": self.sites, "absent": self.absent,
        }


# -- hooks -------------------------------------------------------------------

def _q_samples(tr, args, kwargs):
    tr.count("potentials.q_samples", np.size(args[1]))


def _scattering_accuracy(tr, args, kwargs, data):
    tr.note("scattering.truncation_err", data.truncation_error)
    tr.note("scattering.unimodularity_dev", data.unimodularity_deviation())
    pot = data.potential
    if pot is not None and pot.kind == "box":
        from nonlocal_nls.scattering import exact_box_scattering
        exact = exact_box_scattering(pot, data.z_grid)
        got = (data.a, data.b, data.a_breve, data.b_breve)
        dev = max(float(np.abs(e - g).max()) for e, g in zip(exact, got))
        tr.note("scattering.box_oracle_dev", dev / float(np.abs(exact[0]).max()))


def _count_integrand(tr, args, kwargs):
    func = args[0]

    def counted(*x):
        tr.count("phase.integrand_evals")
        return func(*x)

    tr.count("phase.quad_calls")
    return (counted,) + tuple(args[1:])


def _pde_run(tr, args, kwargs, result):
    from nonlocal_nls.pde import snapshot_from_potential
    snaps = result if isinstance(result, list) else [result]
    tr.count("pde.steps", max(s.step_count for s in snaps))
    m0 = snapshot_from_potential(args[0]).nonlocal_mass
    if m0 != 0:
        tr.note("pde.mass_drift_rel", abs(snaps[-1].nonlocal_mass - m0) / abs(m0))


def _interp_points(tr, args, kwargs):
    tr.count("pde.interp_points", np.size(args[1]))


def _bytes_written(tr, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tr.count("io.bytes_written", os.path.getsize(path))


#: (home module, attribute, span, before, after).  FFTs are counted through
#: both numpy.fft and scipy.fft, so a switch of FFT library stays counted.
TARGETS = [
    ("nonlocal_nls.potentials", "Potential.__call__", "potentials.eval", _q_samples, None),
    ("nonlocal_nls.scattering", "compute_scattering", "scattering.compute", None,
     _scattering_accuracy),
    ("nonlocal_nls.scattering", "check_genericity", "scattering.genericity", None, None),
    ("nonlocal_nls._cf4", "y_matrix_batch", "cf4.propagate", None, None),
    ("nonlocal_nls._cf4", "analytic_column_batch", "cf4.propagate", None, None),
    ("nonlocal_nls.phase", "phase_data", "phase.phase_data", None, None),
    ("nonlocal_nls.phase", "delta0", "phase.delta0", None, None),
    ("nonlocal_nls.phase", "nu_tail_with_bound", "phase.nu_tail", None, None),
    ("nonlocal_nls.phase", "quad", "phase.quad", _count_integrand, None),
    ("nonlocal_nls.asymptotics", "q_asymptotic", "asymptotics.q_asymptotic", None, None),
    ("nonlocal_nls.pde", "evolve", "pde.evolve", None, _pde_run),
    ("nonlocal_nls.pde", "spectral_interpolate", "pde.interp", _interp_points, None),
    ("numpy.fft", "fft", "pde.fft", None, None),
    ("numpy.fft", "ifft", "pde.fft", None, None),
    ("scipy.fft", "fft", "pde.fft", None, None),
    ("scipy.fft", "ifft", "pde.fft", None, None),
]


def _io_targets():
    try:
        io = importlib.import_module("nonlocal_nls.io")
    except ImportError:
        return [("nonlocal_nls.io", "write_*", "io.write", None, None)]
    return [("nonlocal_nls.io", name, "io.write", None, _bytes_written)
            for name in sorted(vars(io)) if name.startswith("write_")]


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def install(tracer: Tracer, targets=None):
    """Wrap every target at every binding site; record sites and absentees."""
    for home, attr, span, before, after in (targets or TARGETS + _io_targets()):
        label = f"{home}.{attr}"
        try:
            mod = importlib.import_module(home)
        except ImportError:
            tracer.absent.append(label)
            continue
        owner_name, _, name = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        orig = vars(owner).get(name) if owner is not None else None
        if orig is None:
            tracer.absent.append(label)
            continue
        wrapped = tracer.wrap(span, orig, before, after)
        sites = tracer.sites.setdefault(span, [])
        if owner_name:
            setattr(owner, name, wrapped)
            sites.append(label)
            continue
        holders = {home: mod}
        holders.update((m.__name__, m) for m in _package_modules())
        for mod_name, holder in holders.items():
            for key, value in list(vars(holder).items()):
                if value is orig:
                    setattr(holder, key, wrapped)
                    sites.append(f"{mod_name}.{key}")
    return tracer
