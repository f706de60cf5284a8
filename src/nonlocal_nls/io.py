"""File formats: scattering CSV, phase JSON, comparison tables, snapshots.

All floats are written with shortest round-trip repr, so identical inputs
produce byte-identical files (the pipeline is seed-free and deterministic).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .pde import FieldSnapshot
from .scattering import GenericityReport, ScatteringData

SCATTER_COLUMNS = (
    "z,re_a,im_a,re_b,im_b,re_abreve,im_abreve,"
    "re_bbreve,im_bbreve,re_r,im_r,re_rbreve,im_rbreve"
)


def _f(v: float) -> str:
    return repr(float(v))


def write_scattering_csv(data: ScatteringData, path):
    rows = [SCATTER_COLUMNS]
    for i, z in enumerate(data.z_grid):
        vals = (z,
                data.a[i].real, data.a[i].imag,
                data.b[i].real, data.b[i].imag,
                data.a_breve[i].real, data.a_breve[i].imag,
                data.b_breve[i].real, data.b_breve[i].imag,
                data.r[i].real, data.r[i].imag,
                data.r_breve[i].real, data.r_breve[i].imag)
        rows.append(",".join(_f(v) for v in vals))
    Path(path).write_text("\n".join(rows) + "\n")


def write_genericity_json(report: GenericityReport, path):
    doc = {
        "min_abs_a": report.min_abs_a,
        "min_abs_one_minus_rr": report.min_abs_one_minus_rr,
        "winding": report.winding,
        "contour_radius": report.contour_radius,
        "a_pass": report.a_pass,
        "rr_pass": report.rr_pass,
        "winding_pass": report.winding_pass,
        "passed": report.passed,
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_phase_json(phase_dicts: list, path):
    Path(path).write_text(json.dumps({"rays": phase_dicts}, indent=2) + "\n")


def write_snapshot_csv(snap: FieldSnapshot, path):
    x = snap.grid
    rows = ["x,re_q,im_q"]
    rows.extend(
        f"{_f(x[i])},{_f(snap.q[i].real)},{_f(snap.q[i].imag)}"
        for i in range(snap.N)
    )
    Path(path).write_text("\n".join(rows) + "\n")


def write_snapshot_binary(snap: FieldSnapshot, path):
    """Interleaved little-endian float64 pairs (re, im) per grid point."""
    buf = np.empty((snap.N, 2), dtype="<f8")
    buf[:, 0] = snap.q.real
    buf[:, 1] = snap.q.imag
    Path(path).write_bytes(buf.tobytes())


COMPARE_COLUMNS = "xi,t,re_qnum,im_qnum,re_qasym,im_qasym,abs_err,validity"


def write_compare_csv(rows: list, path):
    lines = [COMPARE_COLUMNS]
    for row in rows:
        lines.append(",".join([
            _f(row["xi"]), _f(row["t"]),
            _f(row["re_qnum"]), _f(row["im_qnum"]),
            _f(row["re_qasym"]), _f(row["im_qasym"]),
            _f(row["abs_err"]), str(row["validity"]),
        ]))
    Path(path).write_text("\n".join(lines) + "\n")


def write_fit_json(fits: dict, path):
    Path(path).write_text(json.dumps(fits, indent=2, sort_keys=True) + "\n")


def write_asym_csv(rows: list, path):
    lines = ["x,t,xi,re_q,im_q,abs_q,im_nu,validity"]
    for row in rows:
        lines.append(",".join([
            _f(row["x"]), _f(row["t"]), _f(row["xi"]),
            _f(row["re_q"]), _f(row["im_q"]), _f(row["abs_q"]),
            _f(row["im_nu"]), str(row["validity"]),
        ]))
    Path(path).write_text("\n".join(lines) + "\n")
