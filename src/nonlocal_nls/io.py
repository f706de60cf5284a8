"""File formats: scattering CSV, phase JSON, comparison tables, snapshots.

All floats are written with shortest round-trip repr, so identical inputs
produce byte-identical files (the pipeline is seed-free and deterministic).
"""

from __future__ import annotations

import dataclasses
import json
from operator import itemgetter
from pathlib import Path

import numpy as np

from .pde import FieldSnapshot
from .scattering import GenericityReport, ScatteringData

SCATTER_COLUMNS = (
    "z,re_a,im_a,re_b,im_b,re_abreve,im_abreve,"
    "re_bbreve,im_bbreve,re_r,im_r,re_rbreve,im_rbreve"
)


def _write_table(header: str, rows, path):
    """CSV with one line per row of str cells and Python floats (str of a float is its repr)."""
    lines = [header]
    lines.extend(",".join(map(str, row)) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def write_scattering_csv(data: ScatteringData, path):
    cols = [data.z_grid]
    for c in (data.a, data.b, data.a_breve, data.b_breve, data.r, data.r_breve):
        cols += [c.real, c.imag]
    _write_table(SCATTER_COLUMNS, np.column_stack(cols).tolist(), path)


def write_genericity_json(report: GenericityReport, path):
    doc = {**dataclasses.asdict(report), "passed": report.passed}
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_phase_json(rays: list, path):
    """One row per ray from (PhaseData, nu tail integral, branch_max_arg)."""
    rows = [{
        "xi": ph.xi,
        "nu": [ph.nu_at_xi.real, ph.nu_at_xi.imag],
        "delta0": [ph.delta0.real, ph.delta0.imag],
        "nu_tail": [tail.real, tail.imag],
        "branch_max_arg": branch_max_arg,
    } for ph, tail, branch_max_arg in rays]
    Path(path).write_text(json.dumps({"rays": rows}, indent=2) + "\n")


def write_snapshot_csv(snap: FieldSnapshot, path):
    _write_table("x,re_q,im_q", np.column_stack([snap.grid, snap.q.real, snap.q.imag]).tolist(),
                 path)


def write_snapshot_binary(snap: FieldSnapshot, path):
    """Interleaved little-endian float64 pairs (re, im) per grid point."""
    buf = np.empty((snap.N, 2), dtype="<f8")
    buf[:, 0] = snap.q.real
    buf[:, 1] = snap.q.imag
    Path(path).write_bytes(buf.tobytes())


COMPARE_COLUMNS = "xi,t,re_qnum,im_qnum,re_qasym,im_qasym,abs_err,validity"


def write_compare_csv(rows: list, path):
    _write_table(COMPARE_COLUMNS, map(itemgetter(*COMPARE_COLUMNS.split(",")), rows), path)


def write_fit_json(fits: dict, path):
    Path(path).write_text(json.dumps(fits, indent=2, sort_keys=True) + "\n")


def write_asym_csv(rows: list, path):
    header = "x,t,xi,re_q,im_q,abs_q,im_nu,validity"
    _write_table(header, map(itemgetter(*header.split(",")), rows), path)
