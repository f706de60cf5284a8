"""File formats: scattering CSV, phase JSON, comparison tables, snapshots,
the queries file and the report stage's inputs and outputs.

All floats are written with shortest round-trip repr, so identical inputs
produce byte-identical files (the pipeline is seed-free and deterministic).
Readers refuse malformed files with `BadInput`.
"""

from __future__ import annotations

import dataclasses
import json
import math
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import BadInput
from .pde import FieldSnapshot
from .potentials import _json_float
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


def read_compare_csv(path) -> list:
    """Rows of compare.csv as dicts: the numeric columns as floats, validity as text.

    The header must be COMPARE_COLUMNS: cells are read by position."""
    names = COMPARE_COLUMNS.split(",")
    header, *lines = Path(path).read_text().strip().splitlines() or [""]
    if header != COMPARE_COLUMNS:
        raise BadInput(f"{path}: header {header!r}, expected {COMPARE_COLUMNS!r}")
    rows = []
    for lineno, line in enumerate(lines, start=2):
        cells = line.split(",")
        try:
            if len(cells) != len(names):
                raise ValueError(f"{len(cells)} cells, expected {len(names)}")
            rows.append(dict(zip(names, [*map(float, cells[:-1]), cells[-1]])))
        except ValueError as exc:
            raise BadInput(f"{path} line {lineno}: {exc}") from exc
    return rows


def write_fit_json(fits: dict, path):
    Path(path).write_text(json.dumps(fits, indent=2, sort_keys=True) + "\n")


def read_fit_json(path) -> dict:
    """fits.json as `write_fit_json` writes it: ray -> {exponent, monotone_decreasing, ...}."""
    try:
        fits = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise BadInput(f"{path}: not JSON: {exc}") from exc
    if not isinstance(fits, dict):
        raise BadInput(f"{path}: expected an object keyed by ray, "
                       f"got {type(fits).__name__}")
    for xi, fit in fits.items():
        if not (isinstance(fit, dict)
                and type(fit.get("exponent")) in (int, float)
                and type(fit.get("monotone_decreasing")) is bool):
            raise BadInput(f"{path}: ray {xi} needs a numeric exponent and a "
                           "boolean monotone_decreasing")
    return fits


def write_plot_long_csv(compare_rows: list, path):
    """|q_num|, |q_asym| and abs_err of each compare.csv row, one value per line."""
    rows = []
    for row in compare_rows:
        key = row["xi"], row["t"]
        rows += [(*key, "abs_qnum", abs(complex(row["re_qnum"], row["im_qnum"]))),
                 (*key, "abs_qasym", abs(complex(row["re_qasym"], row["im_qasym"]))),
                 (*key, "abs_err", row["abs_err"])]
    _write_table("xi,t,series,value", rows, path)


def write_summary_json(summary: dict, path):
    Path(path).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


def write_summary_txt(lines: list, path):
    Path(path).write_text("\n".join(lines) + "\n")


_QUERY_KEYS = frozenset(("x", "t"))


def _query(doc, t_min: float) -> tuple:
    """(x, t) of one decoded query: an object with exactly the keys x and t, JSON
    numbers (never a bool or a numeric string), finite, with t >= t_min."""
    if not isinstance(doc, dict):
        raise ValueError(f"query {doc!r} is not a JSON object")
    if doc.keys() != _QUERY_KEYS:
        raise ValueError(f"query keys {sorted(doc)}: a query has exactly the keys x and t")
    x, t = _json_float(doc["x"]), _json_float(doc["t"])
    if not (math.isfinite(x) and math.isfinite(t) and t >= t_min):
        raise ValueError(f"bad query x={x}, t={t}: need finite x, t "
                         f"and t >= t_min = {t_min}")
    return x, t


def read_queries(path, t_min: float) -> list:
    """(x, t) per non-blank line {"x": .., "t": ..} of a JSON-lines file, each as
    `_query` reads it; a bad line is refused by its number.

    The lines are decoded by one `json.loads` of them all as an array.  A valid
    query holds exactly one "{", so when every line starts with "{" and ends with
    "}" and the file holds as many "{" as lines, query k is line k.  Any other file,
    or one with a bad query, is read again line by line to name the first bad line.
    """
    try:
        text = Path(path).read_text()
    except (OSError, ValueError) as exc:
        raise BadInput(f"bad queries file: {exc}") from exc
    lines = [(n, s) for n, s in enumerate(map(str.strip, text.split("\n")), start=1) if s]
    joined = ",".join(s for _, s in lines)
    if joined.count("{") == len(lines) and all(s[0] == "{" and s[-1] == "}" for _, s in lines):
        try:
            return [_query(doc, t_min) for doc in json.loads(f"[{joined}]")]
        except ValueError:
            pass
    queries = []
    for n, line in lines:
        try:
            queries.append(_query(json.loads(line), t_min))
        except ValueError as exc:
            raise BadInput(f"bad queries file: line {n}: {exc}") from exc
    return queries


def write_asym_csv(rows, path):
    """One row per query: its cells in the order of the header, Python floats and the
    validity text."""
    _write_table("x,t,xi,re_q,im_q,abs_q,im_nu,validity", rows, path)
