"""Benchmark of the nonlocal-nls CLI: three workloads, each CLI call a fresh process.

    python3 perfbench/run.py --workload scatter|asym|compare --seed N \
        --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src.  With
--trace 0 as many whole passes of the workload (one pass = its CLI calls in
order) as fit in S seconds run, at least one, and the end-to-end metrics are
printed: medians over passes of the solve time and peak memory, and the
median set-up time over all processes.  With --trace 1 one untraced and one traced pass run, and the
per-layer metrics of the traced pass are printed.  Every pass's outputs go
through the workload's gates and must be byte-identical across passes.  The
last line of stdout is the JSON result; the exit code is 0 only when it says
correct.  Working files and a result file with provenance are written under
.perfbench-out/ in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
sys.path[:0] = [str(HERE), str(SRC)]

from workloads import WORKLOADS, build  # noqa: E402

MIN_SETUPS = 3          # set-up samples per run; probes top up the passes
DEADLINE_S = 170.0      # a run must end within 180 s; a child past this is killed
T_BEGIN = time.monotonic()
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORK_COUNTS = ("potentials.q_samples", "phase.integrand_evals", "phase.phase_data_calls",
               "pde.steps", "pde.fft_calls")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(run_dir: Path, job, tag: str, flags=()) -> dict:
    """One CLI invocation of `job` in a fresh process; returns its report."""
    out = run_dir / tag / job.name
    out.mkdir(parents=True)
    report = out.parent / f"{job.name}.report.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(report), *flags, "--",
           "--config", str(run_dir / "inputs" / job.config), "--out", str(out), *job.command]
    with open(out.parent / f"{job.name}.log", "w") as log:
        t_start = time.monotonic()
        try:
            returncode = subprocess.run(
                cmd, stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=run_dir,
                timeout=max(1.0, DEADLINE_S - (t_start - T_BEGIN))).returncode
        except subprocess.TimeoutExpired:
            returncode = None
    doc = json.loads(report.read_text()) if report.exists() else {"exit_code": None}
    doc["returncode"] = returncode
    doc["out"] = out
    if doc.get("setup_done") is not None:
        doc["setup_s"] = doc["setup_done"] - t_start
        doc["wall_s"] = doc["end"] - doc["setup_done"]
    return doc


def output_digest(out: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_pass(run_dir: Path, jobs, tag: str, traced: bool) -> dict:
    """Each job once, then its gates; returns the pass's totals."""
    t0 = time.monotonic()
    docs = [run_child(run_dir, job, tag, ["--trace"] if traced else []) for job in jobs]
    failed, values, digests = 0, {}, {}
    for job, doc in zip(jobs, docs):
        bad = doc["returncode"] != 0 or doc["exit_code"] != 0 or "wall_s" not in doc
        if not bad:
            if not Path(doc["package_file"]).resolve().is_relative_to(SRC):
                raise RuntimeError(f"the CLI ran {doc['package_file']}, not the code in {SRC}")
            try:
                job_failed, job_values = job.check(doc["out"])
            except (OSError, KeyError, ValueError) as exc:
                print(f"perfbench: gate on {job.name} raised {exc!r}", file=sys.stderr)
                job_failed, job_values = job.ops, {}
            failed += job_failed
            for key, value in job_values.items():
                values[key] = max(values.get(key, value), value)
            digests[job.name] = output_digest(doc["out"])
        else:
            print(f"perfbench: {job.name} exited {doc['returncode']}; see {doc['out']}.log",
                  file=sys.stderr)
            failed += job.ops
    return {
        "docs": docs, "failed": failed, "values": values, "digests": digests,
        "duration_s": time.monotonic() - t0,
        "wall_s": sum(d.get("wall_s", 0.0) for d in docs),
        "setup_s": [d["setup_s"] for d in docs if "setup_s" in d],
        "peak_rss_mb": max(d.get("maxrss_kb", 0) for d in docs) / 1024.0,
    }


def setup_probe(run_dir: Path, job, tag: str) -> float:
    doc = run_child(run_dir, job, tag, ["--setup-only"])
    if "setup_s" not in doc:
        raise RuntimeError(f"set-up probe of {job.name} failed; see {doc['out']}.log")
    return doc["setup_s"]


# -- per-layer metrics -------------------------------------------------------

def merge_traces(docs) -> dict:
    """Sum the trace reports of one pass's processes."""
    total = {"spans": {}, "edges": {}, "counts": {}, "values": {}, "sites": {}, "absent": []}
    for doc in docs:
        tr = doc.get("trace") or {}
        for key in ("spans", "edges"):
            for name, rec in tr.get(key, {}).items():
                acc = total[key].setdefault(name, [0] * len(rec))
                total[key][name] = [a + b for a, b in zip(acc, rec)]
        for name, n in tr.get("counts", {}).items():
            total["counts"][name] = total["counts"].get(name, 0) + n
        for name, v in tr.get("values", {}).items():
            total["values"][name] = max(total["values"].get(name, v), v)
        total["sites"].update(tr.get("sites", {}))
        total["absent"] = sorted(set(total["absent"]) | set(tr.get("absent", [])))
    return total


def layer_metrics(tr: dict, wall: float, untraced_wall: float, values: dict, ops: int,
                  failed: int) -> dict:
    spans, counts, noted = tr["spans"], tr["counts"], tr["values"]

    def t(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    queries = calls("asymptotics.q_asymptotic")
    phase_in_queries = tr["edges"].get("asymptotics.q_asymptotic>phase.phase_data", [0, 0.0])
    steps = counts.get("pde.steps", 0)
    scattering_s = t("scattering.compute") + t("scattering.genericity")
    m = {
        "potentials.q_samples": (counts.get("potentials.q_samples", 0), "count"),
        "potentials.eval_s": (t("potentials.eval"), "s"),
        "scattering.compute_s": (t("scattering.compute"), "s"),
        "scattering.compute_calls": (calls("scattering.compute"), "count"),
        "scattering.genericity_s": (t("scattering.genericity"), "s"),
        "cf4.self_s": (spans.get("cf4.propagate", [0, 0.0, 0.0])[2], "s"),
        "scattering.truncation_err": (noted.get("scattering.truncation_err", 0.0), "1"),
        "scattering.box_oracle_dev": (noted.get("scattering.box_oracle_dev", 0.0), "1"),
        "scattering.unimodularity_dev": (noted.get("scattering.unimodularity_dev", 0.0), "1"),
        "phase.phase_data_calls": (calls("phase.phase_data"), "count"),
        "phase.phase_data_s": (t("phase.phase_data"), "s"),
        "phase.ms_per_xi": (per(t("phase.phase_data"), calls("phase.phase_data"), 1e3), "ms"),
        "phase.delta0_s": (t("phase.delta0"), "s"),
        "phase.nu_tail_s": (t("phase.nu_tail"), "s"),
        "phase.quad_calls": (counts.get("phase.quad_calls", 0), "count"),
        "phase.integrand_evals": (counts.get("phase.integrand_evals", 0), "count"),
        "asymptotics.queries": (queries, "count"),
        "asymptotics.warm_us_per_query": (
            per(spans.get("asymptotics.q_asymptotic", [0, 0.0, 0.0])[2], queries, 1e6), "us"),
        "asymptotics.phase_hit_ratio": (1.0 - per(phase_in_queries[0], queries)
                                        if queries else 0.0, "1"),
        "pde.evolve_s": (t("pde.evolve"), "s"),
        "pde.steps": (steps, "count"),
        "pde.ms_per_step": (per(t("pde.evolve"), steps, 1e3), "ms"),
        "pde.fft_calls": (calls("pde.fft"), "count"),
        "pde.fft_s": (t("pde.fft"), "s"),
        "pde.interp_s": (t("pde.interp"), "s"),
        "pde.interp_points": (counts.get("pde.interp_points", 0), "count"),
        "pde.mass_drift_rel": (noted.get("pde.mass_drift_rel", 0.0), "1"),
        "io.write_s": (t("io.write"), "s"),
        "io.bytes_written": (counts.get("io.bytes_written", 0), "bytes"),
        "scattering.wall_share": (per(scattering_s, wall), "1"),
        "phase.wall_share": (per(t("phase.phase_data"), wall), "1"),
        "pde.wall_share": (per(t("pde.evolve") + t("pde.interp"), wall), "1"),
        "io.wall_share": (per(t("io.write"), wall), "1"),
        "compare.fit_exponent_max": (values.get("fit_exponent_max", 0.0), "1"),
        "ops_failed_frac": (per(failed, ops), "1"),
        "trace_overhead_frac": (per(wall, untraced_wall) - 1.0, "1"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in m.items()}


# -- provenance and work-count ledger ----------------------------------------

def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def provenance(args, inputs_hash: str, src_hash: str, versions: dict) -> dict:
    env = child_env()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "versions": versions,
        "thread_env": {var: env[var] for var in THREAD_VARS},
        "processes_per_job": 1,
        "git_commit": git_commit(),
        "src_sha256": src_hash,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_sha256": inputs_hash,
    }


def check_work_counts(key: str, counts: dict) -> bool:
    """Record the counts of (source, workload, inputs); False if they changed."""
    ledger_path = OUT / "work_counts.json"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
    seen = ledger.setdefault(key, counts)
    tmp = ledger_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    tmp.replace(ledger_path)
    return seen == counts


# -- main --------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "nonlocal_nls" / "cli.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'nonlocal_nls'}", file=sys.stderr)
        return 2

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    jobs, inputs_hash = build(args.workload, args.seed, run_dir / "inputs")
    src_hash = source_digest()
    setup_probe(run_dir, jobs[0], "warmup")      # the first timed process finds a warm file cache

    passes = []
    t0 = time.monotonic()
    if args.trace:
        passes = [run_pass(run_dir, jobs, "pass0", False),
                  run_pass(run_dir, jobs, "traced", True)]
    else:
        # whole passes only, as many as fit in the time given
        while not passes or (time.monotonic() - t0 + statistics.median(
                p["duration_s"] for p in passes) <= args.seconds):
            passes.append(run_pass(run_dir, jobs, f"pass{len(passes)}", False))
    untraced = passes[:-1] if args.trace else passes
    setups = [s for p in untraced for s in p["setup_s"]]
    while len(setups) < MIN_SETUPS:
        setups.append(setup_probe(run_dir, jobs[len(setups) % len(jobs)], f"probe{len(setups)}"))

    ops = sum(job.ops for job in jobs) * len(passes)
    failed = sum(p["failed"] for p in passes)
    faults, notes = [], []
    if any(p["digests"] != passes[0]["digests"] for p in passes):
        faults.append("outputs differ between passes")
    values = {}
    for p in passes:
        values.update(p["values"])

    if args.trace:
        traced = passes[-1]
        tr = merge_traces(traced["docs"])
        metrics = layer_metrics(tr, traced["wall_s"], passes[0]["wall_s"], values, ops, failed)
        counts = {name: metrics[name]["value"] for name in WORK_COUNTS}
        if not check_work_counts(f"{src_hash}:{args.workload}:{inputs_hash}", counts):
            faults.append("work counts differ from an earlier run of these sources and inputs")
        if tr["absent"]:
            notes.append(f"absent trace targets: {', '.join(tr['absent'])}")
        trace_detail = tr
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(p["wall_s"] for p in passes), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes),
                            "unit": "MB"},
        }
        trace_detail = None

    correct = failed == 0 and not faults
    versions = next((d["versions"] for p in passes for d in p["docs"] if "versions" in d), {})
    result = {"correct": correct, "attempted": ops, "failed": failed, "metrics": metrics}
    record = {
        "provenance": provenance(args, inputs_hash, src_hash, versions),
        "result": result, "faults": faults, "notes": notes, "gate_values": values,
        "passes": [{key: p[key] for key in ("duration_s", "wall_s", "setup_s", "failed",
                                            "peak_rss_mb", "digests")} for p in passes],
        "setup_samples_s": setups,
        "trace": trace_detail,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{run_dir.name}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    for note in faults + notes:
        print(f"perfbench: {note}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
