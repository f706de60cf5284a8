"""Run one nonlocal-nls CLI command in this fresh process and report on it.

    python3 perfbench/child.py REPORT.json [--trace | --setup-only] -- CLI ARGS...

The parent reads the clock just before it starts this process, so set-up is
measured from process start: interpreter start, the imports, then the
config parse that builds the Potential (`ExperimentConfig.from_json_file`),
whose return this script marks.  The solve runs from that mark until the
CLI returns with its outputs written.  Times are CLOCK_MONOTONIC, which the
parent shares.  With --trace the layer spans of `tracer` are recorded; with
--setup-only the config is parsed and the process ends.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(argv):
    report_path, *rest = argv
    split = rest.index("--")
    flags, cli_args = rest[:split], rest[split + 1:]

    import click
    from nonlocal_nls import cli, config

    marks = {}
    parse = config.ExperimentConfig.from_json_file.__func__

    def from_json_file(cls, path):
        cfg = parse(cls, path)
        marks.setdefault("setup_done", time.monotonic())
        return cfg

    config.ExperimentConfig.from_json_file = classmethod(from_json_file)
    tracer = None
    if "--trace" in flags:
        from tracer import Tracer, install
        tracer = install(Tracer())

    exit_code = 0
    if "--setup-only" in flags:
        config.ExperimentConfig.from_json_file(cli_args[cli_args.index("--config") + 1])
    else:
        try:
            cli.main.main(args=cli_args, prog_name="nonlocal-nls", standalone_mode=False)
        except SystemExit as exc:
            exit_code = exc.code if isinstance(exc.code, int) else 1
        except click.ClickException as exc:
            exc.show()
            exit_code = exc.exit_code
    marks["end"] = time.monotonic()

    import mpmath
    import numpy
    import scipy
    import nonlocal_nls
    doc = {
        "exit_code": exit_code,
        "setup_done": marks.get("setup_done"),
        "end": marks["end"],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "package_file": nonlocal_nls.__file__,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "mpmath": mpmath.__version__},
        "trace": tracer.report() if tracer else None,
    }
    with open(report_path, "w") as fh:
        json.dump(doc, fh)
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
