"""One benchmark child process: import headlab, run CLI calls, report times.

Usage: python3 child.py SPEC.json

SPEC holds ``src`` (the directory that must provide ``headlab``), ``calls``
(a list of argv lists for ``headlab.cli.main``), ``trace`` (bool) and
``result`` (where to write the report). The calls run in order and stop at
the first nonzero exit code. Times are taken around the calls only, so the
interpreter start and the imports are reported apart from them.
"""

import json
import sys
import time
from pathlib import Path


def main(spec_path):
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import headlab.cli

    ready = time.time()
    if src not in Path(headlab.__file__).resolve().parents:
        print(f"headlab was imported from {headlab.__file__}, not from {src}", file=sys.stderr)
        return 4

    tracer = None
    traced = []
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        traced = tracer.install()

    calls = []
    for run, argv in enumerate(spec["calls"]):
        if tracer is not None:
            tracer.run = spec["run_base"] + run
        start = time.perf_counter()
        code = headlab.cli.main(list(argv))
        end = time.perf_counter()
        calls.append({"command": argv[0], "exit": code, "start": start, "end": end})
        if code != 0:
            break

    import resource

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    report = {
        "ready_time": ready,
        "calls": calls,
        "children_maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
        },
    }
    if tracer is not None:
        report["traced"] = traced
        report["spans"] = tracer.spans
        report["work"] = tracer.work
    Path(spec["result"]).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
