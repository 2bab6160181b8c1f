"""One benchmark repetition in a fresh process.

Sets up (imports ``inflap`` and runs a tiny warm-up solve), runs one
workload, checks its output outside the timed region, and prints one JSON
record as the last line of standard output.  ``run.py`` starts it; run it
by hand as

    PYTHONPATH=src python3 perfbench/rep.py --workload aronsson-adaptive --out perfbench/out
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402


def setup():
    """Import the package and warm it up; return the versions in use."""
    import numpy
    import scipy

    import inflap
    import workloads  # noqa: F401  imports the package modules it calls

    inflap.fixed_point_solve(inflap.build_initial_mesh(2),
                             inflap.registry()["classical"].data)
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "inflap_file": inflap.__file__}


def run(args):
    """Time, check and (optionally) trace one workload run."""
    import layertrace
    import workloads

    record = {}
    scratch = tempfile.mkdtemp(prefix="run-", dir=args.out)
    tracer = layertrace.Tracer() if args.trace else None
    try:
        call, check = workloads.prepare(args.workload, args.tiny, scratch)
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            result = call()
            record["wall_s"] = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        l2, problems = check(result)
        record["l2_error"] = l2
        if args.break_check and not l2 < 0.0:
            problems.append("deliberately broken check: L2 error must be negative")
        if tracer is not None:
            record["layers"] = tracer.summary()
            if record["layers"]["solver.unconverged"]:
                problems.append("a traced solve returned converged=False")
            with open(os.path.join(args.out, f"spans-{args.workload}.json"), "w") as stream:
                json.dump({"workload": args.workload, "spans": tracer.spans}, stream)
    except Exception as failure:  # any failure of the workload counts as a failed run
        traceback.print_exc()
        problems = [f"{type(failure).__name__}: {failure}"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record["problems"] = problems
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None,
                        help="workload to run; without it only set up")
    parser.add_argument("--out", required=True, help="directory for spans and scratch files")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--break-check", action="store_true",
                        help="add a check that always fails (tests the failure count)")
    args = parser.parse_args(argv)

    record = {"versions": setup(), "setup_s": time.perf_counter() - _START}
    if args.workload is not None:
        record.update(run(args))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
