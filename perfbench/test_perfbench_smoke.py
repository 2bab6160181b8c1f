"""Smoke test of the benchmark at tiny sizes (2 levels, estimator tolerance 0.5).

Checks that every metric named in BENCHMARK.json is printed for every
workload, that a deliberately broken check is counted as a failure, and
that the benchmark's linear-time conformity check agrees with the
package's brute-force oracle.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import workloads
from inflap.mesh import Triangulation, build_initial_mesh, conformity_errors, refine

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(out, *arguments):
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--tiny", "--seed", "3",
                           "--seconds", "0", "--out", str(out), *arguments],
                          capture_output=True, text=True, timeout=170)
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed(tmp_path, trace, section):
    code, result = bench(tmp_path, "--workload", "all", "--trace", str(trace))
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(SPEC["workloads"]) * (1 + trace)
    expected = {f"{w['name']}.{m['name']}": m["unit"]
                for w in SPEC["workloads"] for m in SPEC[section]}
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_broken_check_counts_as_failure(tmp_path):
    code, result = bench(tmp_path, "--workload", "aronsson-converged", "--break-check")
    assert code == 1
    assert not result["correct"] and result["failed"] == result["attempted"] == 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_workload_names_match_the_spec():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(workloads.NAMES) == list(run.WORKLOADS)


def test_conformity_check_agrees_with_oracle():
    mesh = build_initial_mesh(2)
    for step in (7, 5, 3):
        mesh = refine(mesh, range(0, mesh.triangle_count, step))
        assert workloads.conformity_problems(mesh) == [] == conformity_errors(mesh)

    # vertex 4 hangs on the diagonal 0-2 of the triangle (0, 2, 3)
    coords = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [0.0, 0.0]])
    hanging = Triangulation(coords, [[0, 1, 4], [1, 2, 4], [0, 2, 3]], validate=False)
    assert conformity_errors(hanging)
    assert workloads.conformity_problems(hanging) == ["3 one-sided edges inside the domain"]
