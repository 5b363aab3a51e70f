"""The benchmark workloads at their default seed reproduce ``perfbench/reference.json``.

Each operation of each workload runs once, outside any timing, and its
numbers are compared with the reference under the operation's label prefix,
as ``perfbench/run.py`` compares them. A moved reference number or a new
artifact key fails here, not only in the benchmark run.
"""

import importlib.util
import json
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(PERFBENCH, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()

with open(os.path.join(PERFBENCH, "reference.json")) as fh:
    REFERENCE = json.load(fh)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_matches_reference(name, tmp_path):
    workload = workloads.WORKLOADS[name](0, str(tmp_path))
    reference = REFERENCE[name]
    problems = []
    for label, call in workload.operations:
        failures, _, numbers = workload.check(label, call())
        prefix = label + "."
        expected = {k[len(prefix):]: v for k, v in reference.items() if k.startswith(prefix)}
        problems += [f"{label}: {p}" for p in failures + workloads.compare(expected, numbers)]
    assert not problems, "\n".join(problems[:20])
