"""The benchmark calls into demplast by name: every site its span
recorder wraps must still exist, or its traced metrics go missing, and
the specs its workloads build must still build, solve and pass its
output checks."""

import importlib
import os
import sys
from dataclasses import replace

from demplast import config, solver

BENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench")


def test_every_span_site_resolves():
    sys.path.insert(0, BENCH)
    try:
        spans = importlib.import_module("spans")
    finally:
        sys.path.remove(BENCH)
    missing = []
    for name, (sites, _) in spans.SITES.items():
        for module_name, dotted in sites:
            owner = importlib.import_module(module_name)
            *path, attr = dotted.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if owner is None or not callable(vars(owner).get(attr)):
                missing.append(f"{name}: {module_name}.{dotted}")
    assert not missing, missing


def test_box_spec_runs_and_passes_its_checks(tmp_path):
    """The benchmark's own spec, built and solved through the same calls
    its workloads make, passes the benchmark's energy and VTK checks."""
    sys.path.insert(0, BENCH)
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(BENCH)
    spec = workloads.box_spec(0, divisions=(2, 2, 1))
    spec.optimizer = replace(spec.optimizer, max_iters_per_step=3)
    problem = config.build_problem(spec)
    out = str(tmp_path)
    records = solver.run(problem, out_dir=out)
    for check in (workloads.energy_check, workloads.vtk_check):
        result = check("box", problem, records, out)
        assert result.ok, result.detail
