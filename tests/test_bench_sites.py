"""The benchmark's span recorder wraps demplast functions by name: every
site it lists must still exist, or its traced metrics go missing."""

import importlib
import os
import sys

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
