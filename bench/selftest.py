"""Self-test of the span recorder: self-time arithmetic on synthetic spans,
and wrapper installation and removal on a tiny real problem.

    python3 bench/selftest.py        # exit code 0 when every test passes

Every traced benchmark run calls ``run()`` first and reports itself
incorrect if a test fails.
"""

from __future__ import annotations

import importlib
import os
import sys

from spans import SITES, Tracer, self_times


def _self_time_problems():
    # parent [0, 10]; children [1, 3] and [2, 5] overlap, [9, 12] runs past
    # the parent's end; [2.5, 3] is a grandchild and counts only against
    # its own parent.
    spans = [(0, 0.0, 10.0, -1), (0, 1.0, 3.0, 0), (0, 2.0, 5.0, 0),
             (0, 9.0, 12.0, 0), (0, 2.5, 3.0, 2)]
    want = [5.0, 2.0, 2.5, 3.0, 0.5]
    got = self_times(spans)
    if any(abs(g - w) > 1e-12 for g, w in zip(got, want)):
        return [f"self times {got}, expected {want}"]
    return []


def _originals():
    out = {}
    for name, (sites, _) in SITES.items():
        for module_name, dotted in sites:
            owner = importlib.import_module(module_name)
            *path, attr = dotted.split(".")
            for part in path:
                owner = getattr(owner, part)
            out[(module_name, dotted)] = (owner, attr, vars(owner)[attr])
    return out


def _tiny_run():
    from demplast import config, solver
    import workloads

    spec = workloads.box_spec(0, divisions=(2, 2, 1))
    spec.optimizer.max_iters_per_step = 3
    return solver.run(config.build_problem(spec))


def _wrapper_problems():
    problems = []
    originals = _originals()
    tracer = Tracer().install()
    try:
        for site, (owner, attr, original) in originals.items():
            current = vars(owner)[attr]
            if current is original or current.__wrapped__ is not original:
                problems.append(f"{site} not wrapped")
        _tiny_run()
    finally:
        tracer.remove()
    calls, _, _ = tracer.summary()
    for name in ("solver.run", "optim.step", "energy.loss_and_grad",
                 "network.forward", "material.return_map"):
        if not calls[name]:
            problems.append(f"no {name} span recorded")
    names = tracer.names
    for name_id, _, _, parent in tracer.spans:
        if names[name_id] == "energy.loss_and_grad" and (
                parent < 0 or names[tracer.spans[parent][0]] != "optim.step"):
            problems.append("loss_and_grad span not nested in optim.step")
            break
    for site, (owner, attr, original) in originals.items():
        if vars(owner)[attr] is not original:
            problems.append(f"{site} not restored")
    recorded = len(tracer.spans)
    _tiny_run()
    if len(tracer.spans) != recorded:
        problems.append("spans recorded after removal")
    return problems


def _absent_problems():
    problems = []

    def bad_hook(counts, args, result):
        return args[99]

    tracer = Tracer(sites={
        "gone": ([("demplast.material", "no_such_function")], None),
        "class.gone": ([("demplast.optim", "NoSuchClass.step")], None),
        "hooked": ([("demplast.tensor", "trace")], bad_hook),
    })
    with tracer:
        import numpy as np
        from demplast import tensor
        value = tensor.trace(np.ones(6))
    if tracer.absent != ["class.gone", "gone"]:
        problems.append(f"absent {tracer.absent}, expected the two gone "
                        "names")
    if tracer.broken_hooks != {"hooked"} or value != 3.0:
        problems.append("a failing count hook was not contained")
    return problems


def run():
    """List of failed self-test descriptions; empty when all pass."""
    return _self_time_problems() + _wrapper_problems() + _absent_problems()


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    failures = run()
    for failure in failures:
        print(f"FAILED: {failure}")
    print("self-test " + ("failed" if failures else "passed"))
    sys.exit(1 if failures else 0)
