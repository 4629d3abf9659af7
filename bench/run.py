"""demplast benchmark: one workload per process.

    python3 bench/run.py --workload presets|box-large|replay-fine \\
        --seed N --seconds S --trace 0|1

Run from anywhere; demplast is imported from ``src/`` next to this
directory, never from an installed copy, and the program exits with code 2
if those sources are missing.  Work files go to ``.bench_run/`` in the
same checkout.

``--trace 0`` times whole passes of the workload (set-up, solve, step
outputs, curve.csv) for about ``--seconds`` seconds and at least the
workload's ``min_passes``.  Workloads whose passes repeat the same inputs
first make one untimed warm-up pass, which also gives their peak RSS.
Between passes it sets up again for SETUP_GAP_S, and at least SETUP_REPS
times in all, for ``setup_s``.  Every timing is corrected for the host's
speed with reference samples taken alongside it (speed.py,
reference.py).  Outputs are checked outside the timed region.
``--trace 1`` runs one pass without wrappers as the reference, the same
pass with span wrappers installed, then the size sweep, and reports the
per-layer metrics and the tracing overhead, as measured.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted`` and
``failed`` count load steps, so their ratio is the workload's fail_frac.
Metric values are medians; the lines before it give each timing's
median, tail percentile and sample count, corrected and as measured,
the host slowdown, the checks and the environment.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_run")
SETUP_REPS = 5
SETUP_GAP_S = 0.5         # set-up time spent between passes
REF_SAMPLES = 4           # reference samples after each pass

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "iters_per_s": "1/s",
}

SWEEP_SIZES = (16, 400, 6400, 14400)

PER_LAYER = {
    "optim.iterations": "count",
    "optim.evaluations": "count",
    "optim.evals_per_iter": "ratio",
    "optim.step_self_ms": "ms",
    "optim.cap_hits": "count",
    "optim.final_loss": "mJ",
    "energy.grad_calls": "count",
    "energy.grad_self_ms": "ms",
    "energy.loss_calls": "count",
    "energy.loss_self_ms": "ms",
    "energy.commit_ms": "ms",
    "material.return_map_ms": "ms",
    "material.return_map_points": "count",
    "material.plastic_frac": "ratio",
    "material.energy_density_ms": "ms",
    "material.density_gradient_ms": "ms",
    "network.forward_ms": "ms",
    "network.backward_ms": "ms",
    "network.rows": "count",
    "network.gflop": "GFLOP",
    "network.gflops": "GFLOP/s",
    "mesh.generate_ms": "ms",
    "mesh.read_ms": "ms",
    "mesh.write_ms": "ms",
    "mesh.grad_operators_ms": "ms",
    "config.build_problem_ms": "ms",
    "bc.mask_offset_ms": "ms",
    "post.vtk_ms": "ms",
    "post.vtk_bytes": "bytes",
    "post.curve_ms": "ms",
    "network.save_ms": "ms",
    "solver.state_ms": "ms",
    "io.bytes_written": "bytes",
    "solver.loop_self_ms": "ms",
    "solver.steps": "count",
    **{f"sweep.{n}.{part}_ms": "ms" for n in SWEEP_SIZES
       for part in ("eval", "network", "material", "energy_self")},
    "trace.overhead_pct": "%",
    "check.stress_err_mpa": "MPa",
    "check.peeq_err": "strain",
}


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k, "unset") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
    }


def describe(samples) -> str:
    """Median, the highest percentile with at least ten samples beyond it
    (none below eleven samples), and the sample count."""
    n = len(samples)
    text = f"median {statistics.median(samples):.6g}"
    if n >= 11:
        p = 100.0 * (n - 10) / n
        tail = sorted(samples)[n - 11]
        text += f", p{p:.0f} {tail:.6g}"
    else:
        text += ", no tail percentile"
    return text + f", n {n}"


def untraced(wl, seconds):
    """Whole passes for about ``seconds``, each followed by more set-ups so
    set-up samples spread over the run; checks every pass whose inputs
    differ from the next one's, and the last.  Every timing is corrected
    for the host's speed with reference samples taken alongside it
    (speed.py)."""
    from reference import Reference
    from speed import Sampler

    wl.prepare()
    peak_rss = None
    if not wl.seed_per_pass:
        # A warm-up pass, untimed, whose memory high-water mark is read
        # before the reference allocates its own arrays.
        wl.run_pass().runs = []
        peak_rss = peak_rss_mb()
    sampler = Sampler(Reference(wl.reference, wl.work))
    for _ in range(REF_SAMPLES):
        sampler.take()
    passes, walls, rates, setups, raw_setups = [], [], [], [], []
    start = time.perf_counter()
    while True:
        first = len(sampler.samples)
        with sampler.tracer():
            p = wl.run_pass(len(passes))
        inside = [d for _, d in sampler.samples[first:]]
        for _ in range(REF_SAMPLES):
            sampler.take()
        # samples in the pass, or those just before and after it
        near = inside if len(inside) >= REF_SAMPLES else \
            [d for _, d in sampler.samples[first - REF_SAMPLES:]]
        host = sampler.factor(near)
        walls.append((p.wall_s - sum(inside)) / host)
        rates.append(p.iters_per_s(
            lambda a, b: (b - a - sum(sampler.within(a, b))) / host))
        setups.append(p.setup_s / host)
        raw_setups.append(p.setup_s)
        passes.append(p)
        typical = statistics.median(q.wall_s for q in passes)
        if len(passes) >= wl.min_passes and \
                time.perf_counter() - start + typical > seconds:
            break
        if wl.seed_per_pass:
            check(wl, p)
        p.runs = []             # free this pass's outputs before the next
        timed_setups(wl, sampler, SETUP_GAP_S, setups, raw_setups)
    check(wl, passes[-1])
    passes[-1].runs = []
    if len(setups) < SETUP_REPS:
        timed_setups(wl, sampler, 0.0, setups, raw_setups,
                     SETUP_REPS - len(setups))
    host = sampler.factor([d for _, d in sampler.samples])
    print(f"as measured: wall_s {describe([p.wall_s for p in passes])}; "
          f"setup_s {describe(raw_setups)}; iters_per_s "
          f"{statistics.median(p.iters_per_s() for p in passes):.6g}")
    print(f"host slowdown {host:.3f} over the run ({wl.reference} "
          f"reference, {len(sampler.samples)} samples)")
    print(f"wall_s: {describe(walls)}")
    print(f"setup_s: {describe(setups)}")
    print(f"iters_per_s: {describe(rates)}")
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss or peak_rss_mb(),
        "iters_per_s": statistics.median(rates),
    }
    return passes, metrics


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(wl, sampler, seconds, setups, raw, at_least=1) -> None:
    """Set up until ``seconds`` have passed and ``at_least`` times; each
    set-up time is corrected by the reference samples taken right before
    and right after it."""
    spent = 0.0
    before = sampler.take()
    for i in itertools.count():
        if i >= at_least and spent >= seconds:
            return
        took = timed_setup(wl)
        after = sampler.take()
        spent += took
        raw.append(took)
        setups.append(took / sampler.factor([before, after]))
        before = after


def timed_setup(wl) -> float:
    start = time.perf_counter()
    wl.setup()
    return time.perf_counter() - start


def check(wl, p) -> None:
    """Run the output checks on a pass; failures count against its steps."""
    for c in wl.checks(p):
        print(f"check {c.name}: {'ok' if c.ok else 'FAILED'} ({c.detail})")
        p.checks.append(c)
        if not c.ok:
            p.failed |= c.steps


def traced(wl, seed, spans_path):
    """Reference pass, traced pass, size sweep; per-layer metrics."""
    from spans import Tracer
    import selftest
    import workloads

    problems = selftest.run()
    for problem in problems:
        print(f"self-test failed: {problem}")
    wl.prepare()
    reference = wl.run_pass()
    reference.runs = []
    tracer = Tracer()
    with tracer:
        p = wl.run_pass()
    tracer.write(spans_path)
    check(wl, p)
    metrics = layer_metrics(tracer, p)
    metrics["trace.overhead_pct"] = \
        100.0 * (p.wall_s - reference.wall_s) / reference.wall_s
    metrics.update(workloads.sweep(seed))
    stress, peeq = workloads.accuracy(p)
    metrics["check.stress_err_mpa"] = stress
    metrics["check.peeq_err"] = peeq
    print(f"tracing: untraced pass {reference.wall_s:.3f} s, traced pass "
          f"{p.wall_s:.3f} s, {len(tracer.spans)} spans in {spans_path}")
    return [p], metrics, not problems


def layer_metrics(tracer, p) -> dict:
    """Per-layer values from one traced pass; None marks a metric whose
    wrapped name or count hook is gone."""
    calls, total, own = tracer.summary()

    def have(*names):
        return all(n in tracer.installed for n in names)

    def get(table, name):
        return table[name] if have(name) else None

    def ratio(a, b):
        return None if a is None or b is None else (a / b if b else 0.0)

    steps, evals = get(calls, "optim.step"), \
        get(calls, "energy.loss_and_grad")
    flop = tracer.count("network.flop")
    net_ms = get(total, "network.forward"), get(total, "network.backward")
    points = tracer.count("material.points")
    loop = own["solver.run"] + own["solver.infer"] \
        if have("solver.run", "solver.infer") else None
    return {
        "optim.iterations": steps,
        "optim.evaluations": evals,
        "optim.evals_per_iter": ratio(evals, steps),
        "optim.step_self_ms": get(own, "optim.step"),
        "optim.cap_hits": p.cap_hits,
        "optim.final_loss": p.final_loss,
        "energy.grad_calls": evals,
        "energy.grad_self_ms": get(own, "energy.loss_and_grad"),
        "energy.loss_calls": get(calls, "energy.loss"),
        "energy.loss_self_ms": get(own, "energy.loss"),
        "energy.commit_ms": get(total, "energy.commit"),
        "material.return_map_ms": get(total, "material.return_map"),
        "material.return_map_points": points,
        "material.plastic_frac":
            ratio(tracer.count("material.yielded"), points),
        "material.energy_density_ms": get(total, "material.energy_density"),
        "material.density_gradient_ms":
            get(total, "material.density_strain_gradient"),
        "network.forward_ms": net_ms[0],
        "network.backward_ms": net_ms[1],
        "network.rows": tracer.count("network.rows"),
        "network.gflop": None if flop is None else flop / 1e9,
        "network.gflops": None if flop is None or None in net_ms else
        ratio(flop / 1e9, (net_ms[0] + net_ms[1]) / 1e3),
        "mesh.generate_ms": get(total, "mesh.generate"),
        "mesh.read_ms": get(total, "mesh.read"),
        "mesh.write_ms": get(total, "mesh.write"),
        "mesh.grad_operators_ms": get(total, "mesh.grad_operators"),
        "config.build_problem_ms": get(total, "config.build_problem"),
        "bc.mask_offset_ms": get(total, "bc.mask_offset"),
        "post.vtk_ms": get(total, "post.write_vtk"),
        "post.vtk_bytes": tracer.count("post.vtk_bytes"),
        "post.curve_ms": get(total, "post.curve_csv"),
        "network.save_ms": get(total, "network.save"),
        "solver.state_ms": get(total, "solver.write_state"),
        "io.bytes_written": tracer.count("io.bytes"),
        "solver.loop_self_ms": loop,
        "solver.steps": p.attempted,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("presets", "box-large", "replay-fine"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "demplast", "__init__.py")):
        print(f"error: no demplast sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import demplast
    if not os.path.abspath(demplast.__file__).startswith(SRC + os.sep):
        print(f"error: demplast was imported from {demplast.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    wl = workloads.WORKLOADS[args.workload](args.seed, work)
    if args.trace:
        spans_path = os.path.join(work, "spans.json")
        passes, values, correct = traced(wl, args.seed, spans_path)
        units = PER_LAYER
    else:
        passes, values = untraced(wl, args.seconds)
        correct = True
        units = END_TO_END

    checks = [c for p in passes for c in p.checks]
    correct = correct and all(c.ok for c in checks)
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failed) for p in passes)
    print(f"fail_frac: {failed}/{attempted} load steps")

    absent = sorted(name for name in units if values.get(name) is None)
    if absent:
        print("absent (reported as 0): " + ", ".join(absent))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values.get(name) or 0.0, "unit": unit}
                    for name, unit in units.items()},
    }
    with open(os.path.join(work, f"result-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "env": env,
                   "checks": [vars(c) | {"steps": sorted(c.steps)}
                              for c in checks],
                   "absent": absent, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
