"""Span recorder for the traced benchmark run.

A span is (name, start, end, parent): a wrapper reads ``perf_counter`` on
entry and exit, and the parent is the innermost span still open on entry.
Spans stay in memory and are written out when the run ends.  A span's
self time is its duration minus the part of its interval that its direct
child spans cover.

Wrappers are installed at the names callers resolve at call time: module
attributes (``energy`` calls ``mat.return_map``; ``solver`` imported
``build_mask_offset`` and ``build_grad_operators`` by name, so those are
wrapped in ``solver`` as well as in their home module) and class
attributes for methods defined on the class itself.  A site whose name
no longer exists is skipped; a span with no site left is listed in
``absent`` and every metric derived from it is reported absent instead of
failing the run.  ``remove`` puts every original object back.

Spans are recorded on one stack, so they nest correctly only for calls
made on one thread; the benchmark runs demplast with its default single
thread.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict


def _weights(net):
    """(sum of fan_in * fan_out over the layers, that of the first)."""
    widths = net.widths
    return sum(a * b for a, b in zip(widths[:-1], widths[1:])), \
        widths[0] * widths[1]


def _forward_hook(counts, args, result):
    rows = result.shape[0]
    counts["network.rows"] += rows
    counts["network.flop"] += 2.0 * rows * _weights(args[0])[0]


def _backward_hook(counts, args, result):
    # weight gradients for every layer, deltas for every layer but the first
    total, first = _weights(args[0])
    counts["network.flop"] += 2.0 * args[1].shape[0] * (2 * total - first)


def _return_map_hook(counts, args, result):
    res = result[0] if isinstance(result, tuple) else result
    counts["material.points"] += res.yielded.size
    counts["material.yielded"] += int(res.yielded.sum())


def _bytes_hook(path_index):
    def hook(counts, args, result):
        counts["io.bytes"] += os.path.getsize(args[path_index])
    return hook


def _vtk_hook(counts, args, result):
    size = os.path.getsize(args[1])
    counts["io.bytes"] += size
    counts["post.vtk_bytes"] += size


# span name -> (sites as (module, dotted attribute), hook or None)
SITES = {
    "solver.run": ([("demplast.solver", "run")], None),
    "solver.infer": ([("demplast.solver", "infer")], None),
    "solver.write_state": ([("demplast.solver", "write_state")],
                           _bytes_hook(0)),
    "optim.step": ([("demplast.optim", "Lbfgs.step")], None),
    "network.set_params": ([("demplast.network", "Network.set_params")], None),
    "network.forward": ([("demplast.network", "Network.forward")],
                        _forward_hook),
    "network.backward": ([("demplast.network", "Network.backward")],
                         _backward_hook),
    "network.save": ([("demplast.network", "Network.save")], _bytes_hook(1)),
    "energy.loss_and_grad": ([("demplast.energy",
                               "EnergyWorkspace.loss_and_grad")], None),
    "energy.loss": ([("demplast.energy", "EnergyWorkspace.loss")], None),
    "energy.commit": ([("demplast.energy", "EnergyWorkspace.commit")], None),
    "material.return_map": ([("demplast.material", "return_map")],
                            _return_map_hook),
    "material.energy_density": ([("demplast.material", "energy_density")],
                                None),
    "material.density_strain_gradient": (
        [("demplast.material", "density_strain_gradient")], None),
    "mesh.generate": ([("demplast.mesh", "generate_structured_box"),
                       ("demplast.config", "generate_structured_box"),
                       ("demplast.presets", "generate_structured_box")], None),
    "mesh.read": ([("demplast.mesh", "read_mesh"),
                   ("demplast.config", "read_mesh")], None),
    "mesh.write": ([("demplast.mesh", "write_mesh")], _bytes_hook(1)),
    "mesh.grad_operators": ([("demplast.mesh", "build_grad_operators"),
                             ("demplast.solver", "build_grad_operators")],
                            None),
    "config.build_problem": ([("demplast.config", "build_problem")], None),
    "bc.mask_offset": ([("demplast.bc", "build_mask_offset"),
                        ("demplast.solver", "build_mask_offset")], None),
    "post.write_vtk": ([("demplast.post", "write_vtk")], _vtk_hook),
    "post.curve_csv": ([("demplast.post", "curve_csv")], _bytes_hook(2)),
}

# Which hook feeds which count, so a broken hook marks its counts absent.
HOOK_COUNTS = {
    "network.forward": ("network.rows", "network.flop"),
    "network.backward": ("network.flop",),
    "material.return_map": ("material.points", "material.yielded"),
    "post.write_vtk": ("post.vtk_bytes", "io.bytes"),
    "solver.write_state": ("io.bytes",),
    "network.save": ("io.bytes",),
    "mesh.write": ("io.bytes",),
    "post.curve_csv": ("io.bytes",),
}


def _resolve(module_name, dotted):
    """(owner object, attribute name) for a site, or None if it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(vars(owner).get(attr)):
        return None
    return owner, attr


def self_times(spans):
    """Self time of each span: its duration minus the union of its direct
    children's intervals, clipped to its own interval."""
    children = defaultdict(list)
    for i, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


class Tracer:
    """Records spans and counts from wrappers around the sites in SITES."""

    def __init__(self, sites=None):
        self.sites = SITES if sites is None else sites
        self.names = list(self.sites)
        self.spans = []
        self.counts = defaultdict(float)
        self.installed = set()      # span names with at least one site
        self.broken_hooks = set()   # span names whose count hook failed
        self._stack = []
        self._restore = []          # (owner, attr, original)

    @property
    def absent(self):
        return sorted(set(self.names) - self.installed)

    def install(self):
        for name_id, name in enumerate(self.names):
            sites, hook = self.sites[name]
            for module_name, dotted in sites:
                found = _resolve(module_name, dotted)
                if found is None:
                    continue
                owner, attr = found
                original = vars(owner)[attr]
                setattr(owner, attr, self._wrap(name_id, name, original,
                                                hook))
                self._restore.append((owner, attr, original))
                self.installed.add(name)
        return self

    def remove(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()

    def _wrap(self, name_id, name, original, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if hook is not None and name not in self.broken_hooks:
                try:
                    hook(self.counts, args, result)
                except (AttributeError, IndexError, TypeError, ValueError,
                        OSError):
                    self.broken_hooks.add(name)
            return result

        traced.__wrapped__ = original
        return traced

    def count(self, key):
        """A hook-fed count, or None if a hook feeding it failed."""
        for name, keys in HOOK_COUNTS.items():
            if key in keys and (name in self.broken_hooks
                                or name not in self.installed):
                return None
        return self.counts[key]

    def summary(self):
        """Per span name: (calls, total ms, self ms)."""
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        for (name_id, start, end, _), self_s in zip(self.spans,
                                                   self_times(self.spans)):
            name = self.names[name_id]
            calls[name] += 1
            total[name] += 1e3 * (end - start)
            own[name] += 1e3 * self_s
        return calls, total, own

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "absent": self.absent,
                       "spans": self.spans}, fh, separators=(",", ":"))
