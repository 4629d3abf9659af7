"""A fixed reference computation that measures the host's current speed.

The shared machines this benchmark runs on change speed for stretches
that can outlast a whole run, so a run's own timings cannot show whether
the whole run was slow.  This file times a computation that never changes
with the program: one network-energy evaluation on a structured hex8
grid, written here in plain numpy with the same kinds of work as a
demplast evaluation.  That is a small tanh network forward and backward
over the nodes, a gather of element displacements, a strain from shape
function gradients, a return-map-like scaling per element, a traction
term summed facet by facet in Python, and a scatter of the forces back
to the nodes.  The small size is the
presets' 4x4x1 mesh, where Python overhead dominates; the large one is
box-large's 60x60x4 mesh.  A third kind formats doubles to text and
writes them to a file, as ``post.write_vtk`` does, for replay-fine, whose
time is mostly VTK output.  Over 6-second windows in which the host's
speed changed by a factor of 1.7, the ratio of a demplast evaluation's
time to the reference's at the same size stayed within 5 % of its median
in most windows and within 20 % in all of them; that of a VTK write to
the text reference stayed within 10 %.

REFERENCE_S is a sample's time in a fast stretch of the host the
baselines were measured on.  The reference depends only on numpy and the
host, never on demplast, so a change to demplast cannot move it.
"""

from __future__ import annotations

import os
import time

import numpy as np

# (divisions, evaluations per sample); in a fast stretch a sample takes
# about 5 ms at the small size and about 50 ms at the large one.
SIZES = {"small": ((4, 4, 1), 30), "large": ((60, 60, 4), 1)}
TEXT_ROWS = 8000                # rows of three doubles, about 40 ms
# Sample time in seconds in a fast stretch of a 2-vCPU x86_64 host
# (Intel Xeon, 2.0 GHz, Python 3.11, numpy 2.4, OpenBLAS 0.3.31).
REFERENCE_S = {"small": 0.0052, "large": 0.050, "text": 0.040}


class Grid:
    """A structured hex8 grid with a network, ready to evaluate."""

    def __init__(self, divisions, seed=0):
        nx, ny, nz = divisions
        axes = [np.linspace(0.0, 1.0, n + 1) for n in divisions]
        self.nodes = np.stack(np.meshgrid(*axes, indexing="ij"),
                              axis=-1).reshape(-1, 3)
        index = np.arange(len(self.nodes)).reshape(nx + 1, ny + 1, nz + 1)
        corners = [index[i:i + nx, j:j + ny, k:k + nz]
                   for i, j, k in ((0, 0, 0), (1, 0, 0), (1, 1, 0),
                                   (0, 1, 0), (0, 0, 1), (1, 0, 1),
                                   (1, 1, 1), (0, 1, 1))]
        self.conn = np.stack(corners, axis=-1).reshape(-1, 8)
        # the y_max facets, as four corner nodes each
        self.facets = np.stack([index[i:i + nx, ny, k:k + nz]
                                for i, k in ((0, 0), (1, 0), (1, 1),
                                             (0, 1))], axis=-1).reshape(-1, 4)
        rng = np.random.default_rng(seed)
        self.dndx = rng.standard_normal((len(self.conn), 8, 3))
        self.weights = [rng.standard_normal((a, b)) / np.sqrt(a)
                        for a, b in ((3, 32), (32, 32), (32, 3))]
        self.biases = [np.zeros(b) for b in (32, 32, 3)]
        self.plastic = np.zeros((len(self.conn), 3, 3))

    def evaluate(self) -> float:
        # network forward over the nodes
        acts = [self.nodes]
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            acts.append(np.tanh(acts[-1] @ w + b))
        u = 0.01 * (acts[-1] @ self.weights[-1] + self.biases[-1])
        # element strains, trial stress and a return-map-like correction
        grad = np.einsum("eai,eaj->eij", u[self.conn], self.dndx)
        strain = 0.5 * (grad + grad.transpose(0, 2, 1)) - self.plastic
        trace = np.trace(strain, axis1=1, axis2=2)
        dev = strain - trace[:, None, None] * np.eye(3) / 3.0
        norm = np.sqrt(np.einsum("eij,eij->e", dev, dev))
        scale = np.where(norm > 0.05, 0.05 / np.maximum(norm, 1e-30), 1.0)
        sigma = 2.0 * dev * scale[:, None, None] + \
            trace[:, None, None] * np.eye(3)
        energy = 0.5 * float(np.einsum("eij,eij->", sigma, strain))
        # a traction term facet by facet
        for facet in self.facets:
            energy -= 0.25 * float(u[facet].mean(axis=0) @ (1.0, 0.0, 0.0))
        # forces back to the nodes, then back through the network
        fe = np.einsum("eij,eaj->eai", sigma, self.dndx)
        du = np.zeros_like(u)
        for a in range(3):
            du[:, a] = np.bincount(self.conn.ravel(), fe[:, :, a].ravel(),
                                   minlength=len(u))
        delta = 0.01 * du
        grads = []
        for i in range(len(self.weights) - 1, -1, -1):
            grads.append((acts[i].T @ delta, delta.sum(axis=0)))
            if i:
                delta = (delta @ self.weights[i].T) * (1.0 - acts[i] ** 2)
        return energy + sum(float(g[0].sum() + g[1].sum()) for g in grads)


class Reference:
    """Times samples of one kind of reference: a network-energy evaluation
    at the "small" or "large" size, or "text", rows of doubles formatted
    and written to a file in ``work`` the way ``post.write_vtk`` writes
    them."""

    def __init__(self, kind: str, work: str):
        self.kind = kind
        self.reference_s = REFERENCE_S[kind]
        if kind == "text":
            self.rows = np.random.default_rng(0).standard_normal(
                (TEXT_ROWS, 3))
            self.path = os.path.join(work, "reference.txt")
            self._run = self._write_text
        else:
            divisions, calls = SIZES[kind]
            grid = Grid(divisions)
            self._run = lambda: [grid.evaluate() for _ in range(calls)]
        self._run()                 # warm-up

    def time_one(self) -> float:
        start = time.perf_counter()
        self._run()
        return time.perf_counter() - start

    def _write_text(self):
        with open(self.path, "w", encoding="utf-8") as fh:
            for row in self.rows:
                fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")
