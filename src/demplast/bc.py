"""Boundary conditions: hard Dirichlet enforcement via a nodal
mask/offset pair, plus traction and load-program descriptions.

The admissible field is u = mask * u_raw + offset, with mask = 0 and
offset = factor * prescribed value on constrained node-DOFs and mask = 1,
offset = 0 elsewhere.  Prescribed values are affine in the coordinates,
value(x) = a*x + b*y + c*z + d, which covers constants as (0,0,0,d).
The config parser builds these types, which check their own fields; set
names are checked against the mesh where they are used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Mesh

AXES = {"x": 0, "y": 1, "z": 2}

CONST = "const"
AFFINE = "affine"


class BCError(ValueError):
    pass


@dataclass(frozen=True)
class DirichletBC:
    """One constrained axis ("x", "y" or "z") over one or more node sets."""

    node_sets: tuple
    axis: str
    coeffs: tuple            # (a, b, c, d)
    kind: str = CONST
    name: str = ""

    def __post_init__(self):
        if not self.node_sets:
            raise BCError("constraint needs at least one node set")
        if self.axis not in AXES:
            raise BCError(f"axis must be x, y or z, got {self.axis!r}")
        if self.kind not in (CONST, AFFINE):
            raise BCError(f"value must be const or affine, got {self.kind!r}")
        if len(self.coeffs) != 4:
            raise BCError("value needs 4 coefficients (a, b, c, d)")
        if not np.all(np.isfinite(self.coeffs)):
            raise BCError("value coefficients must be finite, got "
                          f"{self.coeffs}")
        if self.kind == CONST and any(self.coeffs[:3]):
            raise BCError("a const value has no slopes: use affine")

    def values(self, coords: np.ndarray) -> np.ndarray:
        a, b, c, d = self.coeffs
        return a * coords[:, 0] + b * coords[:, 1] + c * coords[:, 2] + d


@dataclass(frozen=True)
class TractionBC:
    """Constant traction vector over one or more side sets."""

    side_sets: tuple
    vector: tuple
    name: str = ""

    def __post_init__(self):
        if not self.side_sets:
            raise BCError("traction needs at least one side set")
        if len(self.vector) != 3:
            raise BCError("traction vector needs 3 components")
        if not np.all(np.isfinite(self.vector)):
            raise BCError(f"traction vector must be finite, got {self.vector}")


@dataclass(frozen=True)
class LoadProgram:
    """Sequence of load factors, one per incremental step."""

    factors: tuple

    def __post_init__(self):
        if len(self.factors) == 0:
            raise BCError("load factors must not be empty")
        if not np.all(np.isfinite(self.factors)):
            raise BCError("load factors must be finite")


def build_mask_offset(mesh: Mesh, bcs, factor: float):
    """Nodal (mask, offset) arrays of shape (n_nodes, 3) for one load factor.

    Raises BCError if the same node-DOF receives two conflicting values
    (equal re-prescription is allowed).
    """
    n = mesh.n_nodes
    mask = np.ones((n, 3))
    offset = np.zeros((n, 3))
    assigned = np.zeros((n, 3), dtype=bool)
    for bc in bcs:
        k = AXES[bc.axis]
        for set_name in bc.node_sets:
            if set_name not in mesh.node_sets:
                raise BCError(f"constraint {bc.name or '?'}: unknown node "
                              f"set {set_name!r}")
            ids = mesh.node_set(set_name)
            vals = factor * bc.values(mesh.nodes[ids])
            clash = assigned[ids, k]
            if np.any(clash):
                old = offset[ids, k]
                bad = clash & ~np.isclose(old, vals, rtol=1e-10, atol=1e-12)
                if np.any(bad):
                    node = int(ids[np.flatnonzero(bad)[0]])
                    raise BCError(
                        f"node {node} axis {bc.axis} constrained twice "
                        f"with conflicting values ({offset[node, k]:g} vs "
                        f"{vals[np.flatnonzero(bad)[0]]:g})")
            mask[ids, k] = 0.0
            offset[ids, k] = vals
            assigned[ids, k] = True
    return mask, offset
