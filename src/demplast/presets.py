"""Built-in example problems, small enough to train on a laptop.

Each preset produces a ProblemSpec plus, when the geometry cannot be
described by a plain box, a Mesh carrying the element/node sets that
ProblemSpec refers to.  The CLI writes that mesh next to the echoed
config so a run can always be reproduced from its output directory
alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bc import AFFINE, CONST, DirichletBC
from .config import MaterialSpec, ProblemSpec
from .mesh import Mesh, extract_boundary_facets, generate_structured_box
from .solver import NetworkConfig, OptimizerConfig

MU = 384.62
KAPPA = 833.33

# Triangular loading wave: ramp to +1/2, unload, ramp to -1/2, unload.
CYCLE = (1 / 6, 1 / 3, 1 / 2, 1 / 3, 1 / 6, 0.0,
         -1 / 6, -1 / 3, -1 / 2, -1 / 3, -1 / 6, 0.0)


@dataclass(frozen=True)
class Preset:
    name: str
    description: str
    builder: object

    def build(self):
        """Return (ProblemSpec, Mesh or None)."""
        return self.builder()


def _shear_dirichlet():
    # u_x = y/4 on the four lateral faces, scaled by the load factor;
    # at factor 1/2 the applied engineering shear is 0.125.
    sides = ("x_min", "x_max", "y_min", "y_max")
    return [
        DirichletBC(name="drive", node_sets=sides, axis="x",
                    kind=AFFINE, coeffs=(0.0, 0.25, 0.0, 0.0)),
        DirichletBC(name="hold_y", node_sets=sides, axis="y",
                    kind=CONST, coeffs=(0.0, 0.0, 0.0, 0.0)),
        DirichletBC(name="hold_z", node_sets=("z_min", "z_max"), axis="z",
                    kind=CONST, coeffs=(0.0, 0.0, 0.0, 0.0)),
    ]


def _shear(mode: str):
    hard = dict(H=500.0, C=0.0) if mode == "isotropic" else \
        dict(H=0.0, C=500.0)
    spec = ProblemSpec(
        mesh_box=(4.0, 4.0, 1.0, 4, 4, 1),
        materials=[MaterialSpec(name="metal", mu=MU, kappa=KAPPA,
                                sigma_y0=50.0, mode=mode, **hard)],
        dirichlet=_shear_dirichlet(),
        factors=CYCLE,
        network=NetworkConfig(widths=(3, 32, 32, 3)),
        optimizer=OptimizerConfig(tol=1e-10),
        name="shear-iso" if mode == "isotropic" else "shear-kin")
    return spec, None


def _bimat():
    """Two-material plate in simple shear: the left half yields at 50
    MPa, the right at 60, so plastic strain localizes on the left.
    Same plate and loading as the shear presets but a single step at
    factor 0.5 and a 20x20x1 mesh that resolves the interface."""
    mesh = generate_structured_box((4.0, 4.0, 1.0), (20, 20, 1))
    centers = mesh.nodes[mesh.conn[:, :8]].mean(axis=1)
    left = np.flatnonzero(centers[:, 0] < 2.0).astype(np.int64)
    right = np.flatnonzero(centers[:, 0] >= 2.0).astype(np.int64)
    mesh.elem_sets["soft"] = left
    mesh.elem_sets["hard"] = right
    common = dict(mu=MU, kappa=KAPPA, H=500.0, C=0.0, mode="isotropic")
    spec = ProblemSpec(
        mesh_file="mesh.txt",
        materials=[
            MaterialSpec(name="soft", sigma_y0=50.0, elemset="soft", **common),
            MaterialSpec(name="hard", sigma_y0=60.0, elemset="hard", **common),
        ],
        dirichlet=_shear_dirichlet(),
        factors=(0.5,),
        network=NetworkConfig(widths=(3, 32, 32, 3)),
        optimizer=OptimizerConfig(tol=1e-6),
        name="bimat")
    return spec, mesh


def generate_quarter_plate_hole(length=4.0, radius=1.5, thickness=1.0,
                                n_rad=4, n_theta=8, nz=1) -> Mesh:
    """Hex mesh of a quarter plate [0,L]^2 with a circular hole at the
    origin, extruded in z.

    Structured polar block: rays from the hole rim to the radial
    projection of each angle onto the square's outer edges.  It is the
    box mesh over (z, angle, t), with t = 0 at the rim and 1 at the outer
    edge, mapped onto the plate.  The side sets hole/top/right are the
    facets of the same-named node sets.
    """
    if radius <= 0 or radius >= length:
        raise ValueError("need 0 < radius < length")
    box = generate_structured_box((thickness, math.pi / 2, 1.0),
                                  (nz, n_theta, n_rad))
    z, theta, t = box.nodes.T
    c, s = np.cos(theta), np.sin(theta)
    # Outer boundary point along each ray: on the right edge up to 45
    # degrees, on the top edge beyond.
    denom = np.maximum(c, s)
    bx, by = length * c / denom, length * s / denom
    ax, ay = radius * c, radius * s
    nodes = np.stack([ax + t * (bx - ax), ay + t * (by - ay), z], axis=1)
    # Box corners in hex order over (t, angle, z), so that element
    # volumes come out positive.
    conn = box.conn[:, [0, 4, 7, 3, 1, 5, 6, 2]]

    box_sets = box.node_sets
    node_sets = {name: box_sets[axis] for name, axis in (
        ("hole", "z_min"), ("outer", "z_max"), ("y_zero", "y_min"),
        ("x_zero", "y_max"), ("z_min", "x_min"), ("z_max", "x_max"),
        ("all", "all"))}
    outer = node_sets["outer"]
    tol = 1e-9 * length
    node_sets["top"] = outer[np.abs(nodes[outer, 1] - length) < tol]
    node_sets["right"] = outer[np.abs(nodes[outer, 0] - length) < tol]
    mesh = Mesh(nodes=nodes, kinds=box.kinds, conn=conn, node_sets=node_sets)
    for name in ("hole", "top", "right"):
        mesh.side_sets[name] = extract_boundary_facets(mesh, name)
    return mesh


def _plate_hole():
    mesh = generate_quarter_plate_hole()
    spec = ProblemSpec(
        mesh_file="mesh.txt",
        materials=[MaterialSpec(name="metal", mu=MU, kappa=KAPPA,
                                sigma_y0=50.0, H=500.0, mode="isotropic")],
        dirichlet=[
            DirichletBC(name="sym_x", node_sets=("x_zero",), axis="x",
                        kind=CONST, coeffs=(0.0, 0.0, 0.0, 0.0)),
            DirichletBC(name="sym_y", node_sets=("y_zero",), axis="y",
                        kind=CONST, coeffs=(0.0, 0.0, 0.0, 0.0)),
            DirichletBC(name="hold_z", node_sets=("z_min", "z_max"),
                        axis="z", kind=CONST, coeffs=(0.0, 0.0, 0.0, 0.0)),
            DirichletBC(name="pull", node_sets=("top",), axis="y",
                        kind=CONST, coeffs=(0.0, 0.0, 0.0, 0.08)),
        ],
        factors=(0.5, 1.0, 0.5, 0.0),
        network=NetworkConfig(widths=(3, 32, 32, 3)),
        optimizer=OptimizerConfig(tol=2e-5),
        name="plate-hole")
    return spec, mesh


PRESETS = {
    "shear-iso": Preset(
        "shear-iso",
        "cyclic simple shear of a block, isotropic hardening",
        lambda: _shear("isotropic")),
    "shear-kin": Preset(
        "shear-kin",
        "cyclic simple shear of a block, kinematic hardening",
        lambda: _shear("kinematic")),
    "bimat": Preset(
        "bimat",
        "sheared strip with a 50/60 MPa yield-strength split",
        _bimat),
    "plate-hole": Preset(
        "plate-hole",
        "quarter plate with a hole, load-unload tension cycle",
        _plate_hole),
}


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise KeyError(f"unknown preset {name!r}; available: {known}")
