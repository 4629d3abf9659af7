"""The quarter plate-with-hole mesh: geometry, side sets and traction load."""

import math

import numpy as np
import pytest

from demplast.bc import LoadProgram, TractionBC
from demplast.material import ElasticConstants, HardeningLaw
from demplast.mesh import (facet_area_normal, facet_corners, read_mesh,
                           write_mesh)
from demplast.presets import generate_quarter_plate_hole
from demplast.solver import Problem, make_workspace

LENGTH, RADIUS, THICKNESS = 4.0, 1.5, 1.0
DIVISIONS = [(4, 8, 1), (3, 5, 2), (8, 16, 3)]     # (n_rad, n_theta, nz)


def loop_plate_hole(length=4.0, radius=1.5, thickness=1.0, n_rad=4,
                    n_theta=8, nz=1):
    """Nodes, connectivity and node sets of the plate-hole mesh built by
    explicit loops over (radius, angle, z) grid indices."""
    theta = np.linspace(0.0, math.pi / 2, n_theta + 1)
    c, s = np.cos(theta), np.sin(theta)
    denom = np.maximum(c, s)
    bx, by = length * c / denom, length * s / denom
    ax, ay = radius * c, radius * s
    t = np.linspace(0.0, 1.0, n_rad + 1)
    x2 = ax[None, :] + t[:, None] * (bx - ax)[None, :]
    y2 = ay[None, :] + t[:, None] * (by - ay)[None, :]
    z1 = np.linspace(0.0, thickness, nz + 1)

    nr1, na1, nz1 = n_rad + 1, n_theta + 1, nz + 1
    nodes = np.empty((nr1 * na1 * nz1, 3))
    nid = np.arange(nr1 * na1 * nz1).reshape(nr1, na1, nz1)
    for k in range(nz1):
        nodes[nid[:, :, k].ravel(), 0] = x2.ravel()
        nodes[nid[:, :, k].ravel(), 1] = y2.ravel()
        nodes[nid[:, :, k].ravel(), 2] = z1[k]

    conn = []
    for ir in range(n_rad):
        for ia in range(n_theta):
            for k in range(nz):
                conn.append((nid[ir, ia, k], nid[ir + 1, ia, k],
                             nid[ir + 1, ia + 1, k], nid[ir, ia + 1, k],
                             nid[ir, ia, k + 1], nid[ir + 1, ia, k + 1],
                             nid[ir + 1, ia + 1, k + 1],
                             nid[ir, ia + 1, k + 1]))

    tol = 1e-9 * length
    outer = nid[-1].ravel()
    node_sets = {
        "hole": nid[0].ravel(), "outer": outer,
        "y_zero": nid[:, 0, :].ravel(), "x_zero": nid[:, -1, :].ravel(),
        "z_min": nid[:, :, 0].ravel(), "z_max": nid[:, :, -1].ravel(),
        "all": np.arange(len(nodes)),
        "top": outer[np.abs(nodes[outer, 1] - length) < tol],
        "right": outer[np.abs(nodes[outer, 0] - length) < tol],
    }
    return nodes, np.array(conn), node_sets


@pytest.mark.parametrize("n_rad,n_theta,nz", DIVISIONS)
def test_plate_hole_matches_loop_reference(n_rad, n_theta, nz):
    mesh = generate_quarter_plate_hole(n_rad=n_rad, n_theta=n_theta, nz=nz)
    nodes, conn, node_sets = loop_plate_hole(n_rad=n_rad, n_theta=n_theta,
                                             nz=nz)
    assert mesh.nodes.tobytes() == nodes.tobytes()
    np.testing.assert_array_equal(mesh.conn, conn)
    assert list(mesh.node_sets) == list(node_sets)
    for name, ids in node_sets.items():
        np.testing.assert_array_equal(mesh.node_sets[name], ids, err_msg=name)


@pytest.mark.parametrize("n_rad,n_theta,nz", DIVISIONS)
def test_plate_hole_side_sets_lie_on_their_boundaries(n_rad, n_theta, nz):
    mesh = generate_quarter_plate_hole(LENGTH, RADIUS, THICKNESS, n_rad,
                                       n_theta, nz)
    assert list(mesh.side_sets) == ["hole", "top", "right"]
    assert len(mesh.side_sets["hole"]) == n_theta * nz
    assert len(mesh.side_sets["top"]) and len(mesh.side_sets["right"])
    for name, pairs in mesh.side_sets.items():
        for corners in facet_corners(mesh, pairs):
            p = mesh.nodes[corners]
            _, normal = facet_area_normal(mesh, corners)
            if name == "hole":
                np.testing.assert_allclose(np.hypot(p[:, 0], p[:, 1]),
                                           RADIUS, rtol=1e-12)
                # outward from the plate is toward the hole's axis
                center = p.mean(axis=0)
                radial = np.array([center[0], center[1], 0.0])
                radial /= np.linalg.norm(radial)
                assert normal @ radial < -0.99
                assert abs(normal[2]) < 1e-12
            else:
                axis = 1 if name == "top" else 0
                np.testing.assert_allclose(p[:, axis], LENGTH, rtol=1e-12)
                np.testing.assert_allclose(normal, np.eye(3)[axis],
                                           atol=1e-12)


def test_plate_hole_top_traction_loads_the_top_edge(tmp_path):
    """10 MPa in y on the top side set of a written and re-read mesh: the
    top edge is 4 mm long and 1 mm thick, so the nodal load sums to 40 N."""
    path = tmp_path / "mesh.txt"
    write_mesh(generate_quarter_plate_hole(), path)
    problem = Problem(
        mesh=read_mesh(path),
        materials=[(ElasticConstants(mu=384.62, kappa=833.33),
                    HardeningLaw(sigma_y0=50.0, H=500.0, C=0.0,
                                 mode="isotropic"))],
        dirichlet=[], program=LoadProgram(factors=(1.0,)),
        tractions=[TractionBC(side_sets=("top",), vector=(0.0, 10.0, 0.0))])
    load = make_workspace(problem).load
    np.testing.assert_allclose(load.sum(axis=0), [0.0, 40.0, 0.0],
                               rtol=1e-12, atol=1e-12)
