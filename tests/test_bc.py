"""Dirichlet masks/offsets and load programs."""

from types import SimpleNamespace

import numpy as np
import pytest

from demplast.bc import (AXES, BCError, DirichletBC, LoadProgram, TractionBC,
                         build_mask_offset)
from demplast.energy import EnergyWorkspace
from demplast.material import ElasticConstants, HardeningLaw
from demplast.mesh import build_grad_operators, generate_structured_box

from conftest import KAPPA, MU, SY0


def box():
    return generate_structured_box((1.0, 2.0, 1.0), (2, 2, 1))


def test_axes_table():
    assert AXES == {"x": 0, "y": 1, "z": 2}


def test_affine_values():
    bc = DirichletBC(node_sets=("x_min",), axis="x",
                     coeffs=(1.0, 2.0, 3.0, 4.0), kind="affine", name="t")
    coords = np.array([[1.0, 10.0, 100.0], [0.0, 0.0, 0.0]])
    np.testing.assert_allclose(bc.values(coords), [1 + 20 + 300 + 4, 4.0])


def test_const_values():
    bc = DirichletBC(node_sets=("x_min",), axis="y",
                     coeffs=(0.0, 0.0, 0.0, -2.5), kind="const", name="t")
    coords = np.zeros((3, 3))
    np.testing.assert_allclose(bc.values(coords), [-2.5, -2.5, -2.5])


def test_mask_offset_basic():
    mesh = box()
    bcs = [DirichletBC(node_sets=("x_min",), axis="x",
                       coeffs=(0.0, 0.0, 0.0, 0.1), kind="const", name="a")]
    mask, offset = build_mask_offset(mesh, bcs, factor=1.0)
    pinned = mesh.node_sets["x_min"]
    free = np.setdiff1d(np.arange(mesh.n_nodes), pinned)
    assert np.all(mask[pinned, 0] == 0.0)
    np.testing.assert_allclose(offset[pinned, 0], 0.1)
    assert np.all(mask[free, 0] == 1.0)
    assert np.all(mask[:, 1] == 1.0) and np.all(mask[:, 2] == 1.0)
    np.testing.assert_array_equal(offset[free], 0.0)


def test_factor_scales_offsets():
    mesh = box()
    bcs = [DirichletBC(node_sets=("y_max",), axis="y",
                       coeffs=(0.5, 0.0, 0.0, 0.2), kind="affine", name="a")]
    _, off1 = build_mask_offset(mesh, bcs, factor=1.0)
    _, off2 = build_mask_offset(mesh, bcs, factor=-0.5)
    np.testing.assert_allclose(off2, -0.5 * off1)


def test_overlapping_consistent_sets_allowed():
    mesh = box()
    bcs = [DirichletBC(node_sets=("x_min", "y_min"), axis="z",
                       coeffs=(0.0, 0.0, 0.0, 0.0), kind="const", name="a"),
           DirichletBC(node_sets=("x_min",), axis="z",
                       coeffs=(0.0, 0.0, 0.0, 0.0), kind="const", name="b")]
    mask, offset = build_mask_offset(mesh, bcs, factor=1.0)
    assert np.all(mask[mesh.node_sets["x_min"], 2] == 0.0)


def test_conflicting_values_raise():
    mesh = box()
    bcs = [DirichletBC(node_sets=("x_min",), axis="x",
                       coeffs=(0.0, 0.0, 0.0, 1.0), kind="const", name="a"),
           DirichletBC(node_sets=("x_min",), axis="x",
                       coeffs=(0.0, 0.0, 0.0, 2.0), kind="const", name="b")]
    with pytest.raises(BCError, match="axis"):
        build_mask_offset(mesh, bcs, factor=1.0)


def test_unknown_node_set():
    mesh = box()
    bcs = [DirichletBC(node_sets=("nope",), axis="x",
                       coeffs=(0.0, 0.0, 0.0, 0.0), kind="const", name="a")]
    with pytest.raises(BCError, match="nope"):
        build_mask_offset(mesh, bcs, factor=1.0)


def test_workspace_displacement_composition():
    mesh = box()
    ws = EnergyWorkspace(mesh, build_grad_operators(mesh),
                         [(ElasticConstants(mu=MU, kappa=KAPPA),
                           HardeningLaw(sigma_y0=SY0, H=500.0))])
    rng = np.random.default_rng(0)
    shape = (mesh.n_nodes, 3)
    mask = (rng.random(shape) > 0.5).astype(float)
    offset = rng.standard_normal(shape)
    raw = rng.standard_normal(shape)
    ws.set_bc(mask, offset)
    u = ws.displacement(SimpleNamespace(forward=lambda x: raw))
    np.testing.assert_array_equal(u, mask * raw + offset)


def test_dirichlet_validation():
    with pytest.raises(BCError):
        DirichletBC(node_sets=(), axis="x", coeffs=(0, 0, 0, 0),
                    kind="const", name="a")
    with pytest.raises(BCError):
        DirichletBC(node_sets=("s",), axis=5, coeffs=(0, 0, 0, 0),
                    kind="const", name="a")
    with pytest.raises(BCError):
        DirichletBC(node_sets=("s",), axis="x", coeffs=(0, 0, 0, 0),
                    kind="weird", name="a")
    with pytest.raises(BCError, match="slopes"):
        DirichletBC(node_sets=("s",), axis="x", coeffs=(0, 0.25, 0, 0),
                    kind="const", name="a")


def test_traction_validation():
    TractionBC(side_sets=("top",), vector=(0.0, 1.0, 0.0), name="t")
    with pytest.raises(BCError):
        TractionBC(side_sets=(), vector=(0.0, 1.0, 0.0), name="t")
    with pytest.raises(BCError):
        TractionBC(side_sets=("top",), vector=(0.0, 1.0), name="t")


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_values_rejected(bad):
    """A non-finite constraint value or traction is rejected where it is
    built, before it can surface as a constraint clash or a divergence."""
    with pytest.raises(BCError, match=r"^value coefficients must be finite"):
        DirichletBC(node_sets=("x_min",), axis="x", kind="affine",
                    coeffs=(0.0, bad, 0.0, 0.0), name="drive")
    with pytest.raises(BCError, match=r"^traction vector must be finite, "
                                      rf"got \(0.0, {bad}, 0.0\)$"):
        TractionBC(side_sets=("top",), vector=(0.0, bad, 0.0), name="t")


def test_load_program():
    p = LoadProgram(factors=(0.5, 1.0))
    assert p.factors == (0.5, 1.0)
    with pytest.raises(BCError):
        LoadProgram(factors=())
    with pytest.raises(BCError):
        LoadProgram(factors=(1.0, float("nan")))
