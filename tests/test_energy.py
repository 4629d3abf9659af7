"""Energy assembly: values, exact parameter gradients, determinism."""

from types import SimpleNamespace

import numpy as np
import pytest

import demplast.tensor as t2
from demplast import oracle
from demplast.bc import DirichletBC, TractionBC, build_mask_offset
from demplast.material import ElasticConstants, HardeningLaw, PlasticState
from demplast.mesh import build_grad_operators, extract_boundary_facets, \
    facet_area_normal, facet_corners, generate_structured_box
from demplast.energy import EnergyWorkspace
from demplast.network import init_network

from conftest import KAPPA, MU, SY0


def make_ws(mesh, law=None, tractions=()):
    law = law or HardeningLaw(sigma_y0=SY0, H=500.0)
    mats = [(ElasticConstants(mu=MU, kappa=KAPPA), law)]
    return EnergyWorkspace(mesh, build_grad_operators(mesh), mats,
                           tractions=tractions)


def shear_field(mesh, gamma):
    u = np.zeros((mesh.n_nodes, 3))
    u[:, 0] = gamma * mesh.nodes[:, 1]
    return u


def test_elastic_shear_loss_value():
    """Unit cube under engineering shear 0.04: loss = 2 mu eps12^2 * V."""
    mesh = generate_structured_box((1.0, 1.0, 1.0), (1, 1, 1))
    ws = make_ws(mesh)
    loss = ws.loss_for_displacement(shear_field(mesh, 0.04))
    np.testing.assert_allclose(loss, 0.307696, rtol=1e-12)
    assert not np.any(ws.scratch.ebar_p > 0)


def test_loss_scales_with_volume():
    mesh = generate_structured_box((2.0, 1.0, 3.0), (2, 1, 3))
    ws = make_ws(mesh)
    loss = ws.loss_for_displacement(shear_field(mesh, 0.04))
    np.testing.assert_allclose(loss, 6.0 * 0.307696, rtol=1e-12)


def test_external_potential_value():
    """Rigid translation against a face traction: -t . u * area."""
    mesh = generate_structured_box((2.0, 1.0, 1.0), (2, 1, 1))
    trac = TractionBC(side_sets=("y_max",), vector=(0.0, 3.0, 0.0), name="t")
    ws = make_ws(mesh, tractions=[trac])
    ws.set_load_factor(0.5)
    u = np.zeros((mesh.n_nodes, 3))
    u[:, 1] = 0.25
    # area of y_max is 2, traction 1.5 after scaling, u_y = 0.25
    np.testing.assert_allclose(ws.external_potential(u), -2.0 * 1.5 * 0.25,
                               rtol=1e-13)
    np.testing.assert_allclose(ws.loss_for_displacement(u),
                               -0.75, rtol=1e-13)


def test_traction_from_node_set():
    """A node-set name resolves to the boundary facets it spans."""
    mesh = generate_structured_box((1.0, 1.0, 1.0), (2, 2, 2))
    trac = TractionBC(side_sets=("z_max",), vector=(0.0, 0.0, 2.0), name="t")
    ws = make_ws(mesh, tractions=[trac])
    # the node set and the side set describe the same four facets
    u = np.zeros((mesh.n_nodes, 3))
    u[:, 2] = 1.0
    np.testing.assert_allclose(ws.external_potential(u), -2.0, rtol=1e-13)


def test_reevaluation_is_bit_identical():
    mesh = generate_structured_box((1.0, 1.0, 1.0), (2, 2, 2))
    ws = make_ws(mesh)
    rng = np.random.default_rng(0)
    u1 = 0.05 * rng.standard_normal((mesh.n_nodes, 3))
    u2 = 0.05 * rng.standard_normal((mesh.n_nodes, 3))
    first = ws.loss_for_displacement(u1)
    sig_first = ws.scratch.sigma.copy()
    ws.loss_for_displacement(u2)
    again = ws.loss_for_displacement(u1)
    assert first == again
    np.testing.assert_array_equal(ws.scratch.sigma, sig_first)


def test_commit_moves_baseline():
    mesh = generate_structured_box((1.0, 1.0, 1.0), (1, 1, 1))
    ws = make_ws(mesh)
    u = shear_field(mesh, 0.2)             # well past yield
    ws.loss_for_displacement(u)
    assert ws.scratch.ebar_p[0] > 0
    ws.commit()
    np.testing.assert_array_equal(ws.committed_strain,
                                  ws.ops.strains(u))
    # re-evaluating the same field is now a zero increment: elastic branch,
    # state unchanged
    ws.loss_for_displacement(u)
    np.testing.assert_array_equal(ws.scratch.sigma, ws.committed.sigma)
    np.testing.assert_array_equal(ws.scratch.ebar_p, ws.committed.ebar_p)


def test_multi_material_assignment():
    mesh = generate_structured_box((2.0, 1.0, 1.0), (2, 1, 1))
    mesh.mat_id = np.array([0, 1], dtype=np.int64)
    consts = ElasticConstants(mu=MU, kappa=KAPPA)
    mats = [(consts, HardeningLaw(sigma_y0=50.0, H=500.0)),
            (consts, HardeningLaw(sigma_y0=80.0, H=500.0))]
    ws = EnergyWorkspace(mesh, build_grad_operators(mesh), mats)
    ws.loss_for_displacement(shear_field(mesh, 0.2))
    assert ws.scratch.ebar_p[0] > ws.scratch.ebar_p[1] > 0


def test_displacement_respects_bc():
    mesh = generate_structured_box((1.0, 1.0, 1.0), (2, 2, 2))
    ws = make_ws(mesh)
    bcs = [DirichletBC(node_sets=("x_min",), axis=0,
                       coeffs=(0.0, 0.0, 0.0, 0.125), kind="const", name="a")]
    mask, offset = build_mask_offset(mesh, bcs, factor=0.8)
    ws.set_bc(mask, offset)
    net = init_network((3, 8, 3), seed=0)
    u = ws.displacement(net)
    np.testing.assert_allclose(u[mesh.node_sets["x_min"], 0], 0.1,
                               rtol=1e-13)


@pytest.mark.parametrize("mode,factor,traction", [
    ("isotropic", 0.02, False), ("isotropic", 0.2, False),
    ("kinematic", 0.02, False), ("kinematic", 0.2, False),
    ("isotropic", 0.2, True),
], ids=["isotropic-0.02", "isotropic-0.2", "kinematic-0.02", "kinematic-0.2",
        "isotropic-0.2-traction"])
def test_parameter_gradient_matches_fd(mode, factor, traction):
    """Full-network gradient against central differences, elastic (0.02)
    and plastic (0.2) regimes, both hardening modes, and once with a
    traction doing work on the free y displacements."""
    law = HardeningLaw(sigma_y0=SY0, H=500.0 * (mode == "isotropic"),
                       C=500.0 * (mode == "kinematic"), mode=mode)
    mesh = generate_structured_box((1.0, 1.0, 1.0), (2, 2, 1))
    bcs = [DirichletBC(node_sets=("x_min", "x_max", "y_min", "y_max"),
                       axis=0, coeffs=(0.0, 1.0, 0.0, 0.0), kind="affine",
                       name="drive"),
           DirichletBC(node_sets=("z_min", "z_max"), axis=2,
                       coeffs=(0.0, 0.0, 0.0, 0.0), kind="const", name="z")]
    mask, offset = build_mask_offset(mesh, bcs, factor=factor)

    net = init_network((3, 6, 3), seed=3)
    p0 = 0.05 * net.get_params()
    net.set_params(p0)

    tractions = [TractionBC(side_sets=("y_max",), vector=(0.0, 30.0, 0.0),
                            name="t")] if traction else ()
    ws = make_ws(mesh, law=law, tractions=tractions)
    ws.set_bc(mask, offset)
    ws.set_load_factor(factor)
    loss0, grad = ws.loss_and_grad(net)
    yielded = np.any(ws.scratch.ebar_p > 0)
    assert yielded == (factor > 0.1)

    h = 1e-6
    fd = np.empty_like(p0)
    for i in range(p0.size):
        pp, pm = p0.copy(), p0.copy()
        pp[i] += h
        pm[i] -= h
        net.set_params(pp)
        fp = ws.loss(net)
        net.set_params(pm)
        fm = ws.loss(net)
        fd[i] = (fp - fm) / (2 * h)
    # central differences carry cancellation noise ~ eps*|loss|/h on
    # near-zero components, so the absolute floor scales with the loss
    noise = 60 * np.finfo(float).eps * max(1.0, abs(loss0)) / h
    np.testing.assert_allclose(fd, grad, rtol=5e-6, atol=noise)


def _oracle_traction_loads(mesh, tractions):
    """Facet geometry in the form oracle.total_free_energy reads, built
    from the mesh helpers rather than from the workspace."""
    loads = []
    for trac in tractions:
        pairs = np.concatenate([mesh.side_sets[s] if s in mesh.side_sets
                                else extract_boundary_facets(mesh, s)
                                for s in trac.side_sets])
        corners = facet_corners(mesh, pairs)
        packed = np.full((len(corners), 4), -1, dtype=np.int64)
        for i, c in enumerate(corners):
            packed[i, :len(c)] = c
        loads.append(SimpleNamespace(
            corners=packed, n_corners=np.array([len(c) for c in corners]),
            area=np.array([facet_area_normal(mesh, c)[0] for c in corners]),
            base_vector=np.asarray(trac.vector, dtype=float)))
    return loads


def test_loss_with_tractions_matches_oracle():
    """Two plastic steps on a jittered two-material box loaded by a side-set
    and a node-set traction: the workspace loss equals the brute-force
    oracle's re-evaluation."""
    mesh = generate_structured_box((2.0, 1.0, 1.0), (4, 2, 2))
    rng = np.random.default_rng(7)
    mesh.nodes += 0.08 * rng.uniform(-1.0, 1.0, mesh.nodes.shape)
    mesh.mat_id = np.arange(mesh.n_elements) % 2
    consts = ElasticConstants(mu=MU, kappa=KAPPA)
    mats = [(consts, HardeningLaw(sigma_y0=SY0, H=500.0)),
            (consts, HardeningLaw(sigma_y0=SY0, C=500.0, mode="kinematic"))]
    tractions = [TractionBC(side_sets=("x_max",), vector=(20.0, 5.0, 0.0),
                            name="side"),
                 TractionBC(side_sets=("z_max",), vector=(0.0, 3.0, -7.0),
                            name="node")]
    del mesh.side_sets["z_max"]          # force the node-set lookup
    ops = build_grad_operators(mesh)
    ws = EnergyWorkspace(mesh, ops, mats, tractions=tractions)
    loads = _oracle_traction_loads(mesh, tractions)

    for factor in (0.7, 1.3):
        ws.set_load_factor(factor)
        u = shear_field(mesh, 0.15 * factor) \
            + 0.01 * rng.standard_normal((mesh.n_nodes, 3))
        committed = ws.committed.copy()
        strain = ws.committed_strain.copy()
        loss = ws.loss_for_displacement(u)
        assert np.any(ws.scratch.ebar_p > committed.ebar_p)
        want = oracle.total_free_energy(mesh, ops, mats, committed, strain, u,
                                        factor=factor, traction_loads=loads)
        np.testing.assert_allclose(loss, want, rtol=1e-12)
        ws.commit()


def test_loss_gradient_is_internal_force():
    """The loss is stationary exactly at equilibrium: over two committed
    plastic steps on a jittered box of alternating isotropic and kinematic
    elements, central differences of the loss in nodal displacements match
    the internal force sum_e measure_e dN/dX sigma_e, assembled here
    element by element."""
    mesh = generate_structured_box((2.0, 1.0, 1.0), (4, 2, 2))
    rng = np.random.default_rng(7)
    mesh.nodes += 0.08 * rng.uniform(-1.0, 1.0, mesh.nodes.shape)
    mesh.mat_id = np.arange(mesh.n_elements) % 2
    consts = ElasticConstants(mu=MU, kappa=KAPPA)
    mats = [(consts, HardeningLaw(sigma_y0=SY0, H=500.0)),
            (consts, HardeningLaw(sigma_y0=SY0, C=500.0, mode="kinematic"))]
    ops = build_grad_operators(mesh)
    ws = EnergyWorkspace(mesh, ops, mats)
    dofs = rng.choice(mesh.n_nodes * 3, size=30, replace=False)
    h = 1e-6

    for factor in (0.7, 1.3):
        u = shear_field(mesh, 0.15 * factor) \
            + 0.01 * rng.standard_normal((mesh.n_nodes, 3))
        ws.loss_for_displacement(u)
        grew = ws.scratch.ebar_p > ws.committed.ebar_p
        assert grew[mesh.mat_id == 0].any() and grew[mesh.mat_id == 1].any()
        sigma = t2.to_matrix(ws.scratch.sigma)
        f_int = np.zeros((mesh.n_nodes, 3))
        for e in range(mesh.n_elements):
            op = ops.element(e)
            f_int[op.nodes] += op.measure * op.dndx @ sigma[e]

        fd = np.empty(dofs.size)
        for j, dof in enumerate(dofs):
            up, um = u.copy(), u.copy()
            up.flat[dof] += h
            um.flat[dof] -= h
            fd[j] = (ws.loss_for_displacement(up)
                     - ws.loss_for_displacement(um)) / (2 * h)
        err = np.max(np.abs(fd - f_int.flat[dofs]))
        assert err <= 1e-6 * np.max(np.abs(f_int)), err

        ws.loss_for_displacement(u)
        ws.commit()
