"""Energy assembly: values, exact parameter gradients, determinism."""

import weakref
from types import SimpleNamespace

import numpy as np
import pytest

import demplast.tensor as t2
from demplast import material, oracle
from demplast.bc import BCError, DirichletBC, TractionBC, \
    build_mask_offset
from demplast.material import (ElasticConstants, HardeningLaw, PlasticState,
                               return_map)
from demplast.mesh import build_grad_operators, extract_boundary_facets, \
    facet_area_normal, facet_corners, generate_structured_box
from demplast.energy import EnergyWorkspace
from demplast.network import _BLOCK, Network, NetworkError, init_network
from demplast.presets import generate_quarter_plate_hole

from conftest import KAPPA, MU, SY0, mixed_box_mesh
from test_material import head_return_map


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


@pytest.mark.parametrize("name", ["centre", "none"],
                         ids=["interior-node-set", "empty-side-set"])
def test_traction_with_no_facet_rejected(name):
    """A traction whose sets hold no boundary facet raises, naming it and
    its sets, instead of applying no load."""
    mesh = generate_structured_box((2.0, 2.0, 2.0), (2, 2, 2))
    (centre,) = np.flatnonzero((mesh.nodes == 1.0).all(axis=1))
    mesh.node_sets["centre"] = np.array([centre])
    mesh.side_sets["none"] = np.empty((0, 2), dtype=np.int64)
    trac = TractionBC(side_sets=(name,), vector=(1.0, 0.0, 0.0), name="pull")
    with pytest.raises(BCError, match=f"traction pull: sets '{name}' hold "
                                      "no boundary facet"):
        make_ws(mesh, tractions=[trac])


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


def _jittered_box():
    mesh = generate_structured_box((2.0, 1.0, 1.5), (6, 4, 3))
    mesh.nodes += 0.05 * np.random.default_rng(8).uniform(
        -1.0, 1.0, mesh.nodes.shape)
    return mesh


def _mixed_box_without_side_sets():
    """Its side sets hold only hex faces, so a traction on x_min resolves
    the node set: tet4 and hex8 boundary facets, interleaved."""
    mesh = mixed_box_mesh((4, 3, 2))
    mesh.side_sets.clear()
    return mesh


TRACTION_CASES = {
    "box y_max": (_jittered_box, "y_max"),
    "plate-hole top": (generate_quarter_plate_hole, "top"),
    "mixed x_min": (_mixed_box_without_side_sets, "x_min"),
}


@pytest.mark.parametrize("case", sorted(TRACTION_CASES))
def test_traction_load_matches_per_facet_loop(case):
    """The batched facet areas give the load of a per-facet loop over
    ``facet_area_normal`` to rounding."""
    build, name = TRACTION_CASES[case]
    mesh = build()
    vector = np.array([3.0, -1.5, 0.25])
    ws = make_ws(mesh, tractions=[TractionBC(side_sets=(name,),
                                             vector=tuple(vector), name="t")])
    pairs = mesh.side_sets[name] if name in mesh.side_sets \
        else extract_boundary_facets(mesh, name)
    corners = facet_corners(mesh, pairs)
    assert corners
    if case.startswith("mixed"):
        assert {len(c) for c in corners} == {3, 4}
    want = np.zeros((mesh.n_nodes, 3))
    for c in corners:
        area, _ = facet_area_normal(mesh, c)
        want[c] += area / len(c) * vector
    np.testing.assert_allclose(ws.load, want, rtol=1e-14, atol=0)


def test_traction_on_node_set_loads_only_the_surface():
    """A node set that reaches into the body loads the boundary faces it
    spans and no interior face: a unit traction on ``all`` of a cube of
    side 2 carries the cube's surface area, 24."""
    mesh = generate_structured_box((2.0, 2.0, 2.0), (2, 2, 2))
    ws = make_ws(mesh, tractions=[
        TractionBC(side_sets=("all",), vector=(1.0, 0.0, 0.0), name="t")])
    assert ws.load[:, 0].sum() == 24.0
    assert not ws.load[:, 1:].any()


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
    bcs = [DirichletBC(node_sets=("x_min",), axis="x",
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
                       axis="x", coeffs=(0.0, 1.0, 0.0, 0.0), kind="affine",
                       name="drive"),
           DirichletBC(node_sets=("z_min", "z_max"), axis="z",
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


def _two_material_problem():
    """A jittered box of alternating isotropic and kinematic elements,
    pulled along x and loaded by a traction on y_max, with a network
    whose output is large enough to yield."""
    mesh = generate_structured_box((2.0, 1.0, 1.0), (4, 2, 2))
    rng = np.random.default_rng(8)
    mesh.nodes += 0.08 * rng.uniform(-1.0, 1.0, mesh.nodes.shape)
    mesh.mat_id = np.arange(mesh.n_elements) % 2
    consts = ElasticConstants(mu=MU, kappa=KAPPA)
    mats = [(consts, HardeningLaw(sigma_y0=SY0, H=500.0)),
            (consts, HardeningLaw(sigma_y0=SY0, C=500.0, mode="kinematic"))]
    tractions = [TractionBC(side_sets=("y_max",), vector=(0.0, 20.0, 0.0),
                            name="t")]
    ws = EnergyWorkspace(mesh, build_grad_operators(mesh), mats,
                         tractions=tractions)
    bcs = [DirichletBC(node_sets=("x_min", "x_max"), axis="x",
                       coeffs=(0.0, 0.3, 0.0, 0.0), kind="affine",
                       name="pull")]
    net = init_network((3, 8, 3), seed=4, zero_output_layer=False)
    net.set_params(0.3 * net.get_params())
    return mesh, ws, bcs, net


def test_scratch_matches_plain_return_map():
    """After an evaluation, the scratch states equal a plain return map
    from the committed state bit for bit, over two committed steps."""
    mesh, ws, bcs, net = _two_material_problem()
    for factor in (0.7, 1.3):
        ws.set_bc(*build_mask_offset(mesh, bcs, factor))
        ws.set_load_factor(factor)
        u = ws.displacement(net)
        ws.loss_for_displacement(u)
        want, _ = return_map(ws.mu, ws.kappa, ws.sigma_y0, ws.H, ws.C,
                             ws.committed,
                             ws.ops.strains(u) - ws.committed_strain)
        assert (ws.scratch.ebar_p > ws.committed.ebar_p).any()
        for name in ("sigma", "eps_p", "ebar_p", "q"):
            assert getattr(ws.scratch, name).tobytes() \
                == getattr(want.state, name).tobytes(), name
        ws.commit()


def test_evaluation_releases_the_last_results_first(monkeypatch):
    """When an evaluation runs its return map, the last evaluation's
    ``ReturnResult`` and strain are already unreachable, so the workspace
    never holds two evaluations' results; the last ones stay readable
    between evaluations."""
    mesh, ws, bcs, net = _two_material_problem()
    ws.set_bc(*build_mask_offset(mesh, bcs, 1.0))
    ws.set_load_factor(1.0)
    last, alive = [], []

    def spy(*args):
        alive.append([ref() is not None for ref in last])
        res = return_map(*args)
        last[:] = [weakref.ref(res[0])]
        return res

    monkeypatch.setattr(material, "return_map", spy)
    u = ws.displacement(net, keep=False)
    for evaluate in (lambda: ws.loss_and_grad(net), lambda: ws.loss(net),
                     lambda: ws.loss_for_displacement(u)):
        evaluate()
        assert last[0]() is not None and ws.scratch.ebar_p.any()
        last.append(weakref.ref(ws.scratch_strain))
    ws.commit()
    assert alive == [[], [False, False], [False, False]]


def test_commit_twice_without_evaluation_changes_nothing():
    """A second commit with no evaluation in between keeps the committed
    state and strain, and the next evaluation gives the bits of a
    workspace that committed once."""
    runs = []
    for commits in (1, 2):
        mesh, ws, bcs, net = _two_material_problem()
        ws.set_bc(*build_mask_offset(mesh, bcs, 1.0))
        u = ws.displacement(net)
        ws.loss_for_displacement(u)
        ws.commit()
        state, strain = ws.committed, ws.committed_strain
        assert (state.ebar_p > 0.0).any()
        for _ in range(commits - 1):
            ws.commit()
            assert ws.committed is state and ws.committed_strain is strain
            assert ws.scratch is state
        loss = ws.loss_for_displacement(1.2 * u)
        runs.append((loss, ws.scratch.sigma.tobytes(),
                     ws.scratch.ebar_p.tobytes()))
    assert runs[0] == runs[1]


def test_no_traction_holds_no_load():
    """Without a traction there is no load array and no external work:
    the gradient is the scatter of sigma_new alone, bit for bit."""
    mesh = generate_structured_box((1.0, 1.0, 1.0), (3, 2, 2))
    ws = make_ws(mesh)
    assert ws.load is None
    net = init_network((3, 8, 3), seed=1)
    net.set_params(0.2 * np.random.default_rng(4).standard_normal(
        net.n_params))
    u = ws.displacement(net)
    assert ws.external_potential(u) == 0.0
    loss, grad = ws.loss_and_grad(net)
    assert ws.scratch.ebar_p.any()
    assert loss == ws.loss_for_displacement(u)
    ws.displacement(net)        # a kept pass, for the backward below
    adj = ws.ops.scatter_strain_gradient(ws.scratch.sigma)
    assert grad.tobytes() == net.backward(ws.mask * adj).tobytes()


@pytest.mark.parametrize("divisions, rows", [
    ((1, 2, 330), _BLOCK // 33 + 1), ((1, 10, 270), 3 * (_BLOCK // 33) + 7),
    ((60, 60, 4), 18605)], ids=["B+1", "3B+7", "18605"])
def test_loss_on_trained_network_equals_fresh_copy(divisions, rows):
    """Above one block of the loss-only pass (B columns), ``loss`` gives
    the same loss and committed states on a network that holds the
    activation buffers of its training and on a fresh copy of it: both
    passes go through the block scratch."""
    mesh = generate_structured_box((1.0, 1.0, 1.0), divisions)
    assert mesh.n_nodes == rows
    net = init_network((3, 32, 32, 3), seed=3)
    net.set_params(0.5 * np.random.default_rng(5).standard_normal(
        net.n_params))
    fresh = Network(net.weights, net.biases, net.input_shift, net.input_scale)
    runs = []
    for field in (net, fresh):
        ws = make_ws(mesh)
        if field is net:
            ws.loss_and_grad(net)
        loss = ws.loss(field)
        ws.commit()
        state = ws.committed
        runs.append((loss, ws.committed_strain.tobytes(),
                     state.sigma.tobytes(), state.eps_p.tobytes(),
                     state.ebar_p.tobytes(), state.q.tobytes()))
    assert state.ebar_p.any()
    assert runs[0] == runs[1]
    for field in (net, fresh):
        with pytest.raises(NetworkError, match="without a new forward"):
            field.backward(np.ones((rows, 3)))


def test_gradient_bitwise_equal_to_state_path():
    """Over two committed plastic steps, the parameter gradient equals, bit
    for bit, the one assembled from a plain return map of the committed
    state kept here: sigma_new scattered onto the nodes, minus the
    load, through the mask and the network's reverse pass."""
    mesh, ws, bcs, net = _two_material_problem()
    state = PlasticState.zero(mesh.n_elements)
    strain = np.zeros((mesh.n_elements, 6))
    for factor in (0.7, 1.3):
        mask, offset = build_mask_offset(mesh, bcs, factor)
        ws.set_bc(mask, offset)
        ws.set_load_factor(factor)
        _, grad = ws.loss_and_grad(net)

        u = mask * net.forward(mesh.nodes) + offset
        eps = ws.ops.strains(u)
        new, _, plastic, _ = head_return_map(ws.mu, ws.kappa, ws.sigma_y0,
                                             ws.H, ws.C, state, eps - strain)
        assert plastic[mesh.mat_id == 0].any()
        assert plastic[mesh.mat_id == 1].any()
        adj = ws.ops.scatter_strain_gradient(new.sigma)
        adj -= factor * ws.load
        want = net.backward(mask * adj)
        assert grad.tobytes() == want.tobytes()

        ws.commit()
        state, strain = new, eps
