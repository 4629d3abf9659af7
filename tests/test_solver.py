"""End-to-end training and inference on small meshes."""

import os

import numpy as np
import pytest

from demplast import post
from demplast.bc import DirichletBC, LoadProgram, TractionBC, build_mask_offset
from demplast.config import build_problem
from demplast.material import ElasticConstants, HardeningLaw, PlasticState
from demplast.mesh import build_grad_operators, generate_structured_box
from demplast.optim import ConvergenceMonitor, Lbfgs
from demplast.oracle import analytic_shear_curve, total_free_energy
from demplast.presets import CYCLE, get_preset
from demplast.tensor import LONG_ARRAY
from demplast.solver import (NetworkConfig, OptimizerConfig, Problem,
                             SolverError, infer, make_workspace, minimize,
                             read_state, run, write_state)

from conftest import KAPPA, MU, SY0, kuhn_tet_mesh


def all_node_shear_problem(divisions, factors, mode="isotropic", tol=1e-6,
                           seed=0):
    """Every node pinned to u = (0.25 * factor * y, 0, 0): training only
    has to discover the constant-zero correction."""
    mesh = generate_structured_box((1.0, 1.0, 1.0), divisions)
    law = HardeningLaw(sigma_y0=SY0, H=500.0 * (mode == "isotropic"),
                       C=500.0 * (mode == "kinematic"), mode=mode)
    bcs = [
        DirichletBC(node_sets=("all",), axis="x", coeffs=(0.0, 0.25, 0.0, 0.0),
                    kind="affine", name="drive"),
        DirichletBC(node_sets=("all",), axis="y", coeffs=(0.0,) * 4,
                    kind="const", name="lock_y"),
        DirichletBC(node_sets=("all",), axis="z", coeffs=(0.0,) * 4,
                    kind="const", name="lock_z"),
    ]
    return Problem(
        mesh=mesh,
        materials=[(ElasticConstants(mu=MU, kappa=KAPPA), law)],
        dirichlet=bcs,
        program=LoadProgram(factors=tuple(factors)),
        network=NetworkConfig(widths=(3, 8, 3), seed=seed),
        optimizer=OptimizerConfig(tol=tol, patience=10,
                                  max_iters_per_step=200),
    )


def test_zero_program_stays_exactly_zero():
    problem = all_node_shear_problem((1, 1, 1), [0.0, 0.0])
    records = run(problem)
    for rec in records:
        assert rec.loss == 0.0
        np.testing.assert_array_equal(rec.u, 0.0)
        np.testing.assert_array_equal(rec.sigma, 0.0)
        np.testing.assert_array_equal(rec.ebar_p, 0.0)


@pytest.mark.parametrize("mode", ["isotropic", "kinematic"])
def test_cyclic_shear_tracks_point_recursion(mode):
    """Fully constrained single element through a full load reversal: the
    committed stresses must land on the scalar recursion at every step."""
    problem = all_node_shear_problem((1, 1, 1), CYCLE, mode=mode)
    records = run(problem)
    law = problem.materials[0][1]
    tau, ebar, _ = analytic_shear_curve(ElasticConstants(mu=MU, kappa=KAPPA),
                                        law, 0.25 * np.array(CYCLE))
    for rec, t, e in zip(records, tau, ebar):
        np.testing.assert_allclose(rec.sigma[0, 3], t, atol=1e-10)
        np.testing.assert_allclose(rec.ebar_p[0], e, atol=1e-12)
        assert rec.converged


def jittered_cantilever_problem():
    """A jittered cantilever, so that measures and strains vary from
    element to element."""
    mesh = generate_structured_box((2.0, 1.0, 1.0), (2, 2, 1))
    mesh.nodes += np.random.default_rng(3).uniform(-0.05, 0.05,
                                                   mesh.nodes.shape)
    return Problem(
        mesh=mesh,
        materials=[(ElasticConstants(mu=MU, kappa=KAPPA),
                    HardeningLaw(sigma_y0=SY0, H=500.0))],
        dirichlet=[DirichletBC(node_sets=("x_min",), axis=a,
                               coeffs=(0.0,) * 4, kind="const")
                   for a in "xyz"],
        tractions=[TractionBC(side_sets=("x_max",), vector=(0.0, 1.0, 0.0))],
        program=LoadProgram(factors=(0.5, 1.0)),
        network=NetworkConfig(widths=(3, 8, 3)),
        optimizer=OptimizerConfig(max_iters_per_step=100))


def test_training_above_long_array_threshold_matches_oracle(tmp_path):
    """A jittered 50x50x5 box (12,500 hexes, 15,606 nodes) trains through
    the long-array forms of the reverse pass and the return map: after
    two load steps of 3 iterations at tol 0, the last loss equals the
    oracle's term-by-term free energy from the committed state of the
    step before it to 1e-10 relative."""
    mesh = generate_structured_box((5.0, 5.0, 1.0), (50, 50, 5))
    lo, hi = mesh.nodes.min(axis=0), mesh.nodes.max(axis=0)
    inner = np.all((mesh.nodes > lo) & (mesh.nodes < hi), axis=1)
    mesh.nodes[inner] += 0.1 * (hi - lo) / (50, 50, 5) \
        * np.random.default_rng(5).uniform(-1.0, 1.0, (inner.sum(), 3))
    assert min(mesh.n_nodes, mesh.n_elements) > LONG_ARRAY
    problem = Problem(
        mesh=mesh,
        materials=[(ElasticConstants(mu=MU, kappa=KAPPA),
                    HardeningLaw(sigma_y0=SY0, H=500.0))],
        dirichlet=[DirichletBC(node_sets=("x_min",), axis=a,
                               coeffs=(0.0,) * 4, kind="const")
                   for a in "xyz"]
        + [DirichletBC(node_sets=("x_max",), axis="x",
                       coeffs=(0.0, 0.0, 0.0, 0.3), kind="const")],
        program=LoadProgram(factors=(0.5, 1.0)),
        network=NetworkConfig(widths=(3, 32, 32, 3)),
        optimizer=OptimizerConfig(tol=0.0, max_iters_per_step=3))
    first, last = run(problem, out_dir=str(tmp_path))
    assert last.iterations == 3 and (last.ebar_p > 0.0).any()
    committed = read_state(tmp_path / "state_1.dat", mesh.n_elements)
    recheck = total_free_energy(mesh, build_grad_operators(mesh),
                                problem.materials, committed, first.strain,
                                last.u, factor=last.factor)
    assert abs(last.loss - recheck) <= 1e-10 * abs(recheck)


def run_and_infer(problem, tmp_path):
    """Records of ``run`` and of ``infer`` replaying it, by output dir."""
    runs = {"run": run(problem, out_dir=str(tmp_path / "run"))}
    runs["infer"] = infer(problem, str(tmp_path / "run"),
                          out_dir=str(tmp_path / "infer"))
    return runs


def test_run_and_infer_write_curve_with_mesh_measures(tmp_path):
    """curve.csv is the curve weighted by the element measures of the
    run's mesh."""
    problem = jittered_cantilever_problem()
    measures = build_grad_operators(problem.mesh).measures()
    assert np.ptp(measures) > 0.01 * measures.mean()
    for name, records in run_and_infer(problem, tmp_path).items():
        expected = tmp_path / f"{name}.csv"
        post.curve_csv(records, measures, str(expected))
        assert ((tmp_path / name / "curve.csv").read_text()
                == expected.read_text())


def test_all_tet_mesh_trains_and_infer_replays_it(tmp_path):
    """Three shear-kin steps on the Kuhn-tet split of its box: ``infer``
    writes the curve and the states of ``run`` byte for byte."""
    spec, _ = get_preset("shear-kin").build()
    spec.factors = spec.factors[:3]
    mesh = kuhn_tet_mesh()
    assert build_grad_operators(mesh).conn.shape == (6 * 16, 4)
    runs = run_and_infer(build_problem(spec, base_dir=".", mesh=mesh),
                         tmp_path)
    assert [r.converged for r in runs["run"]] == [True] * 3
    for name in ["curve.csv"] + [f"state_{k}.dat" for k in (1, 2, 3)]:
        assert (tmp_path / "run" / name).read_bytes() == \
            (tmp_path / "infer" / name).read_bytes()


def test_run_and_infer_vtk_equal_plain_write_vtk(tmp_path, monkeypatch):
    """Each step's VTK file, written with the grid formatted once per run,
    equals a plain ``write_vtk`` of that step's record."""
    problem = jittered_cantilever_problem()
    grids = []
    vtk_grid = post.vtk_grid
    monkeypatch.setattr(post, "vtk_grid",
                        lambda mesh: grids.append(mesh) or vtk_grid(mesh))
    runs = run_and_infer(problem, tmp_path)
    assert len(grids) == 2 and all(m is problem.mesh for m in grids)
    for name, records in runs.items():
        for r in records:
            expected = tmp_path / f"{name}_{r.step}.vtk"
            post.write_vtk(problem.mesh, str(expected),
                           point_data={"displacement": r.u},
                           cell_data={"mises": r.mises, "peeq": r.ebar_p},
                           cell_tensors={"stress": r.sigma},
                           title=f"load step {r.step} factor {r.factor}")
            assert ((tmp_path / name / f"step_{r.step}.vtk").read_bytes()
                    == expected.read_bytes())


def test_run_writes_step_outputs(tmp_path):
    problem = all_node_shear_problem((1, 1, 1), [0.5, 1.0])
    out = tmp_path / "run"
    records = run(problem, out_dir=str(out))
    assert len(records) == 2
    for k in (1, 2):
        assert (out / f"step_{k}.ckpt").exists()
        assert (out / f"state_{k}.dat").exists()
        assert (out / f"step_{k}.vtk").exists()
    state = read_state(str(out / "state_2.dat"), problem.mesh.n_elements)
    np.testing.assert_array_equal(state.sigma, records[1].sigma)
    np.testing.assert_array_equal(state.ebar_p, records[1].ebar_p)


def test_records_keep_their_step_values(tmp_path):
    """Records hold the workspace's arrays without copies; after a later
    plastic step, step 1's record still equals its state file and the
    strain of its own displacement, bit for bit."""
    problem = all_node_shear_problem((2, 2, 1), [1.0, -0.5],
                                     mode="kinematic")
    records = run(problem, out_dir=str(tmp_path))
    first = records[0]
    assert (first.ebar_p > 0.0).all()
    assert (records[1].ebar_p > first.ebar_p).all()
    saved = read_state(str(tmp_path / "state_1.dat"), problem.mesh.n_elements)
    assert first.sigma.tobytes() == saved.sigma.tobytes()
    assert first.ebar_p.tobytes() == saved.ebar_p.tobytes()
    strain = build_grad_operators(problem.mesh).strains(first.u)
    assert first.strain.tobytes() == strain.tobytes()


def test_state_file_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    n = 7
    state = PlasticState(sigma=rng.standard_normal((n, 6)),
                         eps_p=rng.standard_normal((n, 6)),
                         ebar_p=rng.random(n),
                         q=rng.standard_normal((n, 6)))
    path = tmp_path / "state.dat"
    write_state(str(path), state)
    assert path.stat().st_size == n * 19 * 8
    back = read_state(str(path), n)
    np.testing.assert_array_equal(back.sigma, state.sigma)
    np.testing.assert_array_equal(back.eps_p, state.eps_p)
    np.testing.assert_array_equal(back.ebar_p, state.ebar_p)
    np.testing.assert_array_equal(back.q, state.q)


def test_read_state_size_mismatch(tmp_path):
    path = tmp_path / "state.dat"
    np.zeros(5).tofile(str(path))
    with pytest.raises(SolverError, match="expected"):
        read_state(str(path), 7)


def test_inference_replays_on_finer_mesh(tmp_path):
    """Checkpoints from a single-element run drive a refined mesh of the
    same cube; the affine constraint makes the fields mesh-independent."""
    factors = [1 / 3, 2 / 3, 1.0, 0.5]
    coarse = all_node_shear_problem((1, 1, 1), factors)
    out = tmp_path / "train"
    train_records = run(coarse, out_dir=str(out))

    fine = all_node_shear_problem((2, 2, 2), factors)
    infer_out = tmp_path / "replay"
    replay = infer(fine, str(out), out_dir=str(infer_out))

    assert len(replay) == len(factors)
    for tr, rp in zip(train_records, replay):
        # one stress state everywhere, equal to the coarse element's
        assert np.ptp(rp.sigma, axis=0).max() < 1e-12
        np.testing.assert_allclose(rp.sigma[0], tr.sigma[0], atol=1e-10)
        np.testing.assert_allclose(rp.ebar_p.mean(), tr.ebar_p[0],
                                   atol=1e-12)
    for k in range(1, len(factors) + 1):
        assert (infer_out / f"state_{k}.dat").exists()
        assert (infer_out / f"step_{k}.vtk").exists()
        assert not (infer_out / f"step_{k}.ckpt").exists()


def test_infer_missing_checkpoint_names_step(tmp_path):
    problem = all_node_shear_problem((1, 1, 1), [0.5, 1.0])
    out = tmp_path / "train"
    run(problem, out_dir=str(out))
    os.remove(out / "step_2.ckpt")
    with pytest.raises(SolverError, match="step 2"):
        infer(problem, str(out))


def test_divergent_step_reports_progress(tmp_path):
    mesh = generate_structured_box((1.0, 1.0, 1.0), (1, 1, 1))
    law = HardeningLaw(sigma_y0=SY0, H=500.0)
    # step 1 (factor 0, zero-init net) has identically zero loss and
    # gradient, so it converges untouched; step 2 pulls x_min and the
    # absurd learning rate overflows the parameters
    bcs = [DirichletBC(node_sets=("x_min",), axis="x",
                       coeffs=(0.0, 0.0, 0.0, 0.3), kind="const", name="pull")]
    problem = Problem(
        mesh=mesh,
        materials=[(ElasticConstants(mu=MU, kappa=KAPPA), law)],
        dirichlet=bcs,
        program=LoadProgram(factors=(0.0, 1.0)),
        network=NetworkConfig(widths=(3, 4, 3), seed=1),
        optimizer=OptimizerConfig(lr=1e160, patience=2,
                                  max_iters_per_step=50),
    )
    with pytest.raises(SolverError, match="1 completed step"):
        with np.errstate(all="ignore"):
            run(problem, out_dir=str(tmp_path / "out"))
    # the completed step is still on disk
    assert (tmp_path / "out" / "step_1.ckpt").exists()


def test_log_callback_sees_each_step():
    problem = all_node_shear_problem((1, 1, 1), [0.5, 1.0])
    lines = []
    run(problem, log=lines.append)
    assert len(lines) == 2
    assert "step 1" in lines[0] and "step 2" in lines[1]


def test_plate_hole_unload_step_converges():
    """At the preset's network seed 0 the elastic unload step's optimum
    is 0; with the monitor's scale floored at the previous step's |loss|
    it converges instead of running to the iteration cap."""
    spec, mesh = get_preset("plate-hole").build()
    records = run(build_problem(spec, base_dir=".", mesh=mesh))
    assert [r.converged for r in records] == [True] * 4
    assert np.max(records[-1].ebar_p) == 0.0
    assert abs(records[3].loss) <= 2e-3 * abs(records[2].loss)


def test_non_finite_final_loss_fails_before_commit(tmp_path):
    """A step whose last update overflows the parameters ends with a nan
    loss: it fails before anything of it is committed or written."""
    spec, mesh = get_preset("shear-iso").build()
    spec.factors = CYCLE[:2]
    spec.optimizer = OptimizerConfig(lr=1e160, max_iters_per_step=1)
    problem = build_problem(spec, base_dir=".", mesh=mesh)
    out = tmp_path / "out"
    with pytest.raises(SolverError,
                       match=r"step 1 .* diverged: .* 0 completed step"):
        with np.errstate(all="ignore"):
            run(problem, out_dir=str(out))
    assert not list(out.glob("step_1.*")) and not list(out.glob("state_*"))


@pytest.mark.parametrize("name", ["shear-iso", "bimat", "plate-hole"])
def test_unclamped_first_direction_cannot_pass_as_converged(name,
                                                            monkeypatch):
    """Fault injection: without the first-direction clamp, the raw
    gradient flings the field far uphill.  Step 1 must then fail, hit the
    iteration cap, or commit a loss no higher than its first evaluation's,
    never report a blown-up field as converged."""
    def unclamped(self, grad):
        return self._pairs.direction(grad) if self._pairs else grad

    losses = []
    step = Lbfgs.step

    def recording(self, eval_fn, params):
        new_params, loss = step(self, eval_fn, params)
        losses.append(loss)
        return new_params, loss

    monkeypatch.setattr(Lbfgs, "_direction", unclamped)
    monkeypatch.setattr(Lbfgs, "step", recording)
    spec, mesh = get_preset(name).build()
    spec.factors = spec.factors[:1]
    try:
        (rec,) = run(build_problem(spec, base_dir=".", mesh=mesh))
    except SolverError:
        return
    assert not rec.converged or rec.loss <= losses[0]


class NodalField:
    """The ``Network`` surface over an identity parametrization: the
    parameters are the nodal values themselves."""

    def __init__(self, u):
        self.u = np.array(u, dtype=float)

    def forward(self, x, *, keep=True):
        return self.u.copy()

    def backward(self, upstream):
        return upstream.ravel()

    def get_params(self):
        return self.u.ravel().copy()

    def set_params(self, p):
        self.u = p.reshape(self.u.shape)


@pytest.mark.parametrize("name, gap", [("bimat", 9.0e-4),
                                       ("plate-hole", 2.55e-2),
                                       ("shear-iso", 3.9e-9)])
def test_dem_step_one_loss_above_nodal_reference(name, gap):
    """Step 1 from the virgin state, minimized over the nodal values
    through the same loop as DEM, bounds DEM's loss from below; energies
    are compared, not u, since plate-hole's hex mesh has hourglass
    modes."""
    spec, mesh = get_preset(name).build()
    spec.factors = spec.factors[:1]
    problem = build_problem(spec, base_dir=".", mesh=mesh)
    dem = run(problem)[0]
    ws = make_workspace(problem)
    ws.set_bc(*build_mask_offset(problem.mesh, problem.dirichlet, dem.factor))
    ws.set_load_factor(dem.factor)
    nodal = NodalField(np.zeros_like(dem.u))
    _, converged = minimize(nodal, ws,
                            OptimizerConfig(max_iters_per_step=4000),
                            ConvergenceMonitor(10, 0.0))
    ref = ws.loss(nodal)
    assert converged
    assert dem.loss >= ref - 1e-9 * abs(ref)
    assert (dem.loss - ref) / abs(ref) <= 2.0 * gap
