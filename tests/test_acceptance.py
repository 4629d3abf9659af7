"""Shipping acceptance suite: nine end-to-end guarantees, one test each.

Every test prints a single [PASS]/[FAIL] line carrying its measured
numbers (visible with -s); the same text backs the assertion message.
"""

import os
import time

import numpy as np

import demplast.tensor as t2
from demplast.bc import DirichletBC, LoadProgram, build_mask_offset
from demplast.config import build_problem
from demplast.material import (ElasticConstants, HardeningLaw, PlasticState,
                               drive_point, return_map)
from demplast.mesh import (VTK_CELL_TYPE, Mesh, build_grad_operators,
                           generate_structured_box)
from demplast.network import Network
from demplast.optim import ConvergenceMonitor
from demplast.oracle import (analytic_shear_curve, gradient_audit,
                             total_free_energy)
from demplast.post import read_vtk, write_vtk
from demplast.presets import CYCLE, PRESETS, get_preset
from demplast.solver import (NetworkConfig, OptimizerConfig, Problem, infer,
                             make_network, make_workspace, run)

from conftest import KAPPA, MU, SY0, rand_sym


def _check(label: str, ok: bool, detail: str) -> None:
    word = "PASS" if ok else "FAIL"
    print(f"[{word}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _shear_bcs(node_sets=("x_min", "x_max", "y_min", "y_max")):
    """Drive u_x = 0.25*factor*y on the given sets, lock u_y there and
    u_z on the z faces."""
    return [
        DirichletBC(node_sets=node_sets, axis="x",
                    coeffs=(0.0, 0.25, 0.0, 0.0), kind="affine",
                    name="drive"),
        DirichletBC(node_sets=node_sets, axis="y", coeffs=(0.0,) * 4,
                    kind="const", name="hold_y"),
        DirichletBC(node_sets=("z_min", "z_max"), axis="z", coeffs=(0.0,) * 4,
                    kind="const", name="hold_z"),
    ]


def test_1_radial_return_consistency_on_random_batch():
    """1e5 random committed states and increments, random hardening mix:
    nonnegative plastic increments, consistency closed to 1e-8*sigma_y0,
    traceless plastic strain, bitwise-exact elastic branch, under 10 s."""
    rng = np.random.default_rng(2024)
    n = 100_000
    t0 = time.perf_counter()
    H = rng.uniform(0.0, 800.0, n)
    C = rng.uniform(0.0, 800.0, n)

    # one preparatory update from the virgin state yields a valid
    # committed batch (mixed on/inside the yield surface)
    first, _ = return_map(MU, KAPPA, SY0, H, C, PlasticState.zero((n,)),
                          rand_sym(rng, (n,), 0.02))
    committed = first.state
    d_eps = rand_sym(rng, (n,), 0.02)
    res, aux = return_map(MU, KAPPA, SY0, H, C, committed, d_eps)
    elapsed = time.perf_counter() - t0

    new = res.state
    n_plast = int(res.yielded.sum())
    f_new = t2.norm(t2.deviator(new.sigma - new.q)) \
        - np.sqrt(2.0 / 3.0) * (SY0 + H * new.ebar_p)
    consistency = np.abs(res.delta_gamma * f_new).max()
    trace_max = np.abs(t2.trace(new.eps_p)).max()

    # the elastic branch must return the trial stress bit for bit and
    # leave the internal variables untouched
    el = ~res.yielded
    s_trial = t2.deviator(committed.sigma) + 2.0 * MU * t2.deviator(d_eps)
    vol = KAPPA * t2.trace(d_eps) + t2.trace(committed.sigma) / 3.0
    sigma_trial = s_trial + t2.scale_identity(vol)
    exact = (np.array_equal(new.sigma[el], sigma_trial[el])
             and np.array_equal(new.eps_p[el], committed.eps_p[el])
             and np.array_equal(new.ebar_p[el], committed.ebar_p[el])
             and np.array_equal(new.q[el], committed.q[el]))

    ok = ((res.delta_gamma >= 0.0).all()
          and consistency <= 1e-8 * SY0
          and trace_max <= 1e-12
          and exact
          and 1000 < n_plast < n - 1000
          and elapsed < 10.0)
    _check("radial return batch", ok,
           f"{n_plast}/{n} plastic, max |dgamma*f| {consistency:.2e}, "
           f"max |tr eps_p| {trace_max:.2e}, elastic bit-exact {exact}, "
           f"{elapsed:.2f}s")


def test_2_point_driver_matches_closed_form_shear():
    """Tensorial point driver against the scalar shear recursion, plus the
    three measured curve features: yield stress 28.8675, isotropic plastic
    slope 116.28, kinematic reverse-yield window 57.735, each to 0.1%."""
    consts = ElasticConstants(mu=MU, kappa=KAPPA)
    iso = HardeningLaw(sigma_y0=SY0, H=500.0, C=0.0, mode="isotropic")
    kin = HardeningLaw(sigma_y0=SY0, H=0.0, C=500.0, mode="kinematic")
    t0 = time.perf_counter()

    gam = np.linspace(0.0, 0.3, 201)[1:]
    tau_a, ebar_a, _ = analytic_shear_curve(consts, iso, gam)
    path = np.zeros((len(gam), 6))
    path[:, 3] = 0.5 * gam          # tensor shear component
    tau_d = np.array([s.sigma[3] for s in drive_point(consts, iso, path)])
    agree_iso = np.abs(tau_d - tau_a).max()

    # both branches of the curve are exactly linear, so least-squares
    # fits recover them and their intersection locates the yield point
    plastic = ebar_a > 0.0
    slope, intercept = np.polyfit(gam[plastic], tau_d[plastic], 1)
    tau_y = MU * intercept / (MU - slope)

    gam2 = np.concatenate([np.linspace(0.0, 0.3, 101)[1:],
                           np.linspace(0.3, -0.3, 201)[1:]])
    tau_a2, ebar_a2, _ = analytic_shear_curve(consts, kin, gam2)
    path2 = np.zeros((len(gam2), 6))
    path2[:, 3] = 0.5 * gam2
    tau_d2 = np.array([s.sigma[3] for s in drive_point(consts, kin, path2)])
    agree_kin = np.abs(tau_d2 - tau_a2).max()

    peak = int(np.argmax(gam2))
    rev = np.arange(peak + 1, len(gam2))
    replast = rev[ebar_a2[rev] > ebar_a2[peak] + 1e-12]
    b, a = np.polyfit(gam2[replast], tau_d2[replast], 1)
    # elastic unloading line: slope mu through the load peak
    g_star = (a - tau_d2[peak] + MU * gam2[peak]) / (MU - b)
    window = tau_d2[peak] - (a + b * g_star)
    elapsed = time.perf_counter() - t0

    errs = (abs(tau_y / 28.8675 - 1.0), abs(slope / 116.28 - 1.0),
            abs(window / 57.735 - 1.0))
    ok = (agree_iso <= 1e-9 and agree_kin <= 1e-9 and max(errs) <= 1e-3
          and elapsed < 1.0)
    _check("point driver vs closed form", ok,
           f"driver agreement {max(agree_iso, agree_kin):.1e}, "
           f"tau_y {tau_y:.4f}, slope {slope:.2f}, window {window:.3f}, "
           f"rel errs {errs[0]:.1e}/{errs[1]:.1e}/{errs[2]:.1e}, "
           f"{elapsed:.2f}s")


def test_3_trained_shear_presets_track_closed_form(tmp_path):
    """Full training of both 4x4x1 shear presets through the 12-step load
    reversal; element stresses and plastic strains must track the scalar
    recursion to 1e-2 MPa / 1e-4 on average, in under five minutes."""
    t0 = time.perf_counter()
    details = []
    worst_sig = worst_ebar = 0.0
    for name in ("shear-iso", "shear-kin"):
        spec, _ = get_preset(name).build()
        problem = build_problem(spec, base_dir=str(tmp_path))
        records = run(problem)
        consts, law = problem.materials[0]
        tau, ebar, _ = analytic_shear_curve(consts, law,
                                            0.25 * np.array(spec.factors))
        dsig = np.mean([np.abs(r.sigma[:, 3] - t).mean()
                        for r, t in zip(records, tau)])
        debar = np.mean([np.abs(r.ebar_p - e).mean()
                         for r, e in zip(records, ebar)])
        worst_sig = max(worst_sig, dsig)
        worst_ebar = max(worst_ebar, debar)
        details.append(f"{name} |dsigma| {dsig:.2e} |debar| {debar:.2e}")
    elapsed = time.perf_counter() - t0
    ok = worst_sig <= 1e-2 and worst_ebar <= 1e-4 and elapsed < 300.0
    _check("trained shear vs closed form", ok,
           f"{'; '.join(details)}; {elapsed:.1f}s")


def test_4_assembled_gradient_matches_central_differences():
    """Analytic parameter gradient against central differences over 50
    sampled parameters of a 2x2x1 problem, at a strictly elastic and at a
    partly plastic operating point."""
    t0 = time.perf_counter()
    mesh = generate_structured_box((2.0, 2.0, 1.0), (2, 2, 1))
    problem = Problem(
        mesh=mesh,
        materials=[(ElasticConstants(mu=MU, kappa=KAPPA),
                    HardeningLaw(sigma_y0=SY0, H=500.0, C=0.0,
                                 mode="isotropic"))],
        dirichlet=_shear_bcs(),
        program=LoadProgram(factors=(0.02, 0.4)),
        network=NetworkConfig(widths=(3, 12, 3), seed=0, zero_init=False))
    net = make_network(problem)
    params = 0.05 * net.get_params()
    rng = np.random.default_rng(100)
    indices = rng.choice(params.size, size=50, replace=False)

    def n_yielding(factor):
        ws = make_workspace(problem)
        probe = make_network(problem)
        probe.set_params(params)
        mask, offset = build_mask_offset(problem.mesh, problem.dirichlet,
                                         factor)
        ws.set_bc(mask, offset)
        ws.set_load_factor(factor)
        ws.loss(probe)
        return int((ws.scratch.ebar_p > 0.0).sum())

    y_pre, y_post = n_yielding(0.02), n_yielding(0.4)
    rel_pre, *_ = gradient_audit(problem, params, indices, 0.02, step=2e-6)
    rel_post, *_ = gradient_audit(problem, params, indices, 0.4, step=2e-6)
    elapsed = time.perf_counter() - t0
    ok = (y_pre == 0 and y_post > 0
          and rel_pre <= 1e-6 and rel_post <= 1e-5
          and elapsed < 60.0)
    _check("gradient audit", ok,
           f"elastic point ({y_pre} yielding) rel {rel_pre:.2e}, "
           f"plastic point ({y_post} yielding) rel {rel_post:.2e}, "
           f"50 of {params.size} params, {elapsed:.1f}s")


def test_5_linear_patch_strains_and_element_measures():
    """Randomly distorted 3x3x3 meshes under a global linear field: all
    element strains coincide to 1e-12; on an affine distortion the
    one-point measures sum to the exact mapped volume to 1e-10.  A
    trilinear interior jiggle is harsher for strains but its one-point
    volume is inexact by design (quadrature degree), hence the split."""
    rng = np.random.default_rng(11)
    base = generate_structured_box((3.0, 3.0, 3.0), (3, 3, 3))

    def remade(nodes):
        return Mesh(nodes=nodes, kinds=base.kinds, conn=base.conn,
                    node_sets=base.node_sets, elem_sets=base.elem_sets,
                    side_sets=base.side_sets, mat_id=base.mat_id)

    interior = np.ones(base.n_nodes, bool)
    for name in ("x_min", "x_max", "y_min", "y_max", "z_min", "z_max"):
        interior[base.node_sets[name]] = False
    jig_nodes = base.nodes.copy()
    jig_nodes[interior] += rng.uniform(-0.15, 0.15, (int(interior.sum()), 3))

    M = rng.standard_normal((3, 3)) * 0.3 + np.eye(3)
    aff_nodes = base.nodes @ M.T
    exact_vol = abs(np.linalg.det(M)) * 27.0

    A = rng.standard_normal((3, 3)) * 0.05
    b = rng.standard_normal(3)
    spreads = []
    for nodes in (jig_nodes, aff_nodes):
        ops = build_grad_operators(remade(nodes))
        eps = ops.strains(nodes @ A.T + b)
        spreads.append(np.abs(eps - eps[0]).max())
    aff_ops = build_grad_operators(remade(aff_nodes))
    vol_rel = abs(aff_ops.total_measure - exact_vol) / exact_vol
    jig_vol_rel = abs(build_grad_operators(remade(jig_nodes)).total_measure
                      - 27.0) / 27.0

    ok = max(spreads) <= 1e-12 and vol_rel <= 1e-10
    _check("linear patch", ok,
           f"strain spread jiggled {spreads[0]:.1e} / affine "
           f"{spreads[1]:.1e}, affine measure rel {vol_rel:.1e} "
           f"(jiggled one-point volume off by {jig_vol_rel:.1e}, "
           f"exact only for affine images)")


def test_6_convergence_monitor_reference_cases():
    """Identical window means converge; a steady 1/step decay does not;
    neither does a history shorter than two windows."""
    flat = ConvergenceMonitor(patience=10, tol=1e-6)
    for _ in range(20):
        flat.record(3.7)

    decay = ConvergenceMonitor(patience=10, tol=1e-6)
    values = [float(v) for v in range(100, 80, -1)]
    for v in values:
        decay.record(v)
    rel = abs(np.mean(values[:10]) - np.mean(values[10:])) \
        / abs(np.mean(values[10:]))

    short = ConvergenceMonitor(patience=10, tol=1e-6)
    for v in values[:15]:
        short.record(v)

    ok = (flat.converged() is True
          and decay.converged() is False
          and rel == 0.11695906432748537
          and short.converged() is False)
    _check("convergence monitor", ok,
           f"flat {flat.converged()}, decay {decay.converged()} "
           f"(rel change {rel:.17g}), short history {short.converged()}")


def test_7_single_element_training_replays_on_finer_mesh(tmp_path):
    """Checkpoints from a fully driven single-element shear run replay on
    a 4x4x1 mesh of the same block without retraining: stress field
    uniform, equal to the training value, checkpoint file byte-stable."""

    def block(divisions):
        return Problem(
            mesh=generate_structured_box((4.0, 4.0, 1.0), divisions),
            materials=[(ElasticConstants(mu=MU, kappa=KAPPA),
                        HardeningLaw(sigma_y0=SY0, H=500.0, C=0.0,
                                     mode="isotropic"))],
            dirichlet=_shear_bcs(node_sets=("all",)),
            program=LoadProgram(factors=(0.25, 0.5)),
            network=NetworkConfig(widths=(3, 8, 3), seed=0),
            optimizer=OptimizerConfig(tol=1e-8, patience=10,
                                      max_iters_per_step=200))

    train_dir = str(tmp_path / "train")
    records = run(block((1, 1, 1)), out_dir=train_dir)
    replay = infer(block((4, 4, 1)), checkpoint_dir=train_dir,
                   out_dir=str(tmp_path / "replay"))

    sig_train = records[-1].sigma[0, 3]
    sig = replay[-1].sigma[:, 3]
    ptp = float(np.ptp(sig))
    diff = abs(float(sig.mean()) - sig_train)
    peeq = float(replay[-1].ebar_p.min())

    ckpt = os.path.join(train_dir, "step_2.ckpt")
    copy = str(tmp_path / "copy.ckpt")
    Network.load(ckpt).save(copy)
    with open(ckpt, "rb") as fa, open(copy, "rb") as fb:
        stable = fa.read() == fb.read()

    ok = ptp <= 1e-6 and diff <= 1e-6 and peeq > 0.0 and stable
    _check("inference replay", ok,
           f"sigma_12 spread {ptp:.1e} over {len(sig)} elements, "
           f"offset from training {diff:.1e} (train {sig_train:.4f}), "
           f"plastic state replayed (min peeq {peeq:.4f}), "
           f"checkpoint byte-stable {stable}")


def test_8_bimaterial_plastic_contrast_and_energy_recheck(tmp_path):
    """The 20x20x1 two-material preset sheared to factor 0.5: the softer
    half accumulates strictly more plastic strain, and the final loss
    matches an independent quadrature of the free energy to 1e-10."""
    from demplast.mesh import write_mesh

    spec, mesh = get_preset("bimat").build()
    write_mesh(mesh, str(tmp_path / "mesh.txt"))
    problem = build_problem(spec, base_dir=str(tmp_path))
    yields = tuple(law.sigma_y0 for _, law in problem.materials)
    rec = run(problem)[-1]

    soft = problem.mesh.mat_id == 0
    mean_soft = float(rec.ebar_p[soft].mean())
    mean_hard = float(rec.ebar_p[~soft].mean())

    ops = build_grad_operators(problem.mesh)
    virgin = PlasticState.zero(problem.mesh.n_elements)
    recheck = total_free_energy(problem.mesh, ops, problem.materials,
                                virgin, np.zeros((problem.mesh.n_elements, 6)),
                                rec.u, factor=rec.factor)
    rel = abs(rec.loss - recheck) / abs(recheck)

    ok = (yields == (50.0, 60.0) and rec.factor == 0.5 and rec.converged
          and mean_soft > mean_hard and rel <= 1e-10)
    _check("bi-material contrast", ok,
           f"yields {yields}, mean peeq soft {mean_soft:.4f} > hard "
           f"{mean_hard:.4f}, loss recheck rel {rel:.1e}")


def test_9_vtk_round_trip_for_preset_meshes(tmp_path):
    """Solver-style output for every preset mesh re-parses to identical
    arrays with the right cell type codes."""
    rng = np.random.default_rng(5)
    checked = []
    for name in sorted(PRESETS):
        spec, mesh = get_preset(name).build()
        if mesh is None:
            lx, ly, lz, nx, ny, nz = spec.mesh_box
            mesh = generate_structured_box((lx, ly, lz), (nx, ny, nz))
        u = rng.standard_normal((mesh.n_nodes, 3))
        mises = rng.standard_normal(mesh.n_elements)
        peeq = rng.standard_normal(mesh.n_elements)
        stress = rng.standard_normal((mesh.n_elements, 6))
        path = str(tmp_path / f"{name}.vtk")
        write_vtk(mesh, path, point_data={"displacement": u},
                  cell_data={"mises": mises, "peeq": peeq},
                  cell_tensors={"stress": stress}, title=name)
        data = read_vtk(path)

        same = (np.array_equal(data.points, mesh.nodes)
                and np.array_equal(data.point_data["displacement"], u)
                and np.array_equal(data.cell_data["mises"], mises)
                and np.array_equal(data.cell_data["peeq"], peeq)
                and np.array_equal(data.cell_tensors["stress"], stress)
                and all(np.array_equal(cell, mesh.conn[e, :len(cell)])
                        for e, cell in enumerate(data.cells)))
        types = [VTK_CELL_TYPE[k] for k in mesh.kinds]
        same = same and list(data.cell_types) == types
        checked.append(f"{name} ({mesh.n_elements} cells, "
                       f"types {sorted(set(types))}) {same}")
        assert same, f"round trip failed for preset {name}"
    _check("vtk round trip", True, "; ".join(checked))
