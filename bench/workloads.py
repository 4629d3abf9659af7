"""The benchmark's workloads, their output checks and the size sweep.

Every workload drives the path ``demplast train`` and ``demplast infer``
drive: spec -> ``config.build_problem`` -> ``solver.run`` or
``solver.infer`` with an output directory -> ``post.curve_csv``, with
default knobs.  All calls into demplast go through module attributes, so
the wrappers of a traced run see them.  Why each workload exists is in
README.md next to this file.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from demplast import bc, config, mesh, oracle, post, presets, solver
from demplast.material import PlasticState

from spans import Tracer, self_times

clock = time.perf_counter

# Acceptance-test tolerances: shear curves (test 3), energy recheck (test 8).
STRESS_TOL_MPA = 1e-2
PEEQ_TOL = 1e-4
ENERGY_RTOL = 1e-10

BOX = (4.0, 4.0, 1.0)
FINE = (60, 60, 4)              # 14,400 hex8 elements, 18,605 nodes
WIDTHS = (3, 32, 32, 3)         # as in the presets
BOX_BUDGET = 25                 # L-BFGS iterations per box-large load step
BOX_PULL = 0.3                  # x displacement of x_max at factor 1
BOX_SHEAR = 5.0                 # MPa, x traction on y_max at factor 1
BOX_JITTER = 0.1                # interior node jitter, share of the spacing
SWEEP = ((4, 4, 1), (20, 20, 1), (40, 40, 4), FINE)
SWEEP_CALLS = 5
PASS_SEED_STRIDE = 1000


@dataclass
class Pass:
    """One timed pass through a workload's load programs."""

    wall_s: float = 0.0
    setup_s: float = 0.0
    solves: list = field(default_factory=list)   # (program, start, end,
    #                                              iterations or replayed steps)
    attempted: int = 0           # load steps
    failed: set = field(default_factory=set)     # (program, step)
    cap_hits: int = 0
    final_loss: float = 0.0      # summed over the pass's load programs
    runs: list = field(default_factory=list)     # (name, problem, records, out)
    checks: list = field(default_factory=list)

    def iters_per_s(self, seconds=None) -> float:
        """Geometric mean over the pass's load programs of iterations per
        second inside solver.run (replayed steps in solver.infer), so the
        mix of iteration counts across programs does not weigh in.
        ``seconds(start, end)`` gives the time to count for a solve; by
        default its wall time."""
        seconds = seconds or (lambda start, end: end - start)
        rates = [n / seconds(start, end) for _, start, end, n in self.solves]
        if not rates or min(rates) <= 0.0:
            return 0.0
        return float(np.exp(np.mean(np.log(rates))))


@dataclass
class Check:
    name: str
    ok: bool
    detail: str
    steps: set                   # load steps a failure counts against


class Workload:
    """Set-up builds (name, problem, out_dir) triples; a pass sets up and
    solves each of them.  ``replay`` names the checkpoint directory when
    the pass replays with ``solver.infer`` instead of training.  With
    ``seed_per_pass`` pass ``i`` trains from network seed
    ``seed + PASS_SEED_STRIDE * i``, and a run makes at least
    ``min_passes`` passes so its medians are not one seed's; otherwise
    every pass repeats the same inputs."""

    name = ""
    reference = "large"          # the reference.py kind that runs like it
    replay = None
    cap_hit_fails = False
    seed_per_pass = False
    min_passes = 1

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.work = work

    def prepare(self) -> None:
        """Untimed inputs the set-up reads."""

    def setup(self, index: int = 0) -> list:
        raise NotImplementedError

    def checks(self, p: Pass) -> list:
        return []

    def run_pass(self, index: int = 0) -> Pass:
        p = Pass()
        start = clock()
        programs = self.setup(index)
        p.setup_s = clock() - start
        for name, problem, out_dir in programs:
            self._solve(p, name, problem, out_dir)
        p.wall_s = clock() - start
        return p

    def _solve(self, p, name, problem, out_dir):
        n_steps = len(problem.program.factors)
        p.attempted += n_steps
        start = clock()
        try:
            if self.replay is None:
                records = solver.run(problem, out_dir=out_dir)
            else:
                records = solver.infer(problem, self.replay, out_dir=out_dir)
        except solver.SolverError:
            records = None
        end = clock()
        p.runs.append((name, problem, records, out_dir))
        if records is None:
            p.failed |= {(name, k) for k in range(1, n_steps + 1)}
            return
        ops = mesh.build_grad_operators(problem.mesh)
        post.curve_csv(records, ops.measures(),
                       os.path.join(out_dir, "curve.csv"))
        p.solves.append((name, start, end, len(records) if self.replay else
                         sum(r.iterations for r in records)))
        capped = {(name, r.step) for r in records if not r.converged}
        p.cap_hits += len(capped)
        if self.cap_hit_fails:
            p.failed |= capped
        p.final_loss += records[-1].loss


# -- workloads ----------------------------------------------------------------

class Presets(Workload):
    """All four built-in presets trained to completion; a step that hits
    the iteration cap counts as failed."""

    name = "presets"
    reference = "small"
    cap_hit_fails = True
    # The iteration count varies by about a fifth (quartile distance over
    # median) with the network seed, so each run takes three seeds.
    seed_per_pass = True
    min_passes = 3
    NAMES = ("shear-iso", "shear-kin", "bimat", "plate-hole")

    def setup(self, index=0):
        out = []
        for name in self.NAMES:
            out_dir = os.path.join(self.work, name)
            os.makedirs(out_dir, exist_ok=True)
            spec, preset_mesh = presets.get_preset(name).build()
            spec.network = replace(
                spec.network, seed=self.seed + PASS_SEED_STRIDE * index)
            if preset_mesh is not None:
                mesh.write_mesh(preset_mesh, os.path.join(out_dir, "mesh.txt"))
                spec.mesh_file = "mesh.txt"
            out.append((name, config.build_problem(spec, base_dir=out_dir),
                        out_dir))
        return out

    def checks(self, p):
        out = []
        for name, problem, records, out_dir in p.runs:
            if name.startswith("shear"):
                out.append(shear_check(name, problem, records))
            elif name == "bimat":
                out.append(energy_check(name, problem, records, out_dir))
        return out


class BoxLarge(Workload):
    """A jittered 60x60x4 box, clamped, pulled and sheared, run for a fixed
    iteration budget per load step (tol 0, so every step uses it all)."""

    name = "box-large"

    def setup(self, index=0):
        out_dir = os.path.join(self.work, "box")
        os.makedirs(out_dir, exist_ok=True)
        box = mesh.generate_structured_box(BOX, FINE)
        jitter(box, self.seed)
        mesh.write_mesh(box, os.path.join(out_dir, "mesh.txt"))
        spec = box_spec(self.seed)
        return [("box-large", config.build_problem(spec, base_dir=out_dir),
                 out_dir)]

    def checks(self, p):
        return [energy_check(name, problem, records, out_dir)
                for name, problem, records, out_dir in p.runs]


class ReplayFine(Workload):
    """The shear-kin checkpoints, trained here at 4x4x1 before timing,
    replayed on the same block meshed 60x60x4 and read from a file."""

    name = "replay-fine"
    reference = "text"

    def prepare(self):
        spec = self._spec()
        ckpt = os.path.join(self.work, "train")
        try:
            solver.run(config.build_problem(spec), out_dir=ckpt)
        except solver.SolverError:
            pass    # infer then misses checkpoints and the steps fail
        self.replay = ckpt
        self.mesh_path = os.path.join(self.work, "fine-mesh.txt")
        mesh.write_mesh(mesh.generate_structured_box(BOX, FINE),
                        self.mesh_path)

    def _spec(self):
        spec, _ = presets.get_preset("shear-kin").build()
        spec.network = replace(spec.network, seed=self.seed)
        return spec

    def setup(self, index=0):
        spec = self._spec()
        spec.mesh_box = None
        spec.mesh_file = self.mesh_path
        return [("replay-fine", config.build_problem(spec),
                 os.path.join(self.work, "replay"))]

    def checks(self, p):
        return [vtk_check(name, problem, records, out_dir)
                for name, problem, records, out_dir in p.runs]


WORKLOADS = {w.name: w for w in (Presets, BoxLarge, ReplayFine)}


def box_spec(seed: int, divisions=None) -> config.ProblemSpec:
    """Clamped on x_min, pulled along x on x_max, sheared by a traction on
    y_max; two load steps.  With ``divisions`` the mesh is a plain box."""
    clamp = [config.DirichletSpec(name=f"clamp_{a}", node_sets=("x_min",),
                                  axis=a, kind=bc.CONST,
                                  coeffs=(0.0, 0.0, 0.0, 0.0))
             for a in "xyz"]
    pull = config.DirichletSpec(name="pull", node_sets=("x_max",), axis="x",
                                kind=bc.CONST,
                                coeffs=(0.0, 0.0, 0.0, BOX_PULL))
    return config.ProblemSpec(
        mesh_box=BOX + tuple(divisions) if divisions else None,
        mesh_file=None if divisions else "mesh.txt",
        materials=[config.MaterialSpec(name="metal", mu=presets.MU,
                                       kappa=presets.KAPPA, sigma_y0=50.0,
                                       H=500.0)],
        dirichlet=clamp + [pull],
        tractions=[config.TractionSpec(name="shear", side_sets=("y_max",),
                                       vector=(BOX_SHEAR, 0.0, 0.0))],
        factors=(0.5, 1.0),
        network=solver.NetworkConfig(widths=WIDTHS, seed=seed),
        optimizer=solver.OptimizerConfig(tol=0.0,
                                         max_iters_per_step=BOX_BUDGET),
        name="box-large")


def jitter(box: mesh.Mesh, seed: int) -> None:
    """Move interior nodes by up to BOX_JITTER of the grid spacing, so no
    two elements share an operator."""
    lo, hi = box.nodes.min(axis=0), box.nodes.max(axis=0)
    inner = np.all((box.nodes > lo) & (box.nodes < hi), axis=1)
    spacing = (hi - lo) / np.array(FINE)
    rng = np.random.default_rng(seed)
    box.nodes[inner] += BOX_JITTER * spacing * rng.uniform(
        -1.0, 1.0, (int(inner.sum()), 3))


# -- output checks ------------------------------------------------------------

def _all_steps(name, problem):
    return {(name, k) for k in range(1, len(problem.program.factors) + 1)}


def shear_errors(problem, records, per_element=True):
    """Mean |sigma_12 - tau| and |ebar_p - closed form| over the steps,
    element by element (acceptance test 3) or of the mesh means."""
    consts, law = problem.materials[0]
    tau, ebar, _ = oracle.analytic_shear_curve(
        consts, law, 0.25 * np.array(problem.program.factors))
    if per_element:
        dsig = np.mean([np.abs(r.sigma[:, 3] - t).mean()
                        for r, t in zip(records, tau)])
        debar = np.mean([np.abs(r.ebar_p - e).mean()
                         for r, e in zip(records, ebar)])
    else:
        dsig = np.mean([abs(r.sigma[:, 3].mean() - t)
                        for r, t in zip(records, tau)])
        debar = np.mean([abs(r.ebar_p.mean() - e)
                         for r, e in zip(records, ebar)])
    return float(dsig), float(debar)


def shear_check(name, problem, records) -> Check:
    if records is None:
        return Check(name, False, "diverged", _all_steps(name, problem))
    dsig, debar = shear_errors(problem, records)
    return Check(name, bool(dsig <= STRESS_TOL_MPA and debar <= PEEQ_TOL),
                 f"|dsigma| {dsig:.3e} MPa, |debar| {debar:.3e}",
                 _all_steps(name, problem))


def traction_loads(problem):
    """Facet geometry of the problem's tractions, in the form
    oracle.total_free_energy reads."""
    loads = []
    for t in problem.tractions:
        pairs = np.concatenate([problem.mesh.side_sets[s]
                                for s in t.side_sets])
        corners = mesh.facet_corners(problem.mesh, pairs)
        packed = np.full((len(corners), 4), -1, dtype=np.int64)
        for i, c in enumerate(corners):
            packed[i, :len(c)] = c
        loads.append(SimpleNamespace(
            corners=packed,
            n_corners=np.array([len(c) for c in corners]),
            area=np.array([mesh.facet_area_normal(problem.mesh, c)[0]
                           for c in corners]),
            base_vector=np.asarray(t.vector, dtype=float)))
    return loads


def energy_check(name, problem, records, out_dir) -> Check:
    """The last step's loss re-derived by the brute-force oracle, from the
    state file the solver wrote for the step before it."""
    if records is None:
        return Check(name, False, "diverged", _all_steps(name, problem))
    m = problem.mesh
    last = records[-1]
    if len(records) == 1:
        committed = PlasticState.zero(m.n_elements)
        strain = np.zeros((m.n_elements, 6))
    else:
        committed = solver.read_state(
            os.path.join(out_dir, f"state_{len(records) - 1}.dat"),
            m.n_elements)
        strain = records[-2].strain
    recheck = oracle.total_free_energy(
        m, mesh.build_grad_operators(m), problem.materials, committed, strain,
        last.u, factor=last.factor, traction_loads=traction_loads(problem))
    rel = abs(last.loss - recheck) / abs(recheck)
    return Check(name, bool(rel <= ENERGY_RTOL),
                 f"loss {last.loss:.10e}, recheck rel {rel:.1e}",
                 {(name, last.step)})


def vtk_check(name, problem, records, out_dir) -> Check:
    """The last step's VTK file re-parses to the arrays it was written
    from."""
    if records is None:
        return Check(name, False, "replay failed", _all_steps(name, problem))
    last = records[-1]
    m = problem.mesh
    try:
        data = post.read_vtk(os.path.join(out_dir, f"step_{last.step}.vtk"))
        same = (np.array_equal(data.points, m.nodes)
                and np.array_equal(data.point_data["displacement"], last.u)
                and np.array_equal(data.cell_data["mises"], last.mises)
                and np.array_equal(data.cell_data["peeq"], last.ebar_p)
                and np.array_equal(data.cell_tensors["stress"], last.sigma)
                and list(data.cell_types) == [mesh.VTK_CELL_TYPE[str(k)]
                                              for k in m.kinds]
                and all(np.array_equal(c, m.conn[e, :len(c)])
                        for e, c in enumerate(data.cells)))
        detail = f"step_{last.step}.vtk, {len(data.cells)} cells"
    except (OSError, KeyError, ValueError) as exc:
        same, detail = False, f"step_{last.step}.vtk: {exc}"
    return Check(name, same, detail, {(name, last.step)})


def accuracy(p: Pass):
    """(stress error MPa, peeq error) against the closed-form shear curve:
    element-wise on the trained shear presets, of the mesh means on a
    replay; None where no shear program ran."""
    errors = [shear_errors(problem, records, per_element=name != "replay-fine")
              for name, problem, records, _ in p.runs
              if records and (name.startswith("shear")
                              or name == "replay-fine")]
    if not errors:
        return None, None
    return (float(np.mean([e[0] for e in errors])),
            float(np.mean([e[1] for e in errors])))


# -- size sweep ---------------------------------------------------------------

def sweep(seed: int) -> dict:
    """Per-evaluation split of loss_and_grad on plain boxes of growing size:
    median ms of the whole call, of network forward+backward, of the
    material kernels, and of the call's own (assembly) time."""
    out = {}
    for divisions in SWEEP:
        problem = config.build_problem(box_spec(seed, divisions))
        ws = solver.make_workspace(problem)
        net = solver.make_network(problem)
        ws.set_bc(*bc.build_mask_offset(problem.mesh, problem.dirichlet, 1.0))
        ws.set_load_factor(1.0)
        ws.loss_and_grad(net)                    # warm-up
        tracer = Tracer()
        with tracer:
            for _ in range(SWEEP_CALLS):
                ws.loss_and_grad(net)
        n_elem = problem.mesh.n_elements
        for key, value in per_eval(tracer).items():
            out[f"sweep.{n_elem}.{key}_ms"] = value
    return out


def per_eval(tracer: Tracer) -> dict:
    names = tracer.names
    own = self_times(tracer.spans)
    evals = {}
    for i, (name_id, start, end, _) in enumerate(tracer.spans):
        if names[name_id] == "energy.loss_and_grad":
            evals[i] = {"eval": end - start, "energy_self": own[i],
                        "network": 0.0, "material": 0.0}
    for name_id, start, end, parent in tracer.spans:
        layer = names[name_id].split(".")[0]
        if parent in evals and layer in ("network", "material"):
            evals[parent][layer] += end - start
    keys = ("eval", "network", "material", "energy_self")
    if not evals:
        return dict.fromkeys(keys)
    return {k: 1e3 * statistics.median(e[k] for e in evals.values())
            for k in keys}
