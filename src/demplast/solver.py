"""Incremental training driver: one neural displacement field carried
across a program of load steps.

Per step: rebuild the Dirichlet mask/offset at the step's factor, minimize
the free-energy loss with L-BFGS until the patience monitor fires (or the
iteration cap is hit), run one final forward pass, commit the quadrature
states it produced, and write the step's checkpoint and state file.  The
network is never re-initialized between steps, so each step starts from
the previous solution.

Inference replays a saved run on a (possibly different) mesh of the same
domain: per step it loads the step checkpoint, evaluates the field, and
updates the new mesh's quadrature states through the same return map with
no optimizer involved.

Checkpoint directory layout: step_<k>.ckpt plus state_<k>.dat per load
step, 1-based; see ``write_state`` for the state-file binary layout.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import material as mat
from . import post
from .bc import DirichletBC, LoadProgram, TractionBC, build_mask_offset
from .energy import EnergyWorkspace
from .mesh import Mesh, build_grad_operators, open_new
from .network import (Network, NetworkError, init_network,
                      normalization_from_box)
from .optim import ConvergenceMonitor, DivergenceError, Lbfgs

STATE_DOUBLES_PER_POINT = 19   # sigma(6), eps_p(6), ebar_p(1), q(6)


class SolverError(RuntimeError):
    pass


@dataclass
class NetworkConfig:
    widths: tuple = (3, 64, 64, 64, 3)
    seed: int = 0
    normalize_inputs: bool = True
    zero_init: bool = True


@dataclass
class OptimizerConfig:
    lr: float = 1.0
    lbfgs_memory: int = 20
    patience: int = 10
    tol: float = 1e-6
    max_iters_per_step: int = 2000


@dataclass
class Problem:
    """Everything a run needs.  ``materials`` is a list of
    (ElasticConstants, HardeningLaw) indexed by mesh.mat_id."""

    mesh: Mesh
    materials: list
    dirichlet: list
    program: LoadProgram
    tractions: list = field(default_factory=list)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    name: str = "problem"


@dataclass
class StepRecord:
    step: int
    factor: float
    loss: float
    iterations: int
    converged: bool
    u: np.ndarray            # (n_nodes, 3)
    strain: np.ndarray       # (n_elem, 6) committed total strain
    sigma: np.ndarray        # (n_elem, 6)
    ebar_p: np.ndarray       # (n_elem,)
    mises: np.ndarray        # (n_elem,)


def make_network(problem: Problem) -> Network:
    cfg = problem.network
    shift = scale = None
    if cfg.normalize_inputs:
        shift, scale = normalization_from_box(problem.mesh.nodes.min(axis=0),
                                              problem.mesh.nodes.max(axis=0))
    return init_network(cfg.widths, seed=cfg.seed, input_shift=shift,
                        input_scale=scale, zero_output_layer=cfg.zero_init)


def make_workspace(problem: Problem) -> EnergyWorkspace:
    ops = build_grad_operators(problem.mesh)
    return EnergyWorkspace(problem.mesh, ops, problem.materials,
                           tractions=problem.tractions)


def _record(ws: EnergyWorkspace, step: int, factor: float, loss: float,
            iterations: int, converged: bool) -> StepRecord:
    """The committed step's record.  Its arrays are the workspace's own:
    every evaluation replaces them and none writes them in place."""
    sigma = ws.committed.sigma
    return StepRecord(step=step, factor=factor, loss=loss,
                      iterations=iterations, converged=converged,
                      u=ws.last_u, strain=ws.committed_strain, sigma=sigma,
                      ebar_p=ws.committed.ebar_p, mises=mat.von_mises(sigma))


def _load_steps(problem: Problem, ws: EnergyWorkspace, step_net, out_dir,
                log, checkpoints: bool) -> list:
    """The load-step loop of ``run`` and ``infer``.  Once step k's boundary
    values are set, ``step_net(k, factor, records)`` gives its network as
    (net, iterations, converged, log note)."""
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        grid = post.vtk_grid(problem.mesh)     # built once per run
    records = []
    for k, factor in enumerate(problem.program.factors, start=1):
        mask, offset = build_mask_offset(problem.mesh, problem.dirichlet, factor)
        ws.set_bc(mask, offset)
        ws.set_load_factor(factor)
        net, iterations, converged, note = step_net(k, factor, records)
        loss = ws.loss(net)
        ws.commit()
        rec = _record(ws, k, factor, loss, iterations, converged)
        records.append(rec)
        if log is not None:
            log(f"step {k}: factor {factor:g} loss {loss:.8e} {note}")
        if out_dir:
            if checkpoints:
                net.save(os.path.join(out_dir, f"step_{k}.ckpt"))
            write_state(os.path.join(out_dir, f"state_{k}.dat"), ws.committed)
            post.write_vtk(ws.mesh, os.path.join(out_dir, f"step_{k}.vtk"),
                           point_data={"displacement": rec.u},
                           cell_data={"mises": rec.mises, "peeq": rec.ebar_p},
                           cell_tensors={"stress": rec.sigma},
                           title=f"load step {k} factor {factor}", grid=grid)
    if out_dir:
        post.curve_csv(records, ws.measure, os.path.join(out_dir, "curve.csv"))
    return records


def run(problem: Problem, out_dir: str | None = None, log=None) -> list:
    """Train through the load program; returns one StepRecord per step.

    With ``out_dir`` set, every completed step writes step_<k>.ckpt,
    state_<k>.dat and step_<k>.vtk, so a divergence later in the program
    leaves the finished steps on disk, and the finished program writes
    curve.csv.
    """
    ws = make_workspace(problem)
    net = make_network(problem)
    opt_cfg = problem.optimizer

    def train(k, factor, records):
        optimizer = Lbfgs(lr=opt_cfg.lr, memory=opt_cfg.lbfgs_memory)
        # the previous step's energy scales the window change, so a step
        # whose optimum is near 0 (an elastic unload) can still converge
        floor = abs(records[-1].loss) if records else 0.0
        monitor = ConvergenceMonitor(patience=opt_cfg.patience,
                                     tol=opt_cfg.tol, floor=floor)
        params = net.get_params()

        def eval_fn(p):
            net.set_params(p)
            return ws.loss_and_grad(net)

        iterations = 0
        converged = False
        try:
            for it in range(1, opt_cfg.max_iters_per_step + 1):
                params, loss = optimizer.step(eval_fn, params)
                monitor.record(loss)
                iterations = it
                if monitor.converged():
                    converged = True
                    break
        except DivergenceError as exc:
            raise SolverError(
                f"load step {k} (factor {factor:g}) diverged: {exc}; "
                f"{len(records)} completed step(s) kept") from exc
        net.set_params(params)
        note = f"iters {iterations}{'' if converged else ' (cap hit)'}"
        return net, iterations, converged, note

    return _load_steps(problem, ws, train, out_dir, log, checkpoints=True)


def infer(problem: Problem, checkpoint_dir: str, out_dir: str | None = None,
          log=None) -> list:
    """Replay saved checkpoints on the problem's mesh without training;
    ``out_dir`` gets the same files as in ``run``, less the checkpoints."""

    def load(k, factor, records):
        path = os.path.join(checkpoint_dir, f"step_{k}.ckpt")
        if not os.path.exists(path):
            raise SolverError(f"no checkpoint for load step {k}: "
                              f"{path} is missing")
        try:
            net = Network.load(path)
        except NetworkError as exc:
            raise SolverError(f"unreadable checkpoint for load step {k}: "
                              f"{exc}") from None
        return net, 0, True, "(inference)"

    return _load_steps(problem, make_workspace(problem), load, out_dir, log,
                       checkpoints=False)


def write_state(path, state: mat.PlasticState) -> None:
    """Binary dump of committed states: per point, little-endian float64
    [sigma(6), eps_p(6), ebar_p(1), q(6)] in component order 11, 22, 33,
    12, 13, 23."""
    n = state.ebar_p.shape[0]
    out = np.empty((n, STATE_DOUBLES_PER_POINT))
    out[:, 0:6] = state.sigma
    out[:, 6:12] = state.eps_p
    out[:, 12] = state.ebar_p
    out[:, 13:19] = state.q
    with open_new(path, binary=True) as fh:
        out.astype("<f8", copy=False).tofile(fh)


def read_state(path, n_points: int) -> mat.PlasticState:
    raw = np.fromfile(path, dtype="<f8")
    if raw.size != n_points * STATE_DOUBLES_PER_POINT:
        raise SolverError(f"{path}: expected {n_points} points * "
                          f"{STATE_DOUBLES_PER_POINT} doubles, found "
                          f"{raw.size} values")
    raw = raw.reshape(n_points, STATE_DOUBLES_PER_POINT)
    return mat.PlasticState(sigma=raw[:, 0:6].copy(), eps_p=raw[:, 6:12].copy(),
                            ebar_p=raw[:, 12].copy(), q=raw[:, 13:19].copy())
