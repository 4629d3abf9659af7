"""Command-line front end.

Subcommands:
    train      minimize the energy through the load program
    infer      replay saved checkpoints, optionally on a finer mesh
    oracle     closed-form shear curve for the shear presets
    gradcheck  finite-difference audit of the assembled gradient
    presets    list built-in problems or write one out as config + mesh

Exit codes: 0 success, 1 failed check, 2 bad arguments, 3 bad config,
4 missing or unreadable file, 5 solver failure, 6 a training step hit the
iteration cap without converging (all outputs are still written).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import post
from .bc import BCError
from .config import ConfigError, build_problem, parse_config, serialize_spec
from .mesh import MeshError, open_new, write_mesh
from .oracle import analytic_shear_curve, gradient_audit
from .presets import PRESETS, get_preset
from .solver import SolverError, infer, run

def _load_spec(args):
    """(spec, generated mesh or None, base_dir for mesh paths)."""
    if getattr(args, "config", None):
        if not os.path.exists(args.config):
            raise FileNotFoundError(f"config file not found: {args.config}")
        spec = parse_config(args.config)
        return spec, None, os.path.dirname(os.path.abspath(args.config))
    preset = get_preset(args.preset)
    spec, mesh = preset.build()
    return spec, mesh, "."


def _apply_overrides(spec, args, mesh=None):
    if getattr(args, "seed", None) is not None:
        if args.seed < 0:
            raise ConfigError("--seed must be at least 0")
        spec.network = replace(spec.network, seed=args.seed)
    if getattr(args, "tol", None) is not None:
        if not 0.0 <= args.tol < np.inf:
            raise ConfigError("--tol must be finite and at least 0")
        spec.optimizer = replace(spec.optimizer, tol=args.tol)
    if getattr(args, "steps", None) is not None:
        if args.steps < 1:
            raise ConfigError("--steps must be at least 1")
        spec.factors = spec.factors[:args.steps]
    if getattr(args, "mesh", None) is not None:
        spec.mesh_box = None
        spec.mesh_file = os.path.abspath(args.mesh)
        mesh = None                      # drop any preset-built mesh
    return spec, mesh


def _write_problem(spec, mesh, out_dir, cfg_name) -> str:
    """Write ``spec`` as ``out_dir/cfg_name``; a given ``mesh`` goes beside
    it as mesh.txt, which the written config then names.  Returns the
    config path."""
    if mesh is not None:
        spec.mesh_file = "mesh.txt"
    text = serialize_spec(spec)
    os.makedirs(out_dir, exist_ok=True)
    if mesh is not None:
        write_mesh(mesh, os.path.join(out_dir, "mesh.txt"))
    path = os.path.join(out_dir, cfg_name)
    with open_new(path) as fh:
        fh.write(text)
    return path


def _materialize(spec, mesh, base_dir, out_dir):
    """Build the problem and drop a self-contained copy (resolved.cfg and,
    when the mesh is not a plain box, mesh.txt) into the run directory."""
    problem = build_problem(spec, base_dir=base_dir, mesh=mesh)
    _write_problem(spec, None if spec.mesh_file is None else problem.mesh,
                   out_dir, "resolved.cfg")
    return problem


def _read_reference(args, mesh):
    """The ``--reference`` fields checked against ``mesh``, or None; read
    before any step runs, so a bad file costs no training."""
    path = getattr(args, "reference", None)
    if not path:
        return None
    if not os.path.exists(path):
        raise FileNotFoundError(f"reference file not found: {path}")
    try:
        return post.read_reference_csv(path, mesh.n_nodes, mesh.n_elements)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _finish_run(records, out_dir, reference) -> None:
    if reference is not None:
        metrics = post.compare_to_reference(records[-1], reference)
        lines = [f"{key} = {value:.10g}" for key, value in metrics.items()
                 if value is not None]
        with open_new(os.path.join(out_dir, "metrics.txt")) as fh:
            fh.write("\n".join(lines) + "\n")
        for line in lines:
            print(line)
        for key, value in metrics.items():
            if value is None:
                print(f"{key} left out: the reference field is zero "
                      "everywhere")
    print(f"wrote {len(records)} step(s) to {out_dir}")


def _cmd_train(args) -> int:
    spec, mesh, base_dir = _load_spec(args)
    spec, mesh = _apply_overrides(spec, args, mesh)
    problem = _materialize(spec, mesh, base_dir, args.out)
    reference = _read_reference(args, problem.mesh)
    records = run(problem, out_dir=args.out, log=print)
    _finish_run(records, args.out, reference)
    capped = [str(r.step) for r in records if not r.converged]
    if capped:
        print(f"error: load step(s) {', '.join(capped)} hit the iteration "
              "cap without converging", file=sys.stderr)
        return 6
    return 0


def _cmd_infer(args) -> int:
    spec, mesh, base_dir = _load_spec(args)
    spec, mesh = _apply_overrides(spec, args, mesh)
    if not os.path.isdir(args.checkpoint_dir):
        raise FileNotFoundError(f"checkpoint directory not found: "
                                f"{args.checkpoint_dir}")
    problem = _materialize(spec, mesh, base_dir, args.out)
    reference = _read_reference(args, problem.mesh)
    records = infer(problem, checkpoint_dir=args.checkpoint_dir,
                    out_dir=args.out, log=print)
    _finish_run(records, args.out, reference)
    return 0


def _cmd_oracle(args) -> int:
    if args.substeps < 1:
        raise ConfigError("--substeps must be at least 1")
    spec, _, _ = _load_spec(args)
    if len(spec.materials) != 1:
        raise ConfigError("oracle needs a single-material problem")
    consts, law = spec.materials[0].laws()
    drives = [d for d in spec.dirichlet
              if d.kind == "affine" and d.axis == "x"]
    if len(drives) != 1 or drives[0].coeffs[0] or drives[0].coeffs[2] \
            or drives[0].coeffs[3]:
        raise ConfigError("oracle only covers problems driven by a single "
                          "u_x = b*y boundary condition (the shear presets)")
    slope = drives[0].coeffs[1]
    gammas = [slope * f for f in spec.factors]
    taus, ebars, _ = analytic_shear_curve(consts, law, gammas,
                                          substeps=args.substeps)
    lines = ["step,gamma,tau,ebar_p"]
    lines += [f"{s},{g:.17g},{t:.17g},{e:.17g}" for s, (g, t, e)
              in enumerate(zip(gammas, taus, ebars), start=1)]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open_new(args.out) as fh:
            fh.write(text)
        print(f"wrote {len(gammas)} row(s) to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_gradcheck(args) -> int:
    if args.samples < 1:
        raise ConfigError("--samples must be at least 1")
    if not 0.0 < args.step < np.inf:
        raise ConfigError("--step must be finite and above 0")
    if not 0.0 <= args.limit < np.inf:
        raise ConfigError("--limit must be finite and at least 0")
    if args.factor is not None and not np.isfinite(args.factor):
        raise ConfigError("--factor must be finite")
    spec, mesh, base_dir = _load_spec(args)
    spec, mesh = _apply_overrides(spec, args, mesh)
    # A zeroed output layer would make most sampled derivatives vanish,
    # so the audit always starts from a fully random network.
    spec.network = replace(spec.network, zero_init=False)
    problem = build_problem(spec, base_dir=base_dir, mesh=mesh)
    from .solver import make_network
    net = make_network(problem)
    params = net.get_params()
    rng = np.random.default_rng(spec.network.seed)
    indices = rng.choice(params.size, size=min(args.samples, params.size),
                         replace=False)
    factor = args.factor if args.factor is not None else \
        problem.program.factors[0]
    worst, _, _, _ = gradient_audit(problem, params, indices, factor,
                                    step=args.step)
    print(f"sampled {len(indices)} of {params.size} parameters at load "
          f"factor {factor:g}")
    print(f"max relative gradient difference: {worst:.3e}")
    if not worst <= args.limit:         # a nan difference fails too
        print(f"FAIL: above limit {args.limit:g}")
        return 1
    print(f"PASS: within limit {args.limit:g}")
    return 0


def _cmd_presets(args) -> int:
    if not args.name:
        width = max(len(n) for n in PRESETS)
        for name in sorted(PRESETS):
            print(f"{name:<{width}}  {PRESETS[name].description}")
        return 0
    preset = get_preset(args.name)
    if not args.out:
        raise ConfigError("writing a preset needs --out DIR")
    spec, mesh = preset.build()
    print(f"wrote {_write_problem(spec, mesh, args.out, 'problem.cfg')}")
    return 0


def _add_problem_source(p, required=True):
    group = p.add_mutually_exclusive_group(required=required)
    group.add_argument("--config", help="problem config file")
    group.add_argument("--preset", choices=sorted(PRESETS),
                       help="built-in problem")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="demplast",
        description="Neural energy-minimization solver for J2 "
                    "elastoplasticity on hexahedral/tetrahedral meshes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train through the load program")
    _add_problem_source(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="override network seed")
    p.add_argument("--tol", type=float, help="override convergence tolerance")
    p.add_argument("--steps", type=int,
                   help="run only the first N load steps")
    p.add_argument("--mesh", help="mesh file overriding the problem's mesh")
    p.add_argument("--reference", help="reference CSV to compare against")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("infer", help="replay checkpoints without training")
    _add_problem_source(p)
    p.add_argument("--checkpoint-dir", required=True,
                   help="directory holding step_<k>.ckpt files")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--steps", type=int,
                   help="replay only the first N load steps")
    p.add_argument("--mesh", help="mesh file overriding the problem's mesh")
    p.add_argument("--reference", help="reference CSV to compare against")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("oracle",
                       help="closed-form stress curve for shear problems")
    _add_problem_source(p)
    p.add_argument("--out", help="CSV path (default: stdout)")
    p.add_argument("--substeps", type=int, default=1,
                   help="subdivide each load segment")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("gradcheck",
                       help="compare assembled and finite-difference "
                            "gradients")
    _add_problem_source(p)
    p.add_argument("--samples", type=int, default=25,
                   help="number of parameters to sample")
    p.add_argument("--step", type=float, default=1e-6,
                   help="finite-difference step")
    p.add_argument("--factor", type=float,
                   help="load factor (default: first program entry)")
    p.add_argument("--seed", type=int, help="override network seed")
    p.add_argument("--limit", type=float, default=1e-4,
                   help="max relative difference to pass")
    p.add_argument("--mesh", help="mesh file overriding the problem's mesh")
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("presets", help="list or export built-in problems")
    p.add_argument("name", nargs="?", help="preset to export")
    p.add_argument("--out", help="directory for problem.cfg (+ mesh.txt)")
    p.set_defaults(func=_cmd_presets)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, MeshError, BCError, KeyError) as exc:
        msg = exc.args[0] if exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
