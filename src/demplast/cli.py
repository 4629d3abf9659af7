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
from .config import _SCHEMA, ConfigError, build_problem, parse_config, \
    serialize_spec
from .mesh import MeshError, open_new, write_mesh
from .oracle import analytic_shear_curve, gradient_audit
from .presets import PRESETS, get_preset
from .solver import SolverError, infer, make_network, run


def _load_spec(args):
    """(spec, generated mesh or None, base_dir for mesh paths), with the
    command's overrides applied.  ``--seed`` and ``--tol`` are parsed by
    the entries that parse ``[network] seed`` and ``[optimizer] tol``."""
    if args.config:
        spec, mesh = parse_config(args.config), None
        base_dir = os.path.dirname(os.path.abspath(args.config))
    else:
        (spec, mesh), base_dir = get_preset(args.preset).build(), "."
    for section, key in (("network", "seed"), ("optimizer", "tol")):
        text = getattr(args, key, None)
        if text is not None:
            value = _SCHEMA[section][key][0](f"--{key}", text)
            setattr(spec, section,
                    replace(getattr(spec, section), **{key: value}))
    if getattr(args, "steps", None) is not None:
        if args.steps < 1:
            raise ConfigError("--steps must be at least 1")
        spec.factors = spec.factors[:args.steps]
    if getattr(args, "mesh", None) is not None:
        spec.mesh_box = None
        spec.mesh_file = os.path.abspath(args.mesh)
        mesh = None                      # drop any preset-built mesh
    return spec, mesh, base_dir


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


def _cmd_solve(args) -> int:
    """``train`` or ``infer``: build the problem, drop a self-contained
    copy of it (resolved.cfg and, when the mesh is not a plain box,
    mesh.txt) into the run directory, read ``--reference`` before any
    step runs, then train or replay and compare the last step."""
    spec, mesh, base_dir = _load_spec(args)
    replay = args.command == "infer"
    if replay and not os.path.isdir(args.checkpoint_dir):
        raise FileNotFoundError(f"checkpoint directory not found: "
                                f"{args.checkpoint_dir}")
    problem = build_problem(spec, base_dir=base_dir, mesh=mesh)
    _write_problem(spec, None if spec.mesh_file is None else problem.mesh,
                   args.out, "resolved.cfg")
    reference = None
    if args.reference:
        try:
            reference = post.read_reference_csv(
                args.reference, problem.mesh.n_nodes, problem.mesh.n_elements)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    if replay:
        records = infer(problem, checkpoint_dir=args.checkpoint_dir,
                        out_dir=args.out, log=print)
    else:
        records = run(problem, out_dir=args.out, log=print)
    if reference is not None:
        metrics = post.compare_to_reference(records[-1], reference)
        lines = [f"{key} = {value:.10g}" for key, value in metrics.items()
                 if value is not None]
        with open_new(os.path.join(args.out, "metrics.txt")) as fh:
            fh.write("\n".join(lines) + "\n")
        for line in lines:
            print(line)
        for key, value in metrics.items():
            if value is None:
                print(f"{key} left out: the reference field is zero "
                      "everywhere")
    print(f"wrote {len(records)} step(s) to {args.out}")
    # replayed records are all converged, so only train can exit 6
    capped = [str(r.step) for r in records if not r.converged]
    if capped:
        print(f"error: load step(s) {', '.join(capped)} hit the iteration "
              "cap without converging", file=sys.stderr)
        return 6
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
    # A zeroed output layer would make most sampled derivatives vanish,
    # so the audit always starts from a fully random network.
    spec.network = replace(spec.network, zero_init=False)
    problem = build_problem(spec, base_dir=base_dir, mesh=mesh)
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
    p.add_argument("--seed", help="override network seed")
    p.add_argument("--tol", help="override convergence tolerance")
    p.add_argument("--steps", type=int,
                   help="run only the first N load steps")
    p.add_argument("--mesh", help="mesh file overriding the problem's mesh")
    p.add_argument("--reference", help="reference CSV to compare against")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("infer", help="replay checkpoints without training")
    _add_problem_source(p)
    p.add_argument("--checkpoint-dir", required=True,
                   help="directory holding step_<k>.ckpt files")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--steps", type=int,
                   help="replay only the first N load steps")
    p.add_argument("--mesh", help="mesh file overriding the problem's mesh")
    p.add_argument("--reference", help="reference CSV to compare against")
    p.set_defaults(func=_cmd_solve)

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
    p.add_argument("--seed", help="override network seed")
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
