"""Run configuration: a flat, typed, sectioned key-value text format.

Grammar (one statement per line, '#' starts a comment):

    [mesh]
    box = <lx> <ly> <lz> <nx> <ny> <nz>     # or: file = path/to/mesh.txt
    [network]
    widths = 3 64 64 64 3
    seed = 0
    normalize_inputs = true
    zero_init = true
    [optimizer]
    lr = 1.0                                # the full quasi-Newton step;
                                            # the direction is already
                                            # scaled by s.y / y.y
    lbfgs_memory = 20
    patience = 10
    tol = 1e-6
    max_iters_per_step = 2000
    [material.<name>]                       # at least one
    mu = 384.62
    kappa = 833.33
    sigma_y0 = 50.0
    H = 500.0
    C = 0.0
    mode = isotropic                        # or kinematic
    elemset = <element set name>            # optional; at most one
                                            # material may omit it and
                                            # becomes the default
    [dirichlet.<name>]
    nodeset = <one or more node set names>
    axis = x                                # x, y or z
    value = const <v>                       # or: affine <a> <b> <c> <d>
                                            # meaning a*x + b*y + c*z + d
    [traction.<name>]
    sideset = <one or more side (or node) set names>
    vector = <tx> <ty> <tz>
    [loadsteps]
    factors = 0.5 1.0 0.5 0.0               # brackets and commas allowed

The keys of [network], [optimizer] and [material.<name>] are the fields
of NetworkConfig, OptimizerConfig and MaterialSpec, parsed and written
through one table, ``_SCHEMA``.  [dirichlet], [traction] and [loadsteps]
are read into bc.DirichletBC, TractionBC and LoadProgram, whose checks
report the section's line.  Numbers must be finite; widths, lbfgs_memory,
patience and max_iters_per_step must be at least 1, seed and tol at
least 0, and lr above 0.  Unknown sections or keys are rejected with the
offending line number; set names are checked at run time, against the
mesh.  Mesh file paths are resolved relative to the config file.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import MISSING, dataclass, field, fields, replace
from decimal import Decimal

import numpy as np

from .bc import AFFINE, CONST, BCError, DirichletBC, LoadProgram, \
    TractionBC
from .material import ElasticConstants, HardeningLaw
from .mesh import Mesh, _is_set_name, generate_structured_box, read_mesh, \
    read_text
from .solver import NetworkConfig, OptimizerConfig, Problem


class ConfigError(ValueError):
    pass


@dataclass
class MaterialSpec:
    name: str
    mu: float
    kappa: float
    sigma_y0: float
    H: float = 0.0
    C: float = 0.0
    mode: str = "isotropic"
    elemset: str | None = None

    def laws(self) -> tuple:
        """(ElasticConstants, HardeningLaw); raises ValueError if invalid."""
        return (ElasticConstants(mu=self.mu, kappa=self.kappa),
                HardeningLaw(sigma_y0=self.sigma_y0, H=self.H, C=self.C,
                             mode=self.mode))


# The config's boundary conditions are the solver's own types; the
# benchmark builds specs through these names.
DirichletSpec = DirichletBC
TractionSpec = TractionBC


@dataclass
class ProblemSpec:
    """Parsed configuration, still independent of any mesh object."""

    mesh_box: tuple | None = None              # (lx, ly, lz, nx, ny, nz)
    mesh_file: str | None = None
    materials: list = field(default_factory=list)
    dirichlet: list = field(default_factory=list)
    tractions: list = field(default_factory=list)
    factors: tuple = ()
    network: NetworkConfig = field(default_factory=NetworkConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    name: str = "problem"


_SECTION_RE = re.compile(r"^\[([A-Za-z0-9_.-]+)\]$")

_BOOL = {"true": True, "false": False, "yes": True, "no": False,
         "1": True, "0": False}


def _err(where, msg):
    raise ConfigError(f"{where}: {msg}")


def _tokens(text):
    return text.replace(",", " ").replace("[", " ").replace("]", " ").split()


def _floats(where, text, n=None):
    try:
        vals = [float(t) for t in _tokens(text)]
    except ValueError:
        _err(where, f"expected numbers, got {text!r}")
    if not all(map(math.isfinite, vals)):
        _err(where, f"numbers must be finite, got {text!r}")
    if n is not None and len(vals) != n:
        _err(where, f"expected {n} numbers, got {len(vals)}")
    return vals


def _ints(where, text, n=None):
    """Integers, each read exactly by int(); a token only float() reads,
    such as 1e3, must be a whole number of magnitude at most 2**53, below
    which a float holds every integer, and equal to its float exactly."""
    out = []
    for tok, v in zip(_tokens(text), _floats(where, text, n)):
        try:
            out.append(int(tok))
        except ValueError:
            if v != int(v) or abs(v) > 2 ** 53 or Decimal(tok) != v:
                _err(where, f"expected integers, got {text!r}")
            out.append(int(v))
    return out


def _bool(where, text):
    try:
        return _BOOL[text.strip().lower()]
    except KeyError:
        _err(where, f"expected true/false, got {text!r}")


def _widths(where, text):
    w = tuple(_ints(where, text))
    if len(w) < 2 or w[0] != 3 or w[-1] != 3:
        _err(where, f"widths must run from 3 inputs to 3 outputs, got {text!r}")
    if min(w) < 1:
        _err(where, f"every width must be at least 1, got {text!r}")
    return w


_INT = (lambda where, text: _ints(where, text, 1)[0], str)
_FLOAT = (lambda where, text: _floats(where, text, 1)[0],
          lambda v: f"{v:.17g}")
_FLAG = (_bool, lambda v: "true" if v else "false")
_TEXT = (lambda where, text: text, str)


def _at_least(entry, low, strict=False):
    """``entry`` with its parsed number required to be >= ``low``, or
    > ``low`` when ``strict``."""
    parse, write = entry

    def check(where, text):
        v = parse(where, text)
        if v < low or (strict and v == low):
            _err(where, f"expected a number {'>' if strict else '>='} {low}, "
                        f"got {text!r}")
        return v
    return check, write

# The sections whose keys are the fields of one dataclass (NetworkConfig,
# OptimizerConfig, MaterialSpec): key -> (parse(where, text), write(value)),
# in field order, which is the order serialize_spec writes them in.
_SCHEMA = {
    "network": {"widths": (_widths, lambda w: " ".join(str(n) for n in w)),
                "seed": _at_least(_INT, 0), "normalize_inputs": _FLAG,
                "zero_init": _FLAG},
    "optimizer": {"lr": _at_least(_FLOAT, 0, strict=True),
                  "lbfgs_memory": _at_least(_INT, 1),
                  "patience": _at_least(_INT, 1), "tol": _at_least(_FLOAT, 0),
                  "max_iters_per_step": _at_least(_INT, 1)},
    "material": {"mu": _FLOAT, "kappa": _FLOAT, "sigma_y0": _FLOAT,
                 "H": _FLOAT, "C": _FLOAT, "mode": _TEXT, "elemset": _TEXT},
}


def _make(where, label, cls, **kwargs):
    """``cls(**kwargs)``, with a BCError from its checks reported at
    ``where``."""
    try:
        return cls(**kwargs)
    except BCError as exc:
        _err(where, f"[{label}] {exc}")


def parse_config(path) -> ProblemSpec:
    """Parse a config file into a ProblemSpec, validating every key."""
    lines = read_text(path, ConfigError).split("\n")
    name = os.path.basename(str(path))

    spec = ProblemSpec(name=os.path.splitext(name)[0])
    section = None          # (kind, subname, collected dict, line)
    pending = []            # completed raw sections

    def close_section():
        if section is not None:
            pending.append(section)

    for ln, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _SECTION_RE.match(line)
        if m:
            close_section()
            full = m.group(1)
            kind, _, sub = full.partition(".")
            if kind in ("mesh", "network", "optimizer", "loadsteps"):
                if sub:
                    _err(f"{name}:{ln}", f"section [{full}] takes no sub-name")
            elif kind in ("material", "dirichlet", "traction"):
                if not sub:
                    _err(f"{name}:{ln}",
                         f"section [{kind}] needs a sub-name, e.g. "
                         f"[{kind}.steel]")
            else:
                _err(f"{name}:{ln}", f"unknown section [{full}]")
            section = (kind, sub, {}, ln)
            continue
        if "=" not in line:
            _err(f"{name}:{ln}", f"expected 'key = value', got {line!r}")
        if section is None:
            _err(f"{name}:{ln}", "key outside of any [section]")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in section[2]:
            _err(f"{name}:{ln}", f"duplicate key {key!r} in "
                 f"[{section[0]}{'.' + section[1] if section[1] else ''}]")
        section[2][key] = (value, ln)
    close_section()

    seen = set()
    for kind, sub, kv, ln in pending:
        where = f"{name}:{ln}"
        label = kind + ("." + sub if sub else "")
        if label in seen:
            _err(where, f"duplicate section [{label}]")
        seen.add(label)

        def need(key):
            if key not in kv:
                _err(where, f"section [{label}] is missing key {key!r}")
            return kv[key]

        def used(allowed):
            for key, (_, kln) in kv.items():
                if key not in allowed:
                    _err(f"{name}:{kln}",
                         f"unknown key {key!r} in section [{label}]")

        if kind == "mesh":
            used({"box", "file"})
            if "box" in kv and "file" in kv:
                _err(where, "[mesh] takes either box or file, not both")
            if "box" in kv:
                text, kln = kv["box"]
                vals = _floats(f"{name}:{kln}", text, 6)
                spec.mesh_box = (vals[0], vals[1], vals[2],
                                 int(vals[3]), int(vals[4]), int(vals[5]))
                if any(v != int(v) for v in vals[3:]):
                    _err(f"{name}:{kln}", "divisions must be integers")
            elif "file" in kv:
                spec.mesh_file = kv["file"][0]
            else:
                _err(where, "[mesh] needs box = ... or file = ...")
        elif kind in _SCHEMA:
            table = _SCHEMA[kind]
            used(table)
            vals = {key: table[key][0](f"{name}:{kln}", text)
                    for key, (text, kln) in kv.items()}
            if kind == "material":
                for f in fields(MaterialSpec):
                    if f.default is MISSING and f.name != "name":
                        need(f.name)
                mspec = MaterialSpec(name=sub, **vals)
                try:
                    mspec.laws()
                except ValueError as exc:
                    _err(where, f"material {sub!r}: {exc}")
                spec.materials.append(mspec)
            else:                           # spec.network, spec.optimizer
                setattr(spec, kind, replace(getattr(spec, kind), **vals))
        elif kind == "loadsteps":
            used({"factors"})
            text, kln = need("factors")
            spec.factors = _make(where, label, LoadProgram, factors=tuple(
                _floats(f"{name}:{kln}", text))).factors
        elif kind == "dirichlet":
            used({"nodeset", "axis", "value"})
            vtext, vln = need("value")
            word, *nums = vtext.split() or [""]
            vals = tuple(_floats(f"{name}:{vln}", " ".join(nums),
                                 {CONST: 1, AFFINE: 4}.get(word)))
            spec.dirichlet.append(_make(
                where, label, DirichletBC, name=sub,
                node_sets=tuple(need("nodeset")[0].split()),
                axis=need("axis")[0], kind=word,
                coeffs=(0.0, 0.0, 0.0) + vals if word == CONST else vals))
        elif kind == "traction":
            used({"sideset", "vector"})
            vtext, vln = need("vector")
            spec.tractions.append(_make(
                where, label, TractionBC, name=sub,
                side_sets=tuple(need("sideset")[0].split()),
                vector=tuple(_floats(f"{name}:{vln}", vtext))))

    if spec.mesh_box is None and spec.mesh_file is None:
        _err(name, "config needs a [mesh] section with box or file")
    if not spec.materials:
        _err(name, "config needs at least one [material.<name>] section")
    if not spec.factors:
        _err(name, "config needs a [loadsteps] section with factors")
    return spec


def build_problem(spec: ProblemSpec, base_dir: str = ".",
                  mesh: Mesh | None = None) -> Problem:
    """Materialize a ProblemSpec: load or generate the mesh (or take the
    given in-memory ``mesh``) and assign per-element materials.  The
    boundary conditions pass through as they are."""
    if mesh is None and spec.mesh_file is not None:
        path = spec.mesh_file
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        mesh = read_mesh(path)
    elif mesh is None:
        lx, ly, lz, nx, ny, nz = spec.mesh_box
        mesh = generate_structured_box((lx, ly, lz), (nx, ny, nz))

    materials = []
    default_idx = None
    assigned = np.full(mesh.n_elements, -1, dtype=np.int64)
    for i, m in enumerate(spec.materials):
        materials.append(m.laws())
        if m.elemset is None:
            if default_idx is not None:
                raise ConfigError("at most one material may omit 'elemset' "
                                  f"(both {spec.materials[default_idx].name!r} "
                                  f"and {m.name!r} do)")
            default_idx = i
        else:
            if m.elemset not in mesh.elem_sets:
                raise ConfigError(f"material {m.name!r}: unknown element set "
                                  f"{m.elemset!r}")
            ids = mesh.elem_sets[m.elemset]
            clash = assigned[ids] >= 0
            if np.any(clash):
                e = int(ids[np.flatnonzero(clash)[0]])
                raise ConfigError(f"element {e} assigned to two materials "
                                  f"({spec.materials[assigned[e]].name!r} and "
                                  f"{m.name!r})")
            assigned[ids] = i
    if default_idx is not None:
        assigned[assigned < 0] = default_idx
    elif np.any(assigned < 0):
        e = int(np.flatnonzero(assigned < 0)[0])
        raise ConfigError(f"element {e} has no material; add a material "
                          "without 'elemset' as the default")
    mesh.mat_id = assigned

    return Problem(mesh=mesh, materials=materials, dirichlet=spec.dirichlet,
                   tractions=spec.tractions,
                   program=LoadProgram(factors=spec.factors),
                   network=spec.network, optimizer=spec.optimizer,
                   name=spec.name)


def _fmt_floats(vals) -> str:
    return " ".join(f"{v:.17g}" for v in vals)


def _write_section(label: str, obj) -> list:
    """Lines of one schema section: every field of ``obj`` not None."""
    table = _SCHEMA[label.partition(".")[0]]
    return ["", f"[{label}]"] + [f"{key} = {write(getattr(obj, key))}"
                                 for key, (_, write) in table.items()
                                 if getattr(obj, key) is not None]


def serialize_spec(spec: ProblemSpec) -> str:
    """Config text for a spec with every default filled in; parsing it
    back reproduces the same resolved problem.  A material, dirichlet or
    traction name that parse_config would not read back as a distinct
    section name, a mesh path or a set name it would read back as
    something else, raises ``ConfigError``."""
    for kind, items in (("material", spec.materials),
                        ("dirichlet", spec.dirichlet),
                        ("traction", spec.tractions)):
        seen = set()
        for name in (item.name for item in items):
            if not (isinstance(name, str) and name
                    and _SECTION_RE.fullmatch(f"[{kind}.{name}]")):
                raise ConfigError(f"{kind} name {name!r} cannot be written "
                                  f"as a section [{kind}.<name>]: a name is "
                                  "letters, digits, '_', '.' and '-'")
            if name in seen:
                raise ConfigError(f"section [{kind}.{name}] would be "
                                  "written twice")
            seen.add(name)
    path = spec.mesh_file
    if path is not None and ("#" in path or path != path.strip()
                             or "\n" in path or "\r" in path):
        raise ConfigError(f"[mesh] file {path!r} cannot be written: a path "
                          "with '#', a line break or leading or trailing "
                          "blanks reads back as another path")
    for label, key, names in (
            [(f"material.{m.name}", "elemset", [m.elemset])
             for m in spec.materials if m.elemset is not None]
            + [(f"dirichlet.{d.name}", "nodeset", d.node_sets)
               for d in spec.dirichlet]
            + [(f"traction.{t.name}", "sideset", t.side_sets)
               for t in spec.tractions]):
        for name in names:
            if not _is_set_name(name):
                raise ConfigError(f"[{label}] {key}: set name {name!r} "
                                  "cannot be written: a set name is one "
                                  "word without '#'")
    out = []
    out.append("[mesh]")
    if spec.mesh_file is not None:
        out.append(f"file = {spec.mesh_file}")
    else:
        lx, ly, lz, nx, ny, nz = spec.mesh_box
        out.append(f"box = {_fmt_floats((lx, ly, lz))} {nx} {ny} {nz}")
    out += _write_section("network", spec.network)
    out += _write_section("optimizer", spec.optimizer)
    for m in spec.materials:
        out += _write_section(f"material.{m.name}", m)
    for d in spec.dirichlet:
        value = f"const {d.coeffs[3]:.17g}" if d.kind == CONST \
            else "affine " + _fmt_floats(d.coeffs)
        out += ["", f"[dirichlet.{d.name}]",
                "nodeset = " + " ".join(d.node_sets),
                f"axis = {d.axis}", f"value = {value}"]
    for t in spec.tractions:
        out += ["", f"[traction.{t.name}]",
                "sideset = " + " ".join(t.side_sets),
                f"vector = {_fmt_floats(t.vector)}"]
    out += ["", "[loadsteps]", f"factors = {_fmt_floats(spec.factors)}", ""]
    return "\n".join(out)
