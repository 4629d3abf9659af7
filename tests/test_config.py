"""Config text format: parsing, validation errors, problem assembly."""

import re
from dataclasses import fields, replace

import numpy as np
import pytest

from demplast.bc import TractionBC
from demplast.config import (_SCHEMA, ConfigError, MaterialSpec,
                             build_problem, parse_config, serialize_spec)
from demplast.mesh import write_mesh, generate_structured_box
from demplast.presets import PRESETS, get_preset
from demplast.solver import NetworkConfig, OptimizerConfig

FULL = """\
# full example touching every section
[mesh]
box = 2 1 1  2 1 1

[network]
widths = 3 16 16 3
seed = 7
normalize_inputs = true
zero_init = false

[optimizer]
lr = 0.25
lbfgs_memory = 12
patience = 5
tol = 1e-7
max_iters_per_step = 321

[material.steel]
mu = 384.62
kappa = 833.33
sigma_y0 = 50.0
H = 500.0
mode = isotropic

[dirichlet.drive]
nodeset = x_min x_max
axis = x
value = affine 0 0.25 0 0

[dirichlet.base]
nodeset = z_min
axis = z
value = const 0.0

[traction.pull]
sideset = y_max
vector = 0 3.5 0

[loadsteps]
factors = 0.5, 1.0, 0.5, 0.0
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_full_config(tmp_path):
    spec = parse_config(write_cfg(tmp_path, FULL))
    assert spec.mesh_box == (2.0, 1.0, 1.0, 2, 1, 1)
    assert spec.mesh_file is None
    assert spec.network.widths == (3, 16, 16, 3)
    assert spec.network.seed == 7
    assert spec.network.zero_init is False
    assert spec.optimizer.lr == 0.25
    assert spec.optimizer.lbfgs_memory == 12
    assert spec.optimizer.patience == 5
    assert spec.optimizer.tol == 1e-7
    assert spec.optimizer.max_iters_per_step == 321
    (m,) = spec.materials
    assert (m.name, m.mu, m.kappa) == ("steel", 384.62, 833.33)
    assert (m.sigma_y0, m.H, m.C, m.mode) == (50.0, 500.0, 0.0, "isotropic")
    assert m.elemset is None
    d1, d2 = spec.dirichlet
    assert d1.node_sets == ("x_min", "x_max")
    assert (d1.axis, d1.kind) == ("x", "affine")
    assert d1.coeffs == (0.0, 0.25, 0.0, 0.0)
    assert (d2.axis, d2.kind, d2.coeffs[3]) == ("z", "const", 0.0)
    (t,) = spec.tractions
    assert t.side_sets == ("y_max",)
    assert t.vector == (0.0, 3.5, 0.0)
    assert spec.factors == (0.5, 1.0, 0.5, 0.0)


def test_build_problem_from_box(tmp_path):
    spec = parse_config(write_cfg(tmp_path, FULL))
    problem = build_problem(spec, base_dir=str(tmp_path))
    assert problem.mesh.n_elements == 2
    assert problem.mesh.nodes[:, 0].max() == 2.0
    assert len(problem.materials) == 1
    np.testing.assert_array_equal(problem.mesh.mat_id, 0)
    assert problem.materials[0][0].mu == 384.62
    assert [bc.name for bc in problem.dirichlet] == ["drive", "base"]
    assert problem.program.factors == (0.5, 1.0, 0.5, 0.0)
    assert problem.tractions[0].vector == (0.0, 3.5, 0.0)


@pytest.mark.parametrize("section,cls", [("network", NetworkConfig),
                                         ("optimizer", OptimizerConfig),
                                         ("material", MaterialSpec)])
def test_schema_keys_are_the_fields_in_order(section, cls):
    names = [f.name for f in fields(cls) if f.name != "name"]
    assert list(_SCHEMA[section]) == names


def test_serialize_round_trip(tmp_path):
    specs = [parse_config(write_cfg(tmp_path, FULL))]
    specs += [get_preset(name).build()[0] for name in sorted(PRESETS)]
    for spec in specs:
        text = serialize_spec(spec)
        sub = tmp_path / f"echo-{spec.name}"
        sub.mkdir()
        # same basename, same name
        again = parse_config(write_cfg(sub, text, name=f"{spec.name}.cfg"))
        assert again == spec
        # serialization is a fixed point
        assert serialize_spec(again) == text


@pytest.mark.parametrize("kind,names", [
    ("dirichlet", [""]), ("dirichlet", ["my drive"]), ("traction", ["a#b"]),
    ("material", ["steel]"]), ("material", ["metal", "metal"])])
def test_serialize_rejects_names_parse_config_cannot_read(kind, names):
    """A sub-name that would not parse back as a distinct section, such as
    the ``DirichletBC`` default "" or a repeated name, raises instead of
    giving a config that parse_config rejects."""
    spec, _ = get_preset("shear-iso").build()
    attr = {"material": "materials", "dirichlet": "dirichlet",
            "traction": "tractions"}[kind]
    template = TractionBC(side_sets=("x_max",), vector=(1.0, 0.0, 0.0)) \
        if kind == "traction" else getattr(spec, attr)[0]
    setattr(spec, attr, [replace(template, name=n) for n in names])
    with pytest.raises(ConfigError, match=re.escape(f"[{kind}.")):
        serialize_spec(spec)


@pytest.mark.parametrize("mesh_file,field,value,named", [
    ("/x/a#b/mesh.txt", None, None, "[mesh] file"),
    ("mesh.txt\n", None, None, "[mesh] file"),
    ("runs/a\nb.txt", None, None, "[mesh] file"),
    (" mesh.txt", None, None, "[mesh] file"),
    (None, "nodeset", "x min", "[dirichlet.drive] nodeset"),
    (None, "nodeset", "x#min", "[dirichlet.drive] nodeset"),
    (None, "nodeset", "", "[dirichlet.drive] nodeset"),
    (None, "sideset", "y max", "[traction.pull] sideset"),
    (None, "elemset", "left#1", "[material.metal] elemset"),
], ids=["path-hash", "path-newline-end", "path-newline", "path-blank",
        "nodeset-space", "nodeset-hash", "nodeset-empty", "sideset-space",
        "elemset-hash"])
def test_serialize_rejects_values_parse_config_reads_otherwise(
        mesh_file, field, value, named):
    """A mesh path or set name that parse_config would cut at '#', split
    on blanks or strip raises, naming its section and key, instead of
    giving a config that reads back as another problem."""
    spec, _ = get_preset("shear-iso").build()
    spec.mesh_file = mesh_file
    if field == "nodeset":
        spec.dirichlet[0] = replace(spec.dirichlet[0], node_sets=(value,))
    elif field == "sideset":
        spec.tractions = [TractionBC(side_sets=("y_min", value),
                                     vector=(1.0, 0.0, 0.0), name="pull")]
    elif field == "elemset":
        spec.materials[0] = replace(spec.materials[0], elemset=value)
    with pytest.raises(ConfigError, match=re.escape(named)):
        serialize_spec(spec)


def test_mesh_file_resolved_relative_to_config(tmp_path):
    mesh = generate_structured_box((1.0, 1.0, 1.0), (1, 1, 1))
    sub = tmp_path / "inputs"
    sub.mkdir()
    write_mesh(mesh, str(sub / "cube.txt"))
    text = FULL.replace("box = 2 1 1  2 1 1", "file = cube.txt")
    spec = parse_config(write_cfg(sub, text))
    problem = build_problem(spec, base_dir=str(sub))
    assert problem.mesh.n_nodes == 8


def test_material_per_elemset(tmp_path):
    mesh = generate_structured_box((2.0, 1.0, 1.0), (2, 1, 1))
    mesh.elem_sets["left"] = np.array([0])
    write_mesh(mesh, str(tmp_path / "bar.txt"))
    text = FULL.replace("box = 2 1 1  2 1 1", "file = bar.txt")
    text += ("\n[material.soft]\nmu = 100.0\nkappa = 200.0\n"
             "sigma_y0 = 10.0\nH = 1.0\nelemset = left\n")
    problem = build_problem(parse_config(write_cfg(tmp_path, text)),
                            base_dir=str(tmp_path))
    assert len(problem.materials) == 2
    # element 0 gets the elemset material, element 1 falls to the default
    soft = [i for i, (c, _) in enumerate(problem.materials) if c.mu == 100.0]
    assert problem.mesh.mat_id[0] == soft[0]
    assert problem.mesh.mat_id[1] != soft[0]


@pytest.mark.parametrize("mangle,lineno,fragment", [
    (lambda t: t.replace("[mesh]", "[grid]"), 2, "unknown section"),
    (lambda t: t.replace("lr = 0.25", "rate = 0.25"), 12, "unknown key"),
    (lambda t: t.replace("seed = 7", "seed = 7\nseed = 8"), 8, "duplicate"),
    (lambda t: t.replace("axis = x\n", "", 1), None, "axis"),
    (lambda t: t.replace("box = 2 1 1  2 1 1",
                         "box = 2 1 1  2 1 1\nfile = a.txt"), 2, "both"),
    (lambda t: t.replace("mu = 384.62\n", "", 1), None, "mu"),
    (lambda t: t.replace("factors = 0.5, 1.0, 0.5, 0.0", "factors ="),
     None, "factors"),
    (lambda t: t.replace("axis = x", "axis = w"), None, "axis"),
    (lambda t: t.replace("value = const 0.0", "value = const"), None, None),
    (lambda t: t.replace("value = affine 0 0.25 0 0",
                         "value = affine 0 0.25"), None, None),
    (lambda t: t.replace("mode = isotropic", "mode = both"), None, "mode"),
    (lambda t: t.replace("widths = 3 16 16 3", "widths = 2 16 3"), 6,
     "widths"),
    (lambda t: t.replace("seed = 7", "seed = 7.5"), 7, "integer"),
    (lambda t: t.replace("normalize_inputs = true",
                         "normalize_inputs = maybe"), 8, "true/false"),
    (lambda t: t + "\norphan = 1\n", None, None),
    (lambda t: t.replace("patience = 5", "patience = 5.5"), 14, "integers"),
    (lambda t: t.replace("lr = 0.25", "lr = fast"), 12, "expected numbers"),
    (lambda t: t.replace("tol = 1e-7", "tol = 1e-7 1e-8"), 15,
     "expected 1 numbers, got 2"),
    (lambda t: t.replace("H = 500.0", "H = soft"), 22, "'soft'"),
    (lambda t: t.replace("mode = isotropic", "mode = isotropic\nshade = 1"),
     24, "unknown key 'shade' in section [material.steel]"),
    (lambda t: t.replace("seed = 7", "seed = nan"), 7, "finite"),
    (lambda t: t.replace("widths = 3 16 16 3", "widths = 3 nan 3"), 6,
     "finite"),
    (lambda t: t.replace("box = 2 1 1  2 1 1", "box = 2 1 1 nan 1 1"), 3,
     "finite"),
    (lambda t: t.replace("max_iters_per_step = 321",
                         "max_iters_per_step = inf"), 16, "finite"),
    (lambda t: t.replace("H = 500.0", "H = nan"), 22, "finite"),
    (lambda t: t.replace("vector = 0 3.5 0", "vector = nan 0 0"), 37,
     "finite"),
    (lambda t: t.replace("value = const 0.0", "value = const nan"), 33,
     "finite"),
    (lambda t: t.replace("lr = 0.25", "lr = nan"), 12, "finite"),
    (lambda t: t.replace("lr = 0.25", "lr = inf"), 12, "finite"),
    (lambda t: t.replace("tol = 1e-7", "tol = nan"), 15, "finite"),
    (lambda t: t.replace("sigma_y0 = 50.0", "sigma_y0 = inf"), 21, "finite"),
    (lambda t: t.replace("seed = 7", "seed = -1"), 7, ">= 0, got '-1'"),
    (lambda t: t.replace("lr = 0.25", "lr = 0"), 12, "> 0, got '0'"),
    (lambda t: t.replace("lr = 0.25", "lr = -1"), 12, "> 0, got '-1'"),
    (lambda t: t.replace("lbfgs_memory = 12", "lbfgs_memory = 0"), 13,
     ">= 1, got '0'"),
    (lambda t: t.replace("patience = 5", "patience = 0"), 14,
     ">= 1, got '0'"),
    (lambda t: t.replace("tol = 1e-7", "tol = -1"), 15, ">= 0, got '-1'"),
    (lambda t: t.replace("max_iters_per_step = 321",
                         "max_iters_per_step = 0"), 16, ">= 1, got '0'"),
    (lambda t: t.replace("widths = 3 16 16 3", "widths = 3 0 3"), 6,
     "at least 1"),
    (lambda t: t.replace("[mesh]", "[mesh.fine]"), 2, "takes no sub-name"),
    (lambda t: t.replace("[material.steel]", "[material]"), 18,
     "needs a sub-name"),
    (lambda t: t.replace("lr = 0.25", "lr 0.25"), 12, "'key = value'"),
    (lambda t: "seed = 1\n" + t, 1, "outside of any [section]"),
    (lambda t: t + "[network]\nseed = 1\n", 41, "duplicate section"),
    (lambda t: t.replace("box = 2 1 1  2 1 1", "box = 2 1 1  2.5 1 1"), 3,
     "divisions must be integers"),
    (lambda t: t.replace("box = 2 1 1  2 1 1\n", ""), 2,
     "[mesh] needs box"),
    (lambda t: t.replace("[loadsteps]\nfactors = 0.5, 1.0, 0.5, 0.0\n", ""),
     None, "needs a [loadsteps] section"),
])
def test_parse_errors_carry_position(tmp_path, mangle, lineno, fragment):
    path = write_cfg(tmp_path, mangle(FULL), name="bad.cfg")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    msg = str(err.value)
    assert "bad.cfg" in msg
    if lineno is not None:
        assert f"bad.cfg:{lineno}" in msg
    if fragment is not None:
        assert fragment in msg


def _shear_iso_cfg(tmp_path, name, inserted):
    """The exported shear-iso problem.cfg with lines inserted as line 2,
    written as UTF-8."""
    lines = serialize_spec(get_preset("shear-iso").build()[0]).split("\n")
    lines[1:1] = inserted
    path = tmp_path / name
    path.write_bytes("\n".join(lines).encode("utf-8"))
    return path


@pytest.mark.parametrize("name, comment", [("ff.cfg", "# note\x0cshade = 1"),
                                           ("ln.cfg", "# a\x85b")])
def test_comment_ends_only_at_newline(tmp_path, name, comment):
    """A form feed or NEL inside a comment neither ends the comment nor
    starts a line: the file reads as the one without that comment."""
    path = _shear_iso_cfg(tmp_path, name, [comment])
    want = replace(get_preset("shear-iso").build()[0], name=name[:-4])
    assert parse_config(path) == want


@pytest.mark.parametrize("comment", ["# note\x0cshade = 1", "# a\x85b",
                                     "# \x1c\x1d\x1e\u2028\u2029\x0b"])
def test_line_numbers_count_only_newlines(tmp_path, comment):
    path = _shear_iso_cfg(tmp_path, "bad.cfg", [comment, "zap = 1"])
    with pytest.raises(ConfigError, match=r"^bad\.cfg:3: unknown key 'zap' "
                                          r"in section \[mesh\]"):
        parse_config(path)


def test_no_material_at_all(tmp_path):
    text = "\n".join(line for line in FULL.splitlines()
                     if not line.startswith(("[material", "mu", "kappa",
                                             "sigma_y0", "H =", "mode")))
    with pytest.raises(ConfigError, match="material"):
        parse_config(write_cfg(tmp_path, text))


def test_two_default_materials_rejected(tmp_path):
    text = FULL + ("\n[material.also]\nmu = 1.0\nkappa = 2.0\n"
                   "sigma_y0 = 3.0\n")
    spec = parse_config(write_cfg(tmp_path, text))
    with pytest.raises(ConfigError, match="at most one material"):
        build_problem(spec, base_dir=str(tmp_path))


def test_unknown_elemset_named(tmp_path):
    text = FULL.replace("mode = isotropic", "mode = isotropic\nelemset = nope")
    spec = parse_config(write_cfg(tmp_path, text))
    with pytest.raises(ConfigError, match="nope"):
        build_problem(spec, base_dir=str(tmp_path))


def test_unassigned_element_rejected(tmp_path):
    mesh = generate_structured_box((2.0, 1.0, 1.0), (2, 1, 1))
    mesh.elem_sets["left"] = np.array([0])
    write_mesh(mesh, str(tmp_path / "bar.txt"))
    text = FULL.replace("box = 2 1 1  2 1 1", "file = bar.txt")
    text = text.replace("mode = isotropic", "mode = isotropic\nelemset = left")
    spec = parse_config(write_cfg(tmp_path, text))
    with pytest.raises(ConfigError, match="1"):
        build_problem(spec, base_dir=str(tmp_path))


def test_overlapping_elemsets_rejected(tmp_path):
    mesh = generate_structured_box((2.0, 1.0, 1.0), (2, 1, 1))
    mesh.elem_sets["a"] = np.array([0, 1])
    mesh.elem_sets["b"] = np.array([1])
    write_mesh(mesh, str(tmp_path / "bar.txt"))
    text = FULL.replace("box = 2 1 1  2 1 1", "file = bar.txt")
    text = text.replace("mode = isotropic", "mode = isotropic\nelemset = a")
    text += ("\n[material.other]\nmu = 1.0\nkappa = 2.0\nsigma_y0 = 3.0\n"
             "elemset = b\n")
    spec = parse_config(write_cfg(tmp_path, text))
    with pytest.raises(ConfigError, match="element 1"):
        build_problem(spec, base_dir=str(tmp_path))


def test_missing_mesh_section(tmp_path):
    text = FULL.replace("[mesh]\nbox = 2 1 1  2 1 1\n", "")
    with pytest.raises(ConfigError, match="mesh"):
        parse_config(write_cfg(tmp_path, text))


def test_missing_file_raises_filenotfound(tmp_path):
    text = FULL.replace("box = 2 1 1  2 1 1", "file = ghost.txt")
    spec = parse_config(write_cfg(tmp_path, text))
    with pytest.raises(FileNotFoundError):
        build_problem(spec, base_dir=str(tmp_path))
