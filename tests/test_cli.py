"""Command-line interface: subcommands, file outputs, exit codes."""

import os
import subprocess
import sys

import numpy as np
import pytest

from demplast.cli import main
from demplast.config import parse_config, build_problem
from demplast.post import read_vtk

SHEAR_ARGS = ["--preset", "shear-iso", "--steps", "2", "--tol", "1e-4"]


def run_main(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_presets_listing(capsys):
    code, out, _ = run_main(capsys, "presets")
    assert code == 0
    names = [line.split()[0] for line in out.strip().splitlines()]
    assert names == ["bimat", "plate-hole", "shear-iso", "shear-kin"]


def test_presets_export_builds_back(tmp_path, capsys):
    out_dir = tmp_path / "exported"
    code, _, _ = run_main(capsys, "presets", "bimat", "--out", str(out_dir))
    assert code == 0
    assert (out_dir / "problem.cfg").exists()
    assert (out_dir / "mesh.txt").exists()
    spec = parse_config(str(out_dir / "problem.cfg"))
    problem = build_problem(spec, base_dir=str(out_dir))
    assert len(problem.materials) == 2
    assert problem.mesh.n_elements == 400
    assert set(problem.mesh.mat_id) == {0, 1}


def test_presets_export_needs_out(capsys):
    code, _, err = run_main(capsys, "presets", "shear-iso")
    assert code == 3
    assert "--out" in err


def test_train_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    code, stdout, _ = run_main(capsys, "train", *SHEAR_ARGS,
                               "--out", str(out))
    assert code == 0
    for name in ("resolved.cfg", "curve.csv",
                 "step_1.ckpt", "step_2.ckpt",
                 "state_1.dat", "state_2.dat",
                 "step_1.vtk", "step_2.vtk"):
        assert (out / name).exists(), name
    assert "step 1" in stdout and "step 2" in stdout
    assert "wrote 2 step(s)" in stdout

    lines = (out / "curve.csv").read_text().splitlines()
    assert lines[0] == "step,factor,strain,stress"
    assert len(lines) == 3

    # the resolved config reproduces the run setup from the out dir alone
    spec = parse_config(str(out / "resolved.cfg"))
    assert spec.mesh_box is not None       # box meshes stay inline
    assert len(spec.factors) == 2
    assert spec.optimizer.tol == 1e-4      # the override is echoed
    problem = build_problem(spec, base_dir=str(out))
    assert problem.mesh.n_elements == 16

    data = read_vtk(str(out / "step_2.vtk"))
    assert "displacement" in data.point_data
    assert "mises" in data.cell_data and "peeq" in data.cell_data
    assert "stress" in data.cell_tensors


CAPPED_CFG = """\
[mesh]
box = 1 1 1 2 2 1
[optimizer]
max_iters_per_step = 2
[material.steel]
mu = 384.62
kappa = 833.33
sigma_y0 = 50.0
H = 500.0
[dirichlet.drive]
nodeset = x_min x_max y_min y_max
axis = x
value = affine 0 0.25 0 0
[dirichlet.base]
nodeset = y_min
axis = y
value = const 0
[loadsteps]
factors = 0.5 1.0
"""


def test_train_cap_hit_exit_code(tmp_path, capsys):
    """A step stopped by the iteration cap makes train exit 6, after every
    output is written, and names the steps on stderr."""
    cfg = tmp_path / "capped.cfg"
    cfg.write_text(CAPPED_CFG)
    out = tmp_path / "run"
    code, stdout, err = run_main(capsys, "train", "--config", str(cfg),
                                 "--out", str(out))
    assert code == 6
    assert "(cap hit)" in stdout
    assert "load step(s) 1, 2" in err
    for name in ("resolved.cfg", "curve.csv", "step_1.ckpt", "step_2.ckpt",
                 "state_1.dat", "state_2.dat", "step_1.vtk", "step_2.vtk"):
        assert (out / name).exists(), name
    assert len((out / "curve.csv").read_text().splitlines()) == 3


def test_learning_rate_blowup_recovers_once_then_fails(tmp_path, capsys):
    """shear-iso at lr = 3 overshoots, takes its one learning-rate halving
    and still reaches the default run's step-1 loss; at lr = 10 the loss
    blows up again after the halving, and train exits 5 before anything
    of step 1 is written."""
    assert main(["presets", "shear-iso", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "problem.cfg").read_text()
    assert "\nlr = 1\n" in text
    losses = {}
    for lr in ("1", "3", "10"):
        cfg = tmp_path / f"lr-{lr}.cfg"
        cfg.write_text(text.replace("\nlr = 1\n", f"\nlr = {lr}\n"))
        out = tmp_path / f"run-{lr}"
        code, stdout, err = run_main(capsys, "train", "--config", str(cfg),
                                     "--steps", "1", "--out", str(out))
        if lr == "10":
            assert code == 5
            assert ("diverged: loss" in err and "above 100 x the best after "
                    "learning-rate halving" in err)
            assert not list(out.glob("step_1.*"))
        else:
            assert code == 0
            losses[lr] = float(stdout.split(" loss ")[1].split()[0])
    assert losses["3"] == pytest.approx(losses["1"], rel=1e-6)


BC_CFG = """\
[mesh]
box = 1 1 1 1 1 1
[material.steel]
mu = 384.62
kappa = 833.33
sigma_y0 = 50.0
H = 500.0
[dirichlet.fix]
nodeset = x_min
axis = x
value = const 0
[traction.pull]
sideset = x_max
vector = 1 0 0
[loadsteps]
factors = 0.5 1.0
"""


@pytest.mark.parametrize("old,new,named", [
    # y_min shares two nodes with x_min, where fix already sets u_x = 0
    ("[traction.pull]", "[dirichlet.slide]\nnodeset = y_min\naxis = x\n"
                        "value = const 0.1\n[traction.pull]", None),
    ("sideset = x_max", "sideset =", None),
    ("factors = 0.5 1.0", "factors = 0.5 nan", None),
    ("nodeset = x_min", "nodeset = x_min ghost_nodes", "'ghost_nodes'"),
    ("sideset = x_max", "sideset = ghost_sides", "'ghost_sides'"),
], ids=["conflicting-dirichlet", "empty-sideset", "nan-factor",
        "unknown-nodeset", "unknown-sideset"])
def test_bc_error_exit_code(tmp_path, capsys, old, new, named):
    """Boundary-condition errors found after parsing are config errors."""
    cfg = tmp_path / "bc.cfg"
    cfg.write_text(BC_CFG.replace(old, new))
    code, _, err = run_main(capsys, "train", "--config", str(cfg),
                            "--out", str(tmp_path / "o"))
    assert code == 3
    assert err.startswith("error: ")
    assert "Traceback" not in err
    if named is not None:
        assert named in err


CLASH = "node 0 axis x constrained twice with conflicting values (0 vs 1)"


def clash_config(tmp_path, capsys):
    """shear-iso with the factors 0 and 1/6 and a constraint on x_min that
    agrees with the preset's at factor 0 but not at factor 1."""
    code, _, _ = run_main(capsys, "presets", "shear-iso", "--out",
                          str(tmp_path / "p"))
    assert code == 0
    text = (tmp_path / "p" / "problem.cfg").read_text()
    text = text[:text.index("factors = ")] + (
        "factors = 0 0.16666666666666666\n\n"
        "[dirichlet.clash]\nnodeset = x_min\naxis = x\nvalue = const 1\n")
    cfg = tmp_path / "p" / "clash.cfg"
    cfg.write_text(text)
    return cfg


def test_dirichlet_conflict_found_before_any_step(tmp_path, capsys):
    """Two constraints that agree at the first factor (0) but not at the
    second fail before step 1 trains: train exits 3 and writes no step
    file."""
    cfg = clash_config(tmp_path, capsys)
    out = tmp_path / "run"
    code, _, err = run_main(capsys, "train", "--config", str(cfg),
                            "--steps", "3", "--out", str(out))
    assert code == 3
    assert CLASH in err
    assert os.listdir(out) == ["resolved.cfg"]


def test_gradcheck_refuses_the_dirichlet_conflict_train_refuses(tmp_path,
                                                                capsys):
    """The audit builds its boundary values at factor 1, as the load steps
    do, so at the first factor (0) it exits 3 as train does."""
    cfg = clash_config(tmp_path, capsys)
    code, out, err = run_main(capsys, "gradcheck", "--config", str(cfg))
    assert code == 3
    assert CLASH in err and out == ""


def test_infer_replays_training_output(tmp_path, capsys):
    train_dir = tmp_path / "train"
    assert main(["train", *SHEAR_ARGS, "--out", str(train_dir)]) == 0
    capsys.readouterr()

    infer_dir = tmp_path / "replay"
    code, stdout, _ = run_main(
        capsys, "infer", "--config", str(train_dir / "resolved.cfg"),
        "--checkpoint-dir", str(train_dir), "--out", str(infer_dir))
    assert code == 0
    assert "(inference)" in stdout
    assert (infer_dir / "curve.csv").exists()
    # replay of the same mesh reproduces the training curve exactly
    assert ((infer_dir / "curve.csv").read_text()
            == (train_dir / "curve.csv").read_text())


def test_infer_missing_checkpoint_dir(tmp_path, capsys):
    code, _, err = run_main(capsys, "infer", "--preset", "shear-iso",
                            "--checkpoint-dir", str(tmp_path / "ghost"),
                            "--out", str(tmp_path / "o"))
    assert code == 4
    assert "ghost" in err


def test_infer_incomplete_checkpoints(tmp_path, capsys):
    train_dir = tmp_path / "train"
    assert main(["train", *SHEAR_ARGS, "--out", str(train_dir)]) == 0
    os.remove(train_dir / "step_2.ckpt")
    capsys.readouterr()
    code, _, err = run_main(
        capsys, "infer", "--config", str(train_dir / "resolved.cfg"),
        "--checkpoint-dir", str(train_dir), "--out", str(tmp_path / "o"))
    assert code == 5
    assert "step 2" in err


def test_oracle_stdout_rows(capsys):
    code, out, _ = run_main(capsys, "oracle", "--preset", "shear-iso")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "step,gamma,tau,ebar_p"
    assert len(lines) == 13
    row = lines[3].split(",")           # third step: gamma = 0.125
    assert float(row[1]) == 0.125
    np.testing.assert_allclose(float(row[2]), 34.675135186991085, rtol=1e-12)


def test_oracle_substeps_invariant(capsys):
    _, one, _ = run_main(capsys, "oracle", "--preset", "shear-kin")
    _, five, _ = run_main(capsys, "oracle", "--preset", "shear-kin",
                          "--substeps", "5")
    for a, b in zip(one.splitlines()[1:], five.splitlines()[1:]):
        ra, rb = a.split(","), b.split(",")
        np.testing.assert_allclose(float(rb[2]), float(ra[2]), atol=1e-12)


def test_oracle_rejects_bimat(capsys):
    code, _, err = run_main(capsys, "oracle", "--preset", "bimat")
    assert code == 3
    assert "single-material" in err


def test_oracle_rejects_problem_without_shear_drive(capsys):
    """plate-hole has one material but is pulled, not sheared."""
    code, out, err = run_main(capsys, "oracle", "--preset", "plate-hole")
    assert code == 3
    assert "u_x = b*y" in err and out == ""


def test_oracle_out_file_holds_the_stdout_rows(tmp_path, capsys):
    _, rows, _ = run_main(capsys, "oracle", "--preset", "shear-kin")
    path = tmp_path / "oracle.csv"
    code, out, _ = run_main(capsys, "oracle", "--preset", "shear-kin",
                            "--out", str(path))
    assert code == 0
    assert path.read_text() == rows
    assert out == f"wrote 12 row(s) to {path}\n"


@pytest.mark.parametrize("substeps", ["0", "-1"])
def test_oracle_rejects_substeps_below_one(capsys, substeps):
    code, out, err = run_main(capsys, "oracle", "--preset", "shear-iso",
                              "--substeps", substeps)
    assert code == 3
    assert "--substeps" in err and out == ""


@pytest.mark.parametrize("flag,value", [
    ("--samples", "0"), ("--samples", "-3"), ("--step", "0"),
    ("--step", "-0.5"), ("--step", "nan"), ("--step", "inf"),
    ("--limit", "-1"), ("--limit", "nan"), ("--limit", "inf"),
    ("--factor", "nan"), ("--factor", "inf"), ("--factor", "-inf")])
def test_gradcheck_rejects_out_of_range_arguments(capsys, flag, value):
    """Checked before the problem is built: exit 3 (bad input), not the
    failed-check exit 1 or a PASS.  ``flag=value`` lets argparse take
    "-inf" as a value rather than an option."""
    code, out, err = run_main(capsys, "gradcheck", "--preset", "shear-iso",
                              f"{flag}={value}")
    assert code == 3
    assert flag in err and out == ""


def test_gradcheck_passes(tmp_path, capsys):
    code, out, _ = run_main(capsys, "gradcheck", "--preset", "shear-iso",
                            "--samples", "5", "--seed", "2")
    assert code == 0
    assert "PASS" in out


def test_gradcheck_preset_with_in_memory_mesh(capsys):
    """bimat's mesh is built by the preset and never written to disk."""
    code, out, _ = run_main(capsys, "gradcheck", "--preset", "bimat",
                            "--samples", "3")
    assert code == 0
    assert "PASS" in out


def test_gradcheck_fail_path(capsys):
    code, out, _ = run_main(capsys, "gradcheck", "--preset", "shear-iso",
                            "--samples", "4", "--limit", "1e-18")
    assert code == 1
    assert "FAIL" in out


def test_gradcheck_passes_at_a_zero_gradient_entry(capsys):
    """At factor 0 one sampled entry is zero up to round-off (-1.4e-14,
    finite differences 1.1e-7); it is judged against the gradient's scale,
    not against itself."""
    code, out, _ = run_main(capsys, "gradcheck", "--preset", "shear-iso",
                            "--factor", "0")
    assert code == 0
    assert "PASS" in out


def test_gradcheck_fails_on_one_entry_off_by_1e_3(monkeypatch):
    """The floor under the relative difference hides no real error: the
    smallest sampled entry at or above it, made 1e-3 too large, fails."""
    from dataclasses import replace

    from demplast.energy import EnergyWorkspace
    from demplast.oracle import GRAD_FLOOR, gradient_audit
    from demplast.presets import get_preset
    from demplast.solver import make_network

    spec, mesh = get_preset("shear-iso").build()
    spec.network = replace(spec.network, zero_init=False)
    problem = build_problem(spec, mesh=mesh)
    params = make_network(problem).get_params()
    indices = np.random.default_rng(0).choice(params.size, 25, replace=False)
    original = EnergyWorkspace.loss_and_grad
    largest, bump = [], {}

    def loss_and_grad(self, net):
        loss, grad = original(self, net)
        largest.append(np.abs(grad).max())
        grad = grad.copy()
        for i, factor in bump.items():
            grad[i] *= factor
        return loss, grad

    monkeypatch.setattr(EnergyWorkspace, "loss_and_grad", loss_and_grad)
    worst, _, ana, _ = gradient_audit(problem, params, indices, 0.0)
    assert worst <= 1e-4 and np.abs(ana).min() < 1e-12 * largest[0]
    above = np.abs(ana) >= GRAD_FLOOR * largest[0]
    k = np.flatnonzero(above)[np.argmin(np.abs(ana[above]))]
    bump[indices[k]] = 1.0 + 1e-3
    worst, rel, _, _ = gradient_audit(problem, params, indices, 0.0)
    assert worst > 1e-4 and rel[k] == pytest.approx(1e-3, rel=1e-2)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_gradcheck_fails_on_nan_difference(capsys):
    """At a load factor of 1e300 the energy overflows and every sampled
    difference is nan, which must not pass."""
    code, out, _ = run_main(capsys, "gradcheck", "--preset", "shear-iso",
                            "--samples", "3", "--factor", "1e300")
    assert code == 1
    assert "difference: nan" in out and "FAIL" in out


def test_mesh_override_flag(tmp_path, capsys):
    from demplast.mesh import generate_structured_box, write_mesh
    fine = generate_structured_box((4.0, 4.0, 1.0), (8, 8, 1))
    mesh_path = tmp_path / "fine.txt"
    write_mesh(fine, str(mesh_path))

    train_dir = tmp_path / "train"
    assert main(["train", *SHEAR_ARGS, "--out", str(train_dir)]) == 0
    capsys.readouterr()

    infer_dir = tmp_path / "fine_replay"
    code, _, _ = run_main(
        capsys, "infer", "--config", str(train_dir / "resolved.cfg"),
        "--mesh", str(mesh_path), "--checkpoint-dir", str(train_dir),
        "--out", str(infer_dir))
    assert code == 0
    data = read_vtk(str(infer_dir / "step_2.vtk"))
    assert len(data.cells) == 64

    code, _, err = run_main(
        capsys, "infer", "--config", str(train_dir / "resolved.cfg"),
        "--mesh", str(tmp_path / "ghost.txt"),
        "--checkpoint-dir", str(train_dir), "--out", str(infer_dir))
    assert code == 4
    assert "ghost" in err


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[grid]\n")
    code, _, err = run_main(capsys, "train", "--config", str(bad),
                            "--out", str(tmp_path / "o"))
    assert code == 3
    assert "bad.cfg" in err


@pytest.mark.parametrize("key,value", [
    ("seed", "-1"), ("lr", "0"), ("lbfgs_memory", "0"), ("patience", "0"),
    ("tol", "-1"), ("max_iters_per_step", "0"), ("widths", "3 0 3")])
def test_out_of_range_value_exit_code(tmp_path, capsys, key, value):
    """An out-of-range [network] or [optimizer] value stops before any
    output is written, with exit 3 and the file and line."""
    run_main(capsys, "presets", "shear-iso", "--out", str(tmp_path))
    cfg = tmp_path / "problem.cfg"
    lines = cfg.read_text().splitlines()
    (i,) = [i for i, line in enumerate(lines)
            if line.startswith(key + " =")]
    lines[i] = f"{key} = {value}"
    cfg.write_text("\n".join(lines) + "\n")
    code, _, err = run_main(capsys, "train", "--config", str(cfg),
                            "--out", str(tmp_path / "o"))
    assert code == 3
    assert f"problem.cfg:{i + 1}:" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--seed", "-1", "--seed: expected a number >= 0, got '-1'"),
    ("--tol", "-1", "--tol: expected a number >= 0, got '-1'"),
    ("--steps", "0", "--steps must be at least 1")],
    ids=["--seed", "--tol", "--steps"])
def test_negative_override_exit_code(tmp_path, capsys, flag, value, message):
    """``--seed`` and ``--tol`` are checked by the entries that check
    their config keys; each bad override stops before any output."""
    code, _, err = run_main(capsys, "train", *SHEAR_ARGS, flag, value,
                            "--out", str(tmp_path / "o"))
    assert code == 3
    assert f"error: {message}" in err
    assert not (tmp_path / "o").exists()


def test_seed_override_above_two_to_the_53_is_exact(tmp_path, capsys):
    """``--seed 2**53 + 1`` trains that seed and writes it to resolved.cfg;
    read through float() it was 2**53."""
    ckpt = {}
    for seed in (2 ** 53 + 1, 2 ** 53):
        out = tmp_path / str(seed)
        assert main(["train", *SHEAR_ARGS, "--steps", "1", "--seed",
                     str(seed), "--out", str(out)]) == 0
        assert f"\nseed = {seed}\n" in (out / "resolved.cfg").read_text()
        ckpt[seed] = (out / "step_1.ckpt").read_bytes()
    capsys.readouterr()
    assert ckpt[2 ** 53 + 1] != ckpt[2 ** 53]


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_tol_override_exit_code(tmp_path, capsys, value):
    """An infinite tolerance would count every step as converged once
    the patience runs out; it is refused as a config file's is."""
    code, _, err = run_main(capsys, "train", *SHEAR_ARGS, "--tol", value,
                            "--out", str(tmp_path / "o"))
    assert code == 3
    assert "--tol" in err
    assert not (tmp_path / "o").exists()


def test_non_finite_mesh_node_exit_code(tmp_path, capsys):
    from demplast.mesh import generate_structured_box, write_mesh
    mesh_path = tmp_path / "nan.txt"
    write_mesh(generate_structured_box((4.0, 4.0, 1.0), (2, 2, 1)),
               str(mesh_path))
    text = mesh_path.read_text()
    assert text.startswith("nodes 18\n0 0 0\n")
    mesh_path.write_text(text.replace("0 0 0\n", "nan 0 0\n", 1))
    code, _, err = run_main(capsys, "train", *SHEAR_ARGS,
                            "--mesh", str(mesh_path),
                            "--out", str(tmp_path / "o"))
    assert code == 3
    assert "nan.txt: node 0 has a non-finite coordinate" in err


def test_missing_config_exit_code(tmp_path, capsys):
    code, _, err = run_main(capsys, "train", "--config",
                            str(tmp_path / "none.cfg"),
                            "--out", str(tmp_path / "o"))
    assert code == 4


@pytest.mark.parametrize("argv, expected, named", [
    (["train", "--config", "{bin}", "--out", "{out}"], 3, "bin"),
    (["train", "--preset", "shear-iso", "--mesh", "{bin}", "--out", "{out}"],
     3, "bin"),
    (["train", "--preset", "shear-iso", "--mesh", "{dir}", "--out", "{out}"],
     4, "dir"),
    (["train", "--preset", "shear-iso", "--out", "{file}"], 4, "file"),
    (["presets", "shear-iso", "--out", "{file}"], 4, "file"),
], ids=["config-binary", "mesh-binary", "mesh-directory", "train-out-file",
        "presets-out-file"])
def test_unreadable_input_exit_code(tmp_path, capsys, argv, expected, named):
    """A file that is not UTF-8 text where a config or mesh belongs exits
    3, and a directory where a file belongs or a regular file where an
    output directory belongs exits 4; each names its path."""
    paths = {"bin": tmp_path / "binary.dat", "dir": tmp_path / "meshes",
             "file": tmp_path / "taken.txt", "out": tmp_path / "o"}
    paths["bin"].write_bytes(bytes(range(256)))
    paths["dir"].mkdir()
    paths["file"].write_text("taken\n")
    code, _, err = run_main(capsys, *[a.format(**paths) for a in argv])
    assert code == expected
    assert err.startswith("error: ") and str(paths[named]) in err


def test_unknown_preset_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--preset", "nope", "--out", "x"])
    assert exc.value.code == 2


def test_presets_unknown_name_exit_code(tmp_path, capsys):
    code, _, err = run_main(capsys, "presets", "nope", "--out",
                            str(tmp_path / "o"))
    assert code == 3
    assert "unknown preset 'nope'; available: bimat, plate-hole" in err
    assert not (tmp_path / "o").exists()


def test_console_script_help():
    proc = subprocess.run([sys.executable, "-m", "demplast.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for word in ("train", "infer", "oracle", "gradcheck", "presets"):
        assert word in proc.stdout


def test_reference_comparison_metrics(tmp_path, capsys):
    train_dir = tmp_path / "train"
    assert main(["train", *SHEAR_ARGS, "--out", str(train_dir)]) == 0
    capsys.readouterr()

    # build a reference from the run's own last step
    from demplast.solver import read_state
    from demplast.material import von_mises
    spec = parse_config(str(train_dir / "resolved.cfg"))
    problem = build_problem(spec, base_dir=str(train_dir))
    state = read_state(str(train_dir / "state_2.dat"),
                       problem.mesh.n_elements)
    mises = von_mises(state.sigma)
    lines = ["elem,mises,peeq"]
    lines += [f"{e},{m:.17g},{p:.17g}"
              for e, (m, p) in enumerate(zip(mises, state.ebar_p))]
    ref = tmp_path / "ref.csv"
    ref.write_text("\n".join(lines) + "\n")

    infer_dir = tmp_path / "replay"
    code, stdout, _ = run_main(
        capsys, "infer", "--config", str(train_dir / "resolved.cfg"),
        "--checkpoint-dir", str(train_dir), "--out", str(infer_dir),
        "--reference", str(ref))
    assert code == 0
    text = (infer_dir / "metrics.txt").read_text()
    assert "mises_ad = 0" in text
    assert "peeq_l2_pct = 0" in text


def test_train_replaces_files_of_an_earlier_run(tmp_path, capsys):
    """Training into a directory that holds a run replaces its files: hard
    links to the earlier run's files keep that run's bytes."""
    ref = tmp_path / "ref.csv"
    ref.write_text("elem,mises,peeq\n" +
                   "".join(f"{e},1.0,1.0\n" for e in range(16)))
    out, kept = tmp_path / "run", tmp_path / "kept"
    args = ["train", *SHEAR_ARGS, "--out", str(out), "--reference", str(ref)]
    assert main(args + ["--seed", "0"]) == 0
    names = sorted(os.listdir(out))
    assert "resolved.cfg" in names and "metrics.txt" in names
    kept.mkdir()
    old = {}
    for name in names:
        os.link(out / name, kept / name)
        old[name] = (out / name).read_bytes()
    assert main(args + ["--seed", "1"]) == 0
    capsys.readouterr()
    assert sorted(os.listdir(out)) == names
    for name in names:
        assert (kept / name).read_bytes() == old[name], name
        assert (out / name).read_bytes() != old[name], name


ELEM_REF = "elem,mises,peeq\n" + "".join(f"{e},1.0,1.0\n" for e in range(16))


@pytest.mark.parametrize("command", ["train", "infer"])
@pytest.mark.parametrize("text,code,named", [
    (None, 4, "ghost.csv"),
    (ELEM_REF.replace("3,1.0,1.0", "3,abc,1.0"), 3, "ref.csv:5:"),
    (ELEM_REF.replace("15,1.0,1.0\n", ""), 3, "ref.csv:1:"),
    ("node,ux,uy,uz\n0,0,0,0\n60,0,0,0\n", 3, "ref.csv:1:"),
    (b"# \xff\n" + ELEM_REF.encode(), 3, "ref.csv: not UTF-8 text (byte 2)"),
], ids=["missing", "malformed-row", "too-few-elements", "too-many-nodes",
        "not-utf8"])
def test_reference_checked_before_any_step(tmp_path, capsys, command, text,
                                           code, named):
    """A missing (exit 4), malformed, mis-sized or non-UTF-8 (exit 3)
    reference stops the command before any step is trained or
    replayed."""
    ref = tmp_path / ("ghost.csv" if text is None else "ref.csv")
    if text is not None:
        ref.write_bytes(text if isinstance(text, bytes) else text.encode())
    out = tmp_path / "o"
    extra = ["--checkpoint-dir", str(tmp_path)] if command == "infer" else []
    got, stdout, err = run_main(capsys, command, "--preset", "shear-iso",
                                *extra, "--out", str(out),
                                "--reference", str(ref))
    assert got == code
    assert named in err
    assert "Traceback" not in err
    assert "step 1" not in stdout
    assert not (out / "step_1.vtk").exists()


def test_zero_reference_section_has_no_l2(tmp_path, capsys):
    """An all-zero PEEQ reference, as an elastic solution has, keeps its
    absolute difference and leaves out its L2 percentage, saying why."""
    ref = tmp_path / "ref.csv"
    ref.write_text("elem,mises,peeq\n" +
                   "".join(f"{e},100.0,0.0\n" for e in range(16)))
    out = tmp_path / "o"
    code, stdout, _ = run_main(capsys, "train", *SHEAR_ARGS, "--steps", "1",
                               "--out", str(out), "--reference", str(ref))
    assert code == 0
    keys = [line.split(" = ")[0]
            for line in (out / "metrics.txt").read_text().splitlines()]
    assert keys == ["mises_ad", "mises_l2_pct", "peeq_ad"]
    assert ("peeq_l2_pct left out: the reference field is zero everywhere"
            in stdout)


@pytest.mark.parametrize("step,size", [(2, -16), (1, 30)],
                         ids=["payload-cut", "header-cut"])
def test_infer_corrupt_checkpoint(tmp_path, capsys, step, size):
    """A cut checkpoint is a solver failure (exit 5) naming its step, as a
    missing one is."""
    train_dir = tmp_path / "train"
    assert main(["train", *SHEAR_ARGS, "--out", str(train_dir)]) == 0
    ckpt = train_dir / f"step_{step}.ckpt"
    raw = ckpt.read_bytes()
    ckpt.write_bytes(raw[:size])
    capsys.readouterr()
    code, _, err = run_main(
        capsys, "infer", "--config", str(train_dir / "resolved.cfg"),
        "--checkpoint-dir", str(train_dir), "--out", str(tmp_path / "o"))
    assert code == 5
    assert f"load step {step}" in err and ckpt.name in err
    assert "Traceback" not in err
