"""Every output writer replaces its file instead of rewriting it in place."""

import os

import numpy as np
import pytest

from demplast.material import PlasticState
from demplast.mesh import generate_structured_box, write_mesh
from demplast.network import init_network
from demplast.post import curve_csv, write_vtk
from demplast.solver import StepRecord, write_state

MESH = generate_structured_box((1.0, 1.0, 1.0), (2, 1, 1))


def _record(v):
    ne = MESH.n_elements
    return StepRecord(step=1, factor=v, loss=v, iterations=1, converged=True,
                      u=np.full((MESH.n_nodes, 3), v),
                      strain=np.full((ne, 6), v), sigma=np.full((ne, 6), v),
                      ebar_p=np.full(ne, v), mises=np.full(ne, v))


def _state(v):
    n = MESH.n_elements
    return PlasticState(sigma=np.full((n, 6), v), eps_p=np.zeros((n, 6)),
                        ebar_p=np.full(n, v), q=np.zeros((n, 6)))


# writer name -> write(path, v), which writes different bytes for each v
WRITERS = {
    "write_vtk": lambda path, v: write_vtk(
        MESH, path, point_data={"displacement": _record(v).u},
        cell_data={"mises": _record(v).mises}),
    "curve_csv": lambda path, v: curve_csv(
        [_record(v)], np.ones(MESH.n_elements), path),
    "write_mesh": lambda path, v: write_mesh(
        generate_structured_box((v, 1.0, 1.0), (2, 1, 1)), path),
    "Network.save": lambda path, v: init_network(
        (3, 4, 3), seed=int(10 * v)).save(path),
    "write_state": lambda path, v: write_state(path, _state(v)),
}


@pytest.mark.parametrize("name", list(WRITERS))
def test_writer_replaces_file(tmp_path, name):
    """A hard link to the old file keeps the old bytes; the path gets the
    new ones, the same bytes a write to a fresh path produces."""
    write = WRITERS[name]
    path, link, fresh = (tmp_path / n for n in ("out", "link", "fresh"))
    write(str(path), 0.5)                # the path does not exist yet
    old = path.read_bytes()
    os.link(path, link)
    write(str(path), 2.0)
    write(str(fresh), 2.0)
    new = fresh.read_bytes()
    assert new != old
    assert link.read_bytes() == old
    assert path.read_bytes() == new
    assert not path.samefile(link)


def test_writer_writes_through_symlink(tmp_path):
    """A symlink at the output path is followed, not removed: only regular
    files are replaced."""
    target = tmp_path / "target.csv"
    target.write_text("old\n")
    path = tmp_path / "curve.csv"
    path.symlink_to(target)
    WRITERS["curve_csv"](str(path), 2.0)
    assert path.is_symlink()
    assert target.read_text().startswith("step,factor,strain,stress\n")
