"""VTK writer/reader, stress-strain curve extraction, reference metrics."""

import struct

import numpy as np
import pytest

import demplast.tensor as t2
from conftest import SPECIAL_FLOATS, mixed_box_mesh
from demplast.mesh import (NODES_PER_ELEM, VTK_CELL_TYPE,
                           build_grad_operators, generate_structured_box, Mesh)
from demplast.post import (absolute_difference, compare_to_reference,
                           curve_csv, curve_rows, l2_percent,
                           read_reference_csv, read_vtk, vtk_grid, write_vtk)
from demplast.solver import StepRecord


def five_tet_mesh():
    nodes = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
                      [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]], float)
    conn = np.full((5, 8), -1, dtype=np.int64)
    conn[:, :4] = [(0, 1, 2, 5), (0, 2, 3, 7), (0, 5, 2, 7), (0, 5, 7, 4),
                   (2, 5, 6, 7)]
    return Mesh(nodes=nodes, kinds=np.full(5, "tet4", dtype="<U4"), conn=conn)


def fake_record(mesh, step=1, factor=0.5, seed=0):
    rng = np.random.default_rng(seed)
    ne = mesh.n_elements
    sigma = rng.standard_normal((ne, 6))
    return StepRecord(step=step, factor=factor, loss=1.25, iterations=7,
                      converged=True,
                      u=rng.standard_normal((mesh.n_nodes, 3)),
                      strain=rng.standard_normal((ne, 6)),
                      sigma=sigma, ebar_p=rng.random(ne),
                      mises=rng.random(ne))


def test_vtk_round_trip_hex(tmp_path):
    mesh = generate_structured_box((2.0, 1.0, 1.0), (2, 1, 1))
    rec = fake_record(mesh)
    path = tmp_path / "out.vtk"
    write_vtk(mesh, str(path), point_data={"displacement": rec.u},
              cell_data={"mises": rec.mises, "peeq": rec.ebar_p},
              cell_tensors={"stress": rec.sigma}, title="demo")
    data = read_vtk(str(path))
    np.testing.assert_array_equal(data.points, mesh.nodes)
    for cell, want in zip(data.cells, mesh.conn):
        np.testing.assert_array_equal(cell, want[:len(cell)])
    assert data.cell_types.tolist() == [12, 12]
    np.testing.assert_array_equal(data.point_data["displacement"], rec.u)
    np.testing.assert_array_equal(data.cell_data["mises"], rec.mises)
    np.testing.assert_array_equal(data.cell_data["peeq"], rec.ebar_p)
    np.testing.assert_array_equal(data.cell_tensors["stress"], rec.sigma)


def test_vtk_round_trip_tet(tmp_path):
    mesh = five_tet_mesh()
    path = tmp_path / "tets.vtk"
    write_vtk(mesh, str(path))
    data = read_vtk(str(path))
    np.testing.assert_array_equal(data.points, mesh.nodes)
    for cell, want in zip(data.cells, mesh.conn):
        assert len(cell) == 4
        np.testing.assert_array_equal(cell, want[:4])
    assert data.cell_types.tolist() == [10] * 5


def test_vtk_header_is_binary_legacy(tmp_path):
    mesh = five_tet_mesh()
    path = tmp_path / "tets.vtk"
    write_vtk(mesh, str(path), title="my title")
    lines = path.read_bytes().split(b"\n")
    assert lines[0] == b"# vtk DataFile Version 2.0"
    assert lines[1] == b"my title"
    assert lines[2] == b"BINARY"
    assert lines[3] == b"DATASET UNSTRUCTURED_GRID"
    assert lines[4] == b"POINTS 8 double"


def reference_vtk_bytes(mesh, point_data, cell_data, cell_tensors, title):
    """The VTK file built one ``struct.pack`` per value: the oracle for the
    block writer."""
    def doubles(values):
        return b"".join(struct.pack(">d", v)
                        for v in np.asarray(values, float).ravel()) + b"\n"

    def ints(values):
        return b"".join(struct.pack(">i", v) for v in values) + b"\n"

    out = [b"# vtk DataFile Version 2.0\n",
           (title.replace("\n", " ")[:255] + "\n").encode(), b"BINARY\n",
           b"DATASET UNSTRUCTURED_GRID\n",
           f"POINTS {mesh.n_nodes} double\n".encode(), doubles(mesh.nodes)]
    cells = [mesh.conn[e, :NODES_PER_ELEM[str(k)]].tolist()
             for e, k in enumerate(mesh.kinds)]
    out.append(f"CELLS {mesh.n_elements} "
               f"{mesh.n_elements + sum(len(c) for c in cells)}\n".encode())
    out.append(ints([v for ids in cells for v in [len(ids)] + ids]))
    out.append(f"CELL_TYPES {mesh.n_elements}\n".encode())
    out.append(ints([VTK_CELL_TYPE[str(k)] for k in mesh.kinds]))
    if point_data:
        out.append(f"POINT_DATA {mesh.n_nodes}\n".encode())
        for name, arr in point_data.items():
            arr = np.asarray(arr, dtype=float)
            if arr.ndim == 2 and arr.shape[1] == 3:
                out.append(f"VECTORS {name} double\n".encode())
            else:
                out.append(f"SCALARS {name} double 1\n"
                           "LOOKUP_TABLE default\n".encode())
            out.append(doubles(arr))
    if cell_data or cell_tensors:
        out.append(f"CELL_DATA {mesh.n_elements}\n".encode())
        for name, arr in cell_data.items():
            out.append(f"SCALARS {name} double 1\n"
                       "LOOKUP_TABLE default\n".encode())
            out.append(doubles(arr))
        for name, arr in cell_tensors.items():
            arr = np.asarray(arr, dtype=float)
            full = t2.to_matrix(arr) if arr.shape[-1] == 6 else arr
            out.append(f"TENSORS {name} double\n".encode())
            out.append(doubles(full))
    return b"".join(out)


def with_special(values):
    """``values`` with its first entries replaced by SPECIAL_FLOATS."""
    flat = np.array(values, dtype=float).ravel()
    flat[:len(SPECIAL_FLOATS)] = SPECIAL_FLOATS
    return flat.reshape(np.shape(values))


@pytest.mark.parametrize("with_fields, grid_passed", [
    (True, False), (False, False), (True, True), (False, True)],
    ids=["fields", "no-fields", "fields-grid-passed-in",
         "no-fields-grid-passed-in"])
def test_write_vtk_bytes_match_per_value_reference(tmp_path, with_fields,
                                                   grid_passed):
    """The grid section built by ``write_vtk`` itself, or passed in as the
    run's solver does, gives the same bytes."""
    mesh = mixed_box_mesh()
    assert set(mesh.kinds) == {"hex8", "tet4"}
    rng = np.random.default_rng(3)
    ne, nn = mesh.n_elements, mesh.n_nodes
    point_data, cell_data, cell_tensors = {}, {}, {}
    if with_fields:
        point_data = {"u": with_special(rng.standard_normal((nn, 3))),
                      "p": with_special(rng.standard_normal(nn))}
        cell_data = {"mises": with_special(1e3 * rng.random(ne)),
                     "peeq": rng.random(ne)}
        cell_tensors = {"stress": with_special(rng.standard_normal((ne, 6))),
                        "grad": rng.standard_normal((ne, 3, 3))}
    path = tmp_path / "mixed.vtk"
    grid = vtk_grid(mesh) if grid_passed else None
    write_vtk(mesh, str(path), point_data=point_data, cell_data=cell_data,
              cell_tensors=cell_tensors, title="mixed\nmesh", grid=grid)
    want = reference_vtk_bytes(mesh, point_data, cell_data, cell_tensors,
                               "mixed\nmesh")
    assert path.read_bytes() == want


def test_vtk_round_trip_mixed_kinds(tmp_path):
    mesh = mixed_box_mesh((4, 3, 2))
    rec = fake_record(mesh)
    path = tmp_path / "mixed.vtk"
    write_vtk(mesh, str(path), point_data={"displacement": rec.u},
              cell_tensors={"stress": rec.sigma})
    data = read_vtk(str(path))
    np.testing.assert_array_equal(data.points, mesh.nodes)
    assert len(data.cells) == mesh.n_elements
    for cell, kind, want in zip(data.cells, mesh.kinds, mesh.conn):
        np.testing.assert_array_equal(cell, want[:NODES_PER_ELEM[kind]])
    assert data.cell_types.tolist() == [VTK_CELL_TYPE[k] for k in mesh.kinds]
    assert set(data.cell_types.tolist()) == {10, 12}
    np.testing.assert_array_equal(data.point_data["displacement"], rec.u)
    np.testing.assert_array_equal(data.cell_tensors["stress"], rec.sigma)


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def test_vtk_round_trip_keeps_every_bit(tmp_path):
    """Special values and stress entries of magnitude at least 2**1023
    read back bit for bit; ``tensor.from_matrix``'s 0.5 * (a + a.T) would
    turn the large ones into infinities."""
    mesh = generate_structured_box((2.0, 1.0, 1.0), (10, 1, 1))
    rng = np.random.default_rng(5)
    u = with_special(rng.standard_normal((mesh.n_nodes, 3)))
    payload_nans = np.array([0xFFF8000000000001, 0x7FF0000000000002],
                            dtype=np.uint64).view(float)
    mises = np.concatenate([SPECIAL_FLOATS, payload_nans])
    huge = np.array([2.0 ** 1023, -np.finfo(float).max, 1.5 * 2.0 ** 1023])
    sigma = rng.standard_normal((mesh.n_elements, 6))
    sigma[:, 3:] = huge
    sigma[0, :3] = huge
    with np.errstate(over="ignore"):
        assert np.isinf(t2.from_matrix(t2.to_matrix(sigma))[:, 3:]).all()
    path = tmp_path / "bits.vtk"
    write_vtk(mesh, str(path), point_data={"displacement": u},
              cell_data={"mises": mises}, cell_tensors={"stress": sigma})
    data = read_vtk(str(path))
    np.testing.assert_array_equal(bits(data.point_data["displacement"]),
                                  bits(u))
    np.testing.assert_array_equal(bits(data.cell_data["mises"]), bits(mises))
    np.testing.assert_array_equal(bits(data.cell_tensors["stress"]),
                                  bits(sigma))


def written_tets(tmp_path):
    path = tmp_path / "tets.vtk"
    write_vtk(five_tet_mesh(), str(path),
              cell_data={"mises": np.arange(5.0)})
    return path


def test_read_vtk_rejects_ascii_file(tmp_path):
    path = tmp_path / "ascii.vtk"
    path.write_text("# vtk DataFile Version 2.0\none tet\nASCII\n"
                    "DATASET UNSTRUCTURED_GRID\nPOINTS 4 double\n"
                    "0 0 0\n1 0 0\n0 1 0\n0 0 1\nCELLS 1 5\n4 0 1 2 3\n"
                    "CELL_TYPES 1\n10\n")
    with pytest.raises(ValueError, match=f"{path}: 'ASCII' VTK file"):
        read_vtk(str(path))


def test_read_vtk_rejects_file_cut_inside_a_block(tmp_path):
    path = written_tets(tmp_path)
    raw = path.read_bytes()
    path.write_bytes(raw[:raw.index(b"LOOKUP_TABLE default\n") + 30])
    with pytest.raises(ValueError, match=f"{path}: the SCALARS block is "
                                         "cut short"):
        read_vtk(str(path))


def test_read_vtk_rejects_cells_counts_over_their_size(tmp_path):
    """The last cell claims 5 node ids, so the five cells' counts reach
    past the 25 values that CELLS declares."""
    path = written_tets(tmp_path)
    raw = path.read_bytes()
    at = raw.index(b"CELLS 5 25\n") + len(b"CELLS 5 25\n") + 4 * 20
    assert raw[at:at + 4] == struct.pack(">i", 4)
    path.write_bytes(raw[:at] + struct.pack(">i", 5) + raw[at + 4:])
    with pytest.raises(ValueError, match=f"{path}: CELLS counts overrun"):
        read_vtk(str(path))


def test_curve_rows_engineering_shear():
    mesh = generate_structured_box((1.0, 1.0, 1.0), (2, 1, 1))
    measures = build_grad_operators(mesh).measures()
    rec = fake_record(mesh, step=3, factor=0.25)
    rows = curve_rows([rec], measures)
    assert len(rows) == 1
    step, factor, strain, stress = rows[0]
    assert (step, factor) == (3, 0.25)
    w = measures / measures.sum()
    np.testing.assert_allclose(strain, 2.0 * (w @ rec.strain[:, 3]),
                               rtol=1e-15)
    np.testing.assert_allclose(stress, w @ rec.sigma[:, 3], rtol=1e-15)


def test_curve_rows_normal_component_not_doubled():
    mesh = generate_structured_box((1.0, 1.0, 1.0), (1, 1, 1))
    measures = build_grad_operators(mesh).measures()
    rec = fake_record(mesh)
    (_, _, strain, _), = curve_rows([rec], measures, component=0)
    np.testing.assert_allclose(strain, rec.strain[0, 0], rtol=1e-15)


def test_curve_csv_format(tmp_path):
    mesh = generate_structured_box((1.0, 1.0, 1.0), (1, 1, 1))
    measures = build_grad_operators(mesh).measures()
    recs = [fake_record(mesh, step=k, factor=0.5 * k, seed=k)
            for k in (1, 2)]
    path = tmp_path / "curve.csv"
    curve_csv(recs, measures, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "step,factor,strain,stress"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert int(first[0]) == 1
    np.testing.assert_allclose(float(first[2]), 2.0 * recs[0].strain[0, 3],
                               rtol=1e-15)


def test_absolute_difference_and_l2():
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([1.0, 2.5, 2.0])
    np.testing.assert_allclose(absolute_difference(a, b), 0.5)
    np.testing.assert_allclose(l2_percent(a, b),
                               100 * np.sqrt(1.25) / np.sqrt(1 + 6.25 + 4))
    with pytest.raises(ValueError, match="shape"):
        absolute_difference(a, b[:2])
    with pytest.raises(ValueError, match="zero"):
        l2_percent(a, np.zeros(3))


def test_reference_csv_round_trip(tmp_path):
    path = tmp_path / "ref.csv"
    path.write_text(
        "# comparison fields\n"
        "node,ux,uy,uz\n"
        "0, 0.1, 0.2, 0.3\n"
        "2, -1.0, 0.0, 4.0\n"
        "\n"
        "elem,mises,peeq\n"
        "0, 55.0, 0.01\n"
        "1, 60.0, 0.02\n")
    ref = read_reference_csv(str(path))
    assert ref["u"].shape == (3, 3)
    np.testing.assert_array_equal(ref["u"][2], [-1.0, 0.0, 4.0])
    np.testing.assert_array_equal(ref["u"][1], 0.0)
    np.testing.assert_array_equal(ref["mises"], [55.0, 60.0])
    np.testing.assert_array_equal(ref["peeq"], [0.01, 0.02])


def test_reference_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0, 1.0, 2.0, 3.0\n")
    with pytest.raises(ValueError, match="bad.csv:1"):
        read_reference_csv(str(path))
    path.write_text("node,ux,uy,uz\n0, 1.0\n")
    with pytest.raises(ValueError, match="bad.csv:2"):
        read_reference_csv(str(path))
    for row, why in (("-1, 1.0, 2.0", "an id and 2 finite numbers"),
                     ("x, 1.0, 2.0", "an id and 2 finite numbers"),
                     ("1, nan, 2.0", "an id and 2 finite numbers"),
                     ("0, 1.0, 2.0", "elem 0 given twice")):
        path.write_text(f"elem,mises,peeq\n0, 1.0, 2.0\n{row}\n")
        with pytest.raises(ValueError, match=f"bad.csv:3: .*{why}"):
            read_reference_csv(str(path))


def test_reference_csv_ids_must_match_the_mesh(tmp_path):
    path = tmp_path / "ref.csv"
    path.write_text("node,ux,uy,uz\n0, 0, 0, 0\n2, 1, 1, 1\n"
                    "elem,mises,peeq\n1, 5.0, 0.0\n")
    ref = read_reference_csv(str(path), n_nodes=3, n_elements=2)
    assert ref["u"].shape == (3, 3) and ref["mises"].tolist() == [0.0, 5.0]
    with pytest.raises(ValueError, match="ref.csv:1: node ids run to 2, "
                                         "the mesh's to 3"):
        read_reference_csv(str(path), n_nodes=4, n_elements=2)
    with pytest.raises(ValueError, match="ref.csv:4: elem ids run to 1, "
                                         "the mesh's to 0"):
        read_reference_csv(str(path), n_nodes=3, n_elements=1)


def test_compare_to_reference_self_is_zero(tmp_path):
    mesh = generate_structured_box((1.0, 1.0, 1.0), (2, 1, 1))
    rec = fake_record(mesh)
    lines = ["node,ux,uy,uz"]
    lines += [f"{i},{u[0]:.17g},{u[1]:.17g},{u[2]:.17g}"
              for i, u in enumerate(rec.u)]
    lines += ["elem,mises,peeq"]
    lines += [f"{e},{m:.17g},{p:.17g}"
              for e, (m, p) in enumerate(zip(rec.mises, rec.ebar_p))]
    path = tmp_path / "ref.csv"
    path.write_text("\n".join(lines) + "\n")
    metrics = compare_to_reference(rec, read_reference_csv(str(path)))
    assert set(metrics) == {"displacement_ad", "displacement_l2_pct",
                            "mises_ad", "mises_l2_pct",
                            "peeq_ad", "peeq_l2_pct"}
    for v in metrics.values():
        assert v == 0.0


def test_compare_to_reference_zero_field_has_no_l2():
    mesh = generate_structured_box((1.0, 1.0, 1.0), (2, 1, 1))
    rec = fake_record(mesh)
    metrics = compare_to_reference(rec, {"peeq": np.zeros(2)})
    assert metrics == {"peeq_ad": float(rec.ebar_p.mean()),
                       "peeq_l2_pct": None}
