"""Mesh container, one-point operators, box generator, file round trip."""

import os
import re
import tempfile
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import demplast.mesh as mesh_module
import demplast.tensor as t2
from conftest import SPECIAL_FLOATS, mixed_box_mesh
from demplast.config import build_problem
from demplast.mesh import (BLOCK_ROWS, DSHAPE, FACES, HEX8, NODES_PER_ELEM,
                           QP_WEIGHT, TET4, Mesh, MeshError,
                           build_grad_operators,
                           extract_boundary_facets, facet_area_normal,
                           facet_corners, facet_geometry,
                           generate_structured_box, read_mesh, strain_at_qp,
                           write_mesh)
from demplast.presets import get_preset


def unit_cube_mesh():
    return generate_structured_box((1.0, 1.0, 1.0), (1, 1, 1))


def five_tet_mesh():
    """Unit cube split into five tetrahedra."""
    nodes = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
                      [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]], float)
    tets = [(0, 1, 2, 5), (0, 2, 3, 7), (0, 5, 2, 7), (0, 5, 7, 4),
            (2, 5, 6, 7)]
    conn = np.full((5, 8), -1, dtype=np.int64)
    conn[:, :4] = tets
    return Mesh(nodes=nodes, kinds=np.full(5, TET4, dtype="<U4"), conn=conn,
                node_sets={"all": np.arange(8)}, elem_sets={}, side_sets={},
                mat_id=np.zeros(5, dtype=np.int64))


def test_box_generator_counts():
    mesh = generate_structured_box((2.0, 3.0, 4.0), (2, 3, 4))
    assert mesh.n_nodes == 3 * 4 * 5
    assert mesh.n_elements == 2 * 3 * 4
    assert set(mesh.node_sets) >= {"x_min", "x_max", "y_min", "y_max",
                                   "z_min", "z_max", "all"}
    assert len(mesh.node_sets["x_min"]) == 4 * 5
    assert len(mesh.node_sets["all"]) == mesh.n_nodes
    assert set(mesh.side_sets) == {"x_min", "x_max", "y_min", "y_max",
                                   "z_min", "z_max"}
    assert len(mesh.side_sets["z_max"]) == 2 * 3


def test_box_measures_sum_to_volume():
    mesh = generate_structured_box((2.0, 3.0, 4.0), (3, 2, 5))
    ops = build_grad_operators(mesh)
    np.testing.assert_allclose(ops.total_measure, 24.0, rtol=1e-13)
    np.testing.assert_allclose(ops.measures(),
                               np.full(mesh.n_elements, 24.0 / 30),
                               rtol=1e-13)


def test_tet_measures_sum_to_volume():
    ops = build_grad_operators(five_tet_mesh())
    np.testing.assert_allclose(ops.total_measure, 1.0, rtol=1e-13)


def _affine_patch(mesh, tol=1e-12):
    """Strains of an affine field must be exact at every point."""
    rng = np.random.default_rng(7)
    A = rng.standard_normal((3, 3)) * 0.1
    b = rng.standard_normal(3)
    u = mesh.nodes @ A.T + b
    ops = build_grad_operators(mesh)
    eps = ops.strains(u)
    want = t2.from_matrix(0.5 * (A + A.T))
    np.testing.assert_allclose(eps, np.broadcast_to(want, eps.shape),
                               atol=tol)


def test_patch_affine_on_box():
    _affine_patch(generate_structured_box((1.0, 2.0, 1.5), (2, 2, 2)))


def test_patch_affine_on_jiggled_box():
    mesh = generate_structured_box((1.0, 1.0, 1.0), (3, 3, 3))
    rng = np.random.default_rng(8)
    interior = np.setdiff1d(
        mesh.node_sets["all"],
        np.concatenate([mesh.node_sets[s] for s in
                        ("x_min", "x_max", "y_min", "y_max",
                         "z_min", "z_max")]))
    mesh.nodes[interior] += rng.uniform(-0.08, 0.08, (len(interior), 3))
    _affine_patch(mesh)


def test_patch_affine_on_tets():
    _affine_patch(five_tet_mesh())


def test_strain_at_qp_matches_strains():
    mesh = generate_structured_box((1.0, 1.0, 1.0), (2, 1, 1))
    ops = build_grad_operators(mesh)
    rng = np.random.default_rng(9)
    u = rng.standard_normal((mesh.n_nodes, 3))
    eps = ops.strains(u)
    for e in range(mesh.n_elements):
        np.testing.assert_allclose(strain_at_qp(ops.element(e), u), eps[e],
                                   rtol=1e-13, atol=1e-15)


def test_inverted_element_raises():
    mesh = unit_cube_mesh()
    top = mesh.conn[0, 4:].copy()
    mesh.conn[0, 4:] = mesh.conn[0, :4]
    mesh.conn[0, :4] = top
    with pytest.raises(MeshError, match="element 0"):
        build_grad_operators(mesh)


def test_nan_jacobian_raises():
    mesh = unit_cube_mesh()
    mesh.nodes[0, 0] = np.nan       # after the constructor's finite check
    with np.errstate(invalid="ignore"), pytest.raises(MeshError,
                                                      match="element 0"):
        build_grad_operators(mesh)


def test_scatter_strain_gradient_is_adjoint():
    """scatter must be the exact transpose of strains (with the measure
    weighting used by the energy): for any g, sum(g_w . strains(u)) ==
    sum(scatter(g) . u)."""
    mesh = generate_structured_box((1.0, 2.0, 1.0), (2, 2, 2))
    ops = build_grad_operators(mesh)
    rng = np.random.default_rng(10)
    u = rng.standard_normal((mesh.n_nodes, 3))
    g = rng.standard_normal((mesh.n_elements, 6))
    eps = ops.strains(u)
    lhs = float((ops.measures()[:, None] * t2.contract(g, eps)[:, None]).sum())
    out = np.zeros((mesh.n_nodes, 3))
    ops.scatter_strain_gradient(g, out)
    rhs = float((out * u).sum())
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def reference_strains(ops, u):
    """Per-block three-operand einsum, as the assembly was first written."""
    out = np.empty((ops.n_elements, 6))
    for b in ops.blocks:
        grad = np.einsum("eal,eak->ekl", b.dndx, u[b.conn])
        out[b.elems] = t2.from_matrix(grad)
    return out


def reference_scatter(ops, g, out):
    """Per-block einsum and unbuffered ``np.add.at`` into the nodes."""
    for b in ops.blocks:
        contrib = b.measure[:, None, None] * np.einsum(
            "eaq,epq->eap", b.dndx, t2.to_matrix(g[b.elems]))
        np.add.at(out, b.conn, contrib)


def jittered_box_mesh():
    mesh = generate_structured_box((2.0, 1.5, 1.0), (4, 3, 2))
    rng = np.random.default_rng(11)
    mesh.nodes += rng.uniform(-0.1, 0.1, mesh.nodes.shape)
    return mesh


ASSEMBLY_MESHES = {"mixed": mixed_box_mesh, "jittered": jittered_box_mesh}


@pytest.mark.parametrize("name", sorted(ASSEMBLY_MESHES))
def test_strains_match_einsum_reference(name):
    mesh = ASSEMBLY_MESHES[name]()
    ops = build_grad_operators(mesh)
    u = np.random.default_rng(12).standard_normal((mesh.n_nodes, 3))
    want = reference_strains(ops, u)
    np.testing.assert_allclose(ops.strains(u), want, rtol=0,
                               atol=1e-13 * np.abs(want).max())


def test_strains_gather_bitwise_equal_to_connectivity_gather():
    """Gathering nodal values by flat DOF id changes no bit against the
    ``u[conn]`` gather, on a mesh with a hex8 and a tet4 block."""
    mesh = mixed_box_mesh()
    ops = build_grad_operators(mesh)
    assert sorted(b.kind for b in ops.blocks) == [HEX8, TET4]
    u = np.random.default_rng(14).standard_normal((mesh.n_nodes, 3))
    want = np.empty((mesh.n_elements, 6))
    for b in ops.blocks:
        grad = np.matmul(u[b.conn].transpose(0, 2, 1), b.dndx).reshape(-1, 9)
        want[b.elems] = 0.5 * (grad[:, [0, 4, 8, 1, 2, 5]]
                               + grad[:, [0, 4, 8, 3, 6, 7]])
    assert ops.strains(u).tobytes() == want.tobytes()


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("name", sorted(ASSEMBLY_MESHES))
def test_scatter_matches_add_at_reference(name, order):
    """Accumulates into a non-zero ``out`` in place, whatever its memory
    layout: a Fortran-ordered ``out`` catches a flattening that copies."""
    mesh = ASSEMBLY_MESHES[name]()
    ops = build_grad_operators(mesh)
    rng = np.random.default_rng(13)
    g = rng.standard_normal((mesh.n_elements, 6))
    start = rng.standard_normal((mesh.n_nodes, 3))
    out = np.array(start, order=order)
    ops.scatter_strain_gradient(g, out)
    want = start.copy()
    reference_scatter(ops, g, want)
    np.testing.assert_allclose(out, want, rtol=0,
                               atol=1e-13 * np.abs(want - start).max())


def test_mesh_validation_errors():
    nodes = np.zeros((4, 3))
    conn = np.full((1, 8), -1, dtype=np.int64)
    conn[0, :4] = [0, 1, 2, 9]      # node id out of range
    with pytest.raises(MeshError):
        Mesh(nodes=nodes, kinds=np.array([TET4]), conn=conn,
             node_sets={}, elem_sets={}, side_sets={},
             mat_id=np.zeros(1, dtype=np.int64))


@pytest.mark.parametrize("mat_id", [[1], [0, 0, 0], [[0, 0]]])
def test_mesh_rejects_mat_id_of_wrong_shape(mat_id):
    box = generate_structured_box((1.0, 1.0, 1.0), (2, 1, 1))
    with pytest.raises(MeshError, match=r"mat_id must have shape \(2,\)"):
        Mesh(nodes=box.nodes, kinds=box.kinds, conn=box.conn, mat_id=mat_id)


def test_round_trip(tmp_path):
    mesh = generate_structured_box((1.0, 2.0, 3.0), (2, 2, 1))
    mesh.elem_sets["left"] = np.array([0, 1], dtype=np.int64)
    path = tmp_path / "mesh.txt"
    write_mesh(mesh, path)
    back = read_mesh(path)
    np.testing.assert_array_equal(back.nodes, mesh.nodes)
    np.testing.assert_array_equal(back.conn, mesh.conn)
    assert list(back.kinds) == list(mesh.kinds)
    assert set(back.node_sets) == set(mesh.node_sets)
    for k in mesh.node_sets:
        np.testing.assert_array_equal(np.sort(back.node_sets[k]),
                                      np.sort(mesh.node_sets[k]))
    np.testing.assert_array_equal(back.elem_sets["left"],
                                  mesh.elem_sets["left"])
    for k in mesh.side_sets:
        np.testing.assert_array_equal(back.side_sets[k], mesh.side_sets[k])


@pytest.mark.parametrize("block", ["node_sets", "elem_sets", "side_sets"])
@pytest.mark.parametrize("name", ["my set", "", "a#b", "tab\tname", 7])
def test_write_mesh_rejects_set_names_read_mesh_cannot_read(tmp_path, block,
                                                            name):
    """A set name that would not read back as itself raises before the
    file is opened, instead of writing a file read_mesh rejects."""
    mesh = unit_cube_mesh()
    ids = {"node_sets": [0], "elem_sets": [0], "side_sets": [[0, 0]]}
    getattr(mesh, block)[name] = np.array(ids[block], dtype=np.int64)
    path = tmp_path / "mesh.txt"
    with pytest.raises(MeshError, match=re.escape(repr(name))):
        write_mesh(mesh, path)
    assert not path.exists()


def test_round_trip_tets(tmp_path):
    mesh = five_tet_mesh()
    path = tmp_path / "tets.txt"
    write_mesh(mesh, path)
    back = read_mesh(path)
    np.testing.assert_array_equal(back.nodes, mesh.nodes)
    np.testing.assert_array_equal(back.conn, mesh.conn)
    ops = build_grad_operators(back)
    np.testing.assert_allclose(ops.total_measure, 1.0, rtol=1e-13)


def reference_mesh_text(mesh):
    """The mesh text built one f-string per value and one line at a time:
    the oracle for the block-formatted writer."""
    out = [f"nodes {mesh.n_nodes}\n"]
    for p in mesh.nodes:
        out.append(f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g}\n")
    out.append(f"elements {mesh.n_elements}\n")
    for e, kind in enumerate(mesh.kinds):
        ids = " ".join(str(i) for i in mesh.conn[e, :NODES_PER_ELEM[kind]])
        out.append(f"{kind} {ids}\n")
    for block, sets in (("nodeset", mesh.node_sets),
                        ("elemset", mesh.elem_sets)):
        for name, ids in sets.items():
            out.append(f"{block} {name} {len(ids)}\n")
            ids = list(ids)
            for i in range(0, len(ids), 16):
                out.append(" ".join(str(v) for v in ids[i:i + 16]) + "\n")
    for name, pairs in mesh.side_sets.items():
        out.append(f"sideset {name} {len(pairs)}\n")
        for e, f in pairs:
            out.append(f"{e} {f}\n")
    return "".join(out)


def test_write_mesh_bytes_match_per_value_reference(tmp_path):
    mesh = mixed_box_mesh()
    assert mesh.n_nodes > BLOCK_ROWS and set(mesh.kinds) == {HEX8, TET4}
    mesh.nodes.ravel()[:len(SPECIAL_FLOATS)] = SPECIAL_FLOATS
    # Set sizes below, at and above one 16-id line, and empty ones.
    mesh.node_sets.update(none=np.arange(0), one_line=np.arange(16),
                          ragged=np.arange(3, 40))
    mesh.elem_sets["empty"] = np.arange(0)
    mesh.side_sets["empty"] = np.zeros((0, 2), dtype=np.int64)
    path = tmp_path / "mesh.txt"
    write_mesh(mesh, path)
    assert path.read_bytes() == reference_mesh_text(mesh).encode("utf-8")
    # nan and the infinities are written but not read back; the finite
    # special values round-trip exactly.
    with pytest.raises(MeshError, match="node 1 has a non-finite"):
        read_mesh(path)
    mesh.nodes[np.isinf(mesh.nodes) | np.isnan(mesh.nodes)] = 0.5
    write_mesh(mesh, path)
    back = read_mesh(path)
    np.testing.assert_array_equal(back.nodes, mesh.nodes)
    np.testing.assert_array_equal(back.conn, mesh.conn)
    assert list(back.kinds) == list(mesh.kinds)


def test_read_mesh_error_reports_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("nodes 1\n0.0 0.0 zap\n")
    with pytest.raises(MeshError, match="bad.txt:2"):
        read_mesh(path)


def test_read_mesh_truncated(tmp_path):
    path = tmp_path / "trunc.txt"
    path.write_text("nodes 1\n0.0 0.0 0.0\n")
    with pytest.raises(MeshError):
        read_mesh(path)


TWO_NODES = "nodes 2\n0 0 0\n1 0 0\n"
ONE_TET = TWO_NODES + "elements 1\ntet4 0 1 0 1\n"


def test_read_mesh_comments_and_wrapped_rows(tmp_path):
    path = tmp_path / "commented.txt"
    path.write_text("# a whole-line comment\n"
                    "nodes 3   # a form feed\x0cdoes not end a comment\n"
                    "0 0 0\n"
                    "1 0\n"            # a node row split over two lines
                    "  0.5 # after a coordinate\n"
                    "0 1 # mid-row comment\n"
                    "# another whole line\n"
                    "0\n"
                    "elements 2\n"
                    "tet4 0 1 2 0 # comment\n"
                    "tet4 2\n1 0 2\n"
                    "nodeset left 2 # ids follow\n"
                    "0\n# between ids\n2\n"
                    "elemset both 2\n0 1\n"
                    "sideset bottom 1\n0 # elem\n3\n")
    mesh = read_mesh(path)
    np.testing.assert_array_equal(mesh.nodes,
                                  [[0, 0, 0], [1, 0, 0.5], [0, 1, 0]])
    assert list(mesh.kinds) == [TET4, TET4]
    np.testing.assert_array_equal(mesh.conn[:, :4], [[0, 1, 2, 0],
                                                     [2, 1, 0, 2]])
    assert (mesh.conn[:, 4:] == -1).all()
    np.testing.assert_array_equal(mesh.node_sets["left"], [0, 2])
    np.testing.assert_array_equal(mesh.elem_sets["both"], [0, 1])
    np.testing.assert_array_equal(mesh.side_sets["bottom"], [[0, 3]])


# (file text, message after the file name), one case per error the reader
# reports and per token that np.fromstring reads unlike float() or int();
# the messages are pinned verbatim.
READ_ERRORS = {
    "unknown-kind": (TWO_NODES + "elements 1\nquad4 0 1 0 1\n",
                     ":5: unknown element kind 'quad4'"),
    "conn-out-of-range": (TWO_NODES + "elements 1\ntet4 0 1\n0 5\n",
                          ":6: element 0 references node 5, "
                          "valid range is 0..1"),
    "set-not-integer": (ONE_TET + "nodeset a 2\n0 x\n",
                        ":7: expected integer set index, got 'x'"),
    "set-out-of-range": (ONE_TET + "nodeset a 2\n0\n2\n",
                         ":8: nodeset 'a' index 2 out of range 0..1"),
    "elemset-out-of-range": (ONE_TET + "elemset a 1\n1\n",
                             ":7: elemset 'a' index 1 out of range 0..0"),
    "duplicate-set": (ONE_TET + "nodeset a 1\n0\nnodeset a 1\n1\n",
                      ":8: duplicate nodeset name 'a'"),
    "ends-in-elements": (TWO_NODES + "elements 2\ntet4 0 1 0 1\ntet4 0 1\n",
                         ": unexpected end of file, expected "
                         "connectivity index"),
    # lines end only at '\n', not at a form feed
    "form-feed-line": ("nodes 1\x0c\n0 0 zap\n",
                       ":2: expected number node coordinate, got 'zap'"),
    # tokens that np.fromstring reads and float() or int() do not: it reads
    # 'nan(1)' as nan, clamps ids beyond int64, reads a lone sign as 0 and
    # blanks as one number
    "nan-payload": (TWO_NODES.replace("1 0 0", "nan(1) 0 0")
                    + "elements 1\ntet4 0 1 0 1\n",
                    ":3: expected number node coordinate, got 'nan(1)'"),
    "conn-20-digits": (TWO_NODES + "elements 1\ntet4 0 1 0 "
                       "99999999999999999999\n",
                       ":5: element 0 references node 99999999999999999999, "
                       "valid range is 0..1"),
    "set-20-digits": (ONE_TET + "nodeset a 2\n0 99999999999999999999\n",
                      ":7: nodeset 'a' index 99999999999999999999 out of "
                      "range 0..1"),
    "lone-sign": (ONE_TET + "nodeset a 1\n-\n",
                  ":7: expected integer set index, got '-'"),
    "blank-set": (ONE_TET + "nodeset a 1\n \nelemset b 0\n",
                  ":8: expected integer set index, got 'elemset'"),
    # a header word glued to a number is not a header
    "glued-header": ("nodes 1\n0 0 0elements 1\ntet4 0 0 0 0\n",
                     ":2: expected number node coordinate, got '0elements'"),
}


def test_read_mesh_rejects_non_finite_nodes(tmp_path):
    path = tmp_path / "nan.txt"
    path.write_text("nodes 2\n0 0 0\nnan 0 0\nelements 1\ntet4 0 1 0 1\n")
    with pytest.raises(MeshError) as exc:
        read_mesh(path)
    assert str(exc.value) == (f"{path}: node 1 has a non-finite "
                              "coordinate: [nan, 0.0, 0.0]")


@pytest.mark.parametrize("text, message", [
    ("nodes 99999999999999999999\n",
     ":1: node count 99999999999999999999 does not fit in 64 bits"),
    (ONE_TET + "sideset s 1\n0 -99999999999999999999\n",
     ":7: side set face -99999999999999999999 does not fit in 64 bits"),
    (ONE_TET + "sideset s 1\n99999999999999999999 0\n",
     ":7: side set element 99999999999999999999 does not fit in 64 bits"),
], ids=["count", "side-set-face", "side-set-element"])
def test_read_mesh_rejects_integers_beyond_64_bits(tmp_path, text, message):
    path = tmp_path / "huge.txt"
    path.write_text(text)
    with pytest.raises(MeshError) as exc:
        read_mesh(path)
    assert str(exc.value) == f"{path}{message}"


@pytest.mark.parametrize("case", list(READ_ERRORS))
def test_read_mesh_error_messages(tmp_path, case):
    text, message = READ_ERRORS[case]
    path = tmp_path / f"{case}.txt"
    path.write_text(text)
    with pytest.raises(MeshError) as exc:
        read_mesh(path)
    assert str(exc.value) == f"{path}{message}"


def assert_same_mesh(a, b):
    """Equal values, dtypes, shapes and set order, -0.0 kept apart."""
    for x, y in [(a.nodes, b.nodes), (a.kinds, b.kinds), (a.conn, b.conn),
                 (a.mat_id, b.mat_id)]:
        assert x.dtype == y.dtype and x.shape == y.shape
        np.testing.assert_array_equal(x, y)
    np.testing.assert_array_equal(np.signbit(a.nodes), np.signbit(b.nodes))
    for block in ("node_sets", "elem_sets", "side_sets"):
        sa, sb = getattr(a, block), getattr(b, block)
        assert list(sa) == list(sb)
        for name in sa:
            assert sa[name].dtype == sb[name].dtype
            assert sa[name].shape == sb[name].shape
            np.testing.assert_array_equal(sa[name], sb[name])


def test_read_mesh_reads_ids_as_int_does(tmp_path):
    """Ids that int() reads and np.fromstring does not."""
    path = tmp_path / "ids.txt"
    nodes = "".join(f"{i} 0 0\n" for i in range(11))
    path.write_text(f"nodes 11\n{nodes}elements 1\ntet4 1_0 +3 -0 1\n"
                    "nodeset a 3\n1_0 +3 -0\nsideset s 1\n+0 -0\n")
    mesh = read_mesh(path)
    np.testing.assert_array_equal(mesh.conn[0, :4], [10, 3, 0, 1])
    np.testing.assert_array_equal(mesh.node_sets["a"], [10, 3, 0])
    np.testing.assert_array_equal(mesh.side_sets["s"], [[0, 0]])


@pytest.mark.parametrize("sep", ["\xa0", "\x1c", "\u2028", "\t", "\r\n"])
def test_read_mesh_splits_at_any_whitespace(tmp_path, sep):
    """Separators that str.split() knows and np.fromstring does not (the
    first three) read as the ones that both know."""
    mesh = five_tet_mesh()
    mesh.side_sets["top"] = np.array([[4, 3]])
    path = tmp_path / "mesh.txt"
    write_mesh(mesh, path)
    other = tmp_path / "other.txt"
    other.write_text(path.read_text().replace(" ", sep), encoding="utf-8")
    assert_same_mesh(read_mesh(other), read_mesh(path))


# Set names that are header words, kinds or numbers elsewhere in the file.
SET_NAMES = st.one_of(
    st.sampled_from(["nodes", "elements", "nodeset", "elemset", "sideset",
                     "hex8", "tet4", "-1", "0", "set"]),
    st.text(alphabet="delmnost48-_", min_size=1, max_size=9))


@st.composite
def random_meshes(draw):
    """hex8/tet4 meshes of 1-12 nodes and 1-8 elements (any finite
    coordinates, any node ids) with 0-3 sets of each kind."""
    n_nodes = draw(st.integers(1, 12))
    coords = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=3 * n_nodes, max_size=3 * n_nodes))
    kinds = draw(st.lists(st.sampled_from([HEX8, TET4]), min_size=1,
                          max_size=8))
    conn = np.full((len(kinds), 8), -1, dtype=np.int64)
    for e, kind in enumerate(kinds):
        npe = NODES_PER_ELEM[kind]
        conn[e, :npe] = draw(st.lists(st.integers(0, n_nodes - 1),
                                      min_size=npe, max_size=npe))

    def sets(ids):
        names = draw(st.lists(SET_NAMES, max_size=3, unique=True))
        return {name: np.array(draw(st.lists(ids, max_size=20)),
                               dtype=np.int64) for name in names}

    pairs = st.integers(0, len(kinds) - 1).flatmap(
        lambda e: st.tuples(st.just(e),
                            st.integers(0, len(FACES[kinds[e]]) - 1)))
    return Mesh(nodes=np.reshape(coords, (-1, 3)), kinds=np.array(kinds),
                conn=conn, node_sets=sets(st.integers(0, n_nodes - 1)),
                elem_sets=sets(st.integers(0, len(kinds) - 1)),
                side_sets=sets(pairs))


@settings(max_examples=60, deadline=None)
@given(random_meshes())
def test_read_mesh_equals_token_walk(mesh):
    """A written mesh, its one-token-per-line copy and a commented copy
    read back by the slice parse, equal to the token walk's result."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mesh.txt")
        write_mesh(mesh, path)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        with mock.patch.object(mesh_module, "_read_blocks",
                               side_effect=mesh_module._Irregular):
            walked = read_mesh(path)
        np.testing.assert_array_equal(walked.nodes, mesh.nodes)
        np.testing.assert_array_equal(walked.conn, mesh.conn)
        commented = "".join(f"{line} # sideset x 1 hex8\n"
                            for line in text.splitlines())
        for copy in (text, text.replace(" ", "\n"), "# nodes 1\n" + commented):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(copy)
            with mock.patch.object(mesh_module, "_read_tokens",
                                   side_effect=AssertionError("token walk")):
                assert_same_mesh(read_mesh(path), walked)


def test_read_mesh_of_written_box_never_walks_tokens(tmp_path, monkeypatch):
    """A valid file is parsed block by block: the token walk, which
    splits the whole text, is never entered."""
    box = generate_structured_box((2.0, 2.0, 0.2), (20, 20, 2))
    inner = np.all((box.nodes > 0) & (box.nodes < [2.0, 2.0, 0.2]), axis=1)
    rng = np.random.default_rng(0)
    box.nodes[inner] += 0.01 * rng.uniform(-1, 1, (int(inner.sum()), 3))
    path = tmp_path / "box.txt"
    write_mesh(box, path)

    def no_walk(text, name):
        raise AssertionError("token walk")

    monkeypatch.setattr(mesh_module, "_read_tokens", no_walk)
    assert_same_mesh(read_mesh(path), box)


def test_boundary_facets_of_box_face():
    mesh = generate_structured_box((1.0, 1.0, 1.0), (2, 2, 2))
    facets = extract_boundary_facets(mesh, "x_min")
    assert facets.shape == (4, 2)
    centers = mesh.nodes[mesh.conn[facets[:, 0], :8]].mean(axis=1)
    assert np.all(centers[:, 0] < 0.3)
    # orientation: outward normal along -x, total area 1
    total = 0.0
    for c in facet_corners(mesh, facets):
        area, normal = facet_area_normal(mesh, c)
        total += area
        np.testing.assert_allclose(normal, [-1.0, 0.0, 0.0], atol=1e-13)
    np.testing.assert_allclose(total, 1.0, rtol=1e-13)


def test_box_connectivity_matches_loop():
    nx, ny, nz = 4, 3, 2
    mesh = generate_structured_box((1.0, 1.0, 1.0), (nx, ny, nz))

    def nid(i, j, k):
        return i + j * (nx + 1) + k * (nx + 1) * (ny + 1)

    want = [(nid(i, j, k), nid(i + 1, j, k), nid(i + 1, j + 1, k),
             nid(i, j + 1, k), nid(i, j, k + 1), nid(i + 1, j, k + 1),
             nid(i + 1, j + 1, k + 1), nid(i, j + 1, k + 1))
            for k in range(nz) for j in range(ny) for i in range(nx)]
    assert mesh.conn.dtype == np.int64
    np.testing.assert_array_equal(mesh.conn, want)


def test_boundary_facets_equal_generated_side_sets():
    mesh = generate_structured_box((3.0, 2.0, 1.0), (3, 2, 2))
    for name, pairs in mesh.side_sets.items():
        facets = extract_boundary_facets(mesh, name)
        np.testing.assert_array_equal(np.unique(facets, axis=0),
                                      np.unique(pairs, axis=0))


@pytest.mark.parametrize("node_set", ["all", "x_min", "y_min"])
def test_boundary_facets_match_loop_on_mixed_kinds(node_set):
    mesh = mixed_box_mesh((4, 3, 2))
    members = set(mesh.node_set(node_set).tolist())
    faces = [(e, f, frozenset(mesh.conn[e, list(face)].tolist()))
             for e in range(mesh.n_elements)
             for f, face in enumerate(FACES[mesh.kinds[e]])]
    # a face that two elements share is interior
    uses = Counter(nodes for _, _, nodes in faces)
    want = [(e, f) for e, f, nodes in faces
            if uses[nodes] == 1 and nodes <= members]
    facets = extract_boundary_facets(mesh, node_set)
    assert facets.dtype == np.int64 and facets.shape == (len(want), 2)
    np.testing.assert_array_equal(facets, np.reshape(want, (-1, 2)))
    assert {mesh.kinds[e] for e, _ in want} == {HEX8, TET4}


def test_facet_table_matches_per_facet_loop():
    """``facet_corners`` and ``facet_geometry`` give the corners of a
    per-facet loop over FACES, with -1 in a triangle's fourth slot, and
    the areas of ``facet_area_normal`` to rounding."""
    mesh = mixed_box_mesh((4, 3, 2))
    mesh.nodes += 0.05 * np.random.default_rng(3).uniform(
        -1.0, 1.0, mesh.nodes.shape)
    facets = extract_boundary_facets(mesh, "all")
    want = [mesh.conn[e][list(FACES[mesh.kinds[e]][f])] for e, f in facets]
    got = facet_corners(mesh, facets)
    assert len(got) == len(want)
    for c, w in zip(got, want):
        assert c.dtype == np.int64
        np.testing.assert_array_equal(c, w)
    corners, area = facet_geometry(mesh, facets)
    padded = np.full((len(want), 4), -1)
    for i, w in enumerate(want):
        padded[i, :len(w)] = w
    np.testing.assert_array_equal(corners, padded)
    np.testing.assert_allclose(
        area, [facet_area_normal(mesh, w)[0] for w in want], rtol=1e-14)
    assert facet_corners(mesh, np.empty((0, 2), dtype=np.int64)) == []


def test_facet_normals_outward_all_faces():
    mesh = generate_structured_box((2.0, 1.0, 1.0), (2, 1, 1))
    expect = {"x_min": [-1, 0, 0], "x_max": [1, 0, 0],
              "y_min": [0, -1, 0], "y_max": [0, 1, 0],
              "z_min": [0, 0, -1], "z_max": [0, 0, 1]}
    for name, n_want in expect.items():
        for c in facet_corners(mesh, mesh.side_sets[name]):
            _, normal = facet_area_normal(mesh, c)
            np.testing.assert_allclose(normal, n_want, atol=1e-13)


def test_tet_boundary_facets():
    mesh = five_tet_mesh()
    facets = extract_boundary_facets(mesh, "all")
    # the cube's twelve surface triangles and none of the interior ones;
    # outward orientation and closure: the sum of area-weighted normals
    # over a closed surface vanishes
    assert len(facets) == 12
    total = np.zeros(3)
    area_sum = 0.0
    for c in facet_corners(mesh, facets):
        area, normal = facet_area_normal(mesh, c)
        total += area * normal
        area_sum += area
    np.testing.assert_allclose(total, 0.0, atol=1e-12)
    assert area_sum == 6.0


def test_element_set_validation():
    mesh = unit_cube_mesh()
    with pytest.raises(MeshError):
        Mesh(nodes=mesh.nodes, kinds=mesh.kinds, conn=mesh.conn,
             node_sets={}, elem_sets={"bad": np.array([5])}, side_sets={},
             mat_id=mesh.mat_id)


# -- the einsum forms the operators were built and applied with, kept as a
# reference for the matmul forms and the one-block shortcut ---------------

def reference_grad_blocks(mesh):
    """Per kind: (elems, dN/dX, measure) from the einsum forms."""
    out = []
    for kind in (HEX8, TET4):
        elems = np.flatnonzero(mesh.kinds == kind)
        if elems.size == 0:
            continue
        coords = mesh.nodes[mesh.conn[elems][:, :NODES_PER_ELEM[kind]]]
        jac = np.einsum("eai,aj->eij", coords, DSHAPE[kind])
        det = np.linalg.det(jac)
        dndx = np.einsum("ak,ekj->eaj", DSHAPE[kind], np.linalg.inv(jac))
        out.append((elems, dndx, QP_WEIGHT[kind] * det))
    return out


def reference_strains(ops, u):
    """Strains gathered per block and written back in element order."""
    out = np.empty((ops.n_elements, 6))
    for b in ops.blocks:
        ue = np.take(u.reshape(-1), b.dofs()).reshape(b.conn.shape + (3,))
        grad = np.matmul(ue.transpose(0, 2, 1), b.dndx).reshape(-1, 9)
        out[b.elems] = 0.5 * (grad[:, [0, 4, 8, 1, 2, 5]]
                              + grad[:, [0, 4, 8, 3, 6, 7]])
    return out


def reference_scatter(ops, g, out):
    """The strain-gradient scatter with g gathered per block."""
    unpack = [0, 3, 4, 3, 1, 5, 4, 5, 2]
    for b in ops.blocks:
        m = (b.measure[:, None] * g[b.elems])[:, unpack]
        force = np.matmul(b.dndx, m.reshape(-1, 3, 3))
        out += np.bincount(b.dofs(), weights=force.ravel(),
                           minlength=out.size).reshape(out.shape)


def _jittered_box():
    mesh = generate_structured_box((4.0, 4.0, 1.0), (30, 30, 2))
    inner = np.all((mesh.nodes > 0.0)
                   & (mesh.nodes < [4.0, 4.0, 1.0]), axis=1)
    mesh.nodes[inner] += np.random.default_rng(1).uniform(
        -0.01, 0.01, (int(inner.sum()), 3))
    return mesh


def _preset_mesh(name):
    spec, mesh = get_preset(name).build()
    return build_problem(spec, mesh=mesh).mesh


OPERATOR_MESHES = {
    "shear-iso": lambda: _preset_mesh("shear-iso"),
    "bimat": lambda: _preset_mesh("bimat"),
    "plate-hole": lambda: _preset_mesh("plate-hole"),
    "mixed": mixed_box_mesh,
    "jittered": _jittered_box,
}


@pytest.mark.parametrize("name", sorted(OPERATOR_MESHES))
def test_grad_operators_bitwise_equal_to_einsum_reference(name):
    mesh = OPERATOR_MESHES[name]()
    ops = build_grad_operators(mesh)
    want = reference_grad_blocks(mesh)
    assert len(ops.blocks) == len(want)
    for b, (elems, dndx, measure) in zip(ops.blocks, want):
        np.testing.assert_array_equal(b.elems, elems)
        assert b.dndx.tobytes() == dndx.tobytes()
        assert b.measure.tobytes() == measure.tobytes()


@pytest.mark.parametrize("name", ["shear-iso", "mixed"])
def test_strains_and_scatter_bitwise_equal_to_reference(name):
    """One block in element order (shear-iso) skips the reordering; two
    blocks (mixed) keep it.  Either way no bit changes, and the strains
    come out C-ordered."""
    mesh = OPERATOR_MESHES[name]()
    ops = build_grad_operators(mesh)
    assert len(ops.blocks) == (1 if name == "shear-iso" else 2)
    rng = np.random.default_rng(12)
    u = rng.standard_normal((mesh.n_nodes, 3))
    g = rng.standard_normal((mesh.n_elements, 6))
    eps = ops.strains(u)
    assert eps.flags.c_contiguous
    assert eps.tobytes() == reference_strains(ops, u).tobytes()
    start = rng.standard_normal((mesh.n_nodes, 3))
    got, want = start.copy(), start.copy()
    ops.scatter_strain_gradient(g, got)
    reference_scatter(ops, g, want)
    assert got.tobytes() == want.tobytes()
