"""Meshes of 8-node hexahedra and 4-node tetrahedra with one-point
reduced quadrature.

Element gradients are evaluated once per element at the reduced point
(hex: element center with weight 8, tet: centroid with weight 1/6) using
the isoparametric map: dN/dX = dN/dxi * J^-1 and measure = w * det(J).
No hourglass stabilisation is applied.

The mesh file format is ASCII read as whitespace-separated tokens, so a
row may wrap across lines; '#' starts a comment that ends at a newline.
``read_mesh`` reads each block of numbers by one ``np.fromstring`` of its
slice, and re-reads a block token by token in place where that might differ.

    nodes <N>
    x y z                 (N lines)
    elements <M>
    hex8 i0 ... i7        (or: tet4 i0 ... i3, one line per element)
    nodeset <name> <k>
    <k node indices, whitespace separated, any line breaks>
    elemset <name> <k>
    <k element indices>
    sideset <name> <k>
    elem face             (k lines)

A set name is one token without '#'.  Indices are zero-based.  Node
ordering follows the usual VTK convention (hex: counter-clockwise bottom
quad then top quad; tet: positive volume).
"""

from __future__ import annotations

import os
import re
import stat
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import tensor as t2

HEX8 = "hex8"
TET4 = "tet4"

NODES_PER_ELEM = {HEX8: 8, TET4: 4}
VTK_CELL_TYPE = {HEX8: 12, TET4: 10}

# Local faces with outward orientation (right-hand rule) for positive
# Jacobian elements.
FACES = {HEX8: ((0, 3, 2, 1), (4, 5, 6, 7), (0, 1, 5, 4),
                (1, 2, 6, 5), (2, 3, 7, 6), (3, 0, 4, 7)),
         TET4: ((0, 2, 1), (0, 1, 3), (0, 3, 2), (1, 2, 3))}
# Per-kind tables hold a hex in row 0 and a tet in row 1.
_KIND_ROW = {HEX8: 0, TET4: 1}
# 6 face slots of 4 local nodes each, padded with -1.
_FACE_SLOTS = np.array([FACES[HEX8], [face + (-1,) for face in FACES[TET4]]
                        + [(-1,) * 4] * 2])

_HEX_SIGNS = np.array([(-1, -1, -1), (1, -1, -1), (1, 1, -1), (-1, 1, -1),
                       (-1, -1, 1), (1, -1, 1), (1, 1, 1), (-1, 1, 1)],
                      dtype=float)
# dN/dxi at the element center.
DSHAPE = {HEX8: _HEX_SIGNS / 8.0,
          TET4: np.array([(-1.0, -1.0, -1.0), (1.0, 0.0, 0.0),
                          (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)])}
QP_WEIGHT = {HEX8: 8.0, TET4: 1.0 / 6.0}
# Both by kind row, 8 slots per row; a tet's spare slots 4 to 7 hold 0.
_DSHAPE_SLOTS = np.array([DSHAPE[HEX8], np.vstack([DSHAPE[TET4],
                                                   np.zeros((4, 3))])])
_QP_WEIGHTS = np.array([QP_WEIGHT[HEX8], QP_WEIGHT[TET4]])


class MeshError(ValueError):
    pass


@dataclass
class Mesh:
    """Node coordinates, mixed-kind connectivity and named sets.

    ``nodes`` must be finite; ``conn`` is padded with -1 beyond each
    element's node count.
    ``mat_id`` carries a per-element material index (default all zero).
    """

    nodes: np.ndarray
    kinds: np.ndarray
    conn: np.ndarray
    node_sets: dict = field(default_factory=dict)
    elem_sets: dict = field(default_factory=dict)
    side_sets: dict = field(default_factory=dict)
    mat_id: np.ndarray = None

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.kinds = np.asarray(self.kinds)
        self.conn = np.asarray(self.conn, dtype=np.int64)
        if self.nodes.ndim != 2 or self.nodes.shape[1] != 3:
            raise MeshError("nodes must have shape (n, 3)")
        finite = np.isfinite(self.nodes).all(axis=1)
        if not finite.all():
            i = int(np.argmin(finite))
            raise MeshError(f"node {i} has a non-finite coordinate: "
                            f"{self.nodes[i].tolist()}")
        if self.conn.ndim != 2 or self.conn.shape[1] != 8:
            raise MeshError("conn must have shape (n_elem, 8), padded with -1")
        if self.kinds.shape != (self.conn.shape[0],):
            raise MeshError("kinds and conn disagree on element count")
        if self.mat_id is None:
            self.mat_id = np.zeros(self.n_elements, dtype=np.int64)
        self.mat_id = np.asarray(self.mat_id, dtype=np.int64)
        if self.mat_id.shape != (self.n_elements,):
            raise MeshError(f"mat_id must have shape ({self.n_elements},)")
        for kind in np.unique(self.kinds):
            if kind not in NODES_PER_ELEM:
                raise MeshError(f"unknown element kind {kind!r}")
        n_faces = self.per_kind({k: len(f) for k, f in FACES.items()})
        out_of_range = (self.conn < 0) | (self.conn >= self.n_nodes)
        bad = self.used_slots() & out_of_range
        if bad.any():
            e = int(np.flatnonzero(bad.any(axis=1))[0])
            raise MeshError(f"element {e}: node index out of range")
        for name, ids in self.node_sets.items():
            ids = np.asarray(ids, dtype=np.int64)
            if ids.size and (ids.min() < 0 or ids.max() >= self.n_nodes):
                raise MeshError(f"node set {name!r}: index out of range")
            self.node_sets[name] = ids
        for name, ids in self.elem_sets.items():
            ids = np.asarray(ids, dtype=np.int64)
            if ids.size and (ids.min() < 0 or ids.max() >= self.n_elements):
                raise MeshError(f"element set {name!r}: index out of range")
            self.elem_sets[name] = ids
        for name, pairs in self.side_sets.items():
            pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
            e, f = pairs[:, 0], pairs[:, 1]
            ok_e = (e >= 0) & (e < self.n_elements)
            f_limit = np.zeros(len(pairs), dtype=np.int64)
            f_limit[ok_e] = n_faces[e[ok_e]]
            bad = np.flatnonzero(~ok_e | (f < 0) | (f >= f_limit))
            if bad.size:
                i = bad[0]
                if not ok_e[i]:
                    raise MeshError(f"side set {name!r}: element {e[i]} "
                                    "out of range")
                raise MeshError(f"side set {name!r}: face {f[i]} out of range "
                                f"for element {e[i]}")
            self.side_sets[name] = pairs

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.conn.shape[0]

    def per_kind(self, table: dict, dtype=np.int64) -> np.ndarray:
        """``table[kind]`` for every element, in element order."""
        out = np.zeros(self.n_elements, dtype=dtype)
        for kind, value in table.items():
            out[self.kinds == kind] = value
        return out

    def used_slots(self) -> np.ndarray:
        """(n_elem, 8) mask of the ``conn`` entries that are not padding."""
        return np.arange(8) < self.per_kind(NODES_PER_ELEM)[:, None]

    def node_set(self, name: str) -> np.ndarray:
        try:
            return self.node_sets[name]
        except KeyError:
            raise MeshError(f"unknown node set {name!r}; available: "
                            f"{sorted(self.node_sets)}") from None


@dataclass
class ElementOperator:
    """Single-element view used by tests and the brute-force oracle."""

    element: int
    nodes: np.ndarray
    dndx: np.ndarray
    measure: float


# Row-major slots of a 3x3 matrix viewed as (.., 9): the packed order
# 11, 22, 33, 12, 13, 23 and its transpose, and the packed slot of each
# of the nine entries of a symmetric matrix.
_PACK = np.array([0, 4, 8, 1, 2, 5])
_PACK_T = np.array([0, 4, 8, 3, 6, 7])
_UNPACK = np.array([0, 3, 4, 3, 1, 5, 4, 5, 2])


class GradOperators:
    """Gradient operators for every element as one table in element order:
    ``conn`` (n_elem, s) node ids, ``dndx`` (n_elem, s, 3) dN/dX and
    ``measure`` (n_elem,) quadrature weight * det J.  s is the node count
    of the mesh's largest element; a smaller element's spare slots repeat
    its first node with dN/dX = 0, so they add nothing.

    Strains and the internal-force scatter are batched matrix products
    on dN/dX.  Both address nodes by flat DOF ids (:meth:`dofs`): the
    strains gather with one ``take`` and the scatter sums with one
    ``np.bincount``.  No B matrix is stored.
    """

    def __init__(self, conn: np.ndarray, dndx: np.ndarray,
                 measure: np.ndarray, n_nodes: int):
        self.conn = conn
        self.dndx = dndx
        self.measure = measure
        self.n_nodes = n_nodes
        self._dofs = None

    @property
    def n_elements(self) -> int:
        return len(self.measure)

    @property
    def total_measure(self) -> float:
        return float(self.measure.sum())

    def measures(self) -> np.ndarray:
        return self.measure.copy()

    def dofs(self) -> np.ndarray:
        """Flat DOF ids 3 * node + axis in (n_elem, s, 3) order, built on
        first use (operators built only for measures never need them)."""
        if self._dofs is None:
            self._dofs = (3 * self.conn[:, :, None] + np.arange(3)).ravel()
        return self._dofs

    def element(self, e: int) -> ElementOperator:
        """Element ``e``'s own nodes and dN/dX: a spare slot is the one
        whose dN/dX is zero, which no node of a valid element has."""
        if not 0 <= e < self.n_elements:
            raise IndexError(f"element {e} out of range")
        used = self.dndx[e].any(axis=1)
        return ElementOperator(element=e, nodes=self.conn[e, used],
                               dndx=self.dndx[e, used],
                               measure=float(self.measure[e]))

    def strains(self, u: np.ndarray) -> np.ndarray:
        """Quadrature-point strains for a nodal field u of shape (n, 3),
        in element order as packed tensors (n_elem, 6), C-ordered."""
        ue = u.reshape(-1).take(self.dofs()).reshape(self.dndx.shape)
        # du_k/dX_l as (n_elem, 9), row-major in (k, l)
        grad = np.matmul(ue.transpose(0, 2, 1), self.dndx).reshape(-1, 9)
        # take gathers C-ordered, like every state array; a fancy-index
        # column gather comes out F-ordered, and sums over a column of it
        # round differently
        return 0.5 * (grad.take(_PACK, axis=1) + grad.take(_PACK_T, axis=1))

    def scatter_strain_gradient(self, g: np.ndarray) -> np.ndarray:
        """Measure-weighted d(density)/d(u) as a fresh (n_nodes, 3) array
        given per-element integrand gradients g (n_elem, 6): node a of
        element e receives measure_e * dN_a/dX . g_e."""
        m = (self.measure[:, None] * g)[:, _UNPACK]
        force = np.matmul(self.dndx, m.reshape(-1, 3, 3))   # (n_elem, s, 3)
        return np.bincount(self.dofs(), weights=force.ravel(),
                           minlength=3 * self.n_nodes).reshape(-1, 3)


def strain_at_qp(op: ElementOperator, nodal_u: np.ndarray) -> np.ndarray:
    """Strain at one element's quadrature point from a full nodal field."""
    ue = np.asarray(nodal_u, dtype=float)[op.nodes]
    grad = np.einsum("ak,al->kl", ue, op.dndx)
    return t2.from_matrix(grad)


def build_grad_operators(mesh: Mesh) -> GradOperators:
    """Evaluate dN/dX and the integration measure for every element, as
    one table with 8 slots per element if the mesh has a hex, else 4.

    Raises MeshError naming the first element whose Jacobian determinant
    at the quadrature point is not positive (or is nan).
    """
    row = mesh.per_kind(_KIND_ROW)
    s = 8 if (row == _KIND_ROW[HEX8]).any() else 4
    conn = mesh.conn[:, :s]
    conn = np.where(conn < 0, conn[:, :1], conn)
    dshape = _DSHAPE_SLOTS[row, :s]                      # (n_elem, s, 3)
    coords = mesh.nodes[conn]                            # (n_elem, s, 3)
    jac = np.matmul(coords.transpose(0, 2, 1), dshape)   # dX_i/dxi_j
    det = np.linalg.det(jac)
    bad = np.flatnonzero(~(det > 0.0))
    if bad.size:
        raise MeshError(f"element {bad[0]} has non-positive Jacobian "
                        f"determinant {det[bad[0]]:.3e}")
    dndx = np.matmul(dshape, np.linalg.inv(jac))
    return GradOperators(conn, dndx, _QP_WEIGHTS[row] * det, mesh.n_nodes)


def generate_structured_box(extents, divisions) -> Mesh:
    """Regular hex grid over a box.

    ``extents`` are the edge lengths (lx, ly, lz) and ``divisions`` the
    element counts (nx, ny, nz).  Node sets x_min/x_max/y_min/y_max/
    z_min/z_max hold the boundary faces, plus a set "all"; matching side
    sets are generated for traction loading.
    """
    lx, ly, lz = (float(v) for v in extents)
    nx, ny, nz = (int(v) for v in divisions)
    if min(lx, ly, lz) <= 0 or min(nx, ny, nz) < 1:
        raise MeshError("box extents must be positive and divisions >= 1")
    xs = np.linspace(0.0, lx, nx + 1)
    ys = np.linspace(0.0, ly, ny + 1)
    zs = np.linspace(0.0, lz, nz + 1)
    gz, gy, gx = np.meshgrid(zs, ys, xs, indexing="ij")
    nodes = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)

    grid = np.arange(nodes.shape[0]).reshape(nz + 1, ny + 1, nx + 1)
    # Element (i, j, k) has corner node i + j*sy + k*sz plus these offsets,
    # in the HEX8 node order; elements run i fastest, then j, then k.
    sy, sz = nx + 1, (nx + 1) * (ny + 1)
    corners = np.array([0, 1, 1 + sy, sy, sz, 1 + sz, 1 + sy + sz, sy + sz])
    conn = grid[:nz, :ny, :nx].reshape(-1, 1) + corners
    kinds = np.full(conn.shape[0], HEX8, dtype="<U4")

    node_sets = {
        "x_min": grid[:, :, 0].ravel(), "x_max": grid[:, :, nx].ravel(),
        "y_min": grid[:, 0, :].ravel(), "y_max": grid[:, ny, :].ravel(),
        "z_min": grid[0].ravel(), "z_max": grid[nz].ravel(),
        "all": np.arange(nodes.shape[0]),
    }

    eid = np.arange(nx * ny * nz).reshape(nz, ny, nx)
    # Local face numbers per FACES[HEX8].
    side_sets = {
        "x_min": np.stack([eid[:, :, 0].ravel(),
                           np.full(ny * nz, 5)], axis=1),
        "x_max": np.stack([eid[:, :, nx - 1].ravel(),
                           np.full(ny * nz, 3)], axis=1),
        "y_min": np.stack([eid[:, 0, :].ravel(),
                           np.full(nx * nz, 2)], axis=1),
        "y_max": np.stack([eid[:, ny - 1, :].ravel(),
                           np.full(nx * nz, 4)], axis=1),
        "z_min": np.stack([eid[0].ravel(), np.full(nx * ny, 0)], axis=1),
        "z_max": np.stack([eid[nz - 1].ravel(), np.full(nx * ny, 1)], axis=1),
    }
    return Mesh(nodes=nodes, kinds=kinds, conn=conn, node_sets=node_sets,
                side_sets=side_sets)


def read_text(path, error) -> str:
    """The file's text; a file that is not UTF-8 raises ``error``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text (byte {exc.start})") from None


def read_mesh(path) -> Mesh:
    """Parse the ASCII mesh format documented in the module docstring."""
    text = read_text(path, MeshError)
    if "#" in text:
        text = re.sub(r"#[^\n]*", "", text)
    with warnings.catch_warnings():
        # numpy < 2 only warns where np.fromstring stops early
        warnings.simplefilter("error", DeprecationWarning)
        nodes, npe, ids, sets = _parse(text, str(path))
    conn = np.full((len(npe), 8), -1, dtype=np.int64)
    conn[np.arange(8) < npe[:, None]] = ids
    try:
        return Mesh(nodes=np.reshape(nodes, (-1, 3)),
                    kinds=np.where(npe == 8, HEX8, TET4), conn=conn,
                    node_sets=sets["nodeset"][0], elem_sets=sets["elemset"][0],
                    side_sets=sets["sideset"][0])
    except MeshError as exc:
        raise MeshError(f"{path}: {exc}") from None


# A token; \S splits as str.split does.
_WORD = re.compile(r"\S+")


def _parse(text: str, name: str):
    """(coordinates, nodes per element, connectivity ids, sets) of a mesh
    text without comments, as float() or int() read its ``text.split()``
    tokens; the first bad token raises ``MeshError`` naming the file
    ``name`` and the token's line.

    Headers and counts are taken one token at a time.  A block of numbers
    is one ``np.fromstring`` of its slice up to the next 'elements', or
    the 4 letters before the next 'set' (node/elem/side; no number holds
    either word), with 'hex8'/'tet4' read as -8/-4.
    Where that might read a block otherwise, the block is taken token by
    token in place: a count that does not match, a token it stops at, a
    sign in an id (it reads a lone '-' as 0), the int64 maximum (it clamps
    larger ids to it), a non-finite coordinate (it reads 'nan(1)', which
    float() rejects), a slice that ends inside a token.
    """
    pos = start = 0     # the end and the start of the last token taken

    def error(message):
        """``message`` at the line of the last token taken."""
        line = text.count("\n", 0, start) + 1
        return MeshError(f"{name}:{line}: {message}")

    def take(what, conv=str, limit=None, out_of_range=None, least=None):
        """The next token through ``conv``, in 0..limit-1 if ``limit``;
        a count at least ``least`` if that is given."""
        nonlocal pos, start
        m = _WORD.search(text, pos)
        if m is None:
            raise MeshError(f"{name}: unexpected end of file, expected {what}")
        start, pos = m.span()
        try:
            v = conv(m[0])
        except ValueError:
            noun = "number" if conv is float else "integer"
            raise error(f"expected {noun} {what}, got {m[0]!r}") from None
        if limit is not None and not 0 <= v < limit:
            raise error(out_of_range(v))
        if conv is int and not -2 ** 63 <= v < 2 ** 63:
            raise error(f"{what} {v} does not fit in 64 bits")
        if least is not None and v < least:
            raise error(f"{what} must be {'positive' if least else '>= 0'}")
        return v

    def upto(word, back=0):
        """The offset of the next ``word`` less ``back``, or the end."""
        at = text.find(word, pos)
        return len(text) if at < 0 else at - back

    def parsed(end, n, conv=int, limit=None, elements=False):
        """text[pos:end] as ``n`` numbers below ``limit``, or as ``n``
        elements, with pos moved to ``end``; None where that might differ
        from ``conv`` per token."""
        nonlocal pos
        block = text[pos:end]
        if (end < pos or end < len(text) and not text[end - 1].isspace()
                or conv is int and ("-" in block or "+" in block)):
            return None
        if elements:
            block = block.replace(HEX8, "-8").replace(TET4, "-4")
        values = np.zeros(0, float if conv is float else np.int64)
        if block and not block.isspace():   # it reads blanks as one number
            try:
                values = np.fromstring(block, dtype=values.dtype, sep=" ")
            except (ValueError, DeprecationWarning):
                return None
        top = np.inf if conv is float else limit or 2 ** 63 - 1
        if (~np.isfinite(values) | (values >= top)).any():
            return None
        if elements:    # n kind markers, each followed by its ids
            first = np.flatnonzero(values < 0)
            npe = -values[first]
            if not (len(first) == n and np.isin(npe, (4, 8)).all()
                    and np.array_equal(np.append(first, values.size),
                                       np.cumsum(np.append(0, npe + 1)))):
                return None
        elif values.size != n:
            return None
        pos = end
        return values

    def numbers(end, n, what, conv=int, limit=None, out_of_range=None):
        """The next ``n`` numbers: ``parsed``, or taken token by token."""
        values = parsed(end, n, conv, limit)
        if values is None:
            values = np.array([take(what[k % len(what)], conv, limit,
                                    out_of_range) for k in range(n)],
                              dtype=float if conv is float else np.int64)
        return values

    if take("'nodes'") != "nodes":
        raise error("file must start with a 'nodes' block")
    n_nodes = take("node count", int, least=1)
    nodes = numbers(upto("elements"), 3 * n_nodes, ("node coordinate",),
                    float)
    if take("'elements'") != "elements":
        raise error("expected 'elements' block after nodes")
    n_elem = take("element count", int, least=1)
    ids = parsed(upto("set", 4), n_elem, limit=n_nodes, elements=True)
    if ids is not None:
        npe, ids = -ids[ids < 0], ids[ids >= 0]
    else:
        npe, ids = [], []
        for e in range(n_elem):
            kind = take("element kind")
            if kind not in NODES_PER_ELEM:
                raise error(f"unknown element kind {kind!r}")
            npe.append(NODES_PER_ELEM[kind])
            ids += [take("connectivity index", int, n_nodes,
                         lambda v: f"element {e} references node {v}, valid "
                                   f"range is 0..{n_nodes - 1}")
                    for _ in range(npe[-1])]
    sets = {"nodeset": ({}, n_nodes), "elemset": ({}, n_elem),
            "sideset": ({}, None)}
    while _WORD.search(text, pos):
        block = take("set block")
        if block not in sets:
            raise error(f"expected nodeset/elemset/sideset, got {block!r}")
        set_name = take("set name")
        size = take("set size", int, least=0)
        target, limit = sets[block]
        if set_name in target:
            raise error(f"duplicate {block} name {set_name!r}")
        what = ("side set element", "side set face") if limit is None else (
            "set index",)
        target[set_name] = numbers(
            upto("set", 4), len(what) * size, what, int, limit,
            lambda v: f"{block} {set_name!r} index {v} out of range "
                      f"0..{limit - 1}")
    return nodes, np.asarray(npe), ids, sets


def _is_set_name(name) -> bool:
    """Whether ``name`` reads back as itself from a mesh or config file:
    a str of one word without '#'."""
    return isinstance(name, str) and name.split() == [name] and "#" not in name


def write_mesh(mesh: Mesh, path) -> None:
    """Write the ASCII mesh format (inverse of read_mesh).  A set name
    that read_mesh would not read back, one that is empty or holds
    whitespace or '#', raises ``MeshError`` before the file is opened."""
    for block, sets in (("nodeset", mesh.node_sets),
                        ("elemset", mesh.elem_sets),
                        ("sideset", mesh.side_sets)):
        for name in sets:
            if not _is_set_name(name):
                raise MeshError(f"{block} name {name!r} cannot be written: "
                                "a set name is one word without '#'")
    with open_new(path) as fh:
        fh.write(f"nodes {mesh.n_nodes}\n")
        write_rows(fh, mesh.nodes)
        fh.write(f"elements {mesh.n_elements}\n")
        lines = mesh.per_kind({k: k + " %d" * n + "\n"
                               for k, n in NODES_PER_ELEM.items()},
                              dtype=object)
        write_rows(fh, mesh.conn, lines, mask=mesh.used_slots())
        for name, ids in mesh.node_sets.items():
            fh.write(f"nodeset {name} {len(ids)}\n")
            _write_ids(fh, ids)
        for name, ids in mesh.elem_sets.items():
            fh.write(f"elemset {name} {len(ids)}\n")
            _write_ids(fh, ids)
        for name, pairs in mesh.side_sets.items():
            fh.write(f"sideset {name} {len(pairs)}\n")
            write_rows(fh, pairs)


def _write_ids(fh, ids) -> None:
    ids = np.asarray(ids, dtype=np.int64)
    full = len(ids) - len(ids) % 16
    write_rows(fh, ids[:full].reshape(-1, 16))
    if full < len(ids):
        write_rows(fh, ids[None, full:])


# Rows per ``%`` call in write_rows (up to about 1 MB of text).  64 to 4,096
# rows wrote the connectivity of 14,400 elements equally fast, but 64-row
# blocks raised the peak RSS by 1 MB; 4,096-row blocks left it unchanged.
BLOCK_ROWS = 4096


def open_new(path, binary: bool = False):
    """Open ``path`` for writing as a new file; every output file goes
    through here.

    An existing regular file is unlinked, not truncated: on ext4
    (``auto_da_alloc``) closing a file that was truncated while it held
    blocks forces a flush, tens of milliseconds per rewrite, and a hard
    link to the old file keeps its data.  Anything else at ``path``, such
    as a symlink or a device, is written through: nothing but a regular
    file is ever removed.
    """
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    except FileNotFoundError:
        pass
    if binary:
        return open(path, "wb")
    return open(path, "w", encoding="utf-8")


def write_rows(fh, rows: np.ndarray, line=None, mask=None) -> None:
    """Write a 2-D array as text, ``BLOCK_ROWS`` rows per ``%`` call.

    By default each row is one line of its values separated by spaces,
    ``%d`` for integer arrays and ``%.17g`` otherwise, so the text equals
    per-value ``f"{v:.17g}"``/``str(v)`` formatting.  ``line`` replaces the
    pattern of one row, or gives one pattern per row (a sequence), and
    ``mask`` (the shape of ``rows``) selects the values that each row
    prints.
    """
    rows = np.asarray(rows)
    if line is None:
        field = "%.17g" if rows.dtype.kind == "f" else "%d"
        line = " ".join([field] * rows.shape[1]) + "\n"
    for i in range(0, len(rows), BLOCK_ROWS):
        rs = slice(i, i + BLOCK_ROWS)
        block = rows[rs]
        values = block.ravel() if mask is None else block[mask[rs]]
        pattern = (line * len(block) if isinstance(line, str)
                   else "".join(line[rs]))
        fh.write(pattern % tuple(values.tolist()))


def _face_nodes(mesh: Mesh, facets) -> np.ndarray:
    """Outward-ordered global corners (k, 4) of (element, face) pairs; -1
    pads a triangle, and fills a tet's face slots 4 and 5."""
    e, f = np.asarray(facets, dtype=np.int64).reshape(-1, 2).T
    local = _FACE_SLOTS[mesh.per_kind(_KIND_ROW)[e], f]
    return np.where(local >= 0, mesh.conn[e[:, None], local], -1)


def extract_boundary_facets(mesh: Mesh, node_set) -> np.ndarray:
    """The boundary faces whose nodes all lie in the node set, as
    (element, face) pairs ordered by element, then face.  A face whose
    sorted corners another face repeats is shared, so interior; its twin
    is in the node set too, so only faces in it are compared."""
    if isinstance(node_set, str):
        node_set = mesh.node_set(node_set)
    members = np.zeros(mesh.n_nodes, dtype=bool)
    members[np.asarray(node_set, dtype=np.int64)] = True
    pairs = np.indices((mesh.n_elements, 6), dtype=np.int64).reshape(2, -1).T
    corners = _face_nodes(mesh, pairs)
    inside = (members[corners] | (corners < 0)).all(axis=1)
    hit = np.flatnonzero(inside & (corners[:, 0] >= 0))
    key = np.sort(corners[hit], axis=1)
    order = np.lexsort(key.T)
    twin = (key[order[1:]] == key[order[:-1]]).all(axis=1)
    shared = np.zeros(len(hit), dtype=bool)
    shared[order[1:][twin]] = shared[order[:-1][twin]] = True
    return pairs[hit[~shared]]


def facet_corners(mesh: Mesh, facets: np.ndarray) -> list:
    """Global node ids of each facet's corners, outward-ordered."""
    corners = _face_nodes(mesh, facets)
    used = corners >= 0     # a cut after each facet leaves an empty tail
    return np.split(corners[used], np.cumsum(used.sum(axis=1)))[:-1]


def facet_geometry(mesh: Mesh, facets: np.ndarray):
    """Corners (k, 4) of (element, face) pairs, -1 in a triangle's fourth
    slot, and areas as triangles (0, 1, 2) plus (0, 2, 3); a triangle
    repeats its third corner there, so its second term is exactly 0.0."""
    corners = _face_nodes(mesh, facets)
    p = mesh.nodes[np.where(corners < 0, corners[:, 2:3], corners)]
    a, b, c = (p[:, i] - p[:, 0] for i in (1, 2, 3))
    return corners, 0.5 * (np.linalg.norm(np.cross(a, b), axis=1)
                           + np.linalg.norm(np.cross(b, c), axis=1))


def facet_area_normal(mesh: Mesh, corners: np.ndarray):
    """(area, unit outward normal) of a triangular or quad facet."""
    p = mesh.nodes[np.asarray(corners, dtype=np.int64)]
    if len(corners) == 3:
        v = np.cross(p[1] - p[0], p[2] - p[0])
        area = 0.5 * np.linalg.norm(v)
    else:
        v = 0.5 * np.cross(p[2] - p[0], p[3] - p[1])
        a1 = 0.5 * np.linalg.norm(np.cross(p[1] - p[0], p[2] - p[0]))
        a2 = 0.5 * np.linalg.norm(np.cross(p[2] - p[0], p[3] - p[0]))
        area = a1 + a2
    n = v / np.linalg.norm(v)
    return float(area), n
