"""Meshes of 8-node hexahedra and 4-node tetrahedra with one-point
reduced quadrature.

Element gradients are evaluated once per element at the reduced point
(hex: element center with weight 8, tet: centroid with weight 1/6) using
the isoparametric map: dN/dX = dN/dxi * J^-1 and measure = w * det(J).
No hourglass stabilisation is applied.

The mesh file format is line-oriented ASCII; '#' starts a comment.

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

Indices are zero-based.  Node ordering follows the usual VTK convention
(hex: counter-clockwise bottom quad then top quad; tet: positive volume).
"""

from __future__ import annotations

import os
import stat
from dataclasses import dataclass, field

import numpy as np

from . import tensor as t2

HEX8 = "hex8"
TET4 = "tet4"

NODES_PER_ELEM = {HEX8: 8, TET4: 4}
VTK_CELL_TYPE = {HEX8: 12, TET4: 10}

# Local faces with outward orientation (right-hand rule) for positive
# Jacobian elements.
HEX_FACES = ((0, 3, 2, 1), (4, 5, 6, 7), (0, 1, 5, 4),
             (1, 2, 6, 5), (2, 3, 7, 6), (3, 0, 4, 7))
TET_FACES = ((0, 2, 1), (0, 1, 3), (0, 3, 2), (1, 2, 3))
FACES = {HEX8: HEX_FACES, TET4: TET_FACES}

_HEX_SIGNS = np.array([(-1, -1, -1), (1, -1, -1), (1, 1, -1), (-1, 1, -1),
                       (-1, -1, 1), (1, -1, 1), (1, 1, 1), (-1, 1, 1)],
                      dtype=float)
# dN/dxi at the element center.
HEX_DSHAPE = _HEX_SIGNS / 8.0
TET_DSHAPE = np.array([(-1.0, -1.0, -1.0), (1.0, 0.0, 0.0),
                       (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)])
DSHAPE = {HEX8: HEX_DSHAPE, TET4: TET_DSHAPE}
QP_WEIGHT = {HEX8: 8.0, TET4: 1.0 / 6.0}


class MeshError(ValueError):
    pass


@dataclass
class Mesh:
    """Node coordinates, mixed-kind connectivity and named sets.

    ``conn`` is padded with -1 beyond each element's node count.
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
        if self.conn.ndim != 2 or self.conn.shape[1] != 8:
            raise MeshError("conn must have shape (n_elem, 8), padded with -1")
        if self.kinds.shape != (self.conn.shape[0],):
            raise MeshError("kinds and conn disagree on element count")
        if self.mat_id is None:
            self.mat_id = np.zeros(self.n_elements, dtype=np.int64)
        self.mat_id = np.asarray(self.mat_id, dtype=np.int64)
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
class GradBlock:
    """Per-kind batch of gradient operators (struct-of-arrays)."""

    kind: str
    elems: np.ndarray     # (nb,) global element ids
    conn: np.ndarray      # (nb, npe)
    dndx: np.ndarray      # (nb, npe, 3)
    measure: np.ndarray   # (nb,) quadrature weight * |det J|
    _dofs: np.ndarray = field(default=None, repr=False)

    def dofs(self) -> np.ndarray:
        """Flat DOF ids 3 * node + axis in (nb, npe, 3) order, built on
        first use (operators built only for measures never need them)."""
        if self._dofs is None:
            self._dofs = (3 * self.conn[:, :, None] + np.arange(3)).ravel()
        return self._dofs


@dataclass
class ElementOperator:
    """Single-element view used by tests and the brute-force oracle."""

    element: int
    kind: str
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
    """Gradient operators for every element, grouped by element kind.

    Strains and the internal-force scatter are batched matrix products
    on each block's dN/dX; the scatter sums into nodes with one
    ``np.bincount`` per block over flat DOF ids (:meth:`GradBlock.dofs`).
    No B matrix is stored.
    """

    def __init__(self, blocks: list, n_elements: int):
        self.blocks = blocks
        self.n_elements = n_elements

    @property
    def total_measure(self) -> float:
        return float(sum(b.measure.sum() for b in self.blocks))

    def measures(self) -> np.ndarray:
        out = np.empty(self.n_elements)
        for b in self.blocks:
            out[b.elems] = b.measure
        return out

    def element(self, e: int) -> ElementOperator:
        for b in self.blocks:
            pos = np.flatnonzero(b.elems == e)
            if pos.size:
                i = int(pos[0])
                return ElementOperator(element=e, kind=b.kind, nodes=b.conn[i],
                                       dndx=b.dndx[i], measure=float(b.measure[i]))
        raise IndexError(f"element {e} out of range")

    def strains(self, u: np.ndarray) -> np.ndarray:
        """Quadrature-point strains for a nodal field u of shape (n, 3),
        returned in global element order as packed tensors (n_elem, 6)."""
        out = np.empty((self.n_elements, 6))
        for b in self.blocks:
            # du_k/dX_l as (nb, 9), row-major in (k, l)
            grad = np.matmul(u[b.conn].transpose(0, 2, 1),
                             b.dndx).reshape(-1, 9)
            out[b.elems] = 0.5 * (grad[:, _PACK] + grad[:, _PACK_T])
        return out

    def scatter_strain_gradient(self, g: np.ndarray, out: np.ndarray) -> None:
        """Accumulate measure-weighted d(density)/d(u) into ``out`` (n, 3)
        given per-element integrand gradients g (n_elem, 6): node a of
        element e receives measure_e * dN_a/dX . g_e."""
        for b in self.blocks:
            m = (b.measure[:, None] * g[b.elems])[:, _UNPACK]
            force = np.matmul(b.dndx, m.reshape(-1, 3, 3))    # (nb, npe, 3)
            out += np.bincount(b.dofs(), weights=force.ravel(),
                               minlength=out.size).reshape(out.shape)


def strain_at_qp(op: ElementOperator, nodal_u: np.ndarray) -> np.ndarray:
    """Strain at one element's quadrature point from a full nodal field."""
    ue = np.asarray(nodal_u, dtype=float)[op.nodes]
    grad = np.einsum("ak,al->kl", ue, op.dndx)
    return t2.from_matrix(grad)


def build_grad_operators(mesh: Mesh) -> GradOperators:
    """Evaluate dN/dX and the integration measure for every element.

    Raises MeshError naming the first element whose Jacobian determinant
    at the quadrature point is not positive.
    """
    blocks = []
    for kind in (HEX8, TET4):
        elems = np.flatnonzero(mesh.kinds == kind)
        if elems.size == 0:
            continue
        npe = NODES_PER_ELEM[kind]
        conn = mesh.conn[elems][:, :npe]
        coords = mesh.nodes[conn]                            # (nb, npe, 3)
        dshape = DSHAPE[kind]
        jac = np.einsum("eai,aj->eij", coords, dshape)       # dX_i/dxi_j
        det = np.linalg.det(jac)
        bad = np.flatnonzero(det <= 0.0)
        if bad.size:
            raise MeshError(f"element {int(elems[bad[0]])} has non-positive "
                            f"Jacobian determinant {det[bad[0]]:.3e}")
        jinv = np.linalg.inv(jac)
        dndx = np.einsum("ak,ekj->eaj", dshape, jinv)
        measure = QP_WEIGHT[kind] * det
        blocks.append(GradBlock(kind=kind, elems=elems, conn=conn,
                                dndx=dndx, measure=measure))
    return GradOperators(blocks, mesh.n_elements)


def generate_structured_box(extents, divisions, origin=(0.0, 0.0, 0.0)) -> Mesh:
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
    xs = origin[0] + np.linspace(0.0, lx, nx + 1)
    ys = origin[1] + np.linspace(0.0, ly, ny + 1)
    zs = origin[2] + np.linspace(0.0, lz, nz + 1)
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
    # Local face numbers per the HEX_FACES table.
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


def _tokens_with_lines(text: str):
    for ln, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        for tok in body.split():
            yield tok, ln


class _TokenStream:
    def __init__(self, text: str, name: str):
        self._it = list(_tokens_with_lines(text))
        self._pos = 0
        self.name = name
        self.line = 0

    def peek(self):
        return self._it[self._pos][0] if self._pos < len(self._it) else None

    def next(self, what: str) -> str:
        if self._pos >= len(self._it):
            raise MeshError(f"{self.name}: unexpected end of file, expected {what}")
        tok, self.line = self._it[self._pos]
        self._pos += 1
        return tok

    def next_int(self, what: str) -> int:
        tok = self.next(what)
        try:
            return int(tok)
        except ValueError:
            raise MeshError(f"{self.name}:{self.line}: expected integer {what}, "
                            f"got {tok!r}") from None

    def next_float(self, what: str) -> float:
        tok = self.next(what)
        try:
            return float(tok)
        except ValueError:
            raise MeshError(f"{self.name}:{self.line}: expected number {what}, "
                            f"got {tok!r}") from None


def read_mesh(path) -> Mesh:
    """Parse the ASCII mesh format documented in the module docstring."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    name = str(path)
    ts = _TokenStream(text, name)

    if ts.next("'nodes'") != "nodes":
        raise MeshError(f"{name}:{ts.line}: file must start with a 'nodes' block")
    n_nodes = ts.next_int("node count")
    if n_nodes <= 0:
        raise MeshError(f"{name}:{ts.line}: node count must be positive")
    nodes = np.empty((n_nodes, 3))
    for i in range(n_nodes):
        for j in range(3):
            nodes[i, j] = ts.next_float("node coordinate")

    if ts.next("'elements'") != "elements":
        raise MeshError(f"{name}:{ts.line}: expected 'elements' block after nodes")
    n_elem = ts.next_int("element count")
    if n_elem <= 0:
        raise MeshError(f"{name}:{ts.line}: element count must be positive")
    kinds = np.empty(n_elem, dtype="<U4")
    conn = np.full((n_elem, 8), -1, dtype=np.int64)
    for e in range(n_elem):
        kind = ts.next("element kind")
        if kind not in NODES_PER_ELEM:
            raise MeshError(f"{name}:{ts.line}: unknown element kind {kind!r}")
        kinds[e] = kind
        for a in range(NODES_PER_ELEM[kind]):
            idx = ts.next_int("connectivity index")
            if idx < 0 or idx >= n_nodes:
                raise MeshError(f"{name}:{ts.line}: element {e} references "
                                f"node {idx}, valid range is 0..{n_nodes - 1}")
            conn[e, a] = idx

    node_sets, elem_sets, side_sets = {}, {}, {}
    while ts.peek() is not None:
        block = ts.next("set block")
        if block not in ("nodeset", "elemset", "sideset"):
            raise MeshError(f"{name}:{ts.line}: expected nodeset/elemset/sideset, "
                            f"got {block!r}")
        set_name = ts.next("set name")
        count = ts.next_int("set size")
        if count < 0:
            raise MeshError(f"{name}:{ts.line}: set size must be >= 0")
        target = {"nodeset": node_sets, "elemset": elem_sets,
                  "sideset": side_sets}[block]
        if set_name in target:
            raise MeshError(f"{name}:{ts.line}: duplicate {block} name "
                            f"{set_name!r}")
        if block == "sideset":
            pairs = np.empty((count, 2), dtype=np.int64)
            for i in range(count):
                pairs[i, 0] = ts.next_int("side set element")
                pairs[i, 1] = ts.next_int("side set face")
            target[set_name] = pairs
        else:
            limit = n_nodes if block == "nodeset" else n_elem
            ids = np.empty(count, dtype=np.int64)
            for i in range(count):
                idx = ts.next_int("set index")
                if idx < 0 or idx >= limit:
                    raise MeshError(f"{name}:{ts.line}: {block} {set_name!r} "
                                    f"index {idx} out of range 0..{limit - 1}")
                ids[i] = idx
            target[set_name] = ids

    try:
        return Mesh(nodes=nodes, kinds=kinds, conn=conn, node_sets=node_sets,
                    elem_sets=elem_sets, side_sets=side_sets)
    except MeshError as exc:
        raise MeshError(f"{name}: {exc}") from None


def write_mesh(mesh: Mesh, path) -> None:
    """Write the ASCII mesh format (inverse of read_mesh)."""
    with open_new(path) as fh:
        fh.write(f"nodes {mesh.n_nodes}\n")
        write_rows(fh, mesh.nodes)
        fh.write(f"elements {mesh.n_elements}\n")
        write_elements(fh, mesh, {k: k for k in NODES_PER_ELEM})
        for name, ids in mesh.node_sets.items():
            fh.write(f"nodeset {name} {len(ids)}\n")
            _write_ids(fh, ids)
        for name, ids in mesh.elem_sets.items():
            fh.write(f"elemset {name} {len(ids)}\n")
            _write_ids(fh, ids)
        for name, pairs in mesh.side_sets.items():
            fh.write(f"sideset {name} {len(pairs)}\n")
            write_rows(fh, pairs)


def _write_ids(fh, ids, per_line: int = 16) -> None:
    ids = np.asarray(ids, dtype=np.int64)
    full = len(ids) - len(ids) % per_line
    write_rows(fh, ids[:full].reshape(-1, per_line))
    if full < len(ids):
        write_rows(fh, ids[None, full:])


# Rows per ``%`` call in write_rows.  From 64 to 4,096 rows the speed is
# the same at 14,400 elements, but only the large blocks (at most about
# 1 MB of text) leave the peak RSS of such runs unchanged; 64-row blocks
# raised it by about 1 MB.
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
    """Write a 2-D array as text, one ``%`` format call per block of rows.

    By default each row is one line of its values separated by spaces,
    ``%d`` for integer arrays and ``%.17g`` otherwise, so the text equals
    per-value ``f"{v:.17g}"``/``str(v)`` formatting.  ``line`` replaces the
    pattern of one row, or gives one pattern per row (a sequence); ``mask``
    (the shape of ``rows``) selects the values that each row prints.
    """
    rows = np.asarray(rows)
    if line is None:
        fmt = "%d" if rows.dtype.kind in "iu" else "%.17g"
        line = " ".join([fmt] * rows.shape[1]) + "\n"
    for i in range(0, len(rows), BLOCK_ROWS):
        rs = slice(i, i + BLOCK_ROWS)
        block = rows[rs]
        values = block.ravel() if mask is None else block[mask[rs]]
        pattern = (line * len(block) if isinstance(line, str)
                   else "".join(line[rs]))
        fh.write(pattern % tuple(values.tolist()))


def write_elements(fh, mesh: Mesh, labels: dict) -> None:
    """One line per element: ``labels[kind]``, then the element's node ids."""
    lines = mesh.per_kind({k: labels[k] + " %d" * n + "\n"
                           for k, n in NODES_PER_ELEM.items()}, dtype=object)
    write_rows(fh, mesh.conn, lines, mask=mesh.used_slots())


def extract_boundary_facets(mesh: Mesh, node_set) -> np.ndarray:
    """All (element, face) pairs whose face nodes all lie in the node set,
    ordered by element, then face."""
    if isinstance(node_set, str):
        node_set = mesh.node_set(node_set)
    members = np.zeros(mesh.n_nodes, dtype=bool)
    members[np.asarray(node_set, dtype=np.int64)] = True
    hit = np.zeros((mesh.n_elements, len(HEX_FACES)), dtype=bool)
    for kind, faces in FACES.items():
        elems = np.flatnonzero(mesh.kinds == kind)
        inside = members[mesh.conn[elems, :NODES_PER_ELEM[kind]]]
        for f, face in enumerate(faces):
            hit[elems, f] = inside[:, face].all(axis=1)
    return np.argwhere(hit).astype(np.int64)


def facet_corners(mesh: Mesh, facets: np.ndarray) -> list:
    """Global node ids of each facet's corners, outward-ordered."""
    out = []
    for e, f in np.asarray(facets, dtype=np.int64).reshape(-1, 2):
        face = FACES[str(mesh.kinds[e])][f]
        out.append(mesh.conn[e][list(face)])
    return out


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
