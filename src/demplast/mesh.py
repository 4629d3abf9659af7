"""Meshes of 8-node hexahedra and 4-node tetrahedra with one-point
reduced quadrature.

Element gradients are evaluated once per element at the reduced point
(hex: element center with weight 8, tet: centroid with weight 1/6) using
the isoparametric map: dN/dX = dN/dxi * J^-1 and measure = w * det(J).
No hourglass stabilisation is applied.

The mesh file format is ASCII read as whitespace-separated tokens, so a
row may wrap across lines; '#' starts a comment that ends with its line.

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
        first use (operators built only for measures never need them).
        The strains gather nodal values by them and the scatter sums
        into them."""
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
    on each block's dN/dX.  Both address nodes by flat DOF ids
    (:meth:`GradBlock.dofs`): the strains gather with one ``take`` per
    block and the scatter sums with one ``np.bincount`` per block.
    No B matrix is stored.
    """

    def __init__(self, blocks: list, n_elements: int):
        self.blocks = blocks
        self.n_elements = n_elements
        # one block holding every element in order needs no reordering
        self._in_order = len(blocks) == 1 and np.array_equal(
            blocks[0].elems, np.arange(n_elements))

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
        returned in global element order as packed tensors (n_elem, 6),
        C-ordered on every mesh."""
        out = None if self._in_order else np.empty((self.n_elements, 6))
        flat = u.reshape(-1)
        for b in self.blocks:
            ue = flat.take(b.dofs()).reshape(b.conn.shape + (3,))
            # du_k/dX_l as (nb, 9), row-major in (k, l)
            grad = np.matmul(ue.transpose(0, 2, 1), b.dndx).reshape(-1, 9)
            # take gathers C-ordered, like every state array; a fancy-index
            # column gather comes out F-ordered, and sums over a column of
            # it round differently
            eps = 0.5 * (grad.take(_PACK, axis=1) + grad.take(_PACK_T, axis=1))
            if out is None:
                return eps
            out[b.elems] = eps
        return out

    def scatter_strain_gradient(self, g: np.ndarray, out: np.ndarray) -> None:
        """Accumulate measure-weighted d(density)/d(u) into ``out`` (n, 3)
        given per-element integrand gradients g (n_elem, 6): node a of
        element e receives measure_e * dN_a/dX . g_e."""
        for b in self.blocks:
            gb = g if self._in_order else g[b.elems]
            m = (b.measure[:, None] * gb)[:, _UNPACK]
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
    at the quadrature point is not positive (or is nan).
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
        jac = np.matmul(coords.transpose(0, 2, 1), dshape)   # dX_i/dxi_j
        det = np.linalg.det(jac)
        bad = np.flatnonzero(~(det > 0.0))
        if bad.size:
            raise MeshError(f"element {int(elems[bad[0]])} has non-positive "
                            f"Jacobian determinant {det[bad[0]]:.3e}")
        jinv = np.linalg.inv(jac)
        dndx = np.matmul(dshape, jinv)
        measure = QP_WEIGHT[kind] * det
        blocks.append(GradBlock(kind=kind, elems=elems, conn=conn,
                                dndx=dndx, measure=measure))
    return GradOperators(blocks, mesh.n_elements)


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


def read_mesh(path) -> Mesh:
    """Parse the ASCII mesh format documented in the module docstring.

    The file is split into tokens once.  Each block of numbers (node
    coordinates, the connectivity slots, set ids, side-set pairs) is
    converted by one numpy call and range-checked as an array; only a
    block that fails is walked token by token, to report the first bad
    token with its line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    name = str(path)
    if "#" in text:
        text = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    # the list serves single tokens; the object array converts a block with
    # one ``astype``, which parses each token with float() or int()
    words = text.split()
    tokens = np.array(words, dtype=object)
    pos = 0

    def error(message, at):
        """``message`` at the line of token ``at``."""
        ends = np.cumsum([len(line.split()) for line in text.splitlines()])
        line = int(np.searchsorted(ends, at, side="right")) + 1
        return MeshError(f"{name}:{line}: {message}")

    def end_of_file(what):
        return MeshError(f"{name}: unexpected end of file, expected {what}")

    def word(what):
        nonlocal pos
        if pos >= len(words):
            raise end_of_file(what)
        pos += 1
        return words[pos - 1]

    def convert(index, conv, what, limit=None, out_of_range=None):
        """``tokens[index]`` (positions in file order) parsed by ``conv``
        (``float`` or ``int``), each in 0..limit-1 when ``limit`` is set.
        ``what`` names the tokens, cycling along the block."""
        dtype = float if conv is float else np.int64
        try:
            values = tokens[index].astype(dtype)
            if limit is None or ((values >= 0) & (values < limit)).all():
                return values
        except (ValueError, OverflowError):
            pass
        noun = "number" if conv is float else "integer"
        values = []
        for k, i in enumerate(index.tolist()):
            try:
                v = conv(words[i])
            except ValueError:
                raise error(f"expected {noun} {what[k % len(what)]}, "
                            f"got {words[i]!r}", i) from None
            if limit is not None and not 0 <= v < limit:
                raise error(out_of_range(i, v), i)
            if conv is int and not -2 ** 63 <= v < 2 ** 63:
                raise error(f"{what[k % len(what)]} {v} does not fit in "
                            "64 bits", i)
            values.append(v)
        return np.array(values, dtype=dtype)

    def numbers(n, conv, what, limit=None, out_of_range=None):
        """The next ``n`` tokens through ``convert``."""
        nonlocal pos
        index = np.arange(pos, min(pos + n, len(words)))
        values = convert(index, conv, what, limit, out_of_range)
        if len(index) < n:
            raise end_of_file(what[len(index) % len(what)])
        pos += n
        return values

    def count(what, least):
        n = int(numbers(1, int, (what,))[0])
        if n < least:
            rule = "positive" if least else ">= 0"
            raise error(f"{what} must be {rule}", pos - 1)
        return n

    if word("'nodes'") != "nodes":
        raise error("file must start with a 'nodes' block", pos - 1)
    n_nodes = count("node count", 1)
    nodes = numbers(3 * n_nodes, float, ("node coordinate",)).reshape(-1, 3)

    if word("'elements'") != "elements":
        raise error("expected 'elements' block after nodes", pos - 1)
    n_elem = count("element count", 1)
    starts, npes = [], []               # position and node count per element
    for _ in range(n_elem):
        npe = NODES_PER_ELEM.get(words[pos]) if pos < len(words) else None
        if npe is None:
            break
        starts.append(pos)
        npes.append(npe)
        pos += 1 + npe
    starts = np.array(starts, dtype=np.int64)
    used = np.arange(8) < np.array(npes, dtype=np.int64)[:, None]
    slots = (starts[:, None] + 1 + np.arange(8))[used]
    ids = convert(
        slots[slots < len(words)], int, ("connectivity index",), n_nodes,
        lambda i, v: (f"element {np.searchsorted(starts, i) - 1} references "
                      f"node {v}, valid range is 0..{n_nodes - 1}"))
    if pos > len(words):
        raise end_of_file("connectivity index")
    if len(starts) < n_elem:
        if pos == len(words):
            raise end_of_file("element kind")
        raise error(f"unknown element kind {words[pos]!r}", pos)
    kinds = tokens[starts].astype("<U4")
    conn = np.full((n_elem, 8), -1, dtype=np.int64)
    conn[used] = ids

    sets = {"nodeset": ({}, n_nodes), "elemset": ({}, n_elem),
            "sideset": ({}, None)}
    while pos < len(words):
        block = word("set block")
        if block not in sets:
            raise error(f"expected nodeset/elemset/sideset, got {block!r}",
                        pos - 1)
        set_name = word("set name")
        size = count("set size", 0)
        target, limit = sets[block]
        if set_name in target:
            raise error(f"duplicate {block} name {set_name!r}", pos - 1)
        if limit is None:
            target[set_name] = numbers(
                2 * size, int, ("side set element", "side set face")
            ).reshape(-1, 2)
        else:
            target[set_name] = numbers(
                size, int, ("set index",), limit,
                lambda i, v: (f"{block} {set_name!r} index {v} "
                              f"out of range 0..{limit - 1}"))

    try:
        return Mesh(nodes=nodes, kinds=kinds, conn=conn,
                    node_sets=sets["nodeset"][0], elem_sets=sets["elemset"][0],
                    side_sets=sets["sideset"][0])
    except MeshError as exc:
        raise MeshError(f"{name}: {exc}") from None


def write_mesh(mesh: Mesh, path) -> None:
    """Write the ASCII mesh format (inverse of read_mesh)."""
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
