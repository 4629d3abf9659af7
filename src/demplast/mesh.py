"""Meshes of 8-node hexahedra and 4-node tetrahedra with one-point
reduced quadrature.

Element gradients are evaluated once per element at the reduced point
(hex: element center with weight 8, tet: centroid with weight 1/6) using
the isoparametric map: dN/dX = dN/dxi * J^-1 and measure = w * det(J).
No hourglass stabilisation is applied.

The mesh file format is ASCII read as whitespace-separated tokens, so a
row may wrap across lines; '#' starts a comment that ends at a newline.
``read_mesh`` parses each block of numbers from its slice of the text by
one ``np.fromstring``, and walks the tokens one by one only where that
might read the file differently, or to name the line of a bad token.

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
# The same as one table, a hex in row 0 and a tet in row 1: 6 face slots
# of 4 local nodes each, padded with -1.
_FACE_SLOTS = np.array([FACES[HEX8], [face + (-1,) for face in FACES[TET4]]
                        + [(-1,) * 4] * 2])

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

    def __init__(self, blocks: list, n_elements: int, n_nodes: int):
        self.blocks = blocks
        self.n_elements = n_elements
        self.n_nodes = n_nodes
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

    def scatter_strain_gradient(self, g: np.ndarray) -> np.ndarray:
        """Measure-weighted d(density)/d(u) as a fresh (n_nodes, 3) array
        given per-element integrand gradients g (n_elem, 6): node a of
        element e receives measure_e * dN_a/dX . g_e."""
        out = None if self.blocks else np.zeros(3 * self.n_nodes)
        for b in self.blocks:
            gb = g if self._in_order else g[b.elems]
            m = (b.measure[:, None] * gb)[:, _UNPACK]
            force = np.matmul(b.dndx, m.reshape(-1, 3, 3))    # (nb, npe, 3)
            nodal = np.bincount(b.dofs(), weights=force.ravel(),
                                minlength=3 * self.n_nodes)
            if out is None:
                out = nodal
            else:
                out += nodal
        return out.reshape(-1, 3)


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
    return GradOperators(blocks, mesh.n_elements, mesh.n_nodes)


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
    """Parse the ASCII mesh format documented in the module docstring.
    ``_read_blocks`` parses it block by block; where that might not read
    the file exactly, ``_read_tokens`` reads it token by token, or names
    the line of its first bad token."""
    text = read_text(path, MeshError)
    if "#" in text:
        text = re.sub(r"#[^\n]*", "", text)
    try:
        with warnings.catch_warnings():
            # numpy < 2 only warns where np.fromstring stops early
            warnings.simplefilter("error", DeprecationWarning)
            nodes, npe, ids, sets = _read_blocks(text)
    except (_Irregular, DeprecationWarning):
        nodes, npe, ids, sets = _read_tokens(text, str(path))
    npe = np.asarray(npe)
    conn = np.full((len(npe), 8), -1, dtype=np.int64)
    conn[np.arange(8) < npe[:, None]] = ids
    try:
        return Mesh(nodes=np.reshape(nodes, (-1, 3)),
                    kinds=np.where(npe == 8, HEX8, TET4), conn=conn,
                    node_sets=sets["nodeset"][0], elem_sets=sets["elemset"][0],
                    side_sets=sets["sideset"][0])
    except MeshError as exc:
        raise MeshError(f"{path}: {exc}") from None


class _Irregular(Exception):
    """A block that ``_read_blocks`` might not read as ``_read_tokens``."""


# A header: its word, then its count or its set name and count; \s and \S
# split as str.split does.
_HEADS = [re.compile(r"\s*(\S+)" + r"\s+(\S+)" * n) for n in (1, 2)]


def _read_blocks(text: str):
    """(coordinates, nodes per element, connectivity ids, sets) of a mesh
    text without comments.  Headers are found by ``str.find`` (no number
    holds 'elements' or 'set') and read by one match at a token boundary;
    each block is one ``np.fromstring`` of its slice, with 'hex8'/'tet4'
    read as the markers -8/-4.  Raises ``_Irregular`` where that might
    differ from float()/int() per token: a count that does not match, a
    token it stops at, a sign in an id (it reads a lone '-' as 0), the
    int64 maximum (it clamps larger ids to it), a non-finite coordinate
    (it reads 'nan(1)', which float() rejects).
    """
    def header(at, words, is_set=False):
        """The match of the header at ``at`` and its count, which has at
        most 18 digits so that it fits in int64 (int() takes 4,300)."""
        m = _HEADS[is_set].match(text, at) if at >= 0 else None
        n = m and m[m.lastindex]
        if (m is None or m[1] not in words or at and not text[at - 1].isspace()
                or not (len(n) <= 18 and n.isascii() and n.isdigit())
                or int(n) < 1 - is_set):
            raise _Irregular
        return m, int(n)

    def numbers(start, end, dtype=np.int64, n=None, limit=2 ** 63 - 1):
        """text[start:end] as ``n`` numbers below ``limit``; connectivity
        if n is None."""
        block = text[start:end]
        if dtype is not float and ("-" in block or "+" in block):
            raise _Irregular
        if n is None:
            block = block.replace(HEX8, "-8").replace(TET4, "-4")
        values = np.zeros(0, dtype)
        if block and not block.isspace():   # it reads blanks as one number
            try:
                values = np.fromstring(block, dtype=dtype, sep=" ")
            except ValueError:
                raise _Irregular from None
        bad = ~np.isfinite(values) | (values >= limit)
        if n is not None and values.size != n or bad.any():
            raise _Irregular
        return values

    def next_header(start):
        at = text.find("set", start)
        return len(text) if at < 0 else at - 4   # node/elem/side + set

    m, n_nodes = header(0, ("nodes",))
    e, n_elem = header(text.find("elements", m.end()), ("elements",))
    nodes = numbers(m.end(), e.start(1), float, 3 * n_nodes, np.inf)
    at = next_header(e.end())
    ids = numbers(e.end(), at, limit=n_nodes)
    first = np.flatnonzero(ids < 0)     # the marker of each element's kind
    npe = -ids[first]
    if (len(first) != n_elem or first[0] != 0 or np.setdiff1d(npe, (4, 8)).size
            or (np.append(first[1:], len(ids)) != first + 1 + npe).any()):
        raise _Irregular
    sets = {"nodeset": ({}, n_nodes), "elemset": ({}, n_elem),
            "sideset": ({}, None)}
    while at < len(text):
        m, size = header(at, sets, True)
        target, limit = sets[m[1]]
        if m[2] in target:
            raise _Irregular
        at = next_header(m.end())
        target[m[2]] = numbers(m.end(), at, n=size * (1 if limit else 2),
                               limit=limit or 2 ** 63 - 1)
    return nodes, npe, ids[ids >= 0], sets


def _read_tokens(text: str, name: str):
    """``_read_blocks``' result read one token at a time by float() or
    int(); the first bad token raises ``MeshError`` naming the file
    ``name`` and the token's line."""
    words = text.split()
    pos = 0

    def error(message):
        """``message`` at the line of the last token taken."""
        ends = np.cumsum([len(line.split()) for line in text.split("\n")])
        line = int(np.searchsorted(ends, pos - 1, side="right")) + 1
        return MeshError(f"{name}:{line}: {message}")

    def take(what, conv=str, limit=None, out_of_range=None, least=None):
        """The next token through ``conv``, in 0..limit-1 if ``limit``;
        a count at least ``least`` if that is given."""
        nonlocal pos
        if pos == len(words):
            raise MeshError(f"{name}: unexpected end of file, expected {what}")
        pos += 1
        try:
            v = conv(words[pos - 1])
        except ValueError:
            noun = "number" if conv is float else "integer"
            raise error(f"expected {noun} {what}, got {words[pos - 1]!r}"
                        ) from None
        if limit is not None and not 0 <= v < limit:
            raise error(out_of_range(v))
        if conv is int and not -2 ** 63 <= v < 2 ** 63:
            raise error(f"{what} {v} does not fit in 64 bits")
        if least is not None and v < least:
            raise error(f"{what} must be {'positive' if least else '>= 0'}")
        return v

    if take("'nodes'") != "nodes":
        raise error("file must start with a 'nodes' block")
    n_nodes = take("node count", int, least=1)
    nodes = [take("node coordinate", float) for _ in range(3 * n_nodes)]
    if take("'elements'") != "elements":
        raise error("expected 'elements' block after nodes")
    n_elem = take("element count", int, least=1)
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
    while pos < len(words):
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
        target[set_name] = np.array(
            [take(what[k % len(what)], int, limit,
                  lambda v: f"{block} {set_name!r} index {v} out of range "
                            f"0..{limit - 1}")
             for k in range(len(what) * size)], dtype=np.int64)
    return nodes, npe, ids, sets


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
    local = _FACE_SLOTS[mesh.per_kind({HEX8: 0, TET4: 1})[e], f]
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
