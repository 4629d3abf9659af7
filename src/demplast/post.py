"""Output writers and error metrics.

VTK output is legacy VTK 2.0 unstructured grids (cell type 12 for hex8,
10 for tet4) in the format's BINARY mode, with nodal displacement vectors
and per-element von Mises / accumulated plastic strain scalars and the
full stress tensor.  The header and every keyword line are ASCII text;
the data block of a keyword starts right after that line's newline and
is the array's big-endian bytes (``>f8`` for POINTS, VECTORS, SCALARS
and TENSORS, ``>i4`` for CELLS and CELL_TYPES), followed by one newline.
Doubles are stored as they are, so a write/read cycle reproduces every
bit, and no value is formatted.  The grid section (POINTS, CELLS,
CELL_TYPES) is the same in every step of a run, so the solver builds it
once per run with :func:`vtk_grid` and passes it to each step's
:func:`write_vtk`.  :func:`read_vtk` parses exactly the layout this
module writes.
"""

from __future__ import annotations

import io

import numpy as np

from . import tensor as t2
from .mesh import Mesh, NODES_PER_ELEM, VTK_CELL_TYPE, open_new, read_text

# Row-major 3x3 positions of the packed slots (11, 22, 33, 12, 13, 23):
# the upper triangle, so a stored tensor reads back bit for bit.
_UPPER = [0, 4, 8, 1, 2, 5]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_block(fh, head: str, values, dtype: str = ">f8") -> None:
    """A keyword line, then ``values`` as one big-endian data block."""
    fh.write(head.encode("utf-8"))
    fh.write(np.asarray(values, dtype=dtype).tobytes())
    fh.write(b"\n")


def vtk_grid(mesh: Mesh) -> bytes:
    """The grid section of a VTK file of ``mesh``: DATASET, POINTS, CELLS
    and CELL_TYPES, for :func:`write_vtk`'s ``grid``."""
    ne = mesh.n_elements
    counts = mesh.per_kind(NODES_PER_ELEM)
    # each cell is its node count, then its node ids
    cells = np.column_stack([counts, mesh.conn])
    used = np.column_stack([np.ones(ne, bool), mesh.used_slots()])
    fh = io.BytesIO()
    fh.write(b"DATASET UNSTRUCTURED_GRID\n")
    _write_block(fh, f"POINTS {mesh.n_nodes} double\n", mesh.nodes)
    _write_block(fh, f"CELLS {ne} {ne + counts.sum()}\n", cells[used], ">i4")
    _write_block(fh, f"CELL_TYPES {ne}\n", mesh.per_kind(VTK_CELL_TYPE),
                 ">i4")
    return fh.getvalue()


def write_vtk(mesh: Mesh, path, point_data=None, cell_data=None,
              cell_tensors=None, title: str = "demplast output",
              grid: bytes | None = None) -> None:
    """Write one VTK file; ``grid`` is ``vtk_grid(mesh)``, built here when
    not given."""
    point_data = point_data or {}
    cell_data = cell_data or {}
    cell_tensors = cell_tensors or {}
    if grid is None:
        grid = vtk_grid(mesh)
    with open_new(path, binary=True) as fh:
        fh.write(b"# vtk DataFile Version 2.0\n")
        fh.write((title.replace("\n", " ")[:255] + "\n").encode("utf-8"))
        fh.write(b"BINARY\n")
        fh.write(grid)

        if point_data:
            fh.write(f"POINT_DATA {mesh.n_nodes}\n".encode())
            for name, arr in point_data.items():
                arr = np.asarray(arr, dtype=float)
                if arr.ndim == 2 and arr.shape[1] == 3:
                    _write_block(fh, f"VECTORS {name} double\n", arr)
                else:
                    _write_block(fh, f"SCALARS {name} double 1\n"
                                 "LOOKUP_TABLE default\n", arr)

        if cell_data or cell_tensors:
            fh.write(f"CELL_DATA {mesh.n_elements}\n".encode())
            for name, arr in cell_data.items():
                _write_block(fh, f"SCALARS {name} double 1\n"
                             "LOOKUP_TABLE default\n", arr)
            for name, arr in cell_tensors.items():
                arr = np.asarray(arr, dtype=float)
                full = t2.to_matrix(arr) if arr.shape[-1] == 6 else arr
                _write_block(fh, f"TENSORS {name} double\n", full)


class VtkData:
    def __init__(self, points, cell_types, cells, point_data, cell_data,
                 cell_tensors):
        self.points = points
        self.cell_types = cell_types
        self.cells = cells                  # list of index arrays
        self.point_data = point_data
        self.cell_data = cell_data
        self.cell_tensors = cell_tensors


def read_vtk(path) -> VtkData:
    """Parse the files produced by :func:`write_vtk`; a file that is not
    one (an ASCII file, a cut one, inconsistent counts) raises
    ``ValueError`` naming ``path``.  TENSORS come back packed from their
    upper triangle."""
    with open(path, "rb") as fh:
        buf = fh.read()
    pos = 0

    def line() -> list:
        """The words of the next text line."""
        nonlocal pos
        end = buf.find(b"\n", pos)
        if end < 0:
            raise ValueError(f"{path}: truncated VTK file")
        words = buf[pos:end].decode("utf-8", "replace").split()
        pos = end + 1
        return words

    def match(words, *pattern) -> list:
        """``words`` checked against ``pattern``, in which ``None`` stands
        for any word; the words that ``None`` stood for."""
        if len(words) != len(pattern) or any(
                p not in (None, w) for p, w in zip(pattern, words)):
            want = " ".join(p or "*" for p in pattern)
            raise ValueError(f"{path}: expected {want!r}, "
                             f"got {' '.join(words)!r}")
        return [w for p, w in zip(pattern, words) if p is None]

    def count(text) -> int:
        if not (text.isascii() and text.isdigit()):
            raise ValueError(f"{path}: bad count {text!r}")
        return int(text)

    def block(what, n, dtype=">f8") -> np.ndarray:
        """The next ``n`` values and the newline after them, native order."""
        nonlocal pos
        end = pos + n * np.dtype(dtype).itemsize
        if buf[end:end + 1] != b"\n":       # b"" past the end of the file
            raise ValueError(f"{path}: the {what} block is cut short or "
                             "not followed by a newline")
        out = np.frombuffer(buf, dtype, n, pos)
        pos = end + 1
        return out.astype(float if dtype == ">f8" else np.int64)

    if line()[:2] != ["#", "vtk"]:
        raise ValueError(f"{path}: not a legacy VTK file")
    line()                                  # title
    mode = line()
    if mode != ["BINARY"]:
        raise ValueError(f"{path}: {' '.join(mode)!r} VTK file, "
                         "expected BINARY")
    match(line(), "DATASET", "UNSTRUCTURED_GRID")
    n_pts = count(*match(line(), "POINTS", None, "double"))
    points = block("POINTS", 3 * n_pts).reshape(n_pts, 3)

    n_cells, size = map(count, match(line(), "CELLS", None, None))
    flat = block("CELLS", size, ">i4")
    cells, at = [], 0
    walk = flat.tolist()
    for _ in range(n_cells):
        m = walk[at] if at < size else -1
        if not 0 <= m < size - at:
            raise ValueError(f"{path}: CELLS counts overrun its size {size}")
        cells.append(flat[at + 1:at + 1 + m])
        at += 1 + m
    if at != size:
        raise ValueError(f"{path}: CELLS counts fill {at} of its size {size}")
    n = count(*match(line(), "CELL_TYPES", None))
    cell_types = block("CELL_TYPES", n, ">i4")

    point_data, cell_data, cell_tensors = {}, {}, {}
    section = None
    while pos < len(buf):
        words = line()
        head = words[0] if words else ""
        if head in ("POINT_DATA", "CELL_DATA"):
            n = count(*match(words, head, None))
            section = point_data if head == "POINT_DATA" else cell_data
        elif section is None:
            raise ValueError(f"{path}: {head!r} outside a data section")
        elif head == "VECTORS":
            name, = match(words, head, None, "double")
            section[name] = block(head, 3 * n).reshape(n, 3)
        elif head == "SCALARS":
            name, = match(words, head, None, "double", "1")
            match(line(), "LOOKUP_TABLE", "default")
            section[name] = block(head, n)
        elif head == "TENSORS":
            name, = match(words, head, None, "double")
            full = block(head, 9 * n).reshape(n, 9)
            target = cell_tensors if section is cell_data else point_data
            target[name] = full[:, _UPPER]
        else:
            raise ValueError(f"{path}: unexpected line {' '.join(words)!r} "
                             "in data section")
    return VtkData(points, cell_types, cells, point_data, cell_data,
                   cell_tensors)


# -- stress/strain curves and error metrics --------------------------------

ENG_FACTOR = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])


def curve_rows(records, measures: np.ndarray, component: int = 3):
    """Volume-weighted mean engineering strain and stress per step.

    Shear slots (3, 4, 5) report the engineering measure 2*eps.
    """
    w = measures / measures.sum()
    rows = []
    for r in records:
        strain = float(w @ r.strain[:, component]) * ENG_FACTOR[component]
        stress = float(w @ r.sigma[:, component])
        rows.append((r.step, r.factor, strain, stress))
    return rows


def curve_csv(records, measures: np.ndarray, path, component: int = 3) -> None:
    with open_new(path) as fh:
        fh.write("step,factor,strain,stress\n")
        for step, factor, strain, stress in curve_rows(records, measures,
                                                       component):
            fh.write(f"{step},{_fmt(factor)},{_fmt(strain)},{_fmt(stress)}\n")


def absolute_difference(a: np.ndarray, b: np.ndarray) -> float:
    """Mean absolute entrywise difference."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.abs(a - b).mean())


def l2_percent(test: np.ndarray, ref: np.ndarray) -> float:
    """Relative L2 difference in percent, 100 * ||test - ref|| / ||ref||."""
    test, ref = np.asarray(test, float), np.asarray(ref, float)
    denom = np.linalg.norm(ref.ravel())
    if denom == 0.0:
        raise ValueError("reference field has zero norm")
    return float(100.0 * np.linalg.norm((test - ref).ravel()) / denom)


# reference section header -> (field kind, values per row)
_REFERENCE_SECTIONS = {"node,ux,uy,uz": ("node", 3),
                       "elem,mises,peeq": ("elem", 2)}


def read_reference_csv(path, n_nodes: int | None = None,
                       n_elements: int | None = None) -> dict:
    """Reference fields: a 'node,ux,uy,uz' section and/or an
    'elem,mises,peeq' section, each a header line followed by rows of an
    id and finite values; ids not given are zero.  Given a mesh's
    ``n_nodes``/``n_elements``, a section's largest id must be the mesh's
    last node or element.  A malformed file raises ``ValueError`` at
    ``path:line``."""
    rows = {"node": {}, "elem": {}}
    header_line = {}
    current = None
    for ln, line in enumerate(read_text(path, ValueError).split("\n"),
                              start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        header = line.replace(" ", "")
        if header in _REFERENCE_SECTIONS:
            current, want = _REFERENCE_SECTIONS[header]
            header_line[current] = ln
            continue
        if current is None:
            raise ValueError(f"{path}:{ln}: data before a section header")
        parts = line.split(",")
        if len(parts) != 1 + want:
            raise ValueError(f"{path}:{ln}: expected {1 + want} columns")
        try:
            idx = int(parts[0])
            vals = [float(v) for v in parts[1:]]
        except ValueError:
            idx, vals = -1, []
        if idx < 0 or not np.isfinite(vals).all():
            raise ValueError(f"{path}:{ln}: expected an id and {want} "
                             f"finite numbers, got {line!r}")
        if idx in rows[current]:
            raise ValueError(f"{path}:{ln}: {current} {idx} given twice")
        rows[current][idx] = vals

    out = {}
    sizes = {"node": n_nodes, "elem": n_elements}
    for kind, want in _REFERENCE_SECTIONS.values():
        if not rows[kind]:
            continue
        n, size = max(rows[kind]) + 1, sizes[kind]
        if size is not None and n != size:
            raise ValueError(f"{path}:{header_line[kind]}: {kind} ids run "
                             f"to {n - 1}, the mesh's to {size - 1}")
        values = np.zeros((n, want))
        for idx, vals in rows[kind].items():
            values[idx] = vals
        if kind == "node":
            out["u"] = values
        else:
            out["mises"], out["peeq"] = values.T.copy()
    return out


def compare_to_reference(record, reference: dict) -> dict:
    """AD and L2 metrics of a step record against parsed reference fields.
    A reference field that is zero everywhere has no L2 metric: its value
    is None."""
    out = {}
    for name, key, got in (("displacement", "u", record.u),
                           ("mises", "mises", record.mises),
                           ("peeq", "peeq", record.ebar_p)):
        if key not in reference:
            continue
        ref = reference[key]
        out[f"{name}_ad"] = absolute_difference(got, ref)
        out[f"{name}_l2_pct"] = (l2_percent(got, ref)
                                 if np.linalg.norm(ref.ravel()) else None)
    return out
