"""Output writers and error metrics.

VTK output is legacy ASCII 2.0 unstructured grids (cell type 12 for hex8,
10 for tet4) with nodal displacement vectors and per-element von Mises /
accumulated plastic strain scalars, optionally the full stress tensor.
Floats are printed ``%.17g`` (17 significant digits) so a write/read cycle
reproduces the arrays exactly; each section is formatted one block of rows
at a time by ``mesh.write_rows`` (floats through ``mesh.format_g17``, the
same bytes as Python's ``%``).  The grid section (POINTS, CELLS,
CELL_TYPES) is the same in every step of a run, so the solver formats it
once per run with :func:`vtk_grid` and passes the text to each step's
:func:`write_vtk`.  ``read_vtk`` parses the subset this module writes.
"""

from __future__ import annotations

import io

import numpy as np

from . import tensor as t2
from .mesh import (Mesh, NODES_PER_ELEM, VTK_CELL_TYPE, open_new,
                   write_elements, write_rows)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def vtk_grid(mesh: Mesh) -> str:
    """The grid section of a VTK file of ``mesh``: DATASET, POINTS, CELLS
    and CELL_TYPES as one ASCII string, for :func:`write_vtk`'s ``grid``."""
    fh = io.StringIO()
    fh.write("DATASET UNSTRUCTURED_GRID\n")
    fh.write(f"POINTS {mesh.n_nodes} double\n")
    write_rows(fh, mesh.nodes)
    size = mesh.n_elements + int(mesh.per_kind(NODES_PER_ELEM).sum())
    fh.write(f"CELLS {mesh.n_elements} {size}\n")
    write_elements(fh, mesh, {k: str(n) for k, n in NODES_PER_ELEM.items()})
    fh.write(f"CELL_TYPES {mesh.n_elements}\n")
    write_rows(fh, mesh.per_kind(VTK_CELL_TYPE)[:, None])
    return fh.getvalue()


def write_vtk(mesh: Mesh, path, point_data=None, cell_data=None,
              cell_tensors=None, title: str = "demplast output",
              grid: str | None = None) -> None:
    """Write one VTK file; ``grid`` is ``vtk_grid(mesh)``, formatted here
    when not given."""
    point_data = point_data or {}
    cell_data = cell_data or {}
    cell_tensors = cell_tensors or {}
    if grid is None:
        grid = vtk_grid(mesh)
    with open_new(path) as fh:
        fh.write("# vtk DataFile Version 2.0\n")
        fh.write(title.replace("\n", " ")[:255] + "\n")
        fh.write("ASCII\n")
        fh.write(grid)

        if point_data:
            fh.write(f"POINT_DATA {mesh.n_nodes}\n")
            for name, arr in point_data.items():
                arr = np.asarray(arr, dtype=float)
                if arr.ndim == 2 and arr.shape[1] == 3:
                    fh.write(f"VECTORS {name} double\n")
                    write_rows(fh, arr)
                else:
                    fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                    write_rows(fh, arr[:, None])

        if cell_data or cell_tensors:
            fh.write(f"CELL_DATA {mesh.n_elements}\n")
            for name, arr in cell_data.items():
                arr = np.asarray(arr, dtype=float)
                fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                write_rows(fh, arr[:, None])
            for name, arr in cell_tensors.items():
                arr = np.asarray(arr, dtype=float)
                full = t2.to_matrix(arr) if arr.shape[-1] == 6 else arr
                fh.write(f"TENSORS {name} double\n")
                # Three rows of the 3x3 matrix, then a blank line.
                write_rows(fh, full.reshape(len(full), 9),
                           "%.17g %.17g %.17g\n" * 3 + "\n")


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
    """Parse the files produced by :func:`write_vtk`."""
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    pos = 0

    def take(n=1):
        nonlocal pos
        out = tokens[pos:pos + n]
        if len(out) != n:
            raise ValueError(f"{path}: truncated VTK file")
        pos += n
        return out

    def seek(word):
        nonlocal pos
        while pos < len(tokens):
            if tokens[pos] == word:
                pos += 1
                return True
            pos += 1
        return False

    if not seek("POINTS"):
        raise ValueError(f"{path}: no POINTS section")
    n_pts = int(take()[0])
    take()  # dtype
    points = np.array(take(3 * n_pts), dtype=float).reshape(n_pts, 3)

    if not seek("CELLS"):
        raise ValueError(f"{path}: no CELLS section")
    n_cells = int(take()[0])
    take()  # total size
    cells = []
    for _ in range(n_cells):
        m = int(take()[0])
        cells.append(np.array(take(m), dtype=np.int64))
    if not seek("CELL_TYPES"):
        raise ValueError(f"{path}: no CELL_TYPES section")
    n = int(take()[0])
    cell_types = np.array(take(n), dtype=np.int64)

    point_data, cell_data, cell_tensors = {}, {}, {}
    section = None
    count = 0
    while pos < len(tokens):
        tok = take()[0]
        if tok == "POINT_DATA":
            section, count = point_data, int(take()[0])
        elif tok == "CELL_DATA":
            section, count = cell_data, int(take()[0])
        elif tok == "VECTORS":
            name = take()[0]
            take()  # dtype
            section[name] = np.array(take(3 * count),
                                     dtype=float).reshape(count, 3)
        elif tok == "SCALARS":
            name = take()[0]
            take(2)  # dtype, components
            take(2)  # LOOKUP_TABLE default
            section[name] = np.array(take(count), dtype=float)
        elif tok == "TENSORS":
            name = take()[0]
            take()  # dtype
            full = np.array(take(9 * count), dtype=float).reshape(count, 3, 3)
            target = cell_tensors if section is cell_data else point_data
            target[name] = t2.from_matrix(full)
        else:
            raise ValueError(f"{path}: unexpected token {tok!r} in data section")
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


def read_reference_csv(path) -> dict:
    """Reference fields: a 'node,ux,uy,uz' section and/or an
    'elem,mises,peeq' section, each a header line followed by rows."""
    node_rows, elem_rows = {}, {}
    current = None
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line.replace(" ", "") == "node,ux,uy,uz":
                current = ("node", node_rows)
                continue
            if line.replace(" ", "") == "elem,mises,peeq":
                current = ("elem", elem_rows)
                continue
            if current is None:
                raise ValueError(f"{path}:{ln}: data before a section header")
            parts = [p.strip() for p in line.split(",")]
            want = 4 if current[0] == "node" else 3
            if len(parts) != want:
                raise ValueError(f"{path}:{ln}: expected {want} columns")
            current[1][int(parts[0])] = [float(v) for v in parts[1:]]

    out = {}
    if node_rows:
        n = max(node_rows) + 1
        u = np.zeros((n, 3))
        for i, vals in node_rows.items():
            u[i] = vals
        out["u"] = u
    if elem_rows:
        n = max(elem_rows) + 1
        mises = np.zeros(n)
        peeq = np.zeros(n)
        for i, vals in elem_rows.items():
            mises[i], peeq[i] = vals
        out["mises"] = mises
        out["peeq"] = peeq
    return out


def compare_to_reference(record, reference: dict) -> dict:
    """AD and L2 metrics of a step record against parsed reference fields."""
    out = {}
    if "u" in reference:
        out["displacement_ad"] = absolute_difference(record.u, reference["u"])
        out["displacement_l2_pct"] = l2_percent(record.u, reference["u"])
    if "mises" in reference:
        out["mises_ad"] = absolute_difference(record.mises, reference["mises"])
        out["mises_l2_pct"] = l2_percent(record.mises, reference["mises"])
    if "peeq" in reference:
        out["peeq_ad"] = absolute_difference(record.ebar_p, reference["peeq"])
        out["peeq_l2_pct"] = l2_percent(record.ebar_p, reference["peeq"])
    return out
