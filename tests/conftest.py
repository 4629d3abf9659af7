import os
import warnings

import numpy as np
import pytest

from demplast.material import ElasticConstants, HardeningLaw
from demplast.mesh import HEX8, TET4, Mesh, generate_structured_box

# Hypothesis imports its patch writer, and through it libcst, only to
# report a failing example.  libcst's mypy_extensions.TypedDict warns on
# import, which the warnings-as-errors filter would turn into an
# INTERNALERROR in place of the report; importing it here, with that one
# warning ignored, leaves the report's import nothing to warn about.
try:
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "mypy_extensions.TypedDict",
                                DeprecationWarning)
        import hypothesis.extra._patching  # noqa: F401
except ImportError:     # no hypothesis or no libcst: no patch writer
    pass

# pyproject's `pythonpath` puts src/ on sys.path for a plain
# `python -m pytest`; tests that start `python -m demplast.cli` in a
# subprocess need it in PYTHONPATH as well.
_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")
if _SRC not in os.environ.get("PYTHONPATH", "").split(os.pathsep):
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

MU = 384.62
KAPPA = 833.33
SY0 = 50.0


@pytest.fixture
def consts():
    return ElasticConstants(mu=MU, kappa=KAPPA)


@pytest.fixture
def iso_law():
    return HardeningLaw(sigma_y0=SY0, H=500.0, C=0.0, mode="isotropic")


@pytest.fixture
def kin_law():
    return HardeningLaw(sigma_y0=SY0, H=0.0, C=500.0, mode="kinematic")


def rand_sym(rng, shape=(), scale=1.0):
    """Random packed symmetric tensors, entries O(scale)."""
    return scale * rng.standard_normal(shape + (6,))


# Values whose %.17g text is easy to get wrong: signed zero, the smallest
# subnormal, extremes, a sum with a long expansion, nan and infinities.
SPECIAL_FLOATS = (-0.0, 5e-324, 1e-300, 1e300, 0.1 + 0.2, float("nan"),
                  float("inf"), -float("inf"))


def mixed_box_mesh(divisions=(20, 20, 12)):
    """A structured box in which every third element is the positive-volume
    corner tet4 (hex nodes 0, 1, 3, 4) of its cell; the rest stay hex8.

    The default 20x20x12 has 5,733 nodes and 4,800 elements, more rows
    than one block of the text writers.  Side sets keep their hex faces.
    """
    box = generate_structured_box((2.0, 1.0, 1.5), divisions)
    tet = np.arange(box.n_elements) % 3 == 0
    kinds = np.where(tet, TET4, HEX8)
    conn = box.conn.copy()
    conn[tet, :4] = box.conn[tet][:, [0, 1, 3, 4]]
    conn[tet, 4:] = -1
    side_sets = {name: pairs[~tet[pairs[:, 0]]]
                 for name, pairs in box.side_sets.items()}
    return Mesh(nodes=box.nodes, kinds=kinds, conn=conn,
                node_sets=dict(box.node_sets),
                elem_sets={"tets": np.flatnonzero(tet)}, side_sets=side_sets)
