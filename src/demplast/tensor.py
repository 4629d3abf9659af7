"""Symmetric second-order tensor algebra on packed 6-component arrays.

Storage order is (11, 22, 33, 12, 13, 23) on the last axis, with true
tensor shear components (no engineering factor).  All functions broadcast
over leading axes, so a batch of tensors is just an array of shape
(..., 6).  Full contraction weights the off-diagonal slots twice because
each appears twice in the underlying 3x3 tensor.
"""

from __future__ import annotations

import numpy as np

# Contraction weights: off-diagonal entries appear twice in the full tensor.
CONTRACTION_WEIGHTS = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])

_DIAG = slice(0, 3)


def tensor(t11=0.0, t22=0.0, t33=0.0, t12=0.0, t13=0.0, t23=0.0) -> np.ndarray:
    """Build a packed symmetric tensor from named components."""
    return np.array([t11, t22, t33, t12, t13, t23], dtype=float)


def identity() -> np.ndarray:
    return np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])


def from_matrix(a: np.ndarray) -> np.ndarray:
    """Pack (..., 3, 3) symmetric matrices; symmetrizes the input."""
    a = np.asarray(a, dtype=float)
    s = 0.5 * (a + np.swapaxes(a, -1, -2))
    out = np.empty(s.shape[:-2] + (6,))
    out[..., 0] = s[..., 0, 0]
    out[..., 1] = s[..., 1, 1]
    out[..., 2] = s[..., 2, 2]
    out[..., 3] = s[..., 0, 1]
    out[..., 4] = s[..., 0, 2]
    out[..., 5] = s[..., 1, 2]
    return out


def to_matrix(a: np.ndarray) -> np.ndarray:
    """Expand packed tensors to full (..., 3, 3) form."""
    a = np.asarray(a, dtype=float)
    m = np.empty(a.shape[:-1] + (3, 3))
    m[..., 0, 0] = a[..., 0]
    m[..., 1, 1] = a[..., 1]
    m[..., 2, 2] = a[..., 2]
    m[..., 0, 1] = m[..., 1, 0] = a[..., 3]
    m[..., 0, 2] = m[..., 2, 0] = a[..., 4]
    m[..., 1, 2] = m[..., 2, 1] = a[..., 5]
    return m


def trace(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    return a[..., 0] + a[..., 1] + a[..., 2]


def deviator(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    out = a.copy()
    out[..., _DIAG] -= (trace(a) / 3.0)[..., None]
    return out


def contract(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full double contraction a : b."""
    return np.einsum("...k,k,...k->...", np.asarray(a, float),
                     CONTRACTION_WEIGHTS, np.asarray(b, float))


def norm(a: np.ndarray) -> np.ndarray:
    """Frobenius norm sqrt(a : a) of the full tensor."""
    return np.sqrt(contract(a, a))


def scale_identity(s) -> np.ndarray:
    """s * I, broadcasting a scalar field s of shape (...) to (..., 6)."""
    s = np.asarray(s, dtype=float)
    out = np.zeros(s.shape + (6,))
    out[..., _DIAG] = s[..., None]
    return out
