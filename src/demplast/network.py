"""Fully connected displacement network: 3 coordinates in, 3 components out.

Hidden layers use tanh, the output layer is linear.  Forward and reverse
passes are plain numpy; the reverse pass consumes the activations cached
by the most recent forward call and returns the parameter gradient as one
flat vector.

Activations are stored feature-major, one column per point, and each
layer's bias is folded into its GEMM.  The normalized input lives in a
(4, n) buffer and each hidden layer's activation in a (width + 1, n)
buffer; the last row of every such buffer is constant 1.  A layer is then
one GEMM ``[W | b] @ a`` followed by an in-place tanh, and its gradient is
one GEMM ``delta @ a^T``, which gives ``[dW | db]`` with no column sum.
The network keeps these buffers until the row count n changes.  The
reverse pass forms the tanh derivative and the next delta in place in
them, with one (max width, n) scratch for ``W^T @ delta`` that is
allocated on the first reverse pass, so a network that is only evaluated
never holds it.  A reverse pass therefore consumes its forward
pass: a second ``backward`` needs a new ``forward``.  ``forward`` takes
(n, 3) coordinates and returns the transpose of a fresh (3, n) array, so
a caller may keep it.

The tanh derivative of the reverse pass runs over blocks of whole rows,
about 64 K values each, so that its three elementwise passes stay in L2
cache; being elementwise, it gives the bits of one pass at every size.
Above ``tensor.LONG_ARRAY`` rows, a mesh-scale node set, each layer's
gradient is formed as ``a @ delta^T`` into a row-major
(fan_in + 1, fan_out) block, whose transpose the gather to checkpoint
order absorbs, since OpenBLAS runs that orientation faster on long rows.
At preset sizes it is no faster and rounds differently from
``delta @ a^T``, which the reverse pass keeps below the threshold; the
threshold lies above the row counts where the two differ (see
``tensor.LONG_ARRAY``).  At 18,605 rows on a 2-vCPU x86-64 host these
took a 32-wide layer's gradient from 1.24 to 1.05 ms and a hidden
layer's derivative from 0.84 to 0.64 ms.

Flat parameter layout (checkpoints, ``get_params``, ``set_params`` and
the gradient): for each layer in order, the weight matrix (row-major,
shape (fan_out, fan_in)) followed by the bias vector.  The network stores
its parameters in one vector of the folded layout instead: for each
layer, the row-major (fan_out, fan_in + 1) matrix ``[W | b]``.
``weights`` and ``biases`` are views into it, so a write through them
shows in the next pass.  ``set_params`` copies its input into the vector
and ``get_params`` returns a copy, both through one fixed permutation, so
neither shares memory with the caller.

An optional affine input map x -> (x - shift) * scale is applied before
the first layer; it is part of the checkpoint so a saved network evaluates
identically anywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .mesh import open_new
from .tensor import LONG_ARRAY

CHECKPOINT_MAGIC = "demplast-checkpoint 1"

_BLOCK = 1 << 16    # values per row block of the tanh derivative


class NetworkError(ValueError):
    pass


def glorot_limit(fan_in: int, fan_out: int) -> float:
    return float(np.sqrt(6.0 / (fan_in + fan_out)))


class Network:
    def __init__(self, weights, biases, input_shift=None, input_scale=None):
        weights = [np.asarray(w, dtype=float) for w in weights]
        biases = [np.asarray(b, dtype=float) for b in biases]
        if len(weights) != len(biases) or not weights:
            raise NetworkError("need matching, non-empty weight/bias lists")
        for w, b in zip(weights, biases):
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise NetworkError("layer shape mismatch")
        for wa, wb in zip(weights[:-1], weights[1:]):
            if wb.shape[1] != wa.shape[0]:
                raise NetworkError("consecutive layers disagree on width")
        if weights[0].shape[1] != 3 or weights[-1].shape[0] != 3:
            raise NetworkError("network must map 3 coordinates to 3 components")
        widths = [weights[0].shape[1]] + [w.shape[0] for w in weights]
        self._order = _checkpoint_order(widths)
        self._folded = np.empty(self._order.size)
        self._layers = _folded_views(self._folded, widths)
        self._folded[self._order] = flatten_params(weights, biases)
        self.weights = [wb[:, :-1] for wb in self._layers]
        self.biases = [wb[:, -1] for wb in self._layers]
        self._grad = np.empty(self._order.size)
        self._grad_layers = _folded_views(self._grad, widths)
        # the long-array reverse pass writes each layer's gradient
        # transposed, as a row-major (fan_in + 1, fan_out) block
        self._order_t = _checkpoint_order(widths, transposed=True)
        self._grad_t_layers = [g.T for g in
                               _folded_views(self._grad, widths, True)]
        self.input_shift = np.zeros(3) if input_shift is None \
            else np.asarray(input_shift, dtype=float).reshape(3)
        self.input_scale = np.ones(3) if input_scale is None \
            else np.asarray(input_scale, dtype=float).reshape(3)
        self._primed = False     # a forward pass awaits its backward
        self._rows = None        # row count the buffers below are sized for
        self._acts = []          # (fan_in + 1, n) input of every layer
        self._scratch = None     # flat max hidden width * n, for W^T @ delta

    @property
    def widths(self) -> tuple:
        return tuple([self.weights[0].shape[1]] +
                     [w.shape[0] for w in self.weights])

    @property
    def n_params(self) -> int:
        return self._folded.size

    def forward(self, coords: np.ndarray) -> np.ndarray:
        """Evaluate the network on coords (n, 3); caches activations so a
        backward call can follow."""
        coords = np.asarray(coords, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != 3:
            raise NetworkError(f"coords must be (n, 3), got {coords.shape}")
        n = coords.shape[0]
        if n != self._rows:
            self._rows = n
            self._acts = [np.empty((width + 1, n))
                          for width in self.widths[:-1]]
            for a in self._acts:
                a[-1] = 1.0
            self._scratch = None
        x = self._acts[0][:-1]
        np.subtract(coords.T, self.input_shift[:, None], out=x)
        x *= self.input_scale[:, None]
        for wb, a, nxt in zip(self._layers, self._acts, self._acts[1:]):
            z = nxt[:-1]
            np.matmul(wb, a, out=z)
            np.tanh(z, out=z)
        self._primed = True
        return (self._layers[-1] @ self._acts[-1]).T

    def backward(self, upstream: np.ndarray) -> np.ndarray:
        """Flat gradient of sum(upstream * output) w.r.t. the parameters,
        using (and consuming) the activations of the last forward call."""
        if not self._primed:
            raise NetworkError("backward called without a new forward")
        upstream = np.asarray(upstream, dtype=float)
        if upstream.shape != (self._rows, 3):
            raise NetworkError(f"upstream shape {upstream.shape} does not "
                               f"match cached output shape {(self._rows, 3)}")
        self._primed = False
        if self._scratch is None and len(self._acts) > 1:
            self._scratch = np.empty(self._rows * max(self.widths[1:-1]))
        long = self._rows > LONG_ARRAY
        step = max(1, _BLOCK // self._rows)     # rows per block
        delta = upstream.T
        for l in range(len(self._layers) - 1, -1, -1):
            a = self._acts[l]
            if long:
                np.matmul(a, delta.T, out=self._grad_t_layers[l])
            else:
                np.matmul(delta, a.T, out=self._grad_layers[l])
            if l > 0:
                # delta <- (W^T @ delta) * (1 - a**2), in a's buffer
                a = a[:-1]
                dw = self._scratch[:a.size].reshape(a.shape)
                np.matmul(self.weights[l].T, delta, out=dw)
                for r in range(0, len(a), step):
                    x, d = a[r:r + step], dw[r:r + step]
                    x *= x
                    np.subtract(1.0, x, out=x)
                    x *= d
                delta = a
        return self._grad[self._order_t if long else self._order]

    def get_params(self) -> np.ndarray:
        return self._folded[self._order]

    def set_params(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=float)
        if flat.size != self._folded.size:
            raise NetworkError(f"parameter vector has {flat.size} entries, "
                               f"expected {self._folded.size} for widths "
                               f"{self.widths}")
        self._folded[self._order] = flat.reshape(-1)
        self._primed = False

    def save(self, path) -> None:
        header = {"widths": list(self.widths)}
        with open_new(path, binary=True) as fh:
            fh.write((CHECKPOINT_MAGIC + "\n").encode())
            fh.write((json.dumps(header) + "\n").encode())
            self.input_shift.astype("<f8").tofile(fh)
            self.input_scale.astype("<f8").tofile(fh)
            self.get_params().astype("<f8", copy=False).tofile(fh)

    @classmethod
    def load(cls, path) -> "Network":
        """The network saved at ``path``; a cut or malformed file raises
        ``NetworkError``."""
        with open(path, "rb") as fh:
            magic = fh.readline().decode("utf-8", "replace").strip()
            if magic != CHECKPOINT_MAGIC:
                raise NetworkError(f"{path}: not a checkpoint file "
                                   f"(bad magic {magic!r})")
            header = fh.readline()
            try:
                widths = tuple(int(w) for w in json.loads(header)["widths"])
            except (ValueError, KeyError, TypeError):
                widths = ()
            if len(widths) < 2 or min(widths) < 1:
                raise NetworkError(f"{path}: malformed checkpoint header "
                                   f"{header[:80]!r}")
            payload = np.fromfile(fh, dtype="<f8")
        n_expected = 6 + param_count(widths)
        if payload.size != n_expected:
            raise NetworkError(f"{path}: payload has {payload.size} values, "
                               f"expected {n_expected} for widths {widths}")
        shift, scale, flat = payload[:3], payload[3:6], payload[6:]
        ws, bs = unflatten_params(flat, widths)
        return cls(ws, bs, input_shift=shift, input_scale=scale)


def param_count(widths) -> int:
    widths = tuple(widths)
    return sum((widths[i] + 1) * widths[i + 1] for i in range(len(widths) - 1))


def flatten_params(weights, biases) -> np.ndarray:
    parts = []
    for w, b in zip(weights, biases):
        parts.append(np.asarray(w, dtype=float).ravel())
        parts.append(np.asarray(b, dtype=float).ravel())
    return np.concatenate(parts)


def unflatten_params(flat: np.ndarray, widths):
    """Weights and biases as views into one private copy of ``flat``, held
    in the folded layout of ``_folded_views``."""
    flat = np.asarray(flat, dtype=float)
    if flat.size != param_count(widths):
        raise NetworkError(f"parameter vector has {flat.size} entries, "
                           f"expected {param_count(widths)} for widths "
                           f"{tuple(widths)}")
    folded = np.empty(flat.size)
    folded[_checkpoint_order(widths)] = flat.reshape(-1)
    layers = _folded_views(folded, widths)
    return [wb[:, :-1] for wb in layers], [wb[:, -1] for wb in layers]


def _folded_views(flat: np.ndarray, widths, transposed=False):
    """Each layer's [W | b], shape (fan_out, fan_in + 1), as a view into
    the flat vector ``flat``; with ``transposed`` each layer's block holds
    the row-major (fan_in + 1, fan_out) transpose, and the view is its
    ``.T``."""
    layers, ofs = [], 0
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        size = (fan_in + 1) * fan_out
        block = flat[ofs:ofs + size]
        layers.append(block.reshape(fan_in + 1, fan_out).T if transposed
                      else block.reshape(fan_out, fan_in + 1))
        ofs += size
    return layers


def _checkpoint_order(widths, transposed=False) -> np.ndarray:
    """For each entry of the flat parameter layout, its index in the
    folded layout of ``_folded_views``, stored as ``transposed`` says."""
    index = np.arange(param_count(widths))
    return np.concatenate([part for wb in
                           _folded_views(index, widths, transposed)
                           for part in (wb[:, :-1].ravel(), wb[:, -1])])


def init_network(widths, seed: int = 0, input_shift=None, input_scale=None,
                 zero_output_layer: bool = False) -> Network:
    """Glorot-uniform weights, zero biases, reproducible from the seed.

    With ``zero_output_layer`` the last layer starts at zero so the raw
    displacement field is exactly zero at initialization.
    """
    widths = tuple(int(w) for w in widths)
    if len(widths) < 2:
        raise NetworkError("need at least an input and an output width")
    rng = np.random.default_rng(seed)
    ws, bs = [], []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        lim = glorot_limit(fan_in, fan_out)
        ws.append(rng.uniform(-lim, lim, size=(fan_out, fan_in)))
        bs.append(np.zeros(fan_out))
    if zero_output_layer:
        ws[-1][:] = 0.0
    return Network(ws, bs, input_shift=input_shift, input_scale=input_scale)


def normalization_from_box(lo, hi):
    """shift/scale mapping the box [lo, hi] onto [-1, 1]^3 per axis;
    degenerate axes map to zero."""
    lo = np.asarray(lo, dtype=float).reshape(3)
    hi = np.asarray(hi, dtype=float).reshape(3)
    shift = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    scale = np.where(half > 0.0, 1.0 / np.where(half > 0.0, half, 1.0), 0.0)
    return shift, scale
