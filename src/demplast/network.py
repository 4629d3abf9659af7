"""Fully connected displacement network: 3 coordinates in, 3 components out.

Hidden layers use tanh, the output layer is linear.  Forward and reverse
passes are plain numpy; the reverse pass consumes the activations cached
by the most recent forward call and returns the parameter gradient as one
flat vector.

Both passes reuse their (n, width) arrays across calls.  Each hidden
layer's activation is written into a buffer the network keeps until the
row count n changes; the output layer is a fresh array, so a caller may
keep it.  The reverse pass forms the tanh derivative and the next delta
in place in those buffers, with one (n, max width) scratch for
delta @ W that is allocated on the first reverse pass, so a network that
is only evaluated never holds it.  A reverse pass therefore consumes its
forward pass: a second ``backward`` needs a new ``forward``.  The
operations and their order are those of the plain allocating passes, so
the results are the same to the bit.

Flat parameter layout: for each layer in order, the weight matrix
(row-major, shape (fan_out, fan_in)) followed by the bias vector.  The
network stores its parameters in that layout, in one flat vector, and
``weights`` and ``biases`` are views into it.  ``set_params`` copies its
input into the vector and ``get_params`` returns a copy, so neither
shares memory with the caller.

An optional affine input map x -> (x - shift) * scale is applied before
the first layer; it is part of the checkpoint so a saved network evaluates
identically anywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .mesh import open_new

CHECKPOINT_MAGIC = "demplast-checkpoint 1"


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
        self._flat = flatten_params(weights, biases)
        self.weights, self.biases = _layer_views(
            self._flat, [weights[0].shape[1]] + [w.shape[0] for w in weights])
        self.input_shift = np.zeros(3) if input_shift is None \
            else np.asarray(input_shift, dtype=float).reshape(3)
        self.input_scale = np.ones(3) if input_scale is None \
            else np.asarray(input_scale, dtype=float).reshape(3)
        self._cache = None
        self._rows = None        # row count the buffers below are sized for
        self._hidden = []        # (n, width) activation of each hidden layer
        self._scratch = None     # flat n * max width, for delta @ W

    @property
    def widths(self) -> tuple:
        return tuple([self.weights[0].shape[1]] +
                     [w.shape[0] for w in self.weights])

    @property
    def n_params(self) -> int:
        return self._flat.size

    def forward(self, coords: np.ndarray) -> np.ndarray:
        """Evaluate the network on coords (n, 3); caches activations so a
        backward call can follow."""
        coords = np.asarray(coords, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != 3:
            raise NetworkError(f"coords must be (n, 3), got {coords.shape}")
        a = (coords - self.input_shift) * self.input_scale
        n = a.shape[0]
        if n != self._rows:
            self._rows = n
            self._hidden = [np.empty((n, width))
                            for width in self.widths[1:-1]]
            self._scratch = None
        acts = [a]
        for w, b, buf in zip(self.weights, self.biases, self._hidden):
            np.matmul(a, w.T, out=buf)
            buf += b
            a = np.tanh(buf, out=buf)
            acts.append(a)
        a = a @ self.weights[-1].T + self.biases[-1]
        acts.append(a)
        self._cache = acts
        return a

    def backward(self, upstream: np.ndarray) -> np.ndarray:
        """Flat gradient of sum(upstream * output) w.r.t. the parameters,
        using (and consuming) the activations of the last forward call."""
        if self._cache is None:
            raise NetworkError("backward called without a new forward")
        acts = self._cache
        upstream = np.asarray(upstream, dtype=float)
        if upstream.shape != acts[-1].shape:
            raise NetworkError(f"upstream shape {upstream.shape} does not match "
                               f"cached output shape {acts[-1].shape}")
        self._cache = None
        if self._scratch is None and self._hidden:
            self._scratch = np.empty(self._rows * max(self.widths[1:-1]))
        grads_w = [None] * len(self.weights)
        grads_b = [None] * len(self.weights)
        delta = upstream
        for l in range(len(self.weights) - 1, -1, -1):
            grads_w[l] = delta.T @ acts[l]
            grads_b[l] = delta.sum(axis=0)
            if l > 0:
                # delta <- (delta @ W) * (1 - a**2), in a's buffer
                a = acts[l]
                dw = self._scratch[:a.size].reshape(a.shape)
                np.matmul(delta, self.weights[l], out=dw)
                a *= a
                np.subtract(1.0, a, out=a)
                a *= dw
                delta = a
        return np.concatenate([g for gw, gb in zip(grads_w, grads_b)
                               for g in (gw.reshape(-1), gb)])

    def get_params(self) -> np.ndarray:
        return self._flat.copy()

    def set_params(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=float)
        if flat.size != self._flat.size:
            raise NetworkError(f"parameter vector has {flat.size} entries, "
                               f"expected {self._flat.size} for widths "
                               f"{self.widths}")
        self._flat[:] = flat.reshape(-1)
        self._cache = None

    def save(self, path) -> None:
        header = {"widths": list(self.widths)}
        with open_new(path, binary=True) as fh:
            fh.write((CHECKPOINT_MAGIC + "\n").encode())
            fh.write((json.dumps(header) + "\n").encode())
            self.input_shift.astype("<f8").tofile(fh)
            self.input_scale.astype("<f8").tofile(fh)
            self._flat.astype("<f8").tofile(fh)

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
    """Weights and biases as views into one private copy of ``flat``."""
    flat = np.array(flat, dtype=float)
    if flat.size != param_count(widths):
        raise NetworkError(f"parameter vector has {flat.size} entries, "
                           f"expected {param_count(widths)} for widths "
                           f"{tuple(widths)}")
    return _layer_views(flat, widths)


def _layer_views(flat: np.ndarray, widths):
    """Weights and biases as views into the flat vector ``flat``."""
    ws, bs, ofs = [], [], 0
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        ws.append(flat[ofs:ofs + fan_in * fan_out].reshape(fan_out, fan_in))
        ofs += fan_in * fan_out
        bs.append(flat[ofs:ofs + fan_out])
        ofs += fan_out
    return ws, bs


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
