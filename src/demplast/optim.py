"""Full-batch L-BFGS with a fixed learning rate and a patience-based
convergence monitor.

The optimizer applies the standard two-loop recursion over a bounded
history of curvature pairs.  There is no line search: the update is
params <- params - lr * direction with lr fixed (default 1.0).  Pairs
with non-positive curvature s.y <= 0 are discarded.  The inverse-Hessian
seed is the usual scaling gamma = s.y / y.y from the most recent kept
pair, so the direction already carries the quasi-Newton step length and
the default takes it whole; a smaller lr only damps every step.

Two stability guards, neither of which costs an extra evaluation:

* With no curvature history (start of a run, or right after a history
  reset) the raw gradient's magnitude is untrustworthy, so the first
  direction is clamped to unit L1 length: d = g * min(1, 1 / |g|_1).
* A finite but catastrophic loss (orders of magnitude above the best
  value seen) discards the history and restarts from the best recorded
  parameters.  The learning rate is not changed.

If a loss or gradient evaluation comes back non-finite, the learning rate
is halved once, the history is dropped and the iteration restarts from
the best parameters that evaluated finite; a second non-finite evaluation
raises DivergenceError.
"""

from __future__ import annotations

from collections import deque

import numpy as np

# A step landing this far above the best loss (relative, with +1 absolute
# slack near zero) is treated as an overshoot and rolled back.
_BLOWUP_FACTOR = 100.0


class DivergenceError(RuntimeError):
    pass


class Lbfgs:
    def __init__(self, lr: float = 1.0, memory: int = 20):
        if lr <= 0.0 or memory < 1:
            raise ValueError("need lr > 0 and memory >= 1")
        self.lr = float(lr)
        self.memory = int(memory)
        self._pairs = deque(maxlen=self.memory)   # (s, y, 1/s.y)
        self._prev = None                         # (params, grad)
        self._best = None                         # (params, loss, grad)
        self._halved = False

    def _direction(self, grad: np.ndarray) -> np.ndarray:
        if not self._pairs:
            # no curvature information yet: steepest descent, clamped so
            # a large raw gradient cannot fling the parameters away
            norm = float(np.abs(grad).sum())
            return grad * min(1.0, 1.0 / norm) if norm > 0.0 else grad
        q = grad.copy()
        alphas = []
        for s, y, rho in reversed(self._pairs):
            a = rho * (s @ q)
            q -= a * y
            alphas.append(a)
        s, y, rho = self._pairs[-1]
        q *= (s @ y) / (y @ y)
        for (s, y, rho), a in zip(self._pairs, reversed(alphas)):
            b = rho * (y @ q)
            q += (a - b) * s
        return q

    def _restart(self):
        self._pairs.clear()
        self._prev = None
        return (self._best[0].copy(), self._best[1], self._best[2])

    def step(self, eval_fn, params: np.ndarray):
        """One update.  eval_fn(params) -> (loss, grad).  Returns the new
        parameter vector and the loss at the input parameters."""
        params = np.asarray(params, dtype=float)
        loss, grad = eval_fn(params)
        grad = np.asarray(grad, dtype=float)

        if not np.isfinite(loss) or not np.all(np.isfinite(grad)):
            if self._halved or self._best is None:
                raise DivergenceError(
                    "non-finite loss or gradient after learning-rate halving")
            self._halved = True
            self.lr *= 0.5
            params, loss, grad = self._restart()
        elif self._best is not None and \
                loss > _BLOWUP_FACTOR * (abs(self._best[1]) + 1.0):
            params, loss, grad = self._restart()

        if self._prev is not None:
            s = params - self._prev[0]
            y = grad - self._prev[1]
            sy = s @ y
            if sy > 0.0:
                self._pairs.append((s, y, 1.0 / sy))

        direction = self._direction(grad)
        new_params = params - self.lr * direction
        self._prev = (params.copy(), grad.copy())
        if self._best is None or loss <= self._best[1]:
            self._best = (params.copy(), loss, grad.copy())
        return new_params, float(loss)


class ConvergenceMonitor:
    """Stops when the mean loss of the last ``patience`` iterations agrees
    with the mean of the ``patience`` before them to tolerance ``tol``
    relative to max(|recent mean|, ``floor``).

    Needs at least 2 * patience recorded losses before it can fire.  The
    floor keeps the rule usable when the loss itself goes to 0, as on an
    elastic unload; the solver passes the previous load step's final
    |loss|.  If the scale is smaller than 1e-300 the comparison falls
    back to the absolute difference.
    """

    def __init__(self, patience: int = 10, tol: float = 1e-6,
                 floor: float = 0.0):
        if patience < 1 or tol < 0.0 or floor < 0.0:
            raise ValueError("need patience >= 1, tol >= 0 and floor >= 0")
        self.patience = int(patience)
        self.tol = float(tol)
        self.floor = float(floor)
        self.losses: list = []

    def record(self, loss: float) -> None:
        self.losses.append(float(loss))

    def converged(self) -> bool:
        n = self.patience
        if len(self.losses) < 2 * n:
            return False
        recent = np.mean(self.losses[-n:])
        prior = np.mean(self.losses[-2 * n:-n])
        scale = max(abs(recent), self.floor)
        if scale < 1e-300:
            return bool(abs(prior - recent) <= self.tol)
        return bool(abs(prior - recent) / scale <= self.tol)
