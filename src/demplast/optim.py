"""Full-batch L-BFGS with a fixed learning rate and a patience-based
convergence monitor.

The optimizer keeps a bounded history of curvature pairs and applies the
inverse-Hessian approximation in the compact form of Byrd, Nocedal &
Schnabel (1994), "Representations of quasi-Newton matrices and their use
in limited memory methods": two products with the (2m, n) pair buffer
plus O(m^2) work on small matrices that are updated one row and column
per accepted pair.  There is no line search: the update is
params <- params - lr * direction with lr fixed (default 1.0).  Pairs
with non-positive curvature s.y <= 0 are discarded.  The inverse-Hessian
seed is the usual scaling gamma = s.y / y.y from the most recent kept
pair, so the direction already carries the quasi-Newton step length and
the default takes it whole; a smaller lr only damps every step.

With no curvature history (start of a run, or right after a restart)
the raw gradient's magnitude is untrustworthy, so the first direction is
clamped to unit L1 length: d = g * min(1, 1 / |g|_1).

One recovery rule, which costs no extra evaluation: a loss or gradient
that is not finite, or a finite loss orders of magnitude above the best
value seen, halves the learning rate, drops the history and restarts from
the best recorded parameters.  A second such evaluation, or a first
evaluation that is not finite, raises DivergenceError.
"""

from __future__ import annotations

import math

import numpy as np

# A step landing this far above the best loss (relative, with +1 absolute
# slack near zero) is treated as a blow-up and rolled back.
_BLOWUP_FACTOR = 100.0


class DivergenceError(RuntimeError):
    pass


class _Pairs:
    """The newest ``memory`` curvature pairs (s_i, y_i) in compact form.

    s_i and y_i are rows 2i and 2i + 1 of one (2m, n) buffer.  Slots fill
    from 0; once all m are held, a new pair overwrites the oldest.  The
    small matrices are indexed by slot: D = diag(S^T Y) (``_sy``), Y^T Y
    (``_yy``) and R^-1 (``_rinv``), where R holds s_i.y_j for pairs i no
    newer than j.  In time order R is upper triangular, so dropping the
    oldest pair keeps the trailing block of R^-1 and appending the newest
    adds one column.  With gamma = s.y / y.y of the newest pair, the
    inverse Hessian applied to g is

        gamma g + S R^-T ((D + gamma Y^T Y) R^-1 S^T g - gamma Y^T g)
                - gamma Y R^-1 S^T g.
    """

    def __init__(self, memory: int):
        self.memory = memory
        self._count = 0
        self._next = 0          # slot of the next pair
        self._fresh = None      # (slot, s.y) of a pair not yet in rinv, yy
        self._rows = None       # allocated on the first pair, once n is known
        self._both = None       # (2, n): the new y and the gradient
        self._rinv = np.zeros((memory, memory))
        self._yy = np.zeros((memory, memory))
        self._sy = np.zeros(memory)
        self._gamma = 1.0

    def __len__(self) -> int:
        return self._count

    def clear(self) -> None:
        self._count = 0
        self._next = 0
        self._fresh = None

    def append(self, s: np.ndarray, y: np.ndarray, sy: float) -> None:
        """Store a pair with curvature sy = s.y > 0; the small matrices
        take it on the next :meth:`direction` call."""
        if self._rows is None:
            self._rows = np.empty((2 * self.memory, s.size))
            self._both = np.empty((2, s.size))
        j = self._next
        self._rows[2 * j] = s
        self._rows[2 * j + 1] = y
        self._next = (j + 1) % self.memory
        self._count = min(self._count + 1, self.memory)
        self._fresh = (j, sy)

    def direction(self, grad: np.ndarray) -> np.ndarray:
        """The inverse Hessian of the held pairs applied to ``grad``."""
        k = self._count
        rows = self._rows[:2 * k]
        rinv = self._rinv[:k, :k]
        if self._fresh is None:
            proj = rows @ grad
        else:
            # one pass over the buffer projects the new y and the gradient
            j, sy = self._fresh
            self._fresh = None
            self._both[0] = rows[2 * j + 1]
            self._both[1] = grad
            both = rows @ self._both.T
            proj = both[:, 1]
            yty = both[1::2, 0]
            # the new pair is the newest: its row of R^-1 is zero off the
            # diagonal, and its column is -R^-1 (S^T y) / s.y over the rest
            self._rinv[j] = 0.0
            self._rinv[:, j] = 0.0
            self._rinv[:k, j] = rinv @ both[0::2, 0] * (-1.0 / sy)
            self._rinv[j, j] = 1.0 / sy
            self._yy[j, :k] = yty
            self._yy[:k, j] = yty
            self._sy[j] = sy
            self._gamma = sy / yty[j]
        gamma = self._gamma
        p = rinv @ proj[0::2]
        coef = np.empty(2 * k)
        coef[0::2] = (self._sy[:k] * p
                      + gamma * (self._yy[:k, :k] @ p - proj[1::2])) @ rinv
        coef[1::2] = -gamma * p
        return gamma * grad + coef @ rows


class Lbfgs:
    def __init__(self, lr: float = 1.0, memory: int = 20):
        if not 0.0 < lr < math.inf or memory < 1:
            raise ValueError("need a finite lr > 0 and memory >= 1")
        self.lr = float(lr)
        self.memory = int(memory)
        self._pairs = _Pairs(self.memory)
        self._prev = None                         # (params, grad)
        self._best = None                         # (params, loss, grad)
        self._halved = False

    def _direction(self, grad: np.ndarray) -> np.ndarray:
        if not self._pairs:
            # no curvature information yet: steepest descent, clamped so
            # a large raw gradient cannot fling the parameters away
            norm = float(np.abs(grad).sum())
            return grad * min(1.0, 1.0 / norm) if norm > 0.0 else grad
        return self._pairs.direction(grad)

    def step(self, eval_fn, params: np.ndarray):
        """One update.  eval_fn(params) -> (loss, grad).  Returns the new
        parameter vector and the loss at the input parameters."""
        params = np.asarray(params, dtype=float)
        loss, grad = eval_fn(params)
        grad = np.asarray(grad, dtype=float)

        if not math.isfinite(loss) or not np.isfinite(grad).all():
            if self._best is None:
                raise DivergenceError(
                    "non-finite loss or gradient at the first evaluation: "
                    "no finite point to restart from")
            trigger = "non-finite loss or gradient"
        elif self._best is not None and \
                loss > _BLOWUP_FACTOR * (abs(self._best[1]) + 1.0):
            trigger = f"loss {loss:.6g} above {_BLOWUP_FACTOR:g} x the best"
        else:
            trigger = None
        if trigger is not None:
            if self._halved:
                raise DivergenceError(f"{trigger} after learning-rate halving")
            self._halved = True
            self.lr *= 0.5
            self._pairs.clear()
            self._prev = None
            params, loss, grad = self._best

        if self._prev is not None:
            s = params - self._prev[0]
            y = grad - self._prev[1]
            sy = s @ y
            if sy > 0.0:
                self._pairs.append(s, y, sy)

        direction = self._direction(grad)
        new_params = params - self.lr * direction
        # one private copy, shared by _prev and _best: neither is written
        params, grad = params.copy(), grad.copy()
        self._prev = (params, grad)
        if self._best is None or loss <= self._best[1]:
            self._best = (params, loss, grad)
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
        if patience < 1 or not 0.0 <= tol < math.inf \
                or not 0.0 <= floor < math.inf:
            raise ValueError("need patience >= 1 and finite tol, floor >= 0")
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
        recent = math.fsum(self.losses[-n:]) / n
        prior = math.fsum(self.losses[-2 * n:-n]) / n
        scale = max(abs(recent), self.floor)
        if scale < 1e-300:
            return bool(abs(prior - recent) <= self.tol)
        return bool(abs(prior - recent) / scale <= self.tol)
