"""L-BFGS stepper and the patience-based convergence monitor."""

from collections import deque

import numpy as np
import pytest

from demplast.optim import ConvergenceMonitor, DivergenceError, Lbfgs
from demplast.solver import OptimizerConfig


def quad(x):
    return 0.5 * float(x @ x), x.copy()


def test_first_step_is_gradient_descent():
    # 1-D quadratic from x = 1: with an empty history the step reduces to
    # plain gradient descent, x -> x - lr * x = 0.5
    opt = Lbfgs(lr=0.5)
    x1, loss = opt.step(quad, np.array([1.0]))
    assert loss == 0.5
    np.testing.assert_allclose(x1, [0.5])


def test_first_step_clamps_large_gradients():
    # without curvature information the step length is capped at lr,
    # however steep the start is
    opt = Lbfgs(lr=0.5)
    x0 = np.array([300.0, -400.0])
    x1, _ = opt.step(quad, x0)
    np.testing.assert_allclose(x1, x0 - 0.5 * x0 / 700.0)


def test_quadratic_converges():
    opt = Lbfgs(lr=0.5)
    x = np.array([3.0, -1.0, 2.0])
    # fixed lr 0.5 on an identity Hessian contracts by half per step
    for _ in range(60):
        x, _ = opt.step(quad, x)
    assert np.linalg.norm(x) < 1e-12


def test_anisotropic_quadratic_uses_curvature():
    d = np.array([1.0, 100.0])

    def f(x):
        return 0.5 * float(d @ (x * x)), d * x

    opt = Lbfgs(lr=0.5, memory=10)
    x = np.array([1.0, 1.0])
    for _ in range(60):
        x, _ = opt.step(f, x)
    assert np.linalg.norm(x) < 1e-8


def test_rosenbrock_progresses():
    def f(v):
        x, y = v
        loss = (1 - x) ** 2 + 100 * (y - x * x) ** 2
        grad = np.array([-2 * (1 - x) - 400 * x * (y - x * x),
                         200 * (y - x * x)])
        return loss, grad

    opt = Lbfgs(lr=0.05, memory=20)
    x = np.array([-0.5, 0.5])
    losses = []
    for _ in range(400):
        x, loss = opt.step(f, x)
        losses.append(loss)
    assert losses[-1] < 1e-3


def test_nonpositive_curvature_discarded():
    # concave objective: s.y < 0 always, so no pair may enter the history
    def f(x):
        return -0.5 * float(x @ x), -x

    opt = Lbfgs(lr=0.1)
    x = np.array([1.0])
    for _ in range(5):
        x, _ = opt.step(f, x)
    assert len(opt._pairs) == 0


def test_curvature_pairs_accumulate():
    opt = Lbfgs(lr=0.5, memory=3)
    x = np.array([3.0, -1.0])
    for _ in range(6):
        x, _ = opt.step(quad, x)
    assert len(opt._pairs) == 3          # capped at the memory size


def test_divergence_recovery_then_error():
    # linear slope with a cliff: loss is nan past x = -3.  Zero curvature
    # keeps the history empty, so every step is -lr * grad.
    def f(x):
        if x[0] < -3.0:
            return float("nan"), np.array([1.0])
        return float(x[0]), np.array([1.0])

    opt = Lbfgs(lr=2.0)
    x = np.array([0.0])
    x, _ = opt.step(f, x)          # x: 0 -> -2
    np.testing.assert_allclose(x, [-2.0])
    x, _ = opt.step(f, x)          # x: -2 -> -4, still finite at -2
    np.testing.assert_allclose(x, [-4.0])
    x, loss = opt.step(f, x)       # nan at -4: halve lr, restart from -2
    assert opt.lr == 1.0
    assert loss == -2.0            # loss at the restored point
    np.testing.assert_allclose(x, [-3.0])
    x, _ = opt.step(f, x)          # finite at -3
    with pytest.raises(DivergenceError, match="^non-finite loss or gradient "
                                              "after learning-rate halving$"):
        opt.step(f, x)             # second non-finite evaluation at -4


def test_non_finite_first_evaluation_raises_without_halving():
    """A first evaluation that is not finite leaves no point to restart
    from: it raises at once, saying so, and the learning rate stands."""
    opt = Lbfgs(lr=2.0)
    with pytest.raises(DivergenceError, match="^non-finite loss or gradient "
                                              "at the first evaluation: no "
                                              "finite point to restart from$"):
        opt.step(lambda x: (float("nan"), np.ones(1)), np.zeros(1))
    assert opt.lr == 2.0


def test_default_step_lands_on_quadratic_minimum():
    # f = 2 x^2 from x = 0.125: the gradient 0.5 is inside the unit-L1
    # clamp.  With one curvature pair the two-loop direction is the
    # Newton step, which the default lr takes whole.
    def f(x):
        return 2.0 * float(x @ x), 4.0 * x

    opt = Lbfgs()
    assert opt.lr == OptimizerConfig().lr == 1.0
    x1, _ = opt.step(f, np.array([0.125]))
    x2, _ = opt.step(f, x1)
    assert len(opt._pairs) == 1
    assert x1[0] == -0.375 and x2[0] == 0.0
    # lr 0.5 only halves the error there
    half = Lbfgs(lr=0.5)
    y1, _ = half.step(f, np.array([0.125]))
    y2, _ = half.step(f, y1)
    assert y2[0] == 0.5 * y1[0] != 0.0


def test_blowup_restarts_from_best_with_empty_history():
    # anisotropic quadratic; the third evaluation returns a finite loss
    # above 100 * (|best| + 1).  Like a non-finite loss, it halves lr,
    # discards the history and restarts from the best point x0, with the
    # same first step at the new lr; a second trigger of either kind
    # raises, naming itself
    d = np.array([1.0, 4.0])
    x0 = np.array([0.25, 0.125])
    for second, message in ((1e3, "loss 1000 above 100 x the best"),
                            (np.nan, "non-finite loss or gradient")):
        losses = iter([None, None, 1e3, None, second])

        def f(x):
            loss = next(losses)
            return (0.5 * float(d @ (x * x)) if loss is None else loss), d * x

        opt = Lbfgs()
        x1, loss0 = opt.step(f, x0)
        x2, _ = opt.step(f, x1)
        assert len(opt._pairs) == 1
        assert loss0 == 0.0625 and 1e3 > 100.0 * (loss0 + 1.0)
        x3, loss = opt.step(f, x2)
        assert len(opt._pairs) == 0
        assert loss == loss0 and opt.lr == 0.5
        np.testing.assert_array_equal(x3, x0 - 0.5 * d * x0)
        x4, _ = opt.step(f, x3)
        with pytest.raises(DivergenceError,
                           match=f"^{message} after learning-rate halving$"):
            opt.step(f, x4)


def test_step_keeps_private_copies():
    """Lbfgs keeps its own copy of the parameters and gradient it is
    given: a caller that reuses one gradient buffer and overwrites the
    parameters it passed in follows the same trajectory, bit for bit, as
    one that hands over fresh arrays."""
    d = np.array([1.0, 30.0, 0.2])

    def fresh(x):
        return 0.5 * float(d @ (x * x)), d * x

    buf = np.empty(3)

    def reused(x):
        np.multiply(d, x, out=buf)
        return 0.5 * float(d @ (x * x)), buf

    ref, opt = Lbfgs(memory=4), Lbfgs(memory=4)
    x_ref = x = np.array([1.0, -0.5, 2.0])
    for _ in range(12):
        x_ref, loss_ref = ref.step(fresh, x_ref)
        x_new, loss = opt.step(reused, x)
        assert loss == loss_ref
        assert x_new.tobytes() == x_ref.tobytes()
        x[:] = np.nan                # the caller reuses what it passed in
        x = x_new


def two_loop_direction(pairs, grad):
    """Reference: the standard two-loop recursion over (s, y) pairs, oldest
    first, seeded with gamma = s.y / y.y of the newest pair."""
    q = grad.copy()
    alphas = []
    for s, y in reversed(pairs):
        a = (s @ q) / (s @ y)
        q -= a * y
        alphas.append(a)
    s, y = pairs[-1]
    q *= (s @ y) / (y @ y)
    for (s, y), a in zip(pairs, reversed(alphas)):
        q += (a - (y @ q) / (s @ y)) * s
    return q


def test_compact_direction_matches_two_loop():
    """On random SPD quadratics every direction built from the pair
    history agrees with the two-loop recursion over the same pairs: with
    fewer than m pairs, exactly m, after the ring has wrapped, after a
    blow-up restart and across a rejected s.y <= 0 pair."""
    m, n = 4, 40
    for seed in range(3):
        rng = np.random.default_rng(seed)
        basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = (basis * np.geomspace(1.0, 1e2, n)) @ basis.T
        reject, blowup = 7, 15          # evaluation indices
        calls = []

        def f(x):
            k = len(calls)
            g = a @ x
            if k == reject:
                # y = -s after the step from the previous point
                g = calls[-1][1] - (x - calls[-1][0])
            calls.append((x.copy(), g.copy()))
            return (1e9 if k == blowup else 0.5 * float(x @ a @ x)), g

        opt = Lbfgs(memory=m)
        ref = deque(maxlen=m)
        checked = []
        total = [0, 0]                  # pairs appended before, after restart
        orig_append, orig_clear = opt._pairs.append, opt._pairs.clear
        orig_direction = opt._pairs.direction

        def append(s, y, sy):
            ref.append((s.copy(), y.copy()))
            total[len(calls) > blowup] += 1
            orig_append(s, y, sy)

        def clear():
            ref.clear()
            orig_clear()

        def direction(g):
            d = orig_direction(g)
            want = two_loop_direction(list(ref), g)
            checked.append((len(calls) > blowup, len(ref),
                            np.linalg.norm(d - want) / np.linalg.norm(want)))
            return d

        opt._pairs.append, opt._pairs.clear = append, clear
        opt._pairs.direction = direction
        x = rng.standard_normal(n)
        appended, held = [], []         # after each step
        for _ in range(30):
            x, _ = opt.step(f, x)
            appended.append(sum(total))
            held.append(len(ref))
            assert len(opt._pairs) == len(ref)
        counts = [c for _, c, _ in checked]
        assert max(err for _, _, err in checked) <= 1e-12
        # every case was exercised
        assert 0 < min(counts) < m and m in counts
        assert appended[reject] == appended[reject - 1]      # rejected
        assert held[blowup] == 0                              # restarted
        assert total[0] >= 2 * m and total[1] >= 2 * m         # wrapped
        assert sum(1 for after, c, _ in checked if after and c < m) >= 2


def test_lbfgs_validation():
    with pytest.raises(ValueError):
        Lbfgs(lr=0.0)
    with pytest.raises(ValueError):
        Lbfgs(lr=1.0, memory=0)
    for lr in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite lr"):
            Lbfgs(lr=lr)


# -- convergence monitor -----------------------------------------------------

def test_monitor_identical_losses_converge():
    m = ConvergenceMonitor(patience=10, tol=1e-6)
    for _ in range(19):
        m.record(7.0)
        assert not m.converged()
    m.record(7.0)
    assert m.converged()


def test_monitor_linear_decrease_not_converged():
    m = ConvergenceMonitor(patience=10, tol=1e-6)
    for v in range(100, 80, -1):
        m.record(float(v))
    # window means 95.5 vs 85.5: relative change 0.11696 >> tol
    assert not m.converged()
    np.testing.assert_allclose(abs(95.5 - 85.5) / 85.5, 0.11695906432748537)


def test_monitor_needs_two_windows():
    m = ConvergenceMonitor(patience=10, tol=1e-6)
    for _ in range(15):
        m.record(1.0)
    assert not m.converged()


def test_monitor_relative_tolerance():
    m = ConvergenceMonitor(patience=5, tol=1e-3)
    for v in [10.0] * 5 + [10.001] * 5:
        m.record(v)
    assert m.converged()
    m2 = ConvergenceMonitor(patience=5, tol=1e-5)
    for v in [10.0] * 5 + [10.001] * 5:
        m2.record(v)
    assert not m2.converged()


def test_monitor_near_zero_uses_absolute():
    m = ConvergenceMonitor(patience=2, tol=1e-6)
    for v in [1e-310, 1e-310, 0.0, 0.0]:
        m.record(v)
    assert m.converged()


def test_monitor_floor_lets_decay_to_zero_converge():
    # a geometric decay toward 0 changes by the same relative amount every
    # window, so only a floored scale lets it converge
    plain = ConvergenceMonitor(patience=10, tol=1e-6)
    floored = ConvergenceMonitor(patience=10, tol=1e-6, floor=1.0)
    fired_plain, fired_floored = [], []
    for i in range(400):
        for m, fired in ((plain, fired_plain), (floored, fired_floored)):
            m.record(0.8 ** i)
            fired.append(m.converged())
    assert not any(fired_plain)
    first = fired_floored.index(True)
    assert 20 <= first < 100
    # window means differ by at most tol * floor when it fires
    recent = np.mean(floored.losses[first - 9:first + 1])
    prior = np.mean(floored.losses[first - 19:first - 9])
    assert abs(prior - recent) <= 1e-6


def test_monitor_floor_zero_keeps_reference_answers():
    """The acceptance-6 histories give the same answers with floor 0, and
    a floor below |recent mean| changes nothing."""
    values = [float(v) for v in range(100, 80, -1)]
    for floor in (0.0, 50.0):
        flat = ConvergenceMonitor(patience=10, tol=1e-6, floor=floor)
        decay = ConvergenceMonitor(patience=10, tol=1e-6, floor=floor)
        short = ConvergenceMonitor(patience=10, tol=1e-6, floor=floor)
        for v in values:
            flat.record(3.7)
            decay.record(v)
        for v in values[:15]:
            short.record(v)
        assert flat.converged() is True
        assert decay.converged() is False
        assert short.converged() is False


def test_monitor_validation():
    with pytest.raises(ValueError):
        ConvergenceMonitor(patience=0)
    with pytest.raises(ValueError):
        ConvergenceMonitor(patience=1, tol=-1.0)
    with pytest.raises(ValueError):
        ConvergenceMonitor(patience=1, floor=-1.0)
    # an infinite floor would fire on any history, so non-finite values
    # are refused where the monitor is built, not only in config parsing
    for key in ("tol", "floor"):
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite tol, floor"):
                ConvergenceMonitor(patience=2, **{key: value})
