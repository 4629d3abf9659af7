"""Small-strain J2 plasticity: radial-return update and incremental energy.

The model is linear isotropic elasticity plus a von Mises yield surface
with either linear isotropic hardening (modulus ``H``) or linear kinematic
hardening (modulus ``C``, back stress ``q``).  The update is the classic
elastic-predictor / plastic-corrector scheme: form a trial stress from the
strain increment, evaluate the yield function on the trial state, and if
it is positive scale back onto the (translated, possibly expanded) yield
surface along the trial flow direction.

All state arrays are packed symmetric tensors of shape (..., 6) as in
:mod:`demplast.tensor`, and every kernel broadcasts over leading axes so a
whole mesh worth of quadrature points updates in one call.  Material
parameters may be scalars or per-point arrays of shape (...).

The plastic multiplier solves the discrete consistency condition in
closed form, so after a plastic update the yield function is zero to
round-off:

    dgamma = f_trial / (2 * (mu + (H + C) / 3))

The back-stress direction is the deviator of (sigma_new - q_old),
normalized.  The deviator is what enters the yield function, and using it
keeps the back stress trace-free and the discrete consistency condition
exact for arbitrary (non-proportional, pressurized) increments; for
pressure-free states it coincides with normalizing the full tensor.  That
deviator is eta_trial scaled by a positive factor, so its direction is
the trial flow direction n_dir = eta_trial / ||eta_trial||, and the update
moves q along n_dir without forming the deviator.

Within a load step every point restarts from the same committed state,
so every per-point constant of the update is formed once per step, as
:class:`StepConstants`: the moduli 2 mu, 2 (mu + (H + C) / 3) and
(2/3) C, dev(sigma_old), tr(sigma_old) / 3, dev(q_old), the yield radius
and the stored energy.  The return map takes either the state or its
constants and gives the same bits; a plain call forms the constants
inline.  The stored energy needs no hardening-mode mask: a valid
:class:`HardeningLaw` is kinematic exactly where C > 0.

The deviators and the trial stress add a multiple of the identity,
``x[..., None] * I``, which numpy broadcasts over a length-6 axis.  Above
``tensor.LONG_ARRAY`` points, a mesh-scale batch, :func:`_with_identity`
writes the same bits a column at a time instead: a return map at 14,400
points went from 1.85 to 1.62 ms on a 2-vCPU x86-64 host.  At preset
sizes the column loop is the slower form.

The incremental free-energy density of :func:`energy_density` is the
variationally consistent potential of this update (Ortiz & Stainier 1999;
Simo & Hughes 1998), so at self-consistent committed states its strain
derivative is sigma_new in both hardening modes and needs no adjoint.
Substituting the return map gives it in closed form from the trial state,
psi = sigma_trial : (eps - eps_p_old) / 2 + stored_old - delta_gamma
f_trial / 2, so an evaluation needs neither the new plastic strain nor
the new back stress; :class:`ReturnResult` forms those only when its
``state`` is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as t2

ISOTROPIC = "isotropic"
KINEMATIC = "kinematic"

_SQ23 = np.sqrt(2.0 / 3.0)

# Packed identity, to form a * I from a per-point a; a - (tr(a) / 3) I is
# :func:`demplast.tensor.deviator` of a, bit for bit.
_EYE = t2.identity()


@dataclass(frozen=True)
class ElasticConstants:
    """Shear modulus mu and bulk modulus kappa, both > 0 (MPa)."""

    mu: float
    kappa: float

    def __post_init__(self):
        if not (0.0 < self.mu < np.inf and 0.0 < self.kappa < np.inf):
            raise ValueError(f"elastic moduli must be positive and finite, "
                             f"got mu={self.mu}, kappa={self.kappa}")


@dataclass(frozen=True)
class HardeningLaw:
    """Initial yield stress plus one linear hardening branch.

    mode "isotropic" uses modulus H (C must be 0); mode "kinematic" uses
    modulus C > 0 (H must be 0).  The mixed case is not supported.
    """

    sigma_y0: float
    H: float = 0.0
    C: float = 0.0
    mode: str = ISOTROPIC

    def __post_init__(self):
        if not 0.0 < self.sigma_y0 < np.inf:
            raise ValueError(f"sigma_y0 must be positive and finite, got "
                             f"{self.sigma_y0}")
        if not (0.0 <= self.H < np.inf and 0.0 <= self.C < np.inf):
            raise ValueError(f"hardening moduli must be non-negative and "
                             f"finite, got H={self.H}, C={self.C}")
        if self.mode == ISOTROPIC:
            if self.C != 0.0:
                raise ValueError("isotropic mode requires C = 0")
        elif self.mode == KINEMATIC:
            if self.H != 0.0:
                raise ValueError("kinematic mode requires H = 0")
            if self.C <= 0.0:
                raise ValueError("kinematic mode requires C > 0 (the free energy "
                                 "divides by C)")
        else:
            raise ValueError(f"unknown hardening mode {self.mode!r}")


@dataclass
class PlasticState:
    """Committed quadrature-point state: stress, plastic strain, accumulated
    plastic strain and back stress.  All arrays share leading shape (...)."""

    sigma: np.ndarray
    eps_p: np.ndarray
    ebar_p: np.ndarray
    q: np.ndarray

    @classmethod
    def zero(cls, shape=()) -> "PlasticState":
        if np.isscalar(shape):
            shape = (shape,)
        shape = tuple(shape)
        return cls(sigma=np.zeros(shape + (6,)), eps_p=np.zeros(shape + (6,)),
                   ebar_p=np.zeros(shape), q=np.zeros(shape + (6,)))

    def copy(self) -> "PlasticState":
        return PlasticState(self.sigma.copy(), self.eps_p.copy(),
                            self.ebar_p.copy(), self.q.copy())


@dataclass(frozen=True)
class StepConstants:
    """A committed state with every per-point constant that
    :func:`return_map` and :func:`energy_density` use of it and of the
    material parameters, formed once by :meth:`of`.

    Everything here is fixed for a whole load step, so a caller that
    updates the same points many times from one committed state forms it
    once and passes it in place of the state.  Being frozen and built
    only from ``state`` and the parameters, it cannot pair the constants
    with another state.
    """

    state: PlasticState
    two_mu: np.ndarray      # 2 mu, a (..., 1) column
    denom: np.ndarray       # 2 (mu + (H + C) / 3), divides f_trial
    c23: np.ndarray         # (2/3) C, the back-stress rate, a (..., 1) column
    s_dev: np.ndarray       # dev(sigma_old)
    p: np.ndarray           # tr(sigma_old) / 3
    q_dev: np.ndarray       # dev(q_old)
    radius: np.ndarray      # sqrt(2/3) (sigma_y0 + H ebar_old)
    stored: np.ndarray      # 3 q_old:q_old / (4C) + H ebar_old^2 / 2

    @classmethod
    def of(cls, state: PlasticState, mu, sigma_y0, H, C) -> "StepConstants":
        """The parameters broadcast against the state's leading shape.  H
        and C must be those of valid :class:`HardeningLaw` objects, so that
        a point is kinematic exactly where C > 0 and isotropic elsewhere."""
        # sigma and q stacked, so their traces and deviators take one pass.
        buf = np.array((state.sigma, state.q))
        third = (buf[..., 0] + buf[..., 1] + buf[..., 2]) / 3.0
        _with_identity(np.subtract, buf, third, out=buf)
        # No mode mask: H = 0 where C > 0, and where C = 0 (isotropic, q
        # stays 0) the q term is 0.
        kin = np.asarray(C) > 0.0
        q_mod = np.where(kin, 0.75 / np.where(kin, C, 1.0), 0.0)
        stored = q_mod * ((state.q * state.q) @ t2.CONTRACTION_WEIGHTS) \
            + 0.5 * H * state.ebar_p * state.ebar_p
        return cls(state=state, two_mu=2.0 * np.asarray(mu)[..., None],
                   denom=2.0 * (mu + (H + C) / 3.0),
                   c23=(2.0 / 3.0) * np.asarray(C)[..., None],
                   s_dev=buf[0], p=third[0], q_dev=buf[1],
                   radius=_SQ23 * (sigma_y0 + H * state.ebar_p),
                   stored=stored)


@dataclass
class ReturnResult:
    """The updated stress, the plastic multiplier and what the energy needs
    of the trial state.  The new eps_p, ebar_p and q are formed from
    ``flow`` on the first read of :attr:`state`: an optimizer evaluates
    many trial increments per step but commits one."""

    start: StepConstants
    sigma: np.ndarray           # sigma_new
    sigma_trial: np.ndarray
    flow: np.ndarray            # delta_gamma * n_dir
    delta_gamma: np.ndarray
    yielded: np.ndarray
    f_trial: np.ndarray
    _state: PlasticState | None = field(default=None, init=False, repr=False)

    @property
    def state(self) -> PlasticState:
        if self._state is None:
            old = self.start.state
            self._state = PlasticState(
                sigma=self.sigma, eps_p=old.eps_p + self.flow,
                ebar_p=old.ebar_p + _SQ23 * self.delta_gamma,
                q=old.q + self.start.c23 * self.flow)
        return self._state


def return_map(mu, kappa, sigma_y0, H, C, state, d_eps: np.ndarray):
    """Vectorized radial return.  Parameters broadcast against the batch;
    ``d_eps`` and the state arrays are float ndarrays of one shape.

    ``state`` is the committed :class:`PlasticState`, or its
    :class:`StepConstants`, which then stand for ``mu``, ``sigma_y0``,
    ``H`` and ``C``; only ``kappa`` is read.  Returns (ReturnResult,
    f_trial), the second item being the trial yield value.  The elastic
    branch keeps the trial stress bit-for-bit; the plastic branch applies
    the closed-form corrector.  Committed state arrays are never mutated.
    """
    start = state if isinstance(state, StepConstants) \
        else StepConstants.of(state, mu, sigma_y0, H, C)
    two_mu = start.two_mu
    tr = d_eps[..., 0] + d_eps[..., 1] + d_eps[..., 2]
    s_trial = start.s_dev + two_mu * _with_identity(np.subtract, d_eps,
                                                     tr / 3.0)
    eta_trial = s_trial - start.q_dev
    n_trial = t2.norm(eta_trial)
    f_trial = n_trial - start.radius
    # the trial stress, formed in place of its deviator
    sigma_trial = _with_identity(np.add, s_trial, kappa * tr + start.p,
                                 out=s_trial)

    plastic = f_trial > 0.0
    delta_gamma = np.where(plastic, f_trial / start.denom, 0.0)
    # delta_gamma * n_dir with n_dir = eta_trial / n_trial.  A plastic
    # point has n_trial > radius, so dividing by the larger of the two
    # leaves it unchanged and keeps elastic points (delta_gamma = 0) off 0/0.
    # The back stress moves along the deviator of (sigma_new - q_old),
    # which is n_dir itself (module docstring), at the rate start.c23.
    flow = (delta_gamma / np.maximum(n_trial, start.radius))[..., None] \
        * eta_trial
    res = ReturnResult(start=start, sigma=sigma_trial - two_mu * flow,
                       sigma_trial=sigma_trial, flow=flow,
                       delta_gamma=delta_gamma, yielded=plastic,
                       f_trial=f_trial)
    return res, f_trial


def _with_identity(op, a: np.ndarray, v: np.ndarray, out=None):
    """``op(a, v[..., None] * _EYE, out=out)`` for a ufunc ``op``, formed
    a column at a time when the last axis of ``v``, the points, is longer
    than ``LONG_ARRAY`` (see the module docstring), with ``v * 0.0`` off
    the diagonal so that signed zeros and NaN come out as in the
    product."""
    if v.ndim == 0 or v.shape[-1] <= t2.LONG_ARRAY:
        return op(a, v[..., None] * _EYE, out=out)
    if out is None:
        out = np.empty(a.shape)
    off_diagonal = v * 0.0
    for k in range(6):
        op(a[..., k], v if k < 3 else off_diagonal, out=out[..., k])
    return out


def radial_return(consts: ElasticConstants, law: HardeningLaw,
                  state: PlasticState, d_eps: np.ndarray) -> ReturnResult:
    """Public single-material entry point; see :func:`return_map`."""
    res, _ = return_map(consts.mu, consts.kappa, law.sigma_y0, law.H, law.C,
                        state, np.asarray(d_eps, dtype=float))
    return res


def energy_density(result: ReturnResult,
                   eps_total: np.ndarray) -> np.ndarray:
    """Incremental free-energy density at the points of a
    :func:`return_map` result (batched).

    In terms of the state it is

        W(eps_total - eps_p_new) + stored(new)
        + (eps_p_new - eps_p_old) : sigma_new - stored'(new) (new - old)

    with the elastic energy W, the stored energy 3 q:q / (4C) (kinematic;
    C eps_p:eps_p / 3 written through q = 2 C eps_p / 3) or H ebar^2 / 2
    (isotropic), and its derivative stored' in q or ebar.  Substituting
    the radial return gives the closed form evaluated here:

        sigma_trial : (eps_total - eps_p_old) / 2 + stored(old)
        - delta_gamma f_trial / 2

    so only the trial stress and the multiplier vary within a step, and
    stored(old) is read from ``result.start``.  At committed states
    produced by :func:`return_map` from the committed strain,
    d(psi)/d(eps_total) = sigma_new in both modes.
    """
    start = result.start
    work = (result.sigma_trial * (eps_total - start.state.eps_p)) \
        @ t2.CONTRACTION_WEIGHTS
    return 0.5 * (work - result.delta_gamma * result.f_trial) + start.stored


def density_strain_gradient(result) -> np.ndarray:
    """d(psi)/d(eps_total) of :func:`energy_density`, i.e. sigma_new, of a
    :class:`ReturnResult` or a :class:`PlasticState`.  Kept as a named
    function because the benchmark's span tracer wraps this name and its
    self-test raises KeyError when a wrapped name is missing."""
    return result.sigma


def von_mises(sigma: np.ndarray) -> np.ndarray:
    """Equivalent stress sqrt(3/2) ||dev(sigma)||."""
    return np.sqrt(1.5) * t2.norm(t2.deviator(sigma))


def drive_point(consts: ElasticConstants, law: HardeningLaw,
                strain_path: np.ndarray) -> list[PlasticState]:
    """Fold the return map over a strain history (n_steps, 6).

    Returns the committed state after each entry of the path, starting
    from the zero state.  The first path entry is treated as the strain at
    the end of the first step (initial strain is zero).
    """
    strain_path = np.atleast_2d(np.asarray(strain_path, dtype=float))
    state = PlasticState.zero()
    eps_prev = np.zeros(6)
    out = []
    for eps in strain_path:
        res = radial_return(consts, law, state, eps - eps_prev)
        state = res.state
        eps_prev = eps
        out.append(state.copy())
    return out
